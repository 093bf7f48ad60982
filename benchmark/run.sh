#!/usr/bin/env bash
# The benchmark's command (see ../BENCHMARK.json): build the program
# and the benchmark from source, then run one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both builds go into one target directory ($CARGO_TARGET_DIR, or
# benchmark/target), so `d3l-benchmark` finds the release `d3l` binary
# next to itself. Nothing is built when nothing changed. Where the
# repository is absent (only BENCHMARK.json and benchmark/), the first
# build fails and so does this script, without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the result line only.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin d3l 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/d3l-benchmark" "$@"
