//! End-to-end tests of the `d3l` binary: usage/exit-code contract,
//! evidence-flag handling, and the `demo`/`stats`/`query` paths.

use std::path::PathBuf;
use std::process::{Command, Output};

use d3l::prelude::*;
use d3l::table::csv;

fn d3l_cmd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_d3l"))
        .args(args)
        .output()
        .expect("failed to spawn the d3l binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A tiny on-disk lake plus a target CSV, cleaned up on drop.
struct TempLake {
    dir: PathBuf,
    target: PathBuf,
}

impl TempLake {
    fn create(tag: &str) -> Self {
        let base = std::env::temp_dir().join(format!("d3l_cli_test_{}_{tag}", std::process::id()));
        let dir = base.join("lake");
        std::fs::create_dir_all(&dir).unwrap();

        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "gp_funding",
                &["Practice", "City", "Payment"],
                &[
                    vec!["Blackfriars".into(), "Salford".into(), "15530".into()],
                    vec!["The London Clinic".into(), "London".into(), "73648".into()],
                    vec!["Radclife Care".into(), "Manchester".into(), "24190".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "planets",
                &["Planet", "Moons"],
                &[
                    vec!["Saturn".into(), "146".into()],
                    vec!["Jupiter".into(), "95".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.save_dir(&dir).unwrap();

        let target = Table::from_rows(
            "gps",
            &["Practice", "City"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();
        let target_path = base.join("target.csv");
        std::fs::write(&target_path, csv::to_csv(&target)).unwrap();
        TempLake {
            dir,
            target: target_path,
        }
    }

    fn dir(&self) -> &str {
        self.dir.to_str().unwrap()
    }

    fn target(&self) -> &str {
        self.target.to_str().unwrap()
    }
}

impl Drop for TempLake {
    fn drop(&mut self) {
        if let Some(base) = self.dir.parent() {
            std::fs::remove_dir_all(base).ok();
        }
    }
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = d3l_cmd(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("usage:"), "stderr was: {err}");
    assert!(
        err.contains("--evidence N|V|F|E|D"),
        "usage must document evidence flags: {err}"
    );
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    // `serve --watch` is the watcher's one front end; there is no `watch`.
    for command in ["discover", "watch"] {
        let out = d3l_cmd(&[command, "lake", "--index", "idx"]);
        assert_eq!(out.status.code(), Some(2), "{command}");
        assert!(stderr_of(&out).contains("usage:"), "{command}");
    }
}

#[test]
fn query_on_missing_lake_dir_exits_1_with_error() {
    let out = d3l_cmd(&["query", "/nonexistent/lake", "/nonexistent/target.csv"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("error:"));
}

#[test]
fn unknown_evidence_flag_exits_1_naming_the_flag() {
    let lake = TempLake::create("bad_evidence");
    let out = d3l_cmd(&["query", lake.dir(), lake.target(), "--evidence", "Z"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("unknown evidence Z"));
}

/// A query runs on the thread that asked for it: `query` has no thread
/// count, and `--threads` is an unexpected argument.
#[test]
fn query_refuses_a_thread_count() {
    let lake = TempLake::create("thread_flag");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let out = d3l_cmd(&[
        "query",
        "--index",
        &index_dir,
        lake.target(),
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("unexpected argument --threads"),
        "stderr: {}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&index_dir).ok();
}

#[test]
fn query_finds_the_related_table() {
    let lake = TempLake::create("query");
    let out = d3l_cmd(&["query", lake.dir(), lake.target(), "-k", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("gp_funding"),
        "top-1 must be gp_funding, got: {stdout}"
    );
    assert!(!stdout.contains("no related tables"), "got: {stdout}");
}

/// An Excel-exported CSV starts with a UTF-8 byte-order mark. It is
/// no part of the first header: the alignment names `City`.
#[test]
fn a_byte_order_mark_is_no_part_of_the_first_header() {
    let base = std::env::temp_dir().join(format!("d3l_cli_test_{}_bom", std::process::id()));
    let lake = base.join("lake");
    std::fs::create_dir_all(&lake).unwrap();
    std::fs::write(
        lake.join("gp.csv"),
        "\u{feff}City,Practice\nSalford,Blackfriars\nLondon,The London Clinic\n",
    )
    .unwrap();
    std::fs::write(lake.join("planets.csv"), "Planet,Moons\nSaturn,146\n").unwrap();
    let target = base.join("target.csv");
    std::fs::write(&target, "City,Practice\nSalford,Blackfriars\n").unwrap();
    let out = d3l_cmd(&[
        "query",
        lake.to_str().unwrap(),
        target.to_str().unwrap(),
        "-k",
        "1",
    ]);
    std::fs::remove_dir_all(&base).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("target.City ← City\n"), "got: {stdout}");
    assert!(!stdout.contains('\u{feff}'), "got: {stdout:?}");
}

#[test]
fn query_accepts_each_evidence_flag() {
    let lake = TempLake::create("evidence_ok");
    for flag in ["N", "V", "F", "E", "D", "n", "v", "f", "e", "d"] {
        let out = d3l_cmd(&["query", lake.dir(), lake.target(), "--evidence", flag]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--evidence {flag} failed: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn stats_reports_lake_shape() {
    let lake = TempLake::create("stats");
    let out = d3l_cmd(&["stats", lake.dir()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("tables:         2"), "got: {stdout}");
    assert!(stdout.contains("attributes:     5"), "got: {stdout}");
    assert!(stdout.contains("index bytes:"), "got: {stdout}");
    let lanes = d3l::core::index::signing_lanes();
    assert!(
        stdout.contains(&format!("signing lanes:  {lanes}")),
        "got: {stdout}"
    );

    // Under the footprint table, how far each index pools: every
    // column is in IN and IF, the three textual ones in IV and IE —
    // from the lake and from its index.
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let indexed = d3l_cmd(&["stats", "--index", &index_dir]);
    assert_eq!(indexed.status.code(), Some(0), "{}", stderr_of(&indexed));
    for stdout in [stdout, stdout_of(&indexed)] {
        assert!(stdout.contains("postings"), "got: {stdout}");
        let table = |title: &str| -> Vec<Vec<&str>> {
            let rows = stdout.lines().skip_while(|l| !l.starts_with(title));
            rows.skip(2)
                .take(4)
                .map(|l| l.split_whitespace().collect())
                .collect()
        };
        let rows = table("classes (distinct signatures)");
        let footprint = table("in-memory footprint");
        let number = |cell: &str| cell.parse::<usize>().expect("a count");
        let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(names, ["IN", "IV", "IF", "IE"], "got: {stdout}");
        for (row, bytes) in rows.iter().zip(&footprint) {
            // The "trees" column: 16 trees, an 8-byte entry per class.
            assert_eq!(bytes[0], row[0], "got: {stdout}");
            assert_eq!(number(bytes[1]), 8 * 16 * number(row[2]), "got: {stdout}");
        }
        for row in &rows {
            let (attributes, classes, largest) = (number(row[1]), number(row[2]), number(row[3]));
            let live = if matches!(row[0], "IN" | "IF") { 5 } else { 3 };
            assert_eq!(attributes, live, "{}: {stdout}", row[0]);
            assert!(
                1 <= classes && classes <= attributes,
                "{}: {stdout}",
                row[0]
            );
            assert!(
                1 <= largest && largest <= attributes,
                "{}: {stdout}",
                row[0]
            );
        }
    }
    std::fs::remove_dir_all(&index_dir).ok();
}

#[test]
fn index_persists_and_query_cold_starts_from_it() {
    let lake = TempLake::create("store_flow");
    let index_dir = format!("{}_index", lake.dir());

    // Build + persist.
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("snapshot"),
        "index must report the snapshot: {}",
        stdout_of(&out)
    );
    assert!(
        stderr_of(&out).contains(&format!(
            "({} signing lanes)",
            d3l::core::index::signing_lanes()
        )),
        "index must say which kernel signs: {}",
        stderr_of(&out)
    );

    // Cold-start query from the persisted index: same answer as the
    // rebuild path, no re-profiling.
    let out = d3l_cmd(&["query", "--index", &index_dir, lake.target(), "-k", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("gp_funding"),
        "cold-start top-1 must be gp_funding: {}",
        stdout_of(&out)
    );
    assert!(
        stderr_of(&out).contains("cold start"),
        "must announce the cold start: {}",
        stderr_of(&out)
    );

    // The opened index and the lake indexed on the fly print the same
    // ranking: tables, distances, coverage and alignments.
    let cold = d3l_cmd(&["query", "--index", &index_dir, lake.target(), "-k", "2"]);
    let rebuilt = d3l_cmd(&["query", lake.dir(), lake.target(), "-k", "2"]);
    assert_eq!(cold.status.code(), Some(0), "stderr: {}", stderr_of(&cold));
    assert_eq!(
        rebuilt.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&rebuilt)
    );
    assert!(stdout_of(&cold).contains("planets"), "two tables ranked");
    assert_eq!(stdout_of(&cold), stdout_of(&rebuilt));

    // Stats over the index directory labels both footprints.
    let out = d3l_cmd(&["stats", "--index", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("in-memory footprint"), "got: {stdout}");
    assert!(stdout.contains("on-disk snapshot"), "got: {stdout}");
    assert!(stdout.contains("base snapshot"), "got: {stdout}");

    // The section table accounts for the whole base file: the payloads
    // of the nine sections, a 16-byte header, a 28-byte table row each
    // and the 20-byte trailer.
    let rows: Vec<(&str, u64)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("base snapshot sections"))
        .skip(1)
        .map(|l| {
            let mut fields = l.split_whitespace();
            let tag = fields.next().unwrap();
            (tag, fields.next().unwrap().parse().unwrap())
        })
        .collect();
    let tags: Vec<&str> = rows.iter().map(|r| r.0).collect();
    assert_eq!(
        tags,
        ["CONF", "TABL", "PROF", "F_IN", "F_IV", "F_IF", "F_IE", "SEQN"]
    );
    let base_len = std::fs::metadata(std::path::Path::new(&index_dir).join("base.d3ls"))
        .unwrap()
        .len();
    let payload: u64 = rows.iter().map(|r| r.1).sum();
    assert_eq!(payload, base_len - 16 - 28 * rows.len() as u64 - 20);

    std::fs::remove_dir_all(&index_dir).ok();
}

/// A reader that stops early — `d3l stats --index dir | head -1` — ends
/// the command quietly: the write that finds the pipe closed used to
/// panic ("failed printing to stdout", exit 101). The pipe is dropped
/// after one line, and before any.
#[test]
fn a_closed_stdout_pipe_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let lake = TempLake::create("closed_pipe");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let commands = [
        vec!["stats", "--index", &index_dir],
        vec!["query", "--index", &index_dir, lake.target()],
    ];
    for read_a_line in [true, false] {
        for args in &commands {
            let mut child = Command::new(env!("CARGO_BIN_EXE_d3l"))
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("failed to spawn the d3l binary");
            let stdout = child.stdout.take().unwrap();
            if read_a_line {
                let mut line = String::new();
                BufReader::new(stdout).read_line(&mut line).unwrap();
                assert!(!line.is_empty(), "{args:?}");
            }
            let out = child.wait_with_output().unwrap();
            let stderr = stderr_of(&out);
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
            assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&index_dir).ok();
}

#[test]
fn index_of_a_lake_with_a_bad_csv_leaves_no_index_directory() {
    let lake = TempLake::create("bad_csv");
    let index_dir = format!("{}_index", lake.dir());
    std::fs::write(lake.dir.join("broken.csv"), "a,b\n\"unterminated").unwrap();
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    assert!(
        stderr_of(&out).contains("error: csv parse error"),
        "must name the parse error: {}",
        stderr_of(&out)
    );
    assert!(
        !std::path::Path::new(&index_dir).exists(),
        "a failed build must not leave a partial index"
    );
}

#[test]
fn add_remove_compact_maintain_the_index() {
    let lake = TempLake::create("store_maint");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    // Add a new table (the target csv doubles as a table file).
    let out = d3l_cmd(&["add", &index_dir, lake.target()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("added"),
        "got: {}",
        stdout_of(&out)
    );

    // Re-adding the same name is rejected.
    let out = d3l_cmd(&["add", &index_dir, lake.target()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("already indexed"));

    // The added table is found on a fresh cold start (delta replay).
    let out = d3l_cmd(&["query", "--index", &index_dir, lake.target(), "-k", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("target"),
        "delta-added table must be served: {}",
        stdout_of(&out)
    );

    // Remove it again, compact, and confirm it stays gone.
    let out = d3l_cmd(&["remove", &index_dir, "target"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let out = d3l_cmd(&["compact", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("folded"),
        "got: {}",
        stdout_of(&out)
    );
    let out = d3l_cmd(&["query", "--index", &index_dir, lake.target(), "-k", "3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        !stdout.lines().any(|l| l.starts_with("target ")),
        "removed table must not be served: {stdout}"
    );

    // Removing a name that was never indexed fails cleanly.
    let out = d3l_cmd(&["remove", &index_dir, "never_there"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("no indexed table"));

    std::fs::remove_dir_all(&index_dir).ok();
}

#[test]
fn corrupt_index_fails_with_store_error_not_panic() {
    let lake = TempLake::create("store_corrupt");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    // Truncate the base snapshot to half.
    let base = std::path::Path::new(&index_dir).join("base.d3ls");
    let bytes = std::fs::read(&base).unwrap();
    std::fs::write(&base, &bytes[..bytes.len() / 2]).unwrap();
    let out = d3l_cmd(&["query", "--index", &index_dir, lake.target()]);
    assert_eq!(out.status.code(), Some(1), "corruption must be an error");
    assert!(
        stderr_of(&out).contains("error:"),
        "got: {}",
        stderr_of(&out)
    );

    // Garbage magic.
    std::fs::write(&base, b"not a snapshot at all").unwrap();
    let out = d3l_cmd(&["stats", "--index", &index_dir]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("not a D3L store file"),
        "got: {}",
        stderr_of(&out)
    );

    std::fs::remove_dir_all(&index_dir).ok();
}

#[test]
fn stats_on_zero_length_delta_segment_names_the_corrupt_segment() {
    // Regression: a zero-length latest delta used to surface a raw
    // decode error; it must read as a clean "corrupt segment NNNNNN"
    // diagnostic with a nonzero exit.
    let lake = TempLake::create("zero_delta");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let out = d3l_cmd(&["add", &index_dir, lake.target()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    std::fs::write(
        std::path::Path::new(&index_dir).join("delta-000001.d3ld"),
        b"",
    )
    .unwrap();
    let out = d3l_cmd(&["stats", "--index", &index_dir]);
    assert_eq!(out.status.code(), Some(1), "corruption must be an error");
    let err = stderr_of(&out);
    assert!(
        err.contains("corrupt segment 000001"),
        "diagnostic must name the segment: {err}"
    );

    std::fs::remove_dir_all(&index_dir).ok();
}

/// A `d3l serve` child on an ephemeral port.
#[cfg(unix)]
struct Serving {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: std::net::SocketAddr,
}

#[cfg(unix)]
impl Serving {
    /// Spawn `d3l serve <args> --port 0 --threads 2` and read the
    /// address the CLI announces on stdout.
    fn spawn(args: &[&str]) -> Serving {
        use std::io::BufRead;
        let mut child = Command::new(env!("CARGO_BIN_EXE_d3l"))
            .arg("serve")
            .args(args)
            .args(["--port", "0", "--threads", "2"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn d3l serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no address in {line:?}"))
            .parse()
            .unwrap_or_else(|e| panic!("bad address in {line:?}: {e}"));
        Serving {
            child,
            stdout,
            addr,
        }
    }

    /// `GET /stats`, parsed.
    fn stats(&self) -> d3l::server::Json {
        let (status, body) = d3l::server::request_once(self.addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200, "{body}");
        d3l::server::Json::parse(&body)
            .unwrap_or_else(|e| panic!("/stats is not JSON ({e:?}): {body}"))
    }

    /// SIGINT: the server must drain, say so, and exit 0.
    fn drain(mut self) {
        use std::io::Read;
        let kill = Command::new("kill")
            .args(["-INT", &self.child.id().to_string()])
            .output()
            .expect("send SIGINT");
        assert!(kill.status.success());
        let status = self.child.wait().expect("wait for d3l serve");
        assert!(status.success(), "serve must drain and exit cleanly");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("drained"), "stdout tail: {rest:?}");
    }
}

/// The unsigned integer at `path` of a parsed `/stats` document.
#[cfg(unix)]
fn stat(doc: &d3l::server::Json, path: &[&str]) -> usize {
    path.iter()
        .try_fold(doc, |at, key| at.get(key))
        .and_then(|v| v.as_usize())
        .unwrap_or_else(|| panic!("/stats has no integer at {path:?}: {doc:?}"))
}

/// Twelve three-column tables `gp_00.csv` … `gp_11.csv` in a fresh
/// directory (the lake the CI smoke steps used to generate).
#[cfg(unix)]
fn twelve_table_lake(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("d3l_cli_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("lake");
    std::fs::create_dir_all(&dir).unwrap();
    let cities = ["Salford", "Manchester", "Bolton", "Leeds", "York"];
    for i in 0..12 {
        let mut text = String::from("Practice,City,Patients\n");
        for r in 0..6 {
            let city = cities[(i * 7 + r * 3) % cities.len()];
            text.push_str(&format!(
                "Practice {i}-{r},{city},{}\n",
                500 + 37 * i + 211 * r
            ));
        }
        std::fs::write(dir.join(format!("gp_{i:02}.csv")), text).unwrap();
    }
    base
}

/// Boot `d3l serve` on an ephemeral port, query it over a socket,
/// then send SIGINT and expect a graceful drain with exit code 0.
#[cfg(unix)]
#[test]
fn serve_boots_answers_and_drains_on_sigint() {
    let lake = TempLake::create("serve");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    let serving = Serving::spawn(&["--index", &index_dir]);
    assert_eq!(stat(&serving.stats(), &["live_tables"]), 2);
    serving.drain();

    std::fs::remove_dir_all(&index_dir).ok();
}

/// `serve --watch` under live churn: one CSV dropped in, one
/// overwritten, one deleted while the server answers; the watcher's
/// counters follow in `/stats`, nothing errs, the drain is graceful
/// and the store left behind agrees on what is live.
#[cfg(unix)]
#[test]
fn serve_watch_applies_live_churn_and_drains() {
    use d3l::server::request_once;
    use std::time::{Duration, Instant};

    let base = twelve_table_lake("churn");
    let lake = base.join("lake");
    let index = base.join("index");
    let (lake_dir, index_dir) = (lake.to_str().unwrap(), index.to_str().unwrap());
    let out = d3l_cmd(&["index", lake_dir, "--out", index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    // The watcher has no knobs: its poll interval is a constant and
    // the handle folds its segments, so the three flags are gone.
    for (knob, unit) in [
        ("poll", "ms"),
        ("compact", "segments"),
        ("compact", "bytes"),
    ] {
        let flag = format!("--{knob}-{unit}");
        let out = d3l_cmd(&[
            "serve", "--index", index_dir, "--watch", lake_dir, &flag, "50",
        ]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains(&format!("error: unexpected argument {flag}")),
            "stderr: {stderr}"
        );
    }

    let serving = Serving::spawn(&["--index", index_dir, "--watch", lake_dir]);
    assert_eq!(stat(&serving.stats(), &["live_tables"]), 12);

    std::fs::write(
        lake.join("fresh_arrival.csv"),
        "Practice,City\nNew Practice,Salford\n",
    )
    .unwrap();
    std::fs::write(
        lake.join("gp_00.csv"),
        "Practice,City,Patients\nRewritten,Leeds,123\n",
    )
    .unwrap();
    std::fs::remove_file(lake.join("gp_01.csv")).unwrap();

    // Queries stay available while the watcher works.
    let probe = r#"{"table":{"name":"probe","columns":["Practice","City"],"rows":[["Practice 3-1","Salford"]]},"k":3}"#;
    let (status, body) = request_once(serving.addr, "POST", "/query", Some(probe)).unwrap();
    assert_eq!(status, 200, "{body}");

    let deadline = Instant::now() + Duration::from_secs(60);
    let doc = loop {
        let doc = serving.stats();
        let applied = |op: &str| stat(&doc, &["watch", op]);
        if applied("tables_added") >= 1
            && applied("tables_replaced") >= 1
            && applied("tables_removed") >= 1
        {
            break doc;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never applied the churn: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(stat(&doc, &["watch", "errors"]), 0);
    assert!(stat(&doc, &["watch", "batches"]) >= 1);
    assert!(stat(&doc, &["watch", "ingest_lag_ms", "count"]) >= 3);
    assert_eq!(
        stat(&doc, &["live_tables"]),
        12,
        "12 seeded - 1 deleted + 1 added"
    );
    serving.drain();

    let out = d3l_cmd(&["stats", "--index", index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("serving:") && l.split_whitespace().nth(1) == Some("12")),
        "the store must hold the 12 live tables the server reported: {stdout}"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// `index` then `serve`: `/stats` counts the lake's tables and echoes
/// the cache budget and queue bound the server was started with.
#[cfg(unix)]
#[test]
fn served_index_echoes_its_limits() {
    let base = twelve_table_lake("limits");
    let index = base.join("index");
    let index_dir = index.to_str().unwrap();
    let out = d3l_cmd(&[
        "index",
        base.join("lake").to_str().unwrap(),
        "--out",
        index_dir,
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    let serving = Serving::spawn(&[
        "--index",
        index_dir,
        "--cache-bytes",
        "32m",
        "--max-queue",
        "256",
    ]);
    let doc = serving.stats();
    assert_eq!(stat(&doc, &["live_tables"]), 12);
    assert_eq!(stat(&doc, &["cache", "budget_bytes"]), 32 << 20);
    assert_eq!(stat(&doc, &["server", "max_queue"]), 256);
    // A freshly booted server: nothing cached, shed or queued, and it
    // says what it was built as and how many CPUs it saw.
    assert_eq!(stat(&doc, &["engine_version"]), 0);
    for counter in [
        "hits",
        "misses",
        "evictions",
        "insertions",
        "entries",
        "bytes",
    ] {
        assert_eq!(stat(&doc, &["cache", counter]), 0, "cache.{counter}");
    }
    assert_eq!(stat(&doc, &["server", "shed_requests"]), 0);
    assert_eq!(stat(&doc, &["server", "queue_depth"]), 0);
    assert!(stat(&doc, &["server", "hw_threads"]) >= 1);
    let build = |key| {
        doc.get("build")
            .and_then(|b| b.get(key))
            .and_then(|v| v.as_str())
    };
    assert_eq!(build("version"), Some(env!("CARGO_PKG_VERSION")));
    assert!(
        matches!(build("profile"), Some("release" | "debug")),
        "{doc:?}"
    );
    serving.drain();

    std::fs::remove_dir_all(&base).ok();
}

/// Algorithm 3 from a cold start: `query --joins` on a persisted index
/// prints what it prints on the lake it was built from.
#[cfg(unix)]
#[test]
fn joins_answer_identically_from_the_index_and_the_lake() {
    let base = twelve_table_lake("joins");
    let lake = base.join("lake");
    let (lake_dir, target) = (lake.to_str().unwrap(), lake.join("gp_03.csv"));
    let index = base.join("index");
    let index_dir = index.to_str().unwrap();
    let out = d3l_cmd(&["index", lake_dir, "--out", index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let answer = |source: &[&str]| {
        let tail = [target.to_str().unwrap(), "-k", "5", "--joins"];
        let out = d3l_cmd(&[&["query"], source, &tail[..]].concat());
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
        stdout_of(&out)
    };
    let cold = answer(&["--index", index_dir]);
    assert!(cold.contains("join paths from the top-5:"), "got: {cold}");
    assert_eq!(cold, answer(&[lake_dir]));
    std::fs::remove_dir_all(&base).ok();
}

/// One run of the numeric-flag sweep, or why it did not end as it
/// should: exit 0, or exit 1 with an `error:` line, and no panic on
/// stderr. A run whose first stdout line says it is serving
/// (`listening on`) is sent SIGINT and must then drain and exit 0.
/// Nothing may take 30 s to say what it does or to exit.
#[cfg(unix)]
fn sweep_run(args: &[&str]) -> Result<(), String> {
    use std::io::{BufRead, Read};
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_d3l"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn d3l");
    // Stdout is read on its own thread, so a child that prints and
    // does not exit (or neither) cannot stall the sweep.
    let (first_line, lines) = std::sync::mpsc::channel();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let _ = first_line.send(line);
        let _ = stdout.read_to_string(&mut String::new());
    });
    let limit = Duration::from_secs(30);
    let Ok(line) = lines.recv_timeout(limit) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("no output in 30 s".into());
    };
    let long_running = line.starts_with("listening on");
    if long_running {
        let pid = child.id().to_string();
        let kill = Command::new("kill").args(["-INT", &pid]).output();
        assert!(kill.expect("send SIGINT").status.success());
    }
    let deadline = Instant::now() + limit;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("still running 30 s on".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let refused = status.code() == Some(1) && !long_running && stderr.contains("error: ");
    if stderr.contains("panicked") || !(status.success() || refused) {
        return Err(format!("{status}; stderr: {stderr}"));
    }
    Ok(())
}

/// Every numeric flag of `index`, `query` and `serve` at 0, 1, 2³² and
/// `u64::MAX`: each run exits 0, or
/// exits 1 with a message; none panics, aborts or hangs, and `serve`
/// either refuses at once or boots and drains on SIGINT. (`serve
/// --threads 18446744073709551615` panicked on sizing its worker list.)
/// The swept flags are the usage text's: every flag it shows with a
/// numeric placeholder (`N`, `P`, `N[k|m|g]`) is swept, and every
/// swept flag is in it, so a flag cannot be added or deleted without
/// the sweep following.
#[cfg(unix)]
#[test]
fn every_numeric_flag_at_its_extremes_runs_or_is_refused() {
    let lake = TempLake::create("sweep");
    let index_dir = format!("{}_index", lake.dir());
    let out = d3l_cmd(&["index", lake.dir(), "--out", &index_dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let serve = [
        "serve",
        "--index",
        &index_dir,
        "--port",
        "0",
        "--threads",
        "2",
    ];
    let query = ["query", "--index", &index_dir, lake.target()];
    let mut runs: Vec<(Vec<&str>, &str)> = vec![([&query[..], &["--joins"]].concat(), "-k")];
    for flag in [
        "--port",
        "--threads",
        "--cache-bytes",
        "--max-queue",
        "--slow-query-ms",
    ] {
        runs.push((serve.to_vec(), flag));
    }

    let usage = d3l_cmd(&[]);
    assert_eq!(usage.status.code(), Some(2));
    let usage = stderr_of(&usage);
    let documented = numeric_flags(&usage);
    let swept: std::collections::BTreeSet<(&str, &str)> = runs
        .iter()
        .map(|(command, flag)| (command[0], *flag))
        .collect();
    for pair in &documented {
        assert!(swept.contains(pair), "{pair:?} is in the usage, not swept");
    }
    for pair in &swept {
        assert!(
            documented.contains(pair),
            "{pair:?} is swept, not in the usage"
        );
    }

    let start = std::time::Instant::now();
    let mut failures = Vec::new();
    let values = ["0", "1", "4294967296", "18446744073709551615"];
    for (command, flag) in &runs {
        for value in values {
            let args = [&command[..], &[flag, value]].concat();
            if let Err(why) = sweep_run(&args) {
                failures.push(format!("d3l {}: {why}", args.join(" ")));
            }
        }
    }
    let cases = runs.len() * values.len();
    println!("{cases} cases in {:.1} s", start.elapsed().as_secs_f64());
    assert_eq!(cases, 24);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    std::fs::remove_dir_all(&index_dir).ok();
}

/// `(command, flag)` for every flag the usage text shows with a numeric
/// placeholder: `N`, `P` or `N[k|m|g]`, closing brackets aside.
#[cfg(unix)]
fn numeric_flags(usage: &str) -> std::collections::BTreeSet<(&str, &str)> {
    let mut flags = std::collections::BTreeSet::new();
    for line in usage.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let ["d3l", command, ..] = words[..] else {
            continue;
        };
        for pair in words.windows(2) {
            let flag = pair[0].trim_start_matches('[');
            let placeholder = pair[1].trim_end_matches(']');
            if flag.starts_with('-') && matches!(placeholder, "N" | "P" | "N[k|m|g") {
                flags.insert((command, flag));
            }
        }
    }
    flags
}

#[test]
fn demo_runs_end_to_end() {
    let out = d3l_cmd(&["demo"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("demo lake:"), "got: {stdout}");
    // The demo queries with --joins, so both result sections appear.
    assert!(stdout.contains("table"), "result header missing: {stdout}");
    assert!(
        stdout.contains("join paths from the top-5"),
        "got: {stdout}"
    );
}
