//! The program under test, run the way its users run it: the release
//! `d3l` binary as a child process — `d3l index` to completion,
//! `d3l serve --port 0` until killed — plus the guards that make sure
//! no child and no scratch file outlives the run, whichever way the
//! run ends (return, failed check, panic).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::workloads::{CPU, SERVER_THREADS};

/// The benchmark's own directory (`benchmark/` of the checkout this
/// binary was built in). Everything a run writes lands in `out/`
/// beneath it.
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    home().join("out")
}

/// The `d3l` binary: `$D3L_BIN`, or the file next to this executable
/// (`run.sh` builds both into one target directory).
pub fn d3l_bin() -> Result<PathBuf, String> {
    let path = match std::env::var_os("D3L_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("d3l"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "the d3l binary is not at {} (build it with `cargo build --release --bin d3l`, or run benchmark/run.sh, which does)",
            path.display()
        ))
    }
}

/// A scratch directory under `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(label: &str) -> Result<Scratch, String> {
        let path = out_dir().join(format!("run-{}-{label}", std::process::id()));
        // A stale directory of a recycled pid would leak old segments
        // into a "fresh" index.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills and reaps a child on drop unless it was already waited for.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Total bytes of the regular files directly inside `dir` (a store
/// directory is flat).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread to [`CPU`]. Called first thing in `main`:
/// every thread the generator spawns and every child it starts
/// inherits the mask, and a program that sizes its thread pools from
/// the CPUs available to it sees one.
pub fn pin() -> Result<(), String> {
    let mask: u64 = 1 << CPU;
    // SAFETY: one system call that reads `mask`, a live `u64` of the
    // 8 bytes `cpusetsize` declares; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot run on CPU {CPU} alone: {} (the benchmark is calibrated for a box with 2 CPUs)",
            std::io::Error::last_os_error()
        ))
    }
}

pub struct IndexRun {
    pub wall: Duration,
    pub peak_rss_kib: u64,
}

/// Run `d3l index <lake> --out <index>` to completion.
///
/// The wall clock is spawn → exit, taken by a blocking wait. The peak
/// RSS is polled from `/proc/<pid>/status` every few milliseconds by a
/// second thread (a zombie has no `VmHWM`, and `wait4`'s `ru_maxrss`
/// would include this process's own memory from before the `exec`).
/// The poller sleeps between reads; it is the one timer in the
/// benchmark and carries no load (a read of 20 µs every 4 ms, on the
/// CPU the child runs on).
pub fn run_index(bin: &Path, lake: &Path, index: &Path) -> Result<IndexRun, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("index")
        .arg(lake)
        .arg("--out")
        .arg(index)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {} index: {e}", bin.display()))?;
    let pid = child.id();
    let mut child = Reaper(child);
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (status, wall) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(kib) = vm_hwm_kib(pid) {
                    peak.fetch_max(kib, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(4));
            }
        });
        let status = child.0.wait();
        let wall = start.elapsed();
        // Release: pairs with the poller's Acquire load above.
        done.store(true, Ordering::Release);
        (status, wall)
    });
    let status = status.map_err(|e| format!("wait for d3l index: {e}"))?;
    if !status.success() {
        return Err(format!("d3l index exited with {status}"));
    }
    Ok(IndexRun {
        wall,
        peak_rss_kib: peak.load(Ordering::Relaxed),
    })
}

/// A running `d3l serve`, killed and reaped on drop.
pub struct Server {
    child: Reaper,
    pub addr: SocketAddr,
    /// When the child was spawned.
    pub spawned: Instant,
    /// Drains the child's stdout for its lifetime, so the pipe stays
    /// open and the child never blocks or dies on a write to it.
    stdout: Option<std::thread::JoinHandle<()>>,
    stderr_path: PathBuf,
}

impl Server {
    /// Spawn `d3l serve --index <dir> --port 0` and wait until it is
    /// ready: the `listening on http://ADDR` line parsed from its
    /// stdout, then one `GET /stats` answered 200.
    pub fn spawn(
        bin: &Path,
        index: &Path,
        cache_off: bool,
        stderr_path: &Path,
    ) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--index").arg(index).args([
            "--port",
            "0",
            "--threads",
            &SERVER_THREADS.to_string(),
        ]);
        if cache_off {
            cmd.args(["--cache-bytes", "0"]);
        }
        let spawned = Instant::now();
        let mut child = cmd
            .env("D3L_QUERY_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", bin.display()))?;
        let pipe = child.stdout.take().expect("stdout was piped");
        let child = Reaper(child);
        let (tx, rx) = mpsc::channel::<String>();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                // The receiver hangs up once the address is known.
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            stdout: Some(stdout),
            stderr_path: stderr_path.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        server.addr = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = parse_listening(&line) {
                        break addr;
                    }
                }
                Err(_) => return Err(server.failure("d3l serve never printed `listening on`")),
            }
        };
        drop(rx);
        let mut conn = Conn::connect(server.addr)
            .map_err(|e| server.failure(&format!("connect to {}: {e}", server.addr)))?;
        match conn.request("GET", "/stats", b"") {
            Ok(200) => Ok(server),
            Ok(status) => Err(server.failure(&format!("GET /stats answered {status}"))),
            Err(e) => Err(server.failure(&format!("GET /stats: {e}"))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    fn failure(&self, what: &str) -> String {
        let stderr = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        format!(
            "{what}; server stderr: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.0.kill();
        let _ = self.child.0.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}

/// `listening on http://127.0.0.1:41233 (2 workers); …` → the address.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("listening on http://")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_listening_line_parses() {
        assert_eq!(
            parse_listening(
                "listening on http://127.0.0.1:41233 (2 workers); Ctrl-C drains and exits"
            ),
            Some(SocketAddr::from(([127, 0, 0, 1], 41233)))
        );
        assert_eq!(parse_listening("result cache: disabled"), None);
        assert_eq!(
            parse_listening("listening on http://nonsense (2 workers)"),
            None
        );
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
        assert_eq!(vm_hwm_kib(u32::MAX), None);
    }

    #[test]
    fn scratch_is_removed_on_drop_even_when_unwinding() {
        let path = {
            let s = Scratch::create("unit-a").unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
            assert_eq!(dir_bytes(s.path()).unwrap(), 1);
            s.path().to_path_buf()
        };
        assert!(!path.exists());
        let caught = std::panic::catch_unwind(|| {
            let s = Scratch::create("unit-b").unwrap();
            let p = s.path().to_path_buf();
            std::panic::panic_any(p);
        });
        let path = *caught.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn a_child_is_reaped_on_drop() {
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        drop(Reaper(child));
        // Reaped: no process, not even a zombie, is left under the pid.
        assert!(!Path::new(&format!("/proc/{pid}/status")).exists());
    }
}
