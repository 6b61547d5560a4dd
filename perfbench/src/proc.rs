//! Child processes: run-to-completion commands with their peak resident
//! set, and the `parsplu serve` daemon.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    fields: [i64; 18],
}

const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
pub struct Reaped {
    /// Exit code, `None` when killed by a signal.
    pub code: Option<i32>,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mib: f64,
}

/// Waits for `child` with `wait4(2)`, which also returns the child's
/// resource usage (std's `Child::wait` does not). The child must not be
/// waited on again afterwards.
fn reap(child: &Child) -> Result<Reaped, String> {
    let pid = child.id() as i32;
    loop {
        let mut status = 0i32;
        let mut ru = Rusage { fields: [0; 18] };
        // SAFETY: `status` and `ru` are valid, writable, and laid out as
        // wait4(2) expects on 64-bit Linux; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
            return Ok(Reaped {
                code,
                peak_rss_mib: ru.fields[RU_MAXRSS] as f64 / 1024.0,
            });
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {e}"));
        }
    }
}

/// A finished command: its output, wall time from spawn to reap, and
/// resource usage.
pub struct Finished {
    pub stdout: String,
    pub stderr: String,
    pub wall: Duration,
    pub reaped: Reaped,
}

impl Finished {
    /// `Err` with the command's stderr unless it exited with code 0.
    pub fn ok(self, what: &str) -> Result<Finished, String> {
        if self.reaped.code == Some(0) {
            Ok(self)
        } else {
            Err(format!(
                "{what} exited with {:?}: {}",
                self.reaped.code,
                self.stderr.trim()
            ))
        }
    }
}

/// Runs `program args…` in `dir` to completion.
pub fn run(program: &Path, args: &[&str], dir: &Path) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    // Both streams are small (a few lines); read stdout to EOF, then
    // stderr, then reap.
    let mut stdout = String::new();
    let mut stderr = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .and_then(|_| {
            child
                .stderr
                .take()
                .expect("stderr is piped")
                .read_to_string(&mut stderr)
        });
    let reaped = reap(&child)?;
    let wall = t0.elapsed();
    read.map_err(|e| format!("reading output of {}: {e}", program.display()))?;
    Ok(Finished {
        stdout,
        stderr,
        wall,
        reaped,
    })
}

/// A running `parsplu serve --listen` daemon. Dropping it kills and reaps
/// the process if [`Daemon::wait`] has not.
pub struct Daemon {
    child: Option<Child>,
    /// Spawn instant.
    pub spawned: Instant,
    /// When the `listening on` announcement arrived.
    pub listening: Instant,
    /// The announced socket address.
    pub addr: String,
    stderr_lines: mpsc::Receiver<String>,
}

impl Daemon {
    /// Spawns the daemon and waits for its address announcement (which
    /// comes before the journal replay).
    pub fn spawn(program: &Path, args: &[&str], dir: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let stderr = child.stderr.take().expect("stderr is piped");
        // Drains stderr for the daemon's whole life, so it can never block
        // on a full pipe; ends at the daemon's exit.
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            spawned,
            listening: spawned,
            addr: String::new(),
            stderr_lines: rx,
        };
        let deadline = spawned + Duration::from_secs(60);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match daemon.stderr_lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("parsplu serve: listening on ") {
                        daemon.listening = Instant::now();
                        daemon.addr = addr.trim().to_string();
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err("the daemon never announced its address".to_string()),
            }
        }
    }

    /// Stderr lines printed since the announcement (replay notes, errors).
    pub fn drain_stderr(&self) -> Vec<String> {
        self.stderr_lines.try_iter().collect()
    }

    /// Waits for the daemon to exit (after a `shutdown` job).
    // `reap` waits with wait4(2), which the lint does not see.
    #[allow(clippy::zombie_processes)]
    pub fn wait(mut self) -> Result<Reaped, String> {
        let child = self.child.take().expect("waited once");
        reap(&child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(&child);
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn own_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
