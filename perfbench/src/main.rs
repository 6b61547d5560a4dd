//! `perfbench` — the end-to-end benchmark of parsplu.
//!
//! Three closed-loop workloads drive the three public surfaces:
//!
//! * `oneshot-goodwin` — one `parsplu solve` process at a time;
//! * `session-sherman3` — one `SluSession` refactored every time step;
//! * `daemon-lnsp3937` — two socket clients of a journaled `parsplu serve`.
//!
//! With `--trace 0` a run prints the end-to-end metrics; with `--trace 1`
//! it instead times the calls into each crate from this file's own code
//! (plus short CLI and daemon probes) and prints the per-layer metrics.
//! The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod daemon;
mod layers;
mod oneshot;
mod proc;
mod session;
mod stats;

use splu_matgen::Scale;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Oneshot,
    Session,
    Daemon,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "oneshot-goodwin" => Some(Workload::Oneshot),
            "session-sherman3" => Some(Workload::Session),
            "daemon-lnsp3937" => Some(Workload::Daemon),
            _ => None,
        }
    }

    /// The paper matrix the workload runs on.
    pub fn matrix(self) -> &'static str {
        match self {
            Workload::Oneshot => "goodwin",
            Workload::Session => "sherman3",
            Workload::Daemon => "lnsp3937",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// The `parsplu` binary under test.
    pub parsplu: PathBuf,
    /// Scratch directory for this run's inputs and outputs.
    pub work: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <oneshot-goodwin|session-sherman3|daemon-lnsp3937> \
[--seed <n>] --seconds <s> --trace <0|1> --parsplu <path> --work-dir <dir> [--scale full|reduced]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut parsplu = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse::<u64>().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "reduced" => Scale::Reduced,
                    _ => return Err("--scale takes full or reduced".into()),
                }
            }
            "--parsplu" => parsplu = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        scale,
        parsplu: parsplu.ok_or("--parsplu is required")?,
        work: work.ok_or("--work-dir is required")?,
    })
}

/// Operation accounting shared by every workload. An operation fails when
/// the program reports an error or when a check of its output fails; the
/// second kind also clears `correct`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Records one operation. `Err` carries a [`Fault`] naming what went
    /// wrong; the first few are echoed on stderr.
    pub fn record(&mut self, outcome: Result<(), Fault>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            let msg = match f {
                Fault::Error(m) => format!("operation failed: {m}"),
                Fault::Wrong(m) => {
                    self.wrong += 1;
                    format!("wrong output: {m}")
                }
            };
            if self.failed <= 10 {
                eprintln!("perfbench: {msg}");
            }
        }
    }
}

/// Why an operation did not count as a success.
pub enum Fault {
    /// The program returned an error or could not be driven.
    Error(String),
    /// The program answered, but a check of the answer failed.
    Wrong(String),
}

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn render(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One directory per run, absolute so the paths handed to the daemon do
    // not depend on its working directory.
    let run_dir = args
        .work
        .join(format!("{}-{}", args.workload.matrix(), std::process::id()));
    match std::fs::create_dir_all(&run_dir).and_then(|_| run_dir.canonicalize()) {
        Ok(work) => args.work = work,
        Err(e) => {
            eprintln!("perfbench: creating {}: {e}", run_dir.display());
            std::process::exit(2);
        }
    }
    let mut tally = Tally::default();
    let result = if args.trace {
        layers::run(&args, &mut tally)
    } else {
        match args.workload {
            Workload::Oneshot => oneshot::run(&args, &mut tally),
            Workload::Session => session::run(&args, &mut tally),
            Workload::Daemon => daemon::run(&args, &mut tally),
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    // A non-finite value (an empty sample, a missing field) is a broken
    // measurement, and JSON cannot carry it: no result is printed.
    let result = result.and_then(|metrics| match metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, ..)) => Err(format!("{name} could not be measured")),
        None => Ok(metrics),
    });
    match result {
        Ok(metrics) => println!("{}", render(&tally, &metrics)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
