//! `oneshot-goodwin`: one `parsplu solve` process at a time, default
//! options (one thread). Every invocation pays the whole pipeline: parse,
//! ordering, symbolic factorization, partition, task graph, numeric
//! factorization and solve.

use crate::check::{read_vector, residual_ok, write_vector};
use crate::proc;
use crate::stats::{median, secs, Rng};
use crate::{Args, Fault, Metric, Tally};
use splu_matgen::{paper_matrix, Scale};
use splu_sparse::CscMatrix;
use std::path::PathBuf;
use std::time::Instant;

/// `parsplu gen` repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;
/// Seeded right-hand sides, cycled over the invocations.
const RHS_FILES: usize = 4;
/// Discarded invocations before timing (page cache, binary load).
const WARMUP: usize = 1;

/// The workload's inputs, made in the run directory.
pub struct Inputs {
    pub matrix: PathBuf,
    /// The matrix, generated in-process for the checks.
    pub a: CscMatrix,
    pub rhs: Vec<(PathBuf, Vec<f64>)>,
    /// `parsplu gen` wall times.
    pub setup: Vec<f64>,
}

/// Generates the input matrix with `parsplu gen` (timed, `SETUP_REPS`
/// times) and writes the seeded right-hand sides.
pub fn inputs(args: &Args, name: &str, reps: usize) -> Result<Inputs, String> {
    let matrix = args.work.join(format!("{name}.mtx"));
    let path = matrix.to_str().ok_or("non-UTF-8 work dir")?;
    let mut gen_args = vec!["gen", name, path];
    if args.scale == Scale::Reduced {
        gen_args.push("--reduced");
    }
    let mut setup = Vec::with_capacity(reps);
    for _ in 0..reps {
        let done = proc::run(&args.parsplu, &gen_args, &args.work)?.ok("parsplu gen")?;
        setup.push(secs(done.wall));
    }
    let a = paper_matrix(name, args.scale).ok_or("unknown matrix")?;
    let mut rhs = Vec::with_capacity(RHS_FILES);
    for i in 0..RHS_FILES {
        let b = Rng::new(args.seed, 100 + i as u64).vector(a.nrows());
        let p = args.work.join(format!("b{i}.txt"));
        write_vector(&b, &p)?;
        rhs.push((p, b));
    }
    Ok(Inputs {
        matrix,
        a,
        rhs,
        setup,
    })
}

/// One finished `parsplu solve`.
pub struct Solve {
    pub wall: f64,
    /// The CLI's own `factor time` and `solve time` lines.
    pub factor: f64,
    pub solve: f64,
    pub peak_rss_mib: f64,
}

/// Runs `parsplu solve <matrix> --rhs <b> --out <x>` and checks the
/// written solution against the benchmark's own residual.
pub fn invoke(args: &Args, inputs: &Inputs, i: usize) -> Result<Solve, Fault> {
    let (rhs_path, b) = &inputs.rhs[i % inputs.rhs.len()];
    let out = args.work.join("x.txt");
    let _ = std::fs::remove_file(&out);
    let s = |p: &PathBuf| p.to_str().map(String::from).unwrap_or_default();
    let (m, r, o) = (s(&inputs.matrix), s(rhs_path), s(&out));
    let cli = ["solve", &m, "--rhs", &r, "--out", &o];
    let done = proc::run(&args.parsplu, &cli, &args.work)
        .and_then(|f| f.ok("parsplu solve"))
        .map_err(Fault::Error)?;
    let x = read_vector(&out).map_err(Fault::Error)?;
    residual_ok(&inputs.a, &x, b, "parsplu solve").map_err(Fault::Wrong)?;
    let timing = |label: &str| {
        done.stdout
            .lines()
            .find_map(|l| l.strip_prefix(label))
            .and_then(|v| parse_duration(v.trim().trim_start_matches(':').trim()))
            .ok_or_else(|| Fault::Error(format!("no `{label}` line in: {}", done.stdout)))
    };
    Ok(Solve {
        wall: secs(done.wall),
        factor: timing("factor time")?,
        solve: timing("solve time")?,
        peak_rss_mib: done.reaped.peak_rss_mib,
    })
}

/// Parses a `Duration` as Rust's `{:?}` prints it (`1.25s`, `13.09ms`,
/// `950.1µs`, `12ns`), in seconds.
fn parse_duration(s: &str) -> Option<f64> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix("µs") {
        (v, 1e-6)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1e-9)
    } else {
        (s.strip_suffix('s')?, 1.0)
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

pub fn run(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let inputs = inputs(args, "goodwin", SETUP_REPS)?;
    for i in 0..WARMUP {
        tally.record(invoke(args, &inputs, i).map(|_| ()));
    }
    let mut runs = Vec::new();
    let started = Instant::now();
    let mut i = WARMUP;
    while started.elapsed() < args.window {
        match invoke(args, &inputs, i) {
            Ok(s) => {
                runs.push(s);
                tally.record(Ok(()));
            }
            Err(f) => tally.record(Err(f)),
        }
        i += 1;
    }
    let window = secs(started.elapsed());
    if runs.is_empty() {
        return Err("no invocation succeeded".into());
    }
    let col = |f: fn(&Solve) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    let walls = col(|s| s.wall);
    Ok(vec![
        ("setup_s", median(&inputs.setup), "s"),
        ("ops_per_s", runs.len() as f64 / window, "ops/s"),
        ("wall_s.p50", median(&walls), "s"),
        ("factor_s.p50", median(&col(|s| s.factor)), "s"),
        ("solve_s.p50", median(&col(|s| s.solve)), "s"),
        ("peak_rss_mib", median(&col(|s| s.peak_rss_mib)), "MiB"),
    ])
}

#[cfg(test)]
mod tests {
    use super::parse_duration;

    #[test]
    fn durations_parse_in_every_unit() {
        let near = |s: &str, v: f64| (parse_duration(s).unwrap() - v).abs() <= 1e-12 * v;
        assert!(near("1.5s", 1.5));
        assert!(near("13.25ms", 0.01325));
        assert!(near("950.5µs", 950.5e-6));
        assert!(near("12ns", 12e-9));
        assert_eq!(parse_duration("fast"), None);
    }
}
