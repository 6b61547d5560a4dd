//! `session-sherman3`: one `SluSession` with default options (one
//! thread), analyzed and factored once. Each time step refactors a new
//! seeded value set on the same pattern, then solves one right-hand side
//! and a block of sixteen. The symbolic front half never runs inside the
//! loop.
//!
//! One thread, not two: with both of the host's two cores busy, the
//! statically mapped workers wait for each other, and when the hypervisor
//! steals CPU time (10–30% in busy periods) a two-thread step slowed by
//! up to 2× and the spread between runs reached 0.4–0.7, above any bound
//! the benchmark may set. The two-thread executor is measured per layer
//! (`sched.speedup_2t`, `sched.busy_frac`).

use crate::check::{perturbed, residual_ok};
use crate::proc::own_peak_rss_mib;
use crate::stats::{median, secs, Rng};
use crate::{Args, Fault, Metric, Tally};
use splu_core::{Options, SluSession, SparseLu};
use splu_matgen::paper_matrix;
use splu_sparse::CscMatrix;
use std::time::Instant;

/// `analyze` + `factor` repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;
/// Discarded steps before timing.
const WARMUP: usize = 3;
/// Right-hand sides of the block solve.
pub const NRHS: usize = 16;

/// One time step's inputs, all derived from the seed and the step index.
pub struct StepInputs {
    pub a: CscMatrix,
    pub b: Vec<f64>,
    pub b16: Vec<f64>,
}

pub fn step_inputs(base: &CscMatrix, seed: u64, step: usize) -> StepInputs {
    let mut rng = Rng::new(seed, 1_000_000 + step as u64);
    let a = perturbed(base, &mut rng);
    let n = a.nrows();
    StepInputs {
        b: rng.vector(n),
        b16: rng.vector(n * NRHS),
        a,
    }
}

/// Times of one step's three calls, seconds.
pub struct Step {
    pub refactor: f64,
    pub solve: f64,
    pub solve16: f64,
}

/// Runs one step: `refactor`, `try_solve`, `try_solve_many`, each timed,
/// then checks every solution column (untimed). Returns the times and
/// the 1-RHS solution.
pub fn step(session: &mut SluSession, inp: &StepInputs) -> Result<(Step, Vec<f64>), Fault> {
    let err = |e: splu_core::LuError| Fault::Error(e.to_string());
    let t0 = Instant::now();
    session.refactor(&inp.a).map_err(err)?;
    let t1 = Instant::now();
    let x = session.try_solve(&inp.b).map_err(err)?;
    let t2 = Instant::now();
    let x16 = session.try_solve_many(&inp.b16, NRHS).map_err(err)?;
    let t3 = Instant::now();
    residual_ok(&inp.a, &x, &inp.b, "try_solve").map_err(Fault::Wrong)?;
    let n = inp.a.nrows();
    if x16.len() != n * NRHS {
        return Err(Fault::Wrong(format!(
            "try_solve_many returned {} values",
            x16.len()
        )));
    }
    for c in 0..NRHS {
        let cols = c * n..(c + 1) * n;
        residual_ok(&inp.a, &x16[cols.clone()], &inp.b16[cols], "try_solve_many")
            .map_err(Fault::Wrong)?;
    }
    Ok((
        Step {
            refactor: secs(t1 - t0),
            solve: secs(t2 - t1),
            solve16: secs(t3 - t2),
        },
        x,
    ))
}

/// A fresh one-thread `SparseLu::factor` of the same values must give
/// the session's solution bit for bit (the pipeline is deterministic
/// across thread counts and refactorization).
pub fn oracle_matches(inp: &StepInputs, x: &[f64]) -> Result<(), Fault> {
    let lu = SparseLu::factor(&inp.a, &Options::default())
        .map_err(|e| Fault::Error(format!("oracle factor: {e}")))?;
    let y = lu
        .try_solve(&inp.b)
        .map_err(|e| Fault::Error(format!("oracle solve: {e}")))?;
    let same = y.len() == x.len() && y.iter().zip(x).all(|(p, q)| p.to_bits() == q.to_bits());
    if same {
        Ok(())
    } else {
        Err(Fault::Wrong(
            "session solution differs from a fresh one-thread factorization".into(),
        ))
    }
}

pub fn run(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let base = paper_matrix("sherman3", args.scale).ok_or("unknown matrix")?;
    let opts = Options::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut s = SluSession::analyze(base.pattern(), &opts).map_err(|e| e.to_string())?;
        s.factor(&base).map_err(|e| e.to_string())?;
        setup.push(secs(t0.elapsed()));
        session = Some(s);
    }
    let mut session = session.expect("SETUP_REPS > 0");

    let mut steps = Vec::new();
    let mut last = None;
    let mut started = Instant::now();
    let mut t = 0;
    while t < WARMUP || started.elapsed() < args.window {
        let inp = step_inputs(&base, args.seed, t);
        match step(&mut session, &inp) {
            Ok((s, x)) => {
                tally.record(Ok(()));
                if t >= WARMUP {
                    steps.push(s);
                }
                last = Some((inp, x));
            }
            Err(f) => tally.record(Err(f)),
        }
        t += 1;
        if t == WARMUP {
            // The timed window starts after the warm-up steps.
            started = Instant::now();
        }
    }
    let window = secs(started.elapsed());
    match &last {
        Some((inp, x)) => tally.record(oracle_matches(inp, x)),
        None => return Err("no step succeeded".into()),
    }
    if steps.is_empty() {
        return Err("no timed step succeeded".into());
    }
    let col = |f: fn(&Step) -> f64| steps.iter().map(f).collect::<Vec<_>>();
    let walls = col(|s| s.refactor + s.solve + s.solve16);
    Ok(vec![
        ("setup_s", median(&setup), "s"),
        ("ops_per_s", steps.len() as f64 / window, "ops/s"),
        ("wall_s.p50", median(&walls), "s"),
        ("factor_s.p50", median(&col(|s| s.refactor)), "s"),
        ("solve_s.p50", median(&col(|s| s.solve)), "s"),
        ("peak_rss_mib", own_peak_rss_mib(), "MiB"),
    ])
}
