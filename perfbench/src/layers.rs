//! The traced run: per-layer metrics for a workload's matrix.
//!
//! Each layer is timed around calls into its crate's public functions
//! from this file, in the order `SluSession::analyze` and `factor` run
//! them, so a later change inside one crate moves exactly one span:
//!
//! | span | call |
//! |---|---|
//! | `sparse.parse_s` | `splu_sparse::io::read_matrix_market` |
//! | `ordering.transversal_s` | `maximum_transversal` + row permutation |
//! | `ordering.mindeg_s` | `column_min_degree` (with `AᵀA`) + symmetric permutation |
//! | `symbolic.fill_s` | `static_symbolic_factorization` |
//! | `symbolic.postorder_s` | `postorder_permutation` + permuting `L̄`, `Ū` |
//! | `symbolic.partition_s` | `supernode_partition` + `amalgamate` + `BlockStructure::new` |
//! | `sched.graph_s` | `build_eforest_graph` + `ExecSchedule::for_graph` |
//! | `core.*_s` | `SluSession::{factor, refactor, try_solve, try_solve_many}` |
//!
//! The CLI and daemon layers are measured by driving those surfaces on
//! the same matrix: `cli.overhead_s` is a `parsplu solve` wall time minus
//! the layer spans it is made of, and the `serve.*`/`persist.*` metrics
//! come from a short daemon run (`daemon::drive`).

use crate::check::residual_ok;
use crate::daemon::{self, Plan};
use crate::oneshot;
use crate::session::{self, StepInputs};
use crate::stats::{median, quantile, secs};
use crate::{Args, Fault, Metric, Tally, Workload};
use splu_core::{MatrixMeta, ObsSession, Options, RunStatus, SluSession, SparseLu};
use splu_ordering::{column_min_degree, maximum_transversal, StructuralRank};
use splu_sched::{build_eforest_graph, ExecSchedule};
use splu_sparse::{CscMatrix, Permutation};
use splu_symbolic::{
    amalgamate, postorder_permutation, static_symbolic_factorization, supernode_partition,
    BlockStructure, FilledLu, SupernodeOptions,
};
use std::path::Path;
use std::time::Instant;

/// Front-half spans of one analysis pass, seconds.
#[derive(Default)]
struct Front {
    parse: f64,
    transversal: f64,
    mindeg: f64,
    fill: f64,
    postorder: f64,
    partition: f64,
    graph: f64,
}

impl Front {
    fn total(&self) -> f64 {
        self.parse
            + self.transversal
            + self.mindeg
            + self.fill
            + self.postorder
            + self.partition
            + self.graph
    }
}

/// Numeric spans, seconds: one series per timed call.
#[derive(Default)]
struct Numer {
    factor: Vec<f64>,
    refactor: Vec<f64>,
    refactor_2t: Vec<f64>,
    solve: Vec<f64>,
    solve16: Vec<f64>,
}

/// What one numeric call times.
#[derive(Clone, Copy)]
enum Phase {
    /// A session time step: `refactor`, `try_solve`, `try_solve_many`.
    Step,
    /// `factor` (fresh storage).
    Factor,
    /// `refactor` at two threads.
    TwoThreads,
}

/// The median of one front-half span over all passes.
fn med(passes: &[Front], f: fn(&Front) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Structure counts of the analysis (identical on every pass).
struct Shape {
    fill_nnz: usize,
    supernodes: usize,
    tasks: usize,
    /// Flops of scalar LU on `L̄`/`Ū`: per column `k`, `l_k` divisions and
    /// `l_k·u_k` multiply-adds, with `l_k`, `u_k` the off-diagonal counts
    /// of column `k` of `L̄` and row `k` of `Ū`.
    useful_flops: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, secs(t0.elapsed()))
}

/// The front half, span by span, mirroring `splu_core::analyze_with`.
fn front_half(path: &Path, a: &CscMatrix, sp: &mut Front) -> Result<Shape, Fault> {
    let err = |e: String| Fault::Error(e);
    let (read, t) = timed(|| splu_sparse::io::read_matrix_market(path));
    sp.parse = t;
    let read = read.map_err(|e| err(e.to_string()))?;
    if read != *a {
        return Err(Fault::Wrong(
            "the matrix file does not read back to the matrix".into(),
        ));
    }
    let pattern = read.pattern();
    let n = pattern.ncols();
    let (p1, t) = timed(|| match maximum_transversal(pattern) {
        StructuralRank::Full(rp) => Ok(pattern.permuted(&rp, &Permutation::identity(n))),
        StructuralRank::Deficient { rank } => Err(format!("structural rank {rank} < {n}")),
    });
    sp.transversal = t;
    let p1 = p1.map_err(err)?;
    let (p2, t) = timed(|| {
        let q = column_min_degree(&p1);
        p1.permuted(&q, &q)
    });
    sp.mindeg = t;
    let (f2, t) = timed(|| static_symbolic_factorization(&p2));
    sp.fill = t;
    let f2 = f2.map_err(|e| err(e.to_string()))?;
    let (filled, t) = timed(|| {
        let po = postorder_permutation(&f2);
        FilledLu::from_parts(f2.l.permuted(&po, &po), f2.u.permuted(&po, &po))
    });
    sp.postorder = t;
    let (bs, t) = timed(|| {
        let exact = supernode_partition(&filled);
        let partition = amalgamate(&filled, &exact, &SupernodeOptions::default());
        BlockStructure::new(&filled, partition)
    });
    sp.partition = t;
    let (graph, t) = timed(|| {
        let graph = build_eforest_graph(&bs);
        let schedule = ExecSchedule::for_graph(&graph);
        std::hint::black_box(schedule);
        graph
    });
    sp.graph = t;
    let useful_flops = (0..n)
        .map(|k| {
            let l = (filled.l_col(k).len() - 1) as f64;
            let u = (filled.u_row(k).len() - 1) as f64;
            l + 2.0 * l * u
        })
        .sum();
    Ok(Shape {
        fill_nnz: filled.nnz_filled(),
        supernodes: bs.num_blocks(),
        tasks: graph.len(),
        useful_flops,
    })
}

/// The numeric layer's sessions: one thread (every workload's setting)
/// for `factor`/`refactor`/solves, and two threads for the speed-up.
struct Numeric {
    one: SluSession,
    two: SluSession,
}

impl Numeric {
    fn new(a: &CscMatrix) -> Result<Numeric, String> {
        let session = |t: usize| -> Result<SluSession, String> {
            let opts = Options::builder()
                .threads(t)
                .build()
                .map_err(|e| e.to_string())?;
            let mut s = SluSession::analyze(a.pattern(), &opts).map_err(|e| e.to_string())?;
            s.factor(a).map_err(|e| e.to_string())?;
            Ok(s)
        };
        Ok(Numeric {
            one: session(1)?,
            two: session(2)?,
        })
    }

    /// One timed `phase` call on the seeded values and right-hand sides
    /// of `inp`; every solution is residual-checked after the timed calls.
    fn call(&mut self, phase: Phase, inp: &StepInputs, sp: &mut Numer) -> Result<(), Fault> {
        let err = |e: splu_core::LuError| Fault::Error(e.to_string());
        let (s, series) = match phase {
            Phase::Step => {
                let (t, _) = session::step(&mut self.one, inp)?;
                sp.refactor.push(t.refactor);
                sp.solve.push(t.solve);
                sp.solve16.push(t.solve16);
                return Ok(());
            }
            Phase::Factor => {
                let s = &mut self.one;
                let (r, t) = timed(|| s.factor(&inp.a));
                r.map_err(err)?;
                (s, (&mut sp.factor, t))
            }
            Phase::TwoThreads => {
                let (r, t) = timed(|| self.two.refactor(&inp.a));
                r.map_err(err)?;
                (&mut self.two, (&mut sp.refactor_2t, t))
            }
        };
        let x = s.try_solve(&inp.b).map_err(err)?;
        residual_ok(&inp.a, &x, &inp.b, "try_solve").map_err(Fault::Wrong)?;
        series.0.push(series.1);
        Ok(())
    }
}

/// Executed kernel flops and two-thread busy fraction, from an observed
/// refactorization (the program's own kernel counters and executor
/// clocks).
fn observed(two: &mut SluSession, a: &CscMatrix, name: &str) -> Result<(f64, f64), String> {
    let obs = ObsSession::new();
    two.refactor_observed(a, &obs).map_err(|e| e.to_string())?;
    let report = obs.report(
        MatrixMeta::from_stats(name, two.stats()),
        two.options(),
        RunStatus::success(),
    );
    let flops = report
        .counters
        .iter()
        .filter(|(n, _)| matches!(n.as_str(), "factor_flops" | "trsm_flops" | "gemm_flops"))
        .map(|(_, v)| *v as f64)
        .sum();
    let busy = report
        .sched
        .as_ref()
        .map(|s| s.parallel_efficiency())
        .ok_or("the observed refactorization captured no executor stats")?;
    Ok((flops, busy))
}

pub fn run(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let name = args.workload.matrix();
    let budget = args.window / 3;
    let inputs = oneshot::inputs(args, name, 1)?;
    let a = &inputs.a;

    // In-process spans. The front half runs first, on a fresh heap as in
    // a `parsplu solve` process, then the numeric layer; each gets half
    // of a third of the window (at least one pass).
    let mut front: Vec<Front> = Vec::new();
    let mut shape = None;
    let started = Instant::now();
    while front.is_empty() && started.elapsed() < budget || started.elapsed() < budget / 2 {
        let mut sp = Front::default();
        match front_half(&inputs.matrix, a, &mut sp) {
            Ok(s) => {
                shape = Some(s);
                front.push(sp);
                tally.record(Ok(()));
            }
            Err(fault) => tally.record(Err(fault)),
        }
    }
    let Shape {
        fill_nnz,
        supernodes,
        tasks,
        useful_flops,
    } = shape.ok_or("no traced analysis succeeded")?;
    let mut numeric = Numeric::new(a)?;
    let st = numeric.one.stats();
    let analyzed = (st.nnz_filled, st.supernodes, st.graph_tasks);
    tally.record(if (fill_nnz, supernodes, tasks) == analyzed {
        Ok(())
    } else {
        Err(Fault::Wrong(format!(
            "span-by-span analysis (fill, supernodes, tasks) = {:?} differs from \
             SluSession::analyze {analyzed:?}",
            (fill_nnz, supernodes, tasks)
        )))
    });
    // Each numeric call runs as a series of its own on one session, so it
    // meets the caches as it does in a loop of that call.
    let mut numer = Numer::default();
    let phases = [Phase::Step, Phase::Factor, Phase::TwoThreads];
    for (k, &phase) in phases.iter().enumerate() {
        let started = Instant::now();
        let mut reps = 0;
        while reps < 2 || started.elapsed() < budget / (2 * phases.len() as u32) {
            let inp = session::step_inputs(a, args.seed, 1_000 * k + reps);
            let res = numeric.call(phase, &inp, &mut numer);
            tally.record(res);
            reps += 1;
        }
    }
    let series = [
        &numer.factor,
        &numer.refactor,
        &numer.refactor_2t,
        &numer.solve,
        &numer.solve16,
    ];
    if series.iter().any(|s| s.is_empty()) {
        return Err("a traced numeric call never succeeded".into());
    }
    let (flops, busy) = observed(&mut numeric.two, a, name)?;
    let storage = SparseLu::factor(a, &Options::default())
        .map_err(|e| e.to_string())?
        .storage();
    let f = |g: fn(&Front) -> f64| med(&front, g);
    let n = |g: fn(&Numer) -> &Vec<f64>| median(g(&numer));

    // CLI probe: the one-shot workload's `parsplu solve`.
    let mut cli = Vec::new();
    let started = Instant::now();
    let mut j = 0;
    while j < 2 || started.elapsed() < budget {
        match oneshot::invoke(args, &inputs, j) {
            Ok(s) => {
                cli.push(s.wall);
                tally.record(Ok(()));
            }
            Err(fault) => tally.record(Err(fault)),
        }
        j += 1;
    }
    if cli.is_empty() {
        return Err("no CLI probe succeeded".into());
    }
    let cli_layers = f(Front::total) + n(|s| &s.factor) + n(|s| &s.solve);
    let cli_wall = median(&cli);

    // Daemon probe on the same matrix.
    let plan = match args.workload {
        Workload::Daemon => Plan {
            restarts: 2,
            window: budget,
            ..daemon::workload_plan(args)
        },
        _ => Plan {
            matrix: name,
            values_files: 2,
            restarts: 2,
            window: budget,
        },
    };
    let d = daemon::drive(args, &plan, tally)?;
    let compute: Vec<f64> = d.jobs.iter().map(|j| j.seconds).collect();
    let overhead: Vec<f64> = d.jobs.iter().map(|j| j.rt - j.seconds).collect();

    closure_table(args, &front, &numer, cli_wall, &d);
    Ok(vec![
        ("sparse.parse_s", f(|s| s.parse), "s"),
        ("ordering.transversal_s", f(|s| s.transversal), "s"),
        ("ordering.mindeg_s", f(|s| s.mindeg), "s"),
        ("symbolic.fill_s", f(|s| s.fill), "s"),
        ("symbolic.postorder_s", f(|s| s.postorder), "s"),
        ("symbolic.partition_s", f(|s| s.partition), "s"),
        ("symbolic.fill_nnz", fill_nnz as f64, "count"),
        ("symbolic.supernodes", supernodes as f64, "count"),
        ("sched.graph_s", f(|s| s.graph), "s"),
        ("sched.tasks", tasks as f64, "count"),
        ("sched.busy_frac", busy, "fraction"),
        (
            "sched.speedup_2t",
            n(|s| &s.refactor) / n(|s| &s.refactor_2t),
            "ratio",
        ),
        ("dense.flops", flops, "flop"),
        ("dense.useful_flops", useful_flops, "flop"),
        ("dense.useful_frac", useful_flops / flops, "fraction"),
        ("dense.gflops", flops / n(|s| &s.refactor) / 1e9, "Gflop/s"),
        ("core.factor_s", n(|s| &s.factor), "s"),
        ("core.refactor_s", n(|s| &s.refactor), "s"),
        ("core.solve_s", n(|s| &s.solve), "s"),
        ("core.solve16_s", n(|s| &s.solve16), "s"),
        ("core.factor_words", storage.words as f64, "words"),
        ("core.padding_frac", storage.padding_fraction, "fraction"),
        ("serve.compute_s.p50", median(&compute), "s"),
        ("serve.overhead_s.p50", median(&overhead), "s"),
        ("serve.overhead_s.p99", quantile(&overhead, 0.99), "s"),
        ("persist.replay_s", median(&d.replay), "s"),
        ("persist.journal_appends", d.journal_appends, "count"),
        ("persist.journal_bytes", d.journal_bytes, "bytes"),
        ("client.retries", d.retries as f64, "count"),
        ("cli.overhead_s", cli_wall - cli_layers, "s"),
    ])
}

/// Prints, on stderr, how the layer spans add up to each surface's
/// operation: the `parsplu solve` wall, the session step, and the daemon
/// job round trip.
fn closure_table(args: &Args, front: &[Front], numer: &Numer, cli_wall: f64, d: &daemon::Outcome) {
    let f = |g: fn(&Front) -> f64| med(front, g);
    let n = |g: fn(&Numer) -> &Vec<f64>| median(g(numer));
    let by = |op| {
        let jobs: Vec<_> = d.jobs.iter().filter(|j| j.op == op).collect();
        let rt = median(&jobs.iter().map(|j| j.rt).collect::<Vec<_>>());
        let sec = median(&jobs.iter().map(|j| j.seconds).collect::<Vec<_>>());
        (rt, sec)
    };
    let (rf_rt, rf_s) = by(daemon::Op::Refactor);
    let (sv_rt, sv_s) = by(daemon::Op::Solve);
    let pct = |part: f64, whole: f64| 100.0 * part / whole;
    let cli_layers = f(Front::total) + n(|s| &s.factor) + n(|s| &s.solve);
    eprintln!(
        "closure for {} ({} analysis passes, {} session steps; medians, seconds):",
        args.workload.matrix(),
        front.len(),
        numer.refactor.len()
    );
    eprintln!(
        "  parsplu solve {cli_wall:.4} = parse {:.4} + ordering {:.4} + symbolic {:.4} + graph {:.4} \
         + factor {:.4} + solve {:.4} [{:.1}%] + cli.overhead_s {:.4}",
        f(|s| s.parse),
        f(|s| s.transversal + s.mindeg),
        f(|s| s.fill + s.postorder + s.partition),
        f(|s| s.graph),
        n(|s| &s.factor),
        n(|s| &s.solve),
        pct(cli_layers, cli_wall),
        cli_wall - cli_layers
    );
    eprintln!(
        "  session step {:.4} = refactor {:.4} + solve {:.4} + solve16 {:.4}",
        n(|s| &s.refactor) + n(|s| &s.solve) + n(|s| &s.solve16),
        n(|s| &s.refactor),
        n(|s| &s.solve),
        n(|s| &s.solve16)
    );
    eprintln!(
        "  daemon refactor job {rf_rt:.4} = compute {rf_s:.4} [parse {:.4} + refactor {:.4} = {:.1}%] \
         + serve overhead {:.4}",
        f(|s| s.parse),
        n(|s| &s.refactor),
        pct(f(|s| s.parse) + n(|s| &s.refactor), rf_s),
        rf_rt - rf_s
    );
    eprintln!(
        "  daemon solve job {sv_rt:.4} = compute {sv_s:.4} [solve {:.4} = {:.1}%] + serve overhead {:.4}",
        n(|s| &s.solve),
        pct(n(|s| &s.solve), sv_s),
        sv_rt - sv_s
    );
}
