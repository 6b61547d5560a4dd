//! `daemon-lnsp3937`: a `parsplu serve --listen 127.0.0.1:0 --workers 2
//! --state-dir <dir> --durability strict` process and two client
//! connections, each owning a session that routes to its own lane. A
//! round is one `refactor <values-file>` followed by four `solve`s; each
//! client runs rounds closed-loop (next job after the previous answer).
//!
//! Set-up is a restart on a journal that an untimed daemon run filled
//! with `analyze` and `factor` records: spawn → replay → first `stats`
//! reply. It is repeated `restarts` times (each on a fresh copy of that
//! journal) and the last daemon serves the timed rounds.

use crate::check::{bits_hash, lane_of, perturbed, residual_ok, write_mtx};
use crate::proc::Daemon;
use crate::stats::{secs, Rng};
use crate::{Args, Fault, Metric, Tally};
use splu_client::{AddrBook, Client, Json, RetryPolicy};
use splu_core::{Options, SparseLu};
use splu_matgen::{manufactured_rhs, paper_matrix};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Worker lanes of the daemon, and client connections (one per lane).
const LANES: usize = 2;
/// `solve` jobs after each `refactor` in a round.
const SOLVES_PER_ROUND: usize = 4;
/// Discarded rounds per client before timing.
const WARMUP_ROUNDS: usize = 1;

/// What to run: the workload itself or a shorter probe of another
/// workload's matrix (the traced runs).
pub struct Plan {
    pub matrix: &'static str,
    /// Seeded value files, cycled over the `refactor` jobs.
    pub values_files: usize,
    /// Daemon restarts on the filled journal (set-up repetitions).
    pub restarts: usize,
    pub window: Duration,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Refactor,
    Solve,
}

/// One timed job: its kind, client round trip, and the daemon's own
/// `seconds` (compute only).
pub struct Job {
    pub op: Op,
    pub rt: f64,
    pub seconds: f64,
}

pub struct Outcome {
    /// Spawn → first `stats` reply, per restart.
    pub setup: Vec<f64>,
    /// `listening` announcement → first `stats` reply, per restart.
    pub replay: Vec<f64>,
    pub jobs: Vec<Job>,
    /// Wall time of the timed rounds.
    pub window: f64,
    pub peak_rss_mib: f64,
    pub journal_appends: f64,
    pub journal_bytes: f64,
    /// Client resends plus `retry_after_hint` sleeps.
    pub retries: u64,
}

/// A values file and the oracle's `x_hash` for a `solve` after it.
struct Values {
    path: String,
    x_hash: u64,
}

/// Writes the seeded value files and computes each one's oracle: a
/// one-thread `SparseLu` solve of the daemon's manufactured right-hand
/// side, residual-checked here.
fn values_files(args: &Args, plan: &Plan) -> Result<(String, Vec<Values>), String> {
    let base = paper_matrix(plan.matrix, args.scale).ok_or("unknown matrix")?;
    let pattern = args.work.join(format!("{}-pattern.mtx", plan.matrix));
    write_mtx(&base, &pattern)?;
    let mut files = Vec::with_capacity(plan.values_files);
    for v in 0..plan.values_files {
        let a = perturbed(&base, &mut Rng::new(args.seed, 2_000 + v as u64));
        let path = args.work.join(format!("{}-v{v}.mtx", plan.matrix));
        write_mtx(&a, &path)?;
        let lu = SparseLu::factor(&a, &Options::default()).map_err(|e| e.to_string())?;
        let b = manufactured_rhs(&a, 1).1;
        let x = lu.try_solve(&b).map_err(|e| e.to_string())?;
        residual_ok(&a, &x, &b, "oracle")?;
        files.push(Values {
            path: path_str(&path)?,
            x_hash: bits_hash(&x),
        });
    }
    Ok((path_str(&pattern)?, files))
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(String::from)
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

/// The first session names (`s0`, `s1`, …) that route to lanes 0 and 1.
fn session_names() -> Vec<String> {
    (0..LANES)
        .map(|lane| {
            (0..)
                .map(|i| format!("s{i}"))
                .find(|n| lane_of(n, LANES) == lane)
                .expect("some name routes to every lane")
        })
        .collect()
}

fn spawn(args: &Args, state: &Path) -> Result<Daemon, String> {
    let state = path_str(state)?;
    let lanes = LANES.to_string();
    Daemon::spawn(
        &args.parsplu,
        &[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &lanes,
            "--state-dir",
            &state,
            "--durability",
            "strict",
        ],
        &args.work,
    )
}

fn client(addr: &str, prefix: String, seed: u64) -> Client {
    Client::new(AddrBook::new(addr), prefix, seed, RetryPolicy::default())
}

/// Sends `shutdown` and waits for the daemon to exit.
fn shut_down(daemon: Daemon, c: &mut Client) -> Result<f64, String> {
    c.call_once("shutdown")?;
    Ok(daemon.wait()?.peak_rss_mib)
}

/// A `solve` on `session` whose `x_hash` must equal `expected`.
fn checked_solve(c: &mut Client, session: &str, expected: u64) -> Result<Json, Fault> {
    let v = c
        .call(&format!("solve {session}"))
        .map_err(|e| Fault::Error(e.to_string()))?;
    let got = v
        .get("x_hash")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
    match got {
        Some(h) if h == expected => Ok(v),
        Some(h) => Err(Fault::Wrong(format!(
            "solve {session}: x_hash {h:#018x}, oracle {expected:#018x}"
        ))),
        None => Err(Fault::Error(format!("solve {session}: no x_hash in {v:?}"))),
    }
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("no `{key}` in {v:?}"))
}

/// Replay failures the daemon reported on stderr.
fn replay_failures(daemon: &Daemon) -> Vec<String> {
    daemon
        .drain_stderr()
        .into_iter()
        .filter(|l| l.contains("replay of"))
        .collect()
}

/// One client's timed rounds.
fn rounds(
    mut c: Client,
    session: &str,
    lane: usize,
    files: &[Values],
    window: Duration,
    start: &Barrier,
) -> (Client, Vec<Job>, Vec<Result<(), Fault>>, Instant, Instant) {
    let mut jobs = Vec::new();
    let mut outcomes = Vec::new();
    let mut t_start = Instant::now();
    let mut r = 0;
    loop {
        if r == WARMUP_ROUNDS {
            start.wait();
            t_start = Instant::now();
        }
        if r >= WARMUP_ROUNDS && t_start.elapsed() >= window {
            break;
        }
        let values = &files[(r + lane) % files.len()];
        let timed = r >= WARMUP_ROUNDS;
        let t0 = Instant::now();
        let refactor = c.call(&format!("refactor {session} {}", values.path));
        let rt = secs(t0.elapsed());
        match refactor.map_err(|e| Fault::Error(e.to_string())) {
            Ok(v) => {
                if timed {
                    jobs.push(Job {
                        op: Op::Refactor,
                        rt,
                        seconds: v.get("seconds").and_then(Json::as_num).unwrap_or(f64::NAN),
                    });
                }
                outcomes.push(Ok(()));
            }
            Err(f) => outcomes.push(Err(f)),
        }
        for _ in 0..SOLVES_PER_ROUND {
            let t0 = Instant::now();
            let res = checked_solve(&mut c, session, values.x_hash);
            let rt = secs(t0.elapsed());
            match res {
                Ok(v) => {
                    if timed {
                        jobs.push(Job {
                            op: Op::Solve,
                            rt,
                            seconds: v.get("seconds").and_then(Json::as_num).unwrap_or(f64::NAN),
                        });
                    }
                    outcomes.push(Ok(()));
                }
                Err(f) => outcomes.push(Err(f)),
            }
        }
        r += 1;
    }
    (c, jobs, outcomes, t_start, Instant::now())
}

/// Runs the plan: fill a journal, restart on it `restarts` times, then
/// serve timed rounds from two clients on the last daemon.
pub fn drive(args: &Args, plan: &Plan, tally: &mut Tally) -> Result<Outcome, String> {
    let (pattern, files) = values_files(args, plan)?;
    let names = session_names();

    // Untimed fill: analyze + factor each session, then a clean shutdown.
    let template = args.work.join("state-fill");
    std::fs::create_dir_all(&template).map_err(|e| e.to_string())?;
    let daemon = spawn(args, &template)?;
    let mut c = client(&daemon.addr, "fill".into(), args.seed);
    for (lane, name) in names.iter().enumerate() {
        for line in [
            format!("analyze {name} {pattern}"),
            format!("factor {name} {}", files[lane % files.len()].path),
        ] {
            c.call(&line).map_err(|e| format!("{line}: {e}"))?;
        }
    }
    shut_down(daemon, &mut c)?;
    let journal = template.join("sessions.journal");

    let mut setup = Vec::with_capacity(plan.restarts);
    let mut replay = Vec::with_capacity(plan.restarts);
    let mut live = None;
    for k in 0..plan.restarts {
        let state = args.work.join(format!("state-{k}"));
        std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
        std::fs::copy(&journal, state.join("sessions.journal")).map_err(|e| e.to_string())?;
        let daemon = spawn(args, &state)?;
        let mut c0 = client(&daemon.addr, format!("r{k}c0"), args.seed);
        let stats = c0.call_once("stats")?;
        let replied = Instant::now();
        setup.push(secs(replied - daemon.spawned));
        replay.push(secs(replied - daemon.listening));
        if num(&stats, "sessions")? != names.len() as f64 {
            return Err(format!("replay revived the wrong sessions: {stats:?}"));
        }
        let failures = replay_failures(&daemon);
        if !failures.is_empty() {
            return Err(format!("journal replay failed: {failures:?}"));
        }
        // The first solve after replay must match the oracle of the
        // journaled values.
        for (lane, name) in names.iter().enumerate() {
            let expected = files[lane % files.len()].x_hash;
            tally.record(checked_solve(&mut c0, name, expected).map(|_| ()));
        }
        if k + 1 < plan.restarts {
            shut_down(daemon, &mut c0)?;
        } else {
            live = Some((daemon, c0));
        }
    }
    let (daemon, c0) = live.ok_or("no restart")?;

    // Both connections are open before timing: the accept loop sleeps
    // between polls when idle.
    let mut clients = vec![c0];
    for lane in 1..LANES {
        let mut c = client(
            &daemon.addr,
            format!("r{}c{lane}", plan.restarts),
            args.seed,
        );
        c.call_once("stats")?;
        clients.push(c);
    }
    let start = Barrier::new(LANES);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&names)
            .enumerate()
            .map(|(lane, (c, name))| {
                let (files, start) = (&files, &start);
                s.spawn(move || rounds(c, name, lane, files, plan.window, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut jobs = Vec::new();
    let mut clients = Vec::new();
    let (mut t0, mut t1) = (None::<Instant>, None::<Instant>);
    let mut retries = 0;
    for (c, j, outcomes, from, to) in results {
        jobs.extend(j);
        outcomes.into_iter().for_each(|o| tally.record(o));
        retries += c.stats.resends + c.stats.hint_sleeps;
        t0 = Some(t0.map_or(from, |t| t.min(from)));
        t1 = Some(t1.map_or(to, |t| t.max(to)));
        clients.push(c);
    }
    let window = match (t0, t1) {
        (Some(a), Some(b)) => secs(b - a),
        _ => return Err("no client ran".into()),
    };
    let c0 = &mut clients[0];
    let stats = c0.call_once("stats")?;
    let peak_rss_mib = shut_down(daemon, c0)?;
    Ok(Outcome {
        setup,
        replay,
        jobs,
        window,
        peak_rss_mib,
        journal_appends: num(&stats, "journal_appends")?,
        journal_bytes: num(&stats, "journal_bytes")?,
        retries,
    })
}

impl Outcome {
    pub fn rts(&self, op: Option<Op>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| op.is_none_or(|o| j.op == o))
            .map(|j| j.rt)
            .collect()
    }
}

/// The workload plan: lnsp3937, eight value files, fifteen restarts.
pub fn workload_plan(args: &Args) -> Plan {
    Plan {
        matrix: "lnsp3937",
        values_files: 8,
        restarts: 15,
        window: args.window,
    }
}

pub fn run(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    use crate::stats::median;
    let out = drive(args, &workload_plan(args), tally)?;
    if out.jobs.is_empty() {
        return Err("no timed job succeeded".into());
    }
    Ok(vec![
        ("setup_s", median(&out.setup), "s"),
        ("ops_per_s", out.jobs.len() as f64 / out.window, "ops/s"),
        ("wall_s.p50", median(&out.rts(None)), "s"),
        ("factor_s.p50", median(&out.rts(Some(Op::Refactor))), "s"),
        ("solve_s.p50", median(&out.rts(Some(Op::Solve))), "s"),
        ("peak_rss_mib", out.peak_rss_mib, "MiB"),
    ])
}
