//! `spmm-type2` / `spmm-type1`: closed-loop multiplies through
//! `AccSpmm::builder` and `multiply_into` with a reused workspace, then
//! a few graph updates per dataset through `Session::apply_delta`, each
//! followed by a read through `Session::submit`.

use std::time::{Duration, Instant};

use acc_spmm::{AccSpmm, CsrMatrix, DenseMatrix, Engine, SubmitOptions, SubmitOutcome, Workspace};
use spmm_common::scalar::tf32_tolerance;

use crate::inputs::{self, Rng, SpmmInput};
use crate::layers::{self, Layers};
use crate::session::{self, Update};
use crate::spans::Recorder;
use crate::{bits_hash, median, secs, Args, Report, N};

/// Set-up rounds (one handle build per dataset each): at least
/// `MIN_SETUP_REPS`, then more until `SETUP_BUDGET_S` is spent, at most
/// `MAX_SETUP_REPS`. `setup_s` sums the per-dataset medians.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;
/// Update rounds (one update per dataset each) after the closed loop: at
/// least `MIN_UPDATES`, then more until `UPDATE_BUDGET_S` is spent, at
/// most `MAX_UPDATES`. `update_p50_ms` sums the per-dataset medians.
const MIN_UPDATES: usize = 5;
const MAX_UPDATES: usize = 25;
const UPDATE_BUDGET_S: f64 = 4.0;

pub fn run(args: &Args, abbrs: &[&str]) -> Result<Report, String> {
    let inputs = inputs::spmm_inputs(abbrs, args.seed, N)?;
    for x in &inputs {
        inputs::describe(x.name, &x.a, N);
    }
    let mut report = Report::default();

    // Set-up: time from having the matrix to a ready handle.
    let mut setup = vec![Vec::new(); inputs.len()];
    let mut handles = Vec::with_capacity(inputs.len());
    let t_setup = Instant::now();
    let mut reps = 0;
    while reps < MIN_SETUP_REPS
        || (reps < MAX_SETUP_REPS && secs(t_setup.elapsed()) < SETUP_BUDGET_S)
    {
        reps += 1;
        handles.clear();
        for (i, x) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            let h = AccSpmm::builder(&x.a)
                .feature_dim(N)
                .build()
                .map_err(|e| e.to_string())?;
            setup[i].push(secs(t0.elapsed()));
            handles.push(h);
        }
    }
    let setup_s: f64 = setup.iter_mut().map(|s| median(s)).sum();

    // First multiply per dataset: checked against an FP64 reference; its
    // bits are what every repeat must reproduce.
    let mut loops: Vec<Loop> = Vec::with_capacity(inputs.len());
    for (x, h) in inputs.iter().zip(&handles) {
        let mut ws = h.workspace();
        let mut out = DenseMatrix::zeros(x.a.nrows(), N);
        report.attempted += 1;
        h.multiply_into(&x.b, &mut out, &mut ws)
            .map_err(|e| e.to_string())?;
        if !within_tf32(&x.a, &x.b, &out) {
            println!(
                "check {}: first multiply outside TF32 tolerance of the FP64 reference",
                x.name
            );
            report.failed += 1;
        }
        let expected = bits_hash(out.as_slice());
        loops.push(Loop {
            ws,
            out,
            expected,
            times: Vec::new(),
        });
    }

    let rec = Recorder::new(args.trace);
    let t_run = Instant::now();
    closed_loop(
        &rec,
        &inputs,
        &handles,
        &mut loops,
        Duration::from_secs_f64(args.seconds),
        &mut report,
    );
    let (run_s, run_cost_s) = (secs(t_run.elapsed()), rec.cost_s());
    if !args.trace {
        report.metric(
            "setup_s",
            setup_s,
            "s",
            "median of builds, summed over datasets",
            reps,
        );
        let (gflops, n) = gflops(&inputs, &mut loops);
        report.metric(
            "multiply_gflops",
            gflops,
            "GFLOP/s",
            "sum 2 nnz N / sum median multiply",
            n,
        );
        drop((handles, loops));
        let wr = write_read(&rec, &inputs, args.seed, &mut report)?;
        let update_ms: f64 = wr
            .updates
            .iter()
            .map(|u| {
                let mut ms: Vec<f64> = u.iter().map(|u| u.apply_s * 1e3).collect();
                median(&mut ms)
            })
            .sum();
        report.metric(
            "update_p50_ms",
            update_ms,
            "ms",
            "median apply_delta per dataset, summed",
            wr.updates[0].len(),
        );
        return Ok(report);
    }

    let mut l = Layers::default();
    for ((x, h), lp) in inputs.iter().zip(&handles).zip(&loops) {
        layers::plan_stages(&rec, x.name, &x.a, N, &mut l)?;
        layers::execute_phases(&rec, h.prepared(), &x.a, &x.b, lp.expected, &mut l)?;
    }
    report.attempted += l.mismatches;
    report.failed += l.mismatches;
    layers::report(&rec, &l, &mut report);
    drop((handles, loops));
    let mut wr = write_read(&rec, &inputs, args.seed, &mut report)?;
    session::engine_metrics(
        &mut wr.admit,
        &mut wr.wait,
        &wr.before,
        &wr.after,
        &mut report,
    );
    let updates: Vec<Update> = wr.updates.into_iter().flatten().collect();
    session::update_metrics(&updates, &mut report);
    layers::finish(&rec, run_s, run_cost_s, args, &mut report)?;
    Ok(report)
}

/// Per-dataset loop state.
struct Loop {
    ws: acc_spmm::Workspace,
    out: DenseMatrix,
    expected: u64,
    times: Vec<f64>,
}

/// Round-robin one `multiply_into` per dataset until `run_for` elapses;
/// every result must be bit-identical to the dataset's first.
fn closed_loop(
    rec: &Recorder,
    inputs: &[SpmmInput],
    handles: &[AccSpmm],
    loops: &mut [Loop],
    run_for: Duration,
    report: &mut Report,
) {
    let end = Instant::now() + run_for;
    while Instant::now() < end || loops[0].times.is_empty() {
        for ((x, h), l) in inputs.iter().zip(handles).zip(loops.iter_mut()) {
            let t0 = Instant::now();
            let res = h.multiply_into(&x.b, &mut l.out, &mut l.ws);
            let t1 = Instant::now();
            rec.record(None, "multiply", None, None, t0, t1);
            l.times.push(secs(t1 - t0));
            report.attempted += 1;
            if res.is_err() || bits_hash(l.out.as_slice()) != l.expected {
                report.failed += 1;
            }
        }
    }
}

/// What the update phase measured.
struct WriteRead {
    /// Updates per dataset.
    updates: Vec<Vec<Update>>,
    /// `submit` call times of the reads.
    admit: Vec<f64>,
    /// Read latency minus a direct execute of the same plan.
    wait: Vec<f64>,
    before: acc_spmm::EngineStats,
    after: acc_spmm::EngineStats,
}

/// On one engine with `workers(1)`: open a session per dataset, then in
/// rounds, one update per dataset each, apply ~1% churn through the
/// session and read the updated matrix back as an independent client
/// would (a fresh session, so the plan cache is on the path, then
/// `submit`). Each read must be bit-identical to a direct execute of the
/// plan it was served from. The cache has room for two plans: the one
/// just repaired and the one being replaced.
fn write_read(
    rec: &Recorder,
    inputs: &[SpmmInput],
    seed: u64,
    report: &mut Report,
) -> Result<WriteRead, String> {
    let engine = Engine::builder()
        .workers(1)
        .plan_cache_capacity(2)
        .build()
        .map_err(|e| e.to_string())?;
    let before = engine.stats();
    let mut owners = Vec::with_capacity(inputs.len());
    for (i, x) in inputs.iter().enumerate() {
        let owner = engine
            .session(&x.a)
            .feature_dim(N)
            .open()
            .map_err(|e| e.to_string())?;
        let rng = Rng::new(inputs::mix(seed, 0xDE17A + i as u64));
        owners.push((owner, Some(x.a.clone()), rng));
    }
    let mut updates: Vec<Vec<Update>> = inputs.iter().map(|_| Vec::new()).collect();
    let (mut admit, mut wait) = (Vec::new(), Vec::new());
    let mut ws = Workspace::new();
    let t_updates = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_UPDATES
        || (rounds < MAX_UPDATES && secs(t_updates.elapsed()) < UPDATE_BUDGET_S)
    {
        rounds += 1;
        for ((x, (owner, base, rng)), mine) in inputs.iter().zip(&mut owners).zip(&mut updates) {
            let old = base.take().expect("base is restored after each update");
            let (next, u) = session::update(rec, owner, old, rng)?;
            report.attempted += 1;
            report.failed += u64::from(u.repair.is_none());
            mine.push(u);

            report.attempted += 1;
            let t0 = Instant::now();
            let reader = engine
                .session(base.insert(next))
                .feature_dim(N)
                .open()
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let outcome = reader.submit(x.b.clone(), SubmitOptions::new());
            let t2 = Instant::now();
            rec.record(None, "engine.open", None, None, t0, t1);
            rec.record(None, "engine.submit", None, None, t1, t2);
            admit.push(secs(t2 - t1));
            let SubmitOutcome::Accepted(ticket) = outcome else {
                report.failed += 1;
                continue;
            };
            let got = ticket.wait().ok().map(|c| bits_hash(c.as_slice()));
            let done = Instant::now();
            rec.record(None, "request", None, None, t0, done);
            let mut direct = DenseMatrix::zeros(x.a.nrows(), N);
            let t3 = Instant::now();
            reader
                .plan()
                .execute_into(&x.b, &mut direct, &mut ws)
                .map_err(|e| e.to_string())?;
            wait.push(secs(done - t0) - secs(t3.elapsed()));
            if got != Some(bits_hash(direct.as_slice())) {
                println!(
                    "check {}: a read after an update differs from a direct execute",
                    x.name
                );
                report.failed += 1;
            }
        }
    }
    let after = engine.stats();
    Ok(WriteRead {
        updates,
        admit,
        wait,
        before,
        after,
    })
}

/// Σ 2·nnz·N over Σ per-dataset median multiply time, and the samples
/// per dataset.
fn gflops(inputs: &[SpmmInput], loops: &mut [Loop]) -> (f64, usize) {
    let flops: f64 = inputs
        .iter()
        .map(|x| 2.0 * x.a.nnz() as f64 * N as f64)
        .sum();
    let t: f64 = loops.iter_mut().map(|l| median(&mut l.times)).sum();
    (flops / t / 1e9, loops[0].times.len())
}

/// `out` is within TF32 tolerance of an FP64 CSR reference.
fn within_tf32(a: &CsrMatrix, b: &DenseMatrix, out: &DenseMatrix) -> bool {
    let max_len = (0..a.nrows()).map(|r| a.row(r).0.len()).max().unwrap_or(1);
    let tol = tf32_tolerance(max_len) as f64;
    (0..a.nrows()).all(|r| {
        let (cols, vals) = a.row(r);
        (0..b.ncols()).all(|j| {
            let want: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| f64::from(v) * f64::from(b.get(c as usize, j)))
                .sum();
            let got = f64::from(out.get(r, j));
            (got - want).abs() <= tol + tol * want.abs().max(got.abs())
        })
    })
}
