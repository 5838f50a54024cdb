//! `serve-churn`: an open-loop Poisson stream on `Engine` and
//! `Session::submit`, stepping through a ladder of fixed rates, with
//! ~1% edge churn applied through `Session::apply_delta` about once a
//! second between sends.
//!
//! One process: the engine runs `workers(1)`, and one generator thread
//! sends on schedule and records completions, busy-polling in between
//! so that a send is never late by a sleeping core's wake-up; compute
//! inside the library uses its own parallelism (capped at `nproc`).
//! Requests are timed from their due time, so a stall caused by a repair
//! counts against the requests due meanwhile. Each send opens a session
//! on the current matrix, as an independent client would, so the plan
//! cache is on the request path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_spmm::{
    CsrMatrix, DenseMatrix, Engine, PreparedKernel, Priority, Session, SubmitOptions,
    SubmitOutcome, Ticket, Workspace,
};

use crate::inputs::{self, Rng};
use crate::layers::{self, Layers};
use crate::session::{self, Update, CHURN_SHARE};
use crate::spans::Recorder;
use crate::{bits_hash, median, quantile, secs, Args, Report, N};

/// The rate ladder (requests per second), lowest first. Each rung runs
/// for a time inversely proportional to its rate, so every rung gets the
/// same expected number of requests.
const LADDER: [(&str, f64); 2] = [("light", 50.0), ("heavy", 100.0)];
/// Latency limit on a rung's p99 for `max_rate_rps`.
const P99_LIMIT_MS: f64 = 100.0;
/// A rung's backlog is growing when more than this many seconds of its
/// offered load are still outstanding at its last send.
const BACKLOG_LIMIT_S: f64 = 0.25;
/// The update period.
const UPDATE_EVERY_S: f64 = 1.0;
/// Share of requests sent as `Priority::Interactive` (the rest `Batch`).
const INTERACTIVE_SHARE: f64 = 0.25;
/// The run is invalid when the generator's p99 lag exceeds this share
/// of the heaviest rung's mean arrival period.
const LAG_LIMIT_SHARE: f64 = 0.5;
/// Engine + session opens; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Synchronous multiplies before the stream starts.
const WARMUP: usize = 8;

/// One finished request.
struct Record {
    id: u64,
    /// Ladder rung; `None` for warm-up multiplies.
    rung: Option<usize>,
    priority: Priority,
    operand: usize,
    version: usize,
    due: Instant,
    done: Instant,
    /// Output fingerprint; `None` when the request failed.
    hash: Option<u64>,
}

/// One request in flight.
struct Pending {
    record: Record,
    ticket: Ticket,
}

/// One generator send.
struct Send {
    rung: usize,
    lag_s: f64,
    admit_s: f64,
    /// Due while an update held the generator: its lateness is the
    /// update's, not the generator's.
    behind_update: bool,
}

/// Latency summary of one rung; failed or rejected requests count as
/// missing every limit.
struct Rung {
    n: usize,
    p50_ms: f64,
    p99_ms: f64,
    interactive_n: usize,
    interactive_p99_ms: f64,
    outstanding: usize,
    meets: bool,
}

enum Event {
    Request { rung: usize },
    Update,
}

/// The generator's state.
struct Stream<'a> {
    engine: &'a Engine,
    owner: Session,
    /// The current matrix (taken while an update rebuilds it).
    base: Option<CsrMatrix>,
    /// Plan per version; version 0 is the opened plan.
    plans: Vec<Arc<PreparedKernel>>,
    operands: &'a [DenseMatrix],
    rng: Rng,
    next_id: u64,
    records: Vec<Record>,
    sends: Vec<Send>,
    updates: Vec<Update>,
    /// Last due time of each rung.
    last_due: HashMap<usize, Instant>,
    rejected: u64,
}

impl Stream<'_> {
    /// Step through the ladder once, `seconds` in total.
    fn ladder(&mut self, rec: &Recorder, seconds: f64) -> Result<(), String> {
        let period_sum: f64 = LADDER.iter().map(|&(_, rate)| 1.0 / rate).sum();
        let mut events: Vec<(f64, Event)> = Vec::new();
        let mut lo = 0.0;
        for (i, &(_, rate)) in LADDER.iter().enumerate() {
            let hi = lo + seconds / rate / period_sum;
            let mut t = lo + self.rng.exp(1.0 / rate);
            while t < hi {
                events.push((t, Event::Request { rung: i }));
                t += self.rng.exp(1.0 / rate);
            }
            let mut u = lo + UPDATE_EVERY_S / 2.0;
            while u < hi {
                events.push((u, Event::Update));
                u += UPDATE_EVERY_S;
            }
            lo = hi;
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut pending: Vec<Pending> = Vec::new();
        let start = Instant::now() + Duration::from_millis(5);
        let mut update_end = start;
        for (at, ev) in events {
            let due = start + Duration::from_secs_f64(at);
            while Instant::now() < due {
                self.reap(&mut pending, rec);
                std::hint::spin_loop();
            }
            match ev {
                Event::Update => {
                    self.update(rec)?;
                    update_end = Instant::now();
                }
                Event::Request { rung } => {
                    self.last_due.insert(rung, due);
                    if let Some(p) = self.send(rec, rung, due, due < update_end)? {
                        pending.push(p);
                    }
                }
            }
        }
        while !pending.is_empty() {
            self.reap(&mut pending, rec);
            std::hint::spin_loop();
        }
        Ok(())
    }

    /// Record each ready ticket's completion time, then take its result.
    fn reap(&mut self, pending: &mut Vec<Pending>, rec: &Recorder) {
        let mut i = 0;
        while i < pending.len() {
            if !pending[i].ticket.is_ready() {
                i += 1;
                continue;
            }
            let Pending { mut record, ticket } = pending.swap_remove(i);
            record.done = Instant::now();
            record.hash = ticket.wait().ok().map(|c| bits_hash(c.as_slice()));
            rec.record(
                None,
                "request",
                None,
                Some(record.id),
                record.due,
                record.done,
            );
            self.records.push(record);
        }
    }

    fn send(
        &mut self,
        rec: &Recorder,
        rung: usize,
        due: Instant,
        behind_update: bool,
    ) -> Result<Option<Pending>, String> {
        let sent = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let operand = self.rng.below(self.operands.len());
        let priority = if self.rng.next_f64() < INTERACTIVE_SHARE {
            Priority::Interactive
        } else {
            Priority::Batch
        };
        let base = self
            .base
            .as_ref()
            .expect("base is restored after each update");
        let t_open = Instant::now();
        let session = self
            .engine
            .session(base)
            .feature_dim(N)
            .open()
            .map_err(|e| e.to_string())?;
        let t_opened = Instant::now();
        let b = self.operands[operand].clone();
        let t_submit = Instant::now();
        let outcome = session.submit(b, SubmitOptions::new().priority(priority));
        let t_end = Instant::now();
        rec.record(None, "engine.open", None, Some(id), t_open, t_opened);
        rec.record(None, "engine.submit", None, Some(id), t_submit, t_end);
        self.sends.push(Send {
            rung,
            lag_s: secs(sent.saturating_duration_since(due)),
            admit_s: secs(t_end - t_submit),
            behind_update,
        });
        match outcome {
            SubmitOutcome::Accepted(ticket) => {
                let version = self.plans.len() - 1;
                let record = Record {
                    id,
                    rung: Some(rung),
                    priority,
                    operand,
                    version,
                    due,
                    done: due,
                    hash: None,
                };
                Ok(Some(Pending { record, ticket }))
            }
            _ => {
                self.rejected += 1;
                Ok(None)
            }
        }
    }

    /// Apply ~1% churn to the current matrix through the owner session.
    fn update(&mut self, rec: &Recorder) -> Result<(), String> {
        let base = self.base.take().expect("base is present between updates");
        let (next, u) = session::update(rec, &mut self.owner, base, &mut self.rng)?;
        self.base = Some(next);
        self.plans.push(Arc::clone(self.owner.plan()));
        self.updates.push(u);
        Ok(())
    }

    fn rung(&self, rung: usize) -> Rung {
        let mine: Vec<&Record> = self
            .records
            .iter()
            .filter(|r| r.rung == Some(rung))
            .collect();
        let lat = |r: &&Record| match r.hash {
            Some(_) => secs(r.done - r.due) * 1e3,
            None => f64::INFINITY,
        };
        let mut all: Vec<f64> = mine.iter().map(lat).collect();
        let rejected = self.sends.iter().filter(|s| s.rung == rung).count() - mine.len();
        all.extend(std::iter::repeat_n(f64::INFINITY, rejected));
        let mut inter: Vec<f64> = mine
            .iter()
            .filter(|r| r.priority == Priority::Interactive)
            .map(lat)
            .collect();
        let outstanding = self.last_due.get(&rung).map_or(0, |&t| {
            mine.iter().filter(|r| r.due <= t && r.done > t).count()
        });
        let (p50_ms, p99_ms) = (quantile(&mut all, 0.5), quantile(&mut all, 0.99));
        Rung {
            n: all.len(),
            p50_ms,
            p99_ms,
            interactive_n: inter.len(),
            interactive_p99_ms: quantile(&mut inter, 0.99),
            outstanding,
            meets: p99_ms <= P99_LIMIT_MS && outstanding as f64 <= LADDER[rung].1 * BACKLOG_LIMIT_S,
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let a = inputs::serve_graph(args.seed)?;
    inputs::describe("rmat-gcn", &a, N);
    let operands = inputs::serve_operands(a.ncols(), N, args.seed);
    let fps: Vec<String> = operands
        .iter()
        .map(|b| format!("{:#018x}", bits_hash(b.as_slice())))
        .collect();
    println!(
        "operands: {} of {}x{N}, fingerprints {}",
        operands.len(),
        a.ncols(),
        fps.join(",")
    );
    println!(
        "ladder: {} rps; interactive share {INTERACTIVE_SHARE}; churn {CHURN_SHARE} of nnz every {UPDATE_EVERY_S} s; p99 limit {P99_LIMIT_MS} ms",
        LADDER.map(|(n, r)| format!("{n}={r}")).join(" ")
    );
    println!(
        "threads: engine workers=1, generator=1 (sends and collects), compute={}",
        rayon::current_num_threads()
    );

    // Set-up: time from having the matrix to a ready session.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        drop(opened.take());
        let t0 = Instant::now();
        let engine = Engine::builder()
            .workers(1)
            .build()
            .map_err(|e| e.to_string())?;
        let session = engine
            .session(&a)
            .feature_dim(N)
            .open()
            .map_err(|e| e.to_string())?;
        setup.push(secs(t0.elapsed()));
        opened = Some((engine, session));
    }
    let (engine, owner) = opened.expect("SETUP_REPS > 0");
    println!(
        "session: isa_tier={} degraded={}",
        owner.isa_tier().name(),
        owner.is_degraded()
    );

    let mut st = Stream {
        engine: &engine,
        plans: vec![Arc::clone(owner.plan())],
        owner,
        base: Some(a),
        operands: &operands,
        rng: Rng::new(inputs::mix(args.seed, 0xA221)),
        next_id: 0,
        records: Vec::new(),
        sends: Vec::new(),
        updates: Vec::new(),
        last_due: HashMap::new(),
        rejected: 0,
    };
    for i in 0..WARMUP {
        let operand = i % operands.len();
        let due = Instant::now();
        let hash = st
            .owner
            .multiply(&operands[operand])
            .ok()
            .map(|c| bits_hash(c.as_slice()));
        let id = st.next_id;
        st.next_id += 1;
        let done = Instant::now();
        st.records.push(Record {
            id,
            rung: None,
            priority: Priority::Standard,
            operand,
            version: 0,
            due,
            done,
            hash,
        });
    }

    let rec = Recorder::new(args.trace);
    let before = engine.stats();
    let t_run = Instant::now();
    st.ladder(&rec, args.seconds)?;
    let (run_s, run_cost_s) = (secs(t_run.elapsed()), rec.cost_s());
    let after = engine.stats();

    // Output check: every response against a direct execute of the same
    // plan version, expected outputs cached per (operand, version). The
    // engine's own path (a one-request batch on this thread) is timed
    // for `multiply_gflops` and must agree with the direct execute.
    let mut expected: HashMap<(usize, usize), (u64, f64)> = HashMap::new();
    let mut ws = Workspace::new();
    let mut c = DenseMatrix::zeros(st.plans[0].csr().nrows(), N);
    let mut c_seq = c.clone();
    let mut path_mismatches = 0u64;
    for r in &st.records {
        let key = (r.operand, r.version);
        if let std::collections::hash_map::Entry::Vacant(e) = expected.entry(key) {
            let (plan, b) = (&st.plans[r.version], &operands[r.operand]);
            plan.execute_into(b, &mut c, &mut ws)
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            plan.execute_batch_into(
                std::slice::from_ref(b),
                std::slice::from_mut(&mut c_seq),
                &mut ws,
            )
            .map_err(|e| e.to_string())?;
            let seq_s = secs(t0.elapsed());
            if bits_hash(c_seq.as_slice()) != bits_hash(c.as_slice()) {
                path_mismatches += 1;
            }
            e.insert((bits_hash(c.as_slice()), seq_s));
        }
    }
    let mut bad = 0;
    for r in &mut st.records {
        if r.hash.is_some() && r.hash != Some(expected[&(r.operand, r.version)].0) {
            r.hash = None;
            bad += 1;
        }
    }
    if bad + path_mismatches > 0 {
        println!(
            "check: {bad} responses and {path_mismatches} engine-path executes differ from a direct execute of their plan version"
        );
    }
    let failed_updates = st.updates.iter().filter(|u| u.repair.is_none()).count();
    let mut report = Report {
        attempted: (WARMUP + st.sends.len() + st.updates.len() + expected.len()) as u64,
        failed: (st.records.iter().filter(|r| r.hash.is_none()).count() + failed_updates) as u64
            + st.rejected
            + path_mismatches,
        ..Report::default()
    };

    let mut lags: Vec<f64> = st
        .sends
        .iter()
        .filter(|s| !s.behind_update)
        .map(|s| s.lag_s * 1e3)
        .collect();
    let lag_p99 = quantile(&mut lags, 0.99);
    let lag_limit_ms = LAG_LIMIT_SHARE * 1e3 / LADDER[LADDER.len() - 1].1;
    println!(
        "generator: lag p99 {lag_p99:.3} ms over {} sends (limit {lag_limit_ms:.3} ms); run valid: {}",
        lags.len(),
        lag_p99 <= lag_limit_ms
    );
    let rungs: Vec<Rung> = (0..LADDER.len()).map(|i| st.rung(i)).collect();
    for (r, (name, rate)) in rungs.iter().zip(LADDER) {
        println!(
            "rung {name}: {rate} rps offered, {} requests, p50 {:.3} ms, p99 {:.3} ms, interactive p99 {:.3} ms (n={}), outstanding at last send {}, meets limits {}",
            r.n, r.p50_ms, r.p99_ms, r.interactive_p99_ms, r.interactive_n, r.outstanding, r.meets
        );
    }
    let max_rate = rungs
        .iter()
        .zip(LADDER)
        .filter(|(r, _)| r.meets)
        .map(|(_, (_, rate))| rate)
        .fold(0.0, f64::max);
    println!("max_rate_rps: {max_rate} (highest ladder rate meeting the limits)");
    if !args.trace {
        let mut exec: Vec<f64> = expected.values().map(|v| v.1).collect();
        let flops = 2.0 * st.plans[0].csr().nnz() as f64 * N as f64;
        let mut update_ms: Vec<f64> = st.updates.iter().map(|u| u.apply_s * 1e3).collect();
        report.metric(
            "setup_s",
            median(&mut setup),
            "s",
            "median of engine + session opens",
            SETUP_REPS,
        );
        report.metric(
            "multiply_gflops",
            flops / median(&mut exec) / 1e9,
            "GFLOP/s",
            "2 nnz N / median engine-path execute, 1 thread",
            exec.len(),
        );
        report.metric(
            "update_p50_ms",
            median(&mut update_ms),
            "ms",
            "median apply_delta",
            update_ms.len(),
        );
        return Ok(report);
    }

    let mut l = Layers::default();
    let current = st
        .base
        .as_ref()
        .expect("base is restored after each update");
    layers::plan_stages(&rec, "rmat-gcn", current, N, &mut l)?;
    let last = &st.plans[st.plans.len() - 1];
    last.execute_into(&operands[0], &mut c, &mut ws)
        .map_err(|e| e.to_string())?;
    layers::execute_phases(
        &rec,
        last,
        current,
        &operands[0],
        bits_hash(c.as_slice()),
        &mut l,
    )?;
    report.attempted += l.mismatches;
    report.failed += l.mismatches;
    layers::report(&rec, &l, &mut report);
    let heavy = LADDER.len() - 1;
    let mut admit: Vec<f64> = st.sends.iter().map(|s| s.admit_s).collect();
    let mut wait: Vec<f64> = st
        .records
        .iter()
        .filter(|r| r.rung == Some(heavy) && r.hash.is_some())
        .map(|r| secs(r.done - r.due) - expected[&(r.operand, r.version)].1)
        .collect();
    session::engine_metrics(&mut admit, &mut wait, &before, &after, &mut report);
    session::update_metrics(&st.updates, &mut report);
    layers::finish(&rec, run_s, run_cost_s, args, &mut report)?;
    Ok(report)
}
