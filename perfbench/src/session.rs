//! The session layers every workload reaches: graph updates through
//! `Session::apply_delta` (~1% edge churn built as a `DeltaCsr` overlay,
//! repaired into the plan, then compacted into the next matrix) and the
//! engine's admission, queue, batch and cache path.

use std::time::Instant;

use acc_spmm::{CsrMatrix, EngineStats, RepairReport, Session};

use crate::inputs::{self, Rng};
use crate::spans::Recorder;
use crate::{median, secs, Report};

/// Share of nnz edited per update.
pub const CHURN_SHARE: f64 = 0.01;

/// One `apply_delta`.
pub struct Update {
    pub build_s: f64,
    pub apply_s: f64,
    /// `None` when `apply_delta` returned an error.
    pub repair: Option<RepairReport>,
}

/// Apply ~1% churn to `base` through `owner`, which must be bound to
/// `base`; returns the compacted matrix the session is now bound to.
pub fn update(
    rec: &Recorder,
    owner: &mut Session,
    base: CsrMatrix,
    rng: &mut Rng,
) -> Result<(CsrMatrix, Update), String> {
    rec.time("update", None, |id| {
        let t0 = Instant::now();
        let delta = rec.time("delta.build", id, |_| inputs::churn(base, CHURN_SHARE, rng))?;
        let t1 = Instant::now();
        let repair = rec.time("repair", id, |_| owner.apply_delta(&delta));
        let t2 = Instant::now();
        let next = rec.time("delta.compact", id, |_| delta.compact());
        let u = Update {
            build_s: secs(t1 - t0),
            apply_s: secs(t2 - t1),
            repair: repair.ok(),
        };
        Ok((next, u))
    })
}

/// Per-layer metrics of the repair and delta layers.
pub fn update_metrics(updates: &[Update], report: &mut Report) {
    let repairs: Vec<&RepairReport> = updates.iter().filter_map(|u| u.repair.as_ref()).collect();
    let rebuilt: usize = repairs.iter().map(|r| r.windows_rebuilt).sum();
    let windows: usize = repairs.iter().map(|r| r.windows_total).sum();
    report.metric(
        "repair.busy_s",
        repairs.iter().map(|r| r.repair_seconds).sum(),
        "s",
        "sum of RepairReport",
        repairs.len(),
    );
    report.metric(
        "repair.window_rebuild_share",
        rebuilt as f64 / windows as f64,
        "ratio",
        "windows rebuilt / windows",
        repairs.len(),
    );
    report.metric(
        "delta.build_s",
        updates.iter().map(|u| u.build_s).sum(),
        "s",
        "sum of overlay builds",
        updates.len(),
    );
}

/// Per-layer metrics of the engine: `admit` holds the `submit` call
/// time of every send, `wait` each latency minus a direct execute of
/// the same plan and operand, and `before`/`after` the engine's counters
/// around them.
pub fn engine_metrics(
    admit: &mut [f64],
    wait: &mut [f64],
    before: &EngineStats,
    after: &EngineStats,
    report: &mut Report,
) {
    let d = |f: fn(&EngineStats) -> u64| (f(after) - f(before)) as f64;
    let lookups = d(|s| s.cache_hits + s.cache_misses);
    let sent = admit.len();
    report.metric(
        "engine.admit_s",
        median(admit),
        "s",
        "median submit call",
        admit.len(),
    );
    report.metric(
        "engine.wait_s",
        median(wait),
        "s",
        "derived: latency - direct execute, median",
        wait.len(),
    );
    report.metric(
        "engine.batch_occupancy",
        d(|s| s.batched_requests) / d(|s| s.batches),
        "req/batch",
        "batched requests / batches",
        d(|s| s.batches) as usize,
    );
    report.metric(
        "engine.rejected_share",
        d(|s| s.rejected + s.quota_rejected) / sent as f64,
        "ratio",
        "rejected / sent",
        sent,
    );
    report.metric(
        "engine.cache_hit_share",
        d(|s| s.cache_hits) / lookups,
        "ratio",
        "hits / lookups",
        lookups as usize,
    );
}
