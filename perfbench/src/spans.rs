//! Spans recorded by the benchmark around its own calls into the
//! library: name, start, end, parent span and, on the serving workload,
//! request id. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. A disabled recorder records nothing and hands
/// out no ids, so untraced runs pay one branch per call site. An enabled
/// one also sums the time spent recording, the tracing overhead.
pub struct Recorder {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    cost_ns: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            cost_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Reserve a span id before the span's children are recorded.
    pub fn id(&self) -> Option<u64> {
        self.on.then(|| self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a finished span under a reserved (or fresh) id.
    pub fn record(
        &self,
        id: Option<u64>,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let entered = Instant::now();
        let span = Span {
            id: id.unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed)),
            parent,
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        self.cost_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds spent recording spans so far.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Run `f` inside a span; `f` gets the span's id to parent children.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.id();
        let start = Instant::now();
        let r = f(id);
        self.record(id, name, parent, None, start, Instant::now());
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the part of its interval that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span and the per-name self times as JSON.
    pub fn export(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time_s\": {{"
        );
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {t}");
        }
        s.push_str("}, \"spans\": [\n");
        for (i, sp) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                sp.id,
                opt(sp.parent),
                sp.name,
                opt(sp.request),
                sp.start_ns as f64 / 1e3,
                sp.end_ns as f64 / 1e3
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 1, 25), 2 + 7 + 5);
    }
}
