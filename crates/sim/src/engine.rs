//! The simulation engine: cache pass → per-TB timing → SM scheduling.

use crate::arch::GpuArch;
use crate::cache::{Cache, CacheOp};
use crate::pipeline::{compose, PipelineKind, TbTimes};
use crate::report::KernelReport;
use crate::sched::schedule;
use crate::trace::KernelDesc;

/// Virtual address bases keeping the operand streams disjoint.
const B_BASE: u64 = 1 << 40;
const A_BASE: u64 = 2 << 40;
const C_BASE: u64 = 3 << 40;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Kernel launch overhead (seconds).
    pub launch_overhead_s: f64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Memory-level parallelism: outstanding line requests that amortize
    /// latency (warp-wide loads + software pipelining).
    pub mlp: f64,
    /// Divide cache capacities by this factor. Evaluation matrices are
    /// scaled-down analogs of the paper's (see `spmm-matrix::datasets`);
    /// scaling the caches by the same factor preserves the
    /// working-set-to-cache ratios that drive hit rates.
    pub cache_scale: f64,
    /// Per-iteration synchronization cost (seconds) for sync-heavy
    /// pipelines.
    pub sync_s: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            launch_overhead_s: 3e-6,
            l1_ways: 8,
            l2_ways: 16,
            mlp: 24.0,
            cache_scale: 1.0,
            sync_s: 40e-9,
        }
    }
}

impl SimOptions {
    /// Options for a dataset scaled down by `factor` rows: cache
    /// capacities shrink alongside so hit rates stay representative.
    pub fn scaled(factor: f64) -> Self {
        SimOptions {
            cache_scale: factor.max(1.0),
            ..Default::default()
        }
    }
}

/// Byte counts of one access set split by serving level.
#[derive(Debug, Clone, Copy, Default)]
struct LevelBytes {
    l1: u64,
    l2: u64,
    dram: u64,
}

impl LevelBytes {
    fn add(&mut self, o: LevelBytes) {
        self.l1 += o.l1;
        self.l2 += o.l2;
        self.dram += o.dram;
    }
}

/// Per-byte time costs by level.
#[derive(Debug, Clone, Copy)]
struct ByteCosts {
    l1: f64,
    l2: f64,
    dram: f64,
}

impl ByteCosts {
    fn time(&self, b: LevelBytes) -> f64 {
        b.l1 as f64 * self.l1 + b.l2 as f64 * self.l2 + b.dram as f64 * self.dram
    }
}

struct Hierarchy {
    l1s: Vec<Cache>,
    l2: Cache,
    line: usize,
}

impl Hierarchy {
    fn new(arch: &GpuArch, opts: &SimOptions, sms_used: usize) -> Self {
        // L2 scales with the full dataset scale factor (it caches the
        // whole B working set); L1 reuse distances are short-range and
        // survive the downscaling largely intact, so L1 shrinks only by
        // the square root of the factor.
        let l2_cap = ((arch.l2_bytes as f64 / opts.cache_scale) as usize).max(4 * arch.line_bytes);
        let l1_cap = ((arch.l1_bytes_per_sm as f64 / opts.cache_scale.sqrt()) as usize)
            .max(4 * arch.line_bytes);
        Hierarchy {
            l1s: (0..sms_used)
                .map(|_| Cache::new(l1_cap, opts.l1_ways, arch.line_bytes))
                .collect(),
            l2: Cache::new(l2_cap, opts.l2_ways, arch.line_bytes),
            line: arch.line_bytes,
        }
    }

    /// Run one load through the hierarchy honouring the cache operator;
    /// returns bytes by serving level.
    fn load(&mut self, sm: usize, addr: u64, bytes: usize, op: CacheOp) -> LevelBytes {
        let mut out = LevelBytes::default();
        let first = addr / self.line as u64;
        let last = (addr + bytes.max(1) as u64 - 1) / self.line as u64;
        let probe_l1 = op.allocates_l1();
        let evict_first = op.evict_first();
        for line in first..=last {
            let a = line * self.line as u64;
            let served = bytes.min(self.line) as u64;
            if probe_l1 && self.l1s[sm].access_line(a, true, evict_first) {
                out.l1 += served;
                continue;
            }
            if self.l2.access_line(a, op.allocates_l2(), evict_first) {
                out.l2 += served;
            } else {
                out.dram += served;
            }
        }
        out
    }

    /// Run a store: write-through (`.wt`) goes straight to DRAM without
    /// allocation; write-back (`.wb`) write-allocates in L2 — polluting
    /// it and paying allocate-fetches on the partially-written boundary
    /// sectors (full-line writes skip the fetch), a ~25% traffic tax on
    /// the C stream. Avoiding both is why the paper stores C with `.wt`.
    fn store(&mut self, addr: u64, bytes: usize, op: CacheOp) -> LevelBytes {
        if op.allocates_l2() {
            let first = addr / self.line as u64;
            let last = (addr + bytes.max(1) as u64 - 1) / self.line as u64;
            for line in first..=last {
                self.l2.access_line(line * self.line as u64, true, false);
            }
            return LevelBytes {
                l1: 0,
                l2: 0,
                dram: bytes as u64 + bytes as u64 / 4,
            };
        }
        LevelBytes {
            l1: 0,
            l2: 0,
            dram: bytes as u64,
        }
    }
}

/// Simulate one kernel execution on the architecture.
pub fn simulate(arch: &GpuArch, desc: &KernelDesc, opts: &SimOptions) -> KernelReport {
    simulate_traced(arch, desc, opts).0
}

/// Profile a compiled kernel trace on a named architecture — the entry
/// point an execution plan uses once it has compiled its
/// [`KernelDesc`] (resolving the [`crate::Arch`] spec here
/// keeps plan holders free of `GpuArch` plumbing).
pub fn profile(arch: crate::Arch, desc: &KernelDesc, opts: &SimOptions) -> KernelReport {
    simulate(&arch.spec(), desc, opts)
}

/// [`simulate`] that also returns the execution timeline (per-TB spans
/// on SMs) for Chrome-trace export.
pub fn simulate_traced(
    arch: &GpuArch,
    desc: &KernelDesc,
    opts: &SimOptions,
) -> (KernelReport, crate::export::ExecutionTrace) {
    let _span = spmm_trace::span("sim.simulate");
    let num_tbs = desc.tbs.len();
    let active = num_tbs.clamp(1, arch.num_sms);
    let mut hier = Hierarchy::new(arch, opts, active);
    let row_bytes = desc.row_bytes();

    // Per-byte costs: bandwidth share plus latency amortized over the
    // outstanding-line window.
    let line = arch.line_bytes as f64;
    let costs = ByteCosts {
        l1: 1.0 / (arch.l1_bw_gbps * 1e9) + arch.l1_latency_ns * 1e-9 / (opts.mlp * line),
        l2: 1.0 / arch.l2_bw_per_sm(active) + arch.l2_latency_ns * 1e-9 / (opts.mlp * line),
        dram: 1.0 / (arch.dram_bw_per_sm(active) * desc.mem_efficiency)
            + arch.dram_latency_ns * 1e-9 / (opts.mlp * line),
    };
    let flops_per_sm = if desc.use_tensor_cores {
        arch.tc_flops_per_sm()
    } else {
        arch.cuda_flops_per_sm()
    };
    let decode_ops_per_sm = arch.cuda_flops_per_sm();
    let sync = match desc.pipeline {
        PipelineKind::SerialScalar => 0.0,
        PipelineKind::TcgnnSync => 1.5 * opts.sync_s,
        PipelineKind::DtcDoubleBuffer => opts.sync_s,
        PipelineKind::AccLeastBubble => 0.75 * opts.sync_s,
    };

    let mut a_cursor = A_BASE;
    let mut c_cursor = C_BASE;
    let mut total = LevelBytes::default();
    let mut tb_latencies = Vec::with_capacity(num_tbs);
    let mut busy_s = 0.0f64;
    let mut bubble_s = 0.0f64;
    let mut load_hits = 0u64;
    let mut load_misses = 0u64;
    let mut l2_hits = 0u64;
    let mut l2_misses = 0u64;

    // Cache-pass SM assignment: contiguous spans of the launch order.
    // With multiple TBs resident per SM and launch-order dispatch,
    // neighbouring TBs (= neighbouring RowWindows) execute on the same
    // SM and share its L1 — the locality channel row reordering improves
    // (Figure 11).
    let span = desc.tbs.len().div_ceil(active).max(1);
    for (i, tb) in desc.tbs.iter().enumerate() {
        let sm = (i / span).min(active - 1);
        let n = tb.blocks.len();
        let mut times = TbTimes {
            load_b: Vec::with_capacity(n),
            load_a: Vec::with_capacity(n),
            compute: Vec::with_capacity(n),
            decode: Vec::with_capacity(n),
            writeback: 0.0,
            sync,
        };
        for blk in &tb.blocks {
            // Sparse A stream (values + metadata), consumed once.
            let a = hier.load(sm, a_cursor, blk.a_bytes as usize, desc.policy.a_op);
            a_cursor += blk.a_bytes as u64;
            // Dense B gathers.
            let mut b = LevelBytes::default();
            for &row in &blk.b_rows {
                let lb = hier.load(
                    sm,
                    B_BASE + row as u64 * row_bytes as u64,
                    row_bytes,
                    desc.policy.b_op,
                );
                b.add(lb);
            }
            total.add(a);
            total.add(b);
            times.load_a.push(costs.time(a));
            times.load_b.push(costs.time(b));
            times.compute.push(blk.flops as f64 / flops_per_sm);
            times.decode.push(blk.decode_ops as f64 / decode_ops_per_sm);
        }
        // C write-back: every segment writes its rows once.
        let c_bytes = tb.c_rows as usize * row_bytes;
        let c = hier.store(c_cursor, c_bytes, desc.policy.c_op);
        c_cursor += c_bytes as u64;
        total.add(c);
        times.writeback = c.dram as f64 * costs.dram
            + tb.segments.max(1) as f64 * arch.dram_latency_ns * 1e-9 / opts.mlp;

        let lat = compose(desc.pipeline, &times);
        busy_s += lat.total;
        bubble_s += lat.bubbles;
        tb_latencies.push(lat.total);
    }

    for c in &hier.l1s {
        load_hits += c.hits();
        load_misses += c.misses();
    }
    l2_hits += hier.l2.hits();
    l2_misses += hier.l2.misses();

    let sched = schedule(&tb_latencies, arch.num_sms);
    let trace = crate::export::ExecutionTrace::from_schedule(&sched, &tb_latencies);
    let mut time_s = sched.makespan + opts.launch_overhead_s;
    // Architecture-specific library tuning multiplier (cuSPARSE model).
    if desc.arch_boost > 0.0 {
        time_s /= desc.arch_boost;
    }

    // Bytes-moved / hit-rate / bubble statistics double as trace
    // counters, so a measurement window over any number of simulations
    // accumulates the same quantities the per-run report carries.
    if spmm_trace::is_enabled() {
        spmm_trace::counter_add("sim.dram_bytes", total.dram);
        spmm_trace::counter_add("sim.l2_bytes", total.l2);
        spmm_trace::counter_add("sim.l1_bytes", total.l1);
        spmm_trace::counter_add("sim.tbs", num_tbs as u64);
        spmm_trace::counter_add("sim.bubble_ns", (bubble_s * 1e9) as u64);
        spmm_trace::counter_add("sim.busy_ns", (busy_s * 1e9) as u64);
        for c in &hier.l1s {
            c.emit_trace_counters(crate::cache::MemLevel::L1);
        }
        hier.l2.emit_trace_counters(crate::cache::MemLevel::L2);
    }

    let executed = desc.executed_flops();
    let report = KernelReport {
        time_s,
        gflops: desc.effective_flops as f64 / time_s / 1e9,
        dense_gflops: executed as f64 / time_s / 1e9,
        dram_bytes: total.dram,
        l2_bytes: total.l2,
        l1_bytes: total.l1,
        l1_hit_rate: if load_hits + load_misses == 0 {
            0.0
        } else {
            load_hits as f64 / (load_hits + load_misses) as f64
        },
        l2_hit_rate: if l2_hits + l2_misses == 0 {
            0.0
        } else {
            l2_hits as f64 / (l2_hits + l2_misses) as f64
        },
        bubble_s,
        busy_s,
        mem_throughput_gbps: total.dram as f64 / time_s / 1e9,
        compute_throughput_gflops: executed as f64 / time_s / 1e9,
        num_tbs,
        sm_utilization: sched.utilization,
    };
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{A800, H100, RTX4090};
    use crate::trace::{BlockTrace, CachePolicy, TbTrace};

    fn tc_desc(num_tbs: usize, blocks_per_tb: usize, n: usize, reuse: bool) -> KernelDesc {
        let tbs: Vec<TbTrace> = (0..num_tbs)
            .map(|t| TbTrace {
                blocks: (0..blocks_per_tb)
                    .map(|b| BlockTrace {
                        // `reuse` makes every block gather the same 8 rows;
                        // otherwise rows are all distinct.
                        b_rows: (0..8u32)
                            .map(|k| {
                                if reuse {
                                    k
                                } else {
                                    (t * blocks_per_tb * 8 + b * 8) as u32 + k
                                }
                            })
                            .collect(),
                        a_bytes: 44 + 32,
                        flops: 2 * 8 * 8 * n as u64,
                        decode_ops: 64,
                    })
                    .collect(),
                c_rows: 8,
                segments: 1,
            })
            .collect();
        let eff: u64 = tbs
            .iter()
            .flat_map(|t| t.blocks.iter())
            .map(|b| b.flops / 4)
            .sum();
        KernelDesc {
            tbs,
            pipeline: PipelineKind::AccLeastBubble,
            policy: CachePolicy::acc_policy(),
            mem_efficiency: 0.85,
            use_tensor_cores: true,
            feature_dim: n,
            effective_flops: eff,
            arch_boost: 1.0,
        }
    }

    #[test]
    fn reuse_raises_hit_rate_and_speed() {
        let opts = SimOptions::default();
        let reuse = simulate(&A800, &tc_desc(32, 16, 128, true), &opts);
        let stream = simulate(&A800, &tc_desc(32, 16, 128, false), &opts);
        assert!(reuse.l1_hit_rate > stream.l1_hit_rate);
        assert!(reuse.time_s < stream.time_s);
        assert!(reuse.dram_bytes < stream.dram_bytes);
    }

    #[test]
    fn more_bandwidth_is_faster() {
        let desc = tc_desc(64, 32, 128, false);
        let opts = SimOptions::default();
        let t4090 = simulate(&RTX4090, &desc, &opts).time_s;
        let th100 = simulate(&H100, &desc, &opts).time_s;
        assert!(th100 < t4090, "H100 {} vs 4090 {}", th100, t4090);
    }

    #[test]
    fn acc_pipeline_beats_dtc_and_tcgnn() {
        let mut desc = tc_desc(64, 32, 128, false);
        let opts = SimOptions::default();
        let acc = simulate(&A800, &desc, &opts).time_s;
        desc.pipeline = PipelineKind::DtcDoubleBuffer;
        let dtc = simulate(&A800, &desc, &opts).time_s;
        desc.pipeline = PipelineKind::TcgnnSync;
        let tcgnn = simulate(&A800, &desc, &opts).time_s;
        assert!(acc < dtc, "acc {acc} dtc {dtc}");
        assert!(dtc < tcgnn, "dtc {dtc} tcgnn {tcgnn}");
    }

    #[test]
    fn imbalance_slows_the_kernel() {
        // Same total blocks, one giant TB vs evenly spread.
        let even = tc_desc(128, 8, 128, false);
        let mut skewed = tc_desc(127, 1, 128, false);
        let big: Vec<BlockTrace> = (0..(128 * 8 - 127))
            .map(|b| BlockTrace {
                b_rows: (0..8u32).map(|k| (b * 8) as u32 + k).collect(),
                a_bytes: 76,
                flops: 2 * 8 * 8 * 128,
                decode_ops: 64,
            })
            .collect();
        skewed.tbs.push(TbTrace {
            blocks: big,
            c_rows: 8,
            segments: 1,
        });
        skewed.effective_flops = even.effective_flops;
        let opts = SimOptions::default();
        let t_even = simulate(&A800, &even, &opts).time_s;
        let t_skew = simulate(&A800, &skewed, &opts).time_s;
        assert!(
            t_skew > 1.5 * t_even,
            "straggler must dominate: even {t_even} skewed {t_skew}"
        );
    }

    #[test]
    fn wt_policy_preserves_l2_for_b() {
        // Many TBs writing C: .wb pollutes L2 and must not beat .wt.
        let mut desc = tc_desc(128, 32, 256, false);
        let opts = SimOptions {
            cache_scale: 16.0,
            ..Default::default()
        };
        desc.policy = CachePolicy::acc_policy();
        let wt = simulate(&A800, &desc, &opts);
        desc.policy = CachePolicy {
            c_op: CacheOp::Wb,
            ..CachePolicy::acc_policy()
        };
        let wb = simulate(&A800, &desc, &opts);
        assert!(wt.l2_hit_rate >= wb.l2_hit_rate - 1e-9);
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let desc = KernelDesc {
            tbs: vec![],
            pipeline: PipelineKind::SerialScalar,
            policy: CachePolicy::hardware_default(),
            mem_efficiency: 0.8,
            use_tensor_cores: false,
            feature_dim: 128,
            effective_flops: 0,
            arch_boost: 1.0,
        };
        let r = simulate(&A800, &desc, &SimOptions::default());
        assert!((r.time_s - 3e-6).abs() < 1e-12);
    }
}
