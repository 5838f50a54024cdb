//! Per-layer measurements shared by every workload, taken in the traced
//! run only.
//!
//! * Plan stages: `default_stages()` run one at a time on a fresh
//!   `PlanContext`, each inside its own span, and their sum checked
//!   against the wall time of a full build.
//! * Execute phases: the plan's multiply replayed phase by phase from
//!   public entry points — B staging (`BStage::stage_tier`), the window
//!   loop (`BitTcf::spmm_into_staged_tier`), a `decompress_block` replay
//!   of every block at the same thread count, and the permutation row
//!   copy — and checked bit-exact against the library's own multiply.

use std::hint::black_box;
use std::time::Instant;

use acc_spmm::format::{BStage, BitTcf, TILE};
use acc_spmm::kernels::plan::{default_stages, PlanContext};
use acc_spmm::{AccConfig, Arch, CsrMatrix, DenseMatrix, KernelKind, PreparedKernel};

use crate::spans::Recorder;
use crate::{bits_hash, median, secs};

/// Repeats of each execute phase; the median is kept.
const PHASE_REPS: usize = 5;

/// Layer totals, summed over a workload's inputs.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub build_s: f64,
    pub stage_sum_s: f64,
    pub tc_blocks: usize,
    pub nnz: usize,
    pub index_bytes: usize,
    pub stage_b_s: f64,
    pub windows_s: f64,
    pub decode_s: f64,
    pub unpermute_s: f64,
    pub flops: f64,
    pub bytes: f64,
    pub useful_flops: f64,
    pub csr_ref_s: f64,
    pub mismatches: u64,
}

/// Replay the plan stages for `a` and time a full build beside them.
pub fn plan_stages(
    rec: &Recorder,
    name: &str,
    a: &CsrMatrix,
    n: usize,
    into: &mut Layers,
) -> Result<(), String> {
    let t0 = Instant::now();
    rec.time("plan.build", None, |_| {
        PreparedKernel::builder(KernelKind::AccSpmm, a)
            .feature_dim(n)
            .build()
            .map_err(|e| e.to_string())
    })?;
    let build_s = secs(t0.elapsed());
    let mut sum = 0.0;
    rec.time("plan.replay", None, |id| -> Result<(), String> {
        let mut ctx = PlanContext::new(
            KernelKind::AccSpmm,
            a.clone(),
            Arch::A800,
            n,
            AccConfig::full(),
        );
        for stage in default_stages() {
            let t = Instant::now();
            rec.time(stage.name(), id, |_| stage.run(&mut ctx))
                .map_err(|e| e.to_string())?;
            sum += secs(t.elapsed());
        }
        Ok(())
    })?;
    println!(
        "layers {name}: stage sum {:.4} s against build wall {:.4} s ({:+.1}%)",
        sum,
        build_s,
        (sum / build_s - 1.0) * 100.0
    );
    into.build_s += build_s;
    into.stage_sum_s += sum;
    Ok(())
}

/// Replay one multiply of `kernel` phase by phase; `expected` is the
/// library's own output for `b`.
pub fn execute_phases(
    rec: &Recorder,
    kernel: &PreparedKernel,
    a: &CsrMatrix,
    b: &DenseMatrix,
    expected: u64,
    into: &mut Layers,
) -> Result<(), String> {
    let plan = kernel.execution_plan();
    let tier = plan.isa_tier();
    let Some(acc_spmm::kernels::TcFormat::BitTcf(f)) = plan.format() else {
        return Err("plan has no BitTCF format".into());
    };
    let perm = plan.perm().filter(|_| !plan.symmetric());
    let n = b.ncols();
    let threads = rayon::current_num_threads();
    let mut stage = BStage::new();
    let mut staged = DenseMatrix::zeros(f.nrows(), n);
    let mut out = DenseMatrix::zeros(f.nrows(), n);
    let mut t: [Vec<f64>; 4] = Default::default();
    rec.time("execute.replay", None, |id| -> Result<(), String> {
        for _ in 0..PHASE_REPS {
            let t0 = Instant::now();
            rec.time("execute.stage_b", id, |_| stage.stage_tier(b, tier));
            let t1 = Instant::now();
            rec.time("execute.windows", id, |_| {
                f.spmm_into_staged_tier(&stage, &mut staged, tier)
            })
            .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            rec.time("execute.decode", id, |_| decode_all(f, threads));
            let t3 = Instant::now();
            rec.time("execute.unpermute", id, |_| match perm {
                Some(perm) => {
                    for (old, &p) in perm.iter().enumerate() {
                        out.row_mut(old).copy_from_slice(staged.row(p as usize));
                    }
                }
                None => out.as_mut_slice().copy_from_slice(staged.as_slice()),
            });
            let t4 = Instant::now();
            for (phase, (s, e)) in t.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)]) {
                phase.push(secs(e - s));
            }
            if bits_hash(out.as_slice()) != expected {
                into.mismatches += 1;
            }
        }
        Ok(())
    })?;
    into.stage_b_s += median(&mut t[0]);
    into.windows_s += median(&mut t[1]);
    into.decode_s += median(&mut t[2]);
    into.unpermute_s += median(&mut t[3]);

    // Single-thread CSR baseline on the same inputs.
    let mut c = DenseMatrix::zeros(a.nrows(), n);
    let mut ref_t: Vec<f64> = (0..PHASE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            rec.time("csr_ref", None, |_| a.spmm_dense_into_seq(b, &mut c))
                .map_err(|e| e.to_string())?;
            Ok(secs(t0.elapsed()))
        })
        .collect::<Result<_, String>>()?;
    black_box(&c);
    into.csr_ref_s += median(&mut ref_t);

    // Work per multiply, computed from the format (not measured): MMA
    // flops over whole 8x8 tiles; bytes = A index + A values + B staged
    // (read + write) + B rows gathered per block + C window writes +
    // the unpermute copy (read + write).
    let (blocks, f32b) = (f.num_tc_blocks() as f64, 4.0);
    let (rows, cols, nn) = (f.nrows() as f64, f.ncols() as f64, n as f64);
    into.tc_blocks += f.num_tc_blocks();
    into.nnz += f.nnz();
    into.index_bytes += f.index_bytes();
    into.flops += 2.0 * (TILE * TILE) as f64 * blocks * nn;
    into.useful_flops += 2.0 * f.nnz() as f64 * nn;
    into.bytes += f.index_bytes() as f64
        + f.nnz() as f64 * f32b
        + 2.0 * cols * nn * f32b
        + blocks * TILE as f64 * nn * f32b
        + 3.0 * rows * nn * f32b;
    Ok(())
}

/// Decode every TC block once, split into one contiguous window span
/// per thread like the window loop.
fn decode_all(f: &BitTcf, threads: usize) {
    let windows = f.num_windows();
    let per = windows.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for lo in (0..windows).step_by(per) {
            s.spawn(move || {
                for w in lo..(lo + per).min(windows) {
                    for blk in f.window_blocks(w) {
                        black_box(f.decompress_block(blk));
                    }
                }
            });
        }
    });
}

/// Append the per-layer metrics formed from `l` and the span self times.
pub fn report(rec: &Recorder, l: &Layers, r: &mut crate::Report) {
    let st = rec.self_times();
    let busy = |name: &str| st.get(name).copied().unwrap_or(0.0);
    r.metric(
        "reorder.busy_s",
        busy("reorder"),
        "s",
        "span self time, sum",
        1,
    );
    r.metric(
        "format_build.busy_s",
        busy("format_build"),
        "s",
        "span self time, sum",
        1,
    );
    r.metric(
        "balance.busy_s",
        busy("balance"),
        "s",
        "span self time, sum",
        1,
    );
    r.metric(
        "compile.busy_s",
        busy("compile"),
        "s",
        "span self time, sum",
        1,
    );
    r.metric("format.tc_blocks", l.tc_blocks as f64, "count", "sum", 1);
    r.metric(
        "format.lane_fill",
        l.nnz as f64 / (64.0 * l.tc_blocks as f64),
        "ratio",
        "nnz / 64 blocks",
        1,
    );
    r.metric("format.index_bytes", l.index_bytes as f64, "B", "sum", 1);
    r.metric(
        "execute.stage_b_s",
        l.stage_b_s,
        "s",
        "median, summed",
        PHASE_REPS,
    );
    r.metric(
        "execute.windows_s",
        l.windows_s,
        "s",
        "median, summed",
        PHASE_REPS,
    );
    r.metric(
        "execute.decode_s",
        l.decode_s,
        "s",
        "median, summed",
        PHASE_REPS,
    );
    r.metric(
        "execute.mma_s",
        l.windows_s - l.decode_s,
        "s",
        "derived: windows - decode",
        PHASE_REPS,
    );
    r.metric(
        "execute.unpermute_s",
        l.unpermute_s,
        "s",
        "median, summed",
        PHASE_REPS,
    );
    r.metric(
        "kernel.flops",
        l.flops,
        "flop",
        "computed per multiply, sum",
        1,
    );
    r.metric(
        "kernel.bytes_computed",
        l.bytes,
        "B",
        "computed per multiply, sum",
        1,
    );
    r.metric(
        "kernel.ops_per_byte",
        l.flops / l.bytes,
        "flop/B",
        "computed",
        1,
    );
    r.metric(
        "csr_ref.gflops",
        l.useful_flops / l.csr_ref_s / 1e9,
        "GFLOP/s",
        "2 nnz N / median, 1 thread",
        PHASE_REPS,
    );
    println!(
        "layers: threads={} stage_sum={:.4} s build_wall={:.4} s",
        rayon::current_num_threads(),
        l.stage_sum_s,
        l.build_s
    );
}

/// Report the tracing overhead of the measured loop (time spent
/// recording spans over the time the loop would have taken without
/// them) and export the spans.
pub fn finish(
    rec: &Recorder,
    run_s: f64,
    run_cost_s: f64,
    args: &crate::Args,
    r: &mut crate::Report,
) -> Result<(), String> {
    r.metric(
        "trace.overhead",
        run_cost_s / (run_s - run_cost_s),
        "ratio",
        "recording time / untraced loop time",
        1,
    );
    let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
    rec.export(std::path::Path::new(&path), &args.workload, args.seed)
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans: {path}");
    Ok(())
}
