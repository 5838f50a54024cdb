//! A tour of the GPU simulator as a standalone substrate: build a
//! synthetic kernel trace by hand, compare the three tensor-core
//! pipelines on it, sweep architectures, and export a Chrome trace.
//!
//! Run with: `cargo run --release --example simulator_tour`

use spmm_sim::{
    simulate, simulate_traced, Arch, BlockTrace, CachePolicy, KernelDesc, PipelineKind, SimOptions,
    TbTrace,
};

/// A hand-built kernel: `tbs` thread blocks, each processing `blocks`
/// TC blocks that gather 8 B rows with a controllable reuse pattern.
fn synthetic_kernel(tbs: usize, blocks: usize, reuse_window: u32, n: usize) -> KernelDesc {
    let tb_list: Vec<TbTrace> = (0..tbs)
        .map(|t| TbTrace {
            blocks: (0..blocks)
                .map(|b| BlockTrace {
                    // Rows cycle within `reuse_window` distinct values:
                    // small window = hot working set, large = streaming.
                    b_rows: (0..8u32)
                        .map(|k| ((t * blocks + b) as u32 * 8 + k) % reuse_window)
                        .collect(),
                    a_bytes: 4 * 12 + 44, // ~12 nnz BitTCF block
                    flops: 2 * 64 * n as u64,
                    decode_ops: 64,
                })
                .collect(),
            c_rows: 8,
            segments: 1,
        })
        .collect();
    let effective = tb_list
        .iter()
        .flat_map(|t| t.blocks.iter())
        .map(|_| 2 * 12 * n as u64)
        .sum();
    KernelDesc {
        tbs: tb_list,
        pipeline: PipelineKind::AccLeastBubble,
        policy: CachePolicy::acc_policy(),
        mem_efficiency: 0.88,
        use_tensor_cores: true,
        feature_dim: n,
        effective_flops: effective,
        arch_boost: 1.0,
    }
}

fn main() {
    let opts = SimOptions::default();

    // 1. Pipelines on the same trace.
    println!("pipeline comparison (256 TBs x 32 blocks, streaming gathers):");
    let mut desc = synthetic_kernel(256, 32, 1 << 20, 128);
    for kind in [
        PipelineKind::TcgnnSync,
        PipelineKind::DtcDoubleBuffer,
        PipelineKind::AccLeastBubble,
    ] {
        desc.pipeline = kind;
        let r = simulate(&Arch::A800.spec(), &desc, &opts);
        println!(
            "  {:<16} {:>8.1} us   bubbles {:>5.1}% of busy",
            format!("{kind:?}"),
            r.time_s * 1e6,
            r.bubble_s / r.busy_s * 100.0
        );
    }

    // 2. Cache behaviour: shrink the gather working set.
    println!("\nworking-set sweep (Acc pipeline, A800):");
    for reuse in [1u32 << 20, 8192, 512, 64] {
        let d = synthetic_kernel(256, 32, reuse, 128);
        let r = simulate(&Arch::A800.spec(), &d, &opts);
        println!(
            "  reuse window {:>8} rows: L1 {:>5.1}%  L2 {:>5.1}%  {:>7.1} us",
            reuse,
            r.l1_hit_rate * 100.0,
            r.l2_hit_rate * 100.0,
            r.time_s * 1e6
        );
    }

    // 3. Architecture sweep.
    println!("\narchitecture sweep (same kernel):");
    let d = synthetic_kernel(512, 16, 1 << 14, 128);
    for arch in Arch::ALL {
        let r = simulate(&arch.spec(), &d, &opts);
        println!(
            "  {:<10} {:>8.1} us  {:>7.1} GB/s DRAM",
            arch.spec().name,
            r.time_s * 1e6,
            r.mem_throughput_gbps
        );
    }

    // 4. Chrome-trace export of an imbalanced schedule.
    let mut skewed = synthetic_kernel(200, 4, 1 << 20, 128);
    // Make one giant TB.
    let big = synthetic_kernel(1, 400, 1 << 20, 128).tbs.pop().unwrap();
    skewed.tbs.push(big);
    let (r, trace) = simulate_traced(&Arch::A800.spec(), &skewed, &opts);
    let path = std::env::temp_dir().join("acc_spmm_sim_trace.json");
    trace.save_chrome_trace(&path).expect("trace export");
    println!(
        "\nimbalanced kernel: makespan {:.1} us at {:.0}% SM utilization",
        r.time_s * 1e6,
        r.sm_utilization * 100.0
    );
    println!(
        "timeline written to {} — load it in chrome://tracing to see the straggler",
        path.display()
    );
}
