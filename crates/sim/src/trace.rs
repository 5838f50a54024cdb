//! Kernel work traces — the interface between sparse kernels and the
//! simulator.

use crate::cache::CacheOp;
use crate::pipeline::PipelineKind;

/// One unit of compute work (a TC block for tensor-core kernels, a
/// row/nnz chunk for CUDA-core kernels) with its memory footprint.
#[derive(Debug, Clone, Default)]
pub struct BlockTrace {
    /// Rows of the dense B gathered by this block (original column
    /// indices of the sparse operand). Repetitions allowed — CUDA-core
    /// kernels gather one row per nnz.
    pub b_rows: Vec<u32>,
    /// Sparse-operand bytes streamed for this block (values + format
    /// metadata).
    pub a_bytes: u32,
    /// FLOPs *executed* by this block (dense 2·8·8·N for a TC block,
    /// 2·nnz·N for a scalar chunk).
    pub flops: u64,
    /// Decompression / index-decode operations (popcounts, scatters).
    pub decode_ops: u32,
}

/// The work of one thread block.
#[derive(Debug, Clone, Default)]
pub struct TbTrace {
    /// Compute blocks, in issue order.
    pub blocks: Vec<BlockTrace>,
    /// Dense C rows this TB writes.
    pub c_rows: u32,
    /// Distinct RowWindow segments (with load balancing a TB may span
    /// several windows; each adds a write-back transaction).
    pub segments: u32,
}

/// Cache operators used for the three operand streams (§3.4 / Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Operator for sparse-A (tiles + metadata) loads.
    pub a_op: CacheOp,
    /// Operator for dense-B loads.
    pub b_op: CacheOp,
    /// Operator for C stores.
    pub c_op: CacheOp,
}

impl CachePolicy {
    /// Hardware default: everything `.ca`, stores `.wb` (write-allocate
    /// into L2) — what kernels get without explicit PTX control.
    pub fn hardware_default() -> Self {
        CachePolicy {
            a_op: CacheOp::Ca,
            b_op: CacheOp::Ca,
            c_op: CacheOp::Wb,
        }
    }

    /// The paper's policy: A and B cached at all levels (`.ca`), C
    /// written through L2 without allocation (`.wt`) since it is never
    /// re-read.
    pub fn acc_policy() -> Self {
        CachePolicy {
            a_op: CacheOp::Ca,
            b_op: CacheOp::Ca,
            c_op: CacheOp::Wt,
        }
    }
}

/// A complete kernel execution description.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Thread blocks in launch order.
    pub tbs: Vec<TbTrace>,
    /// Pipeline structure the kernel implements.
    pub pipeline: PipelineKind,
    /// Cache operators.
    pub policy: CachePolicy,
    /// Achieved fraction of peak DRAM bandwidth (measured property of
    /// real implementations: coalescing quality, access granularity).
    pub mem_efficiency: f64,
    /// Tensor cores (true) or CUDA cores (false) execute the FLOPs.
    pub use_tensor_cores: bool,
    /// Columns of the dense operand (feature dimension N).
    pub feature_dim: usize,
    /// *Effective* (sparse) FLOPs: `2 · nnz · N`, the numerator of every
    /// GFLOPS figure in the paper.
    pub effective_flops: u64,
    /// Extra per-kernel throughput multiplier for the baseline library
    /// model (cuSPARSE's architecture-specific tuning; 1.0 otherwise).
    pub arch_boost: f64,
}

impl KernelDesc {
    /// Bytes of one dense-B (or C) row.
    pub fn row_bytes(&self) -> usize {
        self.feature_dim * 4
    }

    /// Total FLOPs executed (dense work, ≥ effective FLOPs).
    pub fn executed_flops(&self) -> u64 {
        self.tbs
            .iter()
            .flat_map(|tb| tb.blocks.iter())
            .map(|b| b.flops)
            .sum()
    }

    /// Total number of compute blocks.
    pub fn num_blocks(&self) -> usize {
        self.tbs.iter().map(|tb| tb.blocks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_differ_in_c_operator() {
        let hw = CachePolicy::hardware_default();
        let acc = CachePolicy::acc_policy();
        assert_eq!(hw.b_op, acc.b_op);
        assert_ne!(hw.c_op, acc.c_op);
        assert!(!acc.c_op.allocates_l2(), ".wt must not pollute L2");
        assert!(hw.c_op.allocates_l2());
    }

    #[test]
    fn desc_aggregates() {
        let desc = KernelDesc {
            tbs: vec![TbTrace {
                blocks: vec![
                    BlockTrace {
                        b_rows: vec![0, 1],
                        a_bytes: 64,
                        flops: 100,
                        decode_ops: 8,
                    },
                    BlockTrace {
                        flops: 50,
                        ..Default::default()
                    },
                ],
                c_rows: 8,
                segments: 1,
            }],
            pipeline: PipelineKind::AccLeastBubble,
            policy: CachePolicy::acc_policy(),
            mem_efficiency: 0.85,
            use_tensor_cores: true,
            feature_dim: 128,
            effective_flops: 120,
            arch_boost: 1.0,
        };
        assert_eq!(desc.executed_flops(), 150);
        assert_eq!(desc.num_blocks(), 2);
        assert_eq!(desc.row_bytes(), 512);
    }
}
