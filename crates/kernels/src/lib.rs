//! The six SpMM kernel strategies the paper evaluates.
//!
//! Every kernel has two faces:
//! * **functional** — [`PreparedKernel::execute`] computes the numeric
//!   result on the CPU with the same arithmetic the GPU kernel would use
//!   (FP32 FMA for CUDA-core kernels, TF32-operand MMA for tensor-core
//!   kernels), always returning C in *original* row order;
//! * **timing** — [`PreparedKernel::trace`] returns the kernel's work
//!   compiled into a [`spmm_sim::KernelDesc`] and
//!   [`PreparedKernel::profile`] simulates it on a chosen architecture.
//!
//! Preprocessing runs through the staged pipeline in [`plan`]
//! (Reorder → FormatBuild); a kernel is one [`plan::StageSpec`]
//! configuration, and [`PreparedKernel`] is a thin execution wrapper
//! around the finished [`ExecutionPlan`]. The timing face — balance
//! schedule and simulator trace — is derived from the plan on first
//! use; no execution path reads it. The
//! [`Workspace`] buffer pool plus [`PreparedKernel::execute_into`] /
//! [`PreparedKernel::execute_batch`] serve the paper's
//! preprocess-once-multiply-many pattern without per-call allocation.
//!
//! | kernel | cores | format | reorder | pipeline | balancing |
//! |---|---|---|---|---|---|
//! | cuSPARSE-like | CUDA | CSR | — | occupancy | row-major |
//! | Sputnik-like | CUDA | CSR (1-D tiles) | — | occupancy | nnz-split |
//! | SparseTIR-like | CUDA | CSR (row buckets) | — | occupancy | bucket |
//! | TC-GNN | TC | TCF | SGT (identity) | synchronous | per-window |
//! | DTC-SpMM | TC | ME-TCF | DTC-LSH | Fig 5a double buffer | DTC split |
//! | Acc-SpMM | TC | BitTCF | data-affinity | Fig 5b least-bubble | adaptive |

pub mod acc;
pub mod dispatch;
pub mod ir;
pub mod plan;
pub mod repair;
pub mod scalar;
pub mod tc;
pub mod workspace;

pub use acc::AccConfig;
pub use dispatch::{DispatchPolicy, MatrixFeatures, PolicyRule, RuleBounds, POLICY_SCHEMA_VERSION};
pub use ir::{acc_config_hash, PlanIr, PlanLoader, PLAN_IR_VERSION};
pub use plan::{ExecutionPlan, FormatChoice, PlanContext, PlanStage, StageSpec, StageTiming};
pub use repair::{build_then_repair, RepairReport};
pub use workspace::{Workspace, WorkspacePool};

use crate::workspace::ensure_staging;
use spmm_balance::BalancePlan;
use spmm_common::{Result, SpmmError};
use spmm_format::{BitTcf, MeTcf, Tcf, TileScratch, WindowPartition};
use spmm_matrix::{CsrMatrix, DenseMatrix};
use spmm_sim::{Arch, KernelDesc, KernelReport, SimOptions};

/// The compared kernels, in paper legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// cuSPARSE CSR SpMM on CUDA cores (the baseline of every figure).
    CusparseLike,
    /// Sputnik's 1-D tiled SpMM on CUDA cores.
    SputnikLike,
    /// SparseTIR's composable row-bucket SpMM on CUDA cores.
    SparseTirLike,
    /// TC-GNN SpMM on tensor cores.
    TcGnn,
    /// DTC-SpMM on tensor cores.
    DtcSpmm,
    /// Acc-SpMM (this paper).
    AccSpmm,
    /// Feature-based choice: the committed autotuner policy picks one
    /// concrete kernel from the matrix's features (see [`dispatch`]).
    /// [`KernelKind::resolve`] turns it into that kernel before any
    /// plan exists, so no plan ever reports `Auto`. Not a seventh
    /// kernel, so it is deliberately absent from [`KernelKind::ALL`].
    Auto,
}

impl KernelKind {
    /// All *concrete* kernels, baseline first ([`KernelKind::Auto`]
    /// resolves to these and is not listed).
    pub const ALL: [KernelKind; 6] = [
        KernelKind::CusparseLike,
        KernelKind::SputnikLike,
        KernelKind::SparseTirLike,
        KernelKind::TcGnn,
        KernelKind::DtcSpmm,
        KernelKind::AccSpmm,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::CusparseLike => "cuSPARSE",
            KernelKind::SputnikLike => "Sputnik",
            KernelKind::SparseTirLike => "SparseTIR",
            KernelKind::TcGnn => "TCGNN",
            KernelKind::DtcSpmm => "DTC-SpMM",
            KernelKind::AccSpmm => "Acc-SpMM",
            KernelKind::Auto => "Auto",
        }
    }

    /// Does this kernel run on tensor cores? Asked of resolved kinds
    /// only: `Auto` names no kernel until [`KernelKind::resolve`] runs.
    pub fn uses_tensor_cores(&self) -> bool {
        matches!(
            self,
            KernelKind::TcGnn | KernelKind::DtcSpmm | KernelKind::AccSpmm
        )
    }
}

/// Format data held by a prepared TC kernel.
#[derive(Debug, Clone)]
pub enum TcFormat {
    /// TC-GNN's per-edge format.
    Tcf(Tcf),
    /// DTC-SpMM's per-nnz-id format.
    MeTcf(MeTcf),
    /// The paper's bitmap format.
    BitTcf(BitTcf),
}

impl TcFormat {
    /// Index-structure footprint in bytes of the held format.
    pub fn index_bytes(&self) -> usize {
        match self {
            TcFormat::Tcf(f) => f.index_bytes(),
            TcFormat::MeTcf(f) => f.index_bytes(),
            TcFormat::BitTcf(f) => f.index_bytes(),
        }
    }
}

/// A kernel after preprocessing — a thin execution wrapper around the
/// staged [`ExecutionPlan`], ready to execute or profile any number of
/// times (the amortized-preprocessing pattern the paper evaluates).
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    plan: ExecutionPlan,
}

/// Builder for [`PreparedKernel`] — the single construction path.
///
/// Defaults: [`Arch::A800`], feature dimension 128, [`AccConfig::full`].
///
/// ```
/// use spmm_kernels::{KernelKind, PreparedKernel};
/// use spmm_matrix::gen;
///
/// let a = gen::uniform_random(128, 4.0, 1);
/// let k = PreparedKernel::builder(KernelKind::AccSpmm, &a)
///     .feature_dim(32)
///     .build()
///     .unwrap();
/// assert_eq!(k.feature_dim(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder<'a> {
    kind: KernelKind,
    a: &'a CsrMatrix,
    arch: Arch,
    feature_dim: usize,
    config: AccConfig,
}

impl<'a> KernelBuilder<'a> {
    /// Target architecture (the balance model needs its bandwidth/FLOPS).
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Feature dimension (columns of B) the plan is specialized for.
    pub fn feature_dim(mut self, n: usize) -> Self {
        self.feature_dim = n;
        self
    }

    /// Explicit (e.g. ablation) configuration — only meaningful for
    /// [`KernelKind::AccSpmm`].
    pub fn config(mut self, config: AccConfig) -> Self {
        self.config = config;
        self
    }

    /// Run the staged preprocessing pipeline. Failures surface as
    /// [`SpmmError::Build`] tagged with the kernel's display name.
    pub fn build(self) -> Result<PreparedKernel> {
        let plan =
            ExecutionPlan::build(self.kind, self.a, self.arch, self.feature_dim, self.config)
                .map_err(|e| match e {
                    e @ SpmmError::Build { .. } => e,
                    other => SpmmError::build(self.kind.name(), other),
                })?;
        Ok(PreparedKernel { plan })
    }
}

impl PreparedKernel {
    /// Start building a prepared kernel for `kind` over operand `m`.
    pub fn builder(kind: KernelKind, m: &CsrMatrix) -> KernelBuilder<'_> {
        KernelBuilder {
            kind,
            a: m,
            arch: Arch::A800,
            feature_dim: 128,
            config: AccConfig::full(),
        }
    }

    /// Wrap an already-built plan.
    pub fn from_plan(plan: ExecutionPlan) -> Self {
        PreparedKernel { plan }
    }

    /// The underlying execution plan with every preprocessing artifact.
    pub fn execution_plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Kernel identity.
    pub fn kind(&self) -> KernelKind {
        self.plan.kind()
    }

    /// The (possibly permuted) sparse operand.
    pub fn csr(&self) -> &CsrMatrix {
        self.plan.csr()
    }

    /// The balance plan (TC kernels only).
    pub fn plan(&self) -> Option<&BalancePlan> {
        self.plan.balance()
    }

    /// The shared window partition (TC kernels only).
    pub fn partition(&self) -> Option<&WindowPartition> {
        self.plan.partition()
    }

    /// The compressed format (TC kernels only).
    pub fn format(&self) -> Option<&TcFormat> {
        self.plan.format()
    }

    /// Row permutation applied during preprocessing, if any.
    pub fn perm(&self) -> Option<&[u32]> {
        self.plan.perm()
    }

    /// The feature dimension this kernel was prepared for.
    pub fn feature_dim(&self) -> usize {
        self.plan.feature_dim()
    }

    /// Functional SpMM: `C = A × B` in original row order.
    pub fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.csr().nrows(), b.ncols());
        let mut ws = Workspace::new();
        self.execute_into_impl(b, &mut out, &mut ws, true)?;
        Ok(out)
    }

    /// [`PreparedKernel::execute`] writing into a caller-provided output
    /// with reusable buffers: after the first call everything (staging
    /// matrices, tile scratch) comes from `ws`, so steady-state
    /// multiplies allocate nothing beyond the per-worker tiles of the
    /// window-parallel loop.
    pub fn execute_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<()> {
        self.execute_into_impl(b, out, ws, true)
    }

    /// Execute many RHS matrices over the shared plan into fresh
    /// outputs: [`PreparedKernel::execute_batch_into`] with a fresh
    /// [`Workspace`]. Results are bit-identical to calling
    /// [`PreparedKernel::execute`] per matrix.
    pub fn execute_batch(&self, bs: &[DenseMatrix]) -> Result<Vec<DenseMatrix>> {
        let _span = spmm_trace::span("kernel.execute_batch");
        let mut outs: Vec<DenseMatrix> = bs
            .iter()
            .map(|b| DenseMatrix::zeros(self.csr().nrows(), b.ncols()))
            .collect();
        self.execute_batch_into(bs, &mut outs, &mut Workspace::new())?;
        Ok(outs)
    }

    /// Execute every RHS in `bs` into the matching slot of `outs`,
    /// reusing caller-owned buffers (the serving engine's micro-batching
    /// workers call this). The batch is split into one contiguous group
    /// per thread (a single spawn round; a batch of one runs on the
    /// calling thread), each group with its own [`Workspace`]: `ws`
    /// for the first, workspaces `ws` keeps for the rest. On the
    /// compressed TC formats a group stages its RHS side by side and
    /// runs them as one wide RHS, so each window is walked once per
    /// group. Every output lane sees exactly the arithmetic of its own
    /// RHS, so results are bit-identical to calling
    /// [`PreparedKernel::execute`] per RHS.
    pub fn execute_batch_into(
        &self,
        bs: &[DenseMatrix],
        outs: &mut [DenseMatrix],
        ws: &mut Workspace,
    ) -> Result<()> {
        use rayon::prelude::*;
        if bs.len() != outs.len() {
            return Err(SpmmError::shape(format!(
                "batch has {} inputs but {} outputs",
                bs.len(),
                outs.len()
            )));
        }
        let (a_rows, a_cols) = (self.csr().nrows(), self.csr().ncols());
        for (b, out) in bs.iter().zip(outs.iter()) {
            if b.nrows() != a_cols || out.nrows() != a_rows || out.ncols() != b.ncols() {
                return Err(SpmmError::shape(format!(
                    "A is {a_rows}x{a_cols}, B is {}x{}, C is {}x{}",
                    b.nrows(),
                    b.ncols(),
                    out.nrows(),
                    out.ncols()
                )));
            }
        }
        if bs.is_empty() {
            return Ok(());
        }
        spmm_trace::counter_add("kernel.batch_rhs", bs.len() as u64);
        let group = bs.len().div_ceil(rayon::current_num_threads()).max(1);
        if group == bs.len() {
            return self.execute_group(bs, outs, ws);
        }
        let mut peers = std::mem::take(&mut ws.peers);
        let groups = bs.len().div_ceil(group);
        if peers.len() < groups - 1 {
            peers.resize_with(groups - 1, Workspace::new);
        }
        let mut jobs: Vec<(&mut [DenseMatrix], &mut Workspace)> = outs
            .chunks_mut(group)
            .zip(std::iter::once(&mut *ws).chain(peers.iter_mut()))
            .collect();
        // Keep the *first* failure (lowest group index) — groups finish
        // in arbitrary order, and a last-writer-wins slot would surface
        // a different error on every run. Every failed group is counted
        // so multi-failure batches stay observable in traces.
        let failure: std::sync::Mutex<Option<(usize, SpmmError)>> = std::sync::Mutex::new(None);
        let failed_groups = std::sync::atomic::AtomicU64::new(0);
        jobs.par_chunks_mut(1).enumerate().for_each(|(g, job)| {
            let (out_group, gws) = &mut job[0];
            let b_group = &bs[g * group..g * group + out_group.len()];
            if let Err(e) = self.execute_group(b_group, out_group, gws) {
                failed_groups.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut slot = failure.lock().unwrap();
                if slot.as_ref().is_none_or(|(held, _)| g < *held) {
                    *slot = Some((g, e));
                }
            }
        });
        drop(jobs);
        ws.peers = peers;
        let failed = failed_groups.into_inner();
        if failed > 0 {
            spmm_trace::counter_add("kernel.batch_group_failures", failed);
        }
        match failure.into_inner().unwrap() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Run one worker's contiguous slice of the batch.
    fn execute_group(
        &self,
        bs: &[DenseMatrix],
        outs: &mut [DenseMatrix],
        ws: &mut Workspace,
    ) -> Result<()> {
        // Worker-side span: one per batch group, recorded on the rayon
        // thread that ran it (the trace layer tags spans per thread).
        let _span = spmm_trace::span("kernel.execute_group");
        // Symmetric mode needs a permuted copy of every B alive at once,
        // which defeats the batched window loop — fall back to the
        // per-RHS path (still sharing this worker's staging buffers).
        let batched = !self.plan.symmetric()
            && matches!(
                self.plan.format(),
                Some(TcFormat::BitTcf(_)) | Some(TcFormat::MeTcf(_))
            );
        if !batched {
            for (b, out) in bs.iter().zip(outs.iter_mut()) {
                self.execute_into_impl(b, out, ws, false)?;
            }
            return Ok(());
        }
        let nrows = self.csr().nrows();
        let total_n: usize = bs.iter().map(|b| b.ncols()).sum();
        let tier = self.plan.isa_tier();
        // Round the whole batch once into one stage with the RHS columns
        // side by side and run it as a single wide RHS through the
        // format's one window executor: each window is walked once for
        // the whole batch, and ctile row i holds every RHS's row i in
        // turn.
        ws.tiles.stage_batch_b_tier(bs, tier);
        let (stage, ctile) = ws.tiles.staged_parts(total_n);
        // With a row reorder in effect, window w computes rows of the
        // *permuted* matrix; inverting the permutation lets each window
        // write its rows directly in original order, skipping the
        // staging matrix the single-RHS path uses.
        let inv: Option<Vec<u32>> = self.plan.perm().map(|perm| {
            let mut inv = vec![0u32; perm.len()];
            for (old, &p) in perm.iter().enumerate() {
                inv[p as usize] = old as u32;
            }
            inv
        });
        for w in 0..nrows.div_ceil(spmm_format::TILE) {
            ctile.fill(0.0);
            match self.plan.format() {
                Some(TcFormat::BitTcf(f)) => f.window_product(w, stage, ctile, tier),
                Some(TcFormat::MeTcf(f)) => f.window_product(w, stage, ctile, tier),
                _ => unreachable!("batched path is TC-only"),
            }
            let lo = w * spmm_format::TILE;
            let hi = ((w + 1) * spmm_format::TILE).min(nrows);
            for r in lo..hi {
                let dst = inv.as_ref().map_or(r, |inv| inv[r] as usize);
                let crow = &ctile[(r - lo) * total_n..(r - lo + 1) * total_n];
                let mut off = 0;
                for out in outs.iter_mut() {
                    let n = out.ncols();
                    out.row_mut(dst).copy_from_slice(&crow[off..off + n]);
                    off += n;
                }
            }
        }
        Ok(())
    }

    fn execute_into_impl(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
        parallel: bool,
    ) -> Result<()> {
        plan_execute_into(&self.plan, b, out, ws, parallel)
    }

    /// The kernel's work compiled into a simulator trace (derived from
    /// the plan on first use and cached on it; this clones it).
    pub fn trace(&self) -> KernelDesc {
        self.plan.compiled_trace().clone()
    }

    /// Simulate on the given architecture (the cuSPARSE-like kernel
    /// gets the architecture's CSR-library boost).
    pub fn profile(&self, arch: Arch, opts: &SimOptions) -> KernelReport {
        let cached = self.plan.compiled_trace();
        if self.kind() == KernelKind::CusparseLike {
            let mut desc = cached.clone();
            desc.arch_boost = arch.spec().cusparse_boost;
            return spmm_sim::profile(arch, &desc, opts);
        }
        spmm_sim::profile(arch, cached, opts)
    }
}

/// Execute one plan into `out` in original row order.
fn plan_execute_into(
    plan: &ExecutionPlan,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    ws: &mut Workspace,
    parallel: bool,
) -> Result<()> {
    let _span = spmm_trace::span("kernel.execute");
    spmm_trace::counter_add("kernel.multiplies", 1);
    let Workspace {
        tiles,
        staging_b,
        staging_c,
        ..
    } = ws;
    // Symmetric-reorder mode multiplies (P A Pᵀ)(P B) = P (A B): the
    // dense operand is row-permuted on the way in, and the usual
    // scatter below restores original row order on the way out.
    let b_eff: &DenseMatrix = match (plan.perm(), plan.symmetric()) {
        (Some(perm), true) => {
            let staged = ensure_staging(staging_b, b.nrows(), b.ncols());
            b.permute_rows_into(perm, staged)?;
            staged
        }
        _ => b,
    };
    match plan.perm() {
        None => spmm_dispatch(plan, b_eff, out, tiles, parallel),
        Some(perm) => {
            if out.nrows() != plan.csr().nrows() || out.ncols() != b.ncols() {
                return Err(SpmmError::Shape {
                    context: format!(
                        "output is {}x{}, expected {}x{}",
                        out.nrows(),
                        out.ncols(),
                        plan.csr().nrows(),
                        b.ncols()
                    ),
                });
            }
            let staged = ensure_staging(staging_c, plan.csr().nrows(), b.ncols());
            spmm_dispatch(plan, b_eff, staged, tiles, parallel)?;
            // Scatter back: C_orig[old] = C_perm[perm[old]].
            for (old, &p) in perm.iter().enumerate() {
                out.row_mut(old).copy_from_slice(staged.row(p as usize));
            }
            Ok(())
        }
    }
}

/// Run the plan's format SpMM into `c`, choosing the window-parallel or
/// window-sequential (zero-allocation) inner loop.
fn spmm_dispatch(
    plan: &ExecutionPlan,
    b: &DenseMatrix,
    c: &mut DenseMatrix,
    tiles: &mut TileScratch,
    parallel: bool,
) -> Result<()> {
    match (plan.format(), parallel) {
        // TC formats consume a TF32 pre-rounded B stage owned by the
        // workspace scratch, so repeated multiplies re-round B into
        // the same buffer instead of allocating (and the rounding
        // happens once per multiply, not once per gathered element).
        // The plan's compile-time SIMD tier drives both the staging
        // round and the MMA cores (bit-identical across tiers).
        (Some(TcFormat::Tcf(f)), _) => {
            f.spmm_into_staged_tier(tiles.stage_b_tier(b, plan.isa_tier()), c, plan.isa_tier())
        }
        (Some(TcFormat::MeTcf(f)), true) => {
            f.spmm_into_staged_tier(tiles.stage_b_tier(b, plan.isa_tier()), c, plan.isa_tier())
        }
        (Some(TcFormat::MeTcf(f)), false) => f.spmm_into_seq_tier(b, c, tiles, plan.isa_tier()),
        (Some(TcFormat::BitTcf(f)), true) => {
            f.spmm_into_staged_tier(tiles.stage_b_tier(b, plan.isa_tier()), c, plan.isa_tier())
        }
        (Some(TcFormat::BitTcf(f)), false) => f.spmm_into_seq_tier(b, c, tiles, plan.isa_tier()),
        // CUDA-core kernels are FP32 FMA — no operand rounding.
        (None, true) => plan.csr().spmm_dense_into(b, c),
        (None, false) => plan.csr().spmm_dense_into_seq(b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::tf32_tolerance;
    use spmm_matrix::gen::{clustered, molecule_union, ClusteredConfig};

    fn workload() -> (CsrMatrix, DenseMatrix) {
        let m = molecule_union(512, 6, 16, true, 3);
        let n = m.nrows();
        (m, DenseMatrix::random(n, 32, 7))
    }

    #[test]
    fn every_kernel_matches_the_dense_reference() {
        let (m, b) = workload();
        let reference = m.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(m.nrows());
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(b.ncols())
                .build()
                .unwrap();
            let c = k.execute(&b).unwrap();
            assert!(
                c.approx_eq(&reference, tol, tol),
                "{} diverges: max diff {}",
                kind.name(),
                c.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn execute_into_reuses_workspace_and_matches_execute() {
        let (m, b) = workload();
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(b.ncols())
                .build()
                .unwrap();
            let expect = k.execute(&b).unwrap();
            let mut ws = Workspace::for_plan(k.execution_plan());
            let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
            k.execute_into(&b, &mut out, &mut ws).unwrap();
            assert_eq!(out, expect, "{} execute_into differs", kind.name());
            // Second call with the (dirty) workspace and output is exact.
            k.execute_into(&b, &mut out, &mut ws).unwrap();
            assert_eq!(out, expect, "{} workspace reuse differs", kind.name());
        }
    }

    #[test]
    fn execute_batch_is_bit_identical_to_looped_execute() {
        let (m, _) = workload();
        let bs: Vec<DenseMatrix> = (0..9)
            .map(|i| DenseMatrix::random(m.nrows(), 24, 100 + i))
            .collect();
        for kind in [
            KernelKind::AccSpmm,
            KernelKind::DtcSpmm,
            KernelKind::CusparseLike,
        ] {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(24)
                .build()
                .unwrap();
            let batched = k.execute_batch(&bs).unwrap();
            assert_eq!(batched.len(), bs.len());
            for (i, b) in bs.iter().enumerate() {
                let single = k.execute(b).unwrap();
                assert_eq!(batched[i], single, "{} RHS {i} differs", kind.name());
            }
        }
        // Empty batch is fine.
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(24)
            .build()
            .unwrap();
        assert!(k.execute_batch(&[]).unwrap().is_empty());
    }

    /// One workspace serves batches of every size: the split into
    /// per-thread groups grows (and later reuses) its peer workspaces,
    /// and a batch of one stays on the caller's workspace.
    #[test]
    fn execute_batch_into_reuses_one_workspace_across_batch_sizes() {
        let (m, _) = workload();
        let bs: Vec<DenseMatrix> = (0..7)
            .map(|i| DenseMatrix::random(m.nrows(), 5 + 9 * (i as usize % 3), 300 + i))
            .collect();
        for kind in [KernelKind::AccSpmm, KernelKind::DtcSpmm] {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(16)
                .build()
                .unwrap();
            let mut ws = Workspace::new();
            for len in [5, 1, 7, 2, 7] {
                let batch = &bs[..len];
                let mut outs: Vec<DenseMatrix> = batch
                    .iter()
                    .map(|b| DenseMatrix::zeros(m.nrows(), b.ncols()))
                    .collect();
                k.execute_batch_into(batch, &mut outs, &mut ws).unwrap();
                for (i, (b, out)) in batch.iter().zip(&outs).enumerate() {
                    let want = k.execute(b).unwrap();
                    assert_eq!(*out, want, "{} batch {len} RHS {i}", kind.name());
                }
            }
        }
    }

    #[test]
    fn plan_artifacts_are_exposed() {
        let (m, _) = workload();
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(32)
            .build()
            .unwrap();
        let wp = k.partition().expect("partition artifact retained");
        assert_eq!(wp.num_windows(), m.nrows().div_ceil(8));
        assert!(k.perm().is_some(), "affinity reorder ran");
        assert!(matches!(k.format(), Some(TcFormat::BitTcf(_))));
        assert_eq!(k.execution_plan().stage_timings().len(), 2);
        // CSR kernels carry no TC artifacts.
        let base = PreparedKernel::builder(KernelKind::CusparseLike, &m)
            .arch(Arch::A800)
            .feature_dim(32)
            .build()
            .unwrap();
        assert!(base.partition().is_none() && base.format().is_none() && base.perm().is_none());
    }

    #[test]
    fn traces_preserve_effective_flops() {
        let (m, _) = workload();
        let n = 32;
        let expect = 2 * m.nnz() as u64 * n as u64;
        for kind in KernelKind::ALL {
            let k = PreparedKernel::builder(kind, &m)
                .arch(Arch::A800)
                .feature_dim(n)
                .build()
                .unwrap();
            let desc = k.trace();
            assert_eq!(desc.effective_flops, expect, "{}", kind.name());
            assert!(
                desc.executed_flops() >= desc.effective_flops,
                "{} executes at least the effective work",
                kind.name()
            );
        }
    }

    #[test]
    fn tc_kernels_profile_faster_than_baseline_on_clusters() {
        // Dense-community matrix: TC kernels must beat cuSPARSE.
        let m = clustered(
            ClusteredConfig {
                n: 1024,
                cluster_size: 64,
                intra_deg: 24.0,
                inter_deg: 3.0,
                hub_fraction: 0.0,
                hub_factor: 1.0,
                shuffle: true,
                ..Default::default()
            },
            5,
        );
        let opts = SimOptions::default();
        let base = PreparedKernel::builder(KernelKind::CusparseLike, &m)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap()
            .profile(Arch::A800, &opts);
        let acc = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(128)
            .build()
            .unwrap()
            .profile(Arch::A800, &opts);
        assert!(
            acc.time_s < base.time_s,
            "Acc {} vs cuSPARSE {}",
            acc.time_s,
            base.time_s
        );
    }

    #[test]
    fn symmetric_reorder_mode_is_numerically_identical() {
        let (m, b) = workload();
        let reference = m.spmm_dense(&b).unwrap();
        let tol = tf32_tolerance(m.nrows());
        let mut cfg = AccConfig::full();
        cfg.symmetric_reorder = true;
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::A800)
            .feature_dim(b.ncols())
            .config(cfg)
            .build()
            .unwrap();
        let c = k.execute(&b).unwrap();
        assert!(
            c.approx_eq(&reference, tol, tol),
            "symmetric mode diverges: max diff {}",
            c.max_abs_diff(&reference)
        );
        // The zero-alloc and batched paths agree in symmetric mode too.
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(m.nrows(), b.ncols());
        k.execute_into(&b, &mut out, &mut ws).unwrap();
        assert_eq!(out, c);
        let batched = k.execute_batch(std::slice::from_ref(&b)).unwrap();
        assert_eq!(batched[0], c);
    }

    #[test]
    fn symmetric_reorder_improves_dense_locality() {
        // The §6 future-work claim: with columns relabeled alongside rows
        // (and B permuted to match), the B-gather stream becomes local.
        let m = clustered(
            ClusteredConfig {
                n: 1024,
                cluster_size: 128,
                intra_deg: 24.0,
                inter_deg: 3.0,
                hub_fraction: 0.0,
                hub_factor: 1.0,
                shuffle: true,
                ..Default::default()
            },
            8,
        );
        let opts = SimOptions::scaled(8.0);
        let run = |symmetric: bool| {
            let mut cfg = AccConfig::full();
            cfg.symmetric_reorder = symmetric;
            PreparedKernel::builder(KernelKind::AccSpmm, &m)
                .arch(Arch::A800)
                .feature_dim(128)
                .config(cfg)
                .build()
                .unwrap()
                .profile(Arch::A800, &opts)
        };
        let rows_only = run(false);
        let symmetric = run(true);
        assert!(
            symmetric.l1_hit_rate >= rows_only.l1_hit_rate,
            "symmetric {:.3} vs rows-only {:.3}",
            symmetric.l1_hit_rate,
            rows_only.l1_hit_rate
        );
        assert!(symmetric.time_s <= rows_only.time_s * 1.01);
    }

    #[test]
    fn invalid_feature_dim_rejected() {
        let (m, _) = workload();
        assert!(PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::H100)
            .feature_dim(0)
            .build()
            .is_err());
    }
}
