//! Reusable per-call scratch for the TC SpMM paths.
//!
//! Every window iteration of the block formats needs an 8×N accumulator
//! tile. Allocating it per call (let alone per window) dominates small
//! multiplies, so the zero-allocation entry points
//! ([`crate::BitTcf::spmm_into`] and friends) borrow it from a
//! caller-owned `TileScratch` that grows monotonically and is reused
//! across calls — the CPU analogue of the GPU kernel's persistent
//! shared-memory tiles.
//!
//! [`BStage`] is the second half of the pre-rounded operand scheme: one
//! TF32-rounded copy of the dense operand, refreshed once per multiply.
//! The executors read its rows *in place* (BitTCF's row walk, ME-TCF's
//! tile MMA), so the inner loop stays a pure mul-add and nothing is
//! gathered. A batch is staged as one wide operand
//! ([`BStage::stage_batch_tier`]), so batched execution is single-RHS
//! execution over the concatenated columns.

use crate::window::TILE;
use spmm_common::simd::{to_tf32_slice_into_tier, IsaTier};
use spmm_matrix::DenseMatrix;

/// A TF32-rounded staging copy of a dense operand.
///
/// `stage` rounds the whole matrix once (idempotent, so bit-identical to
/// rounding at every use); the buffer grows monotonically and is reused
/// across multiplies. Windows read it concurrently through shared
/// references, matching the read-only B slab in GPU global memory.
#[derive(Debug, Clone, Default)]
pub struct BStage {
    data: Vec<f32>,
    nrows: usize,
    ncols: usize,
}

impl BStage {
    /// An empty stage; the buffer is grown on first use.
    pub fn new() -> Self {
        BStage::default()
    }

    /// Pre-size the backing buffer for an `nrows × ncols` operand.
    pub fn reserve(&mut self, nrows: usize, ncols: usize) {
        let want = nrows * ncols;
        if self.data.len() < want {
            self.data.resize(want, 0.0);
        }
    }

    /// Round `b` into the stage (growing the buffer if needed) at the
    /// process-default ISA tier.
    pub fn stage(&mut self, b: &DenseMatrix) {
        self.stage_tier(b, IsaTier::probe());
    }

    /// [`BStage::stage`] at an explicit ISA tier (plan-resolved; every
    /// tier rounds bit-identically, so the choice is pure speed).
    pub fn stage_tier(&mut self, b: &DenseMatrix, tier: IsaTier) {
        let want = b.nrows() * b.ncols();
        self.data.resize(want.max(self.data.len()), 0.0);
        to_tf32_slice_into_tier(b.as_slice(), &mut self.data[..want], tier);
        self.nrows = b.nrows();
        self.ncols = b.ncols();
    }

    /// Round a batch of operands (all with the same row count) into one
    /// stage with their columns side by side: row `r` is
    /// `[bs[0] row r | bs[1] row r | …]`. A batch then executes as one
    /// wide RHS whose C rows hold every RHS's row in the same layout,
    /// and each lane's arithmetic is exactly that of its own RHS.
    pub fn stage_batch_tier(&mut self, bs: &[DenseMatrix], tier: IsaTier) {
        let nrows = bs.first().map_or(0, |b| b.nrows());
        assert!(
            bs.iter().all(|b| b.nrows() == nrows),
            "batch row counts differ"
        );
        let ncols: usize = bs.iter().map(|b| b.ncols()).sum();
        let want = nrows * ncols;
        self.data.resize(want.max(self.data.len()), 0.0);
        for (r, dst) in self.data[..want].chunks_exact_mut(ncols.max(1)).enumerate() {
            let mut off = 0;
            for b in bs {
                let n = b.ncols();
                to_tf32_slice_into_tier(b.row(r), &mut dst[off..off + n], tier);
                off += n;
            }
        }
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Rows of the staged operand.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the staged operand.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The staged (pre-rounded) operand, row-major, `nrows × ncols`.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.nrows * self.ncols]
    }

    /// Row `r` of the staged (pre-rounded) operand.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Bytes of backing storage currently retained by the stage (the
    /// quantity a paged workspace allocator meters).
    pub fn footprint_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

/// Caller-owned tile buffers for the sequential SpMM paths.
#[derive(Debug, Clone, Default)]
pub struct TileScratch {
    ctile: Vec<f32>,
    bstage: BStage,
}

impl TileScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        TileScratch::default()
    }

    /// A scratch pre-sized for dense operands with `n` columns.
    pub fn with_feature_dim(n: usize) -> Self {
        let mut s = TileScratch::new();
        s.ensure(n);
        s
    }

    /// Grow (never shrink) the accumulator tile to hold `TILE × n`
    /// floats and hand it out untouched (callers reset it per window).
    pub fn ensure(&mut self, n: usize) -> &mut [f32] {
        let want = TILE * n;
        if self.ctile.len() < want {
            self.ctile.resize(want, 0.0);
        }
        &mut self.ctile[..want]
    }

    /// Round `b` into this scratch's owned [`BStage`] and hand it back.
    pub fn stage_b(&mut self, b: &DenseMatrix) -> &BStage {
        self.bstage.stage(b);
        &self.bstage
    }

    /// [`TileScratch::stage_b`] at an explicit ISA tier.
    pub fn stage_b_tier(&mut self, b: &DenseMatrix, tier: IsaTier) -> &BStage {
        self.bstage.stage_tier(b, tier);
        &self.bstage
    }

    /// Round a batch into the owned [`BStage`] with the operands' columns
    /// side by side ([`BStage::stage_batch_tier`]) and hand it back.
    pub fn stage_batch_b_tier(&mut self, bs: &[DenseMatrix], tier: IsaTier) -> &BStage {
        self.bstage.stage_batch_tier(bs, tier);
        &self.bstage
    }

    /// Pre-size the owned [`BStage`] (avoids the first-call growth for
    /// callers that know the operand shape up front).
    pub fn reserve_stage(&mut self, nrows: usize, ncols: usize) {
        self.bstage.reserve(nrows, ncols);
    }

    /// Split-borrow the staged operand together with the accumulator
    /// tile: the sequential SpMM paths read B rows straight from the
    /// stage while accumulating in `ctile`, so both must be live at
    /// once. The stage must have been filled by [`TileScratch::stage_b`]
    /// (or [`TileScratch::stage_batch_b_tier`]) for the current operand.
    pub fn staged_parts(&mut self, n: usize) -> (&BStage, &mut [f32]) {
        self.ensure(n);
        (&self.bstage, &mut self.ctile[..TILE * n])
    }

    /// Current tile capacity in floats.
    pub fn capacity(&self) -> usize {
        self.ctile.len()
    }

    /// Bytes of backing storage currently retained by the tile and the
    /// owned [`BStage`].
    pub fn footprint_bytes(&self) -> usize {
        self.ctile.capacity() * std::mem::size_of::<f32>() + self.bstage.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_common::scalar::to_tf32;

    #[test]
    fn ensure_grows_monotonically() {
        let mut s = TileScratch::new();
        assert_eq!(s.capacity(), 0);
        assert_eq!(s.ensure(16).len(), TILE * 16);
        s.ensure(4);
        assert_eq!(s.capacity(), TILE * 16, "never shrinks");
        s.ensure(32);
        assert_eq!(s.capacity(), TILE * 32);
    }

    #[test]
    fn with_feature_dim_presizes() {
        let s = TileScratch::with_feature_dim(8);
        assert_eq!(s.capacity(), TILE * 8);
    }

    #[test]
    fn stage_rounds_every_element() {
        let b = DenseMatrix::from_fn(5, 3, |r, c| 1.2345678 + r as f32 * 0.1 + c as f32);
        let mut stage = BStage::new();
        stage.stage(&b);
        assert_eq!(stage.nrows(), 5);
        assert_eq!(stage.ncols(), 3);
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(stage.row(r)[c].to_bits(), to_tf32(b.get(r, c)).to_bits());
            }
        }
    }

    #[test]
    fn stage_reuse_across_shapes_is_exact() {
        let mut stage = BStage::new();
        let big = DenseMatrix::random(16, 8, 1);
        stage.stage(&big);
        // Restaging a smaller matrix must not read stale tail data.
        let small = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32 + 0.5);
        stage.stage(&small);
        assert_eq!(stage.nrows(), 2);
        assert_eq!(stage.ncols(), 2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    stage.row(r)[c].to_bits(),
                    to_tf32(small.get(r, c)).to_bits()
                );
            }
        }
    }

    #[test]
    fn scratch_staged_parts_returns_filled_stage() {
        let mut s = TileScratch::new();
        let b = DenseMatrix::random(8, 4, 2);
        s.stage_b(&b);
        let (stage, ctile) = s.staged_parts(4);
        assert_eq!(stage.nrows(), 8);
        assert_eq!(ctile.len(), TILE * 4);
    }
}
