//! Incremental plan repair for dynamic graphs.
//!
//! A [`DeltaCsr`] overlay names exactly which rows of a plan's input
//! operand changed. Repair exploits the pipeline's locality instead of
//! re-running it: the reorder permutation is **reused** (row-partition
//! invariance makes the old ordering merely a packing-quality choice,
//! never a correctness one), every TILE-aligned RowWindow whose rows
//! are untouched keeps its format spans byte-for-byte, and only the
//! dirty windows are re-squeezed and re-converted. The GPU model is not
//! repaired: the repaired plan starts with empty model cells and
//! derives its balance schedule and simulator trace from its own format
//! on first use, like any fresh plan.
//!
//! The contract, enforced by tests: the repaired plan's execution
//! output is **bit-identical** (NaN-position-exact) to a from-scratch
//! [`ExecutionPlan::build`] on the compacted matrix, for all six
//! kernels.

use crate::acc::AccConfig;
use crate::plan::{ExecutionPlan, FormatChoice, PlanContext, StageTiming};
use crate::{KernelKind, TcFormat};
use spmm_common::{Result, SpmmError};
use spmm_delta::DeltaCsr;
use spmm_format::TILE;
use spmm_matrix::CsrMatrix;
use std::time::Instant;

/// What a repair did, for observability and for the perfsuite's
/// rebuild-vs-repair accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairReport {
    /// Rows of the original (pre-permutation) operand the delta touched.
    pub rows_touched: usize,
    /// Pending overlay operations the repair folded in.
    pub edges_applied: usize,
    /// RowWindows in the plan's partition (TC plans).
    pub windows_total: usize,
    /// RowWindows that were actually re-squeezed and re-converted.
    pub windows_rebuilt: usize,
    /// Wall time of the repair.
    pub repair_seconds: f64,
}

impl ExecutionPlan {
    /// Repair this plan against an edge-delta overlay whose base is the
    /// plan's input operand, returning the repaired plan and a report.
    ///
    /// The overlay's base must fingerprint-match the operand the plan
    /// was built from; a clean overlay returns a clone (a true no-op).
    /// The repaired plan's `input_fingerprint` is the compacted
    /// matrix's, so serving caches key it exactly like a fresh build.
    pub fn repair(&self, delta: &DeltaCsr) -> Result<(ExecutionPlan, RepairReport)> {
        let t0 = Instant::now();
        let ctx = self.context();
        let base_fp = delta.base().content_fingerprint();
        if base_fp != ctx.input_fingerprint {
            return Err(SpmmError::InvalidConfig(format!(
                "delta base fingerprint {base_fp:#018x} does not match the plan's input \
                 fingerprint {:#018x}; repair needs the overlay built on the plan's operand",
                ctx.input_fingerprint
            )));
        }
        let mut report = RepairReport {
            rows_touched: delta.num_touched_rows(),
            edges_applied: delta.num_pending(),
            windows_total: ctx
                .partition
                .as_ref()
                .map(|wp| wp.num_windows())
                .unwrap_or(0),
            ..RepairReport::default()
        };
        if delta.is_clean() {
            report.repair_seconds = t0.elapsed().as_secs_f64();
            return Ok((self.clone(), report));
        }
        let repaired = self.repair_plan(delta, &mut report)?;
        report.repair_seconds = t0.elapsed().as_secs_f64();
        spmm_trace::counter_add("plan.repairs", 1);
        spmm_trace::counter_add("plan.repair.windows_rebuilt", report.windows_rebuilt as u64);
        Ok((repaired, report))
    }

    /// Reuse the permutation, splice the format.
    fn repair_plan(&self, delta: &DeltaCsr, report: &mut RepairReport) -> Result<ExecutionPlan> {
        let mut ctx = self.context().clone();
        let compacted = delta.compact();
        ctx.input_fingerprint = compacted.content_fingerprint();

        let tf = Instant::now();
        if ctx.spec.format == FormatChoice::Csr {
            // CSR kernels carry no permutation, partition, or format:
            // swap the operand.
            ctx.csr = compacted;
        } else {
            self.splice_format(&mut ctx, compacted, delta, report)?;
        }
        ctx.timings = vec![
            StageTiming {
                stage: "reorder",
                seconds: 0.0,
            },
            StageTiming {
                stage: "format_build",
                seconds: tf.elapsed().as_secs_f64(),
            },
        ];
        Ok(ExecutionPlan::from_context(ctx))
    }

    /// TC plan: reapply the old permutation and rebuild only the dirty
    /// windows of the partition and format.
    fn splice_format(
        &self,
        ctx: &mut PlanContext,
        compacted: CsrMatrix,
        delta: &DeltaCsr,
        report: &mut RepairReport,
    ) -> Result<()> {
        // Reapply the OLD permutation to the compacted matrix:
        // reordering only affects block packing, never output bits, so
        // keeping it preserves bit-identity with a scratch build that
        // would choose a different (equally valid) ordering — the
        // comparison below is against a scratch build on the *permuted*
        // operand, and execution outputs match either way by
        // row-partition invariance.
        let permuted = match ctx.perm.as_ref() {
            Some(p) if ctx.spec.symmetric => compacted.permute_symmetric(p)?,
            Some(p) => compacted.permute_rows(p)?,
            None => compacted,
        };
        // Dirty windows in PERMUTED row space: a changed original row r
        // lands at perm[r] (symmetric relabeling moves an edge (r, c)
        // to (perm[r], perm[c]) — still only row perm[r]).
        let wp_old = self
            .partition()
            .expect("TC plans always retain their partition");
        let mut touched = vec![false; wp_old.num_windows()];
        for r in delta.touched_rows() {
            let pr = match ctx.perm.as_ref() {
                Some(p) => p[r] as usize,
                None => r,
            };
            touched[pr / TILE] = true;
        }
        report.windows_rebuilt = touched.iter().filter(|&&t| t).count();
        let wp_new = wp_old.rebuild(&permuted, &touched);
        let mut format = match self.format().expect("TC plans always hold a format") {
            TcFormat::Tcf(f) => TcFormat::Tcf(f.rebuild_windows(&permuted, &wp_new, &touched)),
            TcFormat::MeTcf(f) => TcFormat::MeTcf(f.rebuild_windows(&permuted, &wp_new, &touched)),
            TcFormat::BitTcf(f) => {
                TcFormat::BitTcf(f.rebuild_windows(&permuted, &wp_new, &touched))
            }
        };
        // Splicing mixes pre-rounded (untouched) and raw (rebuilt)
        // values; one idempotent pass re-unifies, bit-identical to
        // rounding a scratch build.
        match &mut format {
            TcFormat::Tcf(f) => f.preround_values_tier(ctx.isa_tier),
            TcFormat::MeTcf(f) => f.preround_values_tier(ctx.isa_tier),
            TcFormat::BitTcf(f) => f.preround_values_tier(ctx.isa_tier),
        }
        ctx.csr = permuted;
        ctx.partition = Some(wp_new);
        ctx.format = Some(format);
        Ok(())
    }
}

/// Convenience for callers that only hold the raw pieces: build a plan
/// and immediately repair it against a delta. Mostly useful in tests
/// and benchmarks comparing rebuild vs repair costs.
pub fn build_then_repair(
    kind: KernelKind,
    delta: &DeltaCsr,
    arch: spmm_sim::Arch,
    feature_dim: usize,
    config: AccConfig,
) -> Result<(ExecutionPlan, RepairReport)> {
    let plan = ExecutionPlan::build(kind, delta.base(), arch, feature_dim, config)?;
    plan.repair(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_matrix::gen::uniform_random;
    use spmm_matrix::DenseMatrix;
    use spmm_sim::Arch;

    /// Apply a deterministic churn script to `n`-row matrices: a few
    /// upserts (including non-finite payloads), an overwrite, and a
    /// delete of a real edge if one exists.
    fn churn(delta: &mut DeltaCsr, seed: u64) {
        let n = delta.nrows() as u32;
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        };
        let payloads = [1.5f32, -0.0, f32::NAN, f32::INFINITY, 1e-42];
        for (i, &v) in payloads.iter().enumerate() {
            let r = next(n);
            let c = next(n);
            delta.upsert(r, c, v).unwrap();
            if i == 2 {
                // An insert-then-delete that must net out entirely.
                let r2 = next(n);
                let c2 = next(n);
                if delta.get(r2 as usize, c2).is_none() {
                    delta.upsert(r2, c2, 7.0).unwrap();
                    delta.delete(r2, c2);
                }
            }
        }
        // Delete one existing base edge from a touched-free row.
        for r in 0..delta.nrows() {
            let (cols, _) = delta.base().row(r);
            if let Some(&c) = cols.first() {
                delta.delete(r as u32, c);
                break;
            }
        }
    }

    fn assert_outputs_bit_identical(a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "outputs diverge: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn repair_is_bit_identical_to_scratch_for_all_kernels() {
        let m = uniform_random(128, 6.0, 11);
        for (i, &kind) in KernelKind::ALL.iter().enumerate() {
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, 16, AccConfig::full()).unwrap();
            let mut delta = DeltaCsr::new(m.clone());
            churn(&mut delta, 0xACC + i as u64);
            let (repaired, rep) = plan.repair(&delta).unwrap();
            let compacted = delta.compact();
            assert_eq!(
                repaired.input_fingerprint(),
                compacted.content_fingerprint()
            );
            let scratch =
                ExecutionPlan::build(kind, &compacted, Arch::A800, 16, AccConfig::full()).unwrap();
            let b = DenseMatrix::random(128, 16, 5);
            let out_r = crate::PreparedKernel::from_plan(repaired)
                .execute(&b)
                .unwrap();
            let out_s = crate::PreparedKernel::from_plan(scratch)
                .execute(&b)
                .unwrap();
            assert_outputs_bit_identical(&out_r, &out_s);
            if plan.partition().is_some() {
                assert!(rep.windows_rebuilt > 0);
                assert!(
                    rep.windows_rebuilt < rep.windows_total,
                    "{kind:?}: small churn must leave most windows untouched \
                     ({}/{} rebuilt)",
                    rep.windows_rebuilt,
                    rep.windows_total
                );
            }
        }
    }

    /// `Vec<f32>` equality treats NaN ≠ NaN, so format comparisons go
    /// through the value bits.
    fn assert_bittcf_bits_eq(a: &spmm_format::BitTcf, b: &spmm_format::BitTcf) {
        assert_eq!(a.row_window_offset, b.row_window_offset);
        assert_eq!(a.tc_offset, b.tc_offset);
        assert_eq!(a.sparse_a_to_b, b.sparse_a_to_b);
        assert_eq!(a.tc_local_bit, b.tc_local_bit);
        assert_eq!(a.is_prerounded(), b.is_prerounded());
        assert_eq!(
            a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repaired_tc_artifacts_match_scratch_build_on_the_permuted_operand() {
        // Stronger than output bit-identity: with the old permutation
        // reapplied, the repaired partition/format must equal a
        // from-scratch pipeline run that skips reordering — checked via
        // a kernel whose reorder is Identity so scratch and repair see
        // the same row order.
        let m = uniform_random(160, 5.0, 23);
        let mut cfg = AccConfig::full();
        cfg.reorder = spmm_reorder::Algorithm::Identity;
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, cfg).unwrap();
        let mut delta = DeltaCsr::new(m.clone());
        churn(&mut delta, 42);
        let (repaired, _) = plan.repair(&delta).unwrap();
        let scratch =
            ExecutionPlan::build(KernelKind::AccSpmm, &delta.compact(), Arch::A800, 8, cfg)
                .unwrap();
        assert_eq!(repaired.partition(), scratch.partition());
        match (repaired.format().unwrap(), scratch.format().unwrap()) {
            (TcFormat::BitTcf(a), TcFormat::BitTcf(b)) => assert_bittcf_bits_eq(a, b),
            other => panic!("expected BitTcf on both sides, got {other:?}"),
        }
        assert_eq!(
            repaired.csr().content_fingerprint(),
            scratch.csr().content_fingerprint()
        );
    }

    #[test]
    fn clean_delta_repair_is_a_no_op() {
        let m = uniform_random(64, 4.0, 2);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let delta = DeltaCsr::new(m.clone());
        let (repaired, rep) = plan.repair(&delta).unwrap();
        assert_eq!(rep.windows_rebuilt, 0);
        assert_eq!(rep.edges_applied, 0);
        assert_eq!(repaired.input_fingerprint(), plan.input_fingerprint());
        let b = DenseMatrix::random(64, 8, 1);
        assert_outputs_bit_identical(
            &crate::PreparedKernel::from_plan(repaired)
                .execute(&b)
                .unwrap(),
            &crate::PreparedKernel::from_plan(plan).execute(&b).unwrap(),
        );
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let m = uniform_random(64, 4.0, 2);
        let other = uniform_random(64, 4.0, 3);
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, AccConfig::full())
            .unwrap();
        let delta = DeltaCsr::new(other);
        assert!(plan.repair(&delta).is_err());
    }

    #[test]
    fn symmetric_reorder_repair_splices_like_a_rebuild_under_the_same_perm() {
        // Symmetric relabeling makes intra-row accumulation order a
        // function of the permutation, so cross-perm output bit-identity
        // cannot hold (a scratch build computes a fresh perm on the
        // compacted matrix). The invariant that CAN and must hold:
        // repair ≡ re-running FormatBuild on the compacted matrix under
        // the plan's OWN permutation, byte for byte.
        let m = uniform_random(96, 5.0, 31);
        let mut cfg = AccConfig::full();
        cfg.symmetric_reorder = true;
        let plan = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 8, cfg).unwrap();
        let perm: Vec<u32> = plan.perm().expect("symmetric Acc permutes").to_vec();
        let mut delta = DeltaCsr::new(m.clone());
        churn(&mut delta, 99);
        let (repaired, _) = plan.repair(&delta).unwrap();
        let expected_operand = delta.compact().permute_symmetric(&perm).unwrap();
        assert_eq!(
            repaired.csr().content_fingerprint(),
            expected_operand.content_fingerprint()
        );
        let expected_wp = spmm_format::WindowPartition::build(&expected_operand);
        assert_eq!(repaired.partition(), Some(&expected_wp));
        let mut expected_fmt = spmm_format::BitTcf::from_partition(&expected_operand, &expected_wp);
        expected_fmt.preround_values_tier(repaired.isa_tier());
        match repaired.format().unwrap() {
            TcFormat::BitTcf(f) => assert_bittcf_bits_eq(f, &expected_fmt),
            other => panic!("expected BitTcf, got {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn churn_repair_matches_scratch_build(seed in 0u64..1u64 << 48) {
            let m = uniform_random(96, 5.0, seed % 1000);
            let kind = KernelKind::ALL[(seed % 6) as usize];
            let plan = ExecutionPlan::build(kind, &m, Arch::A800, 8, AccConfig::full()).unwrap();
            let mut delta = DeltaCsr::new(m.clone());
            churn(&mut delta, seed);
            let (repaired, _) = plan.repair(&delta).unwrap();
            let scratch = ExecutionPlan::build(
                kind, &delta.compact(), Arch::A800, 8, AccConfig::full()).unwrap();
            let b = DenseMatrix::random(96, 8, seed % 17);
            let out_r = crate::PreparedKernel::from_plan(repaired).execute(&b).unwrap();
            let out_s = crate::PreparedKernel::from_plan(scratch).execute(&b).unwrap();
            assert_outputs_bit_identical(&out_r, &out_s);
        }
    }
}
