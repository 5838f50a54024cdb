//! Round-trip properties of the persistent plan IR: for every kernel,
//! a saved-and-reloaded plan must execute **bit-identically** to the
//! plan it was snapshotted from — including NaN positions, infinities,
//! and subnormals spliced into the operand values — and corrupted
//! containers must be rejected with typed errors, never mis-loaded.

use proptest::prelude::*;
use spmm_common::{PlanLoadError, SpmmError};
use spmm_kernels::{AccConfig, ExecutionPlan, KernelKind, PlanIr, PlanLoader, PreparedKernel};
use spmm_matrix::{gen, CsrMatrix, DenseMatrix};
use spmm_sim::Arch;

/// Splice non-finite / subnormal values into a matrix at deterministic
/// positions (structure unchanged: `CsrMatrix::new` validates structure
/// but deliberately not value finiteness).
fn splice_special_values(m: &CsrMatrix, seed: u64) -> CsrMatrix {
    const SPECIALS: [f32; 6] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40, // subnormal
        -1.0e-41,
        -0.0,
    ];
    let mut values = m.values().to_vec();
    if !values.is_empty() {
        for (i, &s) in SPECIALS.iter().enumerate() {
            let at = (spmm_common::util::splitmix64(seed.wrapping_add(i as u64)) as usize)
                % values.len();
            values[at] = s;
        }
    }
    CsrMatrix::new(
        m.nrows(),
        m.ncols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        values,
    )
    .unwrap()
}

fn build_plan(kind: KernelKind, m: &CsrMatrix, dim: usize) -> ExecutionPlan {
    ExecutionPlan::build(kind, m, Arch::A800, dim, AccConfig::full()).unwrap()
}

/// Bit-exact output comparison: NaNs must match *by position and bit
/// pattern*, which `==` on floats cannot express.
fn assert_bits_identical(a: &DenseMatrix, b: &DenseMatrix, kind: KernelKind) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{kind:?}: output {i} differs after reload: {x} vs {y}"
        );
    }
}

proptest! {
    // Plan builds are the expensive half of the workflow; a handful of
    // randomized operands per kernel exercises the codec paths
    // (empty/full windows, permutations, balance chunks) without
    // minutes of runtime.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reloaded_plans_execute_bit_identically_for_every_kernel(
        n in 48usize..160,
        density in 2.0f64..8.0,
        seed in 0u64..1_000,
        dim_sel in 0usize..3,
    ) {
        let dim = [8usize, 16, 32][dim_sel];
        let m = splice_special_values(&gen::uniform_random(n, density, seed), seed);
        let b = DenseMatrix::random(n, dim, seed.wrapping_add(7));
        for kind in KernelKind::ALL {
            let plan = build_plan(kind, &m, dim);
            let bytes = plan.to_ir().to_bytes().unwrap();

            let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();
            let loaded = PlanLoader::new()
                .expect_kind(kind)
                .expect_arch(Arch::A800)
                .expect_fingerprint(m.content_fingerprint())
                .expect_feature_dim(dim)
                .expect_config(AccConfig::full())
                .read(std::io::Cursor::new(&bytes))
                .unwrap();
            let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
            assert_bits_identical(&reference, &replayed, kind);
        }
    }

    #[test]
    fn truncated_containers_never_load(
        n in 48usize..96,
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let plan = build_plan(KernelKind::AccSpmm, &m, 16);
        let bytes = plan.to_ir().to_bytes().unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(PlanIr::read_from(std::io::Cursor::new(&bytes[..cut])).is_err());
    }

    #[test]
    fn single_byte_corruption_never_loads_a_wrong_plan(
        n in 48usize..96,
        seed in 0u64..1_000,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let m = gen::uniform_random(n, 4.0, seed);
        let plan = build_plan(KernelKind::AccSpmm, &m, 16);
        let mut bytes = plan.to_ir().to_bytes().unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Either the container is rejected, or — when the flip hits a
        // value byte inside the CSR section — the stored-fingerprint
        // cross-check catches it. A successful load must only happen if
        // the flipped byte was outside every checked region AND the
        // plan still binds to the same identity; reject-or-identical is
        // the invariant.
        match PlanIr::read_from(std::io::Cursor::new(&bytes)) {
            Err(_) => {}
            Ok(ir) => {
                // Loadable implies the artifacts re-validated; the
                // binding must be untouched.
                prop_assert_eq!(ir.kind, KernelKind::AccSpmm);
                prop_assert_eq!(ir.feature_dim, 16);
            }
        }
    }
}

#[test]
fn save_and_load_through_files_round_trips() {
    let dir = std::env::temp_dir().join(format!("spmm-plan-ir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let m = splice_special_values(&gen::uniform_random(128, 5.0, 3), 3);
    let b = DenseMatrix::random(128, 16, 9);
    for kind in KernelKind::ALL {
        let path = dir.join(format!("{kind:?}.plan"));
        let plan = build_plan(kind, &m, 16);
        plan.save(&path).unwrap();
        let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();

        let loaded = PlanLoader::new().load(&path).unwrap();
        let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
        assert_bits_identical(&reference, &replayed, kind);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_header_is_a_typed_rejection() {
    let m = gen::uniform_random(64, 4.0, 1);
    let plan = build_plan(KernelKind::DtcSpmm, &m, 8);
    let mut bytes = plan.to_ir().to_bytes().unwrap();

    // Magic.
    bytes[0] = b'X';
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
    bytes[0] = b'S';

    // Version.
    bytes[4] = 42;
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 42, .. })
    ));
    bytes[4] = spmm_kernels::PLAN_IR_VERSION as u8;

    // Header kind `auto`: plans always name the concrete kernel.
    let json_start = 4 + 4 + 8;
    let header_len = u64::from_le_bytes(bytes[8..json_start].try_into().unwrap()) as usize;
    let header = std::str::from_utf8(&bytes[json_start..json_start + header_len]).unwrap();
    assert!(header.contains("\"dtcspmm\""));
    let forged_header = header.replace("\"dtcspmm\"", "\"auto\"");
    let mut forged = bytes[..8].to_vec();
    forged.extend_from_slice(&(forged_header.len() as u64).to_le_bytes());
    forged.extend_from_slice(forged_header.as_bytes());
    forged.extend_from_slice(&bytes[json_start + header_len..]);
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&forged)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));

    // JSON header body.
    bytes[json_start] = b'}';
    assert!(matches!(
        PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap_err(),
        SpmmError::PlanLoad(PlanLoadError::NotPlanIr { .. })
    ));
}

#[test]
fn foreign_isa_tier_rebinds_to_the_host_probe_at_load() {
    use spmm_common::IsaTier;
    let m = gen::uniform_random(96, 5.0, 7);
    let plan = build_plan(KernelKind::AccSpmm, &m, 16);
    let host = IsaTier::probe();
    assert_eq!(plan.isa_tier(), host);

    // Forge an artifact recorded on a "different host": stamp a tier
    // that is not this host's probe result into the IR's header field
    // (the container stays self-consistent and parses cleanly).
    let mut ir = plan.to_ir();
    assert_eq!(ir.isa_tier, host);
    let foreign = IsaTier::ALL
        .into_iter()
        .find(|t| *t != host)
        .expect("more than one tier exists");
    ir.isa_tier = foreign;
    let bytes = ir.to_bytes().unwrap();

    let parsed = PlanIr::read_from(std::io::Cursor::new(&bytes)).unwrap();
    assert_eq!(
        parsed.isa_tier, foreign,
        "the recorded tier survives structural parsing untouched"
    );

    // Rehydration re-resolves against the loading host: the recorded
    // tier is advisory provenance, not a binding.
    let loaded = PlanLoader::new()
        .read(std::io::Cursor::new(&bytes))
        .unwrap();
    assert_eq!(loaded.isa_tier(), host);
    assert_eq!(loaded.to_ir().isa_tier, host);

    // And the re-bound plan executes bit-identically to the original
    // (every tier computes the same bits, so a re-bind is invisible).
    let b = DenseMatrix::random(96, 16, 11);
    let reference = PreparedKernel::from_plan(plan).execute(&b).unwrap();
    let replayed = PreparedKernel::from_plan(loaded).execute(&b).unwrap();
    assert_bits_identical(&reference, &replayed, KernelKind::AccSpmm);
}

#[test]
fn pinned_unavailable_isa_tier_is_a_build_error() {
    use spmm_common::IsaTier;
    // NEON and the x86 tiers are mutually exclusive, so every host has
    // at least one unavailable tier to pin.
    let unavailable = IsaTier::ALL
        .into_iter()
        .find(|t| !t.is_available())
        .expect("no host implements every ISA");
    let m = gen::uniform_random(64, 4.0, 5);
    let config = AccConfig {
        isa: Some(unavailable),
        ..AccConfig::full()
    };
    let err = ExecutionPlan::build(KernelKind::AccSpmm, &m, Arch::A800, 16, config).unwrap_err();
    assert!(
        matches!(err, SpmmError::InvalidConfig(_)),
        "expected InvalidConfig, got {err:?}"
    );
}

/// The GPU model (balance schedule, simulator trace) is derived on
/// first use. A plan, a clone taken before that first use, and its IR
/// round trip must all derive the same model.
#[test]
fn lazily_derived_model_is_the_same_model_for_every_kernel() {
    let m = gen::uniform_random(128, 6.0, 21);
    let opts = spmm_sim::SimOptions::default();
    for kind in KernelKind::ALL {
        let plan = build_plan(kind, &m, 16);
        let early_clone = plan.clone();
        let bytes = plan.to_ir().to_bytes().unwrap();
        let loaded = PlanLoader::new()
            .read(std::io::Cursor::new(&bytes))
            .unwrap();
        let trace = format!("{:?}", plan.compiled_trace());
        let balance = format!("{:?}", plan.balance());
        let report = format!(
            "{:?}",
            PreparedKernel::from_plan(plan).profile(Arch::A800, &opts)
        );
        for (what, other) in [("clone", early_clone), ("reload", loaded)] {
            assert_eq!(
                format!("{:?}", other.compiled_trace()),
                trace,
                "{kind:?} {what}"
            );
            assert_eq!(format!("{:?}", other.balance()), balance, "{kind:?} {what}");
            let other_report = PreparedKernel::from_plan(other).profile(Arch::A800, &opts);
            assert_eq!(format!("{other_report:?}"), report, "{kind:?} {what}");
        }
    }
}

/// A repaired plan models its own operand: its trace and schedule are
/// derived from the repaired format, never carried over from the plan
/// it was repaired from (whose model is filled before the repair).
#[test]
fn repaired_plans_derive_their_model_from_the_repaired_format() {
    use spmm_delta::DeltaCsr;
    use spmm_kernels::TcFormat;
    let m = gen::uniform_random(256, 8.0, 5);
    let dim = 16;
    for kind in KernelKind::ALL {
        let plan = build_plan(kind, &m, dim);
        plan.compiled_trace();
        plan.balance();
        // ~1% of the edges: fresh inserts, so nnz changes.
        let mut delta = DeltaCsr::new(m.clone());
        for i in 0..(m.nnz() / 100).max(1) as u64 {
            let r = spmm_common::util::splitmix64(i) % 256;
            let c = spmm_common::util::splitmix64(i + 1_000) % 256;
            delta.upsert(r as u32, c as u32, 0.5).unwrap();
        }
        let compacted = delta.compact();
        assert_ne!(compacted.nnz(), m.nnz());
        let (repaired, _) = plan.repair(&delta).unwrap();
        assert_eq!(
            repaired.compiled_trace().effective_flops,
            2 * compacted.nnz() as u64 * dim as u64,
            "{kind:?}"
        );
        let blocks = match repaired.format() {
            None => {
                assert!(repaired.balance().is_none(), "{kind:?}");
                continue;
            }
            Some(TcFormat::Tcf(f)) => f.num_tc_blocks(),
            Some(TcFormat::MeTcf(f)) => f.num_tc_blocks(),
            Some(TcFormat::BitTcf(f)) => f.num_tc_blocks(),
        };
        let scheduled: usize = repaired
            .balance()
            .expect("TC plans have a schedule")
            .tbs
            .iter()
            .map(|tb| tb.num_blocks())
            .sum();
        assert_eq!(scheduled, blocks, "{kind:?}");
    }
}
