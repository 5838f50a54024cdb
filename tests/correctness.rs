//! Cross-crate functional correctness: every kernel strategy, on every
//! workload class, must reproduce the FP32 dense reference within TF32
//! tolerance, regardless of reordering, format, or balancing.

use acc_spmm::{AccConfig, AccSpmm, Arch, KernelKind};
use spmm_balance::BalanceStrategy;
use spmm_common::scalar::tf32_tolerance;
use spmm_kernels::PreparedKernel;
use spmm_matrix::{gen, CooMatrix, CsrMatrix, DenseMatrix};
use spmm_reorder::Algorithm;

fn workloads() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("molecules", gen::molecule_union(768, 6, 16, true, 11)),
        ("road", gen::road_network(1024, 12)),
        (
            "rmat",
            gen::rmat(
                gen::RmatConfig {
                    scale: 10,
                    avg_deg: 12.0,
                    ..Default::default()
                },
                13,
            ),
        ),
        (
            "clustered",
            gen::clustered(
                gen::ClusteredConfig {
                    n: 768,
                    cluster_size: 96,
                    intra_deg: 40.0,
                    inter_deg: 8.0,
                    hub_fraction: 0.02,
                    hub_factor: 6.0,
                    shuffle: true,
                    degree_spread: 1.2,
                    size_variance: 0.5,
                },
                14,
            ),
        ),
        ("banded", gen::banded(512, 5, 0.7, 15)),
    ]
}

#[test]
fn all_kernels_match_reference_on_all_workloads() {
    for (name, m) in workloads() {
        for &n in &[32usize, 128] {
            let b = DenseMatrix::random(m.ncols(), n, 21);
            let reference = m.spmm_dense(&b).unwrap();
            let tol = tf32_tolerance(m.ncols());
            for kind in KernelKind::ALL {
                let k = PreparedKernel::builder(kind, &m)
                    .arch(Arch::A800)
                    .feature_dim(n)
                    .build()
                    .unwrap();
                let c = k.execute(&b).unwrap();
                assert!(
                    c.approx_eq(&reference, tol, tol),
                    "{} on {name} (N={n}): max diff {}",
                    kind.name(),
                    c.max_abs_diff(&reference)
                );
            }
        }
    }
}

#[test]
fn balancing_strategies_are_numerically_identical() {
    let m = gen::clustered(
        gen::ClusteredConfig {
            n: 512,
            cluster_size: 64,
            intra_deg: 30.0,
            inter_deg: 6.0,
            hub_fraction: 0.05,
            hub_factor: 8.0,
            shuffle: true,
            degree_spread: 1.5,
            size_variance: 0.6,
        },
        31,
    );
    let b = DenseMatrix::random(m.ncols(), 64, 5);
    let mut results = Vec::new();
    for balance in [
        BalanceStrategy::None,
        BalanceStrategy::DtcStyle,
        BalanceStrategy::AccAdaptive,
    ] {
        let mut cfg = AccConfig::full();
        cfg.balance = balance;
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::H100)
            .feature_dim(64)
            .config(cfg)
            .build()
            .unwrap();
        results.push(k.execute(&b).unwrap());
    }
    assert_eq!(results[0], results[1], "DTC balancing changed the result");
    assert_eq!(
        results[0], results[2],
        "adaptive balancing changed the result"
    );
}

#[test]
fn every_ablation_stage_is_correct() {
    let m = gen::molecule_union(512, 6, 14, true, 41);
    let b = DenseMatrix::random(m.ncols(), 32, 6);
    let reference = m.spmm_dense(&b).unwrap();
    let tol = tf32_tolerance(m.ncols());
    for stage in 0..6 {
        let cfg = AccConfig::ablation_stage(stage);
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::H100)
            .feature_dim(32)
            .config(cfg)
            .build()
            .unwrap();
        let c = k.execute(&b).unwrap();
        assert!(
            c.approx_eq(&reference, tol, tol),
            "ablation stage {stage} diverges"
        );
    }
}

#[test]
fn reordering_never_changes_results() {
    let m = gen::rmat(
        gen::RmatConfig {
            scale: 9,
            avg_deg: 10.0,
            ..Default::default()
        },
        51,
    );
    let b = DenseMatrix::random(m.ncols(), 48, 8);
    let reference = m.spmm_dense(&b).unwrap();
    let tol = tf32_tolerance(m.ncols());
    for alg in Algorithm::ALL {
        let mut cfg = AccConfig::full();
        cfg.reorder = alg;
        let k = PreparedKernel::builder(KernelKind::AccSpmm, &m)
            .arch(Arch::Rtx4090)
            .feature_dim(48)
            .config(cfg)
            .build()
            .unwrap();
        let c = k.execute(&b).unwrap();
        assert!(
            c.approx_eq(&reference, tol, tol),
            "{} changed the numeric result",
            alg.name()
        );
    }
}

#[test]
fn handle_multiply_is_deterministic_and_linear() {
    let m = gen::uniform_random(400, 8.0, 61);
    let h = AccSpmm::builder(&m)
        .arch(Arch::A800)
        .feature_dim(16)
        .build()
        .unwrap();
    let x = DenseMatrix::random(m.ncols(), 16, 1);
    let y = DenseMatrix::random(m.ncols(), 16, 2);
    let cx = h.multiply(&x).unwrap();
    assert_eq!(
        cx,
        h.multiply(&x).unwrap(),
        "multiply must be deterministic"
    );

    // Linearity: A(x+y) == Ax + Ay within TF32 tolerance.
    let mut xy = x.clone();
    for (a, b) in xy.as_mut_slice().iter_mut().zip(y.as_slice()) {
        *a += b;
    }
    let cxy = h.multiply(&xy).unwrap();
    let cy = h.multiply(&y).unwrap();
    let mut sum = cx.clone();
    for (a, b) in sum.as_mut_slice().iter_mut().zip(cy.as_slice()) {
        *a += b;
    }
    let tol = tf32_tolerance(m.ncols()) * 4.0;
    assert!(
        cxy.approx_eq(&sum, tol, tol),
        "linearity violated: max diff {}",
        cxy.max_abs_diff(&sum)
    );
}

#[test]
fn every_kernel_profiles_an_empty_matrix_without_panicking() {
    use acc_spmm::SimOptions;
    let empty = CsrMatrix::from_coo(&CooMatrix::new(32, 32));
    for kind in KernelKind::ALL.into_iter().chain([KernelKind::Auto]) {
        let k = PreparedKernel::builder(kind, &empty)
            .arch(Arch::A800)
            .feature_dim(64)
            .build()
            .unwrap();
        let r = k.profile(Arch::A800, &SimOptions::default());
        assert!(
            r.time_s > 0.0,
            "{}: launch overhead still counts",
            kind.name()
        );
        assert_eq!(r.gflops, 0.0, "{}: no effective work", kind.name());
    }
}

#[test]
fn empty_and_degenerate_matrices_work_end_to_end() {
    // Empty matrix.
    let empty = CsrMatrix::from_coo(&CooMatrix::new(64, 64));
    let b = DenseMatrix::random(64, 16, 3);
    let h = AccSpmm::builder(&empty)
        .arch(Arch::H100)
        .feature_dim(16)
        .build()
        .unwrap();
    let c = h.multiply(&b).unwrap();
    assert!(c.as_slice().iter().all(|&x| x == 0.0));

    // Single entry.
    let mut coo = CooMatrix::new(16, 16);
    coo.push(7, 3, 2.0);
    let single = CsrMatrix::from_coo(&coo);
    let b = DenseMatrix::random(16, 8, 4);
    let h = AccSpmm::builder(&single)
        .arch(Arch::A800)
        .feature_dim(8)
        .build()
        .unwrap();
    let c = h.multiply(&b).unwrap();
    let reference = single.spmm_dense(&b).unwrap();
    let tol = tf32_tolerance(16);
    assert!(c.approx_eq(&reference, tol, tol));
}
