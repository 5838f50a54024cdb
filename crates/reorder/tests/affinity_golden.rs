//! Golden permutations for the data-affinity reordering.
//!
//! Each case pins `perm.len()` and a 64-bit FNV-1a hash of the
//! permutation `affinity_order` returns on a small seeded input, so any
//! rewrite of the reorder must reproduce its output bit for bit,
//! tie-breaking included.

use spmm_common::util::{is_permutation, splitmix64};
use spmm_graph::GraphView;
use spmm_matrix::gen::{molecule_union, rmat, uniform_random, RmatConfig};
use spmm_matrix::{CooMatrix, CsrMatrix};
use spmm_reorder::affinity::affinity_order;

/// FNV-1a over the little-endian bytes of the permutation.
fn fnv1a(perm: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in perm {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(m: &CsrMatrix, len: usize, hash: u64) {
    let perm = affinity_order(m);
    assert!(is_permutation(&perm));
    assert_eq!(
        (perm.len(), fnv1a(&perm)),
        (len, hash),
        "affinity permutation drifted: got hash {:#018x}",
        fnv1a(&perm)
    );
}

#[test]
fn shuffled_molecules() {
    check(
        &molecule_union(3000, 8, 20, true, 5),
        3000,
        0xecf9d2f161c2ee75,
    );
}

#[test]
fn uniform_random_graph() {
    check(&uniform_random(1500, 8.0, 3), 1500, 0xcd32c4f63aa4a8e9);
}

/// Power-law graph whose hubs exceed the 64-neighbour sampling cap, so
/// the strided sample bites and many low-degree candidates tie on count.
#[test]
fn power_law_graph_with_hubs() {
    let m = rmat(
        RmatConfig {
            scale: 10,
            avg_deg: 24.0,
            ..RmatConfig::default()
        },
        9,
    );
    let g = GraphView::from_csr(&m);
    let max_deg = (0..g.num_vertices() as u32)
        .map(|v| g.degree(v))
        .max()
        .unwrap();
    assert!(max_deg > 64, "input must exercise the cap: {max_deg}");
    check(&m, 1024, 0x147aa562333a1df9);
}

/// Rings, stars and paths of several sizes plus isolated vertices, all
/// under a seeded relabelling so components interleave in id space.
#[test]
fn several_components_and_isolated_vertices() {
    let n = 400usize;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.sort_by_key(|&v| splitmix64(v as u64 ^ 0x5eed));
    let mut coo = CooMatrix::new(n, n);
    let mut edge = |a: usize, b: usize| {
        coo.push(ids[a], ids[b], 1.0);
        coo.push(ids[b], ids[a], 1.0);
    };
    let mut base = 0usize;
    for size in [3usize, 7, 12, 25, 40] {
        for i in 0..size {
            edge(base + i, base + (i + 1) % size);
        }
        base += size;
    }
    for size in [5usize, 30, 90] {
        for i in 1..size {
            edge(base, base + i);
        }
        base += size;
    }
    for size in [10usize, 60] {
        for i in 1..size {
            edge(base + i - 1, base + i);
        }
        base += size;
    }
    // The remaining vertices stay isolated.
    assert!(base < n);
    check(&CsrMatrix::from_coo(&coo), n, 0x335f93bbf92a5715);
}

#[test]
fn empty_and_diagonal() {
    check(
        &CsrMatrix::from_coo(&CooMatrix::new(16, 16)),
        16,
        0x2135120b48416d25,
    );
    let mut coo = CooMatrix::new(64, 64);
    for i in 0..64 {
        coo.push(i, i, 1.0);
    }
    check(&CsrMatrix::from_coo(&coo), 64, 0xf5f45328a8ebdb25);
}
