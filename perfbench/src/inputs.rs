//! Seeded inputs. The `--seed` argument re-seeds the Table-2 generators,
//! the dense operands, the serving graph, the arrival schedule and the
//! churn; the library receives only the generated matrices.

use acc_spmm::delta::DeltaCsr;
use acc_spmm::matrix::gen::{rmat, RmatConfig};
use acc_spmm::matrix::Dataset;
use acc_spmm::{gcn_normalize, CsrMatrix, DenseMatrix};
use spmm_common::util::splitmix64;

/// Type-2 analogs (AvgL above ~100).
pub const TYPE2: [&str; 3] = ["protein", "FY-RSR", "reddit"];
/// Type-1 analogs (low AvgL, many rows).
pub const TYPE1: [&str; 4] = ["YH", "rCA", "DD", "WB"];

/// log2 of the serving graph's row count, and its mean degree.
pub const SERVE_SCALE: u32 = 12;
pub const SERVE_DEGREE: f64 = 8.0;
/// Dense operands the serving stream draws from.
pub const SERVE_OPERANDS: usize = 8;

/// Derive an independent stream seed from the run seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// One SpMM input: a Table-2 analog and its dense operand.
pub struct SpmmInput {
    pub name: &'static str,
    pub a: CsrMatrix,
    pub b: DenseMatrix,
}

/// The named Table-2 analogs, re-seeded, each with an `N`-column operand.
pub fn spmm_inputs(abbrs: &[&str], seed: u64, n: usize) -> Result<Vec<SpmmInput>, String> {
    abbrs
        .iter()
        .map(|abbr| {
            let d = Dataset::by_abbr(abbr).ok_or_else(|| format!("no Table-2 dataset {abbr}"))?;
            let a = Dataset {
                seed: mix(seed, d.seed),
                ..*d
            }
            .build();
            let b = DenseMatrix::random(a.ncols(), n, mix(seed, d.seed ^ 0xB0B));
            Ok(SpmmInput { name: d.abbr, a, b })
        })
        .collect()
}

/// The serving graph: a GCN-normalised R-MAT graph.
pub fn serve_graph(seed: u64) -> Result<CsrMatrix, String> {
    let g = rmat(
        RmatConfig {
            scale: SERVE_SCALE,
            avg_deg: SERVE_DEGREE,
            ..RmatConfig::default()
        },
        mix(seed, 0x5E4E),
    );
    gcn_normalize(&g).map_err(|e| e.to_string())
}

/// The serving stream's dense operands.
pub fn serve_operands(rows: usize, n: usize, seed: u64) -> Vec<DenseMatrix> {
    (0..SERVE_OPERANDS as u64)
        .map(|k| DenseMatrix::random(rows, n, mix(seed, 0x0BE0 + k)))
        .collect()
}

/// Print one input's provenance line.
pub fn describe(name: &str, a: &CsrMatrix, n: usize) {
    println!(
        "input {name}: rows={} nnz={} avg_l={:.2} n={n} fingerprint={:#018x}",
        a.nrows(),
        a.nnz(),
        a.avg_row_len(),
        a.content_fingerprint()
    );
}

/// SplitMix64 stream for arrivals, priorities and churn.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// An overlay on `base` carrying `share` × nnz edge edits: half delete
/// existing edges, half insert edges at random positions.
pub fn churn(base: CsrMatrix, share: f64, rng: &mut Rng) -> Result<DeltaCsr, String> {
    let edits = ((base.nnz() as f64 * share).round() as usize).max(2);
    let (nrows, ncols, nnz) = (base.nrows(), base.ncols(), base.nnz());
    let row_ptr = base.row_ptr().to_vec();
    let col_idx = base.col_idx().to_vec();
    let mut delta = DeltaCsr::new(base);
    for i in 0..edits {
        if i % 2 == 0 && nnz > 0 {
            let k = rng.below(nnz);
            let r = row_ptr.partition_point(|&p| p <= k) - 1;
            delta.delete(r as u32, col_idx[k]);
        } else {
            let (r, c) = (rng.below(nrows) as u32, rng.below(ncols) as u32);
            let v = (0.01 + 0.09 * rng.next_f64()) as f32;
            delta.upsert(r, c, v).map_err(|e| e.to_string())?;
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(seed: u64) -> Vec<u64> {
        let mut fps: Vec<u64> = spmm_inputs(&["protein", "DD"], seed, 8)
            .unwrap()
            .iter()
            .flat_map(|x| [x.a.content_fingerprint(), crate::bits_hash(x.b.as_slice())])
            .collect();
        let g = serve_graph(seed).unwrap();
        fps.push(g.content_fingerprint());
        fps.extend(
            serve_operands(g.nrows(), 8, seed)
                .iter()
                .map(|b| crate::bits_hash(b.as_slice())),
        );
        let mut rng = Rng::new(mix(seed, 1));
        fps.push(
            churn(g, 0.01, &mut rng)
                .unwrap()
                .compact()
                .content_fingerprint(),
        );
        fps
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = fingerprints(7);
        assert_eq!(a, fingerprints(7), "a seed must reproduce its inputs");
        let b = fingerprints(8);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "input {i} ignores the seed");
        }
    }
}
