//! Explicit-SIMD TF32 compute core with runtime ISA dispatch.
//!
//! The MMA inner loop and the TF32 rounding passes are the hot paths of
//! every kernel in the workspace. [`crate::scalar`] shapes them so LLVM
//! *can* vectorize, but nothing guarantees it does, and there is no
//! wider-than-128-bit path at all. This module goes the rest of the way:
//! hand-written `core::arch` intrinsics kernels per ISA tier — AVX-512F,
//! AVX2(+FMA probe), NEON — behind a one-time capability probe
//! ([`IsaTier::probe`]), with the scalar code as the universal fallback.
//!
//! **The contract is bit-identity.** Every tier produces NaN-position-
//! exact, bitwise-equal output versus the scalar path. Three properties
//! make that possible:
//!
//! 1. **No hardware FMA in the MMA core.** Scalar `c[j] += av * b[j]`
//!    rounds twice (after the multiply, after the add). A fused
//!    multiply-add rounds once and would diverge in the last ULP, so the
//!    vector kernels use separate multiply and add intrinsics
//!    (`_mm256_mul_ps` + `_mm256_add_ps`, never `vfmadd`). The AVX2 tier
//!    still *probes* for FMA — it names the ISA level, not an
//!    instruction we emit.
//! 2. **Per-lane accumulation order is preserved.** The scalar nest is
//!    `i, k, j`: each output lane `(i, j)` receives its additions in
//!    ascending `k`. The vector kernels register-block over `j` (load
//!    the C chunk once, run the full `k` loop in registers, store once)
//!    which reorders only *across* lanes, never within one — so every
//!    lane sees the identical rounding sequence.
//! 3. **The `av == 0.0` skip is replicated exactly.** It is semantically
//!    load-bearing (`0 × Inf` would inject NaN), and in the row-slice
//!    variant it also guarantees empty rows for all-zero A columns are
//!    never touched; the `[..n]` bounds check runs only under `av != 0`,
//!    mirroring the scalar panic semantics.
//!
//! The selected tier is resolved **once at plan build**
//! (`AccConfig::isa` pin → `SPMM_FORCE_ISA` env override → probe) and
//! recorded in the plan; see `spmm_kernels::plan`. Serialized plan
//! artifacts carry the tier as advisory metadata only — loaders re-probe
//! on the executing host.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::scalar::{
    tf32_mma_8x8_prerounded, tf32_mma_8x8_rows, to_tf32_slice, to_tf32_slice_into,
};
use std::sync::OnceLock;

/// An ISA capability tier the compute core can dispatch to.
///
/// Ordered from narrowest to widest; [`IsaTier::probe`] selects the
/// widest available tier on the running host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaTier {
    /// Portable scalar Rust — always available, the bit-identity oracle.
    Scalar,
    /// AArch64 NEON: 128-bit vectors, 4 f32 lanes.
    Neon,
    /// x86-64 AVX2 + FMA: 256-bit vectors, 8 f32 lanes. (FMA is probed
    /// as part of the tier definition but never emitted — see the
    /// module docs on bit-identity.)
    Avx2Fma,
    /// x86-64 AVX-512F: 512-bit vectors, 16 f32 lanes.
    Avx512f,
}

impl IsaTier {
    /// Every tier, narrowest first. Test matrices iterate this and
    /// skip-with-log the tiers the host lacks.
    pub const ALL: [IsaTier; 4] = [
        IsaTier::Scalar,
        IsaTier::Neon,
        IsaTier::Avx2Fma,
        IsaTier::Avx512f,
    ];

    /// Stable numeric code, used by the plan IR and trace counters.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            IsaTier::Scalar => 0,
            IsaTier::Neon => 1,
            IsaTier::Avx2Fma => 2,
            IsaTier::Avx512f => 3,
        }
    }

    /// Inverse of [`IsaTier::code`].
    pub fn from_code(code: u8) -> Option<IsaTier> {
        IsaTier::ALL.into_iter().find(|t| t.code() == code)
    }

    /// Short lower-case name, used in the plan IR header, bench entry
    /// names (`mma-core-avx2`), and the `SPMM_FORCE_ISA` override.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Scalar => "scalar",
            IsaTier::Neon => "neon",
            IsaTier::Avx2Fma => "avx2",
            IsaTier::Avx512f => "avx512",
        }
    }

    /// Inverse of [`IsaTier::name`] (case-insensitive; accepts a few
    /// obvious aliases).
    pub fn from_name(name: &str) -> Option<IsaTier> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(IsaTier::Scalar),
            "neon" => Some(IsaTier::Neon),
            "avx2" | "avx2fma" | "avx2+fma" => Some(IsaTier::Avx2Fma),
            "avx512" | "avx512f" => Some(IsaTier::Avx512f),
            _ => None,
        }
    }

    /// f32 lanes per vector register at this tier (1 for scalar).
    #[inline]
    pub fn simd_lanes(self) -> u32 {
        match self {
            IsaTier::Scalar => 1,
            IsaTier::Neon => 4,
            IsaTier::Avx2Fma => 8,
            IsaTier::Avx512f => 16,
        }
    }

    /// Whether the running host can execute this tier's kernels.
    ///
    /// The std feature macros cache their CPUID probe, so this is a
    /// relaxed atomic load after the first call — cheap enough for the
    /// dispatch wrappers to re-check on every entry (which is what keeps
    /// them sound even if handed an unresolved tier).
    pub fn is_available(self) -> bool {
        match self {
            IsaTier::Scalar => true,
            IsaTier::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
            IsaTier::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            IsaTier::Avx512f => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The widest tier the running host supports, ignoring overrides.
    pub fn detect_best() -> IsaTier {
        IsaTier::ALL
            .into_iter()
            .rev()
            .find(|t| t.is_available())
            .unwrap_or(IsaTier::Scalar)
    }

    /// The process-wide default tier: the `SPMM_FORCE_ISA` environment
    /// override if set and available, else [`IsaTier::detect_best`].
    ///
    /// Resolved once and cached. An unrecognized or unavailable forced
    /// tier logs one warning to stderr and falls back to the probe —
    /// never a silent no-op, never a crash. Plan compilation resolves
    /// through [`IsaTier::resolve`] so an `AccConfig::isa` pin takes
    /// precedence over the environment.
    pub fn probe() -> IsaTier {
        static PROBED: OnceLock<IsaTier> = OnceLock::new();
        *PROBED.get_or_init(|| match std::env::var("SPMM_FORCE_ISA") {
            Ok(raw) => match IsaTier::from_name(raw.trim()) {
                Some(t) if t.is_available() => t,
                Some(t) => {
                    let best = IsaTier::detect_best();
                    eprintln!(
                        "spmm: SPMM_FORCE_ISA={} not available on this host; using {}",
                        t.name(),
                        best.name()
                    );
                    best
                }
                None => {
                    let best = IsaTier::detect_best();
                    eprintln!(
                        "spmm: unrecognized SPMM_FORCE_ISA={raw:?} (expected one of \
                         scalar|neon|avx2|avx512); using {}",
                        best.name()
                    );
                    best
                }
            },
            Err(_) => IsaTier::detect_best(),
        })
    }

    /// Resolve the tier a plan should bind: an explicit pin if given
    /// (erroring when the host cannot run it — a pinned config is a
    /// correctness statement, not a hint), else the process default
    /// from [`IsaTier::probe`].
    pub fn resolve(pinned: Option<IsaTier>) -> crate::Result<IsaTier> {
        match pinned {
            Some(t) if t.is_available() => Ok(t),
            Some(t) => Err(crate::SpmmError::InvalidConfig(format!(
                "isa tier '{}' pinned via AccConfig::isa is not available on this host \
                 (best available: '{}')",
                t.name(),
                IsaTier::detect_best().name()
            ))),
            None => Ok(IsaTier::probe()),
        }
    }
}

impl std::fmt::Display for IsaTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `Scalar` — the one tier every host has. This is the *neutral*
/// default for zero-initialized stats structs, not the probe result;
/// resolution always goes through [`IsaTier::resolve`]/[`IsaTier::probe`].
impl Default for IsaTier {
    fn default() -> Self {
        IsaTier::Scalar
    }
}

// ---------------------------------------------------------------------------
// Dispatch wrappers
// ---------------------------------------------------------------------------

/// [`to_tf32_slice`] at an explicit tier (in place).
///
/// Falls back to scalar if `tier` is not available on this host — the
/// output is bit-identical either way, so the fallback is semantically
/// invisible; it exists to keep this wrapper safe to call with any tier
/// value (e.g. one deserialized from a plan artifact).
#[inline]
pub fn to_tf32_slice_tier(xs: &mut [f32], tier: IsaTier) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked.
            unsafe { x86::to_tf32_inplace_avx512(xs) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked.
            unsafe { x86::to_tf32_inplace_avx2(xs) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked.
            unsafe { neon::to_tf32_inplace_neon(xs) }
        }
        _ => to_tf32_slice(xs),
    }
}

/// [`to_tf32_slice_into`] at an explicit tier.
#[inline]
pub fn to_tf32_slice_into_tier(src: &[f32], dst: &mut [f32], tier: IsaTier) {
    debug_assert_eq!(src.len(), dst.len());
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked.
            unsafe { x86::to_tf32_into_avx512(src, dst) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked.
            unsafe { x86::to_tf32_into_avx2(src, dst) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked.
            unsafe { neon::to_tf32_into_neon(src, dst) }
        }
        _ => to_tf32_slice_into(src, dst),
    }
}

/// [`tf32_mma_8x8_prerounded`] at an explicit tier.
#[inline]
pub fn mma_8x8_prerounded_tier(a: &[f32; 64], b: &[f32], c: &mut [f32], n: usize, tier: IsaTier) {
    debug_assert_eq!(b.len(), 8 * n);
    debug_assert_eq!(c.len(), 8 * n);
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            let rows = contiguous_rows(b, n);
            let c = &mut c[..8 * n];
            // SAFETY: avx512f availability checked above; every row
            // pointer covers a `[..n]`-checked slice of `b`, and `c`
            // was just sliced to exactly `8 * n` floats.
            unsafe { x86::mma_tile_avx512(a, &rows, c, n) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            let rows = contiguous_rows(b, n);
            let c = &mut c[..8 * n];
            // SAFETY: avx2 availability checked above; pointers as in
            // the avx512 arm.
            unsafe { x86::mma_tile_avx2(a, &rows, c, n) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            let rows = contiguous_rows(b, n);
            let c = &mut c[..8 * n];
            // SAFETY: neon availability checked above; pointers as in
            // the x86 arms.
            unsafe { neon::mma_tile_neon(a, &rows, c, n) }
        }
        _ => tf32_mma_8x8_prerounded(a, b, c, n),
    }
}

/// [`tf32_mma_8x8_rows`] at an explicit tier.
///
/// Rows whose A column is entirely zero may be empty slices; the
/// pointer-builder maps them to null pointers the tile kernels never
/// dereference, exactly like the scalar `av == 0.0` skip.
#[inline]
pub fn mma_8x8_rows_tier(
    a: &[f32; 64],
    rows: &[&[f32]; 8],
    c: &mut [f32],
    n: usize,
    tier: IsaTier,
) {
    debug_assert_eq!(c.len(), 8 * n);
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            let rowp = active_rows(a, rows, n);
            let c = &mut c[..8 * n];
            // SAFETY: avx512f availability checked above; every non-null
            // row pointer covers a `[..n]`-checked slice, null pointers
            // belong to all-zero A columns the kernel never reads, and
            // `c` was just sliced to exactly `8 * n` floats.
            unsafe { x86::mma_tile_avx512(a, &rowp, c, n) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            let rowp = active_rows(a, rows, n);
            let c = &mut c[..8 * n];
            // SAFETY: avx2 availability checked above; pointers as in
            // the avx512 arm.
            unsafe { x86::mma_tile_avx2(a, &rowp, c, n) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            let rowp = active_rows(a, rows, n);
            let c = &mut c[..8 * n];
            // SAFETY: neon availability checked above; pointers as in
            // the x86 arms.
            unsafe { neon::mma_tile_neon(a, &rowp, c, n) }
        }
        _ => tf32_mma_8x8_rows(a, rows, c, n),
    }
}

/// `crow[j] += Σ_t avs[t] * b[rows[t] * n + j]` with `n = crow.len()`
/// (`b` is a row-major matrix of row width `n`) at an explicit tier —
/// one C row accumulated from gathered B rows, with C held in registers
/// across the terms. This is BitTCF's row-walk executor core and, with a
/// single term, the TCF per-edge update. Separate mul + add (no FMA) and
/// ascending `t` per lane, so every tier is bit-identical to the scalar
/// loop. **No** `avs[t] == 0.0` skip: the TCF loop multiplies
/// unconditionally, and BitTCF drops its zero terms before calling.
///
/// # Panics
/// If `avs` and `rows` differ in length or a row lies outside `b`.
#[inline]
pub fn mma_row_tier(avs: &[f32], rows: &[u32], b: &[f32], crow: &mut [f32], tier: IsaTier) {
    let n = crow.len();
    assert_eq!(avs.len(), rows.len(), "one B row per term");
    let max_row = rows.iter().copied().max().map_or(0, |r| r as usize + 1);
    assert!(max_row * n <= b.len(), "B row out of range");
    match tier {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512f if tier.is_available() => {
            // SAFETY: avx512f availability just checked; every row lies
            // inside `b` (asserted above), which cannot alias the
            // exclusively borrowed `crow`.
            unsafe { x86::mma_row_avx512(avs, rows, b.as_ptr(), crow) }
        }
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2Fma if tier.is_available() => {
            // SAFETY: avx2 availability just checked; rows as above.
            unsafe { x86::mma_row_avx2(avs, rows, b.as_ptr(), crow) }
        }
        #[cfg(target_arch = "aarch64")]
        IsaTier::Neon if tier.is_available() => {
            // SAFETY: neon availability just checked; rows as above.
            unsafe { neon::mma_row_neon(avs, rows, b.as_ptr(), crow) }
        }
        _ => {
            for (&av, &r) in avs.iter().zip(rows) {
                let r = r as usize * n;
                for (cj, &bj) in crow.iter_mut().zip(&b[r..r + n]) {
                    *cj += av * bj;
                }
            }
        }
    }
}

/// Base pointers of the eight B block rows of a contiguous `8 × n`
/// operand, each `[..n]`-bounds-checked up front.
#[inline]
#[allow(dead_code)] // unused on ISAs with no vector tier (e.g. riscv)
fn contiguous_rows(b: &[f32], n: usize) -> [*const f32; 8] {
    std::array::from_fn(|k| b[k * n..k * n + n].as_ptr())
}

/// Base pointers for per-row stage slices: a column whose A slots are
/// all zero gets a null pointer (its slice may legitimately be empty
/// and must never be touched — the tile kernels only dereference under
/// a nonzero A slot, mirroring the scalar `av == 0.0` skip). A *used*
/// short row fails the `[..n]` check here, inheriting the scalar panic
/// semantics for structurally-impossible inputs.
#[inline]
#[allow(dead_code)] // unused on ISAs with no vector tier
fn active_rows(a: &[f32; 64], rows: &[&[f32]; 8], n: usize) -> [*const f32; 8] {
    std::array::from_fn(|k| {
        if (0..8).any(|i| a[i * 8 + k] != 0.0) {
            rows[k][..n].as_ptr()
        } else {
            std::ptr::null()
        }
    })
}

/// FP32 exponent field mask (all-ones exponent = NaN/Inf), duplicated
/// from [`crate::scalar`] for the vector rounding kernels.
#[allow(dead_code)] // unused on ISAs with no vector tier
const EXP_MASK: u32 = 0x7F80_0000;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 / AVX-512F kernels. Every function is `unsafe fn` with a
    //! `#[target_feature]` gate: the caller must have verified the
    //! feature (the dispatch wrappers re-check `is_available()` on
    //! every call). Pointer arithmetic stays within the caller-supplied
    //! slices/rows by construction — see the per-block SAFETY comments.

    use super::EXP_MASK;
    use crate::scalar::to_tf32;
    use core::arch::x86_64::*;

    /// Round `n` floats from `src` into `dst` (AVX2). `src == dst` is
    /// the in-place mode; partial overlap is forbidden.
    ///
    /// SAFETY (caller): avx2 enabled; `src` and `dst` are valid for
    /// `n` reads/writes and either identical or disjoint.
    #[target_feature(enable = "avx2")]
    unsafe fn tf32_round_ptr_avx2(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: all lane offsets stay `< n` (loop bound `i + 8 <= n`);
        // unaligned load/store intrinsics have no alignment demand, and
        // the exact-aliasing in-place mode is fine because each lane is
        // read before it is written within one iteration.
        unsafe {
            let exp = _mm256_set1_epi32(EXP_MASK as i32);
            let low = _mm256_set1_epi32(0x1FFF);
            let half_minus_1 = _mm256_set1_epi32(0x0FFF);
            let one = _mm256_set1_epi32(1);
            while i + 8 <= n {
                let v = _mm256_loadu_si256(src.add(i) as *const __m256i);
                // rounded = (bits + 0x0FFF + keep_lsb) & !0x1FFF
                let keep_lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(v), one);
                let bump = _mm256_add_epi32(half_minus_1, keep_lsb);
                let rounded = _mm256_andnot_si256(low, _mm256_add_epi32(v, bump));
                // NaN/Inf lanes (exponent all ones) pass through.
                let is_special = _mm256_cmpeq_epi32(_mm256_and_si256(v, exp), exp);
                let out = _mm256_blendv_epi8(rounded, v, is_special);
                _mm256_storeu_si256(dst.add(i) as *mut __m256i, out);
                i += 8;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// Round `n` floats from `src` into `dst` (AVX-512F); same contract
    /// as [`tf32_round_ptr_avx2`].
    #[target_feature(enable = "avx512f")]
    unsafe fn tf32_round_ptr_avx512(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: as in the AVX2 variant, with 16-lane steps.
        unsafe {
            let exp = _mm512_set1_epi32(EXP_MASK as i32);
            let low = _mm512_set1_epi32(0x1FFF);
            let half_minus_1 = _mm512_set1_epi32(0x0FFF);
            let one = _mm512_set1_epi32(1);
            while i + 16 <= n {
                let v = _mm512_loadu_si512(src.add(i) as *const __m512i);
                let keep_lsb = _mm512_and_si512(_mm512_srli_epi32::<13>(v), one);
                let bump = _mm512_add_epi32(half_minus_1, keep_lsb);
                let rounded = _mm512_andnot_si512(low, _mm512_add_epi32(v, bump));
                let is_special = _mm512_cmpeq_epi32_mask(_mm512_and_si512(v, exp), exp);
                let out = _mm512_mask_blend_epi32(is_special, rounded, v);
                _mm512_storeu_si512(dst.add(i) as *mut __m512i, out);
                i += 16;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// SAFETY (caller): avx2 enabled.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn to_tf32_inplace_avx2(xs: &mut [f32]) {
        // SAFETY: exact aliasing (src == dst) is the supported in-place
        // mode of the ptr core.
        unsafe { tf32_round_ptr_avx2(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): avx2 enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn to_tf32_into_avx2(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides; distinct borrows so no
        // partial overlap.
        unsafe { tf32_round_ptr_avx2(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// SAFETY (caller): avx512f enabled.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn to_tf32_inplace_avx512(xs: &mut [f32]) {
        // SAFETY: exact aliasing is the supported in-place mode.
        unsafe { tf32_round_ptr_avx512(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): avx512f enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn to_tf32_into_avx512(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides.
        unsafe { tf32_round_ptr_avx512(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// One C-row update `crow[j] += Σ_t avs[t] * b[rows[t] * n + j]`
    /// (AVX2, `n = crow.len()`), register-blocked over `j` so each C
    /// chunk is loaded and stored once for the whole `t` loop. Separate
    /// `mul` + `add` — **not** `vfmadd` — to match the scalar path's two
    /// roundings; per-lane addition order is ascending `t`, identical to
    /// scalar.
    ///
    /// SAFETY (caller): avx2 enabled; for every `t`, `b` is valid for
    /// reads of `(rows[t] + 1) * crow.len()` floats, none aliasing `crow`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mma_row_avx2(avs: &[f32], rows: &[u32], b: *const f32, crow: &mut [f32]) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: C offsets stay `< n` and B offsets inside row `r`,
        // `r * n..(r + 1) * n`, valid per the caller contract; `cp` is
        // the only mutable pointer and `b` is read-only for the duration.
        unsafe {
            // 16-lane (2×ymm) main blocks.
            while j + 16 <= n {
                let mut c0 = _mm256_loadu_ps(cp.add(j));
                let mut c1 = _mm256_loadu_ps(cp.add(j + 8));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = _mm256_set1_ps(a);
                    let b0 = _mm256_loadu_ps(b.add(r as usize * n + j));
                    let b1 = _mm256_loadu_ps(b.add(r as usize * n + j + 8));
                    c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
                    c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, b1));
                }
                _mm256_storeu_ps(cp.add(j), c0);
                _mm256_storeu_ps(cp.add(j + 8), c1);
                j += 16;
            }
            while j + 8 <= n {
                let mut c0 = _mm256_loadu_ps(cp.add(j));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = _mm256_set1_ps(a);
                    let b0 = _mm256_loadu_ps(b.add(r as usize * n + j));
                    c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
                }
                _mm256_storeu_ps(cp.add(j), c0);
                j += 8;
            }
            // Scalar tail, still ascending `t` per lane.
            while j < n {
                let mut cj = *cp.add(j);
                for (&a, &r) in avs.iter().zip(rows) {
                    cj += a * *b.add(r as usize * n + j);
                }
                *cp.add(j) = cj;
                j += 1;
            }
        }
    }

    /// [`mma_row_avx2`] at 512-bit width (2×zmm = 32-lane main blocks).
    /// Same bit-identity constraints: separate mul + add, ascending `t`.
    ///
    /// SAFETY (caller): avx512f enabled; contract as in [`mma_row_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mma_row_avx512(
        avs: &[f32],
        rows: &[u32],
        b: *const f32,
        crow: &mut [f32],
    ) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: as in mma_row_avx2.
        unsafe {
            while j + 32 <= n {
                let mut c0 = _mm512_loadu_ps(cp.add(j));
                let mut c1 = _mm512_loadu_ps(cp.add(j + 16));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = _mm512_set1_ps(a);
                    let b0 = _mm512_loadu_ps(b.add(r as usize * n + j));
                    let b1 = _mm512_loadu_ps(b.add(r as usize * n + j + 16));
                    c0 = _mm512_add_ps(c0, _mm512_mul_ps(av, b0));
                    c1 = _mm512_add_ps(c1, _mm512_mul_ps(av, b1));
                }
                _mm512_storeu_ps(cp.add(j), c0);
                _mm512_storeu_ps(cp.add(j + 16), c1);
                j += 32;
            }
            while j + 16 <= n {
                let mut c0 = _mm512_loadu_ps(cp.add(j));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = _mm512_set1_ps(a);
                    let b0 = _mm512_loadu_ps(b.add(r as usize * n + j));
                    c0 = _mm512_add_ps(c0, _mm512_mul_ps(av, b0));
                }
                _mm512_storeu_ps(cp.add(j), c0);
                j += 16;
            }
            while j < n {
                let mut cj = *cp.add(j);
                for (&a, &r) in avs.iter().zip(rows) {
                    cj += a * *b.add(r as usize * n + j);
                }
                *cp.add(j) = cj;
                j += 1;
            }
        }
    }

    /// Whole 8×8×`n` tile update `c[i*n+j] += Σ_k a[i*8+k] * rows[k][j]`
    /// (AVX2), register-blocked 4 output rows × 16 columns: four
    /// independent accumulator chains hide the add latency that a
    /// one-row-at-a-time kernel serializes on (per lane the adds *must*
    /// stay in ascending `k`, so the only legal ILP is across rows and
    /// column chunks), and every B load is shared by all four rows.
    /// Separate `mul` + `add` — never `vfmadd` — and ascending-`k`
    /// per-lane order keep results bit-identical to the scalar core.
    /// `rows[k]` is dereferenced only under a nonzero A slot in column
    /// `k`, preserving the zero-skip (`0 × Inf` must never be formed)
    /// and letting callers pass null for all-zero columns.
    ///
    /// SAFETY (caller): avx2 enabled; `c.len() == 8 * n`; each
    /// `rows[k]` whose column has a nonzero A slot is valid for `n`
    /// reads and does not alias `c`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mma_tile_avx2(
        a: &[f32; 64],
        rows: &[*const f32; 8],
        c: &mut [f32],
        n: usize,
    ) {
        let cp = c.as_mut_ptr();
        // SAFETY: row bases `cp + (ib+r)*n` plus offsets `< n` stay
        // inside `c` (len `8*n`); B loads happen only under a nonzero
        // A slot, per the caller contract above.
        unsafe {
            for ib in (0..8).step_by(4) {
                let cr = [
                    cp.add(ib * n),
                    cp.add((ib + 1) * n),
                    cp.add((ib + 2) * n),
                    cp.add((ib + 3) * n),
                ];
                let mut j = 0;
                while j + 16 <= n {
                    let mut s00 = _mm256_loadu_ps(cr[0].add(j));
                    let mut s01 = _mm256_loadu_ps(cr[0].add(j + 8));
                    let mut s10 = _mm256_loadu_ps(cr[1].add(j));
                    let mut s11 = _mm256_loadu_ps(cr[1].add(j + 8));
                    let mut s20 = _mm256_loadu_ps(cr[2].add(j));
                    let mut s21 = _mm256_loadu_ps(cr[2].add(j + 8));
                    let mut s30 = _mm256_loadu_ps(cr[3].add(j));
                    let mut s31 = _mm256_loadu_ps(cr[3].add(j + 8));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm256_loadu_ps(rows[k].add(j));
                        let b1 = _mm256_loadu_ps(rows[k].add(j + 8));
                        if a0 != 0.0 {
                            let av = _mm256_set1_ps(a0);
                            s00 = _mm256_add_ps(s00, _mm256_mul_ps(av, b0));
                            s01 = _mm256_add_ps(s01, _mm256_mul_ps(av, b1));
                        }
                        if a1 != 0.0 {
                            let av = _mm256_set1_ps(a1);
                            s10 = _mm256_add_ps(s10, _mm256_mul_ps(av, b0));
                            s11 = _mm256_add_ps(s11, _mm256_mul_ps(av, b1));
                        }
                        if a2 != 0.0 {
                            let av = _mm256_set1_ps(a2);
                            s20 = _mm256_add_ps(s20, _mm256_mul_ps(av, b0));
                            s21 = _mm256_add_ps(s21, _mm256_mul_ps(av, b1));
                        }
                        if a3 != 0.0 {
                            let av = _mm256_set1_ps(a3);
                            s30 = _mm256_add_ps(s30, _mm256_mul_ps(av, b0));
                            s31 = _mm256_add_ps(s31, _mm256_mul_ps(av, b1));
                        }
                    }
                    _mm256_storeu_ps(cr[0].add(j), s00);
                    _mm256_storeu_ps(cr[0].add(j + 8), s01);
                    _mm256_storeu_ps(cr[1].add(j), s10);
                    _mm256_storeu_ps(cr[1].add(j + 8), s11);
                    _mm256_storeu_ps(cr[2].add(j), s20);
                    _mm256_storeu_ps(cr[2].add(j + 8), s21);
                    _mm256_storeu_ps(cr[3].add(j), s30);
                    _mm256_storeu_ps(cr[3].add(j + 8), s31);
                    j += 16;
                }
                while j + 8 <= n {
                    let mut s0 = _mm256_loadu_ps(cr[0].add(j));
                    let mut s1 = _mm256_loadu_ps(cr[1].add(j));
                    let mut s2 = _mm256_loadu_ps(cr[2].add(j));
                    let mut s3 = _mm256_loadu_ps(cr[3].add(j));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm256_loadu_ps(rows[k].add(j));
                        if a0 != 0.0 {
                            s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(a0), b0));
                        }
                        if a1 != 0.0 {
                            s1 = _mm256_add_ps(s1, _mm256_mul_ps(_mm256_set1_ps(a1), b0));
                        }
                        if a2 != 0.0 {
                            s2 = _mm256_add_ps(s2, _mm256_mul_ps(_mm256_set1_ps(a2), b0));
                        }
                        if a3 != 0.0 {
                            s3 = _mm256_add_ps(s3, _mm256_mul_ps(_mm256_set1_ps(a3), b0));
                        }
                    }
                    _mm256_storeu_ps(cr[0].add(j), s0);
                    _mm256_storeu_ps(cr[1].add(j), s1);
                    _mm256_storeu_ps(cr[2].add(j), s2);
                    _mm256_storeu_ps(cr[3].add(j), s3);
                    j += 8;
                }
                // Scalar tail: per lane still ascending `k` with the
                // zero-skip, identical to the scalar kernel.
                while j < n {
                    for (r, &crp) in cr.iter().enumerate() {
                        let mut cj = *crp.add(j);
                        for k in 0..8 {
                            let av = a[(ib + r) * 8 + k];
                            if av != 0.0 {
                                cj += av * *rows[k].add(j);
                            }
                        }
                        *crp.add(j) = cj;
                    }
                    j += 1;
                }
            }
        }
    }

    /// [`mma_tile_avx2`] at 512-bit width: 4 output rows × 32 columns
    /// (2×zmm per row). Same bit-identity constraints — separate
    /// mul + add, ascending `k` per lane, B rows touched only under a
    /// nonzero A slot.
    ///
    /// SAFETY (caller): avx512f enabled; contract as in
    /// [`mma_tile_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn mma_tile_avx512(
        a: &[f32; 64],
        rows: &[*const f32; 8],
        c: &mut [f32],
        n: usize,
    ) {
        let cp = c.as_mut_ptr();
        // SAFETY: as in mma_tile_avx2.
        unsafe {
            for ib in (0..8).step_by(4) {
                let cr = [
                    cp.add(ib * n),
                    cp.add((ib + 1) * n),
                    cp.add((ib + 2) * n),
                    cp.add((ib + 3) * n),
                ];
                let mut j = 0;
                while j + 32 <= n {
                    let mut s00 = _mm512_loadu_ps(cr[0].add(j));
                    let mut s01 = _mm512_loadu_ps(cr[0].add(j + 16));
                    let mut s10 = _mm512_loadu_ps(cr[1].add(j));
                    let mut s11 = _mm512_loadu_ps(cr[1].add(j + 16));
                    let mut s20 = _mm512_loadu_ps(cr[2].add(j));
                    let mut s21 = _mm512_loadu_ps(cr[2].add(j + 16));
                    let mut s30 = _mm512_loadu_ps(cr[3].add(j));
                    let mut s31 = _mm512_loadu_ps(cr[3].add(j + 16));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm512_loadu_ps(rows[k].add(j));
                        let b1 = _mm512_loadu_ps(rows[k].add(j + 16));
                        if a0 != 0.0 {
                            let av = _mm512_set1_ps(a0);
                            s00 = _mm512_add_ps(s00, _mm512_mul_ps(av, b0));
                            s01 = _mm512_add_ps(s01, _mm512_mul_ps(av, b1));
                        }
                        if a1 != 0.0 {
                            let av = _mm512_set1_ps(a1);
                            s10 = _mm512_add_ps(s10, _mm512_mul_ps(av, b0));
                            s11 = _mm512_add_ps(s11, _mm512_mul_ps(av, b1));
                        }
                        if a2 != 0.0 {
                            let av = _mm512_set1_ps(a2);
                            s20 = _mm512_add_ps(s20, _mm512_mul_ps(av, b0));
                            s21 = _mm512_add_ps(s21, _mm512_mul_ps(av, b1));
                        }
                        if a3 != 0.0 {
                            let av = _mm512_set1_ps(a3);
                            s30 = _mm512_add_ps(s30, _mm512_mul_ps(av, b0));
                            s31 = _mm512_add_ps(s31, _mm512_mul_ps(av, b1));
                        }
                    }
                    _mm512_storeu_ps(cr[0].add(j), s00);
                    _mm512_storeu_ps(cr[0].add(j + 16), s01);
                    _mm512_storeu_ps(cr[1].add(j), s10);
                    _mm512_storeu_ps(cr[1].add(j + 16), s11);
                    _mm512_storeu_ps(cr[2].add(j), s20);
                    _mm512_storeu_ps(cr[2].add(j + 16), s21);
                    _mm512_storeu_ps(cr[3].add(j), s30);
                    _mm512_storeu_ps(cr[3].add(j + 16), s31);
                    j += 32;
                }
                while j + 16 <= n {
                    let mut s0 = _mm512_loadu_ps(cr[0].add(j));
                    let mut s1 = _mm512_loadu_ps(cr[1].add(j));
                    let mut s2 = _mm512_loadu_ps(cr[2].add(j));
                    let mut s3 = _mm512_loadu_ps(cr[3].add(j));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm512_loadu_ps(rows[k].add(j));
                        if a0 != 0.0 {
                            s0 = _mm512_add_ps(s0, _mm512_mul_ps(_mm512_set1_ps(a0), b0));
                        }
                        if a1 != 0.0 {
                            s1 = _mm512_add_ps(s1, _mm512_mul_ps(_mm512_set1_ps(a1), b0));
                        }
                        if a2 != 0.0 {
                            s2 = _mm512_add_ps(s2, _mm512_mul_ps(_mm512_set1_ps(a2), b0));
                        }
                        if a3 != 0.0 {
                            s3 = _mm512_add_ps(s3, _mm512_mul_ps(_mm512_set1_ps(a3), b0));
                        }
                    }
                    _mm512_storeu_ps(cr[0].add(j), s0);
                    _mm512_storeu_ps(cr[1].add(j), s1);
                    _mm512_storeu_ps(cr[2].add(j), s2);
                    _mm512_storeu_ps(cr[3].add(j), s3);
                    j += 16;
                }
                // Sub-zmm widths go through the AVX2 kernel shape: on
                // any avx512f host avx2 is present too, and the 8-lane
                // blocks beat a masked-zmm tail for the short-n case.
                if j < n {
                    while j + 8 <= n {
                        let mut s0 = _mm256_loadu_ps(cr[0].add(j));
                        let mut s1 = _mm256_loadu_ps(cr[1].add(j));
                        let mut s2 = _mm256_loadu_ps(cr[2].add(j));
                        let mut s3 = _mm256_loadu_ps(cr[3].add(j));
                        for k in 0..8 {
                            let a0 = a[ib * 8 + k];
                            let a1 = a[(ib + 1) * 8 + k];
                            let a2 = a[(ib + 2) * 8 + k];
                            let a3 = a[(ib + 3) * 8 + k];
                            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                                continue;
                            }
                            let b0 = _mm256_loadu_ps(rows[k].add(j));
                            if a0 != 0.0 {
                                s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(a0), b0));
                            }
                            if a1 != 0.0 {
                                s1 = _mm256_add_ps(s1, _mm256_mul_ps(_mm256_set1_ps(a1), b0));
                            }
                            if a2 != 0.0 {
                                s2 = _mm256_add_ps(s2, _mm256_mul_ps(_mm256_set1_ps(a2), b0));
                            }
                            if a3 != 0.0 {
                                s3 = _mm256_add_ps(s3, _mm256_mul_ps(_mm256_set1_ps(a3), b0));
                            }
                        }
                        _mm256_storeu_ps(cr[0].add(j), s0);
                        _mm256_storeu_ps(cr[1].add(j), s1);
                        _mm256_storeu_ps(cr[2].add(j), s2);
                        _mm256_storeu_ps(cr[3].add(j), s3);
                        j += 8;
                    }
                    while j < n {
                        for (r, &crp) in cr.iter().enumerate() {
                            let mut cj = *crp.add(j);
                            for k in 0..8 {
                                let av = a[(ib + r) * 8 + k];
                                if av != 0.0 {
                                    cj += av * *rows[k].add(j);
                                }
                            }
                            *crp.add(j) = cj;
                        }
                        j += 1;
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels, mirroring the AVX2 shapes at 4 lanes. Same
    //! bit-identity rules: separate `vmulq`/`vaddq` (never `vfmaq`),
    //! ascending-`k` per-lane order, scalar tails.

    use super::EXP_MASK;
    use crate::scalar::to_tf32;
    use core::arch::aarch64::*;

    /// SAFETY (caller): neon enabled; `src`/`dst` valid for `n`,
    /// identical or disjoint.
    #[target_feature(enable = "neon")]
    unsafe fn tf32_round_ptr_neon(src: *const f32, dst: *mut f32, n: usize) {
        let mut i = 0;
        // SAFETY: lane offsets `< n`; exact aliasing reads each lane
        // before writing it.
        unsafe {
            let exp = vdupq_n_u32(EXP_MASK);
            let keep = vdupq_n_u32(!0x1FFFu32);
            let half_minus_1 = vdupq_n_u32(0x0FFF);
            let one = vdupq_n_u32(1);
            while i + 4 <= n {
                let v = vreinterpretq_u32_f32(vld1q_f32(src.add(i)));
                let keep_lsb = vandq_u32(vshrq_n_u32::<13>(v), one);
                let bump = vaddq_u32(half_minus_1, keep_lsb);
                let rounded = vandq_u32(vaddq_u32(v, bump), keep);
                let is_special = vceqq_u32(vandq_u32(v, exp), exp);
                let out = vbslq_u32(is_special, v, rounded);
                vst1q_f32(dst.add(i), vreinterpretq_f32_u32(out));
                i += 4;
            }
            while i < n {
                *dst.add(i) = to_tf32(*src.add(i));
                i += 1;
            }
        }
    }

    /// SAFETY (caller): neon enabled.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn to_tf32_inplace_neon(xs: &mut [f32]) {
        // SAFETY: exact aliasing is the supported in-place mode.
        unsafe { tf32_round_ptr_neon(xs.as_ptr(), xs.as_mut_ptr(), xs.len()) }
    }

    /// SAFETY (caller): neon enabled; `src.len() == dst.len()`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn to_tf32_into_neon(src: &[f32], dst: &mut [f32]) {
        let n = src.len().min(dst.len());
        // SAFETY: `n` floats valid on both sides.
        unsafe { tf32_round_ptr_neon(src.as_ptr(), dst.as_mut_ptr(), n) }
    }

    /// One C-row update `crow[j] += Σ_t avs[t] * b[rows[t] * n + j]`
    /// (NEON): 8-lane (2×q) main blocks, then 4, then scalar tail.
    /// Separate mul + add, ascending `t` per lane.
    ///
    /// SAFETY (caller): neon enabled; for every `t`, `b` is valid for
    /// reads of `(rows[t] + 1) * crow.len()` floats, none aliasing `crow`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mma_row_neon(avs: &[f32], rows: &[u32], b: *const f32, crow: &mut [f32]) {
        let n = crow.len();
        let cp = crow.as_mut_ptr();
        let mut j = 0;
        // SAFETY: as in `x86::mma_row_avx2` — C offsets `< n`, B offsets
        // inside row `r`, `cp` sole mutable pointer.
        unsafe {
            while j + 8 <= n {
                let mut c0 = vld1q_f32(cp.add(j));
                let mut c1 = vld1q_f32(cp.add(j + 4));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = vdupq_n_f32(a);
                    let b0 = vld1q_f32(b.add(r as usize * n + j));
                    let b1 = vld1q_f32(b.add(r as usize * n + j + 4));
                    c0 = vaddq_f32(c0, vmulq_f32(av, b0));
                    c1 = vaddq_f32(c1, vmulq_f32(av, b1));
                }
                vst1q_f32(cp.add(j), c0);
                vst1q_f32(cp.add(j + 4), c1);
                j += 8;
            }
            while j + 4 <= n {
                let mut c0 = vld1q_f32(cp.add(j));
                for (&a, &r) in avs.iter().zip(rows) {
                    let av = vdupq_n_f32(a);
                    let b0 = vld1q_f32(b.add(r as usize * n + j));
                    c0 = vaddq_f32(c0, vmulq_f32(av, b0));
                }
                vst1q_f32(cp.add(j), c0);
                j += 4;
            }
            while j < n {
                let mut cj = *cp.add(j);
                for (&a, &r) in avs.iter().zip(rows) {
                    cj += a * *b.add(r as usize * n + j);
                }
                *cp.add(j) = cj;
                j += 1;
            }
        }
    }

    /// Whole 8×8×`n` tile update (NEON), register-blocked 4 output rows
    /// × 8 columns (2×q per row) — see `x86::mma_tile_avx2` for the
    /// ILP rationale and the bit-identity constraints (separate
    /// mul + add, ascending `k` per lane, B rows touched only under a
    /// nonzero A slot so null pointers for all-zero columns are fine).
    ///
    /// SAFETY (caller): neon enabled; `c.len() == 8 * n`; each
    /// `rows[k]` whose column has a nonzero A slot is valid for `n`
    /// reads and does not alias `c`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn mma_tile_neon(
        a: &[f32; 64],
        rows: &[*const f32; 8],
        c: &mut [f32],
        n: usize,
    ) {
        let cp = c.as_mut_ptr();
        // SAFETY: row bases plus offsets `< n` stay inside `c`; B loads
        // only under a nonzero A slot.
        unsafe {
            for ib in (0..8).step_by(4) {
                let cr = [
                    cp.add(ib * n),
                    cp.add((ib + 1) * n),
                    cp.add((ib + 2) * n),
                    cp.add((ib + 3) * n),
                ];
                let mut j = 0;
                while j + 8 <= n {
                    let mut s00 = vld1q_f32(cr[0].add(j));
                    let mut s01 = vld1q_f32(cr[0].add(j + 4));
                    let mut s10 = vld1q_f32(cr[1].add(j));
                    let mut s11 = vld1q_f32(cr[1].add(j + 4));
                    let mut s20 = vld1q_f32(cr[2].add(j));
                    let mut s21 = vld1q_f32(cr[2].add(j + 4));
                    let mut s30 = vld1q_f32(cr[3].add(j));
                    let mut s31 = vld1q_f32(cr[3].add(j + 4));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = vld1q_f32(rows[k].add(j));
                        let b1 = vld1q_f32(rows[k].add(j + 4));
                        if a0 != 0.0 {
                            let av = vdupq_n_f32(a0);
                            s00 = vaddq_f32(s00, vmulq_f32(av, b0));
                            s01 = vaddq_f32(s01, vmulq_f32(av, b1));
                        }
                        if a1 != 0.0 {
                            let av = vdupq_n_f32(a1);
                            s10 = vaddq_f32(s10, vmulq_f32(av, b0));
                            s11 = vaddq_f32(s11, vmulq_f32(av, b1));
                        }
                        if a2 != 0.0 {
                            let av = vdupq_n_f32(a2);
                            s20 = vaddq_f32(s20, vmulq_f32(av, b0));
                            s21 = vaddq_f32(s21, vmulq_f32(av, b1));
                        }
                        if a3 != 0.0 {
                            let av = vdupq_n_f32(a3);
                            s30 = vaddq_f32(s30, vmulq_f32(av, b0));
                            s31 = vaddq_f32(s31, vmulq_f32(av, b1));
                        }
                    }
                    vst1q_f32(cr[0].add(j), s00);
                    vst1q_f32(cr[0].add(j + 4), s01);
                    vst1q_f32(cr[1].add(j), s10);
                    vst1q_f32(cr[1].add(j + 4), s11);
                    vst1q_f32(cr[2].add(j), s20);
                    vst1q_f32(cr[2].add(j + 4), s21);
                    vst1q_f32(cr[3].add(j), s30);
                    vst1q_f32(cr[3].add(j + 4), s31);
                    j += 8;
                }
                while j + 4 <= n {
                    let mut s0 = vld1q_f32(cr[0].add(j));
                    let mut s1 = vld1q_f32(cr[1].add(j));
                    let mut s2 = vld1q_f32(cr[2].add(j));
                    let mut s3 = vld1q_f32(cr[3].add(j));
                    for k in 0..8 {
                        let a0 = a[ib * 8 + k];
                        let a1 = a[(ib + 1) * 8 + k];
                        let a2 = a[(ib + 2) * 8 + k];
                        let a3 = a[(ib + 3) * 8 + k];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = vld1q_f32(rows[k].add(j));
                        if a0 != 0.0 {
                            s0 = vaddq_f32(s0, vmulq_f32(vdupq_n_f32(a0), b0));
                        }
                        if a1 != 0.0 {
                            s1 = vaddq_f32(s1, vmulq_f32(vdupq_n_f32(a1), b0));
                        }
                        if a2 != 0.0 {
                            s2 = vaddq_f32(s2, vmulq_f32(vdupq_n_f32(a2), b0));
                        }
                        if a3 != 0.0 {
                            s3 = vaddq_f32(s3, vmulq_f32(vdupq_n_f32(a3), b0));
                        }
                    }
                    vst1q_f32(cr[0].add(j), s0);
                    vst1q_f32(cr[1].add(j), s1);
                    vst1q_f32(cr[2].add(j), s2);
                    vst1q_f32(cr[3].add(j), s3);
                    j += 4;
                }
                while j < n {
                    for (r, &crp) in cr.iter().enumerate() {
                        let mut cj = *crp.add(j);
                        for k in 0..8 {
                            let av = a[(ib + r) * 8 + k];
                            if av != 0.0 {
                                cj += av * *rows[k].add(j);
                            }
                        }
                        *crp.add(j) = cj;
                    }
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::splitmix64;

    /// NaN-position-exact bitwise comparison (payloads of competing
    /// NaNs are unspecified; coordinates must match).
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn specials() -> [f32; 7] {
        [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0e-41,                     // subnormal
            f32::from_bits(0x3F80_3000), // rounds up across the boundary
            f32::from_bits(0x0000_0001), // smallest subnormal
        ]
    }

    fn messy(seed: u64, len: usize) -> Vec<f32> {
        let sp = specials();
        (0..len)
            .map(|t| {
                let r = splitmix64(seed ^ t as u64) as u32;
                match r % 5 {
                    0 => 0.0,
                    1 => sp[(r as usize / 5) % sp.len()],
                    _ => f32::from_bits(r),
                }
            })
            .collect()
    }

    fn available_tiers() -> Vec<IsaTier> {
        IsaTier::ALL
            .into_iter()
            .filter(|t| {
                let ok = t.is_available();
                if !ok {
                    eprintln!("simd tests: tier '{t}' unavailable on this host, skipping");
                }
                ok
            })
            .collect()
    }

    #[test]
    fn codes_and_names_round_trip() {
        for t in IsaTier::ALL {
            assert_eq!(IsaTier::from_code(t.code()), Some(t));
            assert_eq!(IsaTier::from_name(t.name()), Some(t));
            assert_eq!(format!("{t}"), t.name());
        }
        assert_eq!(IsaTier::from_name("AVX512F"), Some(IsaTier::Avx512f));
        assert_eq!(IsaTier::from_name("bogus"), None);
        assert_eq!(IsaTier::from_code(9), None);
    }

    #[test]
    fn lanes_are_monotone_in_width() {
        assert_eq!(IsaTier::Scalar.simd_lanes(), 1);
        assert_eq!(IsaTier::Neon.simd_lanes(), 4);
        assert_eq!(IsaTier::Avx2Fma.simd_lanes(), 8);
        assert_eq!(IsaTier::Avx512f.simd_lanes(), 16);
    }

    #[test]
    fn scalar_always_available_and_best_is_available() {
        assert!(IsaTier::Scalar.is_available());
        assert!(IsaTier::detect_best().is_available());
        assert!(IsaTier::probe().is_available());
    }

    #[test]
    fn resolve_pins_and_rejects() {
        assert_eq!(
            IsaTier::resolve(Some(IsaTier::Scalar)).unwrap(),
            IsaTier::Scalar
        );
        assert!(IsaTier::resolve(None).unwrap().is_available());
        // Some tier is always unavailable on any given host (Neon on
        // x86, the AVX tiers elsewhere).
        if let Some(missing) = IsaTier::ALL.into_iter().find(|t| !t.is_available()) {
            let err = IsaTier::resolve(Some(missing)).unwrap_err();
            assert!(err.to_string().contains(missing.name()), "{err}");
        }
    }

    #[test]
    fn rounding_matches_scalar_on_every_tier() {
        let src = messy(0xF00D, 1031); // odd length exercises every tail
        for tier in available_tiers() {
            let mut want = src.clone();
            to_tf32_slice(&mut want);

            let mut inplace = src.clone();
            to_tf32_slice_tier(&mut inplace, tier);
            let mut into = vec![0.0f32; src.len()];
            to_tf32_slice_into_tier(&src, &mut into, tier);

            for i in 0..src.len() {
                assert_eq!(
                    inplace[i].to_bits(),
                    want[i].to_bits(),
                    "tier {tier} in-place elem {i}"
                );
                assert_eq!(
                    into[i].to_bits(),
                    want[i].to_bits(),
                    "tier {tier} into elem {i}"
                );
            }
        }
    }

    #[test]
    fn mma_prerounded_bit_identical_on_every_tier() {
        for n in [1usize, 3, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100] {
            let mut a_raw = [0.0f32; 64];
            for (t, slot) in a_raw.iter_mut().enumerate() {
                *slot = messy(77, 64)[t];
            }
            let mut a = a_raw;
            to_tf32_slice(&mut a);
            let mut b = messy(0xBEEF ^ n as u64, 8 * n);
            to_tf32_slice(&mut b);

            let mut want = vec![0.25f32; 8 * n];
            tf32_mma_8x8_prerounded(&a, &b, &mut want, n);

            for tier in available_tiers() {
                let mut got = vec![0.25f32; 8 * n];
                mma_8x8_prerounded_tier(&a, &b, &mut got, n, tier);
                for j in 0..8 * n {
                    assert!(
                        same(got[j], want[j]),
                        "tier {tier} n={n} elem {j}: {:#010X} vs {:#010X}",
                        got[j].to_bits(),
                        want[j].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn mma_rows_bit_identical_with_empty_zero_columns() {
        for n in [1usize, 5, 16, 33, 64] {
            let mut a = [0.0f32; 64];
            for (t, slot) in a.iter_mut().enumerate() {
                let r = splitmix64(0xA11 ^ t as u64) as u32;
                *slot = match r % 3 {
                    0 => 0.0,
                    _ => f32::from_bits(r),
                };
            }
            // Zero out one whole A column so its row may legally be empty.
            for i in 0..8 {
                a[i * 8 + 3] = 0.0;
            }
            to_tf32_slice(&mut a);
            let mut b = messy(0xCAFE ^ n as u64, 8 * n);
            to_tf32_slice(&mut b);
            let rows: [&[f32]; 8] = std::array::from_fn(|k| {
                if k == 3 {
                    &[][..]
                } else {
                    &b[k * n..(k + 1) * n]
                }
            });

            let mut want = vec![1.5f32; 8 * n];
            tf32_mma_8x8_rows(&a, &rows, &mut want, n);

            for tier in available_tiers() {
                let mut got = vec![1.5f32; 8 * n];
                mma_8x8_rows_tier(&a, &rows, &mut got, n, tier);
                for j in 0..8 * n {
                    assert!(
                        same(got[j], want[j]),
                        "tier {tier} n={n} elem {j}: {:#010X} vs {:#010X}",
                        got[j].to_bits(),
                        want[j].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn single_term_row_update_has_no_zero_skip_and_matches_scalar() {
        // The TCF per-edge update: one term, zero values multiplied too.
        for n in [1usize, 4, 9, 16, 27, 64] {
            let b = messy(0x5EED ^ n as u64, n);
            for v in [0.0f32, -0.0, 2.5, f32::NAN, f32::INFINITY] {
                let mut want = vec![0.75f32; n];
                for (cj, &bj) in want.iter_mut().zip(b.iter()) {
                    *cj += v * bj;
                }
                for tier in available_tiers() {
                    let mut got = vec![0.75f32; n];
                    mma_row_tier(&[v], &[0], &b, &mut got, tier);
                    for j in 0..n {
                        assert!(
                            same(got[j], want[j]),
                            "tier {tier} v={v} n={n} elem {j}: {:#010X} vs {:#010X}",
                            got[j].to_bits(),
                            want[j].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unavailable_tier_falls_back_to_scalar_bit_identically() {
        // Calling a wrapper with an unavailable tier (e.g. a tier read
        // from a foreign plan artifact) must fall back, not crash.
        let missing = IsaTier::ALL.into_iter().find(|t| !t.is_available());
        let Some(tier) = missing else { return };
        let src = messy(9, 100);
        let mut got = vec![0.0f32; 100];
        to_tf32_slice_into_tier(&src, &mut got, tier);
        let mut want = src.clone();
        to_tf32_slice(&mut want);
        for i in 0..100 {
            assert!(same(got[i], want[i]), "elem {i}");
        }
    }
}
