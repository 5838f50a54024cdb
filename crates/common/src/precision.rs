//! Reduced-precision operand emulation beyond TF32.
//!
//! Tensor cores support several operand datatypes (the paper focuses on
//! TF32; Magicube-style kernels trade precision for throughput with FP16
//! and below). Each mode here rounds an `f32` operand to the target
//! type's representable set with round-to-nearest-even, keeping FP32
//! accumulation — matching how the hardware MMA units behave.

use crate::scalar::to_tf32;

/// Tensor-core operand precisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full FP32 (CUDA-core path; no operand rounding).
    Fp32,
    /// TF32: 8-bit exponent, 10-bit mantissa (the paper's datatype).
    Tf32,
    /// BF16: 8-bit exponent, 7-bit mantissa.
    Bf16,
    /// FP16: 5-bit exponent, 10-bit mantissa (overflow saturates to ±∞,
    /// as the conversion instruction does).
    Fp16,
}

impl Precision {
    /// All supported modes, highest precision first.
    pub const ALL: [Precision; 4] = [
        Precision::Fp32,
        Precision::Tf32,
        Precision::Bf16,
        Precision::Fp16,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::Fp32 => "FP32",
            Precision::Tf32 => "TF32",
            Precision::Bf16 => "BF16",
            Precision::Fp16 => "FP16",
        }
    }

    /// Mantissa bits retained by the operand type.
    pub fn mantissa_bits(&self) -> u32 {
        match self {
            Precision::Fp32 => 23,
            Precision::Tf32 | Precision::Fp16 => 10,
            Precision::Bf16 => 7,
        }
    }

    /// Relative tensor-core MMA throughput versus TF32 on Ampere-class
    /// hardware (FP16/BF16 run at 2× the TF32 rate; FP32 emulation on
    /// tensor cores is unavailable — modeled at CUDA-core relative rate).
    pub fn relative_throughput(&self) -> f64 {
        match self {
            Precision::Fp32 => 0.125,
            Precision::Tf32 => 1.0,
            Precision::Bf16 | Precision::Fp16 => 2.0,
        }
    }
}

/// Round to BF16 (truncate to 7 mantissa bits, RNE).
#[inline]
pub fn to_bf16(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let round_bit = 1u32 << 15;
    let keep_lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add((round_bit - 1) + keep_lsb) & !0xFFFF;
    f32::from_bits(rounded)
}

/// Round to FP16 through an exact half-precision conversion
/// (RNE, saturating overflow to ±∞, flushing true halfs denormals is
/// modeled as gradual underflow like the hardware's F2F instruction).
#[inline]
pub fn to_fp16(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    const F16_MAX: f32 = 65504.0;
    if x.abs() > F16_MAX {
        return if x > 0.0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    if x == 0.0 {
        return x;
    }
    let exp = x.abs().log2().floor() as i32;
    if exp < -14 {
        // Subnormal range: fixed quantum of 2^-24.
        let q = (x / 2.0f32.powi(-24)).round_ties_even();
        return q * 2.0f32.powi(-24);
    }
    // Normal range: 10 mantissa bits -> quantum 2^(exp-10).
    let quantum = 2.0f32.powi(exp - 10);
    (x / quantum).round_ties_even() * quantum
}

/// Round an operand to the given precision.
#[inline]
pub fn round_to(x: f32, p: Precision) -> f32 {
    match p {
        Precision::Fp32 => x,
        Precision::Tf32 => to_tf32(x),
        Precision::Bf16 => to_bf16(x),
        Precision::Fp16 => to_fp16(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_hierarchy_on_random_values() {
        // More mantissa bits -> no larger rounding error, pointwise.
        let mut worst = [0.0f64; 4];
        for i in 0..2000u64 {
            let h = crate::util::splitmix64(i);
            let x = ((h >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 100.0;
            if x == 0.0 {
                continue;
            }
            for (j, p) in Precision::ALL.iter().enumerate() {
                let err = ((round_to(x, *p) - x) / x).abs() as f64;
                worst[j] = worst[j].max(err);
            }
        }
        assert_eq!(worst[0], 0.0, "FP32 is exact");
        assert!(worst[1] <= 2.0f64.powi(-11) * 1.001, "TF32 bound");
        assert!(
            worst[3] <= 2.0f64.powi(-11) * 1.001,
            "FP16 bound (normal range)"
        );
        assert!(worst[2] <= 2.0f64.powi(-8) * 1.001, "BF16 bound");
        assert!(worst[2] > worst[1], "BF16 coarser than TF32");
    }

    #[test]
    fn bf16_clears_low_16_bits() {
        for &x in &[1.2345f32, -777.77, 3e-20] {
            assert_eq!(to_bf16(x).to_bits() & 0xFFFF, 0);
        }
        assert!(to_bf16(f32::NAN).is_nan());
    }

    #[test]
    fn fp16_saturates_and_handles_subnormals() {
        assert_eq!(to_fp16(1e6), f32::INFINITY);
        assert_eq!(to_fp16(-1e6), f32::NEG_INFINITY);
        assert_eq!(to_fp16(65504.0), 65504.0, "f16 max is exact");
        assert_eq!(to_fp16(0.0), 0.0);
        // Smallest f16 subnormal is 2^-24; half of it rounds to zero
        // (ties-to-even), anything above half rounds up.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(to_fp16(tiny), tiny);
        assert_eq!(to_fp16(tiny * 0.4), 0.0);
        assert_eq!(to_fp16(1.0 + 1.0 / 4096.0), 1.0, "below the f16 ULP");
    }

    #[test]
    fn tf32_and_fp16_agree_on_small_integers() {
        // Both carry 10 mantissa bits: integers up to 2048 are exact.
        for i in 0..2048 {
            let x = i as f32;
            assert_eq!(round_to(x, Precision::Tf32), x);
            assert_eq!(round_to(x, Precision::Fp16), x);
        }
    }

    #[test]
    fn relative_throughput_ordering() {
        assert!(Precision::Fp16.relative_throughput() > Precision::Tf32.relative_throughput());
        assert!(Precision::Tf32.relative_throughput() > Precision::Fp32.relative_throughput());
        assert_eq!(Precision::Tf32.mantissa_bits(), 10);
        assert_eq!(Precision::Bf16.name(), "BF16");
    }
}
