//! The keyed standard normals, a row chunk at a time, bit-exact without
//! libm.
//!
//! Photosite noise is the Box–Muller product
//! `(-2·ln u1).sqrt() · cos(2π·u2)` in f32 over the photosite's two keyed
//! draws (see the parent module). Its bits were first defined by the
//! platform's `f32::ln` and `f32::cos`, glibc's scalar `logf` and `cosf`;
//! on the sensor's random angles `cosf` mispredicts its quadrant branches
//! and costs more than the draws, `ln` and `sqrt` together. [`fill`]
//! computes the same bits with branch-free ports of glibc 2.36's `logf`
//! and `cosf`, in structure-of-arrays passes over one chunk of a row that
//! LLVM vectorizes: the keyed draws, the `logf` table lookup, the `logf`
//! polynomial with the square root, and `cosf`.
//!
//! # The ports
//!
//! Both functions are the Arm Optimized Routines algorithms (`math/logf.c`
//! and `math/cosf.c`, with their `logf_data.c`, `sincosf.h` and
//! `sincosf_data.c`; © Arm Limited, MIT OR Apache-2.0 WITH
//! LLVM-exception), which glibc ships since 2.28 under its
//! LGPL-2.1-or-later. Constants are the `f64` bit patterns of those
//! tables. Only the arithmetic the sensor's domains reach is kept:
//!
//! * `u1 = ε + k·2⁻²⁴·(1 − ε)` lies in `[ε, 1 − 2⁻²⁴]`, so `logf`'s
//!   `x == 1` and non-normal cases never fire;
//! * `x = 2π·k·2⁻²⁴` lies in `[0, 2π)`, so `cosf` never takes its large
//!   argument reduction; its result of exactly 1 below 2⁻¹² is what the
//!   cosine polynomial rounds to there, and its direct path below 0.75
//!   is the quadrant-0 reduction, which subtracts an exact zero.
//!
//! The quadrant `n = ((r as i32) + 2²³) >> 24` of `r = x·(2/π)·2²⁴` is
//! the count of thresholds `(k − ½)·2²⁴`, `k = 1..4`, that `r` reaches:
//! compares vectorize, where Rust's saturating `as i32` does not. Both
//! polynomials are evaluated and the quadrant's one selected, its sign
//! applied by an exact negation. Rust never contracts `a·b + c` into a
//! fused multiply-add, so the results are the same on every target. The
//! draws are functions of 24-bit integers, so the unit test
//! `keyed_normals_match_libm_on_every_input` compares the ports with
//! `f32::ln` and `f32::cos` on every input the sensor can produce.

use super::{splitmix64, uniform, GAMMA};

/// Photosites per chunk: five passes over stack arrays of this length.
pub(super) const CHUNK: usize = 64;

/// `1/c` of the 16 `logf` subintervals.
const INVC: [f64; 16] = [
    f64::from_bits(0x3FF6_61EC_79F8_F3BE),
    f64::from_bits(0x3FF5_71ED_4AAF_883D),
    f64::from_bits(0x3FF4_9539_F0F0_10B0),
    f64::from_bits(0x3FF3_C995_B0B8_0385),
    f64::from_bits(0x3FF3_0D19_0C88_64A5),
    f64::from_bits(0x3FF2_5E22_7B0B_8EA0),
    f64::from_bits(0x3FF1_BB4A_4A1A_343F),
    f64::from_bits(0x3FF1_2358_F08A_E5BA),
    f64::from_bits(0x3FF0_953F_4199_00A7),
    f64::from_bits(0x3FF0_0000_0000_0000),
    f64::from_bits(0x3FEE_608C_FD9A_47AC),
    f64::from_bits(0x3FEC_A4B3_1F02_6AA0),
    f64::from_bits(0x3FEB_2036_576A_FCE6),
    f64::from_bits(0x3FE9_C2D1_63A1_AA2D),
    f64::from_bits(0x3FE8_86E6_0378_41ED),
    f64::from_bits(0x3FE7_67DC_F553_4862),
];

/// `ln c` of the 16 `logf` subintervals.
const LOGC: [f64; 16] = [
    f64::from_bits(0xBFD5_7BF7_808C_AADE),
    f64::from_bits(0xBFD2_BEF0_A7C0_6DDB),
    f64::from_bits(0xBFD0_1EAE_7F51_3A67),
    f64::from_bits(0xBFCB_31D8_A682_24E9),
    f64::from_bits(0xBFC6_574F_0AC0_7758),
    f64::from_bits(0xBFC1_AA2B_C79C_8100),
    f64::from_bits(0xBFBA_4E76_CE8C_0E5E),
    f64::from_bits(0xBFB1_973C_5A61_1CCC),
    f64::from_bits(0xBFA2_52F4_38E1_0C1E),
    f64::from_bits(0x0000_0000_0000_0000),
    f64::from_bits(0x3FAA_A5AA_5DF2_5984),
    f64::from_bits(0x3FBC_5E53_AA36_2EB4),
    f64::from_bits(0x3FC5_26E5_7720_DB08),
    f64::from_bits(0x3FCB_C286_0D22_4770),
    f64::from_bits(0x3FD1_058B_C8A0_7EE1),
    f64::from_bits(0x3FD4_0430_57B6_EE09),
];

/// `logf`'s `log1p` polynomial and `ln 2`.
const A0: f64 = f64::from_bits(0xBFD0_0EA3_48B8_8334);
const A1: f64 = f64::from_bits(0x3FD5_575B_0BE0_0B6A);
const A2: f64 = f64::from_bits(0xBFDF_FFFE_F20A_4123);
const LN2: f64 = f64::from_bits(0x3FE6_2E42_FEFA_39EF);
/// `logf`'s subinterval offset: `0x3f33_0000` is the bits of about 0.7.
const OFF: u32 = 0x3F33_0000;

/// `2/π·2²⁴` and `π/2` of `cosf`'s fast reduction.
const HPI_INV: f64 = f64::from_bits(0x4164_5F30_6DC9_C883);
const HPI: f64 = f64::from_bits(0x3FF9_21FB_5444_2D18);
/// `cosf`'s cosine polynomial.
const C0: f64 = f64::from_bits(0x3FF0_0000_0000_0000);
const C1: f64 = f64::from_bits(0xBFDF_FFFF_FD0C_621C);
const C2: f64 = f64::from_bits(0x3FA5_5553_E106_8F19);
const C3: f64 = f64::from_bits(0xBF56_C087_E89A_359D);
const C4: f64 = f64::from_bits(0x3EF9_9343_027B_F8C3);
/// `cosf`'s sine polynomial.
const S1: f64 = f64::from_bits(0xBFC5_5554_5995_A603);
const S2: f64 = f64::from_bits(0x3F81_1076_0523_0BC4);
const S3: f64 = f64::from_bits(0xBF29_94EB_3774_CF24);
/// The quadrant thresholds `(k − ½)·2²⁴` of `r = x·HPI_INV`.
const QUADRANT: [f64; 4] =
    [0.5 * 16_777_216.0, 1.5 * 16_777_216.0, 2.5 * 16_777_216.0, 3.5 * 16_777_216.0];

/// The Box–Muller inputs of one photosite's draws `z1` and `z2`: `u1`
/// and the angle `2π·u2`.
#[inline(always)]
fn box_muller_inputs(z1: u64, z2: u64) -> (f32, f32) {
    let u1 = uniform(f32::EPSILON, 1.0, z1);
    let u2 = uniform(0.0, 1.0, z2);
    (u1, 2.0 * std::f32::consts::PI * u2)
}

/// `logf`'s reduction of `x`'s bits `ix`: `z` in `[0.7, 1.4)` with
/// `x = 2ᵏ·z`, its subinterval's `1/c`, and `ln c + k·ln 2`.
#[inline(always)]
fn logf_reduce(ix: u32) -> (f64, f64, f64) {
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 19) % 16) as usize;
    let k = (tmp as i32) >> 23;
    let z = f32::from_bits(ix.wrapping_sub(tmp & 0xFF80_0000)) as f64;
    (z, INVC[i], LOGC[i] + k as f64 * LN2)
}

/// `logf` from its reduction: `ln c + k·ln 2 + log1p(z/c − 1)`.
#[inline(always)]
fn logf_poly(z: f64, invc: f64, y0: f64) -> f32 {
    let r = z * invc - 1.0;
    let r2 = r * r;
    let y = A1 * r + A2;
    let y = A0 * r2 + y;
    let y = y * r2 + (y0 + r);
    y as f32
}

/// `cosf` on `[0, 2π)`.
#[inline(always)]
fn cosf(y: f32) -> f32 {
    let x = y as f64;
    let r = x * HPI_INV;
    let [q1, q2, q3, q4] = QUADRANT.map(|t| r >= t);
    let n = f64::from(u8::from(q1) + u8::from(q2) + u8::from(q3) + u8::from(q4));
    let xr = x - n * HPI;
    let x2 = xr * xr;
    // Quadrants 1 and 3: the sine polynomial.
    let x3 = xr * x2;
    let s1 = S2 + x2 * S3;
    let x7 = x3 * x2;
    let s = xr + x3 * S1;
    let sin = s + x7 * s1;
    // Quadrants 0, 2 and 4: the cosine polynomial.
    let x4 = x2 * x2;
    let c2 = C3 + x2 * C4;
    let c1 = C0 + x2 * C1;
    let x6 = x4 * x2;
    let c = c1 + x4 * C2;
    let cos = c + x6 * c2;
    let odd = (q1 & !q2) | (q3 & !q4);
    let v = if odd { sin } else { cos };
    // Quadrants 1 and 2 are negative: glibc's sine sign and negated
    // cosine table, both exact negations.
    (if q1 & !q3 { -v } else { v }) as f32
}

/// Fills `out` with the standard normals of consecutive photosites, the
/// first of which draws its pair at counters `first` and `first + γ`.
///
/// # Panics
///
/// Panics if `out` is longer than [`CHUNK`].
#[inline(always)]
pub(super) fn fill(first: u64, out: &mut [f32]) {
    let n = out.len();
    let mut ix = [0u32; CHUNK];
    let mut angle = [0f32; CHUNK];
    let mut counter = first;
    for (ix, angle) in ix[..n].iter_mut().zip(&mut angle[..n]) {
        let (u1, x) =
            box_muller_inputs(splitmix64(counter), splitmix64(counter.wrapping_add(GAMMA)));
        (*ix, *angle) = (u1.to_bits(), x);
        counter = counter.wrapping_add(GAMMA.wrapping_mul(2));
    }
    let (mut z, mut invc, mut y0) = ([0f64; CHUNK], [0f64; CHUNK], [0f64; CHUNK]);
    for (j, &ix) in ix[..n].iter().enumerate() {
        (z[j], invc[j], y0[j]) = logf_reduce(ix);
    }
    let mut radius = [0f32; CHUNK];
    for (j, radius) in radius[..n].iter_mut().enumerate() {
        *radius = (-2.0 * logf_poly(z[j], invc[j], y0[j])).sqrt();
    }
    for ((out, &radius), &angle) in out.iter_mut().zip(&radius[..n]).zip(&angle[..n]) {
        *out = radius * cosf(angle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logf(x: f32) -> f32 {
        let (z, invc, y0) = logf_reduce(x.to_bits());
        logf_poly(z, invc, y0)
    }

    #[test]
    fn keyed_normals_match_libm_on_every_input() {
        // `u1` and `u2` are functions of the top 24 bits of their draws,
        // so these are all the arguments the sensor passes.
        let (mut ln_mismatches, mut cos_mismatches) = (0u32, 0u32);
        for k in 0..1u64 << 24 {
            let (u1, x) = box_muller_inputs(k << 40, k << 40);
            ln_mismatches += u32::from(logf(u1).to_bits() != u1.ln().to_bits());
            cos_mismatches += u32::from(cosf(x).to_bits() != x.cos().to_bits());
        }
        assert_eq!((ln_mismatches, cos_mismatches), (0, 0), "(ln, cos) inputs that differ");
    }
}
