//! The benchmark's own seeded input generator.
//!
//! Every input a workload sends — keys, messages, polynomials, evaluation
//! points, malformed encodings — comes from a splitmix64 stream seeded by
//! `--seed`, independent of any transcript inside the library, so the
//! same seed always produces byte-identical requests and the library only
//! ever sees the generated bytes and points.

use finesse_curves::{Affine, Compression, Curve, DecodeError};
use finesse_ff::{BigUint, Fp};

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for one purpose: the seed mixed with a label, so the
    /// keys, messages and mix schedule of a workload never share a
    /// sequence.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁵⁰ for the
    /// small ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// A non-zero scalar below `r`.
    pub fn scalar(&mut self, r: &BigUint) -> BigUint {
        loop {
            let limbs = (0..r.bits() / 64 + 2).map(|_| self.next_u64()).collect();
            let k = BigUint::from_limbs(limbs).rem(r);
            if !k.is_zero() {
                return k;
            }
        }
    }

    /// A non-zero 128-bit scalar (the width of a batch randomizer).
    pub fn short_scalar(&mut self) -> BigUint {
        let hi = u128::from(self.next_u64()) << 64;
        BigUint::from_u128(hi | u128::from(self.next_u64() | 1))
    }
}

/// The malformed encodings a faulty batch carries, one per rejection
/// the strict decoder must report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    Length,
    NonCanonicalField,
    NotOnCurve,
    NotInSubgroup,
}

impl Reject {
    /// The rotation a curve supports: an off-subgroup G1 point exists
    /// only when the G1 cofactor is above one (BLS, not BN).
    pub fn rotation(curve: &Curve) -> Vec<Reject> {
        let mut all = vec![
            Reject::Length,
            Reject::NonCanonicalField,
            Reject::NotOnCurve,
        ];
        if !curve.g1_cofactor().is_one() {
            all.push(Reject::NotInSubgroup);
        }
        all
    }

    /// The rejection a decode error reports, if it is one of these.
    pub fn of(e: &DecodeError) -> Option<Reject> {
        match e {
            DecodeError::Length { .. } => Some(Reject::Length),
            DecodeError::NonCanonicalField => Some(Reject::NonCanonicalField),
            DecodeError::NotOnCurve => Some(Reject::NotOnCurve),
            DecodeError::NotInSubgroup => Some(Reject::NotInSubgroup),
            _ => None,
        }
    }
}

/// A G1 encoding the strict decoder must reject with `kind`, built from
/// a valid compressed signature `valid`.
pub fn malformed_g1(curve: &Curve, kind: Reject, valid: &[u8], rng: &mut Rng) -> Vec<u8> {
    let width = curve.fp().byte_len();
    match kind {
        Reject::Length => valid[..valid.len() - 1].to_vec(),
        Reject::NonCanonicalField => {
            let mut out = vec![valid[0]];
            out.extend(bytes_be(curve.p(), width));
            out
        }
        Reject::NotOnCurve => {
            // Walk x forward from a random start until x³ + b has no root.
            let mut xi = rng.next_u64() >> 12;
            loop {
                let x = curve.fp().from_u64(xi);
                if (&(&(&x * &x) * &x) + curve.b()).sqrt().is_none() {
                    let mut out = vec![valid[0]];
                    out.extend(bytes_be(&BigUint::from_u64(xi), width));
                    return out;
                }
                xi += 1;
            }
        }
        Reject::NotInSubgroup => {
            // A curve point found by x-increment without cofactor
            // clearing, as in the wire-format tests.
            let mut xi = rng.next_u64() >> 12;
            loop {
                let x = curve.fp().from_u64(xi);
                if let Some(y) = (&(&(&x * &x) * &x) + curve.b()).sqrt() {
                    let p: Affine<Fp> = Affine::new(x, y);
                    if !curve.in_g1_subgroup(&p) {
                        return curve.encode_g1(&p, Compression::Compressed);
                    }
                }
                xi += 1;
            }
        }
    }
}

/// Fixed-width big-endian bytes of `v`.
fn bytes_be(v: &BigUint, width: usize) -> Vec<u8> {
    let mut out = vec![0u8; width];
    for (i, limb) in v.to_fixed_limbs(width.div_ceil(8)).iter().enumerate() {
        for j in 0..8 {
            let idx = 8 * i + j;
            if idx < width {
                out[width - 1 - idx] = (limb >> (8 * j)) as u8;
            }
        }
    }
    out
}
