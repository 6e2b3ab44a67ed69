//! Validated wire format for G1/G2 points — the untrusted-input
//! boundary of the library.
//!
//! # Format
//!
//! Every encoding is a 1-byte tag followed by fixed-width big-endian
//! field bytes (`⌈bits(p)/8⌉` per F_p coefficient; F_q elements are the
//! concatenation `c0 ‖ c1 (‖ c2 ‖ c3)` in tower order):
//!
//! | tag    | payload            | meaning                              |
//! |--------|--------------------|--------------------------------------|
//! | `0x00` | all-zero, `L` or `2L` bytes | the point at infinity       |
//! | `0x02` | `x`, `L` bytes     | compressed, `y` is the lex-smaller root |
//! | `0x03` | `x`, `L` bytes     | compressed, `y` is the lex-larger root  |
//! | `0x04` | `x ‖ y`, `2L` bytes | uncompressed affine                 |
//!
//! where `L` is the field-element byte width ([`Curve::g1_wire_len`] /
//! [`Curve::g2_wire_len`] give the total lengths). The sign bit is `1`
//! iff `y` is lexicographically greater than `−y`, comparing F_q
//! elements from the highest tower coefficient down — so every point
//! has exactly one compressed and one uncompressed encoding, and both
//! round-trip bit-for-bit.
//!
//! # What decoding guarantees
//!
//! Decoding is *strict*: a returned point is on the right curve, in
//! the order-`r` pairing subgroup, and re-encodes to exactly the input
//! bytes. Anything else is a typed [`DecodeError`], checked in this
//! order:
//!
//! 1. length and tag ([`DecodeError::Length`] /
//!    [`DecodeError::InvalidTag`]);
//! 2. field canonicality — every coefficient must be `< p`
//!    ([`DecodeError::NonCanonicalField`]);
//! 3. infinity canonicality — tag `0x00` demands an all-zero payload
//!    ([`DecodeError::NonCanonicalInfinity`]);
//! 4. curve membership — `y² = x³ + b`, or for compressed input a
//!    square root must exist ([`DecodeError::NotOnCurve`]);
//! 5. sign canonicality — a zero `y` must carry sign bit `0`
//!    ([`DecodeError::NonCanonicalSign`]);
//! 6. subgroup membership via the certified fast checks of
//!    [`crate::subgroup`] ([`DecodeError::NotInSubgroup`]).
//!
//! The checks run cheapest-first so malformed traffic is rejected
//! before any expensive arithmetic. A wrong length costs a comparison.
//! A compressed x costs its square root: one F_p exponentiation for
//! G1, and about three for G2 over F_p2 (the norm method of
//! [`finesse_ff::TowerCtx::fq_sqrt`]; about ten on BLS24's F_p4). Only
//! curve points then reach the subgroup ladder, the largest single step
//! of an honest decode.
//!
//! Steps 4 and 6 are [`Curve::validate_g1`] / [`Curve::validate_g2`],
//! which every decode ends in and which check in-memory points the same
//! way. [`Curve::decode_g2`] remembers its successes, keyed by the exact
//! input bytes, in a bounded per-curve LRU, so a long-lived key is
//! decoded once while it stays warm; rejections are never remembered.

use crate::cache::PointKey;
use crate::curve::Curve;
use crate::point::Affine;
use finesse_ff::{FieldBytesError, Fp, Fq, TowerCtx};
use std::fmt;

/// Whether to emit the x-only (compressed) or full affine
/// (uncompressed) encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Compression {
    /// Tag `0x02`/`0x03` + x: half the bytes, one square root to
    /// decode.
    Compressed,
    /// Tag `0x04` + x + y: no square root on decode.
    Uncompressed,
}

/// Why a byte string was rejected by [`Curve::decode_g1`] /
/// [`Curve::decode_g2`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input length matches no encoding for this tag and group.
    Length {
        /// Expected total length in bytes (for the tag seen; `1` when
        /// the input was empty).
        expected: usize,
        /// Actual input length.
        got: usize,
    },
    /// The leading tag byte is not `0x00`/`0x02`/`0x03`/`0x04`.
    InvalidTag(u8),
    /// A field coefficient was `>= p` (every element has exactly one
    /// canonical byte encoding).
    NonCanonicalField,
    /// The coordinates satisfy no curve equation: `y² ≠ x³ + b`, or no
    /// square root exists for a compressed `x`.
    NotOnCurve,
    /// On the curve but outside the order-`r` pairing subgroup
    /// (small-subgroup / cofactor attack input).
    NotInSubgroup,
    /// Tag `0x00` with a payload that is not all zero.
    NonCanonicalInfinity,
    /// A sign bit that does not select a distinct root (`y = 0` must
    /// encode with sign `0`).
    NonCanonicalSign,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "wrong encoding length: expected {expected}, got {got}")
            }
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            DecodeError::NonCanonicalField => {
                f.write_str("field coefficient out of canonical range (>= p)")
            }
            DecodeError::NotOnCurve => f.write_str("coordinates are not on the curve"),
            DecodeError::NotInSubgroup => {
                f.write_str("point is outside the order-r pairing subgroup")
            }
            DecodeError::NonCanonicalInfinity => {
                f.write_str("infinity tag with a non-zero payload")
            }
            DecodeError::NonCanonicalSign => {
                f.write_str("sign bit does not match a canonical root")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<FieldBytesError> for DecodeError {
    fn from(e: FieldBytesError) -> Self {
        match e {
            // Field-level lengths are pre-checked by the decoders, so
            // a Length here still maps to the canonical-form failure.
            FieldBytesError::Length { .. } => DecodeError::NonCanonicalField,
            FieldBytesError::NonCanonical => DecodeError::NonCanonicalField,
        }
    }
}

/// Tag byte values (SEC1-inspired, but with an explicit payload after
/// the infinity tag so every encoding of a format has one length).
const TAG_INFINITY: u8 = 0x00;
const TAG_COMPRESSED_EVEN: u8 = 0x02;
const TAG_COMPRESSED_ODD: u8 = 0x03;
const TAG_UNCOMPRESSED: u8 = 0x04;

/// True iff `y` is lexicographically greater than `−y` (the canonical
/// sign bit) for a base-field coordinate.
pub(crate) fn fp_sign(y: &Fp) -> bool {
    if y.is_zero() {
        return false;
    }
    let v = y.to_biguint();
    let neg = (-y).to_biguint();
    v > neg
}

/// Same for a twist-field coordinate: compare from the highest tower
/// coefficient down.
pub(crate) fn fq_sign(tower: &TowerCtx, y: &Fq) -> bool {
    let neg = tower.fq_neg(y);
    for (a, b) in y.coeffs().iter().zip(neg.coeffs()).rev() {
        let (a, b) = (a.to_biguint(), b.to_biguint());
        if a != b {
            return a > b;
        }
    }
    false
}

impl Curve {
    /// Total G1 encoding length in bytes for `mode` (tag included).
    pub fn g1_wire_len(&self, mode: Compression) -> usize {
        let l = self.fp().byte_len();
        match mode {
            Compression::Compressed => 1 + l,
            Compression::Uncompressed => 1 + 2 * l,
        }
    }

    /// Total G2 encoding length in bytes for `mode` (tag included).
    pub fn g2_wire_len(&self, mode: Compression) -> usize {
        let l = self.tower().fq_byte_len();
        match mode {
            Compression::Compressed => 1 + l,
            Compression::Uncompressed => 1 + 2 * l,
        }
    }

    /// Encodes a G1 point (see the [module docs](self) for the
    /// format). The input is trusted — encode what you decoded or
    /// constructed; this function does not re-validate.
    pub fn encode_g1(&self, p: &Affine<Fp>, mode: Compression) -> Vec<u8> {
        let total = self.g1_wire_len(mode);
        if p.infinity {
            let mut out = vec![0u8; total];
            out[0] = TAG_INFINITY;
            return out;
        }
        let mut out = Vec::with_capacity(total);
        match mode {
            Compression::Compressed => {
                out.push(if fp_sign(&p.y) {
                    TAG_COMPRESSED_ODD
                } else {
                    TAG_COMPRESSED_EVEN
                });
                out.extend_from_slice(&p.x.to_bytes_be());
            }
            Compression::Uncompressed => {
                out.push(TAG_UNCOMPRESSED);
                out.extend_from_slice(&p.x.to_bytes_be());
                out.extend_from_slice(&p.y.to_bytes_be());
            }
        }
        out
    }

    /// Encodes a G2 point; same format with F_q coordinates.
    pub fn encode_g2(&self, q: &Affine<Fq>, mode: Compression) -> Vec<u8> {
        let total = self.g2_wire_len(mode);
        if q.infinity {
            let mut out = vec![0u8; total];
            out[0] = TAG_INFINITY;
            return out;
        }
        let tower = self.tower();
        let mut out = Vec::with_capacity(total);
        match mode {
            Compression::Compressed => {
                out.push(if fq_sign(tower, &q.y) {
                    TAG_COMPRESSED_ODD
                } else {
                    TAG_COMPRESSED_EVEN
                });
                out.extend_from_slice(&tower.fq_to_bytes_be(&q.x));
            }
            Compression::Uncompressed => {
                out.push(TAG_UNCOMPRESSED);
                out.extend_from_slice(&tower.fq_to_bytes_be(&q.x));
                out.extend_from_slice(&tower.fq_to_bytes_be(&q.y));
            }
        }
        out
    }

    /// Strictly decodes a G1 point, inferring compressed/uncompressed
    /// from the tag.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`] and the [module docs](self) for the exact
    /// validation order and guarantees.
    pub fn decode_g1(&self, bytes: &[u8]) -> Result<Affine<Fp>, DecodeError> {
        let l = self.fp().byte_len();
        let (tag, payload) = split_tag(bytes, l)?;
        let p = match tag {
            Tag::Infinity => Affine::infinity(self.fp().zero()),
            Tag::Uncompressed => {
                let x = self.fp().from_bytes_be(&payload[..l])?;
                let y = self.fp().from_bytes_be(&payload[l..])?;
                Affine::new(x, y)
            }
            Tag::Compressed(sign) => {
                let x = self.fp().from_bytes_be(payload)?;
                let rhs = &(&(&x * &x) * &x) + self.b();
                let Some(root) = rhs.sqrt() else {
                    return Err(DecodeError::NotOnCurve);
                };
                let y = if fp_sign(&root) == sign { root } else { -&root };
                // A zero y admits only sign 0 (its negation is itself).
                if fp_sign(&y) != sign {
                    return Err(DecodeError::NonCanonicalSign);
                }
                Affine::new(x, y)
            }
        };
        self.validate_g1(&p)?;
        Ok(p)
    }

    /// Strictly decodes a G2 point; same contract as
    /// [`Curve::decode_g1`].
    ///
    /// Long-lived keys (BLS public keys, a KZG `[τ]₂`) arrive over and
    /// over as the same bytes, so a successful decode is remembered in a
    /// per-curve LRU of 32 entries, the bound of the prepared-G2 cache.
    /// Its key is the exact input: a length word, then the bytes packed
    /// into `u64` words, not a digest, so a hit means byte equality and
    /// returns the point those bytes decoded to, without re-running the
    /// checks. Rejected inputs are never remembered: malformed bytes pay
    /// the full check, and get the same [`DecodeError`], every time. See
    /// [`Curve::g2_decode_cache_stats`].
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn decode_g2(&self, bytes: &[u8]) -> Result<Affine<Fq>, DecodeError> {
        let key = wire_key(bytes);
        if let Some(hit) = self.g2_decode_cache().get(&key) {
            return Ok((*hit).clone());
        }
        // The lock is not held across the decode, so threads decoding
        // distinct keys do not wait on each other; two threads missing on
        // the same bytes both decode, and the first insert wins.
        let q = self.decode_g2_strict(bytes)?;
        self.g2_decode_cache().get_or_insert_with(key, || q.clone());
        Ok(q)
    }

    /// `(len, capacity)` of the strict-decode cache behind
    /// [`Curve::decode_g2`]: observability for tests and capacity
    /// planning, not a stability guarantee.
    pub fn g2_decode_cache_stats(&self) -> (usize, usize) {
        let cache = self.g2_decode_cache();
        (cache.len(), cache.capacity())
    }

    /// The strict G2 decoder behind [`Curve::decode_g2`]'s cache.
    fn decode_g2_strict(&self, bytes: &[u8]) -> Result<Affine<Fq>, DecodeError> {
        let tower = self.tower();
        let l = tower.fq_byte_len();
        let (tag, payload) = split_tag(bytes, l)?;
        let q = match tag {
            Tag::Infinity => Affine::infinity(tower.fq_zero()),
            Tag::Uncompressed => {
                let x = tower.fq_from_bytes_be(&payload[..l])?;
                let y = tower.fq_from_bytes_be(&payload[l..])?;
                Affine::new(x, y)
            }
            Tag::Compressed(sign) => {
                let x = tower.fq_from_bytes_be(payload)?;
                let x3 = tower.fq_mul(&tower.fq_sqr(&x), &x);
                let rhs = tower.fq_add(&x3, self.b_twist());
                let Some(root) = tower.fq_sqrt(&rhs) else {
                    return Err(DecodeError::NotOnCurve);
                };
                let y = if fq_sign(tower, &root) == sign {
                    root
                } else {
                    tower.fq_neg(&root)
                };
                if fq_sign(tower, &y) != sign {
                    return Err(DecodeError::NonCanonicalSign);
                }
                Affine::new(x, y)
            }
        };
        self.validate_g2(&q)?;
        Ok(q)
    }

    /// Checks that an in-memory point is in G1: on `E(F_p)`
    /// ([`DecodeError::NotOnCurve`] otherwise), then in the order-`r`
    /// subgroup ([`DecodeError::NotInSubgroup`] otherwise), through the
    /// fast check of [`Curve::in_g1_subgroup`]. These are the last two
    /// checks of [`Curve::decode_g1`], which ends in this function; use
    /// it on points that did not come from a decoder before handing them
    /// to a pairing check. The identity passes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::NotOnCurve`] or [`DecodeError::NotInSubgroup`].
    pub fn validate_g1(&self, p: &Affine<Fp>) -> Result<(), DecodeError> {
        if !self.g1_on_curve(p) {
            return Err(DecodeError::NotOnCurve);
        }
        if !self.in_g1_subgroup(p) {
            return Err(DecodeError::NotInSubgroup);
        }
        Ok(())
    }

    /// The G2 counterpart of [`Curve::validate_g1`]: on the twist
    /// `E'(F_q)`, then in the order-`r` subgroup. Every strict G2 decode
    /// ends in it.
    ///
    /// # Errors
    ///
    /// [`DecodeError::NotOnCurve`] or [`DecodeError::NotInSubgroup`].
    pub fn validate_g2(&self, q: &Affine<Fq>) -> Result<(), DecodeError> {
        if !self.g2_on_curve(q) {
            return Err(DecodeError::NotOnCurve);
        }
        if !self.in_g2_subgroup(q) {
            return Err(DecodeError::NotInSubgroup);
        }
        Ok(())
    }
}

/// The exact-byte cache key of an encoding: its length, then its bytes
/// packed big-endian into `u64` words (the last one zero-padded, which
/// the length word disambiguates).
fn wire_key(bytes: &[u8]) -> PointKey {
    let mut key = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    key.push(bytes.len() as u64);
    key.extend(bytes.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_be_bytes(word)
    }));
    key
}

/// Parsed tag with the sign bit extracted.
enum Tag {
    Infinity,
    Compressed(bool),
    Uncompressed,
}

/// Splits and validates tag + length for a field-element width of `l`
/// bytes: compressed payloads are `l` bytes, uncompressed `2l`, and
/// infinity accepts either (all zero).
fn split_tag(bytes: &[u8], l: usize) -> Result<(Tag, &[u8]), DecodeError> {
    let Some((&tag, payload)) = bytes.split_first() else {
        return Err(DecodeError::Length {
            expected: 1,
            got: 0,
        });
    };
    match tag {
        TAG_INFINITY => {
            if payload.len() != l && payload.len() != 2 * l {
                return Err(DecodeError::Length {
                    expected: 1 + l,
                    got: bytes.len(),
                });
            }
            if payload.iter().any(|&b| b != 0) {
                return Err(DecodeError::NonCanonicalInfinity);
            }
            Ok((Tag::Infinity, payload))
        }
        TAG_COMPRESSED_EVEN | TAG_COMPRESSED_ODD => {
            if payload.len() != l {
                return Err(DecodeError::Length {
                    expected: 1 + l,
                    got: bytes.len(),
                });
            }
            Ok((Tag::Compressed(tag == TAG_COMPRESSED_ODD), payload))
        }
        TAG_UNCOMPRESSED => {
            if payload.len() != 2 * l {
                return Err(DecodeError::Length {
                    expected: 1 + 2 * l,
                    got: bytes.len(),
                });
            }
            Ok((Tag::Uncompressed, payload))
        }
        other => Err(DecodeError::InvalidTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_ff::BigUint;

    #[test]
    fn g1_g2_round_trip_bn254n() {
        let c = Curve::by_name("BN254N");
        for k in [1u64, 2, 99] {
            let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(k));
            let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(k));
            for mode in [Compression::Compressed, Compression::Uncompressed] {
                let pb = c.encode_g1(&p, mode);
                assert_eq!(pb.len(), c.g1_wire_len(mode));
                assert_eq!(c.decode_g1(&pb).unwrap(), p);
                let qb = c.encode_g2(&q, mode);
                assert_eq!(qb.len(), c.g2_wire_len(mode));
                assert_eq!(c.decode_g2(&qb).unwrap(), q);
            }
        }
        // Infinity round-trips in both formats.
        let inf_g1 = Affine::infinity(c.fp().zero());
        let inf_g2 = Affine::infinity(c.tower().fq_zero());
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            assert!(c.decode_g1(&c.encode_g1(&inf_g1, mode)).unwrap().infinity);
            assert!(c.decode_g2(&c.encode_g2(&inf_g2, mode)).unwrap().infinity);
        }
    }

    #[test]
    fn rejects_basic_malformed_inputs() {
        let c = Curve::by_name("BN254N");
        let p = c.g1_generator();
        let enc = c.encode_g1(p, Compression::Compressed);
        // Empty, truncated, extended.
        assert_eq!(
            c.decode_g1(&[]),
            Err(DecodeError::Length {
                expected: 1,
                got: 0
            })
        );
        assert!(matches!(
            c.decode_g1(&enc[..enc.len() - 1]),
            Err(DecodeError::Length { .. })
        ));
        // Bad tag.
        let mut bad = enc.clone();
        bad[0] = 0x07;
        assert_eq!(c.decode_g1(&bad), Err(DecodeError::InvalidTag(0x07)));
        // Non-canonical field: x = p.
        let mut bad = enc.clone();
        let pb = {
            let mut v = vec![0u8; c.fp().byte_len()];
            let limbs = c.p().to_fixed_limbs(v.len().div_ceil(8));
            for (i, limb) in limbs.iter().enumerate() {
                for j in 0..8 {
                    let idx = 8 * i + j;
                    if idx < v.len() {
                        let vlen = v.len();
                        v[vlen - 1 - idx] = (limb >> (8 * j)) as u8;
                    }
                }
            }
            v
        };
        bad[1..].copy_from_slice(&pb);
        assert_eq!(c.decode_g1(&bad), Err(DecodeError::NonCanonicalField));
        // Non-canonical infinity.
        let mut bad = c.encode_g1(&Affine::infinity(c.fp().zero()), Compression::Compressed);
        bad[3] = 1;
        assert_eq!(c.decode_g1(&bad), Err(DecodeError::NonCanonicalInfinity));
    }
}
