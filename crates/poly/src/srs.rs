//! The KZG structured reference string and its canonical wire format.
//!
//! An [`Srs`] is the powers-of-tau string `([τⁱ]G1 for i ≤ d, [τ]G2)`
//! for a secret τ. [`Srs::generate`] plays the role of the trusted
//! setup: τ is drawn from a seeded transcript, the powers are computed
//! by fixed-base multiplication (riding the generator's cached comb
//! tables), and τ itself is dropped before the function returns — the
//! caller only ever holds the group elements. Determinism from the seed
//! makes test and bench setups reproducible; a production deployment
//! would substitute a multi-party ceremony's output via
//! [`Srs::from_bytes`].
//!
//! The wire format follows the workspace's strict-decoding contract
//! (see `finesse-curves::wire`): a versioned header binds the curve by
//! name, every point record carries an explicit length prefix that must
//! equal the curve's canonical compressed length, and each point passes
//! the full strict decode (canonical bytes, on-curve, prime-order
//! subgroup) — so a decoded SRS is always a structurally valid string
//! of subgroup points, and every rejection is a typed [`SrsError`].
//! What the format does *not* prove is the powers-of-tau relation
//! between consecutive points; that is the ceremony transcript's job,
//! not the serialization layer's.

use finesse_core::SrsError;
use finesse_curves::{Affine, Compression, Curve};
use finesse_ff::{Fp, Fq};
use finesse_pairing::{SplitMix64Transcript, Transcript};
use std::sync::Arc;

/// Wire magic for a serialized SRS.
const MAGIC: [u8; 4] = *b"FSRS";
/// Current wire version.
const VERSION: u8 = 1;

/// A KZG structured reference string over one curve.
#[derive(Debug, Clone)]
pub struct Srs {
    curve: Arc<Curve>,
    powers_g1: Vec<Affine<Fp>>,
    tau_g2: Affine<Fq>,
}

impl Srs {
    /// Generates a fresh SRS supporting commitments up to `max_degree`,
    /// with τ drawn deterministically from `seed` (domain-separated per
    /// curve). The `max_degree + 1` G1 powers all ride the generator's
    /// fixed-base comb, so setup costs one fixed-base multiplication
    /// per power rather than a variable-base one.
    pub fn generate(curve: &Arc<Curve>, max_degree: usize, seed: &[u8]) -> Self {
        let r = curve.r();
        let mut transcript = SplitMix64Transcript::new(b"finesse-srs-tau-v1");
        transcript.absorb_bytes(curve.name().as_bytes());
        transcript.absorb_bytes(seed);
        // τ = 0 would collapse every power past the first; redraw (the
        // loop terminates immediately in practice — P[0] ≈ 2⁻²⁵⁴).
        let mut tau = transcript.challenge_scalar(r);
        while tau.is_zero() {
            tau = transcript.challenge_scalar(r);
        }

        let g1 = curve.g1_generator();
        let tau_fr = curve.fr().from_biguint(&tau);
        let mut powers_g1 = Vec::with_capacity(max_degree + 1);
        let mut tau_i = curve.fr().one();
        for _ in 0..=max_degree {
            powers_g1.push(curve.g1_mul(g1, &tau_i.to_biguint()));
            tau_i.mul_assign(&tau_fr);
        }
        let tau_g2 = curve.g2_mul(curve.g2_generator(), &tau);
        Srs {
            curve: Arc::clone(curve),
            powers_g1,
            tau_g2,
        }
    }

    /// The curve this SRS lives on.
    pub fn curve(&self) -> &Arc<Curve> {
        &self.curve
    }

    /// The highest polynomial degree this SRS can commit to.
    pub fn max_degree(&self) -> usize {
        self.powers_g1.len().saturating_sub(1)
    }

    /// The G1 powers `[τⁱ]G1`, index i holding the τⁱ power.
    pub fn powers_g1(&self) -> &[Affine<Fp>] {
        &self.powers_g1
    }

    /// `[τ]G2`, the verifier's side of the string.
    pub fn tau_g2(&self) -> &Affine<Fq> {
        &self.tau_g2
    }

    /// Canonical serialization: header (magic, version, curve name,
    /// G1-power count) followed by one length-prefixed compressed
    /// record per point — the G1 powers in order, then `[τ]G2`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.curve.name().as_bytes();
        let g1_len = self.curve.g1_wire_len(Compression::Compressed);
        let g2_len = self.curve.g2_wire_len(Compression::Compressed);
        let mut out = Vec::with_capacity(
            4 + 1 + 4 + name.len() + 4 + self.powers_g1.len() * (4 + g1_len) + 4 + g2_len,
        );
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(self.powers_g1.len() as u32).to_be_bytes());
        for p in &self.powers_g1 {
            let enc = self.curve.encode_g1(p, Compression::Compressed);
            out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
            out.extend_from_slice(&enc);
        }
        let enc = self.curve.encode_g2(&self.tau_g2, Compression::Compressed);
        out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
        out.extend_from_slice(&enc);
        out
    }

    /// Strict decode of an untrusted SRS encoding against `curve`.
    ///
    /// Accepts exactly the strings [`Srs::to_bytes`] produces for this
    /// curve; anything else — wrong magic or version, another curve's
    /// name, zero powers, a mis-sized or truncated record, a
    /// non-canonical / off-curve / wrong-subgroup point, or trailing
    /// bytes — is rejected with the [`SrsError`] naming the defect.
    ///
    /// # Errors
    ///
    /// See [`SrsError`]; point indices count the G1 powers first, then
    /// the final `[τ]G2` record.
    pub fn from_bytes(curve: &Arc<Curve>, bytes: &[u8]) -> Result<Self, SrsError> {
        let mut pos = 0usize;
        let magic = take(bytes, &mut pos, 4).ok_or(SrsError::TruncatedHeader)?;
        if magic != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(magic);
            return Err(SrsError::BadMagic(m));
        }
        let version = *take(bytes, &mut pos, 1)
            .and_then(<[u8]>::first)
            .ok_or(SrsError::TruncatedHeader)?;
        if version != VERSION {
            return Err(SrsError::UnsupportedVersion(version));
        }
        let name_len = take_u32(bytes, &mut pos).ok_or(SrsError::TruncatedHeader)? as usize;
        let name = take(bytes, &mut pos, name_len).ok_or(SrsError::TruncatedHeader)?;
        if name != curve.name().as_bytes() {
            return Err(SrsError::CurveMismatch {
                expected: curve.name().to_string(),
                found: String::from_utf8_lossy(name).into_owned(),
            });
        }
        let count = take_u32(bytes, &mut pos).ok_or(SrsError::TruncatedHeader)? as usize;
        if count == 0 {
            return Err(SrsError::Empty);
        }

        let g1_len = curve.g1_wire_len(Compression::Compressed);
        let g2_len = curve.g2_wire_len(Compression::Compressed);
        // Record sizes are fixed per curve, so the exact remaining
        // length is known up front — bail before looping over an
        // attacker-chosen count the buffer cannot possibly hold.
        let need = count * (4 + g1_len) + 4 + g2_len;
        if bytes.len().saturating_sub(pos) < need {
            let have = bytes.len().saturating_sub(pos);
            let index = have / (4 + g1_len);
            return Err(SrsError::TruncatedPoint {
                index: index.min(count),
            });
        }

        let mut powers_g1 = Vec::with_capacity(count);
        for index in 0..count {
            let declared =
                take_u32(bytes, &mut pos).ok_or(SrsError::TruncatedPoint { index })? as usize;
            if declared != g1_len {
                return Err(SrsError::PointLength {
                    index,
                    declared,
                    expected: g1_len,
                });
            }
            let enc = take(bytes, &mut pos, declared).ok_or(SrsError::TruncatedPoint { index })?;
            let p = curve
                .decode_g1(enc)
                .map_err(|source| SrsError::Point { index, source })?;
            powers_g1.push(p);
        }
        let index = count;
        let declared =
            take_u32(bytes, &mut pos).ok_or(SrsError::TruncatedPoint { index })? as usize;
        if declared != g2_len {
            return Err(SrsError::PointLength {
                index,
                declared,
                expected: g2_len,
            });
        }
        let enc = take(bytes, &mut pos, declared).ok_or(SrsError::TruncatedPoint { index })?;
        let tau_g2 = curve
            .decode_g2(enc)
            .map_err(|source| SrsError::Point { index, source })?;

        if pos != bytes.len() {
            return Err(SrsError::TrailingBytes {
                extra: bytes.len() - pos,
            });
        }
        Ok(Srs {
            curve: Arc::clone(curve),
            powers_g1,
            tau_g2,
        })
    }
}

/// Advances `pos` past `n` bytes, returning them, or `None` if the
/// buffer is too short (pos is left unchanged on failure).
fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(slice)
}

/// Reads a big-endian u32 at `pos`.
fn take_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let raw = take(bytes, pos, 4)?;
    let mut w = [0u8; 4];
    w.copy_from_slice(raw);
    Some(u32::from_be_bytes(w))
}
