//! The workspace-level error type.
//!
//! Every fallible layer of the stack defines its own narrow error enum —
//! [`FieldCtxError`]/[`FieldBytesError`] in `finesse-ff`, [`TowerError`]
//! for the extension tower, [`CurveError`] for curve construction and
//! group arithmetic, [`DecodeError`] for the untrusted wire format, and
//! [`DseError`] for the design-space flow. [`FinesseError`] unifies them
//! so applications that drive the whole framework can use one `?`-able
//! type without erasing which layer rejected the input.
//!
//! The polynomial-commitment errors ([`SrsError`], [`PolyError`]) are
//! *defined* here rather than in `finesse-poly`: that crate sits above
//! `finesse-core` in the workspace DAG, and a variant's payload type
//! must be visible to the enum that carries it — so the unification
//! point owns the definitions and `finesse-poly` re-exports them.

use std::fmt;

pub use finesse_curves::{CurveError, DecodeError};
pub use finesse_dse::DseError;
pub use finesse_ff::{FieldBytesError, FieldCtxError, TowerError};

/// Rejection of an untrusted SRS encoding (`finesse-poly`'s wire
/// format: versioned header + length-prefixed compressed points).
///
/// Strict decoding contract, matching [`DecodeError`]'s: every accepted
/// byte string is the unique canonical encoding of a valid SRS, and
/// every rejection names what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrsError {
    /// Fewer bytes than the fixed header (magic, version, name, count).
    TruncatedHeader,
    /// The leading magic was not `b"FSRS"`.
    BadMagic([u8; 4]),
    /// A version this library does not decode.
    UnsupportedVersion(u8),
    /// The encoded curve name differs from the curve the caller decoded
    /// against (an SRS is only meaningful on its own curve).
    CurveMismatch {
        /// The caller's curve.
        expected: String,
        /// The name carried by the encoding.
        found: String,
    },
    /// The header advertises an SRS with no G1 powers at all.
    Empty,
    /// A point's declared length does not match the curve's compressed
    /// wire length.
    PointLength {
        /// Which point record (G1 powers first, then `[τ]G2`).
        index: usize,
        /// The declared byte length.
        declared: usize,
        /// The curve's canonical compressed length.
        expected: usize,
    },
    /// The byte string ended inside a point record.
    TruncatedPoint {
        /// Which point record was cut short.
        index: usize,
    },
    /// A point failed strict wire decoding (non-canonical bytes,
    /// off-curve x, outside the prime-order subgroup, …).
    Point {
        /// Which point record was rejected.
        index: usize,
        /// The wire layer's rejection.
        source: DecodeError,
    },
    /// Bytes left over after the advertised records were decoded.
    TrailingBytes {
        /// How many bytes too many.
        extra: usize,
    },
}

impl fmt::Display for SrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrsError::TruncatedHeader => write!(f, "truncated SRS header"),
            SrsError::BadMagic(m) => write!(f, "bad SRS magic {m:02x?} (expected \"FSRS\")"),
            SrsError::UnsupportedVersion(v) => write!(f, "unsupported SRS version {v}"),
            SrsError::CurveMismatch { expected, found } => {
                write!(f, "SRS for curve {found:?}, decoded against {expected:?}")
            }
            SrsError::Empty => write!(f, "SRS declares zero G1 powers"),
            SrsError::PointLength {
                index,
                declared,
                expected,
            } => write!(
                f,
                "SRS point {index}: declared {declared} bytes, curve encodes {expected}"
            ),
            SrsError::TruncatedPoint { index } => write!(f, "SRS truncated inside point {index}"),
            SrsError::Point { index, source } => write!(f, "SRS point {index}: {source}"),
            SrsError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the SRS records")
            }
        }
    }
}

impl std::error::Error for SrsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SrsError::Point { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A polynomial-commitment operation failed (`finesse-poly`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// The polynomial does not fit the SRS: committing to degree d needs
    /// d+1 powers of tau.
    DegreeTooLarge {
        /// Coefficients in the polynomial (degree + 1).
        coefficients: usize,
        /// G1 powers the SRS holds.
        capacity: usize,
    },
    /// The SRS and the pairing engine were built for different curves.
    CurveMismatch {
        /// The engine's curve.
        engine: String,
        /// The SRS's curve.
        srs: String,
    },
    /// A batched opening was requested at zero evaluation points.
    NoPoints,
    /// Two evaluation points of a batched opening coincide (the
    /// interpolation denominators vanish).
    DuplicatePoint,
    /// The polynomial's coefficients are not in the SRS curve's scalar
    /// field F_r.
    FieldMismatch,
    /// A claimed opening failed its pairing check.
    OpeningRejected,
    /// One or more claims in a batch failed; `bad` lists their indices
    /// in push order (from the isolating verifier).
    BatchRejected {
        /// Indices of the claims whose checks failed.
        bad: Vec<usize>,
    },
    /// Group arithmetic under the commitment failed (propagated MSM
    /// shape errors).
    Curve(CurveError),
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::DegreeTooLarge {
                coefficients,
                capacity,
            } => write!(
                f,
                "polynomial has {coefficients} coefficients, SRS holds {capacity} powers"
            ),
            PolyError::CurveMismatch { engine, srs } => {
                write!(f, "engine on curve {engine:?}, SRS on {srs:?}")
            }
            PolyError::NoPoints => write!(f, "batched opening needs at least one point"),
            PolyError::DuplicatePoint => write!(f, "duplicate evaluation point in batch"),
            PolyError::FieldMismatch => {
                write!(f, "polynomial is not over the SRS curve's scalar field")
            }
            PolyError::OpeningRejected => write!(f, "opening failed its pairing check"),
            PolyError::BatchRejected { bad } => {
                write!(f, "batch rejected; failing claims: {bad:?}")
            }
            PolyError::Curve(e) => write!(f, "group arithmetic: {e}"),
        }
    }
}

impl std::error::Error for PolyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PolyError::Curve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CurveError> for PolyError {
    fn from(e: CurveError) -> Self {
        PolyError::Curve(e)
    }
}

/// Any error the Finesse workspace can produce, tagged by origin layer.
///
/// Obtained via `From` on each layer's error type, so application code
/// can `?` across layers:
///
/// ```
/// use finesse_core::FinesseError;
/// use finesse_curves::Curve;
///
/// fn parse_point(bytes: &[u8]) -> Result<(), FinesseError> {
///     let curve = Curve::try_by_name("BN254N")?; // CurveError -> FinesseError
///     let _p = curve.decode_g1(bytes)?; // DecodeError -> FinesseError
///     Ok(())
/// }
/// assert!(parse_point(&[0x07]).is_err());
/// ```
#[derive(Debug)]
pub enum FinesseError {
    /// Base-field context construction failed (`finesse-ff`).
    FieldCtx(FieldCtxError),
    /// A canonical field-element encoding was rejected (`finesse-ff`).
    FieldBytes(FieldBytesError),
    /// Tower construction or element assembly failed (`finesse-ff`).
    Tower(TowerError),
    /// Curve construction or group arithmetic failed (`finesse-curves`).
    Curve(CurveError),
    /// An untrusted point encoding was rejected (`finesse-curves`).
    Decode(DecodeError),
    /// The design flow or cost model failed (`finesse-dse`).
    Dse(DseError),
    /// A polynomial-commitment operation failed (`finesse-poly`).
    Poly(PolyError),
    /// An untrusted SRS encoding was rejected (`finesse-poly`).
    Srs(SrsError),
}

impl fmt::Display for FinesseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinesseError::FieldCtx(e) => write!(f, "field context: {e}"),
            FinesseError::FieldBytes(e) => write!(f, "field encoding: {e}"),
            FinesseError::Tower(e) => write!(f, "tower: {e}"),
            FinesseError::Curve(e) => write!(f, "curve: {e}"),
            FinesseError::Decode(e) => write!(f, "point encoding: {e}"),
            FinesseError::Dse(e) => write!(f, "design flow: {e}"),
            FinesseError::Poly(e) => write!(f, "polynomial commitment: {e}"),
            FinesseError::Srs(e) => write!(f, "SRS encoding: {e}"),
        }
    }
}

impl std::error::Error for FinesseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FinesseError::FieldCtx(e) => Some(e),
            FinesseError::FieldBytes(e) => Some(e),
            FinesseError::Tower(e) => Some(e),
            FinesseError::Curve(e) => Some(e),
            FinesseError::Decode(e) => Some(e),
            FinesseError::Dse(e) => Some(e),
            FinesseError::Poly(e) => Some(e),
            FinesseError::Srs(e) => Some(e),
        }
    }
}

impl From<FieldCtxError> for FinesseError {
    fn from(e: FieldCtxError) -> Self {
        FinesseError::FieldCtx(e)
    }
}

impl From<FieldBytesError> for FinesseError {
    fn from(e: FieldBytesError) -> Self {
        FinesseError::FieldBytes(e)
    }
}

impl From<TowerError> for FinesseError {
    fn from(e: TowerError) -> Self {
        FinesseError::Tower(e)
    }
}

impl From<CurveError> for FinesseError {
    fn from(e: CurveError) -> Self {
        FinesseError::Curve(e)
    }
}

impl From<DecodeError> for FinesseError {
    fn from(e: DecodeError) -> Self {
        FinesseError::Decode(e)
    }
}

impl From<DseError> for FinesseError {
    fn from(e: DseError) -> Self {
        FinesseError::Dse(e)
    }
}

impl From<PolyError> for FinesseError {
    fn from(e: PolyError) -> Self {
        FinesseError::Poly(e)
    }
}

impl From<SrsError> for FinesseError {
    fn from(e: SrsError) -> Self {
        FinesseError::Srs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_tags_layer_and_chains_source() {
        let e: FinesseError = DecodeError::InvalidTag(0x07).into();
        let msg = format!("{e}");
        assert!(msg.starts_with("point encoding:"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn question_mark_crosses_layers() {
        fn inner() -> Result<(), FinesseError> {
            Err(FieldBytesError::NonCanonical)?;
            Ok(())
        }
        assert!(matches!(
            inner(),
            Err(FinesseError::FieldBytes(FieldBytesError::NonCanonical))
        ));
    }
}
