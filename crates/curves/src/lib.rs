//! # finesse-curves
//!
//! Pairing-friendly curve substrate for the Finesse framework: BN/BLS
//! family parameter synthesis, generic short-Weierstrass point arithmetic,
//! sextic-twist discovery, generator derivation, and the untwist–Frobenius
//! endomorphism — everything the pairing engine and the compiler's code
//! generator need to know about a curve.
//!
//! The seven curves of the paper's Table 2 are built in (see [`spec`]);
//! custom curves enter through [`Curve::new`].
//!
//! ```no_run
//! use finesse_curves::Curve;
//!
//! let curve = Curve::by_name("BN254N");
//! assert_eq!(curve.p().bits(), 254);
//! assert!(curve.g1_on_curve(curve.g1_generator()));
//! ```

pub mod cache;
pub mod curve;
pub mod glv;
pub mod point;
pub mod precompute;
pub mod spec;
pub mod subgroup;
pub mod wire;

pub use cache::{g1_point_key, g2_point_key, PointKey, PointKeyedCache};
pub use curve::{Curve, CurveError, GlsG2, GlvG1, TwistKind};
pub use glv::{jsf, Dim4Basis, GlvBasis};
pub use point::{
    affine_neg, batch_to_affine, comb_window, jac_add_affine, jac_mul, msm, scalar_mul, to_affine,
    Affine, CombTable, EndoMap, FieldOps, FpOps, FqOps, Jacobian, MulTerm, TableMap, WnafScratch,
};
pub use precompute::{G1Precomputed, G2Precomputed};
pub use spec::{all_specs, spec_by_name, CurveSpec, Family};
pub use wire::{Compression, DecodeError};
