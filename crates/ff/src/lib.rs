//! # finesse-ff
//!
//! Finite-field arithmetic substrate for the Finesse pairing framework:
//!
//! - [`BigUint`] / [`BigInt`] — arbitrary-precision integers for parameter
//!   synthesis, exponent computation, and primality testing;
//! - [`FpCtx`] / [`Fp`] — prime fields in Montgomery (CIOS) form with
//!   inline fixed-capacity limb storage ([`Limbs`], capacity
//!   [`MAX_LIMBS`]), so every hot-path operation is allocation-free;
//! - [`tower`] — the extension-field towers F_p → F_p^2 → F_p^(k/6) →
//!   F_p^k used by optimal Ate pairings, including Frobenius maps,
//!   cyclotomic squaring and norm-method square roots.
//!
//! Everything is built from scratch (no external bignum); one code path
//! serves every curve from BN254 to BLS24-509, with element widths fixed
//! at field-context construction (at most [`MAX_LIMBS`] limbs).
//!
//! ```
//! use finesse_ff::{BigUint, FpCtx};
//!
//! let p = BigUint::from_u64(1_000_000_007);
//! let f = FpCtx::new(p)?;
//! let x = f.from_u64(2);
//! assert_eq!(x.pow(&BigUint::from_u64(10)).to_biguint(), BigUint::from_u64(1024));
//! # Ok::<(), finesse_ff::FieldCtxError>(())
//! ```

pub mod bigint;
pub mod biguint;
pub mod fp;
pub mod limbs;
pub mod scalar;
pub mod tower;

pub use bigint::BigInt;
pub use biguint::{BigUint, ParseBigUintError};
pub use fp::{FieldBytesError, FieldCtxError, Fp, FpCtx, Unreduced, WideAcc};
pub use limbs::{Limbs, MAX_LIMBS};
pub use tower::{Fpk, Fq, TowerCtx, TowerError};
