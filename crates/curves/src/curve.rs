//! Fully-validated pairing curve contexts.
//!
//! [`Curve::from_spec`] turns a declarative [`CurveSpec`] into a working
//! curve: it synthesises and primality-checks p and r, builds the field
//! tower, *discovers* the correct curve coefficient and sextic twist
//! (rather than trusting constants), derives generators with cofactor
//! clearing, and calibrates the untwist–Frobenius endomorphism ψ against
//! the defining identity `ψ(Q) = [p]Q` on the r-torsion. Every derived
//! quantity is checked, so a typo in a literature constant fails loudly at
//! construction instead of corrupting pairings downstream.

use crate::cache::{g1_point_key, g2_point_key, PointKeyedCache};
use crate::glv::{self, GlvBasis};
use crate::point::{
    affine_neg, batch_to_affine, is_identity, is_on_curve, jac_add, jac_mul, msm, to_affine,
    to_jacobian, Affine, EndoMap, FpOps, FqOps, Jacobian, MulTerm, TableMap,
};
use crate::precompute::{G1Precomputed, G2Precomputed, Precomputed};
use crate::spec::{CurveSpec, Family};
use crate::wire::{fp_sign, fq_sign};
use finesse_ff::{BigInt, BigUint, FieldCtxError, Fp, FpCtx, Fq, TowerCtx, TowerError, MAX_LIMBS};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Entry bound for each per-curve fixed-base table cache: LRU eviction
/// above this many distinct registered bases. A comb table is a few
/// hundred affine points, so 32 long-lived bases (public keys, SRS
/// elements) stay warm within ~1 MiB per group even on 638-bit curves.
/// The strict-decode cache of G2 encodings shares the bound, so every
/// key worth a table (or a prepared Miller-loop schedule, same bound)
/// also stays decoded.
const PRECOMPUTED_CACHE_CAPACITY: usize = 32;

/// Which sextic twist the curve uses (affects line-evaluation sparsity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TwistKind {
    /// Divisive twist: `E': y² = x³ + b/ξ`, untwist multiplies by w-powers.
    D,
    /// Multiplicative twist: `E': y² = x³ + b·ξ`.
    M,
}

/// Error constructing a [`Curve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveError {
    /// p or r had the wrong bit length vs the spec.
    BitLengthMismatch {
        /// Which parameter mismatched ("p" or "r").
        what: &'static str,
        /// Expected bit count.
        expected: usize,
        /// Computed bit count.
        got: usize,
    },
    /// p or r is composite.
    NotPrime(&'static str),
    /// The family polynomial gave a negative value.
    NegativeParameter(&'static str),
    /// r does not divide the curve order.
    OrderNotDivisible,
    /// Field context construction failed.
    Field(FieldCtxError),
    /// Tower construction failed.
    Tower(TowerError),
    /// No curve coefficient b with the right group order was found.
    CurveCoefficientNotFound,
    /// Neither twist candidate has order divisible by r.
    TwistNotFound,
    /// The ψ endomorphism constants failed the `ψ(Q) = [p]Q` identity.
    EndomorphismMismatch,
    /// Try-and-increment hash-to-curve exhausted its counter budget
    /// without landing on the curve (astronomically unlikely for a real
    /// curve; indicates corrupted parameters rather than bad luck).
    HashToCurveExhausted,
    /// An exponent derivation hit an arithmetic impossibility (reported
    /// instead of aborting; indicates corrupted curve parameters).
    ExponentDerivation(&'static str),
    /// An MSM was called with differing numbers of points and scalars.
    MsmLengthMismatch {
        /// Which group-level entry point caught it ("g1_msm",
        /// "g1_msm_short" or "g2_msm").
        what: &'static str,
        /// Number of points supplied.
        points: usize,
        /// Number of scalars supplied.
        scalars: usize,
    },
    /// A curve name not present in the built-in Table 2 registry
    /// (reported by [`Curve::try_by_name`] for untrusted names).
    UnknownCurve {
        /// The name that failed to resolve.
        name: String,
    },
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::BitLengthMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} has {got} bits, spec expects {expected}")
            }
            CurveError::NotPrime(what) => write!(f, "{what} is not prime"),
            CurveError::NegativeParameter(what) => write!(f, "{what} evaluated negative"),
            CurveError::OrderNotDivisible => f.write_str("r does not divide #E(Fp)"),
            CurveError::Field(e) => write!(f, "field construction: {e}"),
            CurveError::Tower(e) => write!(f, "tower construction: {e}"),
            CurveError::CurveCoefficientNotFound => {
                f.write_str("no curve coefficient b produced the expected group order")
            }
            CurveError::TwistNotFound => {
                f.write_str("no sextic twist with order divisible by r was found")
            }
            CurveError::EndomorphismMismatch => {
                f.write_str("untwist-Frobenius constants failed psi(Q) = [p]Q")
            }
            CurveError::HashToCurveExhausted => {
                f.write_str("hash-to-curve found no point within the counter budget")
            }
            CurveError::ExponentDerivation(what) => {
                write!(f, "exponent derivation failed: {what}")
            }
            CurveError::MsmLengthMismatch {
                what,
                points,
                scalars,
            } => {
                write!(
                    f,
                    "{what} needs one scalar per point, got {points} points and {scalars} scalars"
                )
            }
            CurveError::UnknownCurve { name } => {
                write!(f, "unknown curve name: {name}")
            }
        }
    }
}

impl std::error::Error for CurveError {}

impl From<FieldCtxError> for CurveError {
    fn from(e: FieldCtxError) -> Self {
        CurveError::Field(e)
    }
}

impl From<TowerError> for CurveError {
    fn from(e: TowerError) -> Self {
        CurveError::Tower(e)
    }
}

/// Cached 2-GLV data for the cube-root-of-unity endomorphism
/// `φ(x, y) = (βx, y)` on G1 (every Table 2 curve has `j = 0`): φ acts on
/// the r-torsion as multiplication by `λ` with `λ² + λ + 1 ≡ 0 (mod r)`,
/// and the reduced lattice basis splits scalars into two `√r`-sized
/// halves. Calibrated against the generator at construction.
#[derive(Clone, Debug)]
pub struct GlvG1 {
    beta: Fp,
    lambda: BigUint,
    basis: GlvBasis,
}

impl GlvG1 {
    /// The cube root of unity β with `φ(x, y) = (βx, y)`.
    pub fn beta(&self) -> &Fp {
        &self.beta
    }

    /// φ's eigenvalue λ on the r-torsion.
    pub fn lambda(&self) -> &BigUint {
        &self.lambda
    }

    /// The reduced GLV lattice basis used by `decompose_scalar`.
    pub fn basis(&self) -> &GlvBasis {
        &self.basis
    }
}

/// How G2 scalars decompose along the untwist–Frobenius ψ (eigenvalue
/// `p mod r` on the r-torsion, calibrated at construction).
#[derive(Clone, Debug)]
pub enum GlsG2 {
    /// BLS parametrization: `p ≡ t (mod r)`, so balanced base-`t` digits
    /// give a `⌈log r / log|t|⌉`-dimensional split (4 sub-scalars of
    /// `|t|` bits for BLS12, 8 for BLS24) — each digit multiplies one
    /// more application of ψ.
    Power {
        /// The curve generator `t` (the digit base).
        t: BigInt,
    },
    /// BN parametrization: `ζ = p mod r = 6t²` satisfies the exact
    /// identity `ζ² + (6t+3)ζ + (6t+1) = r`, so a validated 4-dimensional
    /// lattice basis splits scalars into four `|t|`-bit sub-scalars.
    Quartic {
        /// The 4-dimensional ψ-lattice basis with Cramer data.
        basis: Box<glv::Dim4Basis>,
    },
    /// Generic 2-dimensional GLS split on the eigenvalue `p mod r` via
    /// the reduced lattice basis (fallback for exotic parametrizations;
    /// the eigenvalue of any pairing curve is a `√r`-quality λ at worst).
    TwoDim {
        /// ψ's eigenvalue `p mod r`.
        lambda: BigUint,
        /// Reduced lattice basis for `(r, λ)`.
        basis: GlvBasis,
    },
}

/// A fully-initialised, self-validated pairing-friendly curve.
pub struct Curve {
    name: String,
    family: Family,
    t: BigInt,
    p: BigUint,
    r: BigUint,
    trace: BigInt,
    fp: Arc<FpCtx>,
    fr: Arc<FpCtx>,
    tower: Arc<TowerCtx>,
    b: Fp,
    b_twist: Fq,
    twist: TwistKind,
    n1: BigUint,
    g1_cofactor: BigUint,
    g2_order: BigUint,
    g2_cofactor: BigUint,
    g1: Affine<Fp>,
    g2: Affine<Fq>,
    psi_x: Fq,
    psi_y: Fq,
    glv_g1: Option<GlvG1>,
    gls_g2: GlsG2,
    /// Fixed-base tables for caller-registered G1 bases (and, lazily,
    /// the generator), keyed by canonical coordinates; [`Curve::g1_mul`]
    /// routes through the table on a cache hit.
    g1_precomp: Mutex<PointKeyedCache<G1Precomputed>>,
    /// Fixed-base tables for registered G2 bases (same contract).
    g2_precomp: Mutex<PointKeyedCache<G2Precomputed>>,
    /// Successful strict G2 decodes, keyed by the exact input bytes
    /// (see [`Curve::decode_g2`]).
    g2_decoded: Mutex<PointKeyedCache<Affine<Fq>>>,
    /// Lazily derived and gcd-certified fast G1 subgroup-check data
    /// (see the [`crate::subgroup`] module).
    g1_subgroup: OnceLock<crate::subgroup::G1Check>,
    /// Same for G2.
    g2_subgroup: OnceLock<crate::subgroup::G2Check>,
    table2_security: u32,
}

impl fmt::Debug for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Curve")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("p_bits", &self.p.bits())
            .field("r_bits", &self.r.bits())
            .field("twist", &self.twist)
            .finish()
    }
}

impl Curve {
    /// Builds and validates a curve from a named spec.
    ///
    /// # Errors
    ///
    /// Any failed validation returns a descriptive [`CurveError`].
    pub fn from_spec(spec: &CurveSpec) -> Result<Curve, CurveError> {
        Self::new(
            spec.name,
            spec.family,
            spec.t(),
            spec.b_hint,
            spec.beta,
            spec.xi2,
            spec.xi,
            Some((spec.p_bits, spec.r_bits)),
            spec.table2_security,
        )
    }

    /// Builds a curve from explicit parameters (the "operator kit" entry
    /// point used when porting a new curve, §4.5 of the paper).
    ///
    /// # Errors
    ///
    /// Any failed validation returns a descriptive [`CurveError`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        family: Family,
        t: BigInt,
        b_hint: Option<u64>,
        beta: i64,
        xi2: Option<(i64, i64)>,
        xi: &[i64],
        expected_bits: Option<(usize, usize)>,
        table2_security: u32,
    ) -> Result<Curve, CurveError> {
        // --- parameters -------------------------------------------------
        let p_int = family.prime(&t);
        let r_int = family.order(&t);
        let trace = family.trace(&t);
        let p = p_int
            .to_biguint()
            .ok_or(CurveError::NegativeParameter("p"))?;
        let r = r_int
            .to_biguint()
            .ok_or(CurveError::NegativeParameter("r"))?;
        if let Some((pb, rb)) = expected_bits {
            if p.bits() != pb {
                return Err(CurveError::BitLengthMismatch {
                    what: "p",
                    expected: pb,
                    got: p.bits(),
                });
            }
            if r.bits() != rb {
                return Err(CurveError::BitLengthMismatch {
                    what: "r",
                    expected: rb,
                    got: r.bits(),
                });
            }
        }
        if !p.is_probable_prime(40) {
            return Err(CurveError::NotPrime("p"));
        }
        if !r.is_probable_prime(40) {
            return Err(CurveError::NotPrime("r"));
        }
        // #E(Fp) = p + 1 − tr
        let n1 = (&(&p_int + &BigInt::one()) - &trace)
            .to_biguint()
            .ok_or(CurveError::NegativeParameter("#E"))?;
        let (g1_cofactor, rem) = n1.divrem(&r);
        if !rem.is_zero() {
            return Err(CurveError::OrderNotDivisible);
        }

        // --- fields -----------------------------------------------------
        let fp = Self::verified_field(&p)?;
        let fr = Self::verified_field(&r)?;
        let beta_fp = fp.from_i64(beta);
        let tower = match family.embedding_degree() {
            12 => {
                assert_eq!(xi.len(), 2, "k=12 xi needs 2 coefficients");
                // The spec's ξ is a hint; if it happens to be a 2nd/3rd
                // power in F_p2 for this prime, scan small alternatives
                // (any valid ξ yields an isomorphic tower).
                let mut tower = TowerCtx::sextic_over_fp2(
                    &fp,
                    beta_fp.clone(),
                    (fp.from_i64(xi[0]), fp.from_i64(xi[1])),
                );
                if matches!(tower, Err(TowerError::ReducibleSextic)) {
                    'scan: for c1 in 1..4i64 {
                        for c0 in 1..24i64 {
                            let cand = TowerCtx::sextic_over_fp2(
                                &fp,
                                beta_fp.clone(),
                                (fp.from_i64(c0), fp.from_i64(c1)),
                            );
                            if cand.is_ok() {
                                tower = cand;
                                break 'scan;
                            }
                        }
                    }
                }
                tower?
            }
            24 => {
                assert_eq!(xi.len(), 4, "k=24 xi needs 4 coefficients");
                // A k=24 tower cannot be built without the quartic
                // non-residue; a spec missing it is reported, not fatal.
                let (c0, c1) = xi2.ok_or(CurveError::Tower(TowerError::UnsupportedDegree))?;
                TowerCtx::sextic_over_fp4(
                    &fp,
                    beta_fp,
                    (fp.from_i64(c0), fp.from_i64(c1)),
                    [
                        fp.from_i64(xi[0]),
                        fp.from_i64(xi[1]),
                        fp.from_i64(xi[2]),
                        fp.from_i64(xi[3]),
                    ],
                )?
            }
            _ => unreachable!("families are k=12 or k=24"),
        };

        // --- curve coefficient and G1 ------------------------------------
        let fp_ops = FpOps(Arc::clone(&fp));
        let (b, g1) = Self::find_g1(&fp_ops, b_hint, &n1, &g1_cofactor, &r)
            .ok_or(CurveError::CurveCoefficientNotFound)?;

        // --- twist and G2 -------------------------------------------------
        let (twist, b_twist, g2_order) = Self::find_twist_with_trace(&tower, &trace, &b, &r)?;
        let (g2_cofactor, rem) = g2_order.divrem(&r);
        debug_assert!(rem.is_zero());
        let g2 = Self::find_g2(&tower, &b_twist, &g2_order, &g2_cofactor, &r)
            .ok_or(CurveError::TwistNotFound)?;

        // --- psi endomorphism --------------------------------------------
        let (psi_x, psi_y) = Self::calibrate_psi(&tower, &b_twist, &g2, &p)?;

        // --- scalar decomposition data -----------------------------------
        // Both are calibrated/validated against the generators; a curve
        // without a usable φ (or a failed calibration) falls back to the
        // plain wNAF ladder rather than erroring, so the operator kit
        // still accepts exotic parameters.
        let glv_g1 = Self::derive_glv_g1(&fp, &fr, &fp_ops, &g1);
        let gls_g2 = Self::derive_gls_g2(&t, &p, &r);

        Ok(Curve {
            name: name.to_owned(),
            family,
            t,
            p,
            r,
            trace,
            fp,
            fr,
            tower,
            b,
            b_twist,
            twist,
            n1,
            g1_cofactor,
            g2_order,
            g2_cofactor,
            g1,
            g2,
            psi_x,
            psi_y,
            glv_g1,
            gls_g2,
            g1_precomp: Mutex::new(PointKeyedCache::new(PRECOMPUTED_CACHE_CAPACITY)),
            g2_precomp: Mutex::new(PointKeyedCache::new(PRECOMPUTED_CACHE_CAPACITY)),
            g2_decoded: Mutex::new(PointKeyedCache::new(PRECOMPUTED_CACHE_CAPACITY)),
            g1_subgroup: OnceLock::new(),
            g2_subgroup: OnceLock::new(),
            table2_security,
        })
    }

    /// The field context of a modulus already verified prime above,
    /// interned without repeating the primality test; the remaining
    /// [`FpCtx::new`] checks become errors, not panics.
    fn verified_field(m: &BigUint) -> Result<Arc<FpCtx>, CurveError> {
        if m.is_even() {
            return Err(CurveError::Field(FieldCtxError::InvalidModulus));
        }
        if m.limbs().len() > MAX_LIMBS {
            return Err(CurveError::Field(FieldCtxError::TooWide));
        }
        Ok(FpCtx::new_unchecked(m.clone()))
    }

    /// `(−1 + √−3)/2`: a primitive cube root of unity in the field
    /// (exists iff its modulus is `≡ 1 (mod 3)`), i.e. a root of
    /// `x² + x + 1`.
    fn cube_root_of_unity(field: &FpCtx) -> Option<Fp> {
        let s = field.from_i64(-3).sqrt()?;
        Some((&s - &field.one()).halve())
    }

    /// Derives and calibrates the 2-GLV data for G1: solves
    /// `λ² + λ + 1 ≡ 0 (mod r)` and `β² + β + 1 ≡ 0 (mod p)`, then pins
    /// down the matching (β, λ) pair empirically via `φ(G) = [λ]G`.
    fn derive_glv_g1(fp: &FpCtx, fr: &FpCtx, ops: &FpOps, g1: &Affine<Fp>) -> Option<GlvG1> {
        let r = fr.modulus();
        let lambda0 = Self::cube_root_of_unity(fr)?.to_biguint();
        // lambda0 is a residue mod r, so r - 1 - lambda0 cannot underflow.
        let lambda1 = r.checked_sub(&BigUint::one())?.checked_sub(&lambda0)?;
        let beta0 = Self::cube_root_of_unity(fp)?;
        // The other root: β² = −1 − β.
        let beta1 = -&(&beta0 + &fp.one());
        let lg: [Affine<Fp>; 2] = [
            to_affine(ops, &jac_mul(ops, g1, &lambda0)),
            to_affine(ops, &jac_mul(ops, g1, &lambda1)),
        ];
        for beta in [beta0, beta1] {
            let phi_g = Affine::new(&g1.x * &beta, g1.y.clone());
            for (lambda, mapped) in [(&lambda0, &lg[0]), (&lambda1, &lg[1])] {
                if phi_g == *mapped {
                    return Some(GlvG1 {
                        beta,
                        lambda: lambda.clone(),
                        basis: glv::lattice_basis(r, lambda),
                    });
                }
            }
        }
        None
    }

    /// Picks the G2 decomposition mode from the parametrization: BLS
    /// curves satisfy `p ≡ t (mod r)` with `|t| ≈ r^(1/4)` (k = 12) or
    /// `r^(1/8)` (k = 24), enabling the base-`t` power split; BN curves
    /// get the validated 4-dimensional quartic basis; everything else
    /// falls back to the generic 2-dimensional lattice split on
    /// `p mod r`. All modes are validated numerically, never trusted.
    fn derive_gls_g2(t: &BigInt, p: &BigUint, r: &BigUint) -> GlsG2 {
        let lambda = p.rem(r);
        if t.bits() >= 2 && t.bits() * 2 < r.bits() && t.rem_euclid(r) == lambda {
            return GlsG2::Power { t: t.clone() };
        }
        if let Some(basis) = glv::bn_psi_basis(t, &lambda, r) {
            return GlsG2::Quartic {
                basis: Box::new(basis),
            };
        }
        GlsG2::TwoDim {
            basis: glv::lattice_basis(r, &lambda),
            lambda,
        }
    }

    /// Finds (b, generator): smallest b >= 1 whose curve has order n1, with
    /// a canonical cofactor-cleared generator.
    fn find_g1(
        ops: &FpOps,
        b_hint: Option<u64>,
        n1: &BigUint,
        cofactor: &BigUint,
        r: &BigUint,
    ) -> Option<(Fp, Affine<Fp>)> {
        let candidates: Vec<u64> = b_hint.into_iter().chain(1..=40).collect();
        'bloop: for bc in candidates {
            let b = ops.0.from_u64(bc);
            // Collect a couple of points and require [n1]P = O for each.
            let mut points = Vec::new();
            for x0 in 0..400u64 {
                let x = ops.0.from_u64(x0);
                let rhs = &(&x.square() * &x) + &b;
                if let Some(y) = rhs.sqrt() {
                    if y.is_zero() && rhs.is_zero() && bc == 0 {
                        continue;
                    }
                    points.push(Affine::new(x, y));
                    if points.len() == 3 {
                        break;
                    }
                }
            }
            if points.len() < 3 {
                continue;
            }
            for pt in &points {
                if !is_identity(ops, &jac_mul(ops, pt, n1)) {
                    continue 'bloop;
                }
            }
            // Cofactor-clear the first point that survives into a generator.
            for pt in &points {
                let g = to_affine(ops, &jac_mul(ops, pt, cofactor));
                if g.infinity {
                    continue;
                }
                debug_assert!(is_identity(ops, &jac_mul(ops, &g, r)));
                // Canonicalise y to the lexicographically smaller root.
                let g = if fp_sign(&g.y) {
                    affine_neg(ops, &g)
                } else {
                    g
                };
                return Some((b, g));
            }
        }
        None
    }

    /// Trace of Frobenius over F_p^m via the Lucas-style recurrence
    /// `t_j = tr·t_{j−1} − p·t_{j−2}`.
    fn trace_over_extension(trace: &BigInt, p: &BigUint, m: usize) -> BigInt {
        let p_int = BigInt::from_biguint(p.clone());
        let mut t_prev = BigInt::from_i64(2);
        let mut t_cur = trace.clone();
        for _ in 1..m {
            let next = &(trace * &t_cur) - &(&p_int * &t_prev);
            t_prev = t_cur;
            t_cur = next;
        }
        t_cur
    }

    /// Determines the correct sextic twist: kind, coefficient, group order.
    ///
    /// Solves the CM equation `t_m² − 4q = −3f²` for the trace over F_q,
    /// enumerates the candidate twist orders, keeps those divisible by r,
    /// then identifies the real twist empirically by order-annihilation on
    /// sampled points.
    fn find_twist_with_trace(
        tower: &Arc<TowerCtx>,
        trace: &BigInt,
        b: &Fp,
        r: &BigUint,
    ) -> Result<(TwistKind, Fq, BigUint), CurveError> {
        let q = tower.q_order().clone();
        let q_int = BigInt::from_biguint(q.clone());
        let tm = Self::trace_over_extension(trace, tower.fp().modulus(), tower.qdeg());
        // 4q − t_m² = 3 f²
        let four_q = &BigInt::from_i64(4) * &q_int;
        let disc = (&four_q - &(&tm * &tm))
            .to_biguint()
            .ok_or(CurveError::TwistNotFound)?;
        let f2 = disc.div_exact(&BigUint::from_u64(3));
        let f = f2.isqrt();
        if &f * &f != f2 {
            return Err(CurveError::TwistNotFound);
        }
        let f_int = BigInt::from_biguint(f);
        let three_f = &BigInt::from_i64(3) * &f_int;
        let two = BigUint::from_u64(2);
        // Candidate traces of the six twists.
        let mut cands: Vec<BigInt> = vec![tm.clone(), tm.neg()];
        for sign_t in [1i64, -1] {
            for sign_f in [1i64, -1] {
                let num =
                    &(&BigInt::from_i64(sign_t) * &tm) + &(&BigInt::from_i64(sign_f) * &three_f);
                if num.magnitude().is_even() {
                    cands.push(BigInt::from_sign_magnitude(
                        num.is_negative(),
                        num.magnitude().divrem(&two).0,
                    ));
                }
            }
        }
        let mut orders: Vec<BigUint> = Vec::new();
        for c in cands {
            if let Some(n) = (&(&q_int + &BigInt::one()) - &c).to_biguint() {
                if n.rem(r).is_zero() && !orders.contains(&n) {
                    orders.push(n);
                }
            }
        }
        if orders.is_empty() {
            return Err(CurveError::TwistNotFound);
        }
        // Try each (kind, coefficient) and candidate order empirically.
        let ops = FqOps(tower);
        let b_fq = tower.fq_from_fp(b);
        let xi = tower.xi().clone();
        let attempts = [
            (TwistKind::D, tower.fq_mul(&b_fq, &tower.fq_inv(&xi))),
            (TwistKind::M, tower.fq_mul(&b_fq, &xi)),
        ];
        for (kind, bt) in attempts {
            if let Some(pt) = Self::find_point_on_twist(tower, &bt, 0) {
                for n in &orders {
                    if is_identity(&ops, &jac_mul(&ops, &pt, n)) {
                        // confirm with a second point
                        let pt2 = Self::find_point_on_twist(tower, &bt, 1000)
                            .ok_or(CurveError::TwistNotFound)?;
                        if is_identity(&ops, &jac_mul(&ops, &pt2, n)) {
                            return Ok((kind, bt, n.clone()));
                        }
                    }
                }
            }
        }
        Err(CurveError::TwistNotFound)
    }

    fn find_point_on_twist(tower: &TowerCtx, bt: &Fq, seed0: u64) -> Option<Affine<Fq>> {
        for seed in seed0..seed0 + 512 {
            let x = tower.fq_sample(seed.wrapping_mul(0x00C0_FFEE).wrapping_add(7));
            let rhs = tower.fq_add(&tower.fq_mul(&tower.fq_sqr(&x), &x), bt);
            if let Some(y) = tower.fq_sqrt(&rhs) {
                return Some(Affine::new(x, y));
            }
        }
        None
    }

    fn find_g2(
        tower: &Arc<TowerCtx>,
        bt: &Fq,
        _order: &BigUint,
        cofactor: &BigUint,
        r: &BigUint,
    ) -> Option<Affine<Fq>> {
        let ops = FqOps(tower);
        for attempt in 0..16u64 {
            let pt = Self::find_point_on_twist(tower, bt, attempt * 7919)?;
            let g = to_affine(&ops, &jac_mul(&ops, &pt, cofactor));
            if g.infinity {
                continue;
            }
            if is_identity(&ops, &jac_mul(&ops, &g, r)) {
                // Canonicalise y to the lexicographically smaller root,
                // as for G1, so the generator does not depend on which
                // root the square-root algorithm happens to return.
                let g = if fq_sign(tower, &g.y) {
                    affine_neg(&ops, &g)
                } else {
                    g
                };
                return Some(g);
            }
        }
        None
    }

    /// Determines the untwist–Frobenius constants empirically: tries the
    /// (γx, γy) = (ξ^((p−1)/3), ξ^((p−1)/2)) pair and its inverse, accepting
    /// whichever satisfies `ψ(G2) = [p]G2`.
    fn calibrate_psi(
        tower: &Arc<TowerCtx>,
        bt: &Fq,
        g2: &Affine<Fq>,
        p: &BigUint,
    ) -> Result<(Fq, Fq), CurveError> {
        let ops = FqOps(tower);
        let wf = tower.w_frob_const(1).clone();
        let gx = tower.fq_sqr(&wf); // ξ^((p−1)/3)
        let gy = tower.fq_mul(&gx, &wf); // ξ^((p−1)/2)
        let p_g2 = to_affine(&ops, &jac_mul(&ops, g2, p));
        for (cx, cy) in [
            (gx.clone(), gy.clone()),
            (tower.fq_inv(&gx), tower.fq_inv(&gy)),
        ] {
            let px = tower.fq_mul(&tower.fq_frob(&g2.x, 1), &cx);
            let py = tower.fq_mul(&tower.fq_frob(&g2.y, 1), &cy);
            let cand = Affine::new(px, py);
            if is_on_curve(&ops, &cand, bt) && cand == p_g2 {
                return Ok((cx, cy));
            }
        }
        Err(CurveError::EndomorphismMismatch)
    }

    // --- accessors -------------------------------------------------------

    /// Curve name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Curve family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The family generator t.
    pub fn t(&self) -> &BigInt {
        &self.t
    }

    /// Base-field characteristic p.
    pub fn p(&self) -> &BigUint {
        &self.p
    }

    /// Pairing group order r.
    pub fn r(&self) -> &BigUint {
        &self.r
    }

    /// Frobenius trace.
    pub fn trace(&self) -> &BigInt {
        &self.trace
    }

    /// Base prime field context.
    pub fn fp(&self) -> &Arc<FpCtx> {
        &self.fp
    }

    /// Scalar field context F_r, interned once at construction: the
    /// field polynomial commitments compute in.
    pub fn fr(&self) -> &Arc<FpCtx> {
        &self.fr
    }

    /// Extension tower context.
    pub fn tower(&self) -> &Arc<TowerCtx> {
        &self.tower
    }

    /// G1 curve coefficient b.
    pub fn b(&self) -> &Fp {
        &self.b
    }

    /// Twist curve coefficient b'.
    pub fn b_twist(&self) -> &Fq {
        &self.b_twist
    }

    /// Twist kind (D or M).
    pub fn twist(&self) -> TwistKind {
        self.twist
    }

    /// #E(F_p).
    pub fn g1_order(&self) -> &BigUint {
        &self.n1
    }

    /// G1 cofactor #E(F_p)/r.
    pub fn g1_cofactor(&self) -> &BigUint {
        &self.g1_cofactor
    }

    /// #E'(F_q).
    pub fn g2_order(&self) -> &BigUint {
        &self.g2_order
    }

    /// G2 cofactor #E'(F_q)/r.
    pub fn g2_cofactor(&self) -> &BigUint {
        &self.g2_cofactor
    }

    /// Canonical G1 generator (r-torsion).
    pub fn g1_generator(&self) -> &Affine<Fp> {
        &self.g1
    }

    /// Canonical G2 generator on the twist (r-torsion).
    pub fn g2_generator(&self) -> &Affine<Fq> {
        &self.g2
    }

    /// Security level from Table 2 (reported, not derived).
    pub fn table2_security(&self) -> u32 {
        self.table2_security
    }

    /// Embedding degree k.
    pub fn k(&self) -> usize {
        self.family.embedding_degree()
    }

    /// The optimal-Ate Miller loop parameter (`6t+2` for BN, `t` for BLS).
    pub fn miller_param(&self) -> BigInt {
        self.family.miller_param(&self.t)
    }

    /// The untwist–Frobenius constants `(γx, γy)` with
    /// `ψ(x, y) = (γx·φ(x), γy·φ(y))`.
    pub fn psi_constants(&self) -> (&Fq, &Fq) {
        (&self.psi_x, &self.psi_y)
    }

    /// ψ applied to a twist point: `(γx·φ(x), γy·φ(y))`.
    pub fn psi(&self, q: &Affine<Fq>) -> Affine<Fq> {
        if q.infinity {
            return q.clone();
        }
        Affine::new(
            self.tower.fq_mul(&self.tower.fq_frob(&q.x, 1), &self.psi_x),
            self.tower.fq_mul(&self.tower.fq_frob(&q.y, 1), &self.psi_y),
        )
    }

    /// The calibrated 2-GLV data for G1, if the curve has a usable
    /// cube-root endomorphism (all built-in curves do).
    pub fn glv_g1(&self) -> Option<&GlvG1> {
        self.glv_g1.as_ref()
    }

    /// The G2 scalar-decomposition mode along ψ.
    pub fn gls_g2(&self) -> &GlsG2 {
        &self.gls_g2
    }

    /// The lazy cell holding the certified G1 subgroup-check data.
    pub(crate) fn g1_subgroup_cache(&self) -> &OnceLock<crate::subgroup::G1Check> {
        &self.g1_subgroup
    }

    /// The lazy cell holding the certified G2 subgroup-check data.
    pub(crate) fn g2_subgroup_cache(&self) -> &OnceLock<crate::subgroup::G2Check> {
        &self.g2_subgroup
    }

    /// The locked cache of successful strict G2 decodes. A poisoned lock
    /// is recovered: the cache only ever holds fully validated points.
    pub(crate) fn g2_decode_cache(&self) -> MutexGuard<'_, PointKeyedCache<Affine<Fq>>> {
        self.g2_decoded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// ψ's eigenvalue `p mod r` on the r-torsion.
    pub fn gls_eigenvalue(&self) -> BigUint {
        self.p.rem(&self.r)
    }

    /// The GLV endomorphism `φ(x, y) = (βx, y)` on G1 (`None` when no
    /// GLV data was calibrated). `φ(P) = [λ]P` on the r-torsion.
    pub fn phi(&self, p: &Affine<Fp>) -> Option<Affine<Fp>> {
        let glv = self.glv_g1.as_ref()?;
        if p.infinity {
            return Some(p.clone());
        }
        Some(Affine::new(&p.x * &glv.beta, p.y.clone()))
    }

    /// `k mod r`, skipping the division when `k` is already reduced.
    fn reduce_mod_r(&self, k: &BigUint) -> BigUint {
        if k < &self.r {
            k.clone()
        } else {
            k.rem(&self.r)
        }
    }

    /// Splits `k` into `(k₁, k₂)` with `k₁ + k₂·λ ≡ k (mod r)` and
    /// `|k₁|, |k₂| ≈ √r` using the cached G1 lattice basis. `None` when
    /// the curve has no GLV data.
    pub fn decompose_scalar(&self, k: &BigUint) -> Option<(BigInt, BigInt)> {
        let glv = self.glv_g1.as_ref()?;
        Some(glv::decompose(&self.reduce_mod_r(k), &glv.basis))
    }

    /// The G2 sub-scalars `d₀ … d_{m−1}` with `Σ dᵢ·(p mod r)ⁱ ≡ k (mod
    /// r)`, so `[k]Q = Σ [dᵢ] ψⁱ(Q)` on the r-torsion — 2 entries for the
    /// lattice split, up to `⌈log r / log|t|⌉` for the BLS power split.
    pub fn g2_gls_digits(&self, k: &BigUint) -> Vec<BigInt> {
        self.gls_digits_reduced(&self.reduce_mod_r(k))
    }

    /// `Σ [kᵢ]Pᵢ` over G1 through [`msm`], each scalar reduced mod r
    /// first. With GLV data each input becomes the 2-GLV pair
    /// `±|k₁|·P ± |k₂|·φ(P)`, and the φ term's odd-multiples table is P's
    /// mapped by `x ↦ βx` (φ is a group homomorphism, so
    /// `φ((2i+1)P) = (2i+1)φ(P)`).
    fn g1_split_msm<'a>(
        &self,
        ops: &FpOps,
        inputs: impl IntoIterator<Item = (&'a Affine<Fp>, &'a BigUint)>,
    ) -> Jacobian<Fp> {
        let glv = self.glv_g1.as_ref();
        let mut terms = Vec::new();
        for (p, k) in inputs {
            let k = self.reduce_mod_r(k);
            if p.infinity || k.is_zero() {
                continue;
            }
            match glv {
                Some(glv) => {
                    let (k1, k2) = glv::decompose(&k, &glv.basis);
                    terms.push(signed_term(p.clone(), &k1));
                    terms.push(signed_term(Affine::new(&p.x * &glv.beta, p.y.clone()), &k2));
                }
                None => terms.push(MulTerm {
                    point: p.clone(),
                    scalar: k,
                    negate: false,
                }),
            }
        }
        let Some(glv) = glv else {
            return msm(ops, &terms, &[]);
        };
        // GLV terms alternate P, φ(P): every odd term maps its table from
        // the term before it.
        let phi = |e: &Affine<Fp>| Affine::new(&e.x * &glv.beta, e.y.clone());
        let table_maps: Vec<TableMap<Fp>> = (0..terms.len())
            .map(|i| (i % 2 == 1).then(|| (i - 1, &phi as EndoMap<Fp>)))
            .collect();
        msm(ops, &terms, &table_maps)
    }

    /// G1 scalar multiplication on the r-torsion, returning an affine
    /// point.
    ///
    /// The scalar is reduced mod r up front (identical on the r-torsion,
    /// and oversized scalars would otherwise pay full-length ladders).
    /// A multiplication of a *registered* base — anything built by
    /// [`Curve::precompute_g1`], with the generator registered lazily on
    /// its first multiplication — routes through its fixed-base comb
    /// (`⌈bits/w⌉` doublings and mixed additions); any other base is
    /// split 2-GLV along φ so two `√r`-length ladders share one doubling
    /// chain (JSF joint recoding for the pair). Points outside the
    /// r-torsion should use the point-level
    /// [`jac_mul`]/[`crate::point::scalar_mul`], where no reduction or
    /// decomposition applies.
    pub fn g1_mul(&self, p: &Affine<Fp>, k: &BigUint) -> Affine<Fp> {
        let ops = FpOps(Arc::clone(&self.fp));
        let k = self.reduce_mod_r(k);
        if !p.infinity && !k.is_zero() {
            if let Some(pre) = self.g1_precomputed(p) {
                debug_assert!(pre.matches_base(p), "precompute cache is keyed per base");
                return pre.inner.mul(&ops, &k);
            }
            if *p == self.g1 {
                return self.precompute_g1(p).inner.mul(&ops, &k);
            }
        }
        to_affine(&ops, &self.g1_split_msm(&ops, [(p, &k)]))
    }

    /// Builds (or fetches) the `Arc`-shared fixed-base table for `base`
    /// and registers it in the curve's bounded point-keyed cache, so
    /// every later [`Curve::g1_mul`] on `base` — from any holder of this
    /// curve — routes through the comb instead of the variable-base
    /// path. Registering the identity yields a degenerate table whose
    /// every multiple is the identity.
    pub fn precompute_g1(&self, base: &Affine<Fp>) -> Arc<G1Precomputed> {
        let ops = FpOps(Arc::clone(&self.fp));
        let key = g1_point_key(base);
        // Recover from a poisoned lock: the cache only holds fully built
        // tables, so its state is valid even after a panic elsewhere.
        let mut cache = self
            .g1_precomp
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cache.get_or_insert_with(key, || G1Precomputed {
            inner: Precomputed::build(&ops, base, self.r.bits()),
        })
    }

    /// The registered fixed-base table for `base`, if one is cached
    /// (never builds; refreshes LRU recency on a hit).
    pub fn g1_precomputed(&self, base: &Affine<Fp>) -> Option<Arc<G1Precomputed>> {
        let key = g1_point_key(base);
        self.g1_precomp
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
    }

    /// `[k]·base` through an explicit fixed-base table (the scalar is
    /// reduced mod r first, as in [`Curve::g1_mul`]). Useful when the
    /// caller holds the `Arc` and wants to skip the cache lookup, or
    /// multiplies a base it deliberately did not register.
    pub fn g1_mul_precomputed(&self, pre: &G1Precomputed, k: &BigUint) -> Affine<Fp> {
        let ops = FpOps(Arc::clone(&self.fp));
        pre.inner.mul(&ops, &self.reduce_mod_r(k))
    }

    /// G1 point addition.
    pub fn g1_add(&self, a: &Affine<Fp>, b: &Affine<Fp>) -> Affine<Fp> {
        let ops = FpOps(Arc::clone(&self.fp));
        to_affine(
            &ops,
            &jac_add(&ops, &to_jacobian(&ops, a), &to_jacobian(&ops, b)),
        )
    }

    /// The GLS digit vector for a reduced scalar (no re-reduction).
    fn gls_digits_reduced(&self, k: &BigUint) -> Vec<BigInt> {
        match &self.gls_g2 {
            GlsG2::Power { t } => glv::balanced_digits(k, t),
            GlsG2::Quartic { basis } => glv::decompose4(k, basis).to_vec(),
            GlsG2::TwoDim { basis, .. } => {
                let (k1, k2) = glv::decompose(k, basis);
                vec![k1, k2]
            }
        }
    }

    /// `Σ [kᵢ]Qᵢ` over G2 through [`msm`], each scalar reduced mod r
    /// first: each input becomes its GLS terms `±|dⱼ|·ψʲ(Q)`, and each ψʲ(Q)
    /// term's odd-multiples table is the ψʲ⁻¹(Q) term's mapped through ψ
    /// (a group homomorphism) instead of rebuilt.
    fn g2_split_msm<'a>(
        &self,
        ops: &FqOps,
        inputs: impl IntoIterator<Item = (&'a Affine<Fq>, &'a BigUint)>,
    ) -> Jacobian<Fq> {
        let psi = |e: &Affine<Fq>| self.psi(e);
        let mut terms = Vec::new();
        let mut table_maps: Vec<TableMap<Fq>> = Vec::new();
        for (q, k) in inputs {
            let k = self.reduce_mod_r(k);
            if q.infinity || k.is_zero() {
                continue;
            }
            let mut psi_q = q.clone();
            for (j, d) in self.gls_digits_reduced(&k).iter().enumerate() {
                if j > 0 {
                    psi_q = self.psi(&psi_q);
                }
                table_maps.push((j > 0).then(|| (terms.len() - 1, &psi as EndoMap<Fq>)));
                terms.push(signed_term(psi_q.clone(), d));
            }
        }
        msm(ops, &terms, &table_maps)
    }

    /// G2 scalar multiplication on the r-torsion, returning an affine
    /// point.
    ///
    /// The scalar is reduced mod r, then split along ψ (GLS): balanced
    /// base-`t` digits on BLS curves (`[k]Q = Σ [dᵢ]ψⁱ(Q)`, sub-scalars
    /// of `|t|` bits), the validated quartic basis on BN (four `|t|`-bit
    /// sub-scalars), or the 2-dimensional lattice split otherwise. As
    /// with [`Curve::g1_mul`], points outside the r-torsion must use the
    /// point-level primitives.
    pub fn g2_mul(&self, p: &Affine<Fq>, k: &BigUint) -> Affine<Fq> {
        let ops = FqOps(&self.tower);
        let k = self.reduce_mod_r(k);
        if p.infinity || k.is_zero() {
            return to_affine(&ops, &jac_mul(&ops, p, &k));
        }
        if let Some(pre) = self.g2_precomputed(p) {
            debug_assert!(pre.matches_base(p), "precompute cache is keyed per base");
            return pre.inner.mul(&ops, &k);
        }
        if *p == self.g2 {
            return self.precompute_g2(p).inner.mul(&ops, &k);
        }
        to_affine(&ops, &self.g2_split_msm(&ops, [(p, &k)]))
    }

    /// Builds (or fetches) the fixed-base table for a G2 `base` and
    /// registers it for [`Curve::g2_mul`] routing — the G2 counterpart
    /// of [`Curve::precompute_g1`], serving long-lived points like BLS
    /// public keys.
    pub fn precompute_g2(&self, base: &Affine<Fq>) -> Arc<G2Precomputed> {
        let ops = FqOps(&self.tower);
        let key = g2_point_key(base);
        let mut cache = self
            .g2_precomp
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cache.get_or_insert_with(key, || G2Precomputed {
            inner: Precomputed::build(&ops, base, self.r.bits()),
        })
    }

    /// The registered G2 fixed-base table for `base`, if one is cached.
    pub fn g2_precomputed(&self, base: &Affine<Fq>) -> Option<Arc<G2Precomputed>> {
        let key = g2_point_key(base);
        self.g2_precomp
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
    }

    /// `[k]·base` through an explicit G2 fixed-base table (scalar
    /// reduced mod r first).
    pub fn g2_mul_precomputed(&self, pre: &G2Precomputed, k: &BigUint) -> Affine<Fq> {
        let ops = FqOps(&self.tower);
        pre.inner.mul(&ops, &self.reduce_mod_r(k))
    }

    /// Multi-scalar multiplication `Σ kᵢ·Pᵢ` over G1, through the
    /// [`crate::point::msm`] kernel dispatch.
    ///
    /// Scalars are reduced mod r and each term is GLV-split along φ
    /// first, so the kernel runs over twice the points at half the bit
    /// length — strictly fewer window iterations. For batch
    /// verifiers (BLS aggregate verification, KZG openings) this replaces
    /// a loop of [`Curve::g1_mul`] calls at a fraction of the cost.
    ///
    /// From [`crate::point::MSM_PARALLEL_MIN`] bucketed terms the
    /// underlying Pippenger pass shards across threads (see the
    /// `finesse-parallel` crate); the result is identical at every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::MsmLengthMismatch`] if `points` and
    /// `scalars` have different lengths — batch verifiers feed these
    /// slices from untrusted transcripts, so the library reports the
    /// mismatch instead of aborting the process (the point-level
    /// [`crate::point::msm`] kernel takes a term list, which cannot
    /// mismatch).
    pub fn g1_msm(
        &self,
        points: &[Affine<Fp>],
        scalars: &[BigUint],
    ) -> Result<Affine<Fp>, CurveError> {
        if points.len() != scalars.len() {
            return Err(CurveError::MsmLengthMismatch {
                what: "g1_msm",
                points: points.len(),
                scalars: scalars.len(),
            });
        }
        let ops = FpOps(Arc::clone(&self.fp));
        Ok(to_affine(
            &ops,
            &self.g1_split_msm(&ops, points.iter().zip(scalars)),
        ))
    }

    /// [`Curve::g1_msm_short`] with the normalisation deferred: the
    /// Jacobian accumulator, so grouped callers can batch-normalise many
    /// aggregates with one shared inversion.
    fn g1_msm_short_jac(
        &self,
        points: &[Affine<Fp>],
        scalars: &[BigUint],
    ) -> Result<Jacobian<Fp>, CurveError> {
        if points.len() != scalars.len() {
            return Err(CurveError::MsmLengthMismatch {
                what: "g1_msm_short",
                points: points.len(),
                scalars: scalars.len(),
            });
        }
        let ops = FpOps(Arc::clone(&self.fp));
        // The GLV split rewrites a full-width scalar as two sub-scalars of
        // at most `split_bits` bits; a scalar already that short gains
        // nothing from the split (the doubling chain is set by the widest
        // scalar), so the short path feeds the kernel directly. Any wide
        // scalar sends the whole call down the reducing/splitting path —
        // the short path must never lengthen the doubling chain.
        let short_bits = self
            .glv_g1
            .as_ref()
            .map_or_else(|| self.r.bits().div_ceil(2), |glv| glv.basis.split_bits());
        if scalars.iter().any(|k| k.bits() > short_bits) {
            return Ok(self.g1_split_msm(&ops, points.iter().zip(scalars)));
        }
        let terms: Vec<MulTerm<Fp>> = points
            .iter()
            .zip(scalars)
            .map(|(p, k)| MulTerm {
                point: p.clone(),
                scalar: k.clone(),
                negate: false,
            })
            .collect();
        Ok(msm(&ops, &terms, &[]))
    }

    /// Multi-scalar multiplication `Σ kᵢ·Pᵢ` over G1 for **short**
    /// scalars — the batch-verification randomizer path (~128-bit
    /// random-linear-combination coefficients).
    ///
    /// Scalars no wider than the GLV split's sub-scalars (one bit past
    /// the largest [`GlvBasis`] entry; `⌈bits(r)/2⌉` on a curve without
    /// GLV data) skip both the mod-r reduction and the split and go
    /// straight to [`msm`]: the doubling chain follows the actual scalar
    /// width, so a 128-bit batch runs half the window iterations of a
    /// full-width MSM on a 255-bit group order. If any scalar is wider,
    /// the whole call takes the [`Curve::g1_msm`] path (reduce + split),
    /// so it is correct for any input.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::MsmLengthMismatch`] if `points` and
    /// `scalars` have different lengths.
    pub fn g1_msm_short(
        &self,
        points: &[Affine<Fp>],
        scalars: &[BigUint],
    ) -> Result<Affine<Fp>, CurveError> {
        let ops = FpOps(Arc::clone(&self.fp));
        Ok(to_affine(&ops, &self.g1_msm_short_jac(points, scalars)?))
    }

    /// Runs one short-scalar MSM per `(points, scalars)` group and
    /// normalises **all** aggregates with a single shared inversion
    /// ([`batch_to_affine`]) — the deferred-pairing-accumulator shape,
    /// where each distinct G2 point owns one aggregated G1 side and every
    /// aggregate is needed in affine form for the Miller loops.
    ///
    /// With more than one group and [`finesse_parallel::current_threads`]
    /// above 1, the groups are sharded across scoped threads, one
    /// contiguous share each, and every share runs its group MSMs
    /// serially. Each group runs the same kernel on the same inputs at
    /// any thread count, so the affine outputs are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::MsmLengthMismatch`] if any group's points
    /// and scalars have different lengths.
    pub fn g1_msm_short_groups(
        &self,
        groups: &[(Vec<Affine<Fp>>, Vec<BigUint>)],
    ) -> Result<Vec<Affine<Fp>>, CurveError> {
        let ops = FpOps(Arc::clone(&self.fp));
        let run = |share: &[(Vec<Affine<Fp>>, Vec<BigUint>)]| {
            share
                .iter()
                .map(|(points, scalars)| self.g1_msm_short_jac(points, scalars))
                .collect::<Result<Vec<_>, _>>()
        };
        // Scoped workers do not inherit a caller's `with_threads`
        // override, so pin each sharded share to one thread: a large
        // group must not shard its buckets again on top of the group
        // split. A lone group (or one thread) keeps the kernel's own
        // bucket sharding.
        let sharded = groups.len() > 1 && finesse_parallel::current_threads() > 1;
        let shares = finesse_parallel::par_map_chunks(groups, 1, |share| {
            if sharded {
                finesse_parallel::with_threads(1, || run(share))
            } else {
                run(share)
            }
        });
        let mut jacs = Vec::with_capacity(groups.len());
        for share in shares {
            jacs.extend(share?);
        }
        Ok(batch_to_affine(&ops, &jacs))
    }

    /// Multi-scalar multiplication `Σ kᵢ·Qᵢ` over G2, through the
    /// [`crate::point::msm`] kernel dispatch, with each term GLS-split
    /// along ψ first (up to 8 sub-scalars of `|t|` bits each on BLS24). Shards across threads
    /// from [`crate::point::MSM_PARALLEL_MIN`] bucketed terms, like
    /// [`Curve::g1_msm`].
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::MsmLengthMismatch`] if `points` and
    /// `scalars` have different lengths.
    pub fn g2_msm(
        &self,
        points: &[Affine<Fq>],
        scalars: &[BigUint],
    ) -> Result<Affine<Fq>, CurveError> {
        if points.len() != scalars.len() {
            return Err(CurveError::MsmLengthMismatch {
                what: "g2_msm",
                points: points.len(),
                scalars: scalars.len(),
            });
        }
        let ops = FqOps(&self.tower);
        Ok(to_affine(
            &ops,
            &self.g2_split_msm(&ops, points.iter().zip(scalars)),
        ))
    }

    /// G2 point addition.
    pub fn g2_add(&self, a: &Affine<Fq>, b: &Affine<Fq>) -> Affine<Fq> {
        let ops = FqOps(&self.tower);
        to_affine(
            &ops,
            &jac_add(&ops, &to_jacobian(&ops, a), &to_jacobian(&ops, b)),
        )
    }

    /// True iff an affine point lies on E(F_p).
    pub fn g1_on_curve(&self, p: &Affine<Fp>) -> bool {
        let ops = FpOps(Arc::clone(&self.fp));
        is_on_curve(&ops, p, &self.b)
    }

    /// True iff an affine point lies on the twist E'(F_q).
    pub fn g2_on_curve(&self, p: &Affine<Fq>) -> bool {
        let ops = FqOps(&self.tower);
        is_on_curve(&ops, p, &self.b_twist)
    }

    /// Hashes arbitrary bytes to a G1 point (try-and-increment + cofactor
    /// clearing) — enough for the BLS-signature example; not constant time.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::HashToCurveExhausted`] if 10 000 counters
    /// yield no subgroup point — about half of all x-coordinates have a
    /// square right-hand side, so this signals corrupted curve parameters,
    /// not bad luck; a serving library must report it rather than abort.
    pub fn hash_to_g1(&self, msg: &[u8]) -> Result<Affine<Fp>, CurveError> {
        // Simple deterministic digest: FNV-1a folded into field elements.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in msg {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let ops = FpOps(Arc::clone(&self.fp));
        for ctr in 0..10_000u64 {
            let x = self
                .fp
                .sample(h.wrapping_add(ctr.wrapping_mul(0x9E37_79B9)));
            let rhs = &(&x.square() * &x) + &self.b;
            if let Some(y) = rhs.sqrt() {
                let pt = Affine::new(x, y);
                let g = to_affine(&ops, &jac_mul(&ops, &pt, &self.g1_cofactor));
                if !g.infinity {
                    return Ok(g);
                }
            }
        }
        Err(CurveError::HashToCurveExhausted)
    }

    /// The full final-exponentiation exponent `(p^k − 1)/r` (oracle use).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::ExponentDerivation`] if `r ∤ p^k − 1` —
    /// impossible for a curve that passed construction validation, but
    /// reported instead of aborting the process.
    pub fn final_exp_full(&self) -> Result<BigUint, CurveError> {
        let pk = self.p.pow(self.k() as u32);
        let num = pk
            .checked_sub(&BigUint::one())
            .ok_or(CurveError::ExponentDerivation("p^k underflowed"))?;
        let (q, rem) = num.divrem(&self.r);
        if !rem.is_zero() {
            return Err(CurveError::ExponentDerivation("r does not divide p^k - 1"));
        }
        Ok(q)
    }

    /// The hard-part exponent `Φ_k(p)/r` where `Φ_12 = p⁴ − p² + 1`,
    /// `Φ_24 = p⁸ − p⁴ + 1`.
    pub fn hard_exponent(&self) -> BigUint {
        let (a, b) = match self.k() {
            12 => (4u32, 2u32),
            24 => (8, 4),
            _ => unreachable!(),
        };
        let phi = &(&self.p.pow(a) - &self.p.pow(b)) + &BigUint::one();
        phi.div_exact(&self.r)
    }
}

/// The term `±|k|·point` for a signed sub-scalar `k`.
fn signed_term<E>(point: Affine<E>, k: &BigInt) -> MulTerm<E> {
    MulTerm {
        point,
        scalar: k.magnitude().clone(),
        negate: k.is_negative(),
    }
}

/// Global cache of constructed curves (construction costs tens of ms to
/// seconds, and tests re-use them heavily).
fn registry() -> &'static Mutex<HashMap<String, Arc<Curve>>> {
    static REG: OnceLock<Mutex<HashMap<String, Arc<Curve>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Curve {
    /// Returns the cached curve for a Table 2 name, constructing it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown or construction fails — both indicate
    /// corrupted built-in parameters, which is a build-breaking bug.
    /// Code that takes the curve name from untrusted input (config files,
    /// RPC) should use [`Curve::try_by_name`] instead.
    // This is the one documented programmer-error panic exempt from the
    // workspace panic-free lint gate; everything else goes through
    // try_by_name.
    #[allow(clippy::panic)]
    pub fn by_name(name: &str) -> Arc<Curve> {
        match Self::try_by_name(name) {
            Ok(c) => c,
            Err(e) => panic!("built-in curve {name} unavailable: {e}"),
        }
    }

    /// Fallible variant of [`Curve::by_name`] for untrusted curve names:
    /// returns [`CurveError::UnknownCurve`] instead of panicking when the
    /// name is not in Table 2, and surfaces construction errors.
    ///
    /// # Errors
    ///
    /// [`CurveError::UnknownCurve`] for an unrecognised name, or any
    /// construction error from [`Curve::from_spec`].
    pub fn try_by_name(name: &str) -> Result<Arc<Curve>, CurveError> {
        let spec = crate::spec::spec_by_name(name).ok_or_else(|| CurveError::UnknownCurve {
            name: name.to_owned(),
        })?;
        // Recover from a poisoned lock: the registry holds only fully
        // constructed curves, so the map is valid even if another thread
        // panicked while holding it.
        let mut reg = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(c) = reg.get(spec.name) {
            return Ok(Arc::clone(c));
        }
        let curve = Arc::new(Curve::from_spec(spec)?);
        reg.insert(spec.name.to_owned(), Arc::clone(&curve));
        Ok(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn bn254n_constructs_and_matches_literature() {
        let c = Curve::by_name("BN254N");
        assert_eq!(c.p().bits(), 254);
        assert_eq!(c.r().bits(), 254);
        // Beuchat et al. BN254 prime.
        assert_eq!(
            c.p().to_hex(),
            "2523648240000001ba344d80000000086121000000000013a700000000000013"
        );
        assert_eq!(
            c.r().to_hex(),
            "2523648240000001ba344d8000000007ff9f800000000010a10000000000000d"
        );
        // BN cofactor is 1: G1 order = r.
        assert!(c.g1_cofactor().is_one());
        assert!(c.g1_on_curve(c.g1_generator()));
        assert!(c.g2_on_curve(c.g2_generator()));
    }

    #[test]
    fn bls12_381_constructs_and_matches_literature() {
        let c = Curve::by_name("BLS12-381");
        assert_eq!(
            c.p().to_hex(),
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
        );
        assert_eq!(
            c.r().to_hex(),
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"
        );
        assert_eq!(c.b().to_biguint(), BigUint::from_u64(4));
        assert!(c.g1_on_curve(c.g1_generator()));
        assert!(c.g2_on_curve(c.g2_generator()));
    }

    #[test]
    fn generators_have_order_r() {
        // Membership must be checked with the *non-reducing* point-level
        // ladder: the curve-level muls reduce scalars mod r, which would
        // make [r]G = O vacuous.
        for name in ["BN254N", "BLS12-381"] {
            let c = Curve::by_name(name);
            let fp_ops = FpOps(Arc::clone(c.fp()));
            let g1r = jac_mul(&fp_ops, c.g1_generator(), c.r());
            assert!(is_identity(&fp_ops, &g1r), "{name}: [r]G1 = O");
            let fq_ops = FqOps(c.tower());
            let g2r = jac_mul(&fq_ops, c.g2_generator(), c.r());
            assert!(is_identity(&fq_ops, &g2r), "{name}: [r]G2 = O");
            // and not killed by smaller factors: [r-1]G != O
            let rm1 = c.r().checked_sub(&BigUint::one()).unwrap();
            assert!(!c.g1_mul(c.g1_generator(), &rm1).infinity);
        }
    }

    #[test]
    fn psi_is_p_power_endomorphism() {
        for name in ["BN254N", "BLS12-381"] {
            let c = Curve::by_name(name);
            let q = c.g2_generator();
            let psi_q = c.psi(q);
            assert!(c.g2_on_curve(&psi_q));
            assert_eq!(psi_q, c.g2_mul(q, c.p()), "{name}");
            // psi² (Q) = [p²] Q
            let psi2 = c.psi(&psi_q);
            let p2 = c.p().pow(2).rem(c.r());
            assert_eq!(psi2, c.g2_mul(q, &p2), "{name} psi^2");
        }
    }

    #[test]
    fn group_laws_on_generators() {
        let c = Curve::by_name("BLS12-381");
        let g = c.g1_generator();
        let two_g = c.g1_add(g, g);
        assert_eq!(two_g, c.g1_mul(g, &BigUint::from_u64(2)));
        let q = c.g2_generator();
        let three_q = c.g2_add(&c.g2_add(q, q), q);
        assert_eq!(three_q, c.g2_mul(q, &BigUint::from_u64(3)));
    }

    #[test]
    fn hash_to_g1_lands_in_subgroup() {
        let c = Curve::by_name("BN254N");
        let h1 = c.hash_to_g1(b"finesse").expect("hash lands");
        let h2 = c.hash_to_g1(b"finesse").expect("hash lands");
        let h3 = c.hash_to_g1(b"different message").expect("hash lands");
        assert_eq!(h1, h2, "deterministic");
        assert!(h1 != h3, "message-dependent");
        assert!(c.g1_on_curve(&h1));
        // Subgroup check via the non-reducing point-level ladder.
        let ops = FpOps(Arc::clone(c.fp()));
        assert!(is_identity(&ops, &jac_mul(&ops, &h1, c.r())));
    }

    #[test]
    fn hash_to_g1_succeeds_across_inputs() {
        // The try-and-increment loop now reports exhaustion instead of
        // aborting; every real input must come back Ok.
        let c = Curve::by_name("BN254N");
        for i in 0..32u32 {
            assert!(
                c.hash_to_g1(&i.to_le_bytes()).is_ok(),
                "input {i} failed to hash"
            );
        }
        assert!(c.hash_to_g1(b"").is_ok(), "empty message hashes");
    }

    #[test]
    fn hard_exponent_divides_cleanly() {
        let c = Curve::by_name("BN254N");
        // (p^k − 1)/r = (p^6−1)(p^2+1) · hard, sanity: both computable.
        let full = c.final_exp_full().expect("r divides p^k - 1");
        let hard = c.hard_exponent();
        assert!(full.bits() > hard.bits());
    }

    #[test]
    fn spec_validation_catches_wrong_bits() {
        // Perturb BLS12-381's expected p bits.
        let mut s = spec::BLS12_381.clone();
        s.p_bits = 380;
        match Curve::from_spec(&s) {
            Err(CurveError::BitLengthMismatch { what: "p", .. }) => {}
            other => panic!("expected bit mismatch, got {other:?}"),
        }
    }
}
