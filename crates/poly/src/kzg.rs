//! KZG commitments, openings, and accumulator-backed verification.
//!
//! The commitment is the classic one: `C = [p(τ)]G1` under an [`Srs`].
//! Every verification equation this module emits is in *fixed-G2 form* —
//! the G2 sides are always the generator and `[τ]G2`, never an
//! opening-dependent point — so checks are pushed onto a
//! [`PairingAccumulator`] and a batch of n openings settles with two
//! cached Miller loops and one final exponentiation, regardless of n.
//!
//! Single openings use the textbook witness `W = [(p(τ)−y)/(τ−z)]G1`
//! and the rearranged check `e(C − [y]G1 + [z]W, G2) =? e(W, [τ]G2)`.
//!
//! Batched openings ([`Kzg::open_batch`]) prove many evaluations of
//! *one* polynomial with a two-point proof (the BDFG-style reduction):
//! with `r(X)` interpolating the claimed `(zᵢ, yᵢ)` and `Z(X)` their
//! vanishing polynomial, the prover commits `W = [h(τ)]G1` for the
//! exact quotient `h = (f − r)/Z`, draws a Fiat–Shamir point z* from a
//! [`Transcript`] over the whole claim, and commits
//! `W′ = [L(τ)/(τ − z*)]G1` for `L(X) = f(X) − r(z*) − Z(z*)·h(X)`
//! (which vanishes at z* by construction). The verifier re-derives z*,
//! forms `F = C − [r(z*)]G1 − [Z(z*)]W` from scalars it computes
//! itself, and checks `e(F + [z*]W′, G2) =? e(W′, [τ]G2)` — one pairing
//! check for the whole point set, in the same fixed-G2 form.

use crate::polynomial::Polynomial;
use crate::srs::Srs;
use finesse_core::PolyError;
use finesse_curves::{affine_neg, Affine, Curve, FieldOps, FpOps};
use finesse_ff::{BigUint, Fp};
use finesse_pairing::{PairingAccumulator, PairingEngine, SplitMix64Transcript, Transcript};
use std::sync::Arc;

/// Domain label for the batched-opening Fiat–Shamir challenge z*.
const OPEN_LABEL: &[u8] = b"finesse-kzg-batch-open-v1";
/// Domain label for the settling accumulator's randomizers.
const VERIFY_LABEL: &[u8] = b"finesse-kzg-verify-v1";

/// A single-point opening: `p(z) = y`, witnessed by
/// `W = [(p(τ) − y)/(τ − z)]G1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Opening {
    /// The evaluation point, reduced mod r.
    pub z: BigUint,
    /// The claimed evaluation `p(z)`.
    pub y: BigUint,
    /// The quotient commitment.
    pub witness: Affine<Fp>,
}

/// A batched opening: one proof that a single committed polynomial
/// takes the claimed values at every listed point.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOpening {
    /// The claimed `(zᵢ, yᵢ)` evaluations, reduced mod r.
    pub points: Vec<(BigUint, BigUint)>,
    /// `W = [h(τ)]G1` for the aggregate quotient `h = (f − r)/Z`.
    pub quotient: Affine<Fp>,
    /// `W′ = [L(τ)/(τ − z*)]G1` for the Fiat–Shamir point z*.
    pub shift: Affine<Fp>,
}

/// One verifiable claim against a commitment — the unit
/// [`Kzg::verify_batch`] accumulates. Each claim costs exactly one
/// pushed pairing check, so claim indices equal check indices in the
/// isolating verifier's report.
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// `p(z) = y` for the polynomial committed in `commitment`.
    Single {
        /// The polynomial commitment `[p(τ)]G1`.
        commitment: Affine<Fp>,
        /// The opening proof.
        opening: Opening,
    },
    /// `p(zᵢ) = yᵢ` for every point of a batched opening.
    Batch {
        /// The polynomial commitment `[p(τ)]G1`.
        commitment: Affine<Fp>,
        /// The two-point batched proof.
        opening: BatchOpening,
    },
}

/// The KZG scheme over one engine and one SRS.
///
/// ```no_run
/// use finesse_curves::Curve;
/// use finesse_ff::BigUint;
/// use finesse_pairing::PairingEngine;
/// use finesse_poly::{Kzg, Polynomial, Srs};
///
/// let curve = Curve::by_name("BN254N");
/// let engine = PairingEngine::new(curve.clone());
/// let srs = Srs::generate(&curve, 255, b"demo");
/// let kzg = Kzg::new(&engine, &srs).unwrap();
///
/// let p = Polynomial::new(vec![BigUint::from_u64(7)], curve.r());
/// let c = kzg.commit(&p).unwrap();
/// let opening = kzg.open(&p, &BigUint::from_u64(3)).unwrap();
/// kzg.verify(&c, &opening).unwrap();
/// ```
pub struct Kzg<'a> {
    engine: &'a PairingEngine,
    srs: &'a Srs,
}

impl<'a> Kzg<'a> {
    /// Binds an engine and an SRS; they must be built for the same
    /// curve.
    ///
    /// # Errors
    ///
    /// [`PolyError::CurveMismatch`] when the engine and SRS disagree on
    /// the curve.
    pub fn new(engine: &'a PairingEngine, srs: &'a Srs) -> Result<Self, PolyError> {
        if engine.curve().name() != srs.curve().name() {
            return Err(PolyError::CurveMismatch {
                engine: engine.curve().name().to_string(),
                srs: srs.curve().name().to_string(),
            });
        }
        Ok(Kzg { engine, srs })
    }

    /// The SRS this scheme commits under.
    pub fn srs(&self) -> &Srs {
        self.srs
    }

    /// Rejects a polynomial over another scalar field than the SRS
    /// curve's F_r (its elements would not mix with this curve's).
    fn check_field(&self, poly: &Polynomial) -> Result<(), PolyError> {
        if Arc::ptr_eq(poly.field(), self.srs.curve().fr()) {
            Ok(())
        } else {
            Err(PolyError::FieldMismatch)
        }
    }

    /// Commits: `C = [p(τ)]G1`, one MSM over the SRS powers. The zero
    /// polynomial commits to the identity.
    ///
    /// # Errors
    ///
    /// [`PolyError::FieldMismatch`] when the polynomial is not over the
    /// SRS curve's F_r, and [`PolyError::DegreeTooLarge`] when it has
    /// more coefficients than the SRS has powers.
    pub fn commit(&self, poly: &Polynomial) -> Result<Affine<Fp>, PolyError> {
        self.check_field(poly)?;
        let coeffs = poly.coeffs();
        let powers = self.srs.powers_g1();
        if coeffs.len() > powers.len() {
            return Err(PolyError::DegreeTooLarge {
                coefficients: coeffs.len(),
                capacity: powers.len(),
            });
        }
        if coeffs.is_empty() {
            let ops = FpOps(Arc::clone(self.srs.curve().fp()));
            return Ok(Affine::infinity(ops.zero()));
        }
        let scalars: Vec<BigUint> = coeffs.iter().map(Fp::to_biguint).collect();
        Ok(self.srs.curve().g1_msm(&powers[..coeffs.len()], &scalars)?)
    }

    /// Opens `poly` at `z` with one synthetic division by `X − z`: the
    /// remainder is `y = p(z)` and the quotient is `(p − y)/(X − z)`,
    /// whose commitment is the witness.
    ///
    /// # Errors
    ///
    /// [`PolyError::FieldMismatch`] when `poly` is not over the SRS
    /// curve's F_r, and [`PolyError::DegreeTooLarge`] when it exceeds the
    /// SRS.
    pub fn open(&self, poly: &Polynomial, z: &BigUint) -> Result<Opening, PolyError> {
        self.check_field(poly)?;
        let z = poly.field().from_biguint(z);
        let (q, y) = poly.divide_by_linear(&z);
        let witness = self.commit(&q)?;
        Ok(Opening {
            z: z.to_biguint(),
            y: y.to_biguint(),
            witness,
        })
    }

    /// Opens `poly` at every point of `zs` with one two-point proof
    /// (see the module docs for the reduction). `commitment` is the
    /// caller's existing commitment to `poly` — it is bound into the
    /// Fiat–Shamir challenge, not recomputed.
    ///
    /// # Errors
    ///
    /// [`PolyError::FieldMismatch`] when `poly` is not over the SRS
    /// curve's F_r, [`PolyError::NoPoints`] for an empty point set,
    /// [`PolyError::DuplicatePoint`] when two points coincide mod r,
    /// and [`PolyError::DegreeTooLarge`] when `poly` exceeds the SRS.
    pub fn open_batch(
        &self,
        poly: &Polynomial,
        commitment: &Affine<Fp>,
        zs: &[BigUint],
    ) -> Result<BatchOpening, PolyError> {
        self.check_field(poly)?;
        let fr = poly.field();
        let points: Vec<(Fp, Fp)> = zs
            .iter()
            .map(|z| {
                let z = fr.from_biguint(z);
                let y = poly.eval(&z);
                (z, y)
            })
            .collect();
        // Interpolation rejects empty and coincident point sets — the
        // same checks the verifier runs.
        let r_poly = Polynomial::interpolate(&points)?;

        // h = (f − r)/Z, divided off one root at a time (each division
        // is exact: f − r vanishes on all of S).
        let mut h = poly.sub_scaled(&r_poly, &fr.one());
        for (z, _) in &points {
            let (q, rem) = h.divide_by_linear(z);
            debug_assert!(rem.is_zero(), "f − r vanishes on the point set");
            h = q;
        }
        let quotient = self.commit(&h)?;

        let z_star = draw_z_star(self.srs.curve(), commitment, &points, &quotient);
        let r_at = r_poly.eval(&z_star);
        let z_at = vanishing_at(&points, &z_star);
        // L = f − r(z*) − Z(z*)·h vanishes at z*; its shifted quotient
        // is the second proof point.
        let l = poly.sub_constant(&r_at).sub_scaled(&h, &z_at);
        let (l_q, rem) = l.divide_by_linear(&z_star);
        debug_assert!(rem.is_zero(), "L(z*) = 0 by construction");
        let shift = self.commit(&l_q)?;

        Ok(BatchOpening {
            points: points
                .iter()
                .map(|(z, y)| (z.to_biguint(), y.to_biguint()))
                .collect(),
            quotient,
            shift,
        })
    }

    /// Pushes a claim's single pairing check onto an accumulator the
    /// caller owns — the composition point for mixing KZG claims with
    /// other deferred checks (BLS verifications, other commitments) in
    /// one settle. Both G2 sides are fixed (the generator and
    /// `[τ]G2`), so any number of pushed claims share two prepared
    /// Miller loops.
    ///
    /// # Errors
    ///
    /// [`PolyError::NoPoints`] / [`PolyError::DuplicatePoint`] for a
    /// malformed batch claim (nothing is pushed in that case).
    pub fn push_claim(
        &self,
        acc: &mut PairingAccumulator<'_>,
        claim: &Claim,
    ) -> Result<(), PolyError> {
        let curve = self.srs.curve();
        let ops = FpOps(Arc::clone(curve.fp()));
        let g1 = curve.g1_generator();
        match claim {
            Claim::Single {
                commitment,
                opening,
            } => {
                // e(C − [y]G1 + [z]W, G2) =? e(W, [τ]G2)
                let y_g1 = curve.g1_mul(g1, &opening.y);
                let z_w = curve.g1_mul(&opening.witness, &opening.z);
                let lhs = curve.g1_add(&curve.g1_add(commitment, &affine_neg(&ops, &y_g1)), &z_w);
                acc.push_check(
                    &lhs,
                    curve.g2_generator(),
                    &opening.witness,
                    self.srs.tau_g2(),
                );
            }
            Claim::Batch {
                commitment,
                opening,
            } => {
                let fr = curve.fr();
                let points: Vec<(Fp, Fp)> = opening
                    .points
                    .iter()
                    .map(|(z, y)| (fr.from_biguint(z), fr.from_biguint(y)))
                    .collect();
                // Re-derives z* and rejects empty/duplicated point sets
                // before anything touches the accumulator.
                let r_poly = Polynomial::interpolate(&points)?;
                let z_star = draw_z_star(curve, commitment, &points, &opening.quotient);
                let r_at = r_poly.eval(&z_star).to_biguint();
                let z_at = vanishing_at(&points, &z_star).to_biguint();
                // F = C − [r(z*)]G1 − [Z(z*)]W, then
                // e(F + [z*]W′, G2) =? e(W′, [τ]G2).
                let r_g1 = curve.g1_mul(g1, &r_at);
                let z_w = curve.g1_mul(&opening.quotient, &z_at);
                let f = curve.g1_add(
                    &curve.g1_add(commitment, &affine_neg(&ops, &r_g1)),
                    &affine_neg(&ops, &z_w),
                );
                let lhs = curve.g1_add(&f, &curve.g1_mul(&opening.shift, &z_star.to_biguint()));
                acc.push_check(
                    &lhs,
                    curve.g2_generator(),
                    &opening.shift,
                    self.srs.tau_g2(),
                );
            }
        }
        Ok(())
    }

    /// Verifies one opening (a batch of size one).
    ///
    /// The commitment and the opening's points must lie in G1, the
    /// precondition of the pairing check
    /// ([`PairingAccumulator::push_check`]): decode them with
    /// [`Curve::decode_g1`] or check them with [`Curve::validate_g1`].
    ///
    /// # Errors
    ///
    /// [`PolyError::OpeningRejected`] when the pairing check fails.
    pub fn verify(&self, commitment: &Affine<Fp>, opening: &Opening) -> Result<(), PolyError> {
        let mut acc = PairingAccumulator::with_label(self.engine, VERIFY_LABEL);
        self.push_claim(
            &mut acc,
            &Claim::Single {
                commitment: commitment.clone(),
                opening: opening.clone(),
            },
        )?;
        if acc.settle() {
            Ok(())
        } else {
            Err(PolyError::OpeningRejected)
        }
    }

    /// Verifies a batch of claims with one settle: two cached Miller
    /// loops and one final exponentiation, however many claims are
    /// pushed. On failure the batch is re-settled in isolating mode so
    /// the error names the failing claims. Every claim's points must lie
    /// in G1, as for [`Kzg::verify`].
    ///
    /// # Errors
    ///
    /// [`PolyError::BatchRejected`] listing the indices (in `claims`
    /// order) of every claim whose check fails; claim-validation errors
    /// ([`PolyError::NoPoints`], [`PolyError::DuplicatePoint`])
    /// propagate before any pairing work.
    pub fn verify_batch(&self, claims: &[Claim]) -> Result<(), PolyError> {
        if claims.is_empty() {
            return Ok(());
        }
        let mut acc = PairingAccumulator::with_label(self.engine, VERIFY_LABEL);
        for claim in claims {
            self.push_claim(&mut acc, claim)?;
        }
        if acc.settle() {
            return Ok(());
        }
        // Same label, same push order — the isolating pass re-derives
        // identical randomizers, so its verdict matches the fast path's.
        let mut acc = PairingAccumulator::with_label(self.engine, VERIFY_LABEL);
        for claim in claims {
            self.push_claim(&mut acc, claim)?;
        }
        match acc.settle_isolating() {
            Ok(()) => Ok(()),
            Err(bad) => Err(PolyError::BatchRejected { bad }),
        }
    }
}

/// The batched-opening Fiat–Shamir challenge: drawn over the curve,
/// the commitment, every claimed point, and the quotient commitment;
/// redrawn on the (negligible) event it lands in the point set, so the
/// shifted witness's divisor never collides with an opened point.
fn draw_z_star(
    curve: &Curve,
    commitment: &Affine<Fp>,
    points: &[(Fp, Fp)],
    quotient: &Affine<Fp>,
) -> Fp {
    let mut t = SplitMix64Transcript::new(OPEN_LABEL);
    t.absorb_bytes(curve.name().as_bytes());
    t.absorb_g1(commitment);
    for (z, y) in points {
        t.absorb_scalar(&z.to_biguint());
        t.absorb_scalar(&y.to_biguint());
    }
    t.absorb_g1(quotient);
    let mut draw = || curve.fr().from_biguint(&t.challenge_scalar(curve.r()));
    let mut z_star = draw();
    while points.iter().any(|(z, _)| *z == z_star) {
        z_star = draw();
    }
    z_star
}

/// `Z(x) = Π (x − zᵢ)` evaluated directly (no coefficient expansion).
fn vanishing_at(points: &[(Fp, Fp)], x: &Fp) -> Fp {
    let mut acc = x.ctx().one();
    for (z, _) in points {
        acc.mul_assign(&(x - z));
    }
    acc
}
