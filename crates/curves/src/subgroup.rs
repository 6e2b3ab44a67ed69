//! Fast subgroup-membership checks for untrusted points.
//!
//! Accepting a point that lies on the curve (or its twist) but outside
//! the order-`r` pairing subgroup enables small-subgroup and
//! invalid-curve key-recovery attacks, so a serving boundary must test
//! membership on every decoded point. The naive test multiplies by the
//! full group order (`[r]P = O`, a `bits(r)`-wide ladder); this module
//! reuses the endomorphisms that already power the GLV/GLS scalar
//! splits to do the same test at roughly half (G1) or a quarter (G2)
//! of that cost:
//!
//! - **G1** — the cube-root endomorphism `φ(x, y) = (βx, y)` acts on
//!   the r-torsion as `[λ]`. For a short lattice vector `(a1, b1)` with
//!   `a1 + b1·λ ≡ 0 (mod r)`, every subgroup point satisfies
//!   `[a1]P + [b1]φ(P) = O`, a two-term multi-scalar ladder of
//!   `~√r`-bit scalars.
//! - **G2** — the untwist–Frobenius ψ acts on G2 as `[p mod r]`, so
//!   subgroup points satisfy `ψ(Q) = [s]Q` where `s` is the *symmetric*
//!   residue of `p` mod `r` — the curve generator `t` (`~r^{1/4}` bits)
//!   on BLS curves, `6t²` (`~√r` bits) on BN curves.
//!
//! Each fast predicate is **certified sound at derivation time**, not
//! merely assumed: for an endomorphism χ with dual χ̂, any point in
//! `ker χ` has order dividing `deg χ` (because `χ̂∘χ = [deg χ]`), so if
//! `gcd(deg χ, #group) = r` the kernel inside the rational group is
//! exactly the r-torsion. The module computes that gcd once per curve —
//! `deg(a1 + b1·φ) = a1² − a1·b1 + b1²` for the `φ² + φ + 1 = 0`
//! automorphism, `deg(ψ − s) = s² − s·tr + p` from ψ's characteristic
//! equation `ψ² − [tr]ψ + [p] = 0` — and **falls back to the naive
//! `[r]P` ladder** whenever the certificate does not come out to
//! exactly `r`. A passing fast check is therefore bit-for-bit
//! equivalent to the naive oracle (differential-tested across all
//! seven Table 2 curves in `tests/wire.rs`).

use crate::curve::Curve;
use crate::point::{
    is_identity, jac_mul, msm, to_jacobian, Affine, FieldOps, FpOps, FqOps, Jacobian, MulTerm,
};
use finesse_ff::{BigInt, BigUint, Fp, Fq};
use std::sync::Arc;

/// Certified fast G1 membership predicate (derived once per curve).
#[derive(Debug)]
pub(crate) enum G1Check {
    /// `[a1]P + [b1]φ(P) = O`, certified by
    /// `gcd(a1² − a1·b1 + b1², #E(F_p)) = r`.
    Endo {
        /// First coordinate of the short lattice vector (signed).
        a1: BigInt,
        /// Second coordinate (signed).
        b1: BigInt,
    },
    /// Naive `[r]P = O` ladder (no usable φ, or certification failed).
    Ladder,
}

/// Certified fast G2 membership predicate (derived once per curve).
#[derive(Debug)]
pub(crate) enum G2Check {
    /// `ψ(Q) = [s]Q`, certified by `gcd(s² − s·tr + p, #E'(F_q)) = r`.
    Endo {
        /// The symmetric residue of `p` mod `r` (signed).
        s: BigInt,
    },
    /// Naive `[r]Q = O` ladder (certification failed).
    Ladder,
}

/// Euclidean gcd (one-time derivation cost, never on a hot path).
fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = a.rem(&b);
        a = b;
        b = r;
    }
    a
}

/// `deg(a + b·φ) = a² + a·b·(−tr φ is 1) + b²` for the automorphism φ
/// with `φ² + φ + 1 = 0` (trace −1, degree 1): `a² − a·b + b²`. This
/// quadratic form is positive-definite, so the result is non-negative.
fn phi_combination_degree(a: &BigInt, b: &BigInt) -> BigUint {
    let d = &(&(a * a) - &(a * b)) + &(b * b);
    d.to_biguint().unwrap_or_default()
}

/// Derives the G1 predicate: try both short basis vectors, keep the
/// first whose degree certificate comes out to exactly `r`.
fn derive_g1_check(c: &Curve) -> G1Check {
    let Some(glv) = c.glv_g1() else {
        return G1Check::Ladder;
    };
    let basis = glv.basis();
    for (a, b) in [(&basis.a1, &basis.b1), (&basis.a2, &basis.b2)] {
        let deg = phi_combination_degree(a, b);
        if !deg.is_zero() && gcd(&deg, c.g1_order()) == *c.r() {
            return G1Check::Endo {
                a1: a.clone(),
                b1: b.clone(),
            };
        }
    }
    G1Check::Ladder
}

/// Derives the G2 predicate: `s` = symmetric residue of `p` mod `r`,
/// certified via `deg(ψ − s) = s² − s·tr + p` against `#E'(F_q)`.
fn derive_g2_check(c: &Curve) -> G2Check {
    let s0 = c.p().rem(c.r());
    // Pick the representative of smaller magnitude: s0 or s0 − r.
    let twice = &s0 + &s0;
    let s = if twice > *c.r() {
        &BigInt::from_biguint(s0) - &BigInt::from_biguint(c.r().clone())
    } else {
        BigInt::from_biguint(s0)
    };
    let deg = &(&(&s * &s) - &(&s * c.trace())) + &BigInt::from_biguint(c.p().clone());
    let Some(deg) = deg.to_biguint() else {
        return G2Check::Ladder;
    };
    if !deg.is_zero() && gcd(&deg, c.g2_order()) == *c.r() {
        G2Check::Endo { s }
    } else {
        G2Check::Ladder
    }
}

impl Curve {
    /// True iff `p` is in the order-`r` pairing subgroup G1.
    ///
    /// The point is assumed to lie on `E(F_p)` (check with
    /// [`Curve::g1_on_curve`] first; [`crate::wire`] decoding does
    /// both). Costs one endomorphism application plus a two-term
    /// `~√r`-bit multi-scalar ladder on every built-in curve; falls
    /// back to the naive full-width `[r]P` ladder if the one-time
    /// soundness certificate fails (see the module docs). The identity
    /// is a member.
    pub fn in_g1_subgroup(&self, p: &Affine<Fp>) -> bool {
        if p.infinity {
            return true;
        }
        let ops = FpOps(Arc::clone(self.fp()));
        let check = self
            .g1_subgroup_cache()
            .get_or_init(|| derive_g1_check(self));
        if let G1Check::Endo { a1, b1 } = check {
            if let Some(phi_p) = self.phi(p) {
                let terms = [
                    MulTerm {
                        point: p.clone(),
                        scalar: a1.magnitude().clone(),
                        negate: a1.is_negative(),
                    },
                    MulTerm {
                        point: phi_p,
                        scalar: b1.magnitude().clone(),
                        negate: b1.is_negative(),
                    },
                ];
                return is_identity(&ops, &msm(&ops, &terms, &[]));
            }
        }
        is_identity(&ops, &jac_mul(&ops, p, self.r()))
    }

    /// Naive `[r]P = O` G1 membership oracle — the slow reference the
    /// fast path is differential-tested against.
    pub fn in_g1_subgroup_naive(&self, p: &Affine<Fp>) -> bool {
        if p.infinity {
            return true;
        }
        let ops = FpOps(Arc::clone(self.fp()));
        is_identity(&ops, &jac_mul(&ops, p, self.r()))
    }

    /// True iff `q` is in the order-`r` pairing subgroup G2 on the
    /// twist.
    ///
    /// The point is assumed to lie on `E'(F_q)` (check with
    /// [`Curve::g2_on_curve`] first; [`crate::wire`] decoding does
    /// both). Costs one ψ application plus a `bits(s)`-bit ladder —
    /// `~r^{1/4}` bits on BLS curves, `~√r` on BN — with the same
    /// certified fallback as [`Curve::in_g1_subgroup`]. The identity
    /// is a member.
    pub fn in_g2_subgroup(&self, q: &Affine<Fq>) -> bool {
        if q.infinity {
            return true;
        }
        let ops = FqOps(self.tower());
        let check = self
            .g2_subgroup_cache()
            .get_or_init(|| derive_g2_check(self));
        match check {
            G2Check::Endo { s } => {
                let lhs = to_jacobian(&ops, &self.psi(q));
                let mut rhs = jac_mul(&ops, q, s.magnitude());
                if s.is_negative() {
                    rhs.y = ops.neg(&rhs.y);
                }
                // ψ(Q) − [s]Q = O ⟺ the Jacobian points are equal;
                // compare cross-multiplied to avoid an inversion.
                jacobian_eq(&ops, &lhs, &rhs)
            }
            G2Check::Ladder => is_identity(&ops, &jac_mul(&ops, q, self.r())),
        }
    }

    /// Naive `[r]Q = O` G2 membership oracle — the slow reference the
    /// fast path is differential-tested against.
    pub fn in_g2_subgroup_naive(&self, q: &Affine<Fq>) -> bool {
        if q.infinity {
            return true;
        }
        let ops = FqOps(self.tower());
        is_identity(&ops, &jac_mul(&ops, q, self.r()))
    }
}

/// Equality of Jacobian representatives without normalising:
/// `(X₁/Z₁², Y₁/Z₁³) = (X₂/Z₂², Y₂/Z₂³)` cross-multiplied.
fn jacobian_eq<O: FieldOps>(ops: &O, a: &Jacobian<O::El>, b: &Jacobian<O::El>) -> bool {
    let a_inf = ops.is_zero(&a.z);
    let b_inf = ops.is_zero(&b.z);
    if a_inf || b_inf {
        return a_inf == b_inf;
    }
    let az2 = ops.sqr(&a.z);
    let bz2 = ops.sqr(&b.z);
    if ops.mul(&a.x, &bz2) != ops.mul(&b.x, &az2) {
        return false;
    }
    let az3 = ops.mul(&az2, &a.z);
    let bz3 = ops.mul(&bz2, &b.z);
    ops.mul(&a.y, &bz3) == ops.mul(&b.y, &az3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_ff::FpCtx;

    /// A point on E(F_p) found by x-increment, *without* clearing the
    /// cofactor — outside the r-torsion with overwhelming probability
    /// when the cofactor is > 1.
    fn uncleaned_g1_point(c: &Curve, start: u64) -> Affine<Fp> {
        let fp: &Arc<FpCtx> = c.fp();
        let mut xi = start;
        loop {
            let x = fp.from_u64(xi);
            let rhs = &(&(&x * &x) * &x) + c.b();
            if let Some(y) = rhs.sqrt() {
                return Affine::new(x, y);
            }
            xi += 1;
        }
    }

    /// Same on the twist E'(F_q).
    fn uncleaned_g2_point(c: &Curve, start: u64) -> Affine<Fq> {
        let tower = c.tower();
        let mut xi = start;
        loop {
            let x = tower.fq_from_fp(&c.fp().from_u64(xi));
            let x3 = tower.fq_mul(&tower.fq_mul(&x, &x), &x);
            let rhs = tower.fq_add(&x3, c.b_twist());
            if let Some(y) = tower.fq_sqrt(&rhs) {
                return Affine::new(x, y);
            }
            xi += 1;
        }
    }

    fn check_curve(name: &str) {
        let c = Curve::by_name(name);
        // Fast data must certify on every built-in curve (no ladder
        // fallback), otherwise the speedup silently evaporates.
        c.in_g1_subgroup(c.g1_generator());
        c.in_g2_subgroup(c.g2_generator());
        assert!(
            matches!(c.g1_subgroup_cache().get(), Some(G1Check::Endo { .. })),
            "{name}: G1 fast check failed certification"
        );
        assert!(
            matches!(c.g2_subgroup_cache().get(), Some(G2Check::Endo { .. })),
            "{name}: G2 fast check failed certification"
        );
        // Members: generator, a few multiples, the identity.
        assert!(c.in_g1_subgroup(c.g1_generator()));
        assert!(c.in_g2_subgroup(c.g2_generator()));
        assert!(c.in_g1_subgroup(&Affine::infinity(c.fp().zero())));
        assert!(c.in_g2_subgroup(&Affine::infinity(c.tower().fq_zero())));
        for k in [2u64, 7, 12345] {
            let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(k));
            let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(k));
            assert!(c.in_g1_subgroup(&p), "{name}: [{k}]G1 rejected");
            assert!(c.in_g2_subgroup(&q), "{name}: [{k}]G2 rejected");
        }
        // Differential vs the naive oracle on uncleaned curve points.
        for start in [1u64, 10, 100] {
            let p = uncleaned_g1_point(&c, start);
            assert!(c.g1_on_curve(&p));
            assert_eq!(
                c.in_g1_subgroup(&p),
                c.in_g1_subgroup_naive(&p),
                "{name}: G1 fast/naive disagree at x start {start}"
            );
            let q = uncleaned_g2_point(&c, start);
            assert!(c.g2_on_curve(&q));
            assert_eq!(
                c.in_g2_subgroup(&q),
                c.in_g2_subgroup_naive(&q),
                "{name}: G2 fast/naive disagree at x start {start}"
            );
            // With a non-trivial cofactor the uncleaned point should be
            // outside the subgroup (sanity that the test has teeth).
            if !c.g1_cofactor().is_one() {
                assert!(!c.in_g1_subgroup(&p), "{name}: uncleaned G1 accepted");
            } else {
                assert!(c.in_g1_subgroup(&p), "{name}: h=1 G1 point rejected");
            }
            if !c.g2_cofactor().is_one() {
                assert!(!c.in_g2_subgroup(&q), "{name}: uncleaned G2 accepted");
            }
        }
    }

    #[test]
    fn bn254n_fast_checks_match_naive() {
        check_curve("BN254N");
    }

    #[test]
    fn bls12_381_fast_checks_match_naive() {
        check_curve("BLS12-381");
    }
}
