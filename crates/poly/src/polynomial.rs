//! Dense univariate polynomials over a prime scalar field F_r.
//!
//! Coefficients are [`Fp`] elements of one interned F_r context, in
//! little-endian order (index i holds the Xⁱ coefficient), kept trimmed
//! of leading zeros — so two equal polynomials always compare equal
//! coefficient-wise and the degree is `coeffs.len() − 1`. Every
//! operation runs on the allocation-free CIOS Montgomery kernel the
//! pairing uses. The value carries its field, so even the zero
//! polynomial knows its r; a curve's field is
//! [`Curve::fr`](finesse_curves::Curve::fr). [`BigUint`] appears only at
//! the boundary: [`Polynomial::new`] converts each coefficient once.

use finesse_core::PolyError;
use finesse_curves::{FieldOps, FpOps};
use finesse_ff::{BigUint, Fp, FpCtx};
use std::sync::Arc;

/// A dense polynomial `c₀ + c₁X + … + c_dX^d` over F_r.
#[derive(Debug, Clone)]
pub struct Polynomial {
    field: Arc<FpCtx>,
    coeffs: Vec<Fp>,
}

impl PartialEq for Polynomial {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.field, &other.field) && self.coeffs == other.coeffs
    }
}

impl Eq for Polynomial {}

impl Polynomial {
    /// A polynomial over F_r from little-endian coefficients, each
    /// reduced mod `r` and converted once, then trimmed. The empty
    /// vector (or all-zero input) is the zero polynomial.
    ///
    /// `r` is taken to be prime, as every
    /// [`Curve::r`](finesse_curves::Curve::r) is; it is not re-tested.
    ///
    /// # Panics
    ///
    /// Panics unless `r` is odd, at least 3, and at most
    /// [`MAX_LIMBS`](finesse_ff::MAX_LIMBS) limbs wide.
    pub fn new(coeffs: Vec<BigUint>, r: &BigUint) -> Self {
        let field = FpCtx::new_unchecked(r.clone());
        let coeffs = coeffs.iter().map(|c| field.from_biguint(c)).collect();
        Self::from_coeffs(field, coeffs)
    }

    /// Wraps coefficients of `field`, trimming leading zeros.
    fn from_coeffs(field: Arc<FpCtx>, mut coeffs: Vec<Fp>) -> Self {
        while coeffs.last().is_some_and(Fp::is_zero) {
            coeffs.pop();
        }
        Polynomial { field, coeffs }
    }

    /// The unique polynomial of degree `< points.len()` through the
    /// given `(z, y)` pairs, over their field (Lagrange interpolation;
    /// one inversion batch covers every denominator).
    ///
    /// # Errors
    ///
    /// [`PolyError::NoPoints`] for an empty input and
    /// [`PolyError::DuplicatePoint`] when two evaluation points coincide
    /// (the denominators vanish).
    ///
    /// # Panics
    ///
    /// Panics if the points mix elements of different fields.
    pub fn interpolate(points: &[(Fp, Fp)]) -> Result<Self, PolyError> {
        let Some((z0, _)) = points.first() else {
            return Err(PolyError::NoPoints);
        };
        let field = Arc::clone(z0.ctx());
        // denoms[i] = Π_{j≠i} (zᵢ − zⱼ); a zero denominator is exactly a
        // duplicated evaluation point, caught here because
        // `FieldOps::batch_inv` panics on zero.
        let mut denoms = Vec::with_capacity(points.len());
        for (i, (zi, _)) in points.iter().enumerate() {
            let mut d = field.one();
            for (j, (zj, _)) in points.iter().enumerate() {
                if i != j {
                    d.mul_assign(&(zi - zj));
                }
            }
            if d.is_zero() {
                return Err(PolyError::DuplicatePoint);
            }
            denoms.push(d);
        }
        FpOps(Arc::clone(&field)).batch_inv(&mut denoms);
        // Σᵢ yᵢ · denomᵢ⁻¹ · Πⱼ≠ᵢ (X − zⱼ), accumulated coefficient-wise.
        let mut acc = vec![field.zero(); points.len()];
        for (i, ((_, yi), inv)) in points.iter().zip(&denoms).enumerate() {
            let mut basis = vec![field.one()];
            for (j, (zj, _)) in points.iter().enumerate() {
                if i != j {
                    basis = mul_linear(&basis, &-zj);
                }
            }
            let w = yi * inv;
            for (a, b) in acc.iter_mut().zip(&basis) {
                a.add_assign(&(&w * b));
            }
        }
        Ok(Self::from_coeffs(field, acc))
    }

    /// The vanishing polynomial `Z(X) = Π (X − zᵢ)` of the given points,
    /// over `field`.
    pub fn vanishing(zs: &[Fp], field: &Arc<FpCtx>) -> Self {
        let mut coeffs = vec![field.one()];
        for z in zs {
            coeffs = mul_linear(&coeffs, &-z);
        }
        Self::from_coeffs(Arc::clone(field), coeffs)
    }

    /// The scalar field F_r the coefficients live in.
    pub fn field(&self) -> &Arc<FpCtx> {
        &self.field
    }

    /// Little-endian coefficients (trimmed; empty for the zero
    /// polynomial).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Horner evaluation at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is an element of another field.
    pub fn eval(&self, x: &Fp) -> Fp {
        let mut acc = self.field.zero();
        for c in self.coeffs.iter().rev() {
            acc.mul_assign(x);
            acc.add_assign(c);
        }
        acc
    }

    /// `self − c` as polynomials (subtracts `c` from the constant term).
    pub fn sub_constant(&self, c: &Fp) -> Self {
        let mut coeffs = self.coeffs.clone();
        match coeffs.first_mut() {
            Some(c0) => c0.sub_assign(c),
            None => coeffs.push(-c),
        }
        Self::from_coeffs(Arc::clone(&self.field), coeffs)
    }

    /// `self − s·other`, the combination the shifted batched-opening
    /// witness needs.
    pub fn sub_scaled(&self, other: &Self, s: &Fp) -> Self {
        let mut coeffs = self.coeffs.clone();
        if coeffs.len() < other.coeffs.len() {
            coeffs.resize(other.coeffs.len(), self.field.zero());
        }
        for (a, b) in coeffs.iter_mut().zip(&other.coeffs) {
            a.sub_assign(&(s * b));
        }
        Self::from_coeffs(Arc::clone(&self.field), coeffs)
    }

    /// Synthetic division by `(X − z)`: returns `(q, rem)` with
    /// `self = q·(X − z) + rem`. The remainder equals `self.eval(z)`
    /// (the division is exact iff `z` is a root).
    pub fn divide_by_linear(&self, z: &Fp) -> (Self, Fp) {
        let field = Arc::clone(&self.field);
        let Some((c0, rest)) = self.coeffs.split_first() else {
            // Zero polynomial: quotient and remainder are both zero.
            let zero = field.zero();
            return (Self::from_coeffs(field, Vec::new()), zero);
        };
        // qᵢ₋₁ = cᵢ + z·qᵢ from the top coefficient down; the final
        // carry folds into the remainder c₀ + z·q₀.
        let mut quot = vec![field.zero(); rest.len()];
        let mut carry = field.zero();
        for (q, c) in quot.iter_mut().zip(rest).rev() {
            carry.mul_assign(z);
            carry.add_assign(c);
            *q = carry.clone();
        }
        carry.mul_assign(z);
        carry.add_assign(c0);
        (Self::from_coeffs(field, quot), carry)
    }
}

/// `p(X) · (X + c)`, the building block for vanishing/basis products.
fn mul_linear(p: &[Fp], c: &Fp) -> Vec<Fp> {
    // Σ c·aᵢ·Xⁱ + Σ aᵢ·Xⁱ⁺¹
    let mut out: Vec<Fp> = p.iter().map(|a| a * c).collect();
    out.push(c.ctx().zero());
    for (o, a) in out.iter_mut().skip(1).zip(p) {
        o.add_assign(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> BigUint {
        BigUint::from_u64(1_000_003)
    }

    fn field() -> Arc<FpCtx> {
        FpCtx::new_unchecked(m())
    }

    fn fr(v: u64) -> Fp {
        field().from_u64(v)
    }

    fn poly(cs: &[u64]) -> Polynomial {
        Polynomial::new(cs.iter().map(|&c| BigUint::from_u64(c)).collect(), &m())
    }

    #[test]
    fn construction_reduces_and_trims() {
        let p = Polynomial::new(
            vec![
                BigUint::from_u64(1_000_003 + 7),
                BigUint::zero(),
                BigUint::from_u64(2_000_006),
            ],
            &m(),
        );
        assert_eq!(p.coeffs(), &[fr(7)]);
        assert_eq!(p.degree(), Some(0));
        let zero = Polynomial::new(vec![], &m());
        assert!(zero.is_zero());
        assert!(Arc::ptr_eq(zero.field(), &field()), "zero keeps its field");
    }

    #[test]
    fn division_by_root_is_exact() {
        // (X − 3)(X² + 5) = X³ − 3X² + 5X − 15.
        let p = poly(&[1_000_003 - 15, 5, 1_000_003 - 3, 1]);
        let (q, rem) = p.divide_by_linear(&fr(3));
        assert!(rem.is_zero());
        assert_eq!(q, poly(&[5, 0, 1]));
        // Non-root: remainder is the evaluation.
        let (_, rem) = p.divide_by_linear(&fr(4));
        assert_eq!(rem, p.eval(&fr(4)));
    }

    #[test]
    fn interpolation_round_trips_evaluations() {
        let p = poly(&[9, 0, 4, 17]);
        let points: Vec<(Fp, Fp)> = (10u64..14)
            .map(|z| {
                let y = p.eval(&fr(z));
                (fr(z), y)
            })
            .collect();
        assert_eq!(Polynomial::interpolate(&points).unwrap(), p);
        assert!(matches!(
            Polynomial::interpolate(&[]),
            Err(PolyError::NoPoints)
        ));
        let dup = vec![points[0].clone(), points[0].clone()];
        assert!(matches!(
            Polynomial::interpolate(&dup),
            Err(PolyError::DuplicatePoint)
        ));
    }

    #[test]
    fn vanishing_has_exactly_the_given_roots() {
        let zs = [fr(2), fr(5), fr(11)];
        let z = Polynomial::vanishing(&zs, &field());
        assert_eq!(z.degree(), Some(3));
        for root in &zs {
            assert!(z.eval(root).is_zero());
        }
        assert!(!z.eval(&fr(3)).is_zero());
    }

    #[test]
    fn sub_scaled_matches_pointwise() {
        let f = poly(&[1, 2, 3]);
        let g = poly(&[4, 0, 0, 6]);
        let s = fr(7);
        let h = f.sub_scaled(&g, &s);
        for x in [0u64, 1, 2, 99] {
            let x = fr(x);
            assert_eq!(h.eval(&x), &f.eval(&x) - &(&s * &g.eval(&x)));
        }
    }
}
