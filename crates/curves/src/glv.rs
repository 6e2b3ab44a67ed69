//! GLV/GLS scalar decomposition: lattice bases and sub-scalar splitting.
//!
//! Every curve in Table 2 has `j = 0`, so G1 carries the cube-root-of-unity
//! endomorphism `φ(x, y) = (βx, y)` acting as multiplication by an
//! eigenvalue `λ` with `λ² + λ + 1 ≡ 0 (mod r)`, and G2 carries the
//! untwist–Frobenius `ψ` acting as multiplication by `p mod r`. Splitting a
//! scalar along those eigenvalues replaces an `r`-length double-and-add
//! ladder with several `√r`-length (or `|t|`-length) ladders whose
//! doublings are shared — the same decomposition hardware pairing engines
//! assume on their scalar inputs.
//!
//! Two decompositions live here:
//!
//! - [`lattice_basis`] + [`decompose`] — the classic 2-dimensional GLV
//!   split via a half-extended Euclid reduction of the lattice
//!   `{(x, y) : x + yλ ≡ 0 (mod r)}`, giving `|k₁|, |k₂| ≈ √r`;
//! - [`balanced_digits`] — the GLS split for BLS curves, where the ψ
//!   eigenvalue is the *curve generator* `t` itself (`p ≡ t (mod r)`), so
//!   base-`t` digits with balanced remainders give `⌈log r / log t⌉`
//!   sub-scalars of `|t|`-size each (4-dimensional for BLS12, 8 for BLS24).
//!
//! All functions are exact integer arithmetic over [`BigInt`]/[`BigUint`];
//! correctness is checked by recomposition (`Σ kᵢ λⁱ ≡ k mod r`) in the
//! differential test suite.

use finesse_ff::{BigInt, BigUint};

/// A reduced 2-dimensional basis of the GLV lattice
/// `L = {(x, y) ∈ Z² : x + yλ ≡ 0 (mod r)}`, with both vectors of norm
/// about `√r`, plus precomputed shift-scaled rounding constants so the
/// per-scalar decomposition is two multiplies and two shifts instead of
/// two multi-limb divisions.
#[derive(Clone, Debug)]
pub struct GlvBasis {
    /// First short vector `(a1, b1)` with `a1 + b1·λ ≡ 0 (mod r)`.
    pub a1: BigInt,
    /// See `a1`.
    pub b1: BigInt,
    /// Second short vector `(a2, b2)`, linearly independent of the first.
    pub a2: BigInt,
    /// See `a2`.
    pub b2: BigInt,
    /// `⌊b2·2^shift/r⌉` — rounding constant for the first coordinate.
    round1: BigInt,
    /// `⌊−b1·2^shift/r⌉` — rounding constant for the second coordinate.
    round2: BigInt,
    /// Guard-bit shift (`r.bits() + 64`): the approximation error after
    /// shifting is below 1, so each rounded coefficient is off by at
    /// most one — which only widens the sub-scalars by one basis vector.
    shift: usize,
}

impl GlvBasis {
    /// Bit-width bound of the sub-scalars [`decompose`] produces. Exact
    /// rounding leaves `(k₁, k₂)` within half of each basis vector, at most
    /// the largest entry; the documented off-by-one adds at most one more
    /// basis vector. So `|kᵢ|` stays below twice the largest entry: one
    /// bit past it.
    pub(crate) fn split_bits(&self) -> usize {
        let entries = [&self.a1, &self.b1, &self.a2, &self.b2];
        entries.iter().map(|e| e.bits()).max().unwrap_or(0) + 1
    }
}

/// `⌊m / 2^s⌉` with ties away from zero, preserving sign.
fn shift_round(m: &BigInt, s: usize) -> BigInt {
    let half = BigUint::one().shl(s - 1);
    BigInt::from_sign_magnitude(m.is_negative(), (m.magnitude() + &half).shr(s))
}

/// Reduces the GLV lattice for `(r, λ)` with the half-extended Euclidean
/// algorithm (Gallant–Lambert–Vanstone, Algorithm 3.74 in the Guide to
/// ECC): run Euclid on `(r, λ)` keeping the `λ`-cofactors, stop around
/// `√r`, and take consecutive remainder rows as the short basis.
///
/// Both returned vectors satisfy `aᵢ + bᵢ·λ ≡ 0 (mod r)` and have entries
/// of roughly `r.bits()/2` bits (the standard Euclid bound).
///
/// # Panics
///
/// Panics if `λ` is zero or not reduced mod `r`.
pub fn lattice_basis(r: &BigUint, lambda: &BigUint) -> GlvBasis {
    assert!(!lambda.is_zero() && lambda < r, "lambda must be in (0, r)");
    // Remainder sequence r_i with cofactors t_i: r_i = s_i·r + t_i·λ
    // (s_i never needed). Rows: (r_prev, t_prev) → (r_cur, t_cur).
    let mut rem_prev = r.clone();
    let mut rem_cur = lambda.clone();
    let mut t_prev = BigInt::zero();
    let mut t_cur = BigInt::one();
    // Advance until the current remainder drops below √r; then
    // (rem_prev, t_prev) is the last row ≥ √r and (rem_cur, t_cur) the
    // first below.
    while &(&rem_cur * &rem_cur) >= r {
        let (q, rem_next) = rem_prev.divrem(&rem_cur);
        let t_next = &t_prev - &(&BigInt::from_biguint(q) * &t_cur);
        rem_prev = std::mem::replace(&mut rem_cur, rem_next);
        t_prev = std::mem::replace(&mut t_cur, t_next);
    }
    // v1 = (r_{l+1}, −t_{l+1}): the first sub-√r row.
    let a1 = BigInt::from_biguint(rem_cur.clone());
    let b1 = t_cur.neg();
    // v2: the shorter of (r_l, −t_l) and the next row (r_{l+2}, −t_{l+2}).
    let (q, rem_next) = rem_prev.divrem(&rem_cur);
    let t_next = &t_prev - &(&BigInt::from_biguint(q) * &t_cur);
    let norm = |a: &BigInt, b: &BigInt| -> BigUint {
        &(a.magnitude() * a.magnitude()) + &(b.magnitude() * b.magnitude())
    };
    let cand_prev = (BigInt::from_biguint(rem_prev), t_prev.neg());
    let cand_next = (BigInt::from_biguint(rem_next), t_next.neg());
    let (mut a2, mut b2) = if norm(&cand_prev.0, &cand_prev.1) <= norm(&cand_next.0, &cand_next.1) {
        cand_prev
    } else {
        cand_next
    };
    // Orient the basis so det = a1·b2 − a2·b1 = +r: `decompose` rounds
    // coordinates via Cramer's rule and relies on the sign (negating a
    // lattice vector keeps it in the lattice, so this is free).
    let det = &(&a1 * &b2) - &(&a2 * &b1);
    if det.is_negative() {
        a2 = a2.neg();
        b2 = b2.neg();
    }
    debug_assert_eq!(
        (&(&a1 * &b2) - &(&a2 * &b1)).magnitude(),
        r,
        "GLV basis determinant must be ±r"
    );
    let shift = r.bits() + 64;
    let two_s = BigInt::from_biguint(BigUint::one().shl(shift));
    let round1 = (&b2 * &two_s).div_round(r);
    let round2 = (&b1.neg() * &two_s).div_round(r);
    GlvBasis {
        a1,
        b1,
        a2,
        b2,
        round1,
        round2,
        shift,
    }
}

/// Splits `k ∈ [0, r)` into `(k₁, k₂)` with `k₁ + k₂·λ ≡ k (mod r)` and
/// `|k₁|, |k₂| ≈ √r`, by rounding `k`'s coordinates in the reduced lattice
/// basis to the nearest lattice point and subtracting. The basis carries
/// its own precomputed `r`-derived rounding data.
pub fn decompose(k: &BigUint, basis: &GlvBasis) -> (BigInt, BigInt) {
    let k_int = BigInt::from_biguint(k.clone());
    // (c1, c2) = ⌊(k, 0)·B⁻¹⌉ via Cramer's rule (det(B) = +r), using the
    // precomputed shift-scaled constants instead of dividing by r.
    let c1 = shift_round(&(&basis.round1 * &k_int), basis.shift);
    let c2 = shift_round(&(&basis.round2 * &k_int), basis.shift);
    let k1 = &(&k_int - &(&c1 * &basis.a1)) - &(&c2 * &basis.a2);
    let k2 = (&(&c1 * &basis.b1) + &(&c2 * &basis.b2)).neg();
    (k1, k2)
}

/// A full-rank 4-dimensional sublattice of
/// `{(x₀..x₃) : Σ xᵢ ζⁱ ≡ 0 (mod r)}` with precomputed Cramer data for
/// round-off decomposition: the coordinates of `(k, 0, 0, 0)` in the row
/// basis are `k·adj_col[i]/det` (first column of the adjugate).
#[derive(Clone, Debug)]
pub struct Dim4Basis {
    rows: [[BigInt; 4]; 4],
    /// `⌊adj_col[i]·2^shift/det⌉` — shift-scaled Cramer coordinates.
    rounds: [BigInt; 4],
    shift: usize,
}

impl Dim4Basis {
    /// The basis rows (each a lattice vector).
    pub fn rows(&self) -> &[[BigInt; 4]; 4] {
        &self.rows
    }
}

/// 3×3 determinant.
fn det3(m: [[&BigInt; 3]; 3]) -> BigInt {
    let term = |a: &BigInt, b: &BigInt, c: &BigInt| -> BigInt { &(a * b) * c };
    let pos = &(&term(m[0][0], m[1][1], m[2][2]) + &term(m[0][1], m[1][2], m[2][0]))
        + &term(m[0][2], m[1][0], m[2][1]);
    let neg = &(&term(m[0][2], m[1][1], m[2][0]) + &term(m[0][0], m[1][2], m[2][1]))
        + &term(m[0][1], m[1][0], m[2][2]);
    &pos - &neg
}

/// Builds the BN-family 4-dimensional ψ-lattice basis from the curve
/// generator `t`, for the eigenvalue `ζ = p mod r = 6t²`.
///
/// The BN parametrization gives the *exact* integer identity
/// `ζ² + (6t+3)ζ + (6t+1) = r`, i.e. ζ satisfies a monic quadratic with
/// `O(t)`-sized coefficients mod r; together with the cyclotomic relation
/// `ζ⁴ ≡ ζ² − 1 (mod r)` (ζ is a primitive 12th root of unity), the four
/// shifts of that relation give a basis with all entries `O(6t)` — so BN
/// G2 scalars split into four `|t|`-bit sub-scalars, exactly like the BLS
/// power split.
///
/// Every row is validated against `Σ rowⱼ·ζʲ ≡ 0 (mod r)` and the basis
/// against `det ≠ 0`; returns `None` (caller falls back to the 2-dim
/// split) if the parametrization does not actually satisfy the
/// identities.
pub fn bn_psi_basis(t: &BigInt, zeta: &BigUint, r: &BigUint) -> Option<Dim4Basis> {
    let six_t = t * &BigInt::from_i64(6);
    let c1 = &six_t + &BigInt::one(); // 6t+1
    let c2 = &six_t + &BigInt::from_i64(2); // 6t+2
    let c3 = &six_t + &BigInt::from_i64(3); // 6t+3
    let one = BigInt::one();
    let zero = BigInt::zero();
    let rows: [[BigInt; 4]; 4] = [
        [c1.clone(), c3.clone(), one.clone(), zero.clone()],
        [zero.clone(), c1.clone(), c3.clone(), one.clone()],
        [one.neg(), zero.clone(), c2.clone(), c3.clone()],
        [c3.neg(), one.neg(), c3.clone(), c2.clone()],
    ];
    // Validate lattice membership of every row.
    let zeta_pows = {
        let mut pows = vec![BigUint::one()];
        let mut prev = BigUint::one();
        for _ in 1..4 {
            prev = (&prev * zeta).rem(r);
            pows.push(prev.clone());
        }
        pows
    };
    for row in &rows {
        let mut acc = BigInt::zero();
        for (x, zp) in row.iter().zip(&zeta_pows) {
            acc = &acc + &(x * &BigInt::from_biguint(zp.clone()));
        }
        if !acc.rem_euclid(r).is_zero() {
            return None;
        }
    }
    // First-column cofactors C_{i0} = (−1)^i · minor(i, 0), and the
    // determinant via expansion down that column.
    let minor = |skip: usize| -> [[&BigInt; 3]; 3] {
        let mut out: Vec<[&BigInt; 3]> = Vec::with_capacity(3);
        for (i, row) in rows.iter().enumerate() {
            if i != skip {
                out.push([&row[1], &row[2], &row[3]]);
            }
        }
        [out[0], out[1], out[2]]
    };
    let mut adj_col: [BigInt; 4] = std::array::from_fn(|i| det3(minor(i)));
    for (i, c) in adj_col.iter_mut().enumerate() {
        if i % 2 == 1 {
            *c = c.neg();
        }
    }
    let mut det = BigInt::zero();
    for (row, cof) in rows.iter().zip(&adj_col) {
        det = &det + &(&row[0] * cof);
    }
    if det.is_zero() {
        return None;
    }
    // Fold the determinant's sign into the adjugate column so decompose4
    // can round against the positive magnitude.
    if det.is_negative() {
        for c in adj_col.iter_mut() {
            *c = c.neg();
        }
    }
    let shift = r.bits() + 64;
    let two_s = BigInt::from_biguint(BigUint::one().shl(shift));
    let rounds: [BigInt; 4] =
        std::array::from_fn(|i| (&adj_col[i] * &two_s).div_round(det.magnitude()));
    Some(Dim4Basis {
        rows,
        rounds,
        shift,
    })
}

/// Splits `k ∈ [0, r)` into `(k₀..k₃)` with `Σ kᵢ·ζⁱ ≡ k (mod r)` by
/// rounding `(k, 0, 0, 0)` to the nearest point of the 4-dimensional
/// lattice; sub-scalar sizes are bounded by the basis row norms (`O(|6t|)`
/// for the BN basis).
pub fn decompose4(k: &BigUint, basis: &Dim4Basis) -> [BigInt; 4] {
    let k_int = BigInt::from_biguint(k.clone());
    let c: [BigInt; 4] =
        std::array::from_fn(|i| shift_round(&(&k_int * &basis.rounds[i]), basis.shift));
    let mut out: [BigInt; 4] = std::array::from_fn(|_| BigInt::zero());
    out[0] = k_int;
    for (ci, row) in c.iter().zip(&basis.rows) {
        for (o, x) in out.iter_mut().zip(row) {
            *o = &*o - &(ci * x);
        }
    }
    out
}

/// Balanced base-`t` digit expansion: returns `d₀ … d_{m−1}` with
/// `k = Σ dᵢ·tⁱ` exactly over Z and `|dᵢ| ≤ ⌈|t|/2⌉`.
///
/// Used for the GLS split on BLS curves, where ψ's eigenvalue mod r *is*
/// the curve generator `t` (`p ≡ t mod r` because `p − t` is a multiple of
/// `r(t)` in the BLS parametrization), so `[k]Q = Σ [dᵢ] ψⁱ(Q)`.
///
/// # Panics
///
/// Panics if `|t| < 2`.
pub fn balanced_digits(k: &BigUint, t: &BigInt) -> Vec<BigInt> {
    let t_abs = t.magnitude();
    assert!(t_abs.bits() >= 2, "digit base must satisfy |t| >= 2");
    let half = t_abs.shr(1);
    let mut acc = BigInt::from_biguint(k.clone());
    let mut digits = Vec::new();
    while !acc.is_zero() {
        let r0 = acc.rem_euclid(t_abs);
        // Balance the remainder into (−|t|/2, |t|/2].
        let d = if r0 > half {
            // r0 = acc mod |t| < |t|, so the subtraction cannot underflow.
            BigInt::from_sign_magnitude(true, t_abs.checked_sub(&r0).unwrap_or_default())
        } else {
            BigInt::from_biguint(r0)
        };
        acc = (&acc - &d).div_exact(t);
        digits.push(d);
    }
    digits
}

/// Joint sparse form (Solinas) of a pair of non-negative integers:
/// little-endian signed digit columns `(u₀ⱼ, u₁ⱼ)` with `uᵢⱼ ∈ {−1, 0, 1}`
/// and `kᵢ = Σⱼ uᵢⱼ·2ʲ`, minimising the *joint* Hamming weight (the number
/// of columns where either digit is non-zero) over all joint signed-binary
/// expansions — asymptotically `len/2` non-zero columns, against `5·len/9`
/// for two independent NAFs.
///
/// This is the recoding behind the two-term Straus kernel: a 2-GLV pair
/// `(k₁, k₂)` costs one shared doubling chain plus roughly one addition
/// every other column, with only the tiny `{P, φP, P ± φP}` table (no
/// per-scalar odd-multiples windows). Signs of negated sub-scalars are
/// folded in by flipping that row's digits, which preserves both the value
/// identity and the sparseness bound.
pub fn jsf(k0: &BigUint, k1: &BigUint) -> Vec<(i8, i8)> {
    // HMV Algorithm 3.50: track a carry dᵢ ∈ {0, 1} per row; each step
    // inspects (kᵢ + dᵢ) mod 8 only, so the scalars live in two in-place
    // little-endian limb scratches that just shift right (no per-column
    // bignum allocation — this recoding sits on the `g1_mul` hot path).
    let mut limbs = [k0.limbs().to_vec(), k1.limbs().to_vec()];
    let is_zero = |l: &[u64]| l.iter().all(|&x| x == 0);
    let shr1 = |l: &mut [u64]| {
        let mut top = 0u64;
        for limb in l.iter_mut().rev() {
            let next = *limb & 1;
            *limb = (*limb >> 1) | (top << 63);
            top = next;
        }
    };
    let mut d = [0i64; 2];
    let mut out = Vec::with_capacity(k0.bits().max(k1.bits()) + 1);
    while !(is_zero(&limbs[0]) && is_zero(&limbs[1]) && d == [0, 0]) {
        let l = [
            ((limbs[0].first().copied().unwrap_or(0) & 7) as i64 + d[0]) & 7,
            ((limbs[1].first().copied().unwrap_or(0) & 7) as i64 + d[1]) & 7,
        ];
        let mut u = [0i64; 2];
        for i in 0..2 {
            if l[i] % 2 == 1 {
                // Signed residue mod 4 (1 → +1, 3 → −1), flipped when this
                // row is ±3 mod 8 and the partner is 2 mod 4 — the Solinas
                // rule that keeps the joint expansion sparse.
                u[i] = 2 - (l[i] % 4);
                if (l[i] == 3 || l[i] == 5) && l[1 - i] % 4 == 2 {
                    u[i] = -u[i];
                }
            }
        }
        for i in 0..2 {
            // Carry toggles exactly when the emitted digit over/undershoots
            // the carried value: (d, u) ∈ {(0, −1), (1, +1)}.
            if 2 * d[i] == 1 + u[i] {
                d[i] = 1 - d[i];
            }
            shr1(&mut limbs[i]);
        }
        out.push((u[0] as i8, u[1] as i8));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basis(r: u64, lambda: u64) {
        let rb = BigUint::from_u64(r);
        let lb = BigUint::from_u64(lambda);
        let basis = lattice_basis(&rb, &lb);
        // Both vectors are in the lattice: a + b·λ ≡ 0 (mod r).
        for (a, b) in [(&basis.a1, &basis.b1), (&basis.a2, &basis.b2)] {
            let a_part = a.rem_euclid(&rb).to_u64().unwrap() as u128;
            let b_part = b.rem_euclid(&rb).to_u64().unwrap() as u128;
            assert_eq!(
                (a_part + lambda as u128 * b_part) % r as u128,
                0,
                "lattice membership"
            );
        }
    }

    #[test]
    fn basis_vectors_lie_in_the_lattice() {
        // r = 1009 (prime), λ = 374 — arbitrary eigenvalue.
        check_basis(1009, 374);
        check_basis(7919, 6012);
    }

    #[test]
    fn decompose_recomposes_small() {
        let r = BigUint::from_u64(1009);
        let lambda = BigUint::from_u64(374);
        let basis = lattice_basis(&r, &lambda);
        for k in 0..1009u64 {
            let (k1, k2) = decompose(&BigUint::from_u64(k), &basis);
            let recomposed = &k1 + &(&k2 * &BigInt::from_biguint(lambda.clone()));
            assert_eq!(recomposed.rem_euclid(&r), BigUint::from_u64(k), "k = {k}");
            // √1009 ≈ 32; Euclid guarantees the same order of magnitude.
            assert!(k1.magnitude().bits() <= 8, "k1 too long for k = {k}");
            assert!(k2.magnitude().bits() <= 8, "k2 too long for k = {k}");
        }
    }

    #[test]
    fn balanced_digits_reconstruct() {
        for t in [-13i64, 13, -64, 97] {
            let tb = BigInt::from_i64(t);
            for k in [0u64, 1, 5, 96, 97, 98, 12345, u32::MAX as u64] {
                let digits = balanced_digits(&BigUint::from_u64(k), &tb);
                let mut acc = BigInt::zero();
                for d in digits.iter().rev() {
                    acc = &(&acc * &tb) + d;
                }
                assert_eq!(acc, BigInt::from_i64(k as i64), "t = {t}, k = {k}");
                for d in &digits {
                    let twice = d.magnitude() + d.magnitude();
                    let bound = tb.magnitude() + &BigUint::one();
                    assert!(
                        twice <= bound,
                        "digit {d} out of balanced range for t = {t}"
                    );
                }
            }
        }
        assert!(balanced_digits(&BigUint::zero(), &BigInt::from_i64(5)).is_empty());
    }

    /// Reconstructs both rows of a JSF expansion and checks the digit and
    /// sparseness invariants.
    fn check_jsf(k0: u128, k1: u128) {
        let digits = jsf(
            &BigUint::from_limbs(vec![k0 as u64, (k0 >> 64) as u64]),
            &BigUint::from_limbs(vec![k1 as u64, (k1 >> 64) as u64]),
        );
        let mut acc = [0i128; 2];
        for (j, &(u0, u1)) in digits.iter().enumerate() {
            for (a, u) in acc.iter_mut().zip([u0, u1]) {
                assert!((-1..=1).contains(&u), "digit out of range");
                *a += (u as i128) << j;
            }
        }
        assert_eq!(acc[0] as u128, k0, "row 0 reconstructs for ({k0}, {k1})");
        assert_eq!(acc[1] as u128, k1, "row 1 reconstructs for ({k0}, {k1})");
        // JSF property: of any three consecutive columns, at most two are
        // jointly non-zero.
        for w in digits.windows(3) {
            let nonzero = w.iter().filter(|&&(a, b)| a != 0 || b != 0).count();
            assert!(nonzero <= 2, "three consecutive non-zero columns");
        }
    }

    #[test]
    fn jsf_reconstructs_exhaustively_small() {
        for k0 in 0..64u128 {
            for k1 in 0..64u128 {
                check_jsf(k0, k1);
            }
        }
        assert!(jsf(&BigUint::zero(), &BigUint::zero()).is_empty());
    }

    #[test]
    fn jsf_reconstructs_wide() {
        let mut state = 0x1234_5678u128;
        let mut next = || {
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(99);
            state ^ (state >> 17)
        };
        for _ in 0..64 {
            // Top bits clear: a k-bit JSF can carry into column k, and the
            // i128 reconstruction accumulator must not overflow there.
            check_jsf(next() >> 2, next() >> 2);
        }
        // Very unbalanced lengths (top bits clear so the i128 reconstruction
        // accumulator cannot overflow on the length-l+1 JSF column).
        check_jsf(u128::MAX >> 2, 1);
        check_jsf(0, u128::MAX >> 2);
    }
}
