//! Differential tests for the lazy (incomplete) reduction in the Fp2/Fq
//! tower hot path: every unreduced kernel — `add_noreduce`, `sub_with_kp`,
//! `mul_wide` + `redc` — and every lazy tower product (`fp2_mul` via
//! `fq_mul`, `fq_sqr`, the qdeg-4 pair-wide Karatsuba) is checked against
//! plain `BigUint` polynomial arithmetic, across all seven Table-2 curves
//! including the 10-limb BN638/BLS12-638 `MAX_LIMBS` edge, with random
//! `2p`-bounded inputs and worst-case carry patterns. These are the only
//! double-width kernels; single-width F_p products all run through the one
//! CIOS multiply, which `tests/field_kernels.rs` checks.

use finesse_curves::{all_specs, Curve};
use finesse_ff::{BigUint, Fp, FpCtx, Fq, TowerCtx};
use std::sync::Arc;

/// Deterministic splitmix64 stream (same generator as tests/properties.rs).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[0, limit)` as a BigUint.
    fn below(&mut self, limit: &BigUint, width: usize) -> BigUint {
        let limbs: Vec<u64> = (0..width + 1).map(|_| self.next_u64()).collect();
        BigUint::from_limbs(limbs).rem(limit)
    }
}

/// `R⁻¹ mod p` for the curve's Montgomery radix `R = 2^(64·width)`.
fn r_inv(fp: &Arc<FpCtx>) -> BigUint {
    let p = fp.modulus();
    let r = BigUint::one().shl(64 * fp.width()).rem(p);
    r.modpow(&p.checked_sub(&BigUint::from_u64(2)).unwrap(), p)
}

#[test]
fn every_curve_has_the_lazy_headroom() {
    // The k = 12 chains need 2 spare bits, the k = 24 chains 3; verify the
    // envelope and that dispatch actually engages — including at the
    // 638-in-640-bit edge where the margin is exactly two bits.
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let h = c.fp().headroom_bits();
        assert!(h >= 2, "{name}: headroom {h} < 2");
        let (lazy2, lazy4) = c.tower().lazy_tiers();
        assert!(lazy2, "{name}: F_p2 layer not lazy");
        if c.tower().qdeg() == 4 {
            assert!(h >= 3, "{name}: qdeg-4 needs 3 spare bits");
            assert!(lazy4, "{name}: F_p4 layer not lazy");
        }
    }
    assert_eq!(
        Curve::by_name("BLS12-638").fp().headroom_bits(),
        2,
        "the 10-limb edge has exactly two spare bits"
    );
    assert_eq!(Curve::by_name("BLS24-509").fp().headroom_bits(), 3);
}

#[test]
fn unreduced_kernels_match_biguint_on_2p_bounded_inputs() {
    let mut rng = Rng(0x1A27);
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let fp = c.fp();
        let p = fp.modulus().clone();
        let two_p = &p + &p;
        let rinv = r_inv(fp);
        for case in 0..16 {
            let (av, bv) = (rng.below(&two_p, fp.width()), rng.below(&two_p, fp.width()));
            let a = fp.unreduced_from_limbs(&av.to_fixed_limbs(fp.width()), 2);
            let b = fp.unreduced_from_limbs(&bv.to_fixed_limbs(fp.width()), 2);
            // mul_wide is the plain integer product.
            let w = fp.mul_wide(&a, &b);
            assert_eq!(
                BigUint::from_limbs(w.limbs().to_vec()),
                &av * &bv,
                "{name} case {case}: mul_wide"
            );
            // redc is Montgomery reduction to a canonical residue.
            let expect = (&(&av * &bv).rem(&p) * &rinv).rem(&p);
            assert_eq!(
                BigUint::from_limbs(fp.redc(&w).as_slice().to_vec()),
                expect,
                "{name} case {case}: redc(mul_wide)"
            );
        }
    }
}

#[test]
fn add_noreduce_and_sub_with_kp_match_biguint() {
    let mut rng = Rng(0xADD1);
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let fp = c.fp();
        let p = fp.modulus().clone();
        for case in 0..16 {
            let (av, bv) = (rng.below(&p, fp.width()), rng.below(&p, fp.width()));
            let a = fp.unreduced_from_limbs(&av.to_fixed_limbs(fp.width()), 1);
            let b = fp.unreduced_from_limbs(&bv.to_fixed_limbs(fp.width()), 1);
            let s = fp.add_noreduce(&a, &b);
            assert_eq!(
                BigUint::from_limbs(s.limbs().as_slice().to_vec()),
                &av + &bv,
                "{name} case {case}: add_noreduce"
            );
            let d = fp.sub_with_kp(&a, &b, 1);
            assert_eq!(
                BigUint::from_limbs(d.limbs().as_slice().to_vec()),
                &(&av + &p) - &bv,
                "{name} case {case}: sub_with_kp"
            );
        }
    }
}

#[test]
fn worst_case_carry_patterns_at_every_width() {
    // Maximal operands drive every carry chain: a = b = 2p − 1 (the
    // largest admissible bound-2 value) and p − 1; on the 638-bit curves
    // these fill all ten limbs.
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let fp = c.fp();
        let p = fp.modulus().clone();
        let rinv = r_inv(fp);
        let two_p_m1 = &(&p + &p) - &BigUint::one();
        let p_m1 = &p - &BigUint::one();
        for v in [&two_p_m1, &p_m1] {
            let u = fp.unreduced_from_limbs(&v.to_fixed_limbs(fp.width()), 2);
            let w = fp.mul_wide(&u, &u);
            assert_eq!(
                BigUint::from_limbs(w.limbs().to_vec()),
                v * v,
                "{name}: worst-case mul_wide"
            );
            let expect = (&(v * v).rem(&p) * &rinv).rem(&p);
            assert_eq!(
                BigUint::from_limbs(fp.redc(&w).as_slice().to_vec()),
                expect,
                "{name}: worst-case redc"
            );
        }
        // add / sub extremes: (2p−1) + (2p−1) = 4p − 2 (the bound-4
        // ceiling) and 0 + 2p − (2p−1) = 1.
        let hi = fp.unreduced_from_limbs(&two_p_m1.to_fixed_limbs(fp.width()), 2);
        let s = fp.add_noreduce(&hi, &hi);
        assert_eq!(
            BigUint::from_limbs(s.limbs().as_slice().to_vec()),
            &two_p_m1 + &two_p_m1,
            "{name}: 4p−2 sum"
        );
        let zero = fp.unreduced_from_limbs(&[], 1);
        let d = fp.sub_with_kp(&zero, &hi, 2);
        assert_eq!(
            BigUint::from_limbs(d.limbs().as_slice().to_vec()),
            BigUint::one(),
            "{name}: 2p − (2p−1)"
        );
    }
}

// ---------------------------------------------------------------------
// Tower-level reference: BigUint polynomial arithmetic mod (u² − β),
// (v² − ξ₂), entirely independent of the limb kernels.
// ---------------------------------------------------------------------

/// Canonical coefficients of an Fq element.
fn coeffs_big(a: &Fq) -> Vec<BigUint> {
    a.coeffs().iter().map(Fp::to_biguint).collect()
}

/// Rebuilds an Fq from canonical BigUint coefficients.
fn fq_from_big(t: &Arc<TowerCtx>, c: &[BigUint]) -> Fq {
    Fq::from_coeffs(c.iter().map(|v| t.fp().from_biguint(v)).collect()).expect("k/6 coefficients")
}

struct Fp2Ref {
    p: BigUint,
    beta: BigUint,
}

impl Fp2Ref {
    fn mul(&self, a: &[BigUint], b: &[BigUint]) -> [BigUint; 2] {
        let p = &self.p;
        let c0 = (&(&a[0] * &b[0]) + &(&(&a[1] * &b[1]).rem(p) * &self.beta)).rem(p);
        let c1 = (&(&a[0] * &b[1]) + &(&a[1] * &b[0])).rem(p);
        [c0, c1]
    }

    fn add(&self, a: &[BigUint], b: &[BigUint]) -> [BigUint; 2] {
        [(&a[0] + &b[0]).rem(&self.p), (&a[1] + &b[1]).rem(&self.p)]
    }
}

#[test]
fn lazy_fq_mul_and_sqr_match_biguint_reference_all_curves() {
    let mut rng = Rng(0x7077E4);
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let t = c.tower().clone();
        let p = c.fp().modulus().clone();
        let f2 = Fp2Ref {
            p: p.clone(),
            beta: t.beta().to_biguint(),
        };
        for case in 0..10u64 {
            let a = t.fq_sample(rng.next_u64());
            let b = t.fq_sample(rng.next_u64());
            let (ab, bb) = (coeffs_big(&a), coeffs_big(&b));
            let expect: Vec<BigUint> = match t.qdeg() {
                2 => f2.mul(&ab, &bb).to_vec(),
                4 => {
                    // (A0 + A1·v)(B0 + B1·v) = (A0B0 + ξ₂·A1B1) + (A0B1 + A1B0)·v
                    let (xi0, xi1) = t.xi2().expect("qdeg 4");
                    let xi2 = [xi0.to_biguint(), xi1.to_biguint()];
                    let v0 = f2.mul(&ab[0..2], &bb[0..2]);
                    let v1 = f2.mul(&ab[2..4], &bb[2..4]);
                    let c0 = f2.add(&v0, &f2.mul(&v1, &xi2));
                    let c1 = f2.add(&f2.mul(&ab[0..2], &bb[2..4]), &f2.mul(&ab[2..4], &bb[0..2]));
                    vec![c0[0].clone(), c0[1].clone(), c1[0].clone(), c1[1].clone()]
                }
                _ => unreachable!(),
            };
            assert_eq!(
                t.fq_mul(&a, &b),
                fq_from_big(&t, &expect),
                "{name} case {case}: fq_mul vs BigUint"
            );
            assert_eq!(
                t.fq_sqr(&a),
                t.fq_mul(&a, &a),
                "{name} case {case}: fq_sqr vs fq_mul"
            );
        }
        // Edge element: all coefficients p − 1 maximises every internal
        // sum, difference and carry chain of the lazy kernels.
        let pm1 = c.fp().from_biguint(&(&p - &BigUint::one()));
        let edge = Fq::from_coeffs(vec![pm1; t.qdeg()]).expect("qdeg coefficients");
        let eb = coeffs_big(&edge);
        let expect: Vec<BigUint> = match t.qdeg() {
            2 => f2.mul(&eb, &eb).to_vec(),
            4 => {
                let (xi0, xi1) = t.xi2().expect("qdeg 4");
                let xi2 = [xi0.to_biguint(), xi1.to_biguint()];
                let v0 = f2.mul(&eb[0..2], &eb[0..2]);
                let v1 = f2.mul(&eb[2..4], &eb[2..4]);
                let c0 = f2.add(&v0, &f2.mul(&v1, &xi2));
                let c1 = f2.add(&f2.mul(&eb[0..2], &eb[2..4]), &f2.mul(&eb[2..4], &eb[0..2]));
                vec![c0[0].clone(), c0[1].clone(), c1[0].clone(), c1[1].clone()]
            }
            _ => unreachable!(),
        };
        assert_eq!(
            t.fq_mul(&edge, &edge),
            fq_from_big(&t, &expect),
            "{name}: edge fq_mul"
        );
        assert_eq!(t.fq_sqr(&edge), t.fq_mul(&edge, &edge), "{name}: edge sqr");
    }
}

#[test]
fn named_panic_paths_return_errors_not_aborts() {
    let c = Curve::by_name("BN254N");
    // final_exp_full: Result on the library path; Ok for a valid curve.
    let full = c.final_exp_full().expect("r | p^k - 1");
    assert!(full.bits() > 0);
    // hash_to_g1: Result; Ok for real inputs.
    assert!(c.hash_to_g1(b"lazy reduction").is_ok());
    // from_coeffs: Result instead of panic on bad counts.
    let one = c.fp().one();
    assert!(Fq::from_coeffs(vec![one.clone(); 3]).is_err());
    assert!(Fq::from_coeffs(vec![one; 2]).is_ok());
    let t = c.tower();
    assert!(finesse_ff::Fpk::from_coeffs(vec![t.fq_zero(); 7]).is_err());
}
