//! # finesse-pairing
//!
//! The optimal-Ate pairing engine of the Finesse framework.
//!
//! The algorithm is written once, against the abstract [`PairingFlow`]
//! evaluator ([`flow`]), and instantiated two ways: on concrete field
//! elements ([`PairingEngine`], the reference library) and — in
//! `finesse-compiler` — as a recorder that turns the very same control
//! skeleton into hierarchical SSA IR for the accelerator. A third,
//! fully independent textbook implementation ([`oracle`]) cross-validates
//! everything.

pub mod accumulate;
pub mod flow;
pub mod oracle;
pub mod prepared;
pub mod transcript;
pub mod value;

pub use accumulate::PairingAccumulator;
pub use flow::{
    emit_final_exponentiation, emit_g2_line_schedule, emit_miller_loop,
    emit_miller_loop_with_lines, emit_pairing, PairingFlow, ReplayPair,
};
pub use oracle::oracle_pair;
pub use prepared::G2Prepared;
pub use transcript::{SplitMix64Transcript, Transcript};
pub use value::{PairingEngine, ValueFlow};

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_curves::Curve;
    use finesse_ff::{BigInt, BigUint};

    fn engine(name: &str) -> PairingEngine {
        PairingEngine::new(Curve::by_name(name))
    }

    #[test]
    fn hkt_exponent_identity_bls12() {
        // 3(p⁴−p²+1)/r = (x−1)²(x+p)(x²+p²−1)+3 as plain integers.
        for name in ["BLS12-381", "BLS12-446", "BLS12-638"] {
            let c = Curve::by_name(name);
            let p = BigInt::from_biguint(c.p().clone());
            let x = c.t().clone();
            let xm1 = &x - &BigInt::one();
            let lhs = {
                let three = BigUint::from_u64(3);
                &three * &c.hard_exponent()
            };
            let rhs = {
                let f1 = &xm1 * &xm1;
                let f2 = &x + &p;
                let f3 = &(&(&x * &x) + &(&p * &p)) - &BigInt::one();
                let prod = &(&f1 * &f2) * &f3;
                &prod + &BigInt::from_i64(3)
            };
            assert_eq!(BigInt::from_biguint(lhs), rhs, "{name}");
        }
    }

    #[test]
    fn hkt_exponent_identity_bls24() {
        let c = Curve::by_name("BLS24-509");
        let p = BigInt::from_biguint(c.p().clone());
        let x = c.t().clone();
        let xm1 = &x - &BigInt::one();
        let lhs = &BigInt::from_i64(3) * &BigInt::from_biguint(c.hard_exponent());
        let rhs = {
            let f1 = &xm1 * &xm1;
            let f2 = &x + &p;
            let f3 = &(&x * &x) + &(&p * &p);
            let x2 = &x * &x;
            let x4 = &x2 * &x2;
            let p2 = &p * &p;
            let p4 = &p2 * &p2;
            let f4 = &(&x4 + &p4) - &BigInt::one();
            let prod = &(&(&f1 * &f2) * &f3) * &f4;
            &prod + &BigInt::from_i64(3)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bn_hard_part_matches_generic_exponentiation() {
        let c = Curve::by_name("BN254N");
        let k = c.tower();
        // Random cyclotomic element.
        let a = k.fpk_sample(99);
        let inv = k.fpk_inv(&a);
        let e1 = k.fpk_mul(&k.fpk_conj(&a), &inv);
        let m = k.fpk_mul(&k.fpk_frob(&e1, 2), &e1);

        let g1 = c.g1_generator().clone();
        let g2 = c.g2_generator().clone();
        let mut flow = ValueFlow::new(&c, &g1, &g2);
        let chain = super::flow::emit_final_exponentiation(&c, &mut flow, &a);
        let generic = k.fpk_pow(&m, &c.hard_exponent());
        assert_eq!(chain, generic, "SBCPK chain == m^((p4-p2+1)/r)");
    }

    #[test]
    fn bls12_hard_part_matches_generic_exponentiation() {
        let c = Curve::by_name("BLS12-381");
        let k = c.tower();
        let a = k.fpk_sample(7);
        let inv = k.fpk_inv(&a);
        let e1 = k.fpk_mul(&k.fpk_conj(&a), &inv);
        let m = k.fpk_mul(&k.fpk_frob(&e1, 2), &e1);

        let g1 = c.g1_generator().clone();
        let g2 = c.g2_generator().clone();
        let mut flow = ValueFlow::new(&c, &g1, &g2);
        let chain = super::flow::emit_final_exponentiation(&c, &mut flow, &a);
        let three_hard = {
            let h = c.hard_exponent();
            &(&h + &h) + &h
        };
        let generic = k.fpk_pow(&m, &three_hard);
        assert_eq!(chain, generic, "HKT chain == m^(3(p4-p2+1)/r)");
    }

    #[test]
    fn bilinearity_bn254n() {
        let e = engine("BN254N");
        let c = e.curve().clone();
        let g1 = c.g1_generator();
        let g2 = c.g2_generator();
        let base = e.pair(g1, g2);
        assert!(!e.gt_is_one(&base), "non-degenerate");
        assert!(e.gt_is_one(&e.gt_pow(&base, c.r())), "order divides r");

        let a = BigUint::from_u64(0x5eed);
        let b = BigUint::from_u64(0xc0de);
        let pa = c.g1_mul(g1, &a);
        let qb = c.g2_mul(g2, &b);
        let lhs = e.pair(&pa, &qb);
        let rhs = e.gt_pow(&base, &(&a * &b));
        assert_eq!(lhs, rhs, "e([a]P, [b]Q) = e(P,Q)^(ab)");

        // Additivity in the first argument.
        let p2 = c.g1_mul(g1, &BigUint::from_u64(2));
        let sum = c.g1_add(g1, &p2);
        assert_eq!(
            e.pair(&sum, g2),
            e.gt_mul(&e.pair(g1, g2), &e.pair(&p2, g2))
        );
    }

    #[test]
    fn bilinearity_bls12_381() {
        let e = engine("BLS12-381");
        let c = e.curve().clone();
        let g1 = c.g1_generator();
        let g2 = c.g2_generator();
        let base = e.pair(g1, g2);
        assert!(!e.gt_is_one(&base));
        assert!(e.gt_is_one(&e.gt_pow(&base, c.r())));
        let a = BigUint::from_u64(12345);
        let lhs = e.pair(&c.g1_mul(g1, &a), g2);
        assert_eq!(lhs, e.gt_pow(&base, &a));
        let rhs = e.pair(g1, &c.g2_mul(g2, &a));
        assert_eq!(rhs, e.gt_pow(&base, &a));
    }

    #[test]
    fn engine_matches_oracle_bn254n() {
        let e = engine("BN254N");
        let c = e.curve().clone();
        let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(31337));
        let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(271828));
        assert_eq!(e.pair(&p, &q), oracle_pair(&c, &p, &q));
    }

    #[test]
    fn engine_matches_oracle_bls12_381() {
        let e = engine("BLS12-381");
        let c = e.curve().clone();
        let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(42));
        let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(1729));
        assert_eq!(e.pair(&p, &q), oracle_pair(&c, &p, &q));
    }

    #[test]
    fn identity_inputs_give_gt_one() {
        let e = engine("BN254N");
        let c = e.curve().clone();
        let inf1 = finesse_curves::Affine::infinity(c.fp().zero());
        assert!(e.gt_is_one(&e.pair(&inf1, c.g2_generator())));
        let inf2 = finesse_curves::Affine::infinity(c.tower().fq_zero());
        assert!(e.gt_is_one(&e.pair(c.g1_generator(), &inf2)));
    }

    #[test]
    fn multi_pairing_matches_product_of_pairings() {
        let e = engine("BN254N");
        let c = e.curve().clone();
        let p1 = c.g1_mul(c.g1_generator(), &BigUint::from_u64(3));
        let q1 = c.g2_mul(c.g2_generator(), &BigUint::from_u64(5));
        let p2 = c.g1_mul(c.g1_generator(), &BigUint::from_u64(7));
        let q2 = c.g2_mul(c.g2_generator(), &BigUint::from_u64(11));
        let product = e.multi_pair(&[(p1.clone(), q1.clone()), (p2.clone(), q2.clone())]);
        let expected = e.gt_mul(&e.pair(&p1, &q1), &e.pair(&p2, &q2));
        assert_eq!(product, expected);
        // Empty and identity-laden products are GT-one.
        assert!(e.gt_is_one(&e.multi_pair(&[])));
        let inf = finesse_curves::Affine::infinity(c.fp().zero());
        assert!(e.gt_is_one(&e.multi_pair(&[(inf, q1)])));
    }

    #[test]
    fn pairing_equation_check_detects_equality() {
        // e([a]P, Q) == e(P, [a]Q) for any a.
        let e = engine("BLS12-381");
        let c = e.curve().clone();
        let a = BigUint::from_u64(123_456_789);
        let pa = c.g1_mul(c.g1_generator(), &a);
        let qa = c.g2_mul(c.g2_generator(), &a);
        assert!(e.pairing_equation_holds(&pa, c.g2_generator(), c.g1_generator(), &qa));
        // And rejects inequality.
        let pb = c.g1_mul(c.g1_generator(), &BigUint::from_u64(999));
        assert!(!e.pairing_equation_holds(&pb, c.g2_generator(), c.g1_generator(), &qa));
    }

    #[test]
    fn miller_plus_final_exp_composes() {
        let e = engine("BN254N");
        let c = e.curve().clone();
        let f = e.miller_loop(c.g1_generator(), c.g2_generator());
        let composed = e.final_exponentiation(&f);
        assert_eq!(composed, e.pair(c.g1_generator(), c.g2_generator()));
    }
}
