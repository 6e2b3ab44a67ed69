//! Differential tests for the fixed-limb field kernels: every hot-path
//! operation (the CIOS multiply, squaring through it, in-place
//! add/sub/neg, the `pow` ladder, Fermat and batch inversion, limb-level
//! halving) is checked against the arbitrary-precision `BigUint` reference
//! arithmetic, on the base field and the scalar field of all seven
//! Table-2 curves — including the 10-limb (`MAX_LIMBS`) BN638/BLS12-638
//! edge where the inline buffers are full. The F_p and F_q square roots
//! are checked against Euler's criterion on the same seven curves, and
//! the Tonelli–Shanks path on BLS12-381's scalar field, where
//! `r ≡ 1 (mod 4)`. Context interning (one `FpCtx` per modulus,
//! shared across constructors, curve rebuilds and threads) and the
//! plain-value element layout are pinned here too.
//!
//! Cases come from the same deterministic splitmix64 stream used by
//! `tests/properties.rs` (offline build, no proptest).

use finesse_curves::{all_specs, spec_by_name, Curve, FieldOps, FpOps};
use finesse_ff::{BigUint, Fp, FpCtx, Fpk, Fq, TowerCtx, MAX_LIMBS};
use std::sync::{Arc, Barrier};

/// Deterministic splitmix64 stream; every test derives its cases from this.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const CASES: usize = 24;

/// The 14 fields of the seven Table-2 curves: each base field F_p and
/// each scalar field F_r, the field polynomial commitments compute in
/// (specs are validated by the curve substrate's own tests; skip the
/// Miller–Rabin rounds here).
fn table2_fields() -> Vec<(String, Arc<FpCtx>)> {
    all_specs()
        .into_iter()
        .flat_map(|s| {
            let t = s.t();
            let p = s.family.prime(&t).to_biguint();
            let r = s.family.order(&t).to_biguint();
            [(" p", p), (" r", r)].map(|(field, m)| {
                let m = m.expect("table-2 primes are positive");
                (s.name.to_owned() + field, FpCtx::new_unchecked(m))
            })
        })
        .collect()
}

#[test]
fn table2_widths_cover_the_max_limbs_edge() {
    let fields = table2_fields();
    let widths: Vec<usize> = fields.iter().map(|(_, c)| c.width()).collect();
    // 638-bit curves need exactly MAX_LIMBS limbs: the inline buffer is
    // exercised completely full.
    assert!(widths.contains(&MAX_LIMBS), "no curve at the 10-limb edge");
    for ((name, _), w) in fields.iter().zip(&widths) {
        assert!(*w <= MAX_LIMBS, "{name}: width {w} over MAX_LIMBS");
    }
}

#[test]
fn field_elements_have_no_drop_glue() {
    // An element holds a plain `&'static` to its interned context, not a
    // refcount: cloning copies bytes and dropping does nothing.
    assert!(!std::mem::needs_drop::<Fp>());
    assert!(!std::mem::needs_drop::<Fq>());
    assert!(!std::mem::needs_drop::<Fpk>());
}

#[test]
fn contexts_are_interned_per_modulus() {
    // 2^64 − 2^32 + 1, a prime no other test in this file uses.
    let p = BigUint::from_u64(0xFFFF_FFFF_0000_0001);
    let a = FpCtx::new(p.clone()).unwrap();
    let b = FpCtx::new(p.clone()).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "new: one context per modulus");
    let c = FpCtx::new_unchecked(p.clone());
    let d = FpCtx::new_unchecked(p);
    assert!(Arc::ptr_eq(&c, &d), "new_unchecked: one per modulus");
    assert!(Arc::ptr_eq(&a, &c), "both constructors share the table");
    assert!(Arc::ptr_eq(a.one().ctx(), &a), "elements share the handle");
}

#[test]
fn curve_rebuilds_share_the_field_context() {
    let spec = spec_by_name("BLS12-381").unwrap();
    let a = Curve::from_spec(spec).unwrap();
    let b = Curve::from_spec(spec).unwrap();
    assert!(Arc::ptr_eq(a.fp(), b.fp()));
    assert_eq!(a.g1_generator(), b.g1_generator());
    assert_eq!(a.g2_generator(), b.g2_generator());
    // Points of the two builds mix without the mixed-context panic.
    let g = a.g1_generator();
    assert_eq!(a.g1_add(g, b.g1_generator()), a.g1_add(g, g));
}

#[test]
fn concurrent_interning_yields_one_context() {
    // The Mersenne prime 2^61 − 1: no other test in this file uses it, so
    // the four threads race to create its context.
    let p = BigUint::from_u64((1 << 61) - 1);
    let barrier = Barrier::new(4);
    let built: Vec<(Arc<FpCtx>, Fp)> = std::thread::scope(|s| {
        let workers: Vec<_> = (2..6u64)
            .map(|k| {
                let (p, barrier) = (p.clone(), &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let ctx = FpCtx::new(p).unwrap();
                    let x = ctx.from_u64(k);
                    (ctx, x)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (ctx, _) in &built[1..] {
        assert!(Arc::ptr_eq(&built[0].0, ctx), "one context per modulus");
    }
    // Elements built on different threads multiply: 2·3·4·5.
    let product = built[1..]
        .iter()
        .fold(built[0].1.clone(), |acc, (_, x)| &acc * x);
    assert_eq!(product.to_biguint(), BigUint::from_u64(120));
}

#[test]
fn mul_matches_biguint_reference() {
    let mut rng = Rng::new(0xF1E1D);
    for (name, ctx) in table2_fields() {
        let p = ctx.modulus().clone();
        for _ in 0..CASES {
            let a = ctx.sample(rng.next_u64());
            let b = ctx.sample(rng.next_u64());
            let expect = (&a.to_biguint() * &b.to_biguint()).rem(&p);
            assert_eq!((&a * &b).to_biguint(), expect, "{name}: mul");
        }
    }
}

#[test]
fn sqr_kernel_matches_biguint_reference() {
    let mut rng = Rng::new(0x50_0A12);
    for (name, ctx) in table2_fields() {
        let p = ctx.modulus().clone();
        for _ in 0..CASES {
            let a = ctx.sample(rng.next_u64());
            let ai = a.to_biguint();
            let expect = (&ai * &ai).rem(&p);
            assert_eq!(a.square().to_biguint(), expect, "{name}: sqr vs BigUint");
            assert_eq!(a.square(), &a * &a, "{name}: sqr vs mul kernel");
        }
        // Boundary values where the reduction carries are maximal.
        let pm1 = ctx.from_biguint(&p.checked_sub(&BigUint::one()).unwrap());
        assert_eq!(pm1.square().to_biguint(), BigUint::one(), "{name}: (p-1)²");
        assert!(ctx.zero().square().is_zero(), "{name}: 0²");
    }
}

#[test]
fn add_sub_neg_match_biguint_reference() {
    let mut rng = Rng::new(0xADD5);
    for (name, ctx) in table2_fields() {
        let p = ctx.modulus().clone();
        for _ in 0..CASES {
            let a = ctx.sample(rng.next_u64());
            let b = ctx.sample(rng.next_u64());
            let (ai, bi) = (a.to_biguint(), b.to_biguint());
            assert_eq!((&a + &b).to_biguint(), (&ai + &bi).rem(&p), "{name}: add");
            let expect_sub = (&(&ai + &p) - &bi).rem(&p);
            assert_eq!((&a - &b).to_biguint(), expect_sub, "{name}: sub");
            let expect_neg = (&p - &ai).rem(&p);
            assert_eq!((-&a).to_biguint(), expect_neg, "{name}: neg");
            // In-place forms agree with the value forms.
            let mut x = a.clone();
            x.add_assign(&b);
            assert_eq!(x, &a + &b, "{name}: add_assign");
            x.sub_assign(&b);
            assert_eq!(x, a, "{name}: sub_assign roundtrip");
            x.neg_assign();
            assert_eq!(x, -&a, "{name}: neg_assign");
            x.mul_assign(&b);
            assert_eq!(x, &-&a * &b, "{name}: mul_assign");
        }
    }
}

#[test]
fn invert_matches_modpow_reference() {
    let mut rng = Rng::new(0x1174);
    for (name, ctx) in table2_fields() {
        let p = ctx.modulus().clone();
        let pm2 = p.checked_sub(&BigUint::from_u64(2)).unwrap();
        for _ in 0..6 {
            let a = ctx.sample(rng.next_u64() | 1);
            let inv = a.invert();
            assert!((&a * &inv).is_one(), "{name}: a·a⁻¹ = 1");
            // Independent reference: BigUint's own Montgomery modpow path.
            let expect = a.to_biguint().modpow(&pm2, &p);
            assert_eq!(inv.to_biguint(), expect, "{name}: inv vs modpow");
        }
    }
}

#[test]
fn batch_invert_matches_individual_inverts() {
    let mut rng = Rng::new(0xBA7C);
    for (name, ctx) in table2_fields() {
        let mut batch: Vec<Fp> = (0..9).map(|_| ctx.sample(rng.next_u64())).collect();
        let individual: Vec<Fp> = batch.iter().map(Fp::invert).collect();
        FpOps(Arc::clone(&ctx)).batch_inv(&mut batch);
        assert_eq!(batch, individual, "{name}: batch_inv");
    }
}

#[test]
fn halve_and_pow_match_reference() {
    let mut rng = Rng::new(0xA1F);
    for (name, ctx) in table2_fields() {
        let p = ctx.modulus().clone();
        let inv2 = ctx.from_u64(2).invert();
        for _ in 0..8 {
            let a = ctx.sample(rng.next_u64());
            assert_eq!(a.halve(), &a * &inv2, "{name}: halve");
            let e = BigUint::from_u64(rng.next_u64() >> 40);
            let expect = a.to_biguint().modpow(&e, &p);
            assert_eq!(a.pow(&e).to_biguint(), expect, "{name}: pow");
        }
    }
}

#[test]
fn modpow_handles_moduli_wider_than_max_limbs() {
    // The arbitrary-width Montgomery path must keep working where FpCtx
    // (capped at MAX_LIMBS) refuses: e.g. p^k-sized exponent bookkeeping.
    let spec = all_specs()[0]; // BN254N
    let p = spec.family.prime(&spec.t()).to_biguint().unwrap();
    let p4 = p.pow(4); // ~1016 bits = 16 limbs > MAX_LIMBS
    assert!(p4.limbs().len() > MAX_LIMBS);
    let base = BigUint::from_u64(3);
    // Euler: 3^φ(p⁴) ≡ 1 (mod p⁴), with φ(p⁴) = p³(p − 1).
    let phi = &p.pow(3) * &p.checked_sub(&BigUint::one()).unwrap();
    assert!(base.modpow(&phi, &p4).is_one());
    // And a small cross-check against square-and-multiply by hand.
    let e = BigUint::from_u64(5);
    let mut expect = BigUint::one();
    for _ in 0..5 {
        expect = (&expect * &base).rem(&p4);
    }
    assert_eq!(base.modpow(&e, &p4), expect);
}

/// Euler's criterion in F_p: `a` is a square iff `a = 0` or
/// `a^((p−1)/2) = 1`.
fn fp_is_square(a: &Fp) -> bool {
    a.is_zero() || a.pow(&a.ctx().modulus().shr(1)).is_one()
}

/// Euler's criterion in the subfield of F_q of order `order`:
/// `a^((order−1)/2) = 1` for non-zero squares.
fn fq_is_square_in(t: &TowerCtx, a: &Fq, order: &BigUint) -> bool {
    t.fq_is_zero(a) || t.fq_is_one(&t.fq_pow(a, &order.shr(1)))
}

/// `Fp::sqrt` agrees with Euler's criterion, and every root squares back.
fn check_fp_sqrt(name: &str, a: &Fp) -> Option<Fp> {
    let root = a.sqrt();
    assert_eq!(root.is_some(), fp_is_square(a), "{name}: Fp::sqrt vs Euler");
    if let Some(r) = &root {
        assert_eq!(r.square(), *a, "{name}: Fp root does not square back");
    }
    root
}

/// Same for `TowerCtx::fq_sqrt`.
fn check_fq_sqrt(name: &str, t: &TowerCtx, a: &Fq) -> Option<Fq> {
    let root = t.fq_sqrt(a);
    let square = fq_is_square_in(t, a, t.q_order());
    assert_eq!(root.is_some(), square, "{name}: fq_sqrt vs Euler");
    if let Some(r) = &root {
        assert_eq!(t.fq_sqr(r), *a, "{name}: Fq root does not square back");
    }
    root
}

#[test]
fn fp_sqrt_matches_euler_criterion() {
    let mut rng = Rng::new(0x5_0127);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let (fp, beta) = (c.fp(), c.tower().beta());
        for _ in 0..6 {
            let s = fp.sample(rng.next_u64());
            check_fp_sqrt(spec.name, &s);
            assert!(check_fp_sqrt(spec.name, &s.square()).is_some());
            // β is a non-residue, so β·s² is one too.
            assert!(check_fp_sqrt(spec.name, &(&s.square() * beta)).is_none());
        }
        for edge in [fp.zero(), fp.one(), -&fp.one(), beta.clone()] {
            check_fp_sqrt(spec.name, &edge);
        }
    }
}

#[test]
fn fp_sqrt_runs_tonelli_shanks_on_a_255_bit_field() {
    // BLS12-381's r ≡ 1 (mod 4), so `Fp::sqrt` takes the Tonelli–Shanks
    // path (2-adicity 32) on a 4-limb field.
    let name = "BLS12-381 r";
    let spec = spec_by_name("BLS12-381").unwrap();
    let r = spec.family.order(&spec.t()).to_biguint().unwrap();
    assert_eq!(r.low_u64() & 3, 1, "{name}: r ≡ 1 (mod 4)");
    let fr = FpCtx::new_unchecked(r);
    let non_square = (2..)
        .map(|k| fr.from_u64(k))
        .find(|x| !fp_is_square(x))
        .unwrap();
    let mut rng = Rng::new(0x75_5127);
    for _ in 0..6 {
        let s = fr.sample(rng.next_u64());
        check_fp_sqrt(name, &s);
        assert!(check_fp_sqrt(name, &s.square()).is_some());
        assert!(check_fp_sqrt(name, &(&s.square() * &non_square)).is_none());
    }
    for edge in [fr.zero(), fr.one(), -&fr.one(), non_square] {
        check_fp_sqrt(name, &edge);
    }
}

#[test]
fn fq_sqrt_matches_euler_criterion() {
    let mut rng = Rng::new(0xF0_5127);
    for spec in all_specs() {
        let (name, c) = (spec.name, Curve::by_name(spec.name));
        let (fp, t) = (c.fp(), c.tower());
        for _ in 0..3 {
            let s = t.fq_sample(rng.next_u64());
            check_fq_sqrt(name, t, &s);
            let sq = t.fq_sqr(&s);
            assert!(check_fq_sqrt(name, t, &sq).is_some(), "{name}: square");
            // The sextic non-residue ξ is a non-square in F_q.
            let non_sq = t.fq_mul(&sq, t.xi());
            assert!(check_fq_sqrt(name, t, &non_sq).is_none(), "{name}: ξ·s²");
        }
        let one = t.fq_one();
        for edge in [
            t.fq_zero(),
            one.clone(),
            t.fq_neg(&one),
            t.fq_from_fp(t.beta()),
        ] {
            check_fq_sqrt(name, t, &edge);
        }
        // An F_p non-residue a0 embedded with a1 = 0: its root is r·u.
        let a0 = (2..)
            .map(|k| fp.from_u64(k))
            .find(|x| !fp_is_square(x))
            .unwrap();
        let r = check_fq_sqrt(name, t, &t.fq_from_fp(&a0)).expect("F_p ⊂ F_q squares");
        assert!(
            r.coeffs()[0].is_zero(),
            "{name}: expected the (0, r·u) root"
        );
        if t.qdeg() == 4 {
            // An F_p2 non-square a0 with a1 = 0 over F_p4: the root is r·v.
            let p_sq = fp.modulus().pow(2);
            let a = (0..)
                .map(|seed| {
                    let mut c = t.fq_sample(seed).coeffs().to_vec();
                    c[2] = fp.zero();
                    c[3] = fp.zero();
                    Fq::from_coeffs(c).unwrap()
                })
                .find(|x| !fq_is_square_in(t, x, &p_sq))
                .unwrap();
            let r = check_fq_sqrt(name, t, &a).expect("F_p2 ⊂ F_p4 squares");
            assert!(
                r.coeffs()[..2].iter().all(Fp::is_zero),
                "{name}: expected the (0, r·v) root"
            );
        }
    }
}
