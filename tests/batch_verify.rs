//! Soundness and determinism tests for deferred pairing accumulation:
//! the randomized batch verifier must accept every honest batch and
//! reject any tampered one on all seven Table 2 curves, the prepared-G2
//! replay path (one shared squaring chain per thread) must be
//! bit-identical to the interleaved Miller loops, the isolating settle
//! must name exactly the checks that fail one by one, and the whole
//! surface must be thread-count deterministic.
//!
//! CI runs this suite once with `FINESSE_THREADS=1` and once
//! unconstrained; the explicit `with_threads` pins below cover the
//! scoped-override path on top of that.

use finesse_curves::{all_specs, Affine, Curve};
use finesse_ff::{BigUint, Fp, Fpk, Fq};
use finesse_pairing::{
    emit_miller_loop_with_lines, G2Prepared, PairingAccumulator, PairingEngine, ReplayPair,
    SplitMix64Transcript, Transcript, ValueFlow,
};
use finesse_parallel::with_threads;
use std::sync::Arc;

/// A valid check `e([a]G1, G2) =? e(G1, [a]G2)` — holds by bilinearity.
fn valid_check(c: &Arc<Curve>, a: u64) -> (Affine<Fp>, Affine<Fq>, Affine<Fp>, Affine<Fq>) {
    let s = BigUint::from_u64(a);
    (
        c.g1_mul(c.g1_generator(), &s),
        c.g2_generator().clone(),
        c.g1_generator().clone(),
        c.g2_mul(c.g2_generator(), &s),
    )
}

#[test]
fn accumulator_accepts_valid_batches_on_all_seven() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let e = PairingEngine::new(c.clone());
        let mut acc = PairingAccumulator::new(&e);
        for a in [3u64, 0x5eed, 0xC0DE_CAFE] {
            let (p1, q1, p2, q2) = valid_check(&c, a);
            acc.push_check(&p1, &q1, &p2, &q2);
        }
        assert_eq!(acc.len(), 3, "{}", spec.name);
        assert!(acc.settle(), "{}: honest batch accepted", spec.name);
    }
}

#[test]
fn accumulator_rejects_one_tampered_check_on_all_seven() {
    // Differential against the accepting batch: the same three checks,
    // except one G1 side is nudged to the adjacent group element — the
    // smallest group-level analogue of a flipped signature bit.
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let e = PairingEngine::new(c.clone());
        for tampered in 0..3usize {
            let mut acc = PairingAccumulator::new(&e);
            for (i, a) in [3u64, 0x5eed, 0xC0DE_CAFE].into_iter().enumerate() {
                let (mut p1, q1, p2, q2) = valid_check(&c, a);
                if i == tampered {
                    p1 = c.g1_add(&p1, c.g1_generator());
                }
                acc.push_check(&p1, &q1, &p2, &q2);
            }
            assert!(
                !acc.settle(),
                "{}: tampering check {tampered} must be caught",
                spec.name
            );
        }
    }
}

#[test]
fn prepared_replay_is_bit_identical_to_interleaved_on_all_seven() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let e = PairingEngine::new(c.clone());
        let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(31337));
        let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(271_828));
        let prep = G2Prepared::new(&c, &q);
        assert_eq!(
            e.miller_loop_prepared(&p, &prep),
            e.miller_loop(&p, &q),
            "{}: replayed Miller loop == interleaved",
            spec.name
        );
    }
}

#[test]
fn multi_pair_dedup_matches_sequential_pair_products() {
    // Repeated G2 inputs exercise the dedup path: four pairs against only
    // two distinct Qs must still produce the bit-identical Gt value of
    // the four sequential pair() products.
    for name in ["BN254N", "BLS12-381"] {
        let c = Curve::by_name(name);
        let e = PairingEngine::new(c.clone());
        let q_shared = c.g2_mul(c.g2_generator(), &BigUint::from_u64(5));
        let pairs: Vec<(Affine<Fp>, Affine<Fq>)> = [2u64, 3, 7, 11]
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let p = c.g1_mul(c.g1_generator(), &BigUint::from_u64(*a));
                let q = if i % 2 == 0 {
                    q_shared.clone()
                } else {
                    c.g2_generator().clone()
                };
                (p, q)
            })
            .collect();
        let batched = e.multi_pair(&pairs);
        let sequential = pairs
            .iter()
            .map(|(p, q)| e.pair(p, q))
            .reduce(|a, b| e.gt_mul(&a, &b))
            .unwrap();
        assert_eq!(batched, sequential, "{name}");
        let (len, cap) = e.prepared_cache_stats();
        assert_eq!(len, 2, "{name}: two distinct Qs cached");
        assert!(len <= cap, "{name}");
    }
}

#[test]
fn accumulator_edge_cases() {
    let c = Curve::by_name("BN254N");
    let e = PairingEngine::new(c.clone());

    // Empty batch is vacuously true.
    let acc = PairingAccumulator::new(&e);
    assert!(acc.is_empty());
    assert!(acc.settle());

    // Singleton valid / invalid.
    let (p1, q1, p2, q2) = valid_check(&c, 42);
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&p1, &q1, &p2, &q2);
    assert!(acc.settle());
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&p2, &q1, &p1, &q2); // swapped G1 sides: e(G1,G2) != e([42]G1,[42]G2)
    assert!(!acc.settle());

    // The same valid check pushed twice (duplicate points across checks).
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&p1, &q1, &p2, &q2);
    acc.push_check(&p1, &q1, &p2, &q2);
    assert!(acc.settle());

    // Identity on a G1 side drops that pairing to the GT identity: the
    // check e(O, B) =? e(C, D) holds iff e(C, D) == 1, false for
    // generators.
    let inf1 = Affine::infinity(c.fp().zero());
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&inf1, &q1, &p2, &q2);
    assert!(!acc.settle());
    // …and e(O, B) =? e(O, D) is vacuously true.
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&inf1, &q1, &inf1, &q2);
    assert!(acc.settle());

    // Identity on a G2 side likewise.
    let inf2 = Affine::infinity(c.tower().fq_zero());
    let mut acc = PairingAccumulator::new(&e);
    acc.push_check(&p1, &inf2, &p2, &inf2);
    assert!(acc.settle());
}

#[test]
fn settle_and_multi_pair_are_thread_count_deterministic() {
    let c = Curve::by_name("BLS12-381");
    let e = PairingEngine::new(c.clone());
    let pairs: Vec<(Affine<Fp>, Affine<Fq>)> = (1..=4u64)
        .map(|a| {
            (
                c.g1_mul(c.g1_generator(), &BigUint::from_u64(a * 17)),
                c.g2_mul(c.g2_generator(), &BigUint::from_u64(a * 29)),
            )
        })
        .collect();
    let serial = with_threads(1, || e.multi_pair(&pairs));
    let unconstrained = e.multi_pair(&pairs);
    let wide = with_threads(4, || e.multi_pair(&pairs));
    assert_eq!(serial, unconstrained);
    assert_eq!(serial, wide);

    let run_batch = || {
        let mut acc = PairingAccumulator::new(&e);
        for a in [9u64, 10, 11] {
            let (p1, q1, p2, q2) = valid_check(&c, a);
            acc.push_check(&p1, &q1, &p2, &q2);
        }
        acc.settle()
    };
    assert!(with_threads(1, run_batch));
    assert!(with_threads(4, run_batch));
    assert!(run_batch());
}

#[test]
fn prepared_cache_shares_and_stays_bounded() {
    let c = Curve::by_name("BN254N");
    let e = PairingEngine::new(c.clone());
    let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(77));

    // Same point twice → the same Arc (built once).
    let first = e.prepare_g2(&q);
    let second = e.prepare_g2(&q);
    assert!(Arc::ptr_eq(&first, &second));

    // Filling past capacity evicts instead of growing.
    let (_, cap) = e.prepared_cache_stats();
    for a in 0..(cap as u64 + 8) {
        let qi = c.g2_mul(c.g2_generator(), &BigUint::from_u64(1000 + a));
        e.prepare_g2(&qi);
    }
    let (len, cap_after) = e.prepared_cache_stats();
    assert_eq!(cap, cap_after);
    assert!(len <= cap, "cache bounded: {len} <= {cap}");
}

#[test]
fn transcript_is_deterministic_and_order_sensitive() {
    let c = Curve::by_name("BN254N");
    let p = c.g1_generator();
    let q = c.g2_generator();

    let mut t1 = SplitMix64Transcript::new(b"test-domain");
    t1.absorb_g1(p);
    t1.absorb_g2(q);
    let mut t2 = SplitMix64Transcript::new(b"test-domain");
    t2.absorb_g1(p);
    t2.absorb_g2(q);
    assert_eq!(t1.challenge_u64(), t2.challenge_u64());
    assert_eq!(t1.challenge_short(), t2.challenge_short());

    // Different label → different stream.
    let mut t3 = SplitMix64Transcript::new(b"other-domain");
    t3.absorb_g1(p);
    t3.absorb_g2(q);
    let mut t4 = SplitMix64Transcript::new(b"test-domain");
    t4.absorb_g1(p);
    t4.absorb_g2(q);
    assert_ne!(t3.challenge_u64(), t4.challenge_u64());

    // Short challenges are ~128-bit and never zero.
    let mut t = SplitMix64Transcript::new(b"width");
    for _ in 0..32 {
        let rho = t.challenge_short();
        assert!(!rho.is_zero());
        assert!(rho.bits() <= 128);
    }
}

/// A check that does *not* hold: `e([a]G1, G2) =? e(G1, [a+1]G2)`.
fn tampered_check(c: &Arc<Curve>, a: u64) -> (Affine<Fp>, Affine<Fq>, Affine<Fp>, Affine<Fq>) {
    let (p1, q1, p2, _) = valid_check(c, a);
    (
        p1,
        q1,
        p2,
        c.g2_mul(c.g2_generator(), &BigUint::from_u64(a + 1)),
    )
}

/// Builds a 32-check batch with the checks at `bad` tampered, settles it
/// with the isolating path, and asserts the bisection names exactly the
/// tampered indices. Scalars repeat mod 4 so the batch exercises the
/// few-distinct-G2 grouping the accumulator is optimised for.
fn assert_isolates(c: &Arc<Curve>, bad: &[usize]) {
    let e = PairingEngine::new(c.clone());
    let mut acc = PairingAccumulator::new(&e);
    for i in 0..32u64 {
        let a = 3 + (i % 4);
        let (p1, q1, p2, q2) = if bad.contains(&(i as usize)) {
            tampered_check(c, a)
        } else {
            valid_check(c, a)
        };
        acc.push_check(&p1, &q1, &p2, &q2);
    }
    assert_eq!(
        acc.settle_isolating(),
        Err(bad.to_vec()),
        "isolating settle must name exactly the tampered checks"
    );
}

#[test]
fn settle_isolating_accepts_honest_batches() {
    let c = Curve::by_name("BN254N");
    let e = PairingEngine::new(c.clone());
    let mut acc = PairingAccumulator::new(&e);
    for a in [3u64, 17, 0x5eed] {
        let (p1, q1, p2, q2) = valid_check(&c, a);
        acc.push_check(&p1, &q1, &p2, &q2);
    }
    assert_eq!(acc.settle_isolating(), Ok(()));
    // The empty batch is vacuously honest.
    let acc = PairingAccumulator::new(&e);
    assert_eq!(acc.settle_isolating(), Ok(()));
}

#[test]
fn settle_isolating_pinpoints_faults_bn254n() {
    let c = Curve::by_name("BN254N");
    for bad in [vec![7usize], vec![0, 31], vec![2, 3, 11, 19, 30]] {
        assert_isolates(&c, &bad);
    }
}

#[test]
fn settle_isolating_pinpoints_faults_bls12_381() {
    let c = Curve::by_name("BLS12-381");
    for bad in [vec![13usize], vec![5, 21], vec![0, 1, 15, 16, 31]] {
        assert_isolates(&c, &bad);
    }
}

/// `n` pairs over distinct G1 points and four distinct G2 points.
fn distinct_pairs(c: &Arc<Curve>, n: u64) -> Vec<(Affine<Fp>, Affine<Fq>)> {
    (0..n)
        .map(|i| {
            (
                c.g1_mul(c.g1_generator(), &BigUint::from_u64(i * i + 5)),
                c.g2_mul(c.g2_generator(), &BigUint::from_u64(i % 4 + 7)),
            )
        })
        .collect()
}

#[test]
fn shared_chain_matches_the_interleaved_product_on_all_seven() {
    for spec in all_specs() {
        let sizes: &[usize] = if spec.name == "BLS12-381" {
            &[1, 2, 5, 31]
        } else {
            &[1, 2, 5]
        };
        let c = Curve::by_name(spec.name);
        let e = PairingEngine::new(c.clone());
        let tower = c.tower();
        let pairs = distinct_pairs(&c, sizes[sizes.len() - 1] as u64);
        let loops: Vec<Fpk> = pairs.iter().map(|(p, q)| e.miller_loop(p, q)).collect();
        let prepared: Vec<(Affine<Fp>, Arc<G2Prepared>)> = pairs
            .iter()
            .map(|(p, q)| (p.clone(), e.prepare_g2(q)))
            .collect();
        for &n in sizes {
            // The in-order product of the independent interleaved loops.
            let product = loops[..n]
                .iter()
                .cloned()
                .reduce(|a, b| tower.fpk_mul(&a, &b))
                .unwrap();
            let inputs: Vec<ReplayPair<'_, ValueFlow<'_>>> = prepared[..n]
                .iter()
                .map(|(p, prep)| (&p.x, &p.y, prep.lines()))
                .collect();
            let mut flow = ValueFlow::new(&c, &pairs[0].0, &pairs[0].1);
            assert_eq!(
                emit_miller_loop_with_lines(&c, &mut flow, &inputs),
                product,
                "{}: one shared chain over {n} pairs",
                spec.name
            );
            let want = e.final_exponentiation(&product);
            for threads in [1, 2] {
                assert_eq!(
                    with_threads(threads, || e.multi_pair_prepared(&prepared[..n])),
                    want,
                    "{}: multi_pair_prepared over {n} pairs at {threads} threads",
                    spec.name
                );
            }
        }
    }
}

/// Valid BLS-shaped checks cycling over two scalars, the ones at
/// `forged` with their G1 side moved to the adjacent group element.
/// Checks repeat, so the one-by-one verdicts are memoised per distinct
/// check.
struct IsolationCase<'e> {
    c: Arc<Curve>,
    e: &'e PairingEngine,
    verdicts: Vec<((u64, bool), bool)>,
}

impl IsolationCase<'_> {
    fn check(&self, i: usize, forged: bool) -> (Affine<Fp>, Affine<Fq>, Affine<Fp>, Affine<Fq>) {
        let (mut p1, q1, p2, q2) = valid_check(&self.c, 3 + i as u64 % 2);
        if forged {
            p1 = self.c.g1_add(&p1, self.c.g1_generator());
        }
        (p1, q1, p2, q2)
    }

    /// Whether check `i` holds on its own, by `pairing_equation_holds`.
    fn holds_alone(&mut self, i: usize, forged: bool) -> bool {
        let key = (i as u64 % 2, forged);
        if let Some((_, v)) = self.verdicts.iter().find(|(k, _)| *k == key) {
            return *v;
        }
        let (p1, q1, p2, q2) = self.check(i, forged);
        let v = self.e.pairing_equation_holds(&p1, &q1, &p2, &q2);
        self.verdicts.push((key, v));
        v
    }

    /// `settle_isolating` over `n` checks must name exactly the checks
    /// that fail one by one, at 1 and 2 threads.
    fn assert_matches_one_by_one(&mut self, n: usize, forged: &[usize]) {
        let checks: Vec<_> = (0..n).map(|i| self.check(i, forged.contains(&i))).collect();
        let failing: Vec<usize> = (0..n)
            .filter(|&i| !self.holds_alone(i, forged.contains(&i)))
            .collect();
        let want = if failing.is_empty() {
            Ok(())
        } else {
            Err(failing)
        };
        for threads in [1, 2] {
            let got = with_threads(threads, || {
                let mut acc = PairingAccumulator::new(self.e);
                for (p1, q1, p2, q2) in &checks {
                    acc.push_check(p1, q1, p2, q2);
                }
                acc.settle_isolating()
            });
            assert_eq!(
                got,
                want,
                "{}: n = {n}, forged {forged:?}, {threads} threads",
                self.c.name()
            );
        }
    }
}

#[test]
fn settle_isolating_names_what_fails_alone_on_all_seven() {
    for (k, spec) in all_specs().into_iter().enumerate() {
        let c = Curve::by_name(spec.name);
        let e = PairingEngine::new(c.clone());
        let mut case = IsolationCase {
            c,
            e: &e,
            verdicts: Vec::new(),
        };
        case.assert_matches_one_by_one(5, &[k % 5]);
    }
}

#[test]
fn settle_isolating_names_what_fails_alone_at_the_edges() {
    for name in ["BN254N", "BLS12-381"] {
        let c = Curve::by_name(name);
        let e = PairingEngine::new(c.clone());
        let mut case = IsolationCase {
            c,
            e: &e,
            verdicts: Vec::new(),
        };
        for n in [1usize, 2, 3, 33] {
            let mut fault_sets = vec![vec![0], vec![n - 1]];
            if n >= 2 {
                let mid = (n - 1) / 2;
                fault_sets.push(vec![mid, mid + 1]);
            }
            fault_sets.dedup();
            for forged in fault_sets {
                case.assert_matches_one_by_one(n, &forged);
            }
        }
        case.assert_matches_one_by_one(5, &[0, 1, 2, 3, 4]);
    }
}
