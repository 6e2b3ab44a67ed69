//! Integration tests for the `finesse-poly` KZG stack: differential
//! verification against naive per-opening pairing checks on all seven
//! Table 2 curves, the F_r polynomial arithmetic against a `BigUint`
//! Horner oracle on every curve's r, batched-opening soundness under
//! targeted tampering, bit-for-bit pinned batched proofs, typed errors
//! for a polynomial over another field, adversarial SRS wire decoding
//! (splitmix64 fuzz, same harness shape as `tests/wire.rs`),
//! precomputed-vs-plain scalar-mul bit-identity on caller-registered
//! bases, and the serving-layer cost contract — a whole batch of
//! openings settling in exactly two Miller loops.

use finesse_core::{PolyError, SrsError};
use finesse_curves::{all_specs, scalar_mul, to_affine, Compression, Curve, FpOps, FqOps};
use finesse_ff::scalar::{mod_add, mod_mul};
use finesse_ff::{BigUint, Fp};
use finesse_pairing::PairingEngine;
use finesse_poly::{BatchOpening, Claim, Kzg, Polynomial, Srs};
use std::sync::Arc;

/// Deterministic splitmix64: reproducible "random" inputs without an RNG
/// dependency. Every failure reproduces from the constant seeds below.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A full-width scalar (limbs filled to the given bit width).
    fn scalar(&mut self, width_bits: usize) -> BigUint {
        BigUint::from_limbs((0..width_bits.div_ceil(64)).map(|_| self.next()).collect())
    }
}

/// A random dense polynomial with `n` full-width coefficients.
fn random_poly(rng: &mut SplitMix64, n: usize, r: &BigUint) -> Polynomial {
    Polynomial::new((0..n).map(|_| rng.scalar(r.bits())).collect(), r)
}

/// `p(x) mod r` by Horner's rule on `BigUint`: the oracle the F_r
/// polynomial arithmetic is checked against.
fn horner(coeffs: &[BigUint], x: &BigUint, r: &BigUint) -> BigUint {
    coeffs.iter().rev().fold(BigUint::zero(), |acc, c| {
        mod_add(&mod_mul(&acc, x, r), c, r)
    })
}

/// A polynomial's coefficients as canonical integers.
fn big(p: &Polynomial) -> Vec<BigUint> {
    p.coeffs().iter().map(Fp::to_biguint).collect()
}

/// Coefficient `i`, zero past the end.
fn coeff(cs: &[BigUint], i: usize) -> BigUint {
    cs.get(i).cloned().unwrap_or_default()
}

/// The issue's edge-scalar list: identity-adjacent, r-adjacent (the
/// reduction cases), and full-width.
fn edge_scalars(c: &Arc<Curve>) -> Vec<BigUint> {
    let r = c.r();
    let one = BigUint::one();
    let full_width = SplitMix64(0xED6E).scalar(r.bits());
    vec![
        BigUint::zero(),
        one.clone(),
        r.checked_sub(&one).unwrap(),
        r.clone(),
        &r.clone() + &one,
        full_width,
    ]
}

#[test]
fn single_openings_match_naive_pairing_on_all_curves() {
    for spec in all_specs() {
        let curve = Curve::by_name(spec.name);
        let engine = PairingEngine::new(curve.clone());
        let srs = Srs::generate(&curve, 8, b"kzg-differential");
        let kzg = Kzg::new(&engine, &srs).unwrap();
        let r = curve.r();
        let mut rng = SplitMix64(0x1230 ^ spec.name.len() as u64);

        let poly = random_poly(&mut rng, 7, r);
        let commitment = kzg.commit(&poly).unwrap();
        let ops = FpOps(Arc::clone(curve.fp()));
        for z in [BigUint::zero(), BigUint::from_u64(5), rng.scalar(r.bits())] {
            let opening = kzg.open(&poly, &z).unwrap();
            let want_y = poly.eval(&curve.fr().from_biguint(&z)).to_biguint();
            assert_eq!(opening.y, want_y, "{}", spec.name);
            // Accumulator path.
            kzg.verify(&commitment, &opening).unwrap();
            // Naive oracle: e(C − [y]G1 + [z]W, G2) =? e(W, [τ]G2),
            // checked with two direct pairings.
            let y_g1 = curve.g1_mul(curve.g1_generator(), &opening.y);
            let z_w = curve.g1_mul(&opening.witness, &opening.z);
            let lhs = curve.g1_add(
                &curve.g1_add(&commitment, &finesse_curves::affine_neg(&ops, &y_g1)),
                &z_w,
            );
            assert!(
                engine.pairing_equation_holds(
                    &lhs,
                    curve.g2_generator(),
                    &opening.witness,
                    srs.tau_g2()
                ),
                "{}: naive pairing oracle disagrees",
                spec.name
            );
            // Perturbed claim fails both paths.
            let mut bad = opening.clone();
            bad.y = mod_add(&bad.y, &BigUint::one(), r);
            assert!(matches!(
                kzg.verify(&commitment, &bad),
                Err(PolyError::OpeningRejected)
            ));
        }

        // A constant polynomial's opening witness is the identity and
        // still verifies.
        let constant = Polynomial::new(vec![BigUint::from_u64(42)], r);
        let c_const = kzg.commit(&constant).unwrap();
        let opening = kzg.open(&constant, &BigUint::from_u64(9)).unwrap();
        assert!(opening.witness.infinity, "{}", spec.name);
        kzg.verify(&c_const, &opening).unwrap();
    }
}

#[test]
fn polynomial_ops_match_the_biguint_oracle_on_all_curves() {
    for spec in all_specs() {
        let name = spec.name;
        let curve = Curve::by_name(name);
        let (r, fr) = (curve.r(), curve.fr());
        let mut rng = SplitMix64(0xD1FF ^ name.len() as u64);
        let edges = edge_scalars(&curve);
        let reduced: Vec<BigUint> = edges.iter().map(|e| e.rem(r)).collect();

        // `new` reduces every edge scalar once, over the curve's field.
        let p = Polynomial::new(edges.clone(), r);
        assert_eq!(big(&p), reduced, "{name}");
        assert!(Arc::ptr_eq(p.field(), fr), "{name}");

        // The zero polynomial (here r ≡ 0 is trimmed away) keeps its field.
        let zero = Polynomial::new(vec![BigUint::zero(), r.clone()], r);
        assert!(zero.is_zero() && zero.degree().is_none(), "{name}");
        assert!(Arc::ptr_eq(zero.field(), fr), "{name}");
        let x = fr.from_biguint(&rng.scalar(r.bits()));
        assert!(zero.eval(&x).is_zero(), "{name}");
        let (q, rem) = zero.divide_by_linear(&x);
        assert!(q.is_zero() && rem.is_zero(), "{name}");

        // eval and divide_by_linear at every edge point:
        // q·(X − z) + rem = p, i.e. pᵢ + z·qᵢ = qᵢ₋₁ (rem for i = 0).
        let coeffs: Vec<BigUint> = (0..9).map(|_| rng.scalar(r.bits())).collect();
        let p = Polynomial::new(coeffs.clone(), r);
        for (z, zr) in edges.iter().zip(&reduced) {
            let y = horner(&coeffs, zr, r);
            let zf = fr.from_biguint(z);
            assert_eq!(p.eval(&zf).to_biguint(), y, "{name}: eval");
            let (q, rem) = p.divide_by_linear(&zf);
            assert_eq!(rem.to_biguint(), y, "{name}: remainder");
            let q = big(&q);
            for (i, c) in coeffs.iter().enumerate() {
                let lhs = mod_add(c, &mod_mul(zr, &coeff(&q, i), r), r);
                let rhs = if i == 0 { y.clone() } else { q[i - 1].clone() };
                assert_eq!(lhs, rhs, "{name}: quotient coefficient {i}");
            }
        }

        // sub_constant and sub_scaled, coefficient-wise: hᵢ + s·gᵢ = fᵢ,
        // with the shorter operand on either side.
        let s = rng.scalar(r.bits());
        let c = big(&p.sub_constant(&fr.from_biguint(&s)));
        assert_eq!(mod_add(&c[0], &s, r), coeffs[0].rem(r), "{name}");
        assert_eq!(c[1..], big(&p)[1..], "{name}: sub_constant");
        let g = random_poly(&mut rng, 5, r);
        for (f, g) in [(&p, &g), (&g, &p)] {
            let h = big(&f.sub_scaled(g, &fr.from_biguint(&s)));
            let (fc, gc) = (big(f), big(g));
            for i in 0..fc.len().max(gc.len()) {
                let lhs = mod_add(&coeff(&h, i), &mod_mul(&s, &coeff(&gc, i), r), r);
                assert_eq!(lhs, coeff(&fc, i), "{name}: sub_scaled coefficient {i}");
            }
        }

        // interpolate round-trips Horner evaluations at distinct points;
        // no points and points equal mod r are typed errors.
        let zs: Vec<BigUint> = (0..coeffs.len()).map(|_| rng.scalar(r.bits())).collect();
        let points: Vec<(Fp, Fp)> = zs
            .iter()
            .map(|z| {
                (
                    fr.from_biguint(z),
                    fr.from_biguint(&horner(&coeffs, &z.rem(r), r)),
                )
            })
            .collect();
        assert_eq!(Polynomial::interpolate(&points).unwrap(), p, "{name}");
        assert!(matches!(
            Polynomial::interpolate(&[]),
            Err(PolyError::NoPoints)
        ));
        let dup = [
            (fr.from_biguint(&edges[1]), fr.one()),
            (fr.from_biguint(&edges[4]), fr.zero()),
        ];
        assert!(
            matches!(
                Polynomial::interpolate(&dup),
                Err(PolyError::DuplicatePoint)
            ),
            "{name}: 1 and r + 1 coincide"
        );

        // vanishing: monic of degree n, zero exactly on its roots, and
        // Π (x − zᵢ) elsewhere.
        let roots: Vec<Fp> = points.iter().map(|(z, _)| z.clone()).collect();
        let v = Polynomial::vanishing(&roots, fr);
        assert_eq!(v.degree(), Some(roots.len()), "{name}");
        assert!(v.coeffs().last().is_some_and(Fp::is_one), "{name}");
        for z in &roots {
            assert!(v.eval(z).is_zero(), "{name}");
        }
        let x = rng.scalar(r.bits()).rem(r);
        let want = zs.iter().fold(BigUint::one(), |acc, z| {
            let minus_z = r.checked_sub(&z.rem(r)).unwrap();
            mod_mul(&acc, &mod_add(&x, &minus_z, r), r)
        });
        assert_eq!(v.eval(&fr.from_biguint(&x)).to_biguint(), want, "{name}");
    }
}

#[test]
fn a_polynomial_over_another_field_gets_a_typed_error() {
    let curve = Curve::by_name("BN254N");
    let engine = PairingEngine::new(curve.clone());
    let srs = Srs::generate(&curve, 4, b"kzg-field");
    let kzg = Kzg::new(&engine, &srs).unwrap();
    let own = Polynomial::new(vec![BigUint::from_u64(3)], curve.r());
    let commitment = kzg.commit(&own).unwrap();

    let other = Curve::by_name("BLS12-381");
    let coeffs = vec![BigUint::from_u64(3), BigUint::from_u64(5)];
    let z = BigUint::from_u64(2);
    for foreign in [
        Polynomial::new(coeffs, other.r()),
        Polynomial::new(Vec::new(), other.r()),
    ] {
        assert!(matches!(
            kzg.commit(&foreign),
            Err(PolyError::FieldMismatch)
        ));
        assert!(matches!(
            kzg.open(&foreign, &z),
            Err(PolyError::FieldMismatch)
        ));
        assert!(matches!(
            kzg.open_batch(&foreign, &commitment, std::slice::from_ref(&z)),
            Err(PolyError::FieldMismatch)
        ));
    }
}

/// FNV-1a over a byte stream: a stable fingerprint for pinning outputs
/// bit for bit (not a security hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn open_batch_proofs_are_pinned_bit_for_bit() {
    // Digests of the compressed commitment, W and W′ plus the claimed
    // points for a 256-coefficient polynomial opened at 8 points,
    // recorded when F_r arithmetic still ran on `BigUint`: any change to
    // the prover's arithmetic that alters a proof shows up here.
    for (name, want) in [
        ("BN254N", 0x5cde_6f97_ab42_e383u64),
        ("BLS12-381", 0x431c_a8ed_1bdb_3c53),
    ] {
        let curve = Curve::by_name(name);
        let engine = PairingEngine::new(curve.clone());
        let srs = Srs::generate(&curve, 255, b"kzg-pinned");
        let kzg = Kzg::new(&engine, &srs).unwrap();
        let r = curve.r();
        let mut rng = SplitMix64(0x0B47);
        let poly = random_poly(&mut rng, 256, r);
        let zs: Vec<BigUint> = (0..8).map(|_| rng.scalar(r.bits())).collect();
        let commitment = kzg.commit(&poly).unwrap();
        let opening = kzg.open_batch(&poly, &commitment, &zs).unwrap();
        let mut bytes = Vec::new();
        for p in [&commitment, &opening.quotient, &opening.shift] {
            bytes.extend(curve.encode_g1(p, Compression::Compressed));
        }
        for (z, y) in &opening.points {
            bytes.extend(z.to_hex().bytes());
            bytes.push(b'/');
            bytes.extend(y.to_hex().bytes());
        }
        assert_eq!(fnv1a(&bytes), want, "{name}");
    }
}

#[test]
fn batched_opening_rejects_every_tampered_component() {
    let curve = Curve::by_name("BN254N");
    let engine = PairingEngine::new(curve.clone());
    let srs = Srs::generate(&curve, 31, b"kzg-soundness");
    let kzg = Kzg::new(&engine, &srs).unwrap();
    let r = curve.r();
    let mut rng = SplitMix64(0x50FA);

    let poly = random_poly(&mut rng, 24, r);
    let commitment = kzg.commit(&poly).unwrap();
    let zs: Vec<BigUint> = (0..5).map(|_| rng.scalar(r.bits())).collect();
    let opening = kzg.open_batch(&poly, &commitment, &zs).unwrap();
    let claim = |op: BatchOpening| Claim::Batch {
        commitment: commitment.clone(),
        opening: op,
    };

    // The honest proof verifies.
    kzg.verify_batch(std::slice::from_ref(&claim(opening.clone())))
        .unwrap();

    // Tampered y: claim a different evaluation at one point.
    let mut bad = opening.clone();
    bad.points[2].1 = mod_add(&bad.points[2].1, &BigUint::one(), r);
    assert!(matches!(
        kzg.verify_batch(&[claim(bad)]),
        Err(PolyError::BatchRejected { bad }) if bad == vec![0]
    ));

    // Tampered z: move one evaluation point.
    let mut bad = opening.clone();
    bad.points[0].0 = mod_add(&bad.points[0].0, &BigUint::one(), r);
    assert!(matches!(
        kzg.verify_batch(&[claim(bad)]),
        Err(PolyError::BatchRejected { .. })
    ));

    // Tampered quotient witness W.
    let mut bad = opening.clone();
    bad.quotient = curve.g1_mul(&bad.quotient, &BigUint::from_u64(3));
    assert!(matches!(
        kzg.verify_batch(&[claim(bad)]),
        Err(PolyError::BatchRejected { .. })
    ));

    // Tampered shifted witness W′.
    let mut bad = opening.clone();
    bad.shift = curve.g1_add(&bad.shift, curve.g1_generator());
    assert!(matches!(
        kzg.verify_batch(&[claim(bad)]),
        Err(PolyError::BatchRejected { .. })
    ));

    // Wrong SRS: same claims verified under a different trusted setup.
    let other_srs = Srs::generate(&curve, 31, b"kzg-soundness-other");
    let other_kzg = Kzg::new(&engine, &other_srs).unwrap();
    assert!(matches!(
        other_kzg.verify_batch(&[claim(opening.clone())]),
        Err(PolyError::BatchRejected { .. })
    ));

    // Malformed claims are rejected with their typed validation errors
    // before any pairing work.
    let empty = BatchOpening {
        points: Vec::new(),
        quotient: opening.quotient.clone(),
        shift: opening.shift.clone(),
    };
    assert!(matches!(
        kzg.verify_batch(&[claim(empty)]),
        Err(PolyError::NoPoints)
    ));
    let mut dup = opening.clone();
    dup.points[1] = dup.points[0].clone();
    assert!(matches!(
        kzg.verify_batch(&[claim(dup)]),
        Err(PolyError::DuplicatePoint)
    ));

    // In a mixed batch, isolation names exactly the bad claim.
    let good_single = {
        let z = BigUint::from_u64(77);
        let op = kzg.open(&poly, &z).unwrap();
        Claim::Single {
            commitment: commitment.clone(),
            opening: op,
        }
    };
    let mut bad_y = opening.clone();
    bad_y.points[4].1 = BigUint::from_u64(1);
    let claims = vec![good_single, claim(bad_y), claim(opening)];
    assert!(matches!(
        kzg.verify_batch(&claims),
        Err(PolyError::BatchRejected { bad }) if bad == vec![1]
    ));
}

#[test]
fn batch_of_openings_settles_in_two_miller_loops() {
    let curve = Curve::by_name("BLS12-381");
    let engine = PairingEngine::new(curve.clone());
    let srs = Srs::generate(&curve, 15, b"kzg-two-loops");
    let kzg = Kzg::new(&engine, &srs).unwrap();
    let r = curve.r();
    let mut rng = SplitMix64(0x2137);

    let poly = random_poly(&mut rng, 16, r);
    let commitment = kzg.commit(&poly).unwrap();
    let mut claims = Vec::new();
    for _ in 0..8 {
        let z = rng.scalar(r.bits());
        claims.push(Claim::Single {
            commitment: commitment.clone(),
            opening: kzg.open(&poly, &z).unwrap(),
        });
    }
    let zs: Vec<BigUint> = (0..4).map(|_| rng.scalar(r.bits())).collect();
    claims.push(Claim::Batch {
        commitment: commitment.clone(),
        opening: kzg.open_batch(&poly, &commitment, &zs).unwrap(),
    });

    // Every claim's check is in fixed-G2 form, so the whole batch must
    // prepare exactly two G2 points: the generator and [τ]G2 — i.e. two
    // Miller loops for 9 claims.
    let (before, _) = engine.prepared_cache_stats();
    assert_eq!(before, 0, "fresh engine starts with an empty cache");
    kzg.verify_batch(&claims).unwrap();
    let (after, _) = engine.prepared_cache_stats();
    assert_eq!(after, 2, "n openings settle with exactly two Miller loops");
}

#[test]
fn srs_wire_round_trips_and_rejects_mutations() {
    let curve = Curve::by_name("BN254N");
    let srs = Srs::generate(&curve, 4, b"kzg-wire");
    let bytes = srs.to_bytes();

    let decoded = Srs::from_bytes(&curve, &bytes).unwrap();
    assert_eq!(decoded.powers_g1(), srs.powers_g1());
    assert_eq!(decoded.tau_g2(), srs.tau_g2());
    assert_eq!(decoded.to_bytes(), bytes, "canonical re-encode");

    // Every truncation is rejected, never a panic.
    for n in 0..bytes.len() {
        assert!(
            Srs::from_bytes(&curve, &bytes[..n]).is_err(),
            "truncation to {n} bytes must be rejected"
        );
    }

    // Targeted header mutations map to their typed errors.
    let mut m = bytes.clone();
    m[0] ^= 0xFF;
    assert!(matches!(
        Srs::from_bytes(&curve, &m),
        Err(SrsError::BadMagic(_))
    ));
    let mut m = bytes.clone();
    m[4] = 0x7F;
    assert!(matches!(
        Srs::from_bytes(&curve, &m),
        Err(SrsError::UnsupportedVersion(0x7F))
    ));
    let other = Curve::by_name("BLS12-381");
    assert!(matches!(
        Srs::from_bytes(&other, &bytes),
        Err(SrsError::CurveMismatch { .. })
    ));
    // Zero out the power count (header is 4 magic + 1 version + 4 name
    // length + name; count is the next 4 bytes).
    let count_at = 4 + 1 + 4 + curve.name().len();
    let mut m = bytes.clone();
    m[count_at..count_at + 4].fill(0);
    assert!(matches!(Srs::from_bytes(&curve, &m), Err(SrsError::Empty)));
    // An absurd count cannot make the decoder over-allocate or scan past
    // the buffer.
    let mut m = bytes.clone();
    m[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        Srs::from_bytes(&curve, &m),
        Err(SrsError::TruncatedPoint { .. })
    ));
    // Corrupt the first record's length prefix.
    let mut m = bytes.clone();
    m[count_at + 4] ^= 0x01;
    assert!(matches!(
        Srs::from_bytes(&curve, &m),
        Err(SrsError::PointLength { index: 0, .. }) | Err(SrsError::TruncatedPoint { .. })
    ));
    // Trailing garbage after a well-formed SRS.
    let mut m = bytes.clone();
    m.push(0xAB);
    assert!(matches!(
        Srs::from_bytes(&curve, &m),
        Err(SrsError::TrailingBytes { extra: 1 })
    ));

    // Splitmix64 bit-flip fuzz over the whole encoding: decoding never
    // panics, and anything accepted re-encodes to exactly the mutated
    // bytes (unique canonical encoding).
    let mut rng = SplitMix64(0x5F5F);
    for _ in 0..256 {
        let mut m = bytes.clone();
        let at = (rng.next() as usize) % m.len();
        m[at] ^= 1 << (rng.next() % 8);
        match Srs::from_bytes(&curve, &m) {
            Err(_) => {}
            Ok(decoded) => assert_eq!(decoded.to_bytes(), m, "flip at byte {at}"),
        }
    }
}

#[test]
fn precomputed_mul_is_bit_identical_on_all_curves() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let fp_ops = FpOps(Arc::clone(c.fp()));
        let fq_ops = FqOps(c.tower());
        // Non-generator bases, registered explicitly by the caller —
        // the new surface the SRS and signature layers ride.
        let h = c.g1_mul(c.g1_generator(), &BigUint::from_u64(0xBA5E));
        let hq = c.g2_mul(c.g2_generator(), &BigUint::from_u64(0xBA5E));
        let pre1 = c.precompute_g1(&h);
        let pre2 = c.precompute_g2(&hq);
        assert!(pre1.matches_base(&h) && pre2.matches_base(&hq));
        for k in edge_scalars(&c) {
            let reduced = k.rem(c.r());
            let want1 = to_affine(&fp_ops, &scalar_mul(&fp_ops, &h, &reduced));
            let want2 = to_affine(&fq_ops, &scalar_mul(&fq_ops, &hq, &reduced));
            // The explicit precomputed entry points.
            assert_eq!(c.g1_mul_precomputed(&pre1, &k), want1, "{}", spec.name);
            assert_eq!(c.g2_mul_precomputed(&pre2, &k), want2, "{}", spec.name);
            // And the plain entry points, now routed through the cache
            // hit for registered bases.
            assert_eq!(c.g1_mul(&h, &k), want1, "{}", spec.name);
            assert_eq!(c.g2_mul(&hq, &k), want2, "{}", spec.name);
        }
    }
}

#[test]
fn precompute_handles_identity_base() {
    let c = Curve::by_name("BN254N");
    let g1_inf = finesse_curves::Affine::infinity(c.fp().zero());
    let pre = c.precompute_g1(&g1_inf);
    assert!(!pre.matches_base(&g1_inf), "identity base builds no comb");
    for k in edge_scalars(&c) {
        assert!(c.g1_mul_precomputed(&pre, &k).infinity);
    }
}
