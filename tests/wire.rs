//! Adversarial tests for the validated wire format (`finesse_curves::wire`)
//! and the fast subgroup checks backing it, across all seven Table 2
//! curves.
//!
//! The decoder's contract for untrusted bytes is: every accepted input is
//! the *unique* canonical encoding of a point of the advertised
//! prime-order group, and every rejected input gets a typed
//! [`DecodeError`] naming what was wrong. This suite drives that contract
//! with a deterministic splitmix64 fuzzer — round-trips, bit-flips,
//! truncations, non-canonical field limbs, off-curve x coordinates (G1
//! and compressed G2), and on-curve points outside the r-torsion — plus
//! a differential check of the endomorphism-accelerated subgroup tests
//! against the naive `[r]P` oracle, the in-memory validators the decoders
//! end in, and the exact-byte cache of successful G2 decodes.

use finesse_curves::{all_specs, Affine, Compression, Curve, DecodeError};
use finesse_ff::{BigUint, Fp, Fq};

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
}

fn random_g1(c: &Curve, rng: &mut SplitMix64) -> Affine<Fp> {
    c.g1_mul(c.g1_generator(), &BigUint::from_u64(rng.next() | 1))
}

fn random_g2(c: &Curve, rng: &mut SplitMix64) -> Affine<Fq> {
    c.g2_mul(c.g2_generator(), &BigUint::from_u64(rng.next() | 1))
}

/// A point on E(F_p) found by x-increment *without* cofactor clearing:
/// on curves with cofactor > 1 it lands outside the r-subgroup with
/// overwhelming probability.
fn uncleaned_g1_point(c: &Curve, start: u64) -> Affine<Fp> {
    let fp = c.fp();
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

/// Same construction on the twist E'(F_q) for G2.
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

/// Fixed-width big-endian bytes of a [`BigUint`] (for building malformed
/// field encodings such as the modulus itself).
fn biguint_bytes_be(v: &BigUint, width: usize) -> Vec<u8> {
    let mut out = vec![0u8; width];
    for (i, limb) in v.to_fixed_limbs(width.div_ceil(8)).iter().enumerate() {
        for j in 0..8 {
            let idx = 8 * i + j;
            if idx < width {
                out[width - 1 - idx] = (limb >> (8 * j)) as u8;
            }
        }
    }
    out
}

#[test]
fn round_trip_is_the_identity_on_all_seven() {
    let mut rng = SplitMix64(0x57EE_D001);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            for p in [
                c.g1_generator().clone(),
                random_g1(&c, &mut rng),
                Affine::infinity(c.fp().zero()),
            ] {
                let enc = c.encode_g1(&p, mode);
                assert_eq!(enc.len(), c.g1_wire_len(mode), "{}", spec.name);
                let dec = c
                    .decode_g1(&enc)
                    .unwrap_or_else(|e| panic!("{}: honest G1 encoding rejected: {e}", spec.name));
                assert_eq!(dec, p, "{}: G1 round-trip changed the point", spec.name);
                // Canonicality: re-encoding reproduces the exact bytes.
                assert_eq!(c.encode_g1(&dec, mode), enc, "{}", spec.name);
            }
            for q in [
                c.g2_generator().clone(),
                random_g2(&c, &mut rng),
                Affine::infinity(c.tower().fq_zero()),
            ] {
                let enc = c.encode_g2(&q, mode);
                assert_eq!(enc.len(), c.g2_wire_len(mode), "{}", spec.name);
                let dec = c
                    .decode_g2(&enc)
                    .unwrap_or_else(|e| panic!("{}: honest G2 encoding rejected: {e}", spec.name));
                assert_eq!(dec, q, "{}: G2 round-trip changed the point", spec.name);
                assert_eq!(c.encode_g2(&dec, mode), enc, "{}", spec.name);
            }
        }
    }
}

#[test]
fn bit_flips_never_pass_as_the_original_point() {
    // A decoder accepting a tampered encoding *as the pushed point* would
    // break canonical-encoding uniqueness. A flip may legitimately decode
    // to a *different* valid point (e.g. the sign bit), but then it must
    // re-encode to exactly the tampered bytes, never to the original.
    let mut rng = SplitMix64(0xB17F_11B5);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            let p = random_g1(&c, &mut rng);
            let enc = c.encode_g1(&p, mode);
            for _ in 0..48 {
                let byte = (rng.next() as usize) % enc.len();
                let bit = 1u8 << (rng.next() % 8);
                let mut bad = enc.clone();
                bad[byte] ^= bit;
                match c.decode_g1(&bad) {
                    Err(_) => {}
                    Ok(dec) => {
                        assert_ne!(
                            dec, p,
                            "{}: flipped G1 bytes decoded as original",
                            spec.name
                        );
                        assert_eq!(
                            c.encode_g1(&dec, mode),
                            bad,
                            "{}: accepted G1 bytes are not canonical",
                            spec.name
                        );
                    }
                }
            }
            let q = random_g2(&c, &mut rng);
            let enc = c.encode_g2(&q, mode);
            for _ in 0..24 {
                let byte = (rng.next() as usize) % enc.len();
                let bit = 1u8 << (rng.next() % 8);
                let mut bad = enc.clone();
                bad[byte] ^= bit;
                match c.decode_g2(&bad) {
                    Err(_) => {}
                    Ok(dec) => {
                        assert_ne!(
                            dec, q,
                            "{}: flipped G2 bytes decoded as original",
                            spec.name
                        );
                        assert_eq!(
                            c.encode_g2(&dec, mode),
                            bad,
                            "{}: accepted G2 bytes are not canonical",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn truncations_report_length() {
    let mut rng = SplitMix64(0x7214_CA7E);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            let enc = c.encode_g1(&random_g1(&c, &mut rng), mode);
            for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
                assert!(
                    matches!(c.decode_g1(&enc[..cut]), Err(DecodeError::Length { .. })),
                    "{}: G1 truncated to {cut} bytes not a length error",
                    spec.name
                );
            }
            let enc = c.encode_g2(&random_g2(&c, &mut rng), mode);
            for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
                assert!(
                    matches!(c.decode_g2(&enc[..cut]), Err(DecodeError::Length { .. })),
                    "{}: G2 truncated to {cut} bytes not a length error",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn invalid_tags_and_infinity_padding_are_typed() {
    let mut rng = SplitMix64(0x7A6F_00D5);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let mut enc = c.encode_g1(&random_g1(&c, &mut rng), Compression::Compressed);
        for tag in [0x01u8, 0x05, 0x07, 0xFF] {
            enc[0] = tag;
            assert_eq!(
                c.decode_g1(&enc),
                Err(DecodeError::InvalidTag(tag)),
                "{}",
                spec.name
            );
        }
        // Infinity must be all-zero payload: any stray bit is rejected
        // rather than ignored (no malleable encodings of the identity).
        let mut inf = c.encode_g1(&Affine::infinity(c.fp().zero()), Compression::Compressed);
        let pos = 1 + (rng.next() as usize) % (inf.len() - 1);
        inf[pos] = 0x40;
        assert_eq!(
            c.decode_g1(&inf),
            Err(DecodeError::NonCanonicalInfinity),
            "{}",
            spec.name
        );
        let mut inf = c.encode_g2(
            &Affine::infinity(c.tower().fq_zero()),
            Compression::Uncompressed,
        );
        let pos = 1 + (rng.next() as usize) % (inf.len() - 1);
        inf[pos] = 0x01;
        assert_eq!(
            c.decode_g2(&inf),
            Err(DecodeError::NonCanonicalInfinity),
            "{}",
            spec.name
        );
    }
}

#[test]
fn non_canonical_field_limbs_are_rejected() {
    // x = p and x = p + small are valid-length byte strings encoding
    // integers >= p; a lenient decoder would silently reduce them,
    // creating a second encoding of an existing point.
    let mut rng = SplitMix64(0xF1E1_D001);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let w = c.fp().byte_len();
        let p_bytes = biguint_bytes_be(c.p(), w);
        let mut enc = c.encode_g1(&random_g1(&c, &mut rng), Compression::Compressed);
        enc[1..1 + w].copy_from_slice(&p_bytes);
        assert_eq!(
            c.decode_g1(&enc),
            Err(DecodeError::NonCanonicalField),
            "{}: x = p accepted",
            spec.name
        );
        // Same in the x-coordinate of an uncompressed G2 encoding (first
        // base-field coefficient of the Fq element).
        let mut enc = c.encode_g2(&random_g2(&c, &mut rng), Compression::Uncompressed);
        enc[1..1 + w].copy_from_slice(&p_bytes);
        assert_eq!(
            c.decode_g2(&enc),
            Err(DecodeError::NonCanonicalField),
            "{}: G2 coefficient = p accepted",
            spec.name
        );
    }
}

#[test]
fn off_curve_points_are_rejected() {
    let mut rng = SplitMix64(0x0FFC_0B7E);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        // Compressed: walk x forward until x³ + b is a non-square.
        let mut enc = c.encode_g1(&random_g1(&c, &mut rng), Compression::Compressed);
        let w = c.fp().byte_len();
        let mut xi = rng.next() >> 12;
        loop {
            let x = c.fp().from_u64(xi);
            let rhs = &(&(&x * &x) * &x) + c.b();
            if rhs.sqrt().is_none() {
                enc[1..1 + w].copy_from_slice(&biguint_bytes_be(&BigUint::from_u64(xi), w));
                break;
            }
            xi += 1;
        }
        assert_eq!(
            c.decode_g1(&enc),
            Err(DecodeError::NotOnCurve),
            "{}: non-residue x accepted",
            spec.name
        );
        // Uncompressed: keep x, corrupt y's low byte so y² != x³ + b.
        let p = random_g1(&c, &mut rng);
        let enc = c.encode_g1(&p, Compression::Uncompressed);
        let mut bad = enc.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        match c.decode_g1(&bad) {
            Err(DecodeError::NotOnCurve) | Err(DecodeError::NonCanonicalField) => {}
            other => panic!("{}: corrupted y gave {other:?}", spec.name),
        }
        // Compressed G2: random x with x³ + b′ a non-square, decided by
        // Euler's criterion rather than by the square root under test.
        let tower = c.tower();
        let half_q = tower.q_order().shr(1);
        let x = loop {
            let x = tower.fq_sample(rng.next());
            let rhs = tower.fq_add(&tower.fq_mul(&tower.fq_sqr(&x), &x), c.b_twist());
            if !tower.fq_is_one(&tower.fq_pow(&rhs, &half_q)) {
                break x;
            }
        };
        let mut enc = c.encode_g2(&random_g2(&c, &mut rng), Compression::Compressed);
        enc[1..].copy_from_slice(&tower.fq_to_bytes_be(&x));
        for tag in [0x02u8, 0x03] {
            enc[0] = tag;
            assert_eq!(
                c.decode_g2(&enc),
                Err(DecodeError::NotOnCurve),
                "{}: non-square x³ + b′ accepted",
                spec.name
            );
        }
    }
}

#[test]
fn generators_carry_the_even_compressed_tag() {
    // Generators are canonicalised to the lexicographically smaller y,
    // independent of which root the square-root algorithm returns.
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let g1 = c.encode_g1(c.g1_generator(), Compression::Compressed);
        let g2 = c.encode_g2(c.g2_generator(), Compression::Compressed);
        assert_eq!(g1[0], 0x02, "{}: G1 generator tag", spec.name);
        assert_eq!(g2[0], 0x02, "{}: G2 generator tag", spec.name);
    }
}

#[test]
fn wrong_subgroup_points_are_rejected() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        // Every built-in G2 has a non-trivial cofactor.
        let q = uncleaned_g2_point(&c, 1);
        assert!(c.g2_on_curve(&q), "{}", spec.name);
        assert!(
            !c.in_g2_subgroup(&q),
            "{}: uncleaned G2 in subgroup",
            spec.name
        );
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            assert_eq!(
                c.decode_g2(&c.encode_g2(&q, mode)),
                Err(DecodeError::NotInSubgroup),
                "{}: wrong-subgroup G2 accepted",
                spec.name
            );
        }
        // G1: BLS curves have cofactor > 1; BN G1 is prime-order, where
        // every curve point is a subgroup point and must be accepted.
        let p = uncleaned_g1_point(&c, 1);
        assert!(c.g1_on_curve(&p), "{}", spec.name);
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            let dec = c.decode_g1(&c.encode_g1(&p, mode));
            if c.g1_cofactor().is_one() {
                assert_eq!(dec, Ok(p.clone()), "{}: h=1 G1 point rejected", spec.name);
            } else {
                assert_eq!(
                    dec,
                    Err(DecodeError::NotInSubgroup),
                    "{}: wrong-subgroup G1 accepted",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn fast_subgroup_checks_match_the_naive_oracle_on_all_seven() {
    let mut rng = SplitMix64(0x5AB6_0F0F);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        // Members are accepted by both.
        let p = random_g1(&c, &mut rng);
        let q = random_g2(&c, &mut rng);
        for (fast, naive, what) in [
            (
                c.in_g1_subgroup(&p),
                c.in_g1_subgroup_naive(&p),
                "member G1",
            ),
            (
                c.in_g2_subgroup(&q),
                c.in_g2_subgroup_naive(&q),
                "member G2",
            ),
        ] {
            assert!(fast && naive, "{}: {what} rejected", spec.name);
        }
        // Uncleaned curve points: fast and naive must agree bit-for-bit.
        let start = rng.next() >> 48;
        let p = uncleaned_g1_point(&c, start);
        assert_eq!(
            c.in_g1_subgroup(&p),
            c.in_g1_subgroup_naive(&p),
            "{}: G1 fast/naive disagree at x start {start}",
            spec.name
        );
        let q = uncleaned_g2_point(&c, start);
        assert_eq!(
            c.in_g2_subgroup(&q),
            c.in_g2_subgroup_naive(&q),
            "{}: G2 fast/naive disagree at x start {start}",
            spec.name
        );
    }
}

#[test]
fn validate_checks_in_memory_points_on_all_seven() {
    let mut rng = SplitMix64(0x7A11_DA7E);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let tower = c.tower();
        // Members: the generators, multiples of them, the identities.
        let mut g1_members = vec![c.g1_generator().clone(), Affine::infinity(c.fp().zero())];
        let mut g2_members = vec![c.g2_generator().clone(), Affine::infinity(tower.fq_zero())];
        for _ in 0..2 {
            g1_members.push(random_g1(&c, &mut rng));
            g2_members.push(random_g2(&c, &mut rng));
        }
        for p in &g1_members {
            assert_eq!(c.validate_g1(p), Ok(()), "{}: G1 member", spec.name);
        }
        for q in &g2_members {
            assert_eq!(c.validate_g2(q), Ok(()), "{}: G2 member", spec.name);
        }
        // Uncleared x-increment points: outside the subgroup wherever the
        // cofactor is above 1 (every built-in G2, and G1 on BLS curves).
        let start = rng.next() >> 48;
        let p = uncleaned_g1_point(&c, start);
        let want = if c.g1_cofactor().is_one() {
            Ok(())
        } else {
            Err(DecodeError::NotInSubgroup)
        };
        assert_eq!(c.validate_g1(&p), want, "{}: uncleared G1", spec.name);
        let q = uncleaned_g2_point(&c, start);
        assert_eq!(
            c.validate_g2(&q),
            Err(DecodeError::NotInSubgroup),
            "{}: uncleared G2",
            spec.name
        );
        // A perturbed y leaves the curve; the on-curve check comes first,
        // so it is named even when the point is also off the subgroup.
        let mut off_g1 = g1_members[2].clone();
        off_g1.y = &off_g1.y + &c.fp().one();
        assert_eq!(
            c.validate_g1(&off_g1),
            Err(DecodeError::NotOnCurve),
            "{}: perturbed G1 y",
            spec.name
        );
        let mut off_g2 = q.clone();
        off_g2.y = tower.fq_add(&off_g2.y, &tower.fq_one());
        assert_eq!(
            c.validate_g2(&off_g2),
            Err(DecodeError::NotOnCurve),
            "{}: perturbed G2 y",
            spec.name
        );
        // validate agrees with a strict decode of the point's encoding.
        // The compressed form recomputes y, so the off-curve points are
        // compared uncompressed only.
        for pt in g1_members.iter().chain([&p]) {
            for mode in [Compression::Compressed, Compression::Uncompressed] {
                assert_eq!(
                    c.validate_g1(pt).map(|()| pt.clone()),
                    c.decode_g1(&c.encode_g1(pt, mode)),
                    "{}: G1 validate vs decode ({mode:?})",
                    spec.name
                );
            }
        }
        for pt in g2_members.iter().chain([&q]) {
            for mode in [Compression::Compressed, Compression::Uncompressed] {
                assert_eq!(
                    c.validate_g2(pt).map(|()| pt.clone()),
                    c.decode_g2(&c.encode_g2(pt, mode)),
                    "{}: G2 validate vs decode ({mode:?})",
                    spec.name
                );
            }
        }
        assert_eq!(
            c.decode_g1(&c.encode_g1(&off_g1, Compression::Uncompressed)),
            Err(DecodeError::NotOnCurve),
            "{}: G1 decode of a perturbed y",
            spec.name
        );
        assert_eq!(
            c.decode_g2(&c.encode_g2(&off_g2, Compression::Uncompressed)),
            Err(DecodeError::NotOnCurve),
            "{}: G2 decode of a perturbed y",
            spec.name
        );
    }
}

#[test]
fn decode_cache_is_transparent_on_all_seven() {
    let mut rng = SplitMix64(0xCAC4_E001);
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        for mode in [Compression::Compressed, Compression::Uncompressed] {
            for q in [
                c.g2_generator().clone(),
                random_g2(&c, &mut rng),
                Affine::infinity(c.tower().fq_zero()),
            ] {
                let enc = c.encode_g2(&q, mode);
                let first = c.decode_g2(&enc);
                let repeat = c.decode_g2(&enc);
                assert_eq!(first, Ok(q.clone()), "{}: first decode", spec.name);
                assert_eq!(repeat, first, "{}: repeat decode ({mode:?})", spec.name);
            }
        }
    }
}

/// A curve of its own, so the cache-length checks below see only their
/// own decodes while other tests decode on the shared registry curves.
fn private_curve(name: &str) -> Curve {
    let spec = finesse_curves::spec_by_name(name).expect("a Table-2 curve");
    Curve::from_spec(spec).expect("built-in specs construct")
}

/// One G2 encoding of every malformed kind the tests above build, with
/// the error each must get.
fn malformed_g2(c: &Curve, rng: &mut SplitMix64) -> Vec<(Vec<u8>, DecodeError)> {
    let tower = c.tower();
    let honest = |rng: &mut SplitMix64, mode| c.encode_g2(&random_g2(c, rng), mode);
    let mut out = Vec::new();
    for mode in [Compression::Compressed, Compression::Uncompressed] {
        let enc = honest(rng, mode);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            let err = c.decode_g2(&enc[..cut]).unwrap_err();
            assert!(matches!(err, DecodeError::Length { .. }));
            out.push((enc[..cut].to_vec(), err));
        }
        let mut bad = enc.clone();
        bad[0] = 0x07;
        out.push((bad, DecodeError::InvalidTag(0x07)));
        let q = uncleaned_g2_point(c, rng.next() >> 48);
        out.push((c.encode_g2(&q, mode), DecodeError::NotInSubgroup));
    }
    let mut inf = c.encode_g2(&Affine::infinity(tower.fq_zero()), Compression::Compressed);
    inf[1] = 0x01;
    out.push((inf, DecodeError::NonCanonicalInfinity));
    let w = c.fp().byte_len();
    let mut enc = honest(rng, Compression::Uncompressed);
    enc[1..1 + w].copy_from_slice(&biguint_bytes_be(c.p(), w));
    out.push((enc, DecodeError::NonCanonicalField));
    // An uncompressed point whose y no longer satisfies the twist
    // equation, and a compressed x with x³ + b′ a non-square.
    let q = random_g2(c, rng);
    let off = Affine::new(q.x.clone(), tower.fq_add(&q.y, &tower.fq_one()));
    out.push((
        c.encode_g2(&off, Compression::Uncompressed),
        DecodeError::NotOnCurve,
    ));
    let half_q = tower.q_order().shr(1);
    let x = loop {
        let x = tower.fq_sample(rng.next());
        let rhs = tower.fq_add(&tower.fq_mul(&tower.fq_sqr(&x), &x), c.b_twist());
        if !tower.fq_is_one(&tower.fq_pow(&rhs, &half_q)) {
            break x;
        }
    };
    let mut enc = honest(rng, Compression::Compressed);
    enc[1..].copy_from_slice(&tower.fq_to_bytes_be(&x));
    out.push((enc, DecodeError::NotOnCurve));
    out
}

#[test]
fn decode_cache_keeps_successes_only_and_stays_bounded() {
    let mut rng = SplitMix64(0xB0D1_CAC4);
    let c = private_curve("BLS12-381");
    let (len, capacity) = c.g2_decode_cache_stats();
    assert_eq!(len, 0, "a new curve starts with an empty decode cache");
    // Rejections are never cached: a second decode of malformed bytes
    // runs the full check again and names the same error.
    for (bytes, want) in malformed_g2(&c, &mut rng) {
        assert_eq!(c.decode_g2(&bytes), Err(want), "first decode");
        assert_eq!(c.decode_g2(&bytes), Err(want), "repeat decode");
        assert_eq!(c.g2_decode_cache_stats().0, 0, "{want:?} was cached");
    }
    // The compressed and the uncompressed encoding of one key are two
    // entries, decoding to equal points.
    let q = random_g2(&c, &mut rng);
    let short = c.decode_g2(&c.encode_g2(&q, Compression::Compressed));
    let long = c.decode_g2(&c.encode_g2(&q, Compression::Uncompressed));
    assert_eq!(short, Ok(q.clone()));
    assert_eq!(long, short);
    assert_eq!(c.g2_decode_cache_stats().0, 2);
    // The bound holds: capacity + 1 distinct keys leave capacity entries,
    // and the evicted key still decodes correctly.
    let points: Vec<Affine<Fq>> = (1..=capacity as u64 + 1)
        .map(|i| c.g2_mul(&q, &BigUint::from_u64(i + 1)))
        .collect();
    let encodings: Vec<Vec<u8>> = points
        .iter()
        .map(|p| c.encode_g2(p, Compression::Compressed))
        .collect();
    for (p, bytes) in points.iter().zip(&encodings) {
        assert_eq!(c.decode_g2(bytes).as_ref(), Ok(p));
    }
    assert_eq!(c.g2_decode_cache_stats(), (capacity, capacity));
    assert_eq!(c.decode_g2(&encodings[0]).as_ref(), Ok(&points[0]));
    assert_eq!(c.g2_decode_cache_stats(), (capacity, capacity));
}
