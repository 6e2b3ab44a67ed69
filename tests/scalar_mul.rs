//! Differential tests for endomorphism-accelerated scalar multiplication:
//! GLV/GLS decompositions recombine correctly, the accelerated
//! `g1_mul`/`g2_mul` are bit-identical to the double-and-add
//! [`scalar_mul`] reference, and the Pippenger `msm` matches the naive
//! sum — across all seven Table 2 curves with edge scalars.

use finesse_curves::{all_specs, scalar_mul, to_affine, Curve, FpOps, FqOps, GlsG2};
use finesse_ff::{BigInt, BigUint};
use std::sync::Arc;

/// Deterministic full-width scalar stream (splitmix64-filled limbs).
fn scalar_stream(seed: u64, width_bits: usize) -> impl FnMut() -> BigUint {
    let mut state = seed;
    move || {
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        BigUint::from_limbs((0..width_bits.div_ceil(64)).map(|_| next()).collect())
    }
}

/// Edge scalars for a curve: identity-adjacent, r-adjacent (the
/// reduction-mod-r regression cases), eigenvalue-adjacent (sign-boundary
/// decompositions), and full-width pseudorandom.
fn edge_scalars(c: &Arc<Curve>) -> Vec<BigUint> {
    let r = c.r();
    let one = BigUint::one();
    let mut out = vec![
        BigUint::zero(),
        one.clone(),
        BigUint::from_u64(2),
        r.checked_sub(&one).unwrap(),
        r.clone(),
        &r.clone() + &one,
        &(&r.clone() + &r.clone()) + &BigUint::from_u64(3), // 2r + 3
    ];
    // Sign boundaries: the eigenvalues themselves decompose to (0, ±1)
    // neighbourhoods where the rounding flips.
    if let Some(glv) = c.glv_g1() {
        out.push(glv.lambda().clone());
        out.push(glv.lambda().checked_sub(&one).unwrap());
        out.push((&(glv.lambda().clone()) + &one).rem(r));
    }
    out.push(c.gls_eigenvalue());
    let mut stream = scalar_stream(0xC0FF_EE00 ^ r.low_u64(), r.bits() + 64);
    for _ in 0..3 {
        out.push(stream());
    }
    out
}

#[test]
fn glv_decomposition_recomposes_with_short_halves() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let r = c.r();
        let glv = c.glv_g1().expect("all built-in curves calibrate GLV");
        let lambda = BigInt::from_biguint(glv.lambda().clone());
        for k in edge_scalars(&c) {
            let (k1, k2) = c.decompose_scalar(&k).unwrap();
            let recomposed = &k1 + &(&k2 * &lambda);
            assert_eq!(
                recomposed.rem_euclid(r),
                k.rem(r),
                "{}: k₁ + k₂λ ≡ k mod r for k = {k:?}",
                spec.name
            );
            // √r bound (+2 bits of rounding slack).
            let bound = r.bits() / 2 + 2;
            assert!(
                k1.bits() <= bound && k2.bits() <= bound,
                "{}: |k₁| = {} bits, |k₂| = {} bits exceeds √r ≈ {} bits",
                spec.name,
                k1.bits(),
                k2.bits(),
                bound
            );
        }
    }
}

#[test]
fn gls_digits_recompose_with_short_digits() {
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let r = c.r();
        let zeta = BigInt::from_biguint(c.gls_eigenvalue());
        // Mode-specific digit bound: |t|-sized for the BLS power and BN
        // quartic splits, √r for the generic 2-dim fallback.
        let digit_bound = match c.gls_g2() {
            GlsG2::Power { t } => t.bits() + 1,
            GlsG2::Quartic { .. } => c.t().bits() + 4,
            GlsG2::TwoDim { .. } => r.bits() / 2 + 2,
        };
        for k in edge_scalars(&c) {
            let digits = c.g2_gls_digits(&k);
            let mut acc = BigInt::zero();
            for d in digits.iter().rev() {
                acc = &(&acc * &zeta) + d;
            }
            assert_eq!(
                acc.rem_euclid(r),
                k.rem(r),
                "{}: Σ dᵢζⁱ ≡ k mod r for k = {k:?}",
                spec.name
            );
            for (i, d) in digits.iter().enumerate() {
                assert!(
                    d.bits() <= digit_bound,
                    "{}: digit {i} has {} bits, bound {digit_bound} (k = {k:?})",
                    spec.name,
                    d.bits()
                );
            }
        }
    }
}

#[test]
fn g1_mul_is_bit_identical_to_reference() {
    // A non-generator base keeps this on the GLV/JSF variable-base path
    // (generator muls route through the fixed-base comb, which has its
    // own differential suite in `tests/fixed_base.rs`).
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let ops = FpOps(Arc::clone(c.fp()));
        let g = c.g1_mul(c.g1_generator(), &BigUint::from_u64(3));
        for k in edge_scalars(&c) {
            let fast = c.g1_mul(&g, &k);
            let reference = to_affine(&ops, &scalar_mul(&ops, &g, &k.rem(c.r())));
            assert_eq!(fast, reference, "{}: k = {k:?}", spec.name);
        }
    }
}

#[test]
fn g2_mul_is_bit_identical_to_reference() {
    // Non-generator base: stays on the ψ-split GLS path (see above).
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let tower = c.tower();
        let ops = FqOps(tower);
        let q = c.g2_mul(c.g2_generator(), &BigUint::from_u64(3));
        for k in edge_scalars(&c) {
            let fast = c.g2_mul(&q, &k);
            let reference = to_affine(&ops, &scalar_mul(&ops, &q, &k.rem(c.r())));
            assert_eq!(fast, reference, "{}: k = {k:?}", spec.name);
        }
    }
}

#[test]
fn oversized_scalars_reduce_mod_r() {
    // The satellite regression: k = r, r+1, 2r+3 act like 0, 1, 3 on the
    // r-torsion and must not pay (or corrupt) full-length ladders.
    for name in ["BN254N", "BLS12-381", "BLS24-509"] {
        let c = Curve::by_name(name);
        let r = c.r();
        let one = BigUint::one();
        let g = c.g1_generator();
        let q = c.g2_generator();
        assert!(c.g1_mul(g, r).infinity, "{name}: [r]G1 = O");
        assert_eq!(c.g1_mul(g, &(r + &one)), *g, "{name}: [r+1]G1 = G1");
        let two_r_3 = &(r + r) + &BigUint::from_u64(3);
        assert_eq!(
            c.g1_mul(g, &two_r_3),
            c.g1_mul(g, &BigUint::from_u64(3)),
            "{name}: [2r+3]G1 = [3]G1"
        );
        assert!(c.g2_mul(q, r).infinity, "{name}: [r]G2 = O");
        assert_eq!(c.g2_mul(q, &(r + &one)), *q, "{name}: [r+1]G2 = G2");
        assert_eq!(
            c.g2_mul(q, &two_r_3),
            c.g2_mul(q, &BigUint::from_u64(3)),
            "{name}: [2r+3]G2 = [3]G2"
        );
    }
}

/// Naive MSM reference: independent accelerated muls + additions (already
/// verified bit-identical to `scalar_mul` above).
fn naive_g1_msm(
    c: &Arc<Curve>,
    points: &[finesse_curves::Affine<finesse_ff::Fp>],
    scalars: &[BigUint],
) -> finesse_curves::Affine<finesse_ff::Fp> {
    let mut acc = finesse_curves::Affine::infinity(c.fp().zero());
    for (p, k) in points.iter().zip(scalars) {
        acc = c.g1_add(&acc, &c.g1_mul(p, k));
    }
    acc
}

#[test]
fn g1_msm_matches_naive_sum() {
    // Full size sweep on the headline curves, spot check on the rest.
    let sizes_by_curve = |name: &str| -> Vec<usize> {
        match name {
            "BN254N" | "BLS12-381" => vec![0, 1, 2, 33, 257],
            _ => vec![33],
        }
    };
    for spec in all_specs() {
        let c = Curve::by_name(spec.name);
        let g = c.g1_generator();
        for n in sizes_by_curve(spec.name) {
            let mut stream = scalar_stream(0xBEEF ^ n as u64, c.r().bits());
            let points: Vec<_> = (0..n)
                .map(|i| c.g1_mul(g, &BigUint::from_u64((i * i + 3) as u64)))
                .collect();
            let mut scalars: Vec<_> = (0..n).map(|_| stream()).collect();
            if n > 2 {
                // Exercise degenerate entries inside a real batch.
                scalars[1] = BigUint::zero();
                scalars[2] = c.r().clone(); // reduces to zero
            }
            assert_eq!(
                c.g1_msm(&points, &scalars).unwrap(),
                naive_g1_msm(&c, &points, &scalars),
                "{}: n = {n}",
                spec.name
            );
        }
    }
}

#[test]
fn g2_msm_matches_naive_sum() {
    for (name, n) in [
        ("BN254N", 33usize),
        ("BLS12-381", 33),
        ("BLS24-509", 9),
        ("BN462", 5),
    ] {
        let c = Curve::by_name(name);
        let q = c.g2_generator();
        let mut stream = scalar_stream(0xD00D ^ n as u64, c.r().bits());
        let points: Vec<_> = (0..n)
            .map(|i| c.g2_mul(q, &BigUint::from_u64((2 * i + 5) as u64)))
            .collect();
        let scalars: Vec<_> = (0..n).map(|_| stream()).collect();
        let mut want = finesse_curves::Affine::infinity(c.tower().fq_zero());
        for (p, k) in points.iter().zip(&scalars) {
            want = c.g2_add(&want, &c.g2_mul(p, k));
        }
        assert_eq!(
            c.g2_msm(&points, &scalars).unwrap(),
            want,
            "{name}: n = {n}"
        );
    }
}

#[test]
fn msm_empty_and_degenerate_inputs() {
    let c = Curve::by_name("BN254N");
    assert!(c.g1_msm(&[], &[]).unwrap().infinity);
    let g = c.g1_generator().clone();
    let inf = finesse_curves::Affine::infinity(c.fp().zero());
    // All entries degenerate → identity.
    assert!(
        c.g1_msm(
            &[inf.clone(), g.clone()],
            &[BigUint::from_u64(7), BigUint::zero()]
        )
        .unwrap()
        .infinity
    );
    // Single live term → plain multiple.
    assert_eq!(
        c.g1_msm(
            &[g.clone(), inf],
            &[BigUint::from_u64(7), BigUint::from_u64(9)]
        )
        .unwrap(),
        c.g1_mul(&g, &BigUint::from_u64(7))
    );
}

#[test]
fn msm_length_mismatch_is_reported_not_fatal() {
    let c = Curve::by_name("BN254N");
    let g = c.g1_generator().clone();
    let err = c.g1_msm(&[g], &[]).unwrap_err();
    assert!(
        matches!(
            err,
            finesse_curves::CurveError::MsmLengthMismatch {
                what: "g1_msm",
                points: 1,
                scalars: 0,
            }
        ),
        "unexpected error: {err}"
    );
    let q = c.g2_generator().clone();
    let err = c
        .g2_msm(&[q], &[BigUint::from_u64(1), BigUint::from_u64(2)])
        .unwrap_err();
    assert!(err.to_string().contains("g2_msm"), "display names the API");
}

/// `n` distinct G1 points `G, 2G, …, nG` by a `g1_add` chain.
fn g1_chain(c: &Arc<Curve>, n: usize) -> Vec<finesse_curves::Affine<finesse_ff::Fp>> {
    let g = c.g1_generator();
    let mut out: Vec<finesse_curves::Affine<finesse_ff::Fp>> = Vec::with_capacity(n);
    for i in 0..n {
        let next = match i {
            0 => g.clone(),
            _ => c.g1_add(&out[i - 1], g),
        };
        out.push(next);
    }
    out
}

#[test]
fn g1_msm_short_groups_match_naive_sums_at_every_kernel_boundary() {
    // Group sizes straddle the kernel switch: identity, ladder, JSF pair,
    // Straus (3 and 255 live terms) and Pippenger (256). The 4-point
    // group carries a zero scalar and an identity point, so only two of
    // its terms are live; the last group holds one full-width scalar,
    // which sends it down the reduce-and-split path.
    for name in ["BN254N", "BLS12-381"] {
        let c = Curve::by_name(name);
        let pool = g1_chain(&c, 256);
        let mut short = scalar_stream(0x5407 ^ c.r().low_u64(), 128);
        let mut groups: Vec<_> = [0usize, 1, 2, 3, 4, 255, 256]
            .into_iter()
            .map(|n| {
                let points = pool[..n].to_vec();
                let scalars: Vec<BigUint> = (0..n).map(|_| short()).collect();
                (points, scalars)
            })
            .collect();
        groups[4].0[1] = finesse_curves::Affine::infinity(c.fp().zero());
        groups[4].1[2] = BigUint::zero();
        let mut wide = scalar_stream(0x3A3A, c.r().bits());
        groups.push((pool[..3].to_vec(), vec![short(), wide(), short()]));
        let got = c.g1_msm_short_groups(&groups).unwrap();
        assert_eq!(got.len(), groups.len());
        for ((points, scalars), aggregate) in groups.iter().zip(&got) {
            assert_eq!(
                *aggregate,
                naive_g1_msm(&c, points, scalars),
                "{name}: group of {}",
                points.len()
            );
            assert_eq!(
                c.g1_msm_short(points, scalars).unwrap(),
                *aggregate,
                "{name}: ungrouped call, group of {}",
                points.len()
            );
        }
        groups[2].1.pop();
        let err = c.g1_msm_short_groups(&groups).unwrap_err();
        assert!(
            matches!(
                err,
                finesse_curves::CurveError::MsmLengthMismatch {
                    what: "g1_msm_short",
                    points: 2,
                    scalars: 1,
                }
            ),
            "{name}: unexpected error: {err}"
        );
    }
}

#[test]
fn g2_msm_matches_naive_sum_on_the_bucket_path() {
    // Enough points that the GLS split feeds at least MSM_STRAUS_MAX live
    // terms to the kernel, so the sum runs through Pippenger's buckets.
    for (name, n) in [("BLS12-381", 65usize), ("BLS24-509", 33)] {
        let c = Curve::by_name(name);
        let q = c.g2_generator();
        let mut points: Vec<finesse_curves::Affine<finesse_ff::Fq>> = vec![q.clone()];
        while points.len() < n {
            let next = c.g2_add(&points[points.len() - 1], q);
            points.push(next);
        }
        let mut stream = scalar_stream(0x6B0C ^ n as u64, c.r().bits());
        let scalars: Vec<BigUint> = (0..n).map(|_| stream().rem(c.r())).collect();
        let live_terms: usize = scalars
            .iter()
            .map(|k| c.g2_gls_digits(k).iter().filter(|d| !d.is_zero()).count())
            .sum();
        assert!(
            live_terms >= finesse_curves::point::MSM_STRAUS_MAX,
            "{name}: {live_terms} split terms"
        );
        let mut want = finesse_curves::Affine::infinity(c.tower().fq_zero());
        for (p, k) in points.iter().zip(&scalars) {
            want = c.g2_add(&want, &c.g2_mul(p, k));
        }
        assert_eq!(c.g2_msm(&points, &scalars).unwrap(), want, "{name}");
    }
}
