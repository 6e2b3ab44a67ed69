//! The paper's validation matrix, end to end: for every Table 2 curve,
//! compile the optimal-Ate program, execute the binary on the functional
//! simulator, and require bit-exact agreement with the reference pairing
//! library. Also checks the cycle-accurate IPC band per curve, and pins
//! the co-design loop's output on the Figure 10 design points.

use finesse_compiler::{compile_pairing, tower_shape, CompileOptions};
use finesse_curves::{all_specs, Curve};
use finesse_dse::figure10_points;
use finesse_ff::BigUint;
use finesse_hw::HwModel;
use finesse_ir::convert::{fps_to_fpk, fq_to_fps};
use finesse_ir::VariantConfig;
use finesse_pairing::PairingEngine;
use finesse_sim::{run_image, simulate};

#[test]
fn compiled_binaries_match_reference_on_all_seven_curves() {
    for spec in all_specs() {
        let curve = Curve::by_name(spec.name);
        let shape = tower_shape(&curve);
        let variants = VariantConfig::all_karatsuba(&shape);
        let hw = HwModel::paper_default();
        let compiled = compile_pairing(&curve, &variants, &hw, &CompileOptions::default()).unwrap();

        let engine = PairingEngine::new(curve.clone());
        let p = curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(0xABCDE));
        let q = curve.g2_mul(curve.g2_generator(), &BigUint::from_u64(0x12345));
        let expected = engine.pair(&p, &q);

        let mut inputs: Vec<BigUint> = vec![p.x.to_biguint(), p.y.to_biguint()];
        inputs.extend(fq_to_fps(&q.x).iter().map(|f| f.to_biguint()));
        inputs.extend(fq_to_fps(&q.y).iter().map(|f| f.to_biguint()));
        let out = run_image(&compiled.image, curve.fp(), &inputs)
            .unwrap_or_else(|e| panic!("{}: functional sim failed: {e}", spec.name));
        let fps: Vec<_> = out.iter().map(|v| curve.fp().from_biguint(v)).collect();
        assert_eq!(
            fps_to_fpk(curve.tower(), &fps),
            expected,
            "{}: compiled binary != reference pairing",
            spec.name
        );
    }
}

#[test]
fn scheduled_programs_reach_high_ipc_on_every_curve() {
    for spec in all_specs() {
        let curve = Curve::by_name(spec.name);
        let shape = tower_shape(&curve);
        let variants = VariantConfig::all_karatsuba(&shape);
        let hw = HwModel::paper_default();
        let compiled = compile_pairing(&curve, &variants, &hw, &CompileOptions::default()).unwrap();
        let insts = compiled.image.spec.decode(&compiled.image.words).unwrap();
        let report = simulate(&insts, &hw, None);
        assert!(
            report.ipc() > 0.70,
            "{}: IPC {:.2} below the paper's band",
            spec.name,
            report.ipc()
        );
    }
}

#[test]
fn variant_choice_does_not_change_semantics() {
    // Same curve, three variant configs, same pairing value.
    let curve = Curve::by_name("BLS12-381");
    let shape = tower_shape(&curve);
    let hw = HwModel::paper_default();
    let engine = PairingEngine::new(curve.clone());
    let p = curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(5));
    let q = curve.g2_mul(curve.g2_generator(), &BigUint::from_u64(6));
    let expected = engine.pair(&p, &q);

    let mut inputs: Vec<BigUint> = vec![p.x.to_biguint(), p.y.to_biguint()];
    inputs.extend(fq_to_fps(&q.x).iter().map(|f| f.to_biguint()));
    inputs.extend(fq_to_fps(&q.y).iter().map(|f| f.to_biguint()));

    for cfg in [
        VariantConfig::all_karatsuba(&shape),
        VariantConfig::all_schoolbook(&shape),
        VariantConfig::manual(&shape),
    ] {
        let compiled = compile_pairing(&curve, &cfg, &hw, &CompileOptions::default()).unwrap();
        let out = run_image(&compiled.image, curve.fp(), &inputs).unwrap();
        let fps: Vec<_> = out.iter().map(|v| curve.fp().from_biguint(v)).collect();
        assert_eq!(fps_to_fpk(curve.tower(), &fps), expected, "variant {cfg}");
    }
}

#[test]
fn unoptimized_baseline_is_also_correct() {
    // The Table 7 "Init." program must compute the same pairing — the
    // optimisations only remove work.
    let curve = Curve::by_name("BN254N");
    let shape = tower_shape(&curve);
    let variants = VariantConfig::all_karatsuba(&shape);
    let hw = HwModel::paper_default();
    let engine = PairingEngine::new(curve.clone());
    let p = curve.g1_generator().clone();
    let q = curve.g2_generator().clone();
    let expected = engine.pair(&p, &q);

    let mut inputs: Vec<BigUint> = vec![p.x.to_biguint(), p.y.to_biguint()];
    inputs.extend(fq_to_fps(&q.x).iter().map(|f| f.to_biguint()));
    inputs.extend(fq_to_fps(&q.y).iter().map(|f| f.to_biguint()));

    let compiled = compile_pairing(&curve, &variants, &hw, &CompileOptions::baseline()).unwrap();
    let out = run_image(&compiled.image, curve.fp(), &inputs).unwrap();
    let fps: Vec<_> = out.iter().map(|v| curve.fp().from_biguint(v)).collect();
    assert_eq!(fps_to_fpk(curve.tower(), &fps), expected);
}

#[test]
fn vliw_compilation_is_correct_and_faster() {
    let curve = Curve::by_name("BN254N");
    let shape = tower_shape(&curve);
    let variants = VariantConfig::all_karatsuba(&shape);
    let engine = PairingEngine::new(curve.clone());
    let p = curve.g1_generator().clone();
    let q = curve.g2_generator().clone();
    let expected = engine.pair(&p, &q);

    let mut inputs: Vec<BigUint> = vec![p.x.to_biguint(), p.y.to_biguint()];
    inputs.extend(fq_to_fps(&q.x).iter().map(|f| f.to_biguint()));
    inputs.extend(fq_to_fps(&q.y).iter().map(|f| f.to_biguint()));

    let single = HwModel::paper_default();
    let wide = HwModel::vliw(4, 38, 8);
    let c1 = compile_pairing(&curve, &variants, &single, &CompileOptions::default()).unwrap();
    let c4 = compile_pairing(&curve, &variants, &wide, &CompileOptions::default()).unwrap();

    let out = run_image(&c4.image, curve.fp(), &inputs).unwrap();
    let fps: Vec<_> = out.iter().map(|v| curve.fp().from_biguint(v)).collect();
    assert_eq!(
        fps_to_fpk(curve.tower(), &fps),
        expected,
        "VLIW binary is correct"
    );

    let r1 = simulate(
        &c1.image.spec.decode(&c1.image.words).unwrap(),
        &single,
        None,
    );
    let r4 = simulate(&c4.image.spec.decode(&c4.image.words).unwrap(), &wide, None);
    assert!(
        r4.cycles < r1.cycles,
        "VLIW exploits ILP: {} vs {} cycles",
        r4.cycles,
        r1.cycles
    );
}

/// FNV-1a-64 over the little-endian bytes of an instruction image.
fn fnv1a64(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn figure10_points_compile_and_simulate_to_pinned_results() {
    // Per BN254N Figure 10 point: simulated cycles, stall cycles and
    // write-back conflicts; the scheduler's predicted cycles; peak live
    // registers; and a digest of the linked image. Any change to the
    // scheduler, the register allocator, the linker or the simulator that
    // moves one of these must be deliberate.
    #[rustfmt::skip]
    const PINNED: [(&str, u64, u64, u64, u64, u32, u64); 15] = [
        ("Manual @ L38/S8 single-issue",     70843, 4606, 3716, 70799, 353, 0xe1a7_3a24_1e00_9344),
        ("All sch. @ L38/S8 single-issue",   86457, 7857, 6942, 86415, 398, 0xa06d_cf1d_d118_2ea7),
        ("All karat. @ L38/S8 single-issue", 73252, 3389, 2510, 73208, 328, 0x866a_8b6e_e005_a3b5),
        ("Manual @ L8/S2 single-issue",      68812, 2605, 1975, 68794, 265, 0xd0e0_8fb7_6794_d54c),
        ("All sch. @ L8/S2 single-issue",    80896, 2326, 1760, 80878, 369, 0x53f1_92d0_e9ed_d037),
        ("All karat. @ L8/S2 single-issue",  72624, 2791, 2198, 72606, 277, 0x7783_bb7b_a278_b452),
        ("Manual @ L8/S2 VLIW x2lin",        28159,  555,    0, 28141, 381, 0xe893_d2d1_adb2_17d9),
        ("All sch. @ L8/S2 VLIW x2lin",      33009,  559,    0, 32991, 198, 0x2de0_5051_da05_d90d),
        ("All karat. @ L8/S2 VLIW x2lin",    30729,  550,    0, 30711, 292, 0x8cc9_9a3e_287a_c8f6),
        ("Manual @ L8/S2 VLIW x4lin",        19667,  557,    0, 19649, 356, 0x1348_4a6c_92b4_c9d2),
        ("All sch. @ L8/S2 VLIW x4lin",      30617,  560,    0, 30599, 193, 0x2a7d_3a83_9673_3f9a),
        ("All karat. @ L8/S2 VLIW x4lin",    18828,  559,    0, 18810, 460, 0xe22e_350f_dc8d_821e),
        ("Manual @ L8/S2 VLIW x6lin",        18025,  559,    0, 18007, 359, 0x1571_de4e_20bd_5836),
        ("All sch. @ L8/S2 VLIW x6lin",      30177,  562,    0, 30159, 227, 0x2a06_8ec7_006b_2013),
        ("All karat. @ L8/S2 VLIW x6lin",    16728,  561,    0, 16710, 477, 0x43c2_aca8_9970_572c),
    ];
    let curve = Curve::by_name("BN254N");
    let points = figure10_points(&curve);
    let opts = CompileOptions::default();
    assert_eq!(points.len(), PINNED.len());
    for (point, want) in points.iter().zip(PINNED) {
        let c = compile_pairing(&curve, &point.variants, &point.hw, &opts).unwrap();
        let r = simulate(&c.image.spec.decode(&c.image.words).unwrap(), &c.hw, None);
        let got = (
            point.label.as_str(),
            r.cycles,
            r.stall_cycles,
            r.wb_conflicts,
            c.schedule.predicted_cycles,
            c.regs.peak_live,
            fnv1a64(&c.image.words),
        );
        assert_eq!(got, want);
    }
}
