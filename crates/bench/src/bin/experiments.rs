//! Regenerates every table and figure of the Finesse paper's evaluation,
//! and times the software stack.
//!
//! ```text
//! experiments [table2|table3|table6|table7|fig2|fig6|fig8|fig9|fig10|fig11|fig12|all]
//! experiments --codesign-report
//! experiments --bench-json [CURVE|all]
//! experiments --bench-regress all
//! experiments --bench-regress [METRIC] CURVE [MAX_PCT]
//! ```
//!
//! Output goes to stdout and to `results/<name>.txt`.
//!
//! Every timing runs through one table, `METRICS`: each entry names a
//! metric and re-measures it on a curve with `bench_ns` (the median of
//! five batches). `--bench-json` writes `results/BENCH_fieldops.json`
//! from those entries alone. Per Table-2 curve it times the field
//! substrate (fp_mul/fp_sqr/fq_mul), the group layer (variable- and
//! fixed-base g1_mul/g2_mul, MSM at 64, 256, 1024 and 4096 points) and
//! the pairing with its Miller-loop / final-exponentiation split. On the
//! headline curves it adds a `batch_verify` block (deferred accumulator
//! settles against sequential 2-pairing verification), a `kzg` block, and
//! a `parallel_scaling` block re-timing msm4096 and a 30-pair prepared
//! multi-pairing at 1/2/4/hardware thread budgets. The emission is
//! stamped with the git commit and ISO date, and carries the committed
//! `regression_gates` manifest unchanged.
//!
//! `--bench-regress all` is the CI gate. It reads the per-metric
//! `regression_gates` manifest (`metric`, `curve`, `baseline_ns`,
//! `budget_pct`) from the *committed* `results/BENCH_fieldops.json`
//! through the cost model's reader (`finesse_ir::cost::bench_rows`),
//! re-measures every row, prints a pass/fail table, and exits 1 on any
//! breach — gating a new metric means committing one JSON row, not
//! editing workflow YAML. A missing file, a manifest without gate rows,
//! a row naming an unknown metric or curve, or a malformed command line
//! exits 2 before anything is timed.

use finesse_bench::{f, kfmt, TextTable};
use finesse_compiler::{compile_pairing, tower_shape, CompileOptions};
use finesse_curves::{all_specs, spec_by_name, Affine, Curve};
use finesse_dse::{
    best_point, codesign_alu_sweep, compare_with_software, evaluate_compiled, evaluate_point,
    explore, figure10_points, variant_sweep_points, DesignPoint, Objective,
};
use finesse_ff::{BigUint, Fp, Fq};
use finesse_hw::{
    area_breakdown, fpga_utilization, scale, security_bits, AreaInputs, HwModel, NodeMetrics,
    TechNode, FLEXIPAIR, IKEDA_ASSCC19,
};
use finesse_ir::cost::{bench_rows, num_field, str_field};
use finesse_ir::{lower, CostModel, FpProgram, HirOp, HirProgram, VariantConfig};
use finesse_pairing::PairingEngine;
use finesse_parallel::with_threads;
use finesse_poly::{Kzg, Polynomial};
use finesse_sim::simulate;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;

/// The committed bench emission: the software medians the co-design
/// exhibits price against, and the regression-gate manifest.
const BENCH_JSON: &str = "results/BENCH_fieldops.json";

type Experiment = (&'static str, fn() -> String);

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    fs::create_dir_all("results").expect("create results dir");
    if arg == "--bench-json" {
        let which = std::env::args().nth(2).unwrap_or_else(|| "all".into());
        let json = bench_fieldops_json(&which);
        fs::write(BENCH_JSON, &json).expect("write bench json");
        print!("{json}");
        return;
    }
    if arg == "--bench-regress" {
        let rest: Vec<String> = std::env::args().skip(2).collect();
        std::process::exit(bench_regress_cli(&rest));
    }
    if arg == "--codesign-report" {
        // The one-command co-design artifact path: regenerate the two
        // paper exhibits whose software column is priced by the shared
        // CostModel (the measured medians in results/BENCH_fieldops.json).
        // CI diffs the regenerated files against the committed ones.
        run_experiments(vec![("table2", table2 as fn() -> String), ("fig2", fig2)]);
        return;
    }
    let experiments: Vec<Experiment> = vec![
        ("table2", table2 as fn() -> String),
        ("table3", table3),
        ("table6", table6),
        ("table7", table7),
        ("fig2", fig2),
        ("fig6", fig6),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
    ];
    let selected: Vec<_> = if arg == "all" {
        experiments
    } else {
        experiments.into_iter().filter(|(n, _)| *n == arg).collect()
    };
    if selected.is_empty() {
        exit_usage(format!("unknown experiment `{arg}`; use table2|table3|table6|table7|fig2|fig6|fig8|fig9|fig10|fig11|fig12|all, or --codesign-report"));
    }
    run_experiments(selected);
}

/// Reports a bad command line or input file and stops with exit status 2.
fn exit_usage(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Runs the selected experiments, writing `results/<name>.txt`.
///
/// The written text is byte-for-byte deterministic (wall-clock timing
/// goes to stderr only) so CI can `git diff` regenerated artifacts
/// against the committed ones and fail on drift.
fn run_experiments(selected: Vec<Experiment>) {
    for (name, run) in selected {
        let started = std::time::Instant::now();
        let body = run();
        let text = format!("==== {name} ====\n{body}\n");
        eprintln!("[{name}: {:?}]", started.elapsed());
        print!("{text}");
        let mut file = fs::File::create(format!("results/{name}.txt")).expect("write result");
        file.write_all(text.as_bytes()).expect("write result");
    }
}

/// The software baseline every co-design report prices against: the
/// measured medians in the committed bench JSON. Without them there is
/// no software column to print, so the run stops with exit status 2.
fn sw_cost_model() -> CostModel {
    CostModel::load(std::path::Path::new(BENCH_JSON)).unwrap_or_else(|e| {
        exit_usage(format!(
            "cannot price the software baseline from {BENCH_JSON}: {e}"
        ))
    })
}

fn default_variants(curve: &Arc<Curve>) -> VariantConfig {
    VariantConfig::all_karatsuba(&tower_shape(curve))
}

/// Median ns/op over five batches, batch size calibrated to ~10 ms.
fn bench_ns<F: FnMut()>(mut f: F) -> f64 {
    use std::time::Instant;
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed().as_nanos() as f64;
        if el >= 1e7 || iters >= 1 << 24 {
            break;
        }
        iters = (iters * 4).min(1 << 24);
    }
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Re-measures a metric's median ns per operation on a curve.
type Measure = fn(&Arc<Curve>) -> f64;

/// Every timed quantity, by name. The gate runner and the `--bench-json`
/// emitter both measure through this table, so a gate and the emitted
/// row of the same metric time the same code. Variable-base `g1_mul` and
/// `g2_mul` use a non-generator base, so they time the GLV/GLS split;
/// the generator routes through the comb, which the `_fixed` metrics
/// time.
const METRICS: &[(&str, Measure)] = &[
    // The F_p metrics time dependent chains, each product the next
    // operand, as `pow`, `sqrt` and inversion run them.
    ("fp_mul", |curve| {
        let (mut x, b) = (curve.fp().sample(1), curve.fp().sample(2));
        bench_ns(|| {
            x = black_box(&x * &b);
        })
    }),
    ("fp_sqr", |curve| {
        let mut x = curve.fp().sample(1);
        bench_ns(|| {
            x = black_box(x.square());
        })
    }),
    ("fq_mul", |curve| {
        let tower = curve.tower();
        let (qa, qb) = (tower.fq_sample(1), tower.fq_sample(2));
        bench_ns(|| {
            black_box(tower.fq_mul(black_box(&qa), black_box(&qb)));
        })
    }),
    ("g1_mul", |curve| {
        let (base, k) = (
            curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(7)),
            bench_scalar(curve),
        );
        bench_ns(|| {
            black_box(curve.g1_mul(black_box(&base), black_box(&k)));
        })
    }),
    ("g1_mul_fixed", |curve| {
        // The first call builds the lazy comb; the measurement then
        // times steady-state fixed-base multiplications.
        let (base, k) = (curve.g1_generator(), bench_scalar(curve));
        black_box(curve.g1_mul(base, &k));
        bench_ns(|| {
            black_box(curve.g1_mul(black_box(base), black_box(&k)));
        })
    }),
    ("g2_mul", |curve| {
        let (base, k) = (
            curve.g2_mul(curve.g2_generator(), &BigUint::from_u64(7)),
            bench_scalar(curve),
        );
        bench_ns(|| {
            black_box(curve.g2_mul(black_box(&base), black_box(&k)));
        })
    }),
    ("g2_mul_fixed", |curve| {
        let (base, k) = (curve.g2_generator(), bench_scalar(curve));
        black_box(curve.g2_mul(base, &k));
        bench_ns(|| {
            black_box(curve.g2_mul(black_box(base), black_box(&k)));
        })
    }),
    ("msm64", |curve| msm_ns(curve, 64)),
    ("msm256", |curve| msm_ns(curve, 256)),
    ("msm1024", |curve| msm_ns(curve, 1024)),
    ("msm4096", |curve| msm_ns(curve, 4096)),
    ("pairing", |curve| {
        let engine = PairingEngine::new(Arc::clone(curve));
        let (p, q) = (curve.g1_generator(), curve.g2_generator());
        bench_ns(|| {
            black_box(engine.pair(black_box(p), black_box(q)));
        })
    }),
    ("miller_loop", |curve| {
        let engine = PairingEngine::new(Arc::clone(curve));
        let (p, q) = (curve.g1_generator(), curve.g2_generator());
        bench_ns(|| {
            black_box(engine.miller_loop(black_box(p), black_box(q)));
        })
    }),
    ("final_exp", |curve| {
        let engine = PairingEngine::new(Arc::clone(curve));
        let f = engine.miller_loop(curve.g1_generator(), curve.g2_generator());
        bench_ns(|| {
            black_box(engine.final_exponentiation(black_box(&f)));
        })
    }),
    ("batch_verify_8", |curve| batch_verify_ns(curve, 8)),
    ("batch_verify_32", |curve| batch_verify_ns(curve, 32)),
    ("sequential_verify_8", |curve| sequential_ns(curve, 8)),
    ("sequential_verify_32", |curve| sequential_ns(curve, 32)),
    ("kzg_commit_256", |curve| {
        kzg_ns(curve, |kzg, poly| {
            bench_ns(|| {
                black_box(kzg.commit(black_box(poly)).expect("fixture poly fits SRS"));
            })
        })
    }),
    ("kzg_open_batch_8", |curve| {
        kzg_ns(curve, |kzg, poly| {
            let commitment = kzg.commit(poly).expect("fixture poly fits SRS");
            let zs = kzg_bench_points();
            bench_ns(|| {
                black_box(
                    kzg.open_batch(black_box(poly), black_box(&commitment), black_box(&zs))
                        .expect("fixture openings succeed"),
                );
            })
        })
    }),
    ("kzg_verify_batch_8", |curve| {
        kzg_ns(curve, |kzg, poly| {
            let commitment = kzg.commit(poly).expect("fixture poly fits SRS");
            let claims: Vec<finesse_poly::Claim> = kzg_bench_points()
                .iter()
                .map(|z| {
                    Ok(finesse_poly::Claim::Single {
                        commitment: commitment.clone(),
                        opening: kzg.open(poly, z)?,
                    })
                })
                .collect::<Result<_, finesse_poly::PolyError>>()
                .expect("fixture openings succeed");
            // First settle warms the prepared-G2 cache (G2 generator and
            // [tau]G2 line schedules); the gate times the steady-state
            // serving path of two cached Miller loops per batch.
            kzg.verify_batch(&claims).expect("honest batch verifies");
            bench_ns(|| {
                black_box(kzg.verify_batch(black_box(&claims)).is_ok());
            })
        })
    }),
    ("decode_g2", |curve| {
        // Compressed non-generator keys, one more than the decode cache
        // holds, taken in rotation: in LRU order every lookup misses, so
        // each decode pays the F_q square root and the subgroup check, as
        // a key seen for the first time on the wire does.
        let (_, capacity) = curve.g2_decode_cache_stats();
        let keys = g2_wire_keys(curve, capacity + 1);
        for bytes in &keys {
            curve.decode_g2(bytes).expect("honest encoding");
        }
        assert_eq!(
            curve.g2_decode_cache_stats(),
            (capacity, capacity),
            "the rotation fills the decode cache"
        );
        let mut next = keys.iter().cycle();
        bench_ns(|| {
            let bytes = next.next().expect("a cycle never ends");
            black_box(curve.decode_g2(black_box(bytes)).expect("honest encoding"));
        })
    }),
    ("decode_g2_hit", |curve| {
        // One warm key: the decode cache returns the point it remembered.
        let bytes = g2_wire_keys(curve, 1).remove(0);
        curve.decode_g2(&bytes).expect("honest encoding");
        bench_ns(|| {
            black_box(curve.decode_g2(black_box(&bytes)).expect("honest encoding"));
        })
    }),
    ("evaluate_point", |curve| {
        // The single-issue Figure 10 point without a write-back FIFO,
        // so the scheduler and simulator pay for write-back ports.
        let point = figure10_points(curve)
            .into_iter()
            .find(|p| p.label == "All karat. @ L38/S8 single-issue")
            .expect("Figure 10 has the paper-latency single-issue point");
        bench_ns(|| {
            black_box(evaluate_point(curve, black_box(&point), 1).expect("point compiles"));
        })
    }),
    ("multi_pair_prepared_30", multi_pair_prepared_30_ns),
    ("multi_pair_prepared_30_t2", |curve| {
        with_threads(2, || multi_pair_prepared_30_ns(curve))
    }),
    ("settle_isolating_32", settle_isolating_32_ns),
    ("settle_isolating_32_t2", |curve| {
        with_threads(2, || settle_isolating_32_ns(curve))
    }),
];

/// Re-measures one metric of [`METRICS`] on a curve (callers pass table
/// names or validated manifest rows).
fn measure_metric(metric: &str, curve: &Arc<Curve>) -> f64 {
    match METRICS.iter().find(|(name, _)| *name == metric) {
        Some((_, measure)) => measure(curve),
        None => unreachable!("unvalidated metric `{metric}`"),
    }
}

fn is_metric(name: &str) -> bool {
    METRICS.iter().any(|(metric, _)| *metric == name)
}

/// Median ns of one `n`-point G1 MSM over distinct points and
/// full-width scalars — the batch-verification workload shape (aggregate
/// BLS, KZG openings). 256 points take the batch-affine Pippenger path,
/// 1024 and 4096 its thread-sharded bucket pass.
fn msm_ns(curve: &Arc<Curve>, n: u64) -> f64 {
    let points: Vec<_> = (0..n)
        .map(|i| curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(i * i + 3)))
        .collect();
    let scalars: Vec<_> = (0..n)
        .map(|i| {
            BigUint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                .modpow(&BigUint::from_u64(5), curve.r())
        })
        .collect();
    bench_ns(|| {
        black_box(
            curve
                .g1_msm(black_box(&points), black_box(&scalars))
                .expect("msm inputs are same-length"),
        );
    })
}

/// One BLS-shaped synthetic check `e(sig, G2) =? e(h, pk)`.
type BatchCheck = (Affine<Fp>, Affine<Fq>, Affine<Fp>, Affine<Fq>);

/// `n` synthetic signature checks across 4 distinct public keys — the
/// deferred-accumulator serving workload. Message "hashes" are scalar
/// multiples of the generator (hash-to-curve is not what the
/// batch-verify metrics time).
fn batch_checks(curve: &Arc<Curve>, n: u64) -> Vec<BatchCheck> {
    let g1 = curve.g1_generator();
    let g2 = curve.g2_generator();
    let sks: Vec<BigUint> = (0..4)
        .map(|j| BigUint::from_u64(0xA5A5_0013 + j * 97).modpow(&BigUint::from_u64(3), curve.r()))
        .collect();
    let pks: Vec<_> = sks.iter().map(|sk| curve.g2_mul(g2, sk)).collect();
    (0..n)
        .map(|i| {
            let j = (i % 4) as usize;
            let h = curve.g1_mul(g1, &BigUint::from_u64(i * i + 0x5EED));
            let sig = curve.g1_mul(&h, &sks[j]);
            (sig, g2.clone(), h, pks[j].clone())
        })
        .collect()
}

/// Median ns of one accumulator settle over `n` checks: prepared-G2
/// Miller loops, 128-bit RLC weights, short-scalar MSMs and one final
/// exponentiation.
fn batch_verify_ns(curve: &Arc<Curve>, n: u64) -> f64 {
    let engine = PairingEngine::new(Arc::clone(curve));
    let checks = batch_checks(curve, n);
    let settle = |checks: &[BatchCheck]| {
        let mut acc = finesse_pairing::PairingAccumulator::new(&engine);
        for (a, b, c, d) in checks {
            acc.push_check(a, b, c, d);
        }
        acc.settle()
    };
    // The first settle warms the prepared-G2 cache: the metric times the
    // steady-state serving path, where the generator's and the signers'
    // line schedules are already cached.
    assert!(settle(&checks), "synthetic batch verifies");
    bench_ns(|| {
        black_box(settle(black_box(&checks)));
    })
}

/// Median ns of one fault-isolating settle over the 32 [`batch_checks`]
/// with the signature of check 7 forged (moved to the adjacent group
/// element): the first pass, then the bisection down to the forged check.
fn settle_isolating_32_ns(curve: &Arc<Curve>) -> f64 {
    const FORGED: usize = 7;
    let engine = PairingEngine::new(Arc::clone(curve));
    let mut checks = batch_checks(curve, 32);
    checks[FORGED].0 = curve.g1_add(&checks[FORGED].0, curve.g1_generator());
    let settle = |checks: &[BatchCheck]| {
        let mut acc = finesse_pairing::PairingAccumulator::new(&engine);
        for (a, b, c, d) in checks {
            acc.push_check(a, b, c, d);
        }
        acc.settle_isolating()
    };
    // As in `batch_verify_ns`, the first settle warms the prepared-G2
    // cache.
    assert_eq!(settle(&checks), Err(vec![FORGED]), "one forged check");
    bench_ns(|| {
        black_box(settle(black_box(&checks)).is_err());
    })
}

/// Median ns of verifying the same `n` checks one by one, two full
/// pairings each: the baseline the accumulator is measured against.
fn sequential_ns(curve: &Arc<Curve>, n: u64) -> f64 {
    let engine = PairingEngine::new(Arc::clone(curve));
    let checks = batch_checks(curve, n);
    bench_ns(|| {
        for (sig, g2, h, pk) in &checks {
            black_box(
                engine.pair(black_box(sig), black_box(g2))
                    == engine.pair(black_box(h), black_box(pk)),
            );
        }
    })
}

/// Runs `time` on the deterministic KZG bench fixture: a degree-255 SRS
/// (riding the fixed-base comb) and a full 256-coefficient polynomial
/// whose coefficients are successive powers of the bench scalar — every
/// limb of every coefficient is live, so commit/open medians time the
/// real MSM and synthetic-division work, not sparse shortcuts.
fn kzg_ns(curve: &Arc<Curve>, time: impl FnOnce(&Kzg, &Polynomial) -> f64) -> f64 {
    let engine = PairingEngine::new(Arc::clone(curve));
    let srs = finesse_poly::Srs::generate(curve, 255, b"finesse-bench-kzg");
    let base = bench_scalar(curve);
    let mut coeffs = Vec::with_capacity(256);
    let mut c = BigUint::from_u64(1);
    for _ in 0..256 {
        coeffs.push(c.clone());
        c = (&c * &base).rem(curve.r());
    }
    let kzg = Kzg::new(&engine, &srs).expect("fixture SRS matches engine");
    time(&kzg, &Polynomial::new(coeffs, curve.r()))
}

/// The 8 opening points shared by the `kzg_open_batch_8` and
/// `kzg_verify_batch_8` metrics.
fn kzg_bench_points() -> Vec<BigUint> {
    (0..8u64)
        .map(|i| BigUint::from_u64(0x0BE2_0000 + i * 101))
        .collect()
}

/// Median ns of one `multi_pair_prepared` settle over 30 distinct G1
/// points paired with 30 distinct G2 points whose line schedules are
/// prepared up front, on the current thread budget.
fn multi_pair_prepared_30_ns(curve: &Arc<Curve>) -> f64 {
    let engine = PairingEngine::new(Arc::clone(curve));
    let pairs: Vec<_> = (0..30u64)
        .map(|i| {
            let p = curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(i * i + 0x5EED));
            let q = curve.g2_mul(curve.g2_generator(), &BigUint::from_u64(3 * i + 0xA11CE));
            (p, engine.prepare_g2(&q))
        })
        .collect();
    bench_ns(|| {
        black_box(engine.multi_pair_prepared(black_box(&pairs)));
    })
}

/// A full-width deterministic bench scalar in `[0, r)` (cubing mod r
/// fills the full width of every Table 2 group order).
fn bench_scalar(curve: &Arc<Curve>) -> BigUint {
    BigUint::from_hex("e4c91a3bf3a77d9f1a4b5c6d7e8f90123456789abcdef0fedcba98765432100f")
        .expect("literal parses")
        .modpow(&BigUint::from_u64(3), curve.r())
}

/// `n` distinct compressed G2 encodings, `[i·k]G2` for `i = 1..=n` and
/// the bench scalar `k`: non-generator keys, as on the wire.
fn g2_wire_keys(curve: &Arc<Curve>, n: usize) -> Vec<Vec<u8>> {
    let base = curve.g2_mul(curve.g2_generator(), &bench_scalar(curve));
    let mut q = base.clone();
    (0..n)
        .map(|_| {
            let bytes = curve.encode_g2(&q, finesse_curves::Compression::Compressed);
            q = curve.g2_add(&q, &base);
            bytes
        })
        .collect()
}

/// One row of the regression-gate manifest.
#[derive(Clone, Debug, PartialEq)]
struct Gate {
    metric: String,
    curve: String,
    baseline_ns: f64,
    budget_pct: f64,
}

/// The `regression_gates` rows of a bench emission, read with the cost
/// model's scanner. Every row must carry the four fields and name a
/// metric of [`METRICS`] and a Table-2 curve, so a bad manifest is
/// refused before any gate is timed; the error names the first bad row.
fn parse_gates(text: &str) -> Result<Vec<Gate>, String> {
    let rows = bench_rows(text, "regression_gates").unwrap_or_default();
    if rows.is_empty() {
        return Err("no `regression_gates` rows".into());
    }
    let mut gates = Vec::with_capacity(rows.len());
    for (i, row) in rows.into_iter().enumerate() {
        let gate = || -> Option<Gate> {
            Some(Gate {
                metric: str_field(row, "metric")?,
                curve: str_field(row, "curve")?,
                baseline_ns: num_field(row, "baseline_ns")?,
                budget_pct: num_field(row, "budget_pct")?,
            })
        };
        let problem = match gate() {
            None => "lacks metric, curve, baseline_ns or budget_pct".into(),
            Some(g) if !is_metric(&g.metric) => format!("names unknown metric `{}`", g.metric),
            Some(g) if spec_by_name(&g.curve).is_none() => {
                format!("names unknown curve `{}`", g.curve)
            }
            Some(g) => {
                gates.push(g);
                continue;
            }
        };
        return Err(format!("`regression_gates` row {}: {problem}", i + 1));
    }
    Ok(gates)
}

/// The gate manifest: the `regression_gates` rows of the committed
/// [`BENCH_JSON`] (the format this binary itself emits), the only
/// source of gates. Without well-formed, valid rows no gate can run or
/// be re-emitted, so the run stops with exit status 2, naming the file.
fn committed_gates() -> Vec<Gate> {
    fs::read_to_string(BENCH_JSON)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_gates(&text))
        .unwrap_or_else(|e| exit_usage(format!("{BENCH_JSON}: {e}")))
}

/// Runs one gate; returns `(measured_ns, delta_pct, pass)`.
fn run_gate(gate: &Gate) -> (f64, f64, bool) {
    let curve = Curve::by_name(&gate.curve);
    let measured = measure_metric(&gate.metric, &curve);
    let delta_pct = 100.0 * (measured - gate.baseline_ns) / gate.baseline_ns;
    (measured, delta_pct, delta_pct <= gate.budget_pct)
}

/// The gates a `--bench-regress` command line selects from the manifest:
/// `all`, or `[METRIC] CURVE [MAX_PCT]` — one gate (the metric defaults
/// to `fq_mul` and the curve to BLS24-509, keeping the historic CLI
/// shape working) with its budget overridden by `MAX_PCT`. The error
/// names an unknown curve, a gate the manifest lacks, or a `MAX_PCT`
/// that is not a finite number.
fn select_gates(rest: &[String], manifest: &[Gate]) -> Result<Vec<Gate>, String> {
    let mut rest = rest.iter().map(String::as_str).peekable();
    if rest.next_if_eq(&"all").is_some() {
        return Ok(manifest.to_vec());
    }
    let metric = rest.next_if(|a| is_metric(a)).unwrap_or("fq_mul");
    let curve = curve_arg(rest.next().unwrap_or("BLS24-509"))?;
    let mut gate = manifest
        .iter()
        .find(|g| g.metric == metric && g.curve == curve)
        .cloned()
        .ok_or_else(|| {
            format!(
                "no gate for ({metric}, {curve}) in the manifest; add a row to \
                 {BENCH_JSON} `regression_gates`"
            )
        })?;
    if let Some(pct) = rest.next() {
        gate.budget_pct = pct
            .parse()
            .ok()
            .filter(|p: &f64| p.is_finite())
            .ok_or_else(|| format!("max regression `{pct}` is not a number"))?;
    }
    Ok(vec![gate])
}

/// The Table-2 name of a curve given on the command line.
fn curve_arg(which: &str) -> Result<&'static str, String> {
    spec_by_name(which).map(|s| s.name).ok_or_else(|| {
        format!(
            "unknown curve `{which}`; expected one of {:?}",
            all_specs().map(|s| s.name)
        )
    })
}

/// `--bench-regress`, the manifest-driven CI gate: checks the arguments
/// and the whole manifest before anything is timed, then re-measures the
/// selected gates, prints one pass/fail row per gate, and returns 1 on
/// any breach.
fn bench_regress_cli(rest: &[String]) -> i32 {
    let gates = select_gates(rest, &committed_gates()).unwrap_or_else(|e| exit_usage(e));
    println!("regression gates from {BENCH_JSON}:");
    let mut t = TextTable::new(&[
        "metric",
        "curve",
        "baseline ns",
        "measured ns",
        "delta",
        "budget",
        "status",
    ]);
    let mut failures = 0;
    for gate in &gates {
        let (measured, delta_pct, pass) = run_gate(gate);
        if !pass {
            failures += 1;
        }
        t.row(vec![
            gate.metric.clone(),
            gate.curve.clone(),
            format!("{:.1}", gate.baseline_ns),
            format!("{measured:.1}"),
            format!("{delta_pct:+.1}%"),
            format!("+{:.0}%", gate.budget_pct),
            if pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    print!("{}", t.render());
    if failures > 0 {
        eprintln!("REGRESSION: {failures} gate(s) breached their budget");
        return 1;
    }
    println!("all {} gates passed", gates.len());
    0
}

/// The current git commit (short hash), or `unknown` outside a work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no clock crates).
fn iso_date_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// A `(field, metric, decimals)` column of an emitted row.
type Field = (&'static str, &'static str, usize);

/// The measured columns of a `curves[]` row, one per Table-2 curve.
const CURVE_FIELDS: [Field; 14] = [
    ("fp_mul_ns", "fp_mul", 1),
    ("fp_sqr_ns", "fp_sqr", 1),
    ("fq_mul_ns", "fq_mul", 1),
    ("g1_mul_ns", "g1_mul", 0),
    ("g1_mul_fixed_ns", "g1_mul_fixed", 0),
    ("g2_mul_ns", "g2_mul", 0),
    ("g2_mul_fixed_ns", "g2_mul_fixed", 0),
    ("msm64_g1_ns", "msm64", 0),
    ("msm256_g1_ns", "msm256", 0),
    ("msm1024_g1_ns", "msm1024", 0),
    ("msm4096_g1_ns", "msm4096", 0),
    ("pairing_ns", "pairing", 0),
    ("miller_loop_ns", "miller_loop", 0),
    ("final_exp_ns", "final_exp", 0),
];

/// The measured columns of a `kzg.rows[]` row.
const KZG_FIELDS: [Field; 3] = [
    ("commit_256_ns", "kzg_commit_256", 0),
    ("open_batch_8_ns", "kzg_open_batch_8", 0),
    ("verify_batch_8_ns", "kzg_verify_batch_8", 0),
];

/// A metric's median on a curve, as the emission reads it.
type Measurer<'a> = &'a mut dyn FnMut(&str, &Arc<Curve>) -> f64;

/// One emitted row: the curve's name, the `extra` fields, then `fields`
/// measured through `ns`.
fn measured_row(ns: Measurer, curve: &Arc<Curve>, extra: &str, fields: &[Field]) -> String {
    let mut row = format!("    {{\"curve\": \"{}\"{extra}", curve.name());
    for &(field, metric, decimals) in fields {
        let _ = write!(row, ", \"{field}\": {:.decimals$}", ns(metric, curve));
    }
    row + "}"
}

/// `--bench-json`: times every row of the emission through
/// [`measure_metric`], stamped with the emitting commit and date.
fn bench_fieldops_json(which: &str) -> String {
    let curves: Vec<&str> = if which == "all" {
        all_specs().map(|s| s.name).to_vec()
    } else {
        vec![curve_arg(which).unwrap_or_else(|e| exit_usage(format!("{e} or `all`")))]
    };
    // The emission carries the committed gate manifest unchanged; read
    // it before timing anything.
    let gates = committed_gates();
    render_emission(
        &curves,
        &gates,
        [&git_commit(), &iso_date_utc()],
        finesse_parallel::hardware_threads(),
        &mut measure_metric,
    )
}

/// The bench emission for `curves`, stamped `[commit, date]`, with every
/// number read from `ns` (or derived from numbers read from it) and the
/// thread axis of `parallel_scaling` ending at `hw_threads`.
fn render_emission(
    curves: &[&str],
    gates: &[Gate],
    [commit, date]: [&str; 2],
    hw_threads: usize,
    ns: Measurer,
) -> String {
    let mut rows = Vec::new();
    for &name in curves {
        let curve = Curve::by_name(name);
        let extra = format!(
            ", \"p_bits\": {}, \"limbs\": {}",
            curve.p().bits(),
            curve.fp().width()
        );
        rows.push(measured_row(ns, &curve, &extra, &CURVE_FIELDS));
    }
    // The headline curves, when selected, get three more blocks.
    let headline: Vec<Arc<Curve>> = ["BN254N", "BLS12-381"]
        .into_iter()
        .filter(|name| curves.contains(name))
        .map(Curve::by_name)
        .collect();

    // Deferred batch verification vs the sequential baseline: n
    // BLS-shaped checks against 4 signers.
    let mut batch_verify_rows = Vec::new();
    for curve in &headline {
        for n in [8u64, 32] {
            let batched = ns(&format!("batch_verify_{n}"), curve);
            let sequential = ns(&format!("sequential_verify_{n}"), curve);
            batch_verify_rows.push(format!(
                "    {{\"curve\": \"{}\", \"n\": {n}, \"signers\": 4, \
                 \"batched_ns\": {batched:.0}, \"sequential_ns\": {sequential:.0}, \
                 \"amortized_ns_per_check\": {:.0}, \"speedup\": {:.1}}}",
                curve.name(),
                batched / n as f64,
                sequential / batched,
            ));
        }
    }

    let kzg_rows: Vec<String> = headline
        .iter()
        .map(|curve| measured_row(ns, curve, "", &KZG_FIELDS))
        .collect();

    // Scaling with cores: msm4096 and the 30-pair prepared
    // multi-pairing re-timed with the thread budget pinned to 1, 2, 4
    // and the hardware count. On a single-core runner every row
    // degenerates to the serial path — the emitted `hardware_threads`
    // makes that visible instead of implying a failed speedup.
    let mut threads_axis = vec![1usize, 2, 4];
    if !threads_axis.contains(&hw_threads) {
        threads_axis.push(hw_threads);
    }
    let mut scaling_rows = Vec::new();
    for curve in &headline {
        for metric in ["msm4096", "multi_pair_prepared_30"] {
            for &t in &threads_axis {
                let median = with_threads(t, || ns(metric, curve));
                scaling_rows.push(format!(
                    "    {{\"curve\": \"{}\", \"metric\": \"{metric}\", \
                     \"threads\": {t}, \"ns\": {median:.0}}}",
                    curve.name()
                ));
            }
        }
    }

    let gates: Vec<String> = gates
        .iter()
        .map(|g| {
            format!(
                "    {{\"metric\": \"{}\", \"curve\": \"{}\", \"baseline_ns\": {:.1}, \"budget_pct\": {:.0}}}",
                g.metric, g.curve, g.baseline_ns, g.budget_pct
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"finesse-bench-fieldops/v6\",\n  \"harness\": \"median of 5 batches, ns per op\",\n  \"commit\": \"{commit}\",\n  \"date\": \"{date}\",\n\
         \n  \"cost_model\": {{\n    \"consumer\": \"finesse_ir::cost::CostModel::from_bench_json\",\n    \"provenance\": \"measured medians; dse/experiments price the software column of table2/fig2 from the pairing_ns rows\",\n    \"consumed_fields\": [\"pairing_ns\"]\n  }},\n\
         \n  \"regression_gates\": [\n{}\n  ],\n\
         \n  \"curves\": [\n{}\n  ],\n\
         \n  \"batch_verify\": {{\n    \"note\": \"n BLS-shaped checks e(sig,G2)=?e(h,pk) against 4 signers: one PairingAccumulator settle (prepared-G2 Miller loops, 128-bit RLC weights, short-scalar MSMs, one final exponentiation) vs n sequential 2-pairing verifications\",\n    \"rows\": [\n{}\n    ]\n  }},\n\
         \n  \"kzg\": {{\n    \"note\": \"finesse-poly serving path: commit = [p(tau)]G1 over a 256-coefficient polynomial (msm256 on the SRS powers); open_batch = one BDFG20 proof pair for 8 points; verify_batch = 8 single-opening claims settled in two cached Miller loops (fixed-G2 form, warm prepared cache)\",\n    \"rows\": [\n{}\n    ]\n  }},\n\
         \n  \"parallel_scaling\": {{\n    \"note\": \"msm4096 and multi_pair_prepared_30 (30 warm prepared pairs, one final exponentiation) re-timed with the FINESSE_THREADS budget pinned per row; hardware_threads is the emitting machine's available parallelism — rows at or above it cannot speed up further\",\n    \"hardware_threads\": {hw_threads},\n    \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        gates.join(",\n"),
        rows.join(",\n"),
        batch_verify_rows.join(",\n"),
        kzg_rows.join(",\n"),
        scaling_rows.join(",\n"),
    )
}

/// Table 2: curve parameters and security levels, extended with the
/// co-design headline — the software pairing baseline priced by the
/// shared [`CostModel`] against the simulated paper-default accelerator.
fn table2() -> String {
    let model = sw_cost_model();
    let hw = HwModel::paper_default();
    let mut t = TextTable::new(&[
        "curve",
        "log|t|",
        "log p",
        "log r",
        "k",
        "k·log p",
        "sec (model)",
        "sec (paper)",
        "SW pairing",
        "HW pairing",
        "speedup",
    ]);
    for name in all_specs().map(|s| s.name) {
        let c = Curve::by_name(name);
        let klogp = (c.k() * c.p().bits()) as f64;
        let sec = security_bits(c.family(), klogp);
        let point = DesignPoint {
            label: name.into(),
            variants: default_variants(&c),
            hw: hw.clone(),
        };
        let (sw, hw_col, speedup) = match evaluate_point(&c, &point, 1)
            .and_then(|e| compare_with_software(name, &e, &model))
        {
            Ok(cmp) => (
                format!("{} ms", f(cmp.sw_pairing_ns / 1e6, 2)),
                format!("{} us", f(cmp.hw_pairing_ns / 1e3, 1)),
                format!("x{}", f(cmp.speedup, 1)),
            ),
            Err(e) => (format!("failed: {e}"), "-".into(), "-".into()),
        };
        t.row(vec![
            name.into(),
            c.t().magnitude().bits().to_string(),
            c.p().bits().to_string(),
            c.r().bits().to_string(),
            c.k().to_string(),
            format!("{}", klogp as u64),
            f(sec, 1),
            c.table2_security().to_string(),
            sw,
            hw_col,
            speedup,
        ]);
    }
    format!(
        "{}SW pairing: software baseline from the shared CostModel ({}).\n\
         HW pairing: cycle-accurate simulation, paper-default hardware, 1 core.\n",
        t.render(),
        model.describe()
    )
}

/// Cost of one op at one level under one variant config, in F_p
/// operations.
fn op_cost(curve: &Arc<Curve>, level: u8, sqr: bool, cfg: &VariantConfig) -> (usize, usize) {
    let shape = tower_shape(curve);
    let mut hir = HirProgram::new();
    let a = hir.declare_input("a", level);
    let b = hir.declare_input("b", level);
    let r = if sqr {
        let s = hir.push(HirOp::Add(a, b), level); // consume both inputs
        hir.push(HirOp::Sqr(s), level)
    } else {
        hir.push(HirOp::Mul(a, b), level)
    };
    hir.outputs.push(r);
    let fp: FpProgram = lower(&hir, &shape, cfg).expect("lowering");
    let st = fp.stats();
    let extra_linear = if sqr { level as usize } else { 0 }; // the Add consumed
    (st.mul + st.sqr, st.linear - extra_linear)
}

/// Table 3: operation decomposition costs per variant.
fn table3() -> String {
    let mut out = String::new();
    for (name, levels) in [
        ("BLS12-381", vec![2u8, 6, 12]),
        ("BLS24-509", vec![2, 4, 12, 24]),
    ] {
        let curve = Curve::by_name(name);
        let shape = tower_shape(&curve);
        let mut t = TextTable::new(&["op", "variant", "F_p mul", "F_p linear"]);
        for &d in &levels {
            for (tag, cfg) in [
                ("karatsuba", VariantConfig::all_karatsuba(&shape)),
                ("schoolbook", VariantConfig::all_schoolbook(&shape)),
            ] {
                let (m, l) = op_cost(&curve, d, false, &cfg);
                t.row(vec![
                    format!("M{d}"),
                    tag.into(),
                    m.to_string(),
                    l.to_string(),
                ]);
            }
            for (tag, cfg) in [
                ("cheap-sqr", VariantConfig::all_karatsuba(&shape)),
                ("schoolbook", VariantConfig::all_schoolbook(&shape)),
            ] {
                let (m, l) = op_cost(&curve, d, true, &cfg);
                t.row(vec![
                    format!("S{d}"),
                    tag.into(),
                    m.to_string(),
                    l.to_string(),
                ]);
            }
        }
        out.push_str(&format!("tower {name}:\n{}\n", t.render()));
    }
    out
}

/// Table 6: comparison against FlexiPair (FPGA) and Ikeda (ASIC).
fn table6() -> String {
    let curve = Curve::by_name("BN254N");
    let hw = HwModel::paper_default();
    // One program: the 1-core and 8-core designs run the same image.
    let compiled = compile_pairing(
        &curve,
        &default_variants(&curve),
        &hw,
        &CompileOptions::default(),
    )
    .unwrap();
    let e1 = evaluate_compiled(&curve, &compiled, 1).expect("evaluate");
    let e8 = evaluate_compiled(&curve, &compiled, 8).expect("evaluate");
    let fpga = fpga_utilization(
        &hw,
        &AreaInputs {
            field_bits: curve.p().bits() as u32,
            imem_bytes: compiled.image.imem_bytes(),
            live_registers: compiled.regs.peak_live as usize,
            cores: 1,
        },
    );
    let fpga_cycles = e1.cycles;
    let fpga_latency_ms = fpga_cycles as f64 / fpga.frequency_mhz / 1000.0;
    let fpga_tp = 1000.0 / fpga_latency_ms;

    let ours65 = scale(
        &NodeMetrics {
            frequency_mhz: e8.frequency_mhz,
            area_mm2: e8.area.total(),
            latency_us: e8.latency_us,
            throughput_ops: e8.throughput_ops,
        },
        TechNode::N40,
        TechNode::N65,
    );

    let mut t = TextTable::new(&[
        "work",
        "platform",
        "freq",
        "#cycle",
        "latency",
        "util/area",
        "throughput",
        "tp/area",
    ]);
    t.row(vec![
        FLEXIPAIR.name.into(),
        "FPGA Virtex-7".into(),
        format!("{} MHz", FLEXIPAIR.frequency_mhz),
        kfmt(FLEXIPAIR.cycles as usize),
        format!("{:.2} ms", FLEXIPAIR.latency_ms),
        format!("{} slices", FLEXIPAIR.slices),
        format!("{:.1} ops", FLEXIPAIR.throughput_ops()),
        format!("{:.3} ops/slice", FLEXIPAIR.ops_per_slice()),
    ]);
    t.row(vec![
        "Ours (1-core)".into(),
        "FPGA Virtex-7".into(),
        format!("{:.1} MHz", fpga.frequency_mhz),
        kfmt(fpga_cycles as usize),
        format!("{:.3} ms", fpga_latency_ms),
        format!("{} slices", fpga.slices),
        format!("{:.0} ops", fpga_tp),
        format!("{:.3} ops/slice", fpga_tp / fpga.slices as f64),
    ]);
    t.row(vec![
        IKEDA_ASSCC19.name.into(),
        IKEDA_ASSCC19.node.into(),
        format!("{} MHz", IKEDA_ASSCC19.frequency_mhz),
        kfmt(IKEDA_ASSCC19.cycles as usize),
        format!("{:.1} us", IKEDA_ASSCC19.latency_us),
        format!("{:.1} mm2", IKEDA_ASSCC19.area_mm2),
        format!("{:.1} kops", IKEDA_ASSCC19.throughput_ops() / 1000.0),
        format!("{:.2} kops/mm2", IKEDA_ASSCC19.kops_per_mm2()),
    ]);
    for (label, e) in [("Ours (1-core)", &e1), ("Ours (8-core)", &e8)] {
        t.row(vec![
            label.into(),
            "ASIC 40nm LP".into(),
            format!("{:.0} MHz", e.frequency_mhz),
            kfmt(e.cycles as usize),
            format!("{:.1} us", e.latency_us),
            format!("{:.2} mm2", e.area.total()),
            format!("{:.1} kops", e.throughput_ops / 1000.0),
            format!("{:.2} kops/mm2", e.throughput_ops / 1000.0 / e.area.total()),
        ]);
    }
    t.row(vec![
        "Ours (8-core, 65nm equiv.)".into(),
        "ASIC 65nm".into(),
        format!("{:.0} MHz", ours65.frequency_mhz),
        kfmt(e8.cycles as usize),
        format!("{:.1} us", ours65.latency_us),
        format!("{:.2} mm2", ours65.area_mm2),
        format!("{:.1} kops", ours65.throughput_ops / 1000.0),
        format!("{:.2} kops/mm2", ours65.ops_per_mm2() / 1000.0),
    ]);

    let fpga_ratio_tp = fpga_tp / FLEXIPAIR.throughput_ops();
    let fpga_ratio_eff = (fpga_tp / fpga.slices as f64) / FLEXIPAIR.ops_per_slice();
    let asic_ratio_tp = ours65.throughput_ops / IKEDA_ASSCC19.throughput_ops();
    let asic_ratio_eff = (ours65.ops_per_mm2() / 1000.0) / IKEDA_ASSCC19.kops_per_mm2();
    format!(
        "{}\nheadline ratios: FPGA throughput x{:.1} (paper 34x), slice efficiency x{:.1} (paper 6.2x)\n\
         ASIC (65nm equiv.) throughput x{:.1} (paper 3x), area efficiency x{:.1} (paper 3.2x)\n",
        t.render(),
        fpga_ratio_tp,
        fpga_ratio_eff,
        asic_ratio_tp,
        asic_ratio_eff
    )
}

/// Table 7: compilation strategies — instruction reduction and IPC.
fn table7() -> String {
    let mut t = TextTable::new(&[
        "curve",
        "instr init→opt",
        "reduction",
        "IPC init",
        "IPC opt HW1",
        "IPC opt HW2",
        "compile",
    ]);
    for name in all_specs().map(|s| s.name) {
        let curve = Curve::by_name(name);
        let variants = default_variants(&curve);
        let hw1 = HwModel::paper_default();
        let hw2 = hw1.clone().with_fifo();

        let opt = compile_pairing(&curve, &variants, &hw1, &CompileOptions::default()).unwrap();
        let init = compile_pairing(&curve, &variants, &hw1, &CompileOptions::baseline()).unwrap();

        let insts_opt = opt.image.spec.decode(&opt.image.words).unwrap();
        let insts_init = init.image.spec.decode(&init.image.words).unwrap();
        let r_init = simulate(&insts_init, &hw1, None);
        let r_hw1 = simulate(&insts_opt, &hw1, None);
        let r_hw2 = simulate(&insts_opt, &hw2, None);

        let before = init.instruction_count();
        let after = opt.instruction_count();
        t.row(vec![
            name.into(),
            format!("{}→{}", kfmt(before), kfmt(after)),
            format!("-{:.1}%", 100.0 * (before - after) as f64 / before as f64),
            f(r_init.ipc(), 2),
            f(r_hw1.ipc(), 2),
            f(r_hw2.ipc(), 2),
            format!("{:.1}s", opt.compile_time.as_secs_f64()),
        ]);
    }
    format!(
        "{}(paper: reductions -8.5%..-16.4%, IPC 0.19..0.22 → 0.87..0.97)\n",
        t.render()
    )
}

/// Figure 2: Karatsuba on/off per level, BLS24-509 on single issue,
/// with each point's simulated latency compared against the shared
/// [`CostModel`] software baseline.
fn fig2() -> String {
    let model = sw_cost_model();
    let sw_ns = model.pairing_ns("BLS24-509");
    let curve = Curve::by_name("BLS24-509");
    let shape = tower_shape(&curve);
    let hw = HwModel::paper_default();
    let mut configs: Vec<(String, VariantConfig)> =
        vec![("all karatsuba".into(), VariantConfig::all_karatsuba(&shape))];
    for d in shape.degrees() {
        configs.push((
            format!("karat. w/o p{d}"),
            VariantConfig::all_karatsuba(&shape).with_mul(d, finesse_ir::MulVariant::Schoolbook),
        ));
    }
    let points: Vec<DesignPoint> = configs
        .iter()
        .map(|(label, v)| DesignPoint {
            label: label.clone(),
            variants: v.clone(),
            hw: hw.clone(),
        })
        .collect();
    let results = explore(&curve, points, 1);
    // A failed design point must not abort the whole figure: failed rows
    // are reported in place and the normalisation baseline comes from the
    // first row that evaluated successfully (the column header names that
    // row, so the ratios stay honest even if "all karatsuba" failed).
    let Some((base_label, base)) = results
        .iter()
        .find_map(|(p, r)| r.as_ref().ok().map(|e| (p.label.clone(), e.cycles as f64)))
    else {
        let errs: Vec<String> = results
            .iter()
            .map(|(p, r)| {
                format!(
                    "{}: {}",
                    p.label,
                    r.as_ref().err().map(|e| e.to_string()).unwrap_or_default()
                )
            })
            .collect();
        return format!("fig2: every design point failed:\n{}\n", errs.join("\n"));
    };

    // "Optimal" from the exhaustive mul-variant sweep (like the named
    // rows, an all-failed sweep is reported instead of aborting).
    let sweep = explore(&curve, variant_sweep_points(&curve, &hw), 1);
    let best = best_point(&sweep, Objective::Cycles);

    let vs_sw = |latency_us: f64| -> String {
        sw_ns
            .map(|s| format!("x{}", f(s / (latency_us * 1e3), 1)))
            .unwrap_or_else(|| "-".into())
    };
    let norm_header = format!("norm. vs {base_label}");
    let mut t = TextTable::new(&["combination", "cycles", &norm_header, "HW latency", "vs SW"]);
    for (p, r) in &results {
        match r {
            Ok(e) => t.row(vec![
                p.label.clone(),
                e.cycles.to_string(),
                f(e.cycles as f64 / base, 3),
                format!("{} us", f(e.latency_us, 1)),
                vs_sw(e.latency_us),
            ]),
            Err(e) => t.row(vec![
                p.label.clone(),
                format!("failed: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        };
    }
    match best {
        Some((bp, be)) => t.row(vec![
            format!("optimal ({})", bp.variants.tag()),
            be.cycles.to_string(),
            f(be.cycles as f64 / base, 3),
            format!("{} us", f(be.latency_us, 1)),
            vs_sw(be.latency_us),
        ]),
        None => t.row(vec![
            "optimal".into(),
            "failed: every sweep point failed".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]),
    };
    let sw_line = match sw_ns {
        Some(s) => format!(
            "SW baseline: BLS24-509 pairing {} ms from the shared CostModel ({}).\n",
            f(s / 1e6, 2),
            model.describe()
        ),
        None => format!(
            "SW baseline: BLS24-509 pairing unavailable in the CostModel ({}).\n",
            model.describe()
        ),
    };
    format!(
        "{}(paper: disabling Karatsuba at p2/p4 reduces cycles on single-issue; optimal < all-karatsuba)\n{sw_line}",
        t.render()
    )
}

/// Figure 6: area breakdown, 1-core vs 8-core.
fn fig6() -> String {
    let curve = Curve::by_name("BN254N");
    let hw = HwModel::paper_default();
    let compiled = compile_pairing(
        &curve,
        &default_variants(&curve),
        &hw,
        &CompileOptions::default(),
    )
    .unwrap();
    let mut out = String::new();
    for cores in [1u32, 8] {
        let b = area_breakdown(
            &hw,
            &AreaInputs {
                field_bits: curve.p().bits() as u32,
                imem_bytes: compiled.image.imem_bytes(),
                live_registers: compiled.regs.peak_live as usize,
                cores,
            },
        );
        out.push_str(&format!(
            "{cores}-core: total {:.2} mm2 | imem {:.2} ({:.0}%) dmem {:.2} ({:.0}%) alu {:.2} ({:.0}%), mmul {:.0}% of alu\n",
            b.total(),
            b.imem,
            100.0 * b.imem / b.total(),
            b.dmem,
            100.0 * b.dmem / b.total(),
            b.alu,
            100.0 * b.alu / b.total(),
            100.0 * b.mmul_share_of_alu(),
        ));
    }
    out.push_str("(paper: 1-core 1.77 mm2 with imem ~50%; 8-core 8.00 mm2 with imem ~11%, mmul 89% of ALU)\n");
    out
}

/// Figure 8: scalability across the seven curves.
fn fig8() -> String {
    let mut t = TextTable::new(&[
        "curve",
        "k·log p",
        "cycles",
        "delay us",
        "area mm2",
        "delay/sec",
        "area/klogp",
        "area/k2log2p",
        "sec bits",
    ]);
    for name in all_specs().map(|s| s.name) {
        let curve = Curve::by_name(name);
        let e = evaluate_point(
            &curve,
            &DesignPoint {
                label: name.into(),
                variants: default_variants(&curve),
                hw: HwModel::paper_default(),
            },
            1,
        )
        .unwrap();
        let klogp = (curve.k() * curve.p().bits()) as f64;
        let sec = security_bits(curve.family(), klogp);
        t.row(vec![
            name.into(),
            format!("{}", klogp as u64),
            e.cycles.to_string(),
            f(e.latency_us, 1),
            f(e.area.total(), 2),
            f(e.latency_us / sec, 3),
            f(e.area.total() * 1e6 / klogp, 0),
            f(e.area.total() * 1e12 / (klogp * klogp) / 1e6, 4),
            f(sec, 0),
        ]);
    }
    format!(
        "{}(paper: delay ~linear in k·log p; area slightly superlinear, far below quadratic; delay/security stable)\n",
        t.render()
    )
}

/// Figure 9: issue-queue occupancy before/after scheduling.
fn fig9() -> String {
    let mut out = String::new();
    let window = (10_000u64, 10_080u64);
    for name in all_specs().map(|s| s.name) {
        let curve = Curve::by_name(name);
        let variants = default_variants(&curve);
        let hw = HwModel::paper_default();
        let render = |opts: &CompileOptions, tag: &str, out: &mut String| {
            let c = compile_pairing(&curve, &variants, &hw, opts).unwrap();
            let insts = c.image.spec.decode(&c.image.words).unwrap();
            let r = simulate(&insts, &hw, Some(window));
            let tr = r.trace.unwrap();
            let line: String = tr
                .slots
                .iter()
                .map(|row| match row[0] {
                    finesse_sim::SlotKind::Long => 'M',
                    finesse_sim::SlotKind::Short => 'a',
                    finesse_sim::SlotKind::Inverse => 'I',
                    finesse_sim::SlotKind::Empty => '.',
                })
                .collect();
            out.push_str(&format!(
                "{name:>10} {tag}: {line}  (bubbles {:.0}%)\n",
                100.0 * tr.bubble_fraction()
            ));
        };
        render(&CompileOptions::baseline(), "before", &mut out);
        render(&CompileOptions::default(), "after ", &mut out);
    }
    out.push_str("(cycles 10000..10080; M = Long issue, a = Short issue, . = bubble — paper Fig. 9: bubbles vanish after scheduling)\n");
    out
}

/// Figure 10: DSE over variant combinations × pipeline configurations
/// (BLS24-509).
fn fig10() -> String {
    let curve = Curve::by_name("BLS24-509");
    let results = explore(&curve, figure10_points(&curve), 1);
    let mut t = TextTable::new(&["hw model", "variants", "cycles (x1e4)", "ipc"]);
    for (p, r) in &results {
        match r {
            Ok(e) => {
                t.row(vec![
                    p.hw.name.clone(),
                    p.label.split(" @ ").next().unwrap_or("?").into(),
                    f(e.cycles as f64 / 1e4, 1),
                    f(e.ipc, 2),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    p.hw.name.clone(),
                    p.label.clone(),
                    format!("failed: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    // Exhaustive "Optimal" on two representative models.
    let mut extra = String::new();
    for hw in [HwModel::single_issue(38, 8), HwModel::vliw(6, 8, 2)] {
        let sweep = explore(&curve, variant_sweep_points(&curve, &hw), 1);
        if let Some((bp, be)) = best_point(&sweep, Objective::Cycles) {
            extra.push_str(&format!(
                "optimal on {}: {} with {} cycles\n",
                hw.name,
                bp.variants.tag(),
                be.cycles
            ));
        }
    }
    format!(
        "{}{extra}(paper: manual ≈ optimal on single-issue; all-Karatsuba viable with ≥4 linear units)\n",
        t.render()
    )
}

/// Figure 11: co-design over the mmul pipeline-depth family (BN254N).
fn fig11() -> String {
    let curve = Curve::by_name("BN254N");
    let variants = default_variants(&curve);
    let depths: Vec<u32> = (14..=41).step_by(3).collect();
    let sweep = codesign_alu_sweep(&curve, &depths, &variants).unwrap();
    let mut t = TextTable::new(&["long cycles", "crit path ns", "IPC", "throughput kops"]);
    for p in &sweep {
        t.row(vec![
            p.depth.to_string(),
            f(p.critical_path_ns, 2),
            f(p.ipc, 3),
            f(p.throughput_kops, 1),
        ]);
    }
    let best = sweep
        .iter()
        .max_by(|a, b| a.throughput_kops.total_cmp(&b.throughput_kops))
        .unwrap();
    format!(
        "{}optimal depth: {} (paper: 38)\n(paper: IPC drops with depth; critical path saturates; interior optimum)\n",
        t.render(),
        best.depth
    )
}

/// Figure 12: quad-core chip summary.
fn fig12() -> String {
    let curve = Curve::by_name("BN254N");
    let hw = HwModel::paper_default();
    let e4 = evaluate_point(
        &curve,
        &DesignPoint {
            label: "4-core".into(),
            variants: default_variants(&curve),
            hw,
        },
        4,
    )
    .unwrap();
    format!(
        "quad-core {} summary:\n  technology    : 40nm LP @ 1.1V\n  area          : {:.3} mm2\n  gate count    : {:.1}k NAND2 equiv. (logic)\n  SRAM          : {:.0} KiB\n  frequency     : {:.0} MHz\n  pairing delay : {:.1} us\n  throughput    : {:.1} kops\n(paper: 7.992 mm2, 3558.9k gates, 272 KiB, 833 MHz, 76.3 us, 52.4 kops)\n",
        curve.name(),
        e4.area.total(),
        e4.area.logic_gate_count() / 1000.0,
        e4.area.sram_kib(),
        e4.frequency_mhz,
        e4.latency_us,
        e4.throughput_ops / 1000.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed emission: the manifest CI gates on and the medians
    /// the co-design exhibits price against.
    const COMMITTED: &str = include_str!("../../../../results/BENCH_fieldops.json");

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn committed_manifest_is_valid() {
        let gates = parse_gates(COMMITTED).expect("the committed manifest validates");
        assert_eq!(gates.len(), 20);
    }

    #[test]
    fn manifest_rows_are_read_whole_and_checked() {
        let manifest = |rows: &str| format!("{{\"regression_gates\": [\n{rows}\n]}}");
        let good =
            r#"{"metric": "fq_mul", "curve": "BN254N", "baseline_ns": 1.5, "budget_pct": 10}"#;
        // A nested array in the first row does not end the manifest.
        let nested = r#"{"metric": "msm256", "curve": "BLS12-381", "tags": ["x"], "baseline_ns": 2, "budget_pct": 30}"#;
        let gates = parse_gates(&manifest(&format!("{nested},\n{good}"))).unwrap();
        assert_eq!(gates.len(), 2);
        assert_eq!(
            gates[1],
            Gate {
                metric: "fq_mul".into(),
                curve: "BN254N".into(),
                baseline_ns: 1.5,
                budget_pct: 10.0,
            }
        );
        for (row, named) in [
            (
                r#"{"metric": "fq_mull", "curve": "BN254N", "baseline_ns": 1, "budget_pct": 10}"#,
                "unknown metric `fq_mull`",
            ),
            (
                r#"{"metric": "fq_mul", "curve": "BLS99", "baseline_ns": 1, "budget_pct": 10}"#,
                "unknown curve `BLS99`",
            ),
            (
                r#"{"metric": "fq_mul", "curve": "BN254N", "budget_pct": 10}"#,
                "lacks",
            ),
        ] {
            let err = parse_gates(&manifest(&format!("{good},\n{row}"))).unwrap_err();
            assert!(err.contains("row 2") && err.contains(named), "{err}");
        }
        assert!(parse_gates(&manifest("")).is_err());
        assert!(parse_gates("{}").is_err());
    }

    #[test]
    fn regress_arguments_select_gates_or_name_the_bad_one() {
        let manifest = parse_gates(COMMITTED).unwrap();
        assert_eq!(
            select_gates(&args(&["all"]), &manifest),
            Ok(manifest.clone())
        );
        // The historic default: fq_mul on BLS24-509 at its manifest budget.
        let default = select_gates(&[], &manifest).unwrap();
        assert_eq!(default.len(), 1);
        assert_eq!(
            (default[0].metric.as_str(), default[0].curve.as_str()),
            ("fq_mul", "BLS24-509")
        );
        let picked = select_gates(&args(&["msm256", "bls12-381", "12.5"]), &manifest).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(
            (picked[0].metric.as_str(), picked[0].curve.as_str()),
            ("msm256", "BLS12-381")
        );
        assert_eq!(picked[0].budget_pct, 12.5);
        for (words, named) in [
            (&["fq_mul", "BLS24-509", "abc"][..], "`abc` is not a number"),
            (&["fq_mul", "BLS24-509", "inf"], "`inf` is not a number"),
            (&["msm256", "BLS99"], "unknown curve `BLS99`"),
            (&["pairing", "BN254N"], "no gate for (pairing, BN254N)"),
        ] {
            let err = select_gates(&args(words), &manifest).unwrap_err();
            assert!(err.contains(named), "{err}");
        }
    }

    /// A fixed stand-in for a timing, distinct per metric, curve and
    /// thread budget. It panics on a name outside [`METRICS`], so the
    /// emission test also checks that the emitter asks only for table
    /// metrics.
    fn fixed_ns(metric: &str, curve: &Arc<Curve>) -> f64 {
        let index = METRICS
            .iter()
            .position(|(name, _)| *name == metric)
            .unwrap_or_else(|| panic!("`{metric}` is not in METRICS"));
        let threads = finesse_parallel::current_threads();
        (1_000_000 * (index + 1) + 1_000 * curve.p().bits() + threads) as f64
    }

    #[test]
    fn emission_reads_back_intact() {
        let gates = parse_gates(COMMITTED).unwrap();
        let curves = ["BN254N", "BLS12-381", "BLS24-509"];
        let stamp = ["0123456789ab", "2026-01-02"];
        let text = render_emission(&curves, &gates, stamp, 3, &mut fixed_ns);

        // The cost model prices from it, and the gate reader gets the
        // committed manifest back byte for byte.
        let model = CostModel::from_bench_json(&text).expect("the emission loads");
        assert_eq!(model.provenance().commit, stamp[0]);
        assert_eq!(model.provenance().date, stamp[1]);
        assert_eq!(parse_gates(&text), Ok(gates));
        let manifest_block = |t: &str| {
            let at = t.find("\"regression_gates\"").unwrap();
            t[at..at + t[at..].find("\n  ]").unwrap()].to_owned()
        };
        assert_eq!(manifest_block(&text), manifest_block(COMMITTED));

        let curve_rows = bench_rows(&text, "curves").unwrap();
        assert_eq!(curve_rows.len(), curves.len());
        for row in curve_rows {
            let curve = Curve::by_name(&str_field(row, "curve").unwrap());
            let pairing = model.pairing_ns(curve.name());
            assert_eq!(pairing, Some(fixed_ns("pairing", &curve)));
            assert_eq!(num_field(row, "p_bits"), Some(curve.p().bits() as f64));
            assert_eq!(num_field(row, "limbs"), Some(curve.fp().width() as f64));
            for (field, metric, _) in CURVE_FIELDS {
                let expected = fixed_ns(metric, &curve);
                assert_eq!(num_field(row, field), Some(expected), "{field}");
            }
        }

        // The headline blocks cover BN254N and BLS12-381 only.
        let block = |name: &str| {
            let at = text.find(&format!("\"{name}\":")).unwrap();
            (&text[at..], bench_rows(&text[at..], "rows").unwrap())
        };
        let (_, batch_rows) = block("batch_verify");
        assert_eq!(batch_rows.len(), 4);
        for row in batch_rows {
            let curve = Curve::by_name(&str_field(row, "curve").unwrap());
            let n = num_field(row, "n").unwrap();
            let batched = fixed_ns(&format!("batch_verify_{n}"), &curve);
            let sequential = fixed_ns(&format!("sequential_verify_{n}"), &curve);
            assert_eq!(num_field(row, "batched_ns"), Some(batched));
            assert_eq!(num_field(row, "sequential_ns"), Some(sequential));
            let amortized = num_field(row, "amortized_ns_per_check").unwrap();
            assert!((amortized - batched / n).abs() <= 0.5, "{row}");
            let speedup = num_field(row, "speedup").unwrap();
            assert!((speedup - sequential / batched).abs() <= 0.05, "{row}");
        }
        let (_, kzg_rows) = block("kzg");
        assert_eq!(kzg_rows.len(), 2);
        for row in kzg_rows {
            let curve = Curve::by_name(&str_field(row, "curve").unwrap());
            for (field, metric, _) in KZG_FIELDS {
                let expected = fixed_ns(metric, &curve);
                assert_eq!(num_field(row, field), Some(expected), "{field}");
            }
        }
        // Each thread-axis row is timed under its own budget; the axis
        // ends at the hardware count.
        let (scaling, scaling_rows) = block("parallel_scaling");
        assert_eq!(num_field(scaling, "hardware_threads"), Some(3.0));
        let mut axis = Vec::new();
        for row in scaling_rows {
            let curve = Curve::by_name(&str_field(row, "curve").unwrap());
            let metric = str_field(row, "metric").unwrap();
            let threads = num_field(row, "threads").unwrap();
            let expected = with_threads(threads as usize, || fixed_ns(&metric, &curve));
            assert_eq!(num_field(row, "ns"), Some(expected), "{row}");
            axis.push(threads);
        }
        assert_eq!(axis, [1.0, 2.0, 4.0, 3.0].repeat(4));
    }
}
