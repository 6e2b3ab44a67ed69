//! Regenerates every table and figure of the Finesse paper's evaluation.
//!
//! ```text
//! experiments [table2|table3|table6|table7|fig2|fig6|fig8|fig9|fig10|fig11|fig12|all]
//! experiments --codesign-report
//! experiments --bench-json [CURVE|all]
//! experiments --bench-regress all
//! experiments --bench-regress [METRIC] CURVE [MAX_PCT]
//! ```
//!
//! Output goes to stdout and to `results/<name>.txt`; the `--bench-json`
//! mode times the field-arithmetic substrate (fp_mul/fp_sqr/fq_mul), the
//! group layer (variable- and fixed-base g1_mul/g2_mul, MSM at 64, 256,
//! 1024, and 4096 points) and the full pairing per Table-2 curve, a
//! `batch_verify` block comparing deferred accumulator settles against
//! sequential 2-pairing verification on the headline curves, plus a
//! `parallel_scaling` block re-timing msm4096 and a 30-pair prepared
//! multi-pairing on the headline curves at 1/2/4/hardware thread budgets,
//! and writes machine-readable
//! `results/BENCH_fieldops.json` — stamped with the git commit and ISO
//! date, so the artifact trail CI uploads per PR is self-describing. The
//! emission carries the committed `regression_gates` manifest unchanged.
//!
//! `--bench-regress all` is the CI gate: it reads the per-metric
//! `regression_gates` manifest (`metric`, `curve`, `baseline_ns`,
//! `budget_pct`) from the *committed* `results/BENCH_fieldops.json`,
//! re-measures every row, prints a pass/fail table, and exits non-zero on
//! any breach — gating a new metric means committing one JSON row, not
//! editing workflow YAML. Without that file, or with no gate rows in it,
//! both modes exit 2.

use finesse_bench::{f, kfmt, TextTable};
use finesse_compiler::{compile_pairing, tower_shape, CompileOptions};
use finesse_curves::{all_specs, spec_by_name, Curve};
use finesse_dse::{
    best_point, codesign_alu_sweep, compare_with_software, evaluate_point, explore,
    figure10_points, variant_sweep_points, DesignPoint, Objective,
};
use finesse_hw::{
    area_breakdown, fpga_utilization, scale, security_bits, AreaInputs, HwModel, NodeMetrics,
    TechNode, FLEXIPAIR, IKEDA_ASSCC19,
};
use finesse_ir::{lower, CostModel, FpProgram, HirOp, HirProgram, VariantConfig};
use finesse_sim::simulate;
use std::fs;
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
        eprintln!("unknown experiment `{arg}`; use table2|table3|table6|table7|fig2|fig6|fig8|fig9|fig10|fig11|fig12|all, or --codesign-report");
        std::process::exit(2);
    }
    run_experiments(selected);
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
        eprintln!("cannot price the software baseline from {BENCH_JSON}: {e}");
        std::process::exit(2);
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

/// The metrics [`measure_metric`] knows how to re-run; every manifest
/// gate names one of these.
const METRICS: [&str; 13] = [
    "fq_mul",
    "g1_mul",
    "g1_mul_fixed",
    "msm256",
    "msm1024",
    "msm4096",
    "batch_verify_32",
    "kzg_commit_256",
    "kzg_open_batch_8",
    "kzg_verify_batch_8",
    "decode_g2",
    "evaluate_point",
    "multi_pair_prepared_30_t2",
];

/// One row of the regression-gate manifest.
#[derive(Clone, Debug)]
struct Gate {
    metric: String,
    curve: String,
    baseline_ns: f64,
    budget_pct: f64,
}

/// Extracts the string value of `"key": "…"` from a flat JSON object
/// body.
fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let after = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let start = after.find('"')? + 1;
    let end = start + after[start..].find('"')?;
    Some(after[start..end].to_owned())
}

/// Extracts the numeric value of `"key": …` from a flat JSON object body.
fn json_num_field(obj: &str, key: &str) -> Option<f64> {
    let after = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = after.find([',', '}', ']']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// The gate manifest: the `regression_gates` rows of the committed
/// [`BENCH_JSON`] (the format this binary itself emits), the only
/// source of gates. Without them no gate can run or be re-emitted, so
/// the run stops with exit status 2, naming the file.
fn committed_gates() -> Vec<Gate> {
    let text = fs::read_to_string(BENCH_JSON).unwrap_or_else(|e| {
        eprintln!("cannot read {BENCH_JSON}: {e}");
        std::process::exit(2);
    });
    let parse = || -> Option<Vec<Gate>> {
        let arr = &text[text.find("\"regression_gates\"")?..];
        let arr = &arr[arr.find('[')? + 1..];
        let arr = &arr[..arr.find(']')?];
        let mut gates = Vec::new();
        for obj in arr.split('{').skip(1) {
            let obj = &obj[..obj.find('}')?];
            gates.push(Gate {
                metric: json_str_field(obj, "metric")?,
                curve: json_str_field(obj, "curve")?,
                baseline_ns: json_num_field(obj, "baseline_ns")?,
                budget_pct: json_num_field(obj, "budget_pct")?,
            });
        }
        (!gates.is_empty()).then_some(gates)
    };
    parse().unwrap_or_else(|| {
        eprintln!("{BENCH_JSON} holds no well-formed `regression_gates` rows");
        std::process::exit(2);
    })
}

/// Distinct 256-point/full-width-scalar MSM inputs — the batch
/// verification workload shape (aggregate BLS, KZG openings).
fn msm_inputs(
    curve: &Arc<Curve>,
    n: u64,
) -> (
    Vec<finesse_curves::Affine<finesse_ff::Fp>>,
    Vec<finesse_ff::BigUint>,
) {
    let g1 = curve.g1_generator();
    let points = (0..n)
        .map(|i| curve.g1_mul(g1, &finesse_ff::BigUint::from_u64(i * i + 3)))
        .collect();
    let scalars = (0..n)
        .map(|i| {
            finesse_ff::BigUint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                .modpow(&finesse_ff::BigUint::from_u64(5), curve.r())
        })
        .collect();
    (points, scalars)
}

/// One BLS-shaped synthetic check `e(sig, G2) =? e(h, pk)`.
type BatchCheck = (
    finesse_curves::Affine<finesse_ff::Fp>,
    finesse_curves::Affine<finesse_ff::Fq>,
    finesse_curves::Affine<finesse_ff::Fp>,
    finesse_curves::Affine<finesse_ff::Fq>,
);

/// `n` synthetic signature checks across `signers` distinct public keys
/// — the deferred-accumulator serving workload. Message "hashes" are
/// scalar multiples of the generator (hash-to-curve is not what the
/// batch-verify metrics time).
fn batch_checks(curve: &Arc<Curve>, n: u64, signers: u64) -> Vec<BatchCheck> {
    use finesse_ff::BigUint;
    let g1 = curve.g1_generator();
    let g2 = curve.g2_generator();
    let sks: Vec<BigUint> = (0..signers)
        .map(|j| BigUint::from_u64(0xA5A5_0013 + j * 97).modpow(&BigUint::from_u64(3), curve.r()))
        .collect();
    let pks: Vec<_> = sks.iter().map(|sk| curve.g2_mul(g2, sk)).collect();
    (0..n)
        .map(|i| {
            let j = (i % signers) as usize;
            let h = curve.g1_mul(g1, &BigUint::from_u64(i * i + 0x5EED));
            let sig = curve.g1_mul(&h, &sks[j]);
            (sig, g2.clone(), h, pks[j].clone())
        })
        .collect()
}

/// Deterministic KZG bench fixture: a degree-255 SRS (riding the
/// fixed-base comb) and a full 256-coefficient polynomial whose
/// coefficients are successive powers of the bench scalar — every limb
/// of every coefficient is live, so commit/open medians time the real
/// MSM and synthetic-division work, not sparse shortcuts.
fn kzg_fixture(curve: &Arc<Curve>) -> (finesse_poly::Srs, finesse_poly::Polynomial) {
    let srs = finesse_poly::Srs::generate(curve, 255, b"finesse-bench-kzg");
    let base = bench_scalar(curve);
    let mut coeffs = Vec::with_capacity(256);
    let mut c = finesse_ff::BigUint::from_u64(1);
    for _ in 0..256 {
        coeffs.push(c.clone());
        c = (&c * &base).rem(curve.r());
    }
    let poly = finesse_poly::Polynomial::new(coeffs, curve.r());
    (srs, poly)
}

/// The 8 opening points shared by the `kzg_open_batch_8` and
/// `kzg_verify_batch_8` metrics.
fn kzg_bench_points() -> Vec<finesse_ff::BigUint> {
    (0..8u64)
        .map(|i| finesse_ff::BigUint::from_u64(0x0BE2_0000 + i * 101))
        .collect()
}

/// One G1 point with the line schedule of its G2 partner.
type PreparedPair = (
    finesse_curves::Affine<finesse_ff::Fp>,
    Arc<finesse_pairing::G2Prepared>,
);

/// `n` distinct G1 points paired with `n` distinct G2 points prepared
/// once up front — the input of one `multi_pair_prepared` settle whose
/// line schedules are all already in hand.
fn prepared_pairs(engine: &finesse_pairing::PairingEngine, n: u64) -> Vec<PreparedPair> {
    use finesse_ff::BigUint;
    let curve = engine.curve();
    (0..n)
        .map(|i| {
            let p = curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(i * i + 0x5EED));
            let q = curve.g2_mul(curve.g2_generator(), &BigUint::from_u64(3 * i + 0xA11CE));
            (p, engine.prepare_g2(&q))
        })
        .collect()
}

/// Median ns of one `multi_pair_prepared` over `pairs` on `threads`
/// threads.
fn multi_pair_prepared_ns(
    engine: &finesse_pairing::PairingEngine,
    pairs: &[PreparedPair],
    threads: usize,
) -> f64 {
    use std::hint::black_box;
    finesse_parallel::with_threads(threads, || {
        bench_ns(|| {
            black_box(engine.multi_pair_prepared(black_box(pairs)));
        })
    })
}

/// Settles one accumulator batch over `checks`; returns the verdict.
fn settle_batch(engine: &finesse_pairing::PairingEngine, checks: &[BatchCheck]) -> bool {
    let mut acc = finesse_pairing::PairingAccumulator::new(engine);
    for (a, b, c, d) in checks {
        acc.push_check(a, b, c, d);
    }
    acc.settle()
}

/// Re-measures one gateable metric's median on a curve. The `g1_mul`
/// metric uses a non-generator base so it times the variable-base
/// GLV/JSF path (the generator routes through the comb, which is what
/// `g1_mul_fixed` times).
fn measure_metric(metric: &str, curve: &Arc<Curve>) -> f64 {
    use std::hint::black_box;
    match metric {
        "fq_mul" => {
            let tower = curve.tower().clone();
            let (qa, qb) = (tower.fq_sample(1), tower.fq_sample(2));
            bench_ns(|| {
                black_box(tower.fq_mul(black_box(&qa), black_box(&qb)));
            })
        }
        "g1_mul" => {
            let k = bench_scalar(curve);
            let base = curve.g1_mul(curve.g1_generator(), &finesse_ff::BigUint::from_u64(7));
            bench_ns(|| {
                black_box(curve.g1_mul(black_box(&base), black_box(&k)));
            })
        }
        "g1_mul_fixed" => {
            let k = bench_scalar(curve);
            let g1 = curve.g1_generator();
            // First call builds the lazy comb; the measurement then times
            // steady-state fixed-base multiplications.
            black_box(curve.g1_mul(g1, &k));
            bench_ns(|| {
                black_box(curve.g1_mul(black_box(g1), black_box(&k)));
            })
        }
        "msm256" | "msm1024" | "msm4096" => {
            let n: u64 = metric[3..].parse().expect("msmN metric names its size");
            let (points, scalars) = msm_inputs(curve, n);
            bench_ns(|| {
                black_box(
                    curve
                        .g1_msm(black_box(&points), black_box(&scalars))
                        .expect("msm inputs are same-length"),
                );
            })
        }
        "batch_verify_32" => {
            let engine = finesse_pairing::PairingEngine::new(Arc::clone(curve));
            let checks = batch_checks(curve, 32, 4);
            // First settle warms the prepared-G2 cache: the gate times
            // the steady-state serving path, where the generator's and
            // the signers' line schedules are already cached.
            assert!(settle_batch(&engine, &checks), "synthetic batch verifies");
            bench_ns(|| {
                black_box(settle_batch(&engine, black_box(&checks)));
            })
        }
        "kzg_commit_256" => {
            let engine = finesse_pairing::PairingEngine::new(Arc::clone(curve));
            let (srs, poly) = kzg_fixture(curve);
            let kzg = finesse_poly::Kzg::new(&engine, &srs).expect("fixture SRS matches engine");
            bench_ns(|| {
                black_box(kzg.commit(black_box(&poly)).expect("fixture poly fits SRS"));
            })
        }
        "kzg_open_batch_8" => {
            let engine = finesse_pairing::PairingEngine::new(Arc::clone(curve));
            let (srs, poly) = kzg_fixture(curve);
            let kzg = finesse_poly::Kzg::new(&engine, &srs).expect("fixture SRS matches engine");
            let commitment = kzg.commit(&poly).expect("fixture poly fits SRS");
            let zs = kzg_bench_points();
            bench_ns(|| {
                black_box(
                    kzg.open_batch(black_box(&poly), black_box(&commitment), black_box(&zs))
                        .expect("fixture openings succeed"),
                );
            })
        }
        "kzg_verify_batch_8" => {
            let engine = finesse_pairing::PairingEngine::new(Arc::clone(curve));
            let (srs, poly) = kzg_fixture(curve);
            let kzg = finesse_poly::Kzg::new(&engine, &srs).expect("fixture SRS matches engine");
            let commitment = kzg.commit(&poly).expect("fixture poly fits SRS");
            let claims: Vec<finesse_poly::Claim> = kzg_bench_points()
                .iter()
                .map(|z| {
                    Ok(finesse_poly::Claim::Single {
                        commitment: commitment.clone(),
                        opening: kzg.open(&poly, z)?,
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
        }
        "decode_g2" => {
            // A compressed non-generator key: the strict decode pays the
            // F_q square root and the subgroup check, as on the wire.
            let q = curve.g2_mul(curve.g2_generator(), &bench_scalar(curve));
            let bytes = curve.encode_g2(&q, finesse_curves::Compression::Compressed);
            bench_ns(|| {
                black_box(curve.decode_g2(black_box(&bytes)).expect("honest encoding"));
            })
        }
        "evaluate_point" => {
            // The single-issue Figure 10 point without a write-back FIFO,
            // so the scheduler and simulator pay for write-back ports.
            let point = figure10_points(curve)
                .into_iter()
                .find(|p| p.label == "All karat. @ L38/S8 single-issue")
                .expect("Figure 10 has the paper-latency single-issue point");
            bench_ns(|| {
                black_box(evaluate_point(curve, black_box(&point), 1).expect("point compiles"));
            })
        }
        "multi_pair_prepared_30_t2" => {
            let engine = finesse_pairing::PairingEngine::new(Arc::clone(curve));
            let pairs = prepared_pairs(&engine, 30);
            multi_pair_prepared_ns(&engine, &pairs, 2)
        }
        other => unreachable!("unvalidated metric `{other}`"),
    }
}

/// Runs one gate; returns `(measured_ns, delta_pct, pass)`.
fn run_gate(gate: &Gate) -> (f64, f64, bool) {
    let curve = Curve::by_name(&gate.curve);
    let measured = measure_metric(&gate.metric, &curve);
    let delta_pct = 100.0 * (measured - gate.baseline_ns) / gate.baseline_ns;
    (measured, delta_pct, delta_pct <= gate.budget_pct)
}

/// `--bench-regress all`: the manifest-driven CI gate. Prints one
/// pass/fail row per manifest entry and exits non-zero on any breach.
fn bench_regress_all() -> i32 {
    let gates = committed_gates();
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
        if !METRICS.contains(&gate.metric.as_str()) {
            eprintln!("unknown metric `{}` in gate manifest", gate.metric);
            return 2;
        }
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

/// `--bench-regress` CLI: `all` runs the whole manifest; the one-off form
/// `[METRIC] CURVE [MAX_PCT]` re-measures a single metric against its
/// manifest baseline (metric defaults to `fq_mul`, keeping the historic
/// CLI shape working; `MAX_PCT` overrides the manifest budget).
fn bench_regress_cli(rest: &[String]) -> i32 {
    if rest.first().map(String::as_str) == Some("all") {
        return bench_regress_all();
    }
    let mut rest = rest.to_vec();
    let metric = if rest.first().is_some_and(|a| METRICS.contains(&a.as_str())) {
        rest.remove(0)
    } else {
        "fq_mul".to_owned()
    };
    let which = rest.first().cloned().unwrap_or_else(|| "BLS24-509".into());
    let Some(name) = spec_by_name(&which).map(|s| s.name) else {
        eprintln!(
            "unknown curve `{which}`; expected one of {:?}",
            all_specs().map(|s| s.name)
        );
        return 2;
    };
    let manifest = committed_gates();
    let Some(gate) = manifest
        .iter()
        .find(|g| g.metric == metric && g.curve == name)
    else {
        eprintln!(
            "no gate for ({metric}, {name}) in the manifest; add a row to \
             results/BENCH_fieldops.json `regression_gates`"
        );
        return 2;
    };
    let mut gate = gate.clone();
    if let Some(pct) = rest.get(1) {
        gate.budget_pct = pct.parse().expect("max regression must be a number");
    }
    let (measured, delta_pct, pass) = run_gate(&gate);
    println!(
        "{metric} {name}: measured {measured:.1} ns vs committed baseline {:.1} ns \
         ({delta_pct:+.1}%, limit +{:.0}%)",
        gate.baseline_ns, gate.budget_pct
    );
    if !pass {
        eprintln!("REGRESSION: {metric} {name} is {delta_pct:.1}% slower than the baseline");
        return 1;
    }
    0
}

/// A full-width deterministic bench scalar in `[0, r)` (cubing mod r
/// fills the full width of every Table 2 group order).
fn bench_scalar(curve: &Arc<Curve>) -> finesse_ff::BigUint {
    finesse_ff::BigUint::from_hex(
        "e4c91a3bf3a77d9f1a4b5c6d7e8f90123456789abcdef0fedcba98765432100f",
    )
    .expect("literal parses")
    .modpow(&finesse_ff::BigUint::from_u64(3), curve.r())
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

/// `--bench-json`: field-substrate and group-layer microbenchmarks as
/// machine-readable JSON (one row per requested Table-2 curve), stamped
/// with the emitting commit and date.
fn bench_fieldops_json(which: &str) -> String {
    use finesse_pairing::PairingEngine;
    use std::hint::black_box;

    let selected: Vec<&str> = if which == "all" {
        all_specs().map(|s| s.name).to_vec()
    } else {
        vec![spec_by_name(which).map(|s| s.name).unwrap_or_else(|| {
            eprintln!(
                "unknown curve `{which}`; expected one of {:?} or `all`",
                all_specs().map(|s| s.name)
            );
            std::process::exit(2);
        })]
    };
    // The emission carries the committed gate manifest unchanged; read
    // it before timing anything.
    let gates = committed_gates();

    let mut rows = Vec::new();
    for name in selected {
        let curve = Curve::by_name(name);
        let fp = curve.fp();
        let tower = curve.tower().clone();
        let (a, b) = (fp.sample(1), fp.sample(2));
        let fp_mul = bench_ns(|| {
            black_box(black_box(&a) * black_box(&b));
        });
        let fp_sqr = bench_ns(|| {
            black_box(black_box(&a).square());
        });
        let (qa, qb) = (tower.fq_sample(1), tower.fq_sample(2));
        let fq_mul = bench_ns(|| {
            black_box(tower.fq_mul(black_box(&qa), black_box(&qb)));
        });
        let k = bench_scalar(&curve);
        let (g1, g2) = (curve.g1_generator(), curve.g2_generator());
        // Variable-base rows use non-generator bases (the GLV/GLS split
        // paths); the `_fixed` rows time the cached-generator comb.
        let h1 = curve.g1_mul(g1, &finesse_ff::BigUint::from_u64(7));
        let h2 = curve.g2_mul(g2, &finesse_ff::BigUint::from_u64(7));
        let g1_mul = bench_ns(|| {
            black_box(curve.g1_mul(black_box(&h1), black_box(&k)));
        });
        let g1_mul_fixed = bench_ns(|| {
            black_box(curve.g1_mul(black_box(g1), black_box(&k)));
        });
        let g2_mul = bench_ns(|| {
            black_box(curve.g2_mul(black_box(&h2), black_box(&k)));
        });
        let g2_mul_fixed = bench_ns(|| {
            black_box(curve.g2_mul(black_box(g2), black_box(&k)));
        });
        // 64- to 4096-point G1 MSMs over distinct points and full-width
        // scalars — the batch-verification workload (aggregate BLS, KZG
        // openings); 256 points exercise the batch-affine Pippenger path
        // and 1024/4096 the thread-sharded bucket pass.
        let msm_ns = |n: u64| {
            let (msm_points, msm_scalars) = msm_inputs(&curve, n);
            bench_ns(|| {
                black_box(
                    curve
                        .g1_msm(black_box(&msm_points), black_box(&msm_scalars))
                        .expect("msm inputs are same-length"),
                );
            })
        };
        let msm64 = msm_ns(64);
        let msm256 = msm_ns(256);
        let msm1024 = msm_ns(1024);
        let msm4096 = msm_ns(4096);
        let engine = PairingEngine::new(curve.clone());
        let pairing = bench_ns(|| {
            black_box(engine.pair(black_box(g1), black_box(g2)));
        });
        rows.push(format!(
            "    {{\"curve\": \"{name}\", \"p_bits\": {}, \"limbs\": {}, \
             \"fp_mul_ns\": {fp_mul:.1}, \"fp_sqr_ns\": {fp_sqr:.1}, \
             \"fq_mul_ns\": {fq_mul:.1}, \"g1_mul_ns\": {g1_mul:.0}, \
             \"g1_mul_fixed_ns\": {g1_mul_fixed:.0}, \
             \"g2_mul_ns\": {g2_mul:.0}, \"g2_mul_fixed_ns\": {g2_mul_fixed:.0}, \
             \"msm64_g1_ns\": {msm64:.0}, \"msm256_g1_ns\": {msm256:.0}, \
             \"msm1024_g1_ns\": {msm1024:.0}, \"msm4096_g1_ns\": {msm4096:.0}, \
             \"pairing_ns\": {pairing:.0}}}",
            curve.p().bits(),
            fp.width(),
        ));
    }

    // Scaling-vs-cores report on the headline curves: the same msm4096
    // and 30-pair prepared multi-pairing workloads re-timed with the
    // thread budget pinned to 1, 2, 4, and the hardware count. On a
    // single-core runner every row degenerates to the serial path — the
    // emitted `hardware_threads` makes that visible instead of implying a
    // failed speedup.
    let scaling_rows = {
        let threads_axis = {
            let hw = finesse_parallel::hardware_threads();
            let mut axis = vec![1usize, 2, 4];
            if !axis.contains(&hw) {
                axis.push(hw);
            }
            axis
        };
        let mut entries = Vec::new();
        for name in ["BN254N", "BLS12-381"] {
            if which != "all" && !name.eq_ignore_ascii_case(which) {
                continue;
            }
            let curve = Curve::by_name(name);
            let (points, scalars) = msm_inputs(&curve, 4096);
            for &t in &threads_axis {
                let ns = finesse_parallel::with_threads(t, || {
                    bench_ns(|| {
                        black_box(
                            curve
                                .g1_msm(black_box(&points), black_box(&scalars))
                                .expect("msm inputs are same-length"),
                        );
                    })
                });
                entries.push(format!(
                    "    {{\"curve\": \"{name}\", \"metric\": \"msm4096\", \
                     \"threads\": {t}, \"ns\": {ns:.0}}}"
                ));
            }
            let engine = PairingEngine::new(curve.clone());
            let pairs = prepared_pairs(&engine, 30);
            for &t in &threads_axis {
                let ns = multi_pair_prepared_ns(&engine, &pairs, t);
                entries.push(format!(
                    "    {{\"curve\": \"{name}\", \"metric\": \"multi_pair_prepared_30\", \
                     \"threads\": {t}, \"ns\": {ns:.0}}}"
                ));
            }
        }
        entries.join(",\n")
    };

    // Deferred batch verification vs the sequential baseline: n
    // BLS-shaped checks against 4 signers, settled with one accumulator
    // (5 prepared Miller loops + 1 final exponentiation + short-scalar
    // MSMs) vs n independent 2-pairing verifications.
    let batch_verify_rows = {
        let mut entries = Vec::new();
        for name in ["BN254N", "BLS12-381"] {
            if which != "all" && !name.eq_ignore_ascii_case(which) {
                continue;
            }
            let curve = Curve::by_name(name);
            let engine = PairingEngine::new(curve.clone());
            for n in [8u64, 32] {
                let checks = batch_checks(&curve, n, 4);
                assert!(settle_batch(&engine, &checks), "synthetic batch verifies");
                let batched = bench_ns(|| {
                    black_box(settle_batch(&engine, black_box(&checks)));
                });
                let sequential = bench_ns(|| {
                    for (sig, g2, h, pk) in &checks {
                        black_box(
                            engine.pair(black_box(sig), black_box(g2))
                                == engine.pair(black_box(h), black_box(pk)),
                        );
                    }
                });
                entries.push(format!(
                    "    {{\"curve\": \"{name}\", \"n\": {n}, \"signers\": 4, \
                     \"batched_ns\": {batched:.0}, \"sequential_ns\": {sequential:.0}, \
                     \"amortized_ns_per_check\": {:.0}, \"speedup\": {:.1}}}",
                    batched / n as f64,
                    sequential / batched,
                ));
            }
        }
        entries.join(",\n")
    };

    // KZG polynomial-commitment serving metrics on the headline curves:
    // commit to a full 256-coefficient polynomial, produce one batched
    // proof for 8 points, and settle 8 single-opening claims through the
    // accumulator (two prepared Miller loops + one final exponentiation).
    let kzg_rows = {
        let mut entries = Vec::new();
        for name in ["BN254N", "BLS12-381"] {
            if which != "all" && !name.eq_ignore_ascii_case(which) {
                continue;
            }
            let curve = Curve::by_name(name);
            let commit = measure_metric("kzg_commit_256", &curve);
            let open_batch = measure_metric("kzg_open_batch_8", &curve);
            let verify_batch = measure_metric("kzg_verify_batch_8", &curve);
            entries.push(format!(
                "    {{\"curve\": \"{name}\", \"commit_256_ns\": {commit:.0}, \
                 \"open_batch_8_ns\": {open_batch:.0}, \"verify_batch_8_ns\": {verify_batch:.0}}}"
            ));
        }
        entries.join(",\n")
    };

    let gates = gates
        .iter()
        .map(|g| {
            format!(
                "    {{\"metric\": \"{}\", \"curve\": \"{}\", \"baseline_ns\": {:.1}, \"budget_pct\": {:.0}}}",
                g.metric, g.curve, g.baseline_ns, g.budget_pct
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"schema\": \"finesse-bench-fieldops/v6\",\n  \"harness\": \"median of 5 batches, ns per op\",\n  \"commit\": \"{}\",\n  \"date\": \"{}\",\n\
         \n  \"cost_model\": {{\n    \"consumer\": \"finesse_ir::cost::CostModel::from_bench_json\",\n    \"provenance\": \"measured medians; dse/experiments price the software column of table2/fig2 from the pairing_ns rows\",\n    \"consumed_fields\": [\"pairing_ns\"]\n  }},\n\
         \n  \"regression_gates\": [\n{gates}\n  ],\n\
         \n  \"curves\": [\n{}\n  ],\n\
         \n  \"batch_verify\": {{\n    \"note\": \"n BLS-shaped checks e(sig,G2)=?e(h,pk) against 4 signers: one PairingAccumulator settle (prepared-G2 Miller loops, 128-bit RLC weights, short-scalar MSMs, one final exponentiation) vs n sequential 2-pairing verifications\",\n    \"rows\": [\n{batch_verify_rows}\n    ]\n  }},\n\
         \n  \"kzg\": {{\n    \"note\": \"finesse-poly serving path: commit = [p(tau)]G1 over a 256-coefficient polynomial (msm256 on the SRS powers); open_batch = one BDFG20 proof pair for 8 points; verify_batch = 8 single-opening claims settled in two cached Miller loops (fixed-G2 form, warm prepared cache)\",\n    \"rows\": [\n{kzg_rows}\n    ]\n  }},\n\
         \n  \"parallel_scaling\": {{\n    \"note\": \"msm4096 and multi_pair_prepared_30 (30 warm prepared pairs, one final exponentiation) re-timed with the FINESSE_THREADS budget pinned per row; hardware_threads is the emitting machine's available parallelism — rows at or above it cannot speed up further\",\n    \"hardware_threads\": {},\n    \"rows\": [\n{scaling_rows}\n    ]\n  }}\n}}\n",
        git_commit(),
        iso_date_utc(),
        rows.join(",\n"),
        finesse_parallel::hardware_threads(),
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
    let variants = default_variants(&curve);
    let hw = HwModel::paper_default();
    let e1 = evaluate_point(
        &curve,
        &DesignPoint {
            label: "1-core".into(),
            variants: variants.clone(),
            hw: hw.clone(),
        },
        1,
    )
    .expect("evaluate");
    let e8 = evaluate_point(
        &curve,
        &DesignPoint {
            label: "8-core".into(),
            variants,
            hw: hw.clone(),
        },
        8,
    )
    .expect("evaluate");

    let compiled = compile_pairing(
        &curve,
        &default_variants(&curve),
        &hw,
        &CompileOptions::default(),
    )
    .unwrap();
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
    for (label, e, cores) in [("Ours (1-core)", &e1, 1u32), ("Ours (8-core)", &e8, 8)] {
        let _ = cores;
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
