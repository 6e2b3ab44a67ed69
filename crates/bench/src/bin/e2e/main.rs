//! `e2e`: the end-to-end benchmark of the Finesse stack — wire bytes in,
//! verdict out, plus the paper's compile/simulate co-design loop.
//!
//! ```text
//! e2e --workload W [--seed N] [--seconds T] [--trace 0|1] [--out DIR]
//! e2e run     [--seed N]
//! e2e trace   [--seed N]
//! e2e compare DIR_A DIR_B
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, ending with one JSON line: the end-to-end metrics every
//! workload shares, or with `--trace 1` the per-layer metrics. `run`
//! runs every workload in its own process for [`SECONDS`] and writes
//! `results/e2e/<run>/<workload>.json`; `trace` also runs each traced
//! and reports the tracing overhead; `compare` judges two sets of runs
//! against the regression bounds. See README.md beside this file.

mod alloc;
mod bls;
mod codesign;
mod gen;
mod json;
mod kzg;
mod metrics;
mod stats;
mod trace;
mod workload;

use crate::json::{metric_value, num, quote, str_field};
use crate::metrics::END_TO_END;
use crate::stats::{judge, median, quartiles, worse_by, Verdict};
use crate::workload::{measure, Metric, Outcome, Plan, SETUPS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["bls_wire", "bls_registry", "kzg_wire", "codesign_fig10"];

/// Measured seconds per workload run: `run_seconds` in `BENCHMARK.json`
/// (a test keeps the two equal), and what `run` and `trace` use.
const SECONDS: f64 = 25.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("trace") => cmd_run(&args[1..], true),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_one(&args),
        _ => Err("usage: see the header of main.rs or README.md".to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}

/// `--name value` options, rejecting any name not in `known`.
fn options<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(opts: &[(&str, &str)], name: &str, default: T) -> Result<T, String> {
    match opts.iter().rev().find(|(n, _)| *n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
        None => Ok(default),
    }
}

fn run_workload(name: &str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    Ok(match name {
        "bls_wire" => measure(&bls::Bls::new(bls::Shape::wire(), seed)?, plan),
        "bls_registry" => measure(&bls::Bls::new(bls::Shape::registry(), seed)?, plan),
        "kzg_wire" => measure(&kzg::KzgWire::new(kzg::Shape::wire(), seed)?, plan),
        "codesign_fig10" => measure(&codesign::Codesign::new(codesign::Shape::fig10())?, plan),
        _ => return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}")),
    })
}

/// One workload in this process.
fn cmd_one(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let workload: String = get(&opts, "workload", String::new())?;
    let seed: u64 = get(&opts, "seed", 1)?;
    let seconds: f64 = get(&opts, "seconds", SECONDS)?;
    let traced = get::<u8>(&opts, "trace", 0)? == 1;
    let out_dir: Option<PathBuf> = opts
        .iter()
        .find(|(n, _)| *n == "out")
        .map(|(_, v)| PathBuf::from(v));
    let plan = Plan {
        seconds,
        setups: SETUPS,
        traced,
    };
    let out = run_workload(&workload, seed, &plan)?;

    let shown = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in shown {
        println!(
            "{workload:<15} {:<42} {:>16} {:<16} n={}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples
        );
    }
    if traced {
        for (name, ms) in out.self_ranking.iter().take(5) {
            println!("{workload:<15} self time {name:<32} {ms:>10.3} ms/req");
        }
    }
    for f in &out.failures {
        eprintln!("{workload}: FAILED {f}");
    }
    if let Some(dir) = out_dir {
        write_result(&dir, &workload, seed, seconds, traced, &out)?;
    }
    // The one-line result: the end-to-end metrics every workload shares,
    // or every per-layer metric.
    let line: Vec<String> = shown
        .iter()
        .filter(|m| traced || END_TO_END.iter().any(|e| e.common && e.name == m.name))
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        line.join(", ")
    );
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `git` output in the current directory, if it is a work tree.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn metrics_json(ms: &[Metric]) -> String {
    let rows: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit),
                m.samples
            )
        })
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

fn write_result(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let commit = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    let failures: Vec<String> = out.failures.iter().map(|f| quote(f)).collect();
    let ranking: Vec<String> = out
        .self_ranking
        .iter()
        .map(|(n, ms)| format!("{}: {}", quote(n), num(*ms)))
        .collect();
    let body = format!(
        "{{\n  \"workload\": {},\n  \"traced\": {traced},\n  \"stamp\": {{\"commit\": {}, \"dirty\": {dirty}, \"seed\": {seed}, \"nproc\": {}, \"threads\": {}, \"seconds\": {}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \"self_ms_per_req\": {{{}}}\n}}\n",
        quote(workload),
        quote(&commit),
        finesse_parallel::hardware_threads(),
        out.threads,
        num(seconds),
        out.correct(),
        out.attempted,
        out.failed,
        failures.join(", "),
        metrics_json(&out.end_to_end),
        metrics_json(&out.per_layer),
        ranking.join(", ")
    );
    let name = if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    };
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(dir.join(name), body)?;
    if traced {
        write(
            dir.join(format!("{workload}.trace.json")),
            trace::to_json(&out.spans),
        )?;
    }
    Ok(())
}

/// `run` and `trace`: every workload in its own process.
fn cmd_run(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let opts = options(args, &["seed"])?;
    let seed: u64 = get(&opts, "seed", 1)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let dir = PathBuf::from("results/e2e").join(format!("{stamp}-seed{seed}"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in WORKLOADS {
        for trace_flag in if traced { &["0", "1"][..] } else { &["0"][..] } {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &SECONDS.to_string(), "--trace", trace_flag])
                .arg("--out")
                .arg(&dir)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = text.lines().collect();
            // Everything but the trailing one-line JSON result.
            for l in lines.iter().take(lines.len().saturating_sub(1)) {
                println!("{l}");
            }
            ok &= out.status.success();
        }
        if traced {
            let rate = |file: &str| -> Option<f64> {
                metric_value(&std::fs::read_to_string(dir.join(file)).ok()?, "req_per_s")
            };
            if let (Some(plain), Some(spanned)) = (
                rate(&format!("{w}.json")),
                rate(&format!("{w}.traced.json")),
            ) {
                println!(
                    "{w:<15} {:<42} {:>16} %",
                    "trace.overhead_pct",
                    format!("{:.2}", 100.0 * (plain - spanned) / plain)
                );
            }
        }
    }
    println!("results in {}", dir.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A result file `write_result` wrote.
struct Run {
    workload: String,
    traced: bool,
    commit: String,
    text: String,
}

fn load_runs(dir: &Path, runs: &mut Vec<Run>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            load_runs(&path, runs)?;
        } else if name.ends_with(".json") && !name.ends_with(".trace.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let Some(workload) = str_field(&text, "workload") else {
                continue;
            };
            runs.push(Run {
                workload,
                traced: text.contains("\"traced\": true"),
                commit: str_field(&text, "commit").unwrap_or_else(|| "unknown".into()),
                text,
            });
        }
    }
    Ok(())
}

/// The end-to-end metric's value in each matching run. The end-to-end
/// block comes first in a result file, and no per-layer metric shares a
/// name with an end-to-end one.
fn values(runs: &[Run], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| metric_value(&r.text, metric))
        .collect()
}

/// `compare A B`: per workload and metric, each side's median and
/// quartiles and B's verdict against A under the metric's bound.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: e2e compare DIR_A DIR_B".into());
    };
    let mut sides = [Vec::new(), Vec::new()];
    for (dir, runs) in [a, b].iter().zip(&mut sides) {
        load_runs(Path::new(dir), runs)?;
        let mut commits: Vec<&str> = runs.iter().map(|r| r.commit.as_str()).collect();
        commits.sort_unstable();
        commits.dedup();
        println!("{dir}: {} result files, commits {commits:?}", runs.len());
    }
    let [ra, rb] = &sides;
    let fmt = |v: &[f64]| {
        let (q1, q2, q3) = quartiles(v);
        format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    };
    let mut worse = false;
    for w in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(ra, w, false, m.name), values(rb, w, false, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(m.better, m.bound, &va, &vb);
            worse |= verdict == Verdict::Worse;
            println!(
                "{w:<15} {:<17} {:<16} A {:<36} B {:<36} worse by {:>+7.2}%  bound {:>4.0}%  {}",
                m.name,
                m.unit,
                fmt(&va),
                fmt(&vb),
                100.0 * worse_by(m.better, median(&va), median(&vb)),
                100.0 * m.bound,
                verdict.name()
            );
        }
        for (side, runs) in [("A", ra), ("B", rb)] {
            let plain = values(runs, w, false, "req_per_s");
            let traced = values(runs, w, true, "req_per_s");
            if !plain.is_empty() && !traced.is_empty() {
                let (p, t) = (median(&plain), median(&traced));
                println!(
                    "{w:<15} trace.overhead_pct {side}: {:.2} %",
                    100.0 * (p - t) / p
                );
            }
        }
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{malformed_g1, Reject, Rng};
    use finesse_curves::{Compression, Curve};
    use finesse_ff::BigUint;

    const SMOKE: Plan = Plan {
        seconds: 0.0,
        setups: 1,
        traced: true,
    };

    fn bls_shape(registry: bool) -> bls::Shape {
        bls::Shape {
            curve: "BN254N",
            batch: 2,
            keys: if registry { 4 } else { 1 },
            registry,
            pool: 1,
            faulty_every: usize::from(registry),
            warmups: 0,
            threads: if registry { 2 } else { 1 },
        }
    }

    fn kzg_shape() -> kzg::Shape {
        kzg::Shape {
            curve: "BN254N",
            coeffs: 8,
            openings: 2,
            verify_pool: 1,
            prove_pool: 1,
            verifies_per_prove: 1,
            warmups: 0,
        }
    }

    fn assert_clean(name: &str, out: &Outcome, requests: u64) {
        assert_eq!(out.failures, Vec::<String>::new(), "{name}");
        assert_eq!(out.attempted, requests, "{name}");
        assert!(out.correct(), "{name}");
    }

    /// `secondary_p50_ms` is the median of `class`'s requests.
    fn assert_secondary(out: &Outcome, class_metric: &str) {
        let secondary = out.metric("secondary_p50_ms").unwrap();
        let class = out.metric(class_metric).unwrap();
        assert_eq!(
            (secondary.value, secondary.samples),
            (class.value, class.samples)
        );
    }

    /// One shrunken request per workload on BN254N, traced so the
    /// replays run too.
    #[test]
    fn smoke_every_workload_once() {
        let wire = measure(&bls::Bls::new(bls_shape(false), 1).unwrap(), &SMOKE);
        assert_clean("bls_wire", &wire, 1);
        assert_secondary(&wire, "verify_p50_ms");

        // Two checks: one tampered, one malformed (the first variant of
        // the rotation). The isolating settle must name the tampered one.
        let registry = measure(&bls::Bls::new(bls_shape(true), 1).unwrap(), &SMOKE);
        assert_clean("bls_registry", &registry, 1);
        assert_secondary(&registry, "isolate_p50_ms");
        assert_eq!(
            registry
                .metric("curves.decode_reject.Length")
                .unwrap()
                .value,
            1.0
        );
        assert_eq!(
            registry
                .metric("pairing.settle_isolating.ms_per_req")
                .unwrap()
                .samples,
            1
        );

        let kzg = measure(&kzg::KzgWire::new(kzg_shape(), 1).unwrap(), &SMOKE);
        assert_clean("kzg_wire", &kzg, 2);
        assert!(kzg.metric("verify_p50_ms").is_some());
        assert_secondary(&kzg, "prove_p50_ms");

        let shape = codesign::Shape {
            curve: "BN254N",
            points: 1,
            warmups: 0,
        };
        let design = measure(&codesign::Codesign::new(shape).unwrap(), &SMOKE);
        assert_clean("codesign_fig10", &design, 1);
        assert_secondary(&design, "evaluate_p50_ms");
        let cycles = design.metric("sim_cycles_total").unwrap().value;
        assert!(cycles > 0.0);
        assert_eq!(design.metric("sim.cycles").unwrap().value, cycles);
        assert!(design.metric("compiler.instructions").unwrap().value > 0.0);
    }

    #[test]
    fn malformed_encodings_get_their_decode_error() {
        for (name, has_subgroup_case) in [("BN254N", false), ("BLS12-381", true)] {
            let curve = Curve::by_name(name);
            let rotation = Reject::rotation(&curve);
            assert_eq!(
                rotation.contains(&Reject::NotInSubgroup),
                has_subgroup_case,
                "{name}"
            );
            let sig = curve.g1_mul(curve.g1_generator(), &BigUint::from_u64(0xfeed));
            let valid = curve.encode_g1(&sig, Compression::Compressed);
            let mut rng = Rng::new(3, "test");
            for kind in rotation {
                let bad = malformed_g1(&curve, kind, &valid, &mut rng);
                let got = curve.decode_g1(&bad).err();
                assert_eq!(
                    got.as_ref().and_then(Reject::of),
                    Some(kind),
                    "{name}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let bls = |seed| bls::Bls::new(bls_shape(true), seed).unwrap().wire_bytes();
        assert_eq!(bls(5), bls(5));
        assert_ne!(bls(5), bls(6));
        let kzg = |seed| kzg::KzgWire::new(kzg_shape(), seed).unwrap().wire_bytes();
        assert_eq!(kzg(5), kzg(5));
        assert_ne!(kzg(5), kzg(6));
        let stream = |seed, label| {
            let mut r = Rng::new(seed, label);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(stream(1, "a"), stream(1, "a"));
        assert_ne!(stream(1, "a"), stream(2, "a"));
        assert_ne!(stream(1, "a"), stream(1, "b"));
    }
}
