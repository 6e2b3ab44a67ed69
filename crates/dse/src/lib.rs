//! # finesse-dse
//!
//! Design-space exploration and the co-design feedback loop (paper §3.6,
//! Figures 10 and 11): each design point pairs an operator-variant
//! selection with a hardware model; evaluation compiles the pairing,
//! simulates it cycle-accurately, and reads area/timing feedback from the
//! analytical EDA models. Exploration is exhaustive over the requested
//! point set (parallelised over `finesse-parallel` scoped threads, the
//! workspace-wide thread pool idiom honouring `FINESSE_THREADS`),
//! matching the paper's "basic exploration strategy".

use finesse_compiler::{
    compile_pairing, tower_shape, CompileError, CompileOptions, CompiledPairing,
};
use finesse_curves::Curve;
use finesse_hw::{
    area_breakdown, critical_path_ns, frequency_mhz, latency_us, throughput_ops, AreaBreakdown,
    AreaInputs, HwModel,
};
use finesse_ir::{CostModel, VariantConfig};
use finesse_sim::{simulate, SimReport};
use std::fmt;
use std::sync::Arc;

/// Error from evaluating or exploring design points.
///
/// All nanosecond pricing lives in `finesse_hw`'s timing model (HW side)
/// and [`CostModel`] (SW side); this crate carries no per-kernel cost
/// constants of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The point failed to compile.
    Compile(CompileError),
    /// The software cost model does not price this curve.
    UnknownCurveCost {
        /// The curve whose row was missing.
        curve: String,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Compile(e) => write!(f, "{e}"),
            DseError::UnknownCurveCost { curve } => {
                write!(f, "cost model has no row for curve {curve:?}")
            }
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Compile(e) => Some(e),
            DseError::UnknownCurveCost { .. } => None,
        }
    }
}

impl From<CompileError> for DseError {
    fn from(e: CompileError) -> Self {
        DseError::Compile(e)
    }
}

/// One point in the co-design space.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Short label for experiment tables.
    pub label: String,
    /// Operator-variant selection.
    pub variants: VariantConfig,
    /// Hardware model.
    pub hw: HwModel,
}

/// Optimisation objective for ranking points (paper: "diverse and often
/// conflicting goals").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimise cycles (maximise per-core throughput at fixed frequency).
    Cycles,
    /// Maximise throughput in ops/s (frequency-aware).
    Throughput,
    /// Minimise die area.
    Area,
    /// Minimise the area×delay product.
    AreaDelay,
}

/// The evaluated metrics of a design point.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Executable instruction count.
    pub instructions: usize,
    /// Simulated cycles per pairing.
    pub cycles: u64,
    /// Achieved IPC.
    pub ipc: f64,
    /// Write-back conflicts observed.
    pub wb_conflicts: u64,
    /// Instruction image bytes.
    pub imem_bytes: usize,
    /// Peak live registers.
    pub peak_regs: u32,
    /// Area breakdown at 40nm LP.
    pub area: AreaBreakdown,
    /// Critical path in ns.
    pub critical_path_ns: f64,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Latency per pairing in µs.
    pub latency_us: f64,
    /// Throughput in ops/s (for the configured core count).
    pub throughput_ops: f64,
    /// Compile wall time in milliseconds.
    pub compile_ms: f64,
}

impl Evaluation {
    /// The scalar score under an objective (lower is better).
    pub fn score(&self, obj: Objective) -> f64 {
        match obj {
            Objective::Cycles => self.cycles as f64,
            Objective::Throughput => -self.throughput_ops,
            Objective::Area => self.area.total(),
            Objective::AreaDelay => self.area.total() * self.latency_us,
        }
    }
}

/// Evaluates one design point on a curve (`cores` parallel cores share
/// the instruction memory): compiles it, then [`evaluate_compiled`].
///
/// # Errors
///
/// Propagates compilation failures.
pub fn evaluate_point(
    curve: &Arc<Curve>,
    point: &DesignPoint,
    cores: u32,
) -> Result<Evaluation, DseError> {
    let compiled = compile_pairing(
        curve,
        &point.variants,
        &point.hw,
        &CompileOptions::default(),
    )?;
    evaluate_compiled(curve, &compiled, cores)
}

/// Evaluates a pairing program already compiled for `curve`: decodes its
/// image, simulates it cycle-accurately on the hardware it was compiled
/// for, and models area and timing for `cores` cores.
///
/// # Errors
///
/// Propagates image-decoding failures.
pub fn evaluate_compiled(
    curve: &Arc<Curve>,
    compiled: &CompiledPairing,
    cores: u32,
) -> Result<Evaluation, DseError> {
    let insts = compiled
        .image
        .spec
        .decode(&compiled.image.words)
        .map_err(CompileError::Codec)?;
    let report: SimReport = simulate(&insts, &compiled.hw, None);

    let bits = curve.p().bits() as u32;
    let inputs = AreaInputs {
        field_bits: bits,
        imem_bytes: compiled.image.imem_bytes(),
        live_registers: compiled.regs.peak_live as usize,
        cores,
    };
    let area = area_breakdown(&compiled.hw, &inputs);

    Ok(Evaluation {
        instructions: compiled.instruction_count(),
        cycles: report.cycles,
        ipc: report.ipc(),
        wb_conflicts: report.wb_conflicts,
        imem_bytes: compiled.image.imem_bytes(),
        peak_regs: compiled.regs.peak_live,
        area,
        critical_path_ns: critical_path_ns(compiled.hw.long_lat, bits),
        frequency_mhz: frequency_mhz(compiled.hw.long_lat, bits),
        latency_us: latency_us(report.cycles, compiled.hw.long_lat, bits),
        throughput_ops: throughput_ops(report.cycles, compiled.hw.long_lat, bits, cores),
        compile_ms: compiled.compile_time.as_secs_f64() * 1000.0,
    })
}

/// A simulated hardware point set against the software baseline from a
/// [`CostModel`] (the headline comparison of the paper's Table 2/Figure 2).
#[derive(Clone, Debug)]
pub struct SwComparison {
    /// Measured software pairing latency, ns.
    pub sw_pairing_ns: f64,
    /// Simulated hardware pairing latency, ns.
    pub hw_pairing_ns: f64,
    /// Software over hardware latency ratio.
    pub speedup: f64,
}

/// Prices an evaluated point against the software baseline for a curve.
///
/// # Errors
///
/// Returns [`DseError::UnknownCurveCost`] when `model` has no row for the
/// curve.
pub fn compare_with_software(
    curve_name: &str,
    eval: &Evaluation,
    model: &CostModel,
) -> Result<SwComparison, DseError> {
    let sw_pairing_ns = model
        .pairing_ns(curve_name)
        .ok_or_else(|| DseError::UnknownCurveCost {
            curve: curve_name.to_string(),
        })?;
    let hw_pairing_ns = eval.latency_us * 1000.0;
    Ok(SwComparison {
        sw_pairing_ns,
        hw_pairing_ns,
        speedup: sw_pairing_ns / hw_pairing_ns,
    })
}

/// Exhaustively evaluates a set of points in parallel, returning
/// `(point, evaluation)` pairs in input order (points that fail to
/// compile carry their typed [`DseError`]). Worker count follows
/// [`finesse_parallel::current_threads`] — i.e. the `FINESSE_THREADS`
/// environment knob, or a [`finesse_parallel::with_threads`] override.
pub fn explore(
    curve: &Arc<Curve>,
    points: Vec<DesignPoint>,
    cores: u32,
) -> Vec<(DesignPoint, Result<Evaluation, DseError>)> {
    finesse_parallel::par_map_chunks(&points, 1, |chunk| {
        chunk
            .iter()
            .map(|p| (p.clone(), evaluate_point(curve, p, cores)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Picks the best successful point under an objective.
pub fn best_point(
    results: &[(DesignPoint, Result<Evaluation, DseError>)],
    obj: Objective,
) -> Option<(&DesignPoint, &Evaluation)> {
    results
        .iter()
        .filter_map(|(p, r)| r.as_ref().ok().map(|e| (p, e)))
        .min_by(|a, b| a.1.score(obj).total_cmp(&b.1.score(obj)))
}

/// The standard Figure 10 point set for a curve: Manual / All-schoolbook
/// / All-Karatsuba variant selections across representative pipeline
/// configurations.
pub fn figure10_points(curve: &Arc<Curve>) -> Vec<DesignPoint> {
    let shape = tower_shape(curve);
    let variant_sets = [
        ("Manual", VariantConfig::manual(&shape)),
        ("All sch.", VariantConfig::all_schoolbook(&shape)),
        ("All karat.", VariantConfig::all_karatsuba(&shape)),
    ];
    let hw_sets = [
        HwModel::single_issue(38, 8),
        HwModel::single_issue(8, 2),
        HwModel::vliw(2, 8, 2),
        HwModel::vliw(4, 8, 2),
        HwModel::vliw(6, 8, 2),
    ];
    let mut points = Vec::new();
    for hw in &hw_sets {
        for (name, v) in &variant_sets {
            points.push(DesignPoint {
                label: format!("{} @ {}", name, hw.name),
                variants: v.clone(),
                hw: hw.clone(),
            });
        }
    }
    points
}

/// The exhaustive variant sweep at a fixed hardware model (the "Optimal"
/// search of Figure 10): all multiplication-variant combinations plus
/// cyclotomic choice.
pub fn variant_sweep_points(curve: &Arc<Curve>, hw: &HwModel) -> Vec<DesignPoint> {
    let shape = tower_shape(curve);
    VariantConfig::enumerate_mul_space(&shape)
        .into_iter()
        .map(|v| DesignPoint {
            label: format!("{} @ {}", v.tag(), hw.name),
            variants: v,
            hw: hw.clone(),
        })
        .collect()
}

/// One row of the Figure 11 ALU-family co-design sweep.
#[derive(Clone, Debug)]
pub struct AluFamilyPoint {
    /// `mmul` pipeline depth (= Long latency).
    pub depth: u32,
    /// Critical path from the timing model, ns.
    pub critical_path_ns: f64,
    /// Achieved IPC from the cycle-accurate simulator.
    pub ipc: f64,
    /// Single-core throughput, kops.
    pub throughput_kops: f64,
    /// Cycles per pairing.
    pub cycles: u64,
}

/// Sweeps the `mmul` pipeline depth (the ALU-family axis of Figure 11).
///
/// # Errors
///
/// Propagates compilation failures.
pub fn codesign_alu_sweep(
    curve: &Arc<Curve>,
    depths: &[u32],
    variants: &VariantConfig,
) -> Result<Vec<AluFamilyPoint>, DseError> {
    let mut out = Vec::with_capacity(depths.len());
    for &d in depths {
        let hw = HwModel::paper_default().with_long_latency(d);
        let point = DesignPoint {
            label: format!("L{d}"),
            variants: variants.clone(),
            hw,
        };
        let eval = evaluate_point(curve, &point, 1)?;
        out.push(AluFamilyPoint {
            depth: d,
            critical_path_ns: eval.critical_path_ns,
            ipc: eval.ipc,
            throughput_kops: eval.throughput_ops / 1000.0,
            cycles: eval.cycles,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_default_point_bn254n() {
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let point = DesignPoint {
            label: "default".into(),
            variants: VariantConfig::all_karatsuba(&shape),
            hw: HwModel::paper_default(),
        };
        let e = evaluate_point(&curve, &point, 1).unwrap();
        assert!(e.ipc > 0.7, "IPC {}", e.ipc);
        assert!(e.cycles > 10_000);
        assert!(e.area.total() > 0.5 && e.area.total() < 5.0);
        assert!(e.frequency_mhz > 700.0);
        assert!(e.throughput_ops > 1000.0);
    }

    #[test]
    fn evaluation_timing_comes_from_the_hw_owner() {
        // dse carries no timing math of its own: latency/throughput must be
        // exactly what finesse_hw's model (the single owner) computes.
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let point = DesignPoint {
            label: "default".into(),
            variants: VariantConfig::all_karatsuba(&shape),
            hw: HwModel::paper_default(),
        };
        let e = evaluate_point(&curve, &point, 2).unwrap();
        let bits = curve.p().bits() as u32;
        let depth = point.hw.long_lat;
        assert_eq!(e.latency_us, latency_us(e.cycles, depth, bits));
        assert_eq!(e.throughput_ops, throughput_ops(e.cycles, depth, bits, 2));
    }

    #[test]
    fn sw_comparison_against_analytic_model() {
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let point = DesignPoint {
            label: "default".into(),
            variants: VariantConfig::all_karatsuba(&shape),
            hw: HwModel::paper_default(),
        };
        let e = evaluate_point(&curve, &point, 1).unwrap();
        let model = CostModel::from_bench_json(
            r#"{"schema": "finesse-bench-fieldops/v6", "commit": "abc123def456",
                "date": "2026-08-08",
                "curves": [{"curve": "BN254N", "pairing_ns": 3141583}]}"#,
        )
        .unwrap();
        let cmp = compare_with_software("BN254N", &e, &model).unwrap();
        assert!(cmp.speedup > 1.0, "the accelerator beats software");
        assert_eq!(cmp.hw_pairing_ns, e.latency_us * 1000.0);
        let err = compare_with_software("NOT-A-CURVE", &e, &model).unwrap_err();
        assert!(matches!(err, DseError::UnknownCurveCost { .. }));
    }

    #[test]
    fn explore_ranks_variants_on_single_issue() {
        // On a single-issue pipeline, schoolbook at the quadratic base
        // level should be competitive (§2.2's Karatsuba observation).
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let hw = HwModel::paper_default();
        let points = vec![
            DesignPoint {
                label: "kara".into(),
                variants: VariantConfig::all_karatsuba(&shape),
                hw: hw.clone(),
            },
            DesignPoint {
                label: "manual".into(),
                variants: VariantConfig::manual(&shape),
                hw: hw.clone(),
            },
        ];
        let results = explore(&curve, points, 1);
        assert_eq!(results.len(), 2);
        for (p, r) in &results {
            let e = r.as_ref().unwrap();
            assert!(e.cycles > 0, "{}", p.label);
        }
        let best = best_point(&results, Objective::Cycles).unwrap();
        assert!(!best.0.label.is_empty());
    }

    #[test]
    fn alu_sweep_has_interior_throughput_optimum() {
        let curve = Curve::by_name("BN254N");
        let shape = tower_shape(&curve);
        let variants = VariantConfig::all_karatsuba(&shape);
        let sweep = codesign_alu_sweep(&curve, &[14, 26, 38, 44], &variants).unwrap();
        assert_eq!(sweep.len(), 4);
        // IPC decreases with depth; critical path decreases then saturates.
        assert!(
            sweep[0].ipc >= sweep[3].ipc,
            "IPC drops with deeper pipelines"
        );
        assert!(sweep[0].critical_path_ns > sweep[2].critical_path_ns);
        assert!((sweep[2].critical_path_ns - sweep[3].critical_path_ns).abs() < 1e-9);
        // Throughput peaks at the saturation depth, not the deepest.
        let best = sweep
            .iter()
            .max_by(|a, b| a.throughput_kops.total_cmp(&b.throughput_kops))
            .unwrap();
        assert_eq!(best.depth, 38, "interior optimum at the paper's depth");
    }
}
