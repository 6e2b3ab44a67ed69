//! The paper's co-design loop as a workload: each request evaluates one
//! Figure 10 design point — compile the pairing, decode the linked image,
//! simulate it cycle-accurately, and price area and timing — and must
//! reproduce `evaluate_point` exactly.

use crate::trace::Ctx;
use crate::workload::{Class, Workload};
use finesse_compiler::{
    allocate, compile_pairing, link, optimize, pairing_hir, schedule, tower_shape, CompileOptions,
    CompiledPairing,
};
use finesse_curves::{spec_by_name, Curve};
use finesse_dse::{evaluate_point, figure10_points, DesignPoint, Evaluation};
use finesse_hw::{
    area_breakdown, critical_path_ns, frequency_mhz, latency_us, throughput_ops, AreaBreakdown,
    AreaInputs,
};
use finesse_ir::lower;
use finesse_sim::{simulate, SimReport};
use std::sync::Arc;

pub struct Shape {
    pub curve: &'static str,
    /// How many of the 15 Figure 10 points to serve (all, except in the
    /// smoke test).
    pub points: usize,
    pub warmups: usize,
}

impl Shape {
    pub fn fig10() -> Shape {
        Shape {
            curve: "BN254N",
            points: 15,
            warmups: 2,
        }
    }
}

pub struct Codesign {
    shape: Shape,
    /// `evaluate_point`'s answer per design point: the ground truth.
    reference: Vec<Evaluation>,
}

impl Codesign {
    /// The Figure 10 point set is fixed, so this workload draws nothing
    /// from the seed: every seed sends the same requests.
    pub fn new(shape: Shape) -> Result<Codesign, String> {
        let client = Curve::try_by_name(shape.curve).map_err(|e| e.to_string())?;
        let mut points = figure10_points(&client);
        points.truncate(shape.points);
        let reference = points
            .iter()
            .map(|p| evaluate_point(&client, p, 1).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Codesign { shape, reference })
    }

    fn point(&self, i: usize) -> usize {
        i % self.reference.len()
    }
}

/// Exact counts of one served point, for the traced run's layer table.
#[derive(Clone, Copy)]
struct Counts {
    instructions: usize,
    opt_before: usize,
    opt_after: usize,
    cycles: u64,
    sim_instructions: u64,
    stall_cycles: u64,
    wb_conflicts: u64,
}

pub struct Server {
    curve: Arc<Curve>,
    points: Vec<DesignPoint>,
    counts: Vec<Option<Counts>>,
}

pub struct Served {
    compiled: CompiledPairing,
    report: SimReport,
    area: AreaBreakdown,
    critical_path_ns: f64,
    frequency_mhz: f64,
    latency_us: f64,
    throughput_ops: f64,
}

impl Workload for Codesign {
    type State = Server;
    type Response = Served;

    fn threads(&self) -> usize {
        1
    }

    fn cycle(&self) -> usize {
        self.reference.len()
    }

    fn warmups(&self) -> usize {
        self.shape.warmups
    }

    fn primary(&self) -> Class {
        Class::Evaluate
    }

    fn setup(&self) -> Result<Server, String> {
        let spec = spec_by_name(self.shape.curve).ok_or("unknown curve")?;
        let curve = Arc::new(Curve::from_spec(spec).map_err(|e| e.to_string())?);
        let mut points = figure10_points(&curve);
        points.truncate(self.shape.points);
        Ok(Server {
            counts: vec![None; points.len()],
            curve,
            points,
        })
    }

    fn serve(&self, st: &mut Server, i: usize, cx: Ctx<'_>) -> Result<(Class, Served), String> {
        let p = &st.points[self.point(i)];
        let compiled = cx
            .span("compiler.compile_pairing", |_| {
                compile_pairing(&st.curve, &p.variants, &p.hw, &CompileOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let insts = cx
            .span("sim.decode", |_| {
                compiled.image.spec.decode(&compiled.image.words)
            })
            .map_err(|e| e.to_string())?;
        let report = cx.span("sim.simulate", |_| simulate(&insts, &compiled.hw, None));
        cx.count("sim.instructions", report.instructions as f64);
        let bits = st.curve.p().bits() as u32;
        let depth = compiled.hw.long_lat;
        let (area, critical_path_ns, frequency_mhz, latency_us, throughput_ops) =
            cx.span("hw.area_timing", |_| {
                let inputs = AreaInputs {
                    field_bits: bits,
                    imem_bytes: compiled.image.imem_bytes(),
                    live_registers: compiled.regs.peak_live as usize,
                    cores: 1,
                };
                (
                    area_breakdown(&compiled.hw, &inputs),
                    critical_path_ns(depth, bits),
                    frequency_mhz(depth, bits),
                    latency_us(report.cycles, depth, bits),
                    throughput_ops(report.cycles, depth, bits, 1),
                )
            });
        Ok((
            Class::Evaluate,
            Served {
                compiled,
                report,
                area,
                critical_path_ns,
                frequency_mhz,
                latency_us,
                throughput_ops,
            },
        ))
    }

    fn check(&self, i: usize, s: &Served) -> Result<(), String> {
        let want = &self.reference[self.point(i)];
        let got = (
            s.compiled.instruction_count(),
            s.report.cycles,
            s.report.ipc(),
            s.report.wb_conflicts,
            s.compiled.image.imem_bytes(),
            s.compiled.regs.peak_live,
            s.area,
            (s.critical_path_ns, s.frequency_mhz),
            (s.latency_us, s.throughput_ops),
        );
        let expected = (
            want.instructions,
            want.cycles,
            want.ipc,
            want.wb_conflicts,
            want.imem_bytes,
            want.peak_regs,
            want.area,
            (want.critical_path_ns, want.frequency_mhz),
            (want.latency_us, want.throughput_ops),
        );
        if got == expected {
            Ok(())
        } else {
            Err(format!(
                "design point {}: got {got:?}, evaluate_point gave {expected:?}",
                self.point(i)
            ))
        }
    }

    /// Replays `compile_pairing` phase by phase; the linked image must
    /// equal the one the request produced.
    fn replay(&self, st: &mut Server, i: usize, s: &Served, cx: Ctx<'_>) -> Result<(), String> {
        let k = self.point(i);
        let (curve, p) = (&st.curve, &st.points[k]);
        cx.span("replay.compile", |cx| {
            p.hw.validate().map_err(|e| e.to_string())?;
            let hw = p.hw.clone().with_inv_latency_for_bits(curve.p().bits());
            let hir = pairing_hir(curve);
            let shape = tower_shape(curve);
            let lowered = cx.span("compiler.lower", |_| lower(&hir, &shape, &p.variants))?;
            let (fp, stats) = cx.span("compiler.iropt", |_| optimize(&lowered, curve.fp()));
            let sched = cx.span("compiler.schedule", |_| {
                schedule(&fp, &hw, &CompileOptions::default().sched)
            });
            let regs = cx
                .span("compiler.regalloc", |_| allocate(&fp, &sched, hw.reg_quota))
                .map_err(|e| e.to_string())?;
            let image = cx
                .span("compiler.link", |_| {
                    link(&fp, &sched, &regs, hw.issue_width)
                })
                .map_err(|e| e.to_string())?;
            if image.words != s.compiled.image.words {
                return Err(format!("design point {k}: replayed image differs"));
            }
            st.counts[k] = Some(Counts {
                instructions: s.compiled.instruction_count(),
                opt_before: stats.before,
                opt_after: stats.after,
                cycles: s.report.cycles,
                sim_instructions: s.report.instructions,
                stall_cycles: s.report.stall_cycles,
                wb_conflicts: s.report.wb_conflicts,
            });
            Ok(())
        })
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        let cycles = self.reference.iter().map(|e| e.cycles);
        vec![
            ("sim_cycles_total", cycles.clone().sum::<u64>() as f64),
            ("sim_cycles_best", cycles.min().unwrap_or(0) as f64),
        ]
    }

    /// Sums over the design points, so they repeat exactly.
    fn exact_layers(&self, st: &Server) -> Vec<(&'static str, f64)> {
        let seen: Vec<Counts> = st.counts.iter().flatten().copied().collect();
        let sum = |f: fn(&Counts) -> u64| seen.iter().map(f).sum::<u64>() as f64;
        let before = sum(|c| c.opt_before as u64);
        let cycles = sum(|c| c.cycles);
        vec![
            ("compiler.instructions", sum(|c| c.instructions as u64)),
            (
                "compiler.iropt.reduction_pct",
                100.0 * (before - sum(|c| c.opt_after as u64)) / before.max(1.0),
            ),
            ("sim.cycles", cycles),
            ("sim.ipc", sum(|c| c.sim_instructions) / cycles.max(1.0)),
            ("sim.stall_cycles", sum(|c| c.stall_cycles)),
            ("sim.wb_conflicts", sum(|c| c.wb_conflicts)),
        ]
    }
}
