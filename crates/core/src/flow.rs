//! The Finesse design flow: curve in, validated accelerator out
//! (the paper's Figure 3, end to end).
//!
//! [`DesignFlow`] is the builder users drive: pick a curve, a variant
//! preset, a hardware model and a core count; [`DesignFlow::build`]
//! compiles, simulates, models area/timing, and — on request —
//! *validates* the binary against the reference pairing on random inputs
//! (the paper's simulator-versus-library validation stage).

use crate::config::FlowConfig;
use finesse_compiler::{compile_pairing, tower_shape, CompileOptions, CompiledPairing};
use finesse_curves::Curve;
use finesse_dse::{evaluate_compiled, DseError, Evaluation};
use finesse_ff::BigUint;
use finesse_hw::HwModel;
use finesse_ir::convert::{fps_to_fpk, fq_to_fps};
use finesse_ir::VariantConfig;
use finesse_pairing::PairingEngine;
use finesse_sim::run_image;
use std::fmt;
use std::sync::Arc;

/// Builder for an accelerator design.
pub struct DesignFlow {
    curve: Arc<Curve>,
    variants: VariantConfig,
    hw: HwModel,
    cores: u32,
}

impl DesignFlow {
    /// Starts a flow for a named Table 2 curve with paper-default
    /// hardware and all-Karatsuba variants.
    pub fn for_curve(name: &str) -> DesignFlow {
        let curve = Curve::by_name(name);
        let shape = tower_shape(&curve);
        DesignFlow {
            variants: VariantConfig::all_karatsuba(&shape),
            hw: HwModel::paper_default(),
            cores: 1,
            curve,
        }
    }

    /// Starts a flow from a parsed [`FlowConfig`].
    pub fn from_config(cfg: &FlowConfig) -> DesignFlow {
        let mut flow = Self::for_curve(&cfg.curve);
        let shape = tower_shape(&flow.curve);
        flow.variants = match cfg.variants.as_str() {
            "all_schoolbook" => VariantConfig::all_schoolbook(&shape),
            "manual" => VariantConfig::manual(&shape),
            _ => VariantConfig::all_karatsuba(&shape),
        };
        flow.hw = cfg.hw_model();
        flow.cores = cfg.cores;
        flow
    }

    /// Overrides the variant selection.
    pub fn variants(mut self, v: VariantConfig) -> Self {
        self.variants = v;
        self
    }

    /// Overrides the hardware model.
    pub fn hardware(mut self, hw: HwModel) -> Self {
        self.hw = hw;
        self
    }

    /// Sets the parallel core count (SIMT replication, §3.3).
    pub fn cores(mut self, n: u32) -> Self {
        self.cores = n;
        self
    }

    /// The flow's curve.
    pub fn curve(&self) -> &Arc<Curve> {
        &self.curve
    }

    /// Compiles the accelerator once and evaluates that compiled program.
    ///
    /// # Errors
    ///
    /// Propagates compilation and evaluation failures as [`DseError`].
    pub fn build(self) -> Result<Accelerator, DseError> {
        let compiled = compile_pairing(
            &self.curve,
            &self.variants,
            &self.hw,
            &CompileOptions::default(),
        )?;
        let eval = evaluate_compiled(&self.curve, &compiled, self.cores)?;
        Ok(Accelerator {
            curve: self.curve,
            compiled,
            eval,
            cores: self.cores,
        })
    }
}

/// A compiled, evaluated accelerator design.
pub struct Accelerator {
    curve: Arc<Curve>,
    compiled: CompiledPairing,
    eval: Evaluation,
    cores: u32,
}

/// Validation outcome of [`Accelerator::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Test vectors executed.
    pub vectors: u32,
    /// Vectors whose binary output matched the reference pairing.
    pub matching: u32,
}

impl ValidationReport {
    /// True iff every vector matched.
    pub fn all_passed(&self) -> bool {
        self.vectors == self.matching
    }
}

impl Accelerator {
    /// The underlying compiled artifact.
    pub fn compiled(&self) -> &CompiledPairing {
        &self.compiled
    }

    /// The evaluation metrics (cycles, IPC, area, frequency, ...).
    pub fn evaluation(&self) -> &Evaluation {
        &self.eval
    }

    /// The curve.
    pub fn curve(&self) -> &Arc<Curve> {
        &self.curve
    }

    /// Runs the compiled binary on `[a]G1, [b]G2` for `vectors`
    /// deterministic scalar pairs and cross-checks against the reference
    /// pairing engine (the paper's validation stage).
    pub fn validate(&self, vectors: u32) -> ValidationReport {
        let engine = PairingEngine::new(Arc::clone(&self.curve));
        let mut matching = 0;
        for i in 0..vectors {
            let a = BigUint::from_u64(0x5D_EE_C3 + 977 * i as u64);
            let b = BigUint::from_u64(0xB0BA_CAFE_u64.rotate_left(i) | 1);
            let p = self.curve.g1_mul(self.curve.g1_generator(), &a);
            let q = self.curve.g2_mul(self.curve.g2_generator(), &b);
            let expected = engine.pair(&p, &q);

            let mut inputs: Vec<BigUint> = vec![p.x.to_biguint(), p.y.to_biguint()];
            inputs.extend(fq_to_fps(&q.x).iter().map(|f| f.to_biguint()));
            inputs.extend(fq_to_fps(&q.y).iter().map(|f| f.to_biguint()));
            let Ok(out) = run_image(&self.compiled.image, self.curve.fp(), &inputs) else {
                continue;
            };
            let fps: Vec<_> = out
                .iter()
                .map(|v| self.curve.fp().from_biguint(v))
                .collect();
            if fps_to_fpk(self.curve.tower(), &fps) == expected {
                matching += 1;
            }
        }
        ValidationReport { vectors, matching }
    }

    /// A human-readable design report (the "architectural feedback in
    /// minutes" of §4.5).
    pub fn report(&self) -> String {
        let e = &self.eval;
        format!(
            "curve           : {}\n\
             hardware        : {}\n\
             cores           : {}\n\
             instructions    : {}\n\
             cycles/pairing  : {}\n\
             IPC             : {:.2}\n\
             frequency       : {:.1} MHz\n\
             latency         : {:.1} us\n\
             throughput      : {:.1} kops\n\
             area (total)    : {:.2} mm2  [imem {:.2}, dmem {:.2}, alu {:.2}]\n\
             area efficiency : {:.2} kops/mm2\n\
             imem image      : {} KiB\n\
             peak registers  : {}\n\
             compile time    : {:.0} ms",
            self.curve.name(),
            self.compiled.hw,
            self.cores,
            e.instructions,
            e.cycles,
            e.ipc,
            e.frequency_mhz,
            e.latency_us,
            e.throughput_ops / 1000.0,
            e.area.total(),
            e.area.imem,
            e.area.dmem,
            e.area.alu,
            e.throughput_ops / 1000.0 / e.area.total(),
            e.imem_bytes / 1024,
            e.peak_regs,
            e.compile_ms,
        )
    }
}

impl fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accelerator")
            .field("curve", &self.curve.name())
            .field("cycles", &self.eval.cycles)
            .field("ipc", &self.eval.ipc)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_builds_and_validates_bn254n() {
        let acc = DesignFlow::for_curve("BN254N").build().unwrap();
        let v = acc.validate(2);
        assert!(v.all_passed(), "{v:?}");
        let report = acc.report();
        assert!(report.contains("BN254N"));
        assert!(report.contains("kops"));
    }

    #[test]
    fn build_evaluates_the_program_it_compiled() {
        // One compilation: the evaluation reports the compile time of the
        // artifact the accelerator holds, not of a second compilation.
        let acc = DesignFlow::for_curve("BN254N").build().unwrap();
        let compile_ms = acc.compiled().compile_time.as_secs_f64() * 1000.0;
        assert_eq!(acc.evaluation().compile_ms, compile_ms);
    }

    #[test]
    fn flow_from_config_respects_hardware() {
        let cfg = crate::config::FlowConfig::parse("curve = BN254N\nlong = 20\nshort = 8").unwrap();
        let acc = DesignFlow::from_config(&cfg).build().unwrap();
        assert_eq!(acc.compiled().hw.long_lat, 20);
    }
}
