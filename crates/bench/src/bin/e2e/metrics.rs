//! The benchmark's metric tables: every end-to-end metric with its unit,
//! direction and regression bound, and every per-layer metric a traced
//! run reports. `BENCHMARK.json` at the repository root lists the same
//! entries (a test below keeps the two equal).

use crate::stats::Better;
use crate::stats::Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression; 0 for exact metrics.
    pub bound: f64,
    /// Reported by every workload, and therefore in the one-line
    /// result the benchmark command prints; the rest apply to some
    /// workloads only and go to the result files.
    pub common: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    common: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        common,
    }
}

/// Timing bounds sit at 25%: on a shared 2-vCPU host, ten-seed spreads of
/// unchanged code ran 4–17% and medians moved by up to 12% from one set
/// of runs to the next. The heap peak repeats to 0.1%, so its bound is
/// tight.
pub const END_TO_END: [EndToEnd; 13] = [
    // Set-up: fixtures plus the warm-up requests, median of three.
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    // Closed-loop throughput of the one client: requests per busy second,
    // the median over blocks of whole mix cycles of at least one second.
    e2e("req_per_s", "req/s", Better::Higher, 0.25, true),
    // Median latency of the workload's primary request: the verify
    // batch on bls_wire/bls_registry/kzg_wire, the evaluation on
    // codesign_fig10.
    e2e("p50_ms", "ms", Better::Lower, 0.25, true),
    // Median latency of the less frequent request, which `req_per_s`
    // alone would let slow down unseen: the isolating settle on
    // bls_registry, the prove on kzg_wire; the primary request elsewhere.
    e2e("secondary_p50_ms", "ms", Better::Lower, 0.25, true),
    // Most heap bytes live at once above the client's inputs, counted by
    // the benchmark's allocator: one server's state and its requests.
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.10, true),
    // Resident set high-water mark (VmHWM); on the 2-thread workload it
    // also moves with how the allocator's thread arenas filled.
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false),
    e2e("verify_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("isolate_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("prove_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("evaluate_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("sim_cycles_total", "cycles", Better::Lower, 0.0, false),
    e2e("sim_cycles_best", "cycles", Better::Lower, 0.0, false),
    e2e("error_rate", "failed/attempted", Better::Lower, 0.0, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics of a traced run, with units and directions. Every
/// workload reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, Better); 47] = [
    ("curves.decode_g2.us_per_call", "us/call", Lower),
    ("curves.decode_g2.ms_per_req", "ms/req", Lower),
    ("curves.decode_g1.us_per_call", "us/call", Lower),
    ("curves.decode_g1.ms_per_req", "ms/req", Lower),
    ("curves.decode_reject.Length", "count", Lower),
    ("curves.decode_reject.NonCanonicalField", "count", Lower),
    ("curves.decode_reject.NotOnCurve", "count", Lower),
    ("curves.decode_reject.NotInSubgroup", "count", Lower),
    ("curves.hash_to_g1.us_per_call", "us/call", Lower),
    ("curves.hash_to_g1.ms_per_req", "ms/req", Lower),
    ("pairing.push_check.us_per_call", "us/call", Lower),
    ("pairing.prepare_g2.calls_per_req", "calls/req", Lower),
    ("pairing.prepare_g2.miss_ratio", "ratio", Lower),
    ("pairing.prepare_g2.miss_us", "us/miss", Lower),
    ("pairing.settle.ms_per_req", "ms/req", Lower),
    ("pairing.settle.unattributed_ms", "ms/req", Lower),
    ("pairing.settle_isolating.ms_per_req", "ms/req", Lower),
    ("pairing.settle_isolating.unattributed_ms", "ms/req", Lower),
    ("curves.msm_short.ms_per_req", "ms/req", Lower),
    ("pairing.miller_loop.calls_per_req", "calls/req", Lower),
    ("pairing.miller_loop.us_per_call", "us/call", Lower),
    ("pairing.final_exp.us_per_call", "us/call", Lower),
    ("poly.verify_batch.ms_per_req", "ms/req", Lower),
    ("poly.commit.ms_per_req", "ms/req", Lower),
    ("poly.open_batch.ms_per_req", "ms/req", Lower),
    ("curves.encode_g1.us_per_call", "us/call", Lower),
    ("curves.encode_g1.ms_per_req", "ms/req", Lower),
    ("compiler.compile_pairing.ms", "ms/call", Lower),
    ("compiler.compile_pairing.unattributed_ms", "ms/req", Lower),
    ("compiler.lower.ms", "ms/call", Lower),
    ("compiler.iropt.ms", "ms/call", Lower),
    ("compiler.schedule.ms", "ms/call", Lower),
    ("compiler.regalloc.ms", "ms/call", Lower),
    ("compiler.link.ms", "ms/call", Lower),
    ("sim.decode.ms", "ms/call", Lower),
    ("sim.simulate.ms", "ms/call", Lower),
    ("sim.minst_per_host_s", "Minstr/s", Higher),
    ("hw.area_timing.us", "us/call", Lower),
    ("compiler.instructions", "count", Lower),
    ("compiler.iropt.reduction_pct", "%", Higher),
    ("sim.cycles", "cycles", Lower),
    ("sim.ipc", "instr/cycle", Higher),
    ("sim.stall_cycles", "cycles", Lower),
    ("sim.wb_conflicts", "count", Lower),
    ("request.unattributed_ms", "ms/req", Lower),
    ("trace.replay_ms_per_req", "ms/req", Lower),
    ("trace.requests", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, num_field};

    /// `BENCHMARK.json` writes one entry per line, so each table row
    /// must appear in it verbatim.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn occurrences(needle: &str) -> usize {
        BENCHMARK_JSON.matches(needle).count()
    }

    #[test]
    fn benchmark_json_lists_the_common_end_to_end_metrics() {
        let common: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.common).collect();
        for m in &common {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                num(m.bound)
            );
            assert_eq!(occurrences(&row), 1, "{row}");
        }
        assert_eq!(occurrences("\"bound\":"), common.len());
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        for (name, unit, better) in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            );
            assert_eq!(occurrences(&row), 1, "{row}");
        }
        let workloads = crate::WORKLOADS.len();
        let common = END_TO_END.iter().filter(|m| m.common).count();
        assert_eq!(
            occurrences("\"name\":"),
            workloads + common + PER_LAYER.len()
        );
    }

    #[test]
    fn benchmark_json_runs_every_workload_for_the_default_length() {
        for w in crate::WORKLOADS {
            assert_eq!(occurrences(&format!("{{\"name\": \"{w}\", \"why\": ")), 1);
        }
        assert_eq!(
            num_field(BENCHMARK_JSON, "run_seconds"),
            Some(crate::SECONDS)
        );
    }
}
