//! The closed loop every workload runs under, and the metrics it yields.
//!
//! One client sends its next request as soon as the previous one is
//! answered (no think time). The run sets up the workload three times
//! (fixtures plus a fixed count of warm-up requests each) and keeps the
//! last, then measures for the requested number of seconds, finishing
//! the mix cycle it is in so every run serves the mix in its exact
//! proportions. Each request's answer is checked against ground truth
//! outside the timed call.

use crate::metrics::{self, PER_LAYER};
use crate::stats::{median, peak_rss_mib, tail_percentile};
use crate::trace::{self, Ctx, Span, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, which keeps one slow
/// set-up from moving it.
pub const SETUPS: usize = 3;

/// Busy time per throughput block: `req_per_s` is the median over
/// blocks of whole mix cycles lasting at least this long, so a burst of
/// contention from outside the process moves it no more than it moves
/// the median latency.
const BLOCK_MS: f64 = 1000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Verify,
    Isolate,
    Prove,
    Evaluate,
}

impl Class {
    fn metric(self) -> &'static str {
        match self {
            Class::Verify => "verify_p50_ms",
            Class::Isolate => "isolate_p50_ms",
            Class::Prove => "prove_p50_ms",
            Class::Evaluate => "evaluate_p50_ms",
        }
    }

    const ALL: [Class; 4] = [Class::Verify, Class::Isolate, Class::Prove, Class::Evaluate];
}

pub trait Workload {
    /// What the system under test holds after set-up.
    type State;
    /// One request's answer, checked against ground truth.
    type Response;

    /// The library thread budget (capped at the host's parallelism).
    fn threads(&self) -> usize;
    /// Requests per mix cycle; a measured window ends on a cycle
    /// boundary.
    fn cycle(&self) -> usize;
    fn warmups(&self) -> usize;
    /// The request class whose median is `p50_ms`.
    fn primary(&self) -> Class;
    /// The class whose median is `secondary_p50_ms`: the less frequent
    /// request of a mixed workload, else the primary one.
    fn secondary(&self) -> Class {
        self.primary()
    }
    fn setup(&self) -> Result<Self::State, String>;
    /// Serves request `i`: the timed call into the library.
    fn serve(
        &self,
        st: &mut Self::State,
        i: usize,
        cx: Ctx<'_>,
    ) -> Result<(Class, Self::Response), String>;
    fn check(&self, i: usize, resp: &Self::Response) -> Result<(), String>;
    /// Traced runs only, outside the request span: re-runs the phases of
    /// an opaque library call on the same inputs through public calls,
    /// so the trace can attribute its time.
    fn replay(
        &self,
        _st: &mut Self::State,
        _i: usize,
        _resp: &Self::Response,
        _cx: Ctx<'_>,
    ) -> Result<(), String> {
        Ok(())
    }
    /// End-to-end metrics only this workload has.
    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Per-layer values that are exact counts of the served outputs.
    fn exact_layers(&self, _st: &Self::State) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

pub struct Plan {
    pub seconds: f64,
    pub setups: usize,
    pub traced: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub struct Outcome {
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics; a traced run's are slowed by its spans.
    pub end_to_end: Vec<Metric>,
    /// Traced runs only.
    pub per_layer: Vec<Metric>,
    /// Traced runs: per-request self time of each layer, largest first.
    pub self_ranking: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Runs `w` under `plan` with the library's thread budget pinned.
pub fn measure<W: Workload>(w: &W, plan: &Plan) -> Outcome {
    let threads = w.threads().min(finesse_parallel::hardware_threads());
    finesse_parallel::with_threads(threads, || {
        let mut out = Outcome {
            threads,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            self_ranking: Vec::new(),
            spans: Vec::new(),
        };
        measure_pinned(w, plan, &mut out);
        out
    })
}

fn measure_pinned<W: Workload>(w: &W, plan: &Plan, out: &mut Outcome) {
    let heap_base = crate::alloc::reset_peak();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..plan.setups.max(1) {
        // One server at a time, so the heap peak is one server's.
        drop(state.take());
        let t = Instant::now();
        let mut st = match w.setup() {
            Ok(st) => st,
            Err(e) => return out.fail(format!("setup: {e}")),
        };
        for i in 0..w.warmups() {
            // Traced runs replay warm-ups too (untraced), so replay-side
            // observers start the window in step with the library.
            one(w, &mut st, i, None, plan.traced, out);
        }
        setups.push(t.elapsed().as_secs_f64());
        state = Some(st);
    }
    let Some(mut st) = state else { return };

    let tracer = plan.traced.then(Tracer::new);
    let mut samples: Vec<(Class, f64)> = Vec::new();
    let mut rates = Vec::new();
    let (mut block_n, mut block_ms) = (0, 0.0);
    let start = Instant::now();
    let cycle = w.cycle().max(1);
    let mut i = 0;
    while i == 0 || i % cycle != 0 || start.elapsed().as_secs_f64() < plan.seconds {
        if let Some(s) = one(w, &mut st, i, tracer.as_ref(), plan.traced, out) {
            block_n += 1;
            block_ms += s.1;
            samples.push(s);
        }
        i += 1;
        if i % cycle == 0 && block_ms >= BLOCK_MS {
            rates.push(block_n as f64 / (block_ms / 1e3));
            (block_n, block_ms) = (0, 0.0);
        }
    }
    if rates.is_empty() {
        rates.push(block_n as f64 / (block_ms / 1e3));
    }

    let heap_mib = crate::alloc::peak_heap_mib_above(heap_base);
    out.end_to_end = end_to_end(w, &setups, &rates, &samples, heap_mib, out);
    if let Some(tracer) = tracer {
        let (spans, counts) = tracer.take();
        let exact = w.exact_layers(&st);
        out.per_layer = per_layer(&spans, &counts, i, &exact);
        out.self_ranking = self_ranking(&spans, i);
        out.spans = spans;
    }
}

/// One request: serve (timed), check, and in traced runs replay.
fn one<W: Workload>(
    w: &W,
    st: &mut W::State,
    i: usize,
    tracer: Option<&Tracer>,
    traced: bool,
    out: &mut Outcome,
) -> Option<(Class, f64)> {
    let cx = Ctx::new(tracer, i as u64);
    out.attempted += 1;
    let t = Instant::now();
    let served = catch_unwind(AssertUnwindSafe(|| {
        cx.span("request", |cx| w.serve(st, i, cx))
    }));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (class, resp) = match served {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => {
            out.fail(format!("request {i}: unexpected error: {e}"));
            return None;
        }
        Err(_) => {
            out.fail(format!("request {i}: panicked"));
            return None;
        }
    };
    if let Err(e) = w.check(i, &resp) {
        out.fail(format!("request {i}: {e}"));
        return None;
    }
    if traced {
        match catch_unwind(AssertUnwindSafe(|| w.replay(st, i, &resp, cx))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.fail(format!("request {i} replay: {e}")),
            Err(_) => out.fail(format!("request {i} replay: panicked")),
        }
    }
    Some((class, ms))
}

fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

fn end_to_end<W: Workload>(
    w: &W,
    setups: &[f64],
    rates: &[f64],
    samples: &[(Class, f64)],
    heap_mib: f64,
    out: &Outcome,
) -> Vec<Metric> {
    let mut m = vec![
        metric("setup_s", median(setups), setups.len()),
        metric("req_per_s", median(rates), rates.len()),
    ];
    let class_ms = |c: Class| -> Vec<f64> {
        samples
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, ms)| *ms)
            .collect()
    };
    for (name, class) in [("p50_ms", w.primary()), ("secondary_p50_ms", w.secondary())] {
        let v = class_ms(class);
        m.push(metric(name, median(&v), v.len()));
    }
    m.push(metric("peak_heap_mb", heap_mib, 1));
    m.push(metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), 1));
    for c in Class::ALL {
        let v = class_ms(c);
        if v.is_empty() {
            continue;
        }
        m.push(metric(c.metric(), median(&v), v.len()));
        // A diagnostic, not a bounded metric: printed only with ten
        // samples beyond it.
        for (q, name) in [(0.9, "p90"), (0.99, "p99")] {
            if let Some(x) = tail_percentile(&v, q) {
                m.push(Metric {
                    name: c.metric().replace("p50", name),
                    value: x,
                    unit: "ms",
                    samples: v.len(),
                });
            }
        }
    }
    for (name, value) in w.extra_metrics() {
        m.push(metric(name, value, 1));
    }
    m.push(metric(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    ));
    m
}

/// Opaque library calls whose phases a replay re-runs, with the replay
/// root that holds them.
const REPLAYED: [(&str, &str); 3] = [
    ("pairing.settle", "replay.settle"),
    ("pairing.settle_isolating", "replay.settle"),
    ("compiler.compile_pairing", "replay.compile"),
];

fn per_layer(
    spans: &[Span],
    counts: &BTreeMap<&'static str, f64>,
    n_req: usize,
    exact: &[(&'static str, f64)],
) -> Vec<Metric> {
    let layers = trace::layers(spans);
    let n = n_req.max(1) as f64;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_call = |name: &str, scale: f64| {
        let l = layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.calls as f64 / scale
        }
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (prefix, suffix) = name.rsplit_once('.').unwrap_or((name, ""));
            let value = if let Some(&(_, v)) = exact.iter().find(|(k, _)| *k == name) {
                v
            } else {
                match (prefix, suffix) {
                    ("pairing.prepare_g2", "miss_ratio") => {
                        let calls = layer("pairing.prepare_g2").calls;
                        if calls == 0 {
                            0.0
                        } else {
                            count("pairing.prepare_g2.misses") / calls as f64
                        }
                    }
                    ("pairing.prepare_g2", "miss_us") => {
                        per_call("pairing.prepare_g2.miss_build", 1e3)
                    }
                    ("sim", "minst_per_host_s") => {
                        let secs = layer("sim.simulate").total_ns as f64 / 1e9;
                        if secs == 0.0 {
                            0.0
                        } else {
                            count("sim.instructions") / secs / 1e6
                        }
                    }
                    ("request", "unattributed_ms") => layer("request").self_ns as f64 / n / 1e6,
                    (p, "unattributed_ms") => REPLAYED
                        .iter()
                        .find(|(opaque, _)| *opaque == p)
                        .map_or(0.0, |(opaque, root)| {
                            trace::unattributed_ns(spans, opaque, root) / n / 1e6
                        }),
                    ("trace", "replay_ms_per_req") => {
                        let replay_ns: u64 = layers
                            .iter()
                            .filter(|(k, _)| k.starts_with("replay."))
                            .map(|(_, l)| l.total_ns)
                            .sum();
                        replay_ns as f64 / n / 1e6
                    }
                    ("trace", "requests") => n_req as f64,
                    (p, "us_per_call") | (p, "us") => per_call(p, 1e3),
                    (p, "ms") => per_call(p, 1e6),
                    (p, "ms_per_req") => layer(p).total_ns as f64 / n / 1e6,
                    (p, "calls_per_req") => layer(p).calls as f64 / n,
                    _ => count(name),
                }
            };
            Metric {
                name: name.to_owned(),
                value,
                unit,
                samples: n_req,
            }
        })
        .collect()
}

/// Per-request self time of every layer, largest first. An opaque call
/// that a replay breaks down counts only its unattributed remainder, so
/// its phases rank on their own.
fn self_ranking(spans: &[Span], n_req: usize) -> Vec<(&'static str, f64)> {
    let n = n_req.max(1) as f64;
    let mut rank: Vec<(&'static str, f64)> = trace::layers(spans)
        .into_iter()
        .filter(|(name, _)| *name != "request" && !name.starts_with("replay."))
        .map(|(name, l)| {
            let ns = match REPLAYED.iter().find(|(opaque, _)| *opaque == name) {
                Some((opaque, root)) if spans.iter().any(|s| s.name == *root) => {
                    trace::unattributed_ns(spans, opaque, root)
                }
                _ => l.self_ns as f64,
            };
            (name, ns / n / 1e6)
        })
        .collect();
    rank.sort_by(|a, b| b.1.total_cmp(&a.1));
    rank
}
