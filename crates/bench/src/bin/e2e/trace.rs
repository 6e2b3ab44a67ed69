//! Spans around every layer call the benchmark makes, kept in memory and
//! written out when a traced run ends.
//!
//! A span records its name, start, end, parent and request id. The
//! benchmark opens one around each call it makes into a library layer,
//! so the spans sit at layer boundaries without any instrumentation
//! inside the library. A layer's self time is its span's duration minus
//! the union of its children's intervals — children may overlap when a
//! layer runs work on several threads.

use crate::json;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store and the counters recorded next to it.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        // A panic while the lock is held leaves only complete entries.
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans[id].end_ns = end_ns;
    }

    /// Everything recorded so far.
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let spans = std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        let counts =
            std::mem::take(&mut *self.counts.lock().unwrap_or_else(PoisonError::into_inner));
        (spans, counts)
    }
}

/// Where the next span goes: the tracer (none in untraced runs), the
/// request it belongs to, and its parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    tracer: Option<&'t Tracer>,
    req: u64,
    parent: Option<usize>,
}

impl<'t> Ctx<'t> {
    /// A root context for request `req`.
    pub fn new(tracer: Option<&'t Tracer>, req: u64) -> Ctx<'t> {
        Ctx {
            tracer,
            req,
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the context for
    /// the span's children. Untraced, this is a plain call.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        let Some(t) = self.tracer else {
            return f(self);
        };
        let id = t.begin(name, self.req, self.parent);
        let out = f(Ctx {
            parent: Some(id),
            ..self
        });
        t.end(id);
        out
    }

    /// Adds `v` to counter `name`.
    pub fn count(self, name: &'static str, v: f64) {
        if let Some(t) = self.tracer {
            *t.counts
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(name)
                .or_insert(0.0) += v;
        }
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Children of every span, by index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

fn intervals(spans: &[Span], ids: &[usize]) -> Vec<(u64, u64)> {
    ids.iter()
        .map(|&i| (spans[i].start_ns, spans[i].end_ns))
        .collect()
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| s.dur_ns() - covered_ns(&intervals(spans, k), s.start_ns, s.end_ns))
        .collect()
}

/// Calls, total duration and total self time per span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += self_ns;
    }
    out
}

/// For an opaque call that a replay breaks into phases: the summed
/// duration of every `opaque` span, minus the time the children of the
/// same request's `replay` root cover, over the requests that have
/// both. Negative when the replayed phases take longer than the call.
pub fn unattributed_ns(spans: &[Span], opaque: &str, replay: &str) -> f64 {
    let kids = children(spans);
    let mut cover: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == replay {
            *cover.entry(s.req).or_default() +=
                covered_ns(&intervals(spans, &kids[i]), s.start_ns, s.end_ns);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == opaque)
        .filter_map(|s| cover.get(&s.req).map(|c| s.dur_ns() as f64 - *c as f64))
        .fold(0.0, |acc, x| acc + x)
}

/// The spans as JSON, one object per span with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            format!(
                "{{\"name\": {}, \"req\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                json::quote(s.name),
                s.req,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("parent", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 20, 60),  // overlaps a
            span("c", Some(0), 90, 120), // runs past the parent's end
            span("d", Some(1), 15, 25),  // a grandchild: a's, not parent's
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (50 + 10));
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 40);
        let l = layers(&spans);
        assert_eq!(l["parent"].self_ns, 40);
        assert_eq!(l["a"].total_ns, 30);
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(
            covered_ns(&[(0, 5), (5, 8)], 0, 10),
            8,
            "touching intervals"
        );
    }

    #[test]
    fn overlapping_children_from_two_threads_count_once() {
        // Both children start before either ends (the barriers force
        // it), as the Miller loops of the 2-thread workload do.
        let tracer = Tracer::new();
        let barrier = Barrier::new(2);
        Ctx::new(Some(&tracer), 7).span("settle", |cx| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        cx.span("miller_loop", |_| {
                            barrier.wait();
                            barrier.wait();
                        })
                    });
                }
            });
        });
        let (spans, _) = tracer.take();
        assert_eq!(spans.len(), 3);
        let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(0)).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|s| s.req == 7));
        let union = kids.iter().map(|s| s.end_ns).max().unwrap()
            - kids.iter().map(|s| s.start_ns).min().unwrap();
        assert!(union < kids.iter().map(|s| s.dur_ns()).sum::<u64>());
        assert_eq!(self_times(&spans)[0], spans[0].dur_ns() - union);
    }

    #[test]
    fn unattributed_is_the_opaque_call_minus_its_replayed_phases() {
        let mut spans = vec![
            span("settle", None, 0, 100),
            span("replay", None, 200, 300),
            span("msm", Some(1), 200, 230),
            span("loop", Some(1), 230, 290),
        ];
        assert_eq!(unattributed_ns(&spans, "settle", "replay"), 10.0);
        // A request without a replay contributes nothing.
        spans.push(Span {
            req: 1,
            ..span("settle", None, 0, 50)
        });
        assert_eq!(unattributed_ns(&spans, "settle", "replay"), 10.0);
    }

    #[test]
    fn untraced_context_is_a_plain_call() {
        let out = Ctx::new(None, 0).span("x", |cx| {
            cx.count("n", 1.0);
            cx.span("y", |_| 5)
        });
        assert_eq!(out, 5);
    }
}
