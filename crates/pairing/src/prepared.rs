//! Prepared G2 points: precomputed Miller-loop line schedules.
//!
//! The line coefficients a Miller loop produces depend only on the G2
//! point and the curve's static schedule (NAF digits of the Miller
//! parameter, BN ψ-tail) — never on the G1 side. [`G2Prepared`] runs that
//! Q-side once and records the ordered coefficient triples, so every
//! later pairing against the same Q replays the schedule
//! ([`crate::flow::emit_miller_loop_with_lines`], where many prepared
//! points share one squaring chain) and skips all projective
//! doubling/addition work. This is the ark/halo2 `G2Prepared`
//! idiom; it pays off exactly where serving workloads concentrate —
//! long-lived BLS public keys, the G2 generator, a KZG SRS element
//! `[τ]₂` — and the engine keeps a bounded cache of them
//! ([`crate::PairingEngine::prepare_g2`]).

use crate::flow::emit_g2_line_schedule;
use crate::value::ValueFlow;
use finesse_curves::{Affine, Curve};
use finesse_ff::Fq;

/// A G2 point with its Miller-loop line schedule precomputed.
///
/// Values are immutable once built and freely shareable across threads
/// (`Arc<G2Prepared>` is how the engine cache hands them out). The
/// identity prepares to an empty schedule — pairings against it are the
/// GT identity and never replay anything.
pub struct G2Prepared {
    point: Affine<Fq>,
    lines: Vec<[Fq; 3]>,
}

impl G2Prepared {
    /// Runs the Q-side of the curve's Miller schedule once, recording
    /// every line's `(ly, lx, lt)` in consumption order.
    pub fn new(curve: &Curve, q: &Affine<Fq>) -> Self {
        if q.infinity {
            return G2Prepared {
                point: q.clone(),
                lines: Vec::new(),
            };
        }
        // The flow only evaluates F_q arithmetic here; the G1 slot is a
        // placeholder (the generator) and is never read by the schedule.
        let g1 = curve.g1_generator().clone();
        let mut flow = ValueFlow::new(curve, &g1, q);
        let lines = emit_g2_line_schedule(curve, &mut flow, &q.x, &q.y);
        G2Prepared {
            point: q.clone(),
            lines,
        }
    }

    /// The underlying affine point.
    pub fn point(&self) -> &Affine<Fq> {
        &self.point
    }

    /// True iff this prepares the identity (empty schedule).
    pub fn is_infinity(&self) -> bool {
        self.point.infinity
    }

    /// The recorded line schedule, in consumption order.
    pub fn lines(&self) -> &[[Fq; 3]] {
        &self.lines
    }
}
