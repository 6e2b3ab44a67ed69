//! Deferred pairing accumulation: randomized batch verification.
//!
//! A verifier that checks n pairing equations one at a time pays 2n
//! Miller loops and n final exponentiations. [`PairingAccumulator`]
//! defers them all: callers push checks `e(Aᵢ, Bᵢ) =? e(Cᵢ, Dᵢ)` and a
//! single [`PairingAccumulator::settle`] folds the batch with
//! random-linear-combination coefficients ρᵢ — the equation
//!
//! ```text
//! Π e(ρᵢ·Aᵢ, Bᵢ) · e(−ρᵢ·Cᵢ, Dᵢ) = 1
//! ```
//!
//! holds for every honest batch, and a batch containing any false check
//! only survives if the ρᵢ land on the cheating element's discrete-log
//! relation — probability ≤ 2⁻¹²⁷ per settle for the 128-bit randomizers
//! drawn here. The G1 scalings collapse into short-scalar MSMs (one per
//! distinct G2 point, normalised together with one shared inversion), so
//! the whole batch costs one Miller loop per *distinct* G2 point plus
//! one final exponentiation — for n BLS verifications against s signers
//! that is `1 + s` loops instead of `2n` pairings.
//!
//! When a batch fails, [`PairingAccumulator::settle_isolating`] names the
//! failing checks by bisection. A subset's G_T value is multiplicative
//! over disjoint subsets, so each failing subset evaluates only one half
//! and derives the other's value with one F_p^k multiplication: k bad
//! checks among n cost at most k⌈log₂n⌉ subset evaluations after the
//! first pass.
//!
//! Randomizers come from a [`Transcript`] seeded over every pushed point
//! (Fiat–Shamir shape: nothing is drawn until the batch is closed, so
//! each ρᵢ depends on all checks). The concrete instantiation is the
//! crate's [`SplitMix64Transcript`] — a deterministic stand-in for an
//! extensible-output hash that makes batches reproducible for tests and
//! benches; a deployment against adversarial provers swaps in a
//! cryptographic sponge behind the same [`Transcript`] trait.

use crate::prepared::G2Prepared;
use crate::transcript::{SplitMix64Transcript, Transcript};
use crate::value::PairingEngine;
use finesse_curves::{affine_neg, Affine, FpOps};
use finesse_ff::{BigUint, Fp, Fpk, Fq};
use std::sync::Arc;

/// One deferred check `e(a, b) =? e(c, d)`.
struct Check {
    a: Affine<Fp>,
    b: Affine<Fq>,
    c: Affine<Fp>,
    d: Affine<Fq>,
}

/// Accumulates pairing-equation checks and settles them all with one
/// multi-Miller loop and one final exponentiation.
///
/// ```no_run
/// use finesse_curves::Curve;
/// use finesse_pairing::{PairingAccumulator, PairingEngine};
/// use finesse_ff::BigUint;
///
/// let curve = Curve::by_name("BLS12-381");
/// let engine = PairingEngine::new(curve.clone());
/// let g1 = curve.g1_generator();
/// let g2 = curve.g2_generator();
/// let two = BigUint::from_u64(2);
/// let mut acc = PairingAccumulator::new(&engine);
/// // e([2]G1, G2) =? e(G1, [2]G2) — and as many more checks as you like.
/// acc.push_check(&curve.g1_mul(g1, &two), g2, g1, &curve.g2_mul(g2, &two));
/// assert!(acc.settle());
/// ```
pub struct PairingAccumulator<'e> {
    engine: &'e PairingEngine,
    transcript: SplitMix64Transcript,
    checks: Vec<Check>,
}

impl<'e> PairingAccumulator<'e> {
    /// An empty accumulator with the default domain label.
    pub fn new(engine: &'e PairingEngine) -> Self {
        Self::with_label(engine, b"finesse-pairing-batch-v1")
    }

    /// An empty accumulator under a caller-chosen domain label
    /// (different protocols on one engine should not share a challenge
    /// stream).
    pub fn with_label(engine: &'e PairingEngine, label: &[u8]) -> Self {
        let mut transcript = SplitMix64Transcript::new(label);
        transcript.absorb_bytes(engine.curve().name().as_bytes());
        PairingAccumulator {
            engine,
            transcript,
            checks: Vec::new(),
        }
    }

    /// Defers the check `e(a, b) =? e(c, d)`, absorbing all four points
    /// into the transcript.
    ///
    /// `a` and `c` must lie in G1 and `b` and `d` in G2: the settles'
    /// ≤ 2⁻¹²⁷ soundness bound and the bisection's multiplicativity both
    /// assume inputs in G1 × G2, and this method does not re-check them.
    /// Points from [`Curve::decode_g1`] / [`Curve::decode_g2`] qualify;
    /// check any other point with [`Curve::validate_g1`] /
    /// [`Curve::validate_g2`] first.
    ///
    /// [`Curve::decode_g1`]: finesse_curves::Curve::decode_g1
    /// [`Curve::decode_g2`]: finesse_curves::Curve::decode_g2
    /// [`Curve::validate_g1`]: finesse_curves::Curve::validate_g1
    /// [`Curve::validate_g2`]: finesse_curves::Curve::validate_g2
    pub fn push_check(&mut self, a: &Affine<Fp>, b: &Affine<Fq>, c: &Affine<Fp>, d: &Affine<Fq>) {
        self.transcript.absorb_g1(a);
        self.transcript.absorb_g2(b);
        self.transcript.absorb_g1(c);
        self.transcript.absorb_g2(d);
        self.checks.push(Check {
            a: a.clone(),
            b: b.clone(),
            c: c.clone(),
            d: d.clone(),
        });
    }

    /// Checks pushed so far.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True iff nothing was pushed (an empty batch settles as `true`).
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Settles the batch: draws one ~128-bit randomizer per check from
    /// the transcript, aggregates the G1 sides with one short-scalar MSM
    /// per distinct G2 point (normalised together with a single shared
    /// inversion), and verifies the folded product with one multi-Miller
    /// loop over prepared G2 points plus one final exponentiation.
    ///
    /// Returns `true` iff every pushed check holds (up to the ≤ 2⁻¹²⁷
    /// random-linear-combination soundness error, for checks in
    /// G1 × G2: see [`PairingAccumulator::push_check`]). An empty batch
    /// is vacuously `true`.
    pub fn settle(mut self) -> bool {
        let checks = std::mem::take(&mut self.checks);
        let rhos = self.draw_randomizers(checks.len());
        let all: Vec<usize> = (0..checks.len()).collect();
        self.subset_value(&checks, &rhos, &all)
            .is_some_and(|v| self.engine.gt_is_one(&v))
    }

    /// Settles the batch like [`PairingAccumulator::settle`], but on
    /// failure *isolates* the offending checks instead of discarding
    /// the whole batch: the pushed checks are bisected, with the same
    /// per-check randomizers throughout, and the indices of every
    /// failing check are returned, in push order.
    ///
    /// Each evaluated subset S yields its G_T value V(S): the final
    /// exponentiation of S's folded Miller product, which is one iff S's
    /// folded equation holds. With the randomizers fixed up front, V is
    /// multiplicative over disjoint subsets (bilinearity, for inputs in
    /// G1 × G2 — the precondition of [`PairingAccumulator::push_check`]
    /// that the soundness bound already assumes).
    /// So a failing subset S evaluates only its left half L (the smaller
    /// one, `split_at(len / 2)`) and *derives* its right half as
    /// V(R) = V(S) · conj(V(L)): G_T lies in the cyclotomic subgroup,
    /// where conjugation is inversion, so the derivation costs one F_p^k
    /// multiplication and no Miller loop or final exponentiation. Each
    /// half whose value is not one is bisected further; a failing
    /// singleton is a bad check. For k bad checks among n this is at
    /// most k⌈log₂n⌉ subset evaluations after the first pass, and every
    /// evaluation reuses the engine's cached `G2Prepared` line schedules
    /// (the Miller-loop precomputation is paid once per distinct G2
    /// point, not once per bisection level).
    ///
    /// # Errors
    ///
    /// `Err(indices)` lists every check (by push order) whose equation
    /// does not hold; `Ok(())` means the whole batch verified. An
    /// empty batch is vacuously `Ok(())`.
    pub fn settle_isolating(mut self) -> Result<(), Vec<usize>> {
        let checks = std::mem::take(&mut self.checks);
        let rhos = self.draw_randomizers(checks.len());
        let tower = self.engine.curve().tower();
        let bad = bisect(
            checks.len(),
            |subset| self.subset_value(&checks, &rhos, subset),
            |v| self.engine.gt_is_one(v),
            |parent, left| tower.fpk_mul(parent, &tower.fpk_conj(left)),
        );
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Draws one ~128-bit randomizer per check (transcript order ==
    /// push order, after all points were absorbed).
    fn draw_randomizers(&mut self, n: usize) -> Vec<BigUint> {
        (0..n).map(|_| self.transcript.challenge_short()).collect()
    }

    /// The G_T value V(S) of the subset S selected by `indices`, under
    /// the fixed per-check randomizers: the final exponentiation of S's
    /// folded Miller product, one iff S's folded equation holds. `None`
    /// if it cannot be computed (a failed verification, never a panic).
    fn subset_value(&self, checks: &[Check], rhos: &[BigUint], indices: &[usize]) -> Option<Fpk> {
        let curve = Arc::clone(self.engine.curve());
        let ops = FpOps(Arc::clone(curve.fp()));

        // One G1 aggregation group per distinct G2 point: ρ·A joins B's
        // group, −ρ·C joins D's. A pairing whose G1 or G2 side is the
        // identity contributes the GT identity and drops out here.
        let mut g2s: Vec<Affine<Fq>> = Vec::new();
        let mut groups: Vec<(Vec<Affine<Fp>>, Vec<BigUint>)> = Vec::new();
        let mut push_term = |q: &Affine<Fq>, p: Affine<Fp>, rho: BigUint| {
            if q.infinity || p.infinity {
                return;
            }
            let idx = match g2s.iter().position(|seen| seen == q) {
                Some(idx) => idx,
                None => {
                    g2s.push(q.clone());
                    groups.push((Vec::new(), Vec::new()));
                    g2s.len() - 1
                }
            };
            groups[idx].0.push(p);
            groups[idx].1.push(rho);
        };
        for &i in indices {
            let (Some(check), Some(rho)) = (checks.get(i), rhos.get(i)) else {
                return None;
            };
            push_term(&check.b, check.a.clone(), rho.clone());
            push_term(&check.d, affine_neg(&ops, &check.c), rho.clone());
        }

        // Groups pair one scalar per point by construction, so the MSM
        // length check cannot fail; treat the impossible error as a
        // failed verification rather than aborting.
        let aggs = curve.g1_msm_short_groups(&groups).ok()?;
        let pairs: Vec<(Affine<Fp>, Arc<G2Prepared>)> = g2s
            .iter()
            .zip(aggs)
            .filter(|(_, agg)| !agg.infinity)
            .map(|(q, agg)| (agg, self.engine.prepare_g2(q)))
            .collect();
        Some(self.engine.multi_pair_prepared(&pairs))
    }
}

/// Names the failing members of `0..n` by bisection over a subset value
/// in a group: `value(S)` is S's value (`None` if it cannot be
/// computed), `is_one` tests for the identity, and `divide(V(S), V(L))`
/// is V(S)·V(L)⁻¹. Values must be multiplicative over disjoint subsets,
/// with the identity for a passing member.
///
/// The whole set is evaluated first; a set whose value is one has no
/// failing member. A failing subset S evaluates only its left half L of
/// `split_at(len / 2)` and derives the right half's value by `divide`,
/// so each failing subset of two or more members costs one evaluation.
/// Halves whose value is not one are split further, down to failing
/// singletons. A subset whose value could not be computed counts as
/// failing and has both halves evaluated directly. Returns the failing
/// members in ascending order.
fn bisect<V>(
    n: usize,
    mut value: impl FnMut(&[usize]) -> Option<V>,
    is_one: impl Fn(&V) -> bool,
    divide: impl Fn(&V, &V) -> V,
) -> Vec<usize> {
    let passes = |v: &Option<V>| v.as_ref().is_some_and(&is_one);
    let all: Vec<usize> = (0..n).collect();
    let whole = value(&all);
    if passes(&whole) {
        return Vec::new();
    }
    let mut bad = Vec::new();
    // Depth-first; only failing subsets are split further.
    let mut stack = vec![(all, whole)];
    while let Some((subset, v)) = stack.pop() {
        if subset.len() == 1 {
            bad.extend(subset);
            continue;
        }
        let (left, right) = subset.split_at(subset.len() / 2);
        let v_left = value(left);
        let v_right = match (&v, &v_left) {
            (Some(parent), Some(l)) => Some(divide(parent, l)),
            _ => value(right),
        };
        for (half, v) in [(left, v_left), (right, v_right)] {
            if !passes(&v) {
                stack.push((half.to_vec(), v));
            }
        }
    }
    bad.sort_unstable();
    bad
}

#[cfg(test)]
mod tests {
    use super::bisect;

    /// ⌈log₂n⌉ for n ≥ 1.
    fn ceil_log2(n: usize) -> usize {
        n.next_power_of_two().trailing_zeros() as usize
    }

    /// Runs the bisection on a toy group — u64 under wrapping addition,
    /// bad check i worth `1 << i`, good checks worth 0, so no subset of
    /// bad checks cancels — and returns the named checks and the number
    /// of subset evaluations after the first pass.
    fn toy(n: usize, bad: &[usize], computable: impl Fn(&[usize]) -> bool) -> (Vec<usize>, usize) {
        let mut evaluations = 0usize;
        let found = bisect(
            n,
            |subset| {
                evaluations += 1;
                computable(subset).then(|| {
                    subset
                        .iter()
                        .filter(|i| bad.contains(i))
                        .fold(0u64, |v, &i| v.wrapping_add(1 << i))
                })
            },
            |v| *v == 0,
            |parent, left| parent.wrapping_sub(*left),
        );
        (found, evaluations - 1)
    }

    fn assert_exact(n: usize, bad: &[usize]) {
        let (found, after_first) = toy(n, bad, |_| true);
        assert_eq!(found, bad, "n = {n}");
        let bound = bad.len() * ceil_log2(n);
        assert!(
            after_first <= bound,
            "n = {n}, bad = {bad:?}: {after_first} evaluations > k⌈log₂n⌉ = {bound}"
        );
    }

    #[test]
    fn names_every_fault_set_of_up_to_two_within_the_bound() {
        for n in 1..=12 {
            assert_exact(n, &[]);
            for i in 0..n {
                assert_exact(n, &[i]);
                for j in i + 1..n {
                    assert_exact(n, &[i, j]);
                }
            }
        }
        for i in 0..33 {
            assert_exact(33, &[i]);
        }
    }

    #[test]
    fn all_bad_evaluates_each_internal_node_once() {
        let all: Vec<usize> = (0..33).collect();
        assert_exact(33, &all);
        // A bisection tree over n leaves has n − 1 internal nodes, and
        // each costs exactly one evaluation.
        let (_, after_first) = toy(33, &all, |_| true);
        assert_eq!(after_first, 32);
    }

    #[test]
    fn an_uncomputable_subset_fails_closed() {
        // The whole set's value is missing: it counts as failing and both
        // halves are evaluated directly, which still names the bad set.
        let (found, after_first) = toy(8, &[5], |s| s.len() != 8);
        assert_eq!(found, [5]);
        assert_eq!(after_first, 4);
        // A missing left half counts as failing, and its right sibling is
        // evaluated directly: check 4 is named though it would pass.
        let (found, _) = toy(8, &[5], |s| s != [4]);
        assert_eq!(found, [4, 5]);
    }
}
