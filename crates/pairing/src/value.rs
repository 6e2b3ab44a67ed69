//! The reference pairing engine: [`PairingFlow`] evaluated on concrete
//! field elements.
//!
//! This plays the role that MCL/MIRACL/RELIC play for the paper's
//! validation flow — a known-good software pairing the compiled
//! accelerator programs are cross-checked against (here additionally
//! backed by the fully independent [`crate::oracle`] implementation).

use crate::flow::{
    emit_final_exponentiation, emit_miller_loop, emit_miller_loop_with_lines, emit_pairing,
    PairingFlow, ReplayPair,
};
use crate::prepared::G2Prepared;
use finesse_curves::cache::{g2_point_key, PointKeyedCache};
use finesse_curves::{Affine, Curve};
use finesse_ff::{BigUint, Fp, Fpk, Fq};
use std::sync::{Arc, Mutex};

/// A [`PairingFlow`] that computes on real field elements.
pub struct ValueFlow<'c> {
    curve: &'c Curve,
    p: (Fp, Fp),
    q: (Fq, Fq),
    output: Option<Fpk>,
}

impl<'c> ValueFlow<'c> {
    /// Creates a flow bound to concrete (finite) input points.
    ///
    /// # Panics
    ///
    /// Panics if either point is at infinity — callers handle identity
    /// inputs before entering the flow (see [`PairingEngine::pair`]).
    pub fn new(curve: &'c Curve, p: &Affine<Fp>, q: &Affine<Fq>) -> Self {
        assert!(
            !p.infinity && !q.infinity,
            "flow inputs must be finite points"
        );
        ValueFlow {
            curve,
            p: (p.x.clone(), p.y.clone()),
            q: (q.x.clone(), q.y.clone()),
            output: None,
        }
    }

    /// The recorded output, if [`PairingFlow::output`] ran.
    pub fn take_output(&mut self) -> Option<Fpk> {
        self.output.take()
    }
}

impl PairingFlow for ValueFlow<'_> {
    type Fp = Fp;
    type Fq = Fq;
    type Fpk = Fpk;

    fn input_p(&mut self) -> (Fp, Fp) {
        self.p.clone()
    }
    fn input_q(&mut self) -> (Fq, Fq) {
        self.q.clone()
    }
    fn output(&mut self, f: &Fpk) {
        self.output = Some(f.clone());
    }
    fn fq_constant(&mut self, value: &Fq, _label: &str) -> Fq {
        value.clone()
    }
    fn fq_add(&mut self, a: &Fq, b: &Fq) -> Fq {
        self.curve.tower().fq_add(a, b)
    }
    fn fq_sub(&mut self, a: &Fq, b: &Fq) -> Fq {
        self.curve.tower().fq_sub(a, b)
    }
    fn fq_neg(&mut self, a: &Fq) -> Fq {
        self.curve.tower().fq_neg(a)
    }
    fn fq_mul(&mut self, a: &Fq, b: &Fq) -> Fq {
        self.curve.tower().fq_mul(a, b)
    }
    fn fq_sqr(&mut self, a: &Fq) -> Fq {
        self.curve.tower().fq_sqr(a)
    }
    fn fq_muli(&mut self, a: &Fq, k: u64) -> Fq {
        self.curve.tower().fq_mul_small(a, k)
    }
    fn fq_mul_fp(&mut self, a: &Fq, s: &Fp) -> Fq {
        self.curve.tower().fq_mul_fp(a, s)
    }
    fn fq_frob(&mut self, a: &Fq, j: usize) -> Fq {
        self.curve.tower().fq_frob(a, j)
    }
    fn fpk_one(&mut self) -> Fpk {
        self.curve.tower().fpk_one()
    }
    fn fpk_mul(&mut self, a: &Fpk, b: &Fpk) -> Fpk {
        self.curve.tower().fpk_mul(a, b)
    }
    fn fpk_sqr(&mut self, a: &Fpk) -> Fpk {
        self.curve.tower().fpk_sqr(a)
    }
    fn fpk_cyclo_sqr(&mut self, a: &Fpk) -> Fpk {
        self.curve.tower().fpk_cyclotomic_sqr(a)
    }
    fn fpk_conj(&mut self, a: &Fpk) -> Fpk {
        self.curve.tower().fpk_conj(a)
    }
    fn fpk_inv(&mut self, a: &Fpk) -> Fpk {
        self.curve.tower().fpk_inv(a)
    }
    fn fpk_frob(&mut self, a: &Fpk, j: usize) -> Fpk {
        self.curve.tower().fpk_frob(a, j)
    }
    fn fpk_sparse(&mut self, coeffs: [Option<Fq>; 6]) -> Fpk {
        self.curve.tower().fpk_from_sparse(coeffs)
    }
    fn fpk_mul_sparse(&mut self, a: &Fpk, coeffs: [Option<Fq>; 6]) -> Fpk {
        // Dedicated 13-mul line kernel (bit-identical to densify + mul).
        self.curve.tower().fpk_mul_sparse(a, &coeffs)
    }
}

/// The optimal-Ate pairing engine for a curve.
///
/// # Examples
///
/// ```no_run
/// use finesse_curves::Curve;
/// use finesse_pairing::PairingEngine;
/// use finesse_ff::BigUint;
///
/// let curve = Curve::by_name("BN254N");
/// let engine = PairingEngine::new(curve.clone());
/// let g1 = curve.g1_generator();
/// let g2 = curve.g2_generator();
/// let e = engine.pair(g1, g2);
/// // bilinearity: e([2]P, Q) = e(P, Q)²
/// let two = BigUint::from_u64(2);
/// let lhs = engine.pair(&curve.g1_mul(g1, &two), g2);
/// assert_eq!(lhs, engine.gt_pow(&e, &two));
/// ```
pub struct PairingEngine {
    curve: Arc<Curve>,
    /// Bounded LRU cache of prepared G2 points, keyed by canonical
    /// coordinates. Serving workloads pair against a handful of
    /// long-lived G2 points (public keys, the generator, a KZG `[τ]₂`);
    /// caching their line schedules drops the Q-side of every repeat
    /// Miller loop.
    prepared: Mutex<PointKeyedCache<G2Prepared>>,
}

/// Prepared-point cache bound: generous for real verifier key sets (a
/// few long-lived G2 points) while keeping worst-case memory at
/// `capacity × schedule length × |F_q|` even if an adversarial workload
/// cycles through unbounded distinct points.
const G2_PREPARED_CACHE_CAPACITY: usize = 32;

impl PairingEngine {
    /// Creates an engine for a curve.
    pub fn new(curve: Arc<Curve>) -> Self {
        PairingEngine {
            curve,
            prepared: Mutex::new(PointKeyedCache::new(G2_PREPARED_CACHE_CAPACITY)),
        }
    }

    /// The engine's curve.
    pub fn curve(&self) -> &Arc<Curve> {
        &self.curve
    }

    /// The prepared G2 point for `q`, served from the engine's bounded
    /// cache (built on first use, `Arc`-shared afterwards; least-recently
    /// used entries are evicted at capacity). Both
    /// [`PairingEngine::multi_pair`] and the
    /// [`crate::PairingAccumulator`] route through this, so a repeat
    /// verifier's Miller loops skip all per-call line computation.
    pub fn prepare_g2(&self, q: &Affine<Fq>) -> Arc<G2Prepared> {
        let key = g2_point_key(q);
        // Recover from a poisoned lock: the cache only holds fully built
        // schedules, so its state is valid even after a panic elsewhere.
        let mut cache = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cache.get_or_insert_with(key, || G2Prepared::new(&self.curve, q))
    }

    /// `(len, capacity)` of the prepared-point cache — observability for
    /// tests and capacity planning, not a stability guarantee.
    pub fn prepared_cache_stats(&self) -> (usize, usize) {
        let cache = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (cache.len(), cache.capacity())
    }

    /// Computes the optimal-Ate pairing `e(P, Q)`.
    ///
    /// Identity inputs map to the identity of GT. For BLS curves the
    /// result is normalised as `e(P,Q)^(3(p^k−1)/r)` (HKT convention, see
    /// [`crate::flow::emit_final_exponentiation`]).
    pub fn pair(&self, p: &Affine<Fp>, q: &Affine<Fq>) -> Fpk {
        if p.infinity || q.infinity {
            return self.curve.tower().fpk_one();
        }
        let mut flow = ValueFlow::new(&self.curve, p, q);
        emit_pairing(&self.curve, &mut flow);
        // emit_pairing always emits an Output step; the GT identity is
        // the safe value if that invariant ever breaks.
        flow.take_output()
            .unwrap_or_else(|| self.curve.tower().fpk_one())
    }

    /// Product of pairings `Π e(P_i, Q_i)` with a single shared final
    /// exponentiation — the standard optimisation for verifiers that
    /// check pairing-product equations (BLS verify, Groth16, KZG).
    ///
    /// Repeated G2 inputs are deduplicated: each *distinct* Q gets one
    /// prepared line schedule (served from the engine's bounded cache,
    /// see [`PairingEngine::prepare_g2`]), and
    /// [`PairingEngine::multi_pair_prepared`] replays the schedule against
    /// each P — identical Q points share all Q-side work even without an
    /// explicit [`G2Prepared`] handle, and the replayed loops are
    /// bit-identical to the interleaved ones.
    ///
    /// The pairing is bilinear only on G1 × G2, and nothing here checks
    /// membership: decode inputs with
    /// [`Curve::decode_g1`](finesse_curves::Curve::decode_g1) /
    /// [`Curve::decode_g2`](finesse_curves::Curve::decode_g2), or check
    /// them with [`Curve::validate_g1`](finesse_curves::Curve::validate_g1)
    /// / [`Curve::validate_g2`](finesse_curves::Curve::validate_g2).
    pub fn multi_pair(&self, pairs: &[(Affine<Fp>, Affine<Fq>)]) -> Fpk {
        // Dedupe the Q sides serially up front, so the cache lock never
        // crosses into the parallel region.
        let mut distinct: Vec<(&Affine<Fq>, Arc<G2Prepared>)> = Vec::new();
        let prepared: Vec<(Affine<Fp>, Arc<G2Prepared>)> = pairs
            .iter()
            .filter(|(p, q)| !p.infinity && !q.infinity)
            .map(|(p, q)| {
                let prep = match distinct.iter().find(|(seen, _)| *seen == q) {
                    Some((_, prep)) => Arc::clone(prep),
                    None => {
                        let prep = self.prepare_g2(q);
                        distinct.push((q, Arc::clone(&prep)));
                        prep
                    }
                };
                (p.clone(), prep)
            })
            .collect();
        self.multi_pair_prepared(&prepared)
    }

    /// [`PairingEngine::multi_pair`] over caller-held prepared points —
    /// the deferred-accumulator hot path, where the Q-side schedules are
    /// already in hand and only the replay loops remain. Identity inputs
    /// (either side) contribute the GT identity. This is the one
    /// multi-pairing fold: `multi_pair` prepares its Q sides and calls it.
    ///
    /// The pairs are split into one contiguous share per thread of
    /// [`finesse_parallel::current_threads`], and each share runs as one
    /// multi-Miller loop ([`emit_miller_loop_with_lines`]): one Fpk
    /// squaring chain per share, not one per pair. At one thread the
    /// whole product is one chain; with no more pairs than threads each
    /// pair keeps its own thread. The share products are folded **in
    /// input order** and the single final exponentiation stays serial.
    /// Field multiplication in Fpk is commutative and associative, so the
    /// result is bit-identical to the product of per-pair Miller loops at
    /// any thread count. Inputs must lie in G1 × G2, as for
    /// [`PairingEngine::multi_pair`].
    pub fn multi_pair_prepared(&self, pairs: &[(Affine<Fp>, Arc<G2Prepared>)]) -> Fpk {
        let tower = self.curve.tower();
        let live: Vec<(&Affine<Fp>, &G2Prepared)> = pairs
            .iter()
            .filter(|(p, prep)| !p.infinity && !prep.is_infinity())
            .map(|(p, prep)| (p, prep.as_ref()))
            .collect();
        let product =
            finesse_parallel::par_map_chunks(&live, 1, |share| self.replay_miller_loops(share))
                .into_iter()
                .reduce(|a, b| tower.fpk_mul(&a, &b));
        match product {
            Some(product) => self.final_exponentiation(&product),
            None => tower.fpk_one(),
        }
    }

    /// Checks a two-term pairing equation `e(P1, Q1) == e(P2, Q2)` via
    /// one product `e(P1, Q1)·e(−P2, Q2) == 1` (half the final
    /// exponentiations of the naive check).
    pub fn pairing_equation_holds(
        &self,
        p1: &Affine<Fp>,
        q1: &Affine<Fq>,
        p2: &Affine<Fp>,
        q2: &Affine<Fq>,
    ) -> bool {
        let ops = finesse_curves::FpOps(std::sync::Arc::clone(self.curve.fp()));
        let neg_p2 = finesse_curves::point::affine_neg(&ops, p2);
        let prod = self.multi_pair(&[(p1.clone(), q1.clone()), (neg_p2, q2.clone())]);
        self.gt_is_one(&prod)
    }

    /// The Miller loop alone (no final exponentiation).
    pub fn miller_loop(&self, p: &Affine<Fp>, q: &Affine<Fq>) -> Fpk {
        if p.infinity || q.infinity {
            return self.curve.tower().fpk_one();
        }
        let mut flow = ValueFlow::new(&self.curve, p, q);
        let (px, py) = flow.input_p();
        let (qx, qy) = flow.input_q();
        emit_miller_loop(&self.curve, &mut flow, &px, &py, &qx, &qy)
    }

    /// The Miller loop against a prepared G2 point: replays the recorded
    /// line schedule against `p`, bit-identical to
    /// [`PairingEngine::miller_loop`] on the same inputs.
    pub fn miller_loop_prepared(&self, p: &Affine<Fp>, prep: &G2Prepared) -> Fpk {
        if p.infinity || prep.is_infinity() {
            return self.curve.tower().fpk_one();
        }
        self.replay_miller_loops(&[(p, prep)])
    }

    /// One multi-Miller loop over finite pairs: every pair's schedule
    /// replayed against its G1 point on one shared squaring chain.
    fn replay_miller_loops(&self, pairs: &[(&Affine<Fp>, &G2Prepared)]) -> Fpk {
        let Some((p, prep)) = pairs.first() else {
            return self.curve.tower().fpk_one();
        };
        let mut flow = ValueFlow::new(&self.curve, p, prep.point());
        let inputs: Vec<ReplayPair<'_, ValueFlow<'_>>> = pairs
            .iter()
            .map(|(p, prep)| (&p.x, &p.y, prep.lines()))
            .collect();
        emit_miller_loop_with_lines(&self.curve, &mut flow, &inputs)
    }

    /// The final exponentiation alone.
    pub fn final_exponentiation(&self, f: &Fpk) -> Fpk {
        let g1 = self.curve.g1_generator().clone();
        let g2 = self.curve.g2_generator().clone();
        let mut flow = ValueFlow::new(&self.curve, &g1, &g2);
        emit_final_exponentiation(&self.curve, &mut flow, f)
    }

    /// GT exponentiation.
    pub fn gt_pow(&self, g: &Fpk, e: &BigUint) -> Fpk {
        self.curve.tower().fpk_pow(g, e)
    }

    /// GT multiplication.
    pub fn gt_mul(&self, a: &Fpk, b: &Fpk) -> Fpk {
        self.curve.tower().fpk_mul(a, b)
    }

    /// True iff `g` is the GT identity.
    pub fn gt_is_one(&self, g: &Fpk) -> bool {
        self.curve.tower().fpk_is_one(g)
    }
}
