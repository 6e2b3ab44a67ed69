//! The BLS serving workloads: batches of `(message, signature, key)`
//! checks verified from wire bytes to a verdict.
//!
//! A check is `e(σ, G2) = e(H(m), pk)` with `σ = sk·H(m)` in G1 and `pk`
//! in G2. The server decodes each signature (and, on `bls_wire`, each
//! public key) with the strict decoder, hashes the message, pushes the
//! check onto a pairing accumulator and settles the batch. On
//! `bls_registry` the keys are decoded once at set-up, and a batch whose
//! decoding rejected an input is settled in isolating mode, which must
//! name exactly the tampered check.

use crate::gen::{malformed_g1, Reject, Rng};
use crate::trace::Ctx;
use crate::workload::{Class, Workload};
use finesse_curves::{
    affine_neg, g2_point_key, spec_by_name, Affine, Compression, Curve, DecodeError, FpOps,
    PointKey,
};
use finesse_ff::{BigUint, Fp, Fq};
use finesse_pairing::{G2Prepared, PairingAccumulator, PairingEngine};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

pub struct Shape {
    pub curve: &'static str,
    /// Checks per request.
    pub batch: usize,
    /// Signers (`bls_wire`) or registered keys (`bls_registry`).
    pub keys: usize,
    /// Keys decoded once at set-up rather than sent with every check.
    pub registry: bool,
    /// Distinct batches generated; requests cycle through them.
    pub pool: usize,
    /// Every `faulty_every`-th batch carries one tampered signature and
    /// one malformed encoding (0: none).
    pub faulty_every: usize,
    pub warmups: usize,
    pub threads: usize,
}

impl Shape {
    pub fn wire() -> Shape {
        Shape {
            curve: "BLS12-381",
            batch: 32,
            keys: 4,
            registry: false,
            pool: 8,
            faulty_every: 0,
            warmups: 2,
            threads: 1,
        }
    }

    pub fn registry() -> Shape {
        Shape {
            curve: "BLS12-381",
            batch: 32,
            keys: 256,
            registry: true,
            pool: 32,
            faulty_every: 4,
            warmups: 4,
            threads: 2,
        }
    }
}

struct Item {
    msg: Vec<u8>,
    sig: Vec<u8>,
    key: usize,
}

struct Batch {
    items: Vec<Item>,
    malformed: Option<(usize, Reject)>,
    tampered: Option<usize>,
}

pub struct Bls {
    shape: Shape,
    pk_bytes: Vec<Vec<u8>>,
    batches: Vec<Batch>,
    seed: u64,
}

impl Bls {
    /// Generates the keys and the request pool for `seed` on a client
    /// curve instance of its own; the server side builds its own at
    /// set-up.
    pub fn new(shape: Shape, seed: u64) -> Result<Bls, String> {
        let client = Curve::try_by_name(shape.curve).map_err(|e| e.to_string())?;
        // A batch holds at most this many distinct G2 points (keys plus
        // the generator), so one batch never evicts its own prepared
        // points and the traced replay observes the cache exactly.
        let cache_entries = PairingEngine::new(Arc::clone(&client))
            .prepared_cache_stats()
            .1;
        let mut rng = Rng::new(seed, "bls.keys");
        let sks: Vec<BigUint> = (0..shape.keys).map(|_| rng.scalar(client.r())).collect();
        let pk_bytes = sks
            .iter()
            .map(|sk| {
                let pk = client.g2_mul(client.g2_generator(), sk);
                client.encode_g2(&pk, Compression::Compressed)
            })
            .collect();
        let rotation = Reject::rotation(&client);
        let mut rng = Rng::new(seed, "bls.batches");
        let mut batches = Vec::with_capacity(shape.pool);
        let mut faulty_seen = 0;
        for b in 0..shape.pool {
            let mut keys: Vec<usize> = Vec::with_capacity(shape.batch);
            let mut distinct = 0;
            for j in 0..shape.batch {
                let mut k = rng.below(shape.keys);
                if !keys.contains(&k) {
                    if distinct + 1 == cache_entries {
                        k = keys[rng.below(j)];
                    } else {
                        distinct += 1;
                    }
                }
                keys.push(k);
            }
            let mut items = Vec::with_capacity(shape.batch);
            let mut sigs = Vec::with_capacity(shape.batch);
            for &key in &keys {
                let msg = rng.bytes(32);
                let h = client.hash_to_g1(&msg).map_err(|e| e.to_string())?;
                let sig = client.g1_mul(&h, &sks[key]);
                items.push(Item {
                    msg,
                    sig: client.encode_g1(&sig, Compression::Compressed),
                    key,
                });
                sigs.push(sig);
            }
            let faulty = shape.faulty_every > 0 && b % shape.faulty_every == shape.faulty_every - 1;
            let (mut malformed, mut tampered) = (None, None);
            if faulty && shape.batch >= 2 {
                let t = rng.below(shape.batch);
                let u = (t + 1 + rng.below(shape.batch - 1)) % shape.batch;
                // Still a valid subgroup point, so it decodes and only
                // the pairing check can catch it.
                let forged = client.g1_add(&sigs[t], client.g1_generator());
                items[t].sig = client.encode_g1(&forged, Compression::Compressed);
                let kind = rotation[faulty_seen % rotation.len()];
                faulty_seen += 1;
                items[u].sig = malformed_g1(&client, kind, &items[u].sig, &mut rng);
                malformed = Some((u, kind));
                tampered = Some(t);
            }
            batches.push(Batch {
                items,
                malformed,
                tampered,
            });
        }
        Ok(Bls {
            shape,
            pk_bytes,
            batches,
            seed,
        })
    }

    fn batch(&self, i: usize) -> &Batch {
        &self.batches[i % self.batches.len()]
    }

    /// Every generated request, as bytes (for the determinism test).
    #[cfg(test)]
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.pk_bytes.concat();
        for b in &self.batches {
            for item in &b.items {
                out.extend(&item.msg);
                out.extend(&item.sig);
                out.extend((item.key as u64).to_le_bytes());
            }
        }
        out
    }
}

pub struct Server {
    curve: Arc<Curve>,
    engine: PairingEngine,
    registry: Vec<Affine<Fq>>,
    /// The prepared point the replay last saw per G2 key. The server
    /// holds no strong reference, so a dead or different `Arc` means
    /// the library rebuilt the schedule: a cache miss.
    observed: HashMap<PointKey, Weak<G2Prepared>>,
    /// Replay randomizers (same width as the accumulator's).
    rng: Rng,
}

pub struct Verdict {
    /// Checks whose encoding was rejected, with the decoder's reason.
    rejected: Vec<(usize, DecodeError)>,
    /// Checks the settle found invalid (all pushed ones when a plain
    /// settle fails).
    invalid: Vec<usize>,
    /// The decoded `(σ, H(m), pk)` of every pushed check, for the replay.
    checks: Vec<(Affine<Fp>, Affine<Fp>, Affine<Fq>)>,
}

fn reject_counter(e: &DecodeError) -> &'static str {
    match Reject::of(e) {
        Some(Reject::Length) => "curves.decode_reject.Length",
        Some(Reject::NonCanonicalField) => "curves.decode_reject.NonCanonicalField",
        Some(Reject::NotOnCurve) => "curves.decode_reject.NotOnCurve",
        Some(Reject::NotInSubgroup) => "curves.decode_reject.NotInSubgroup",
        None => "curves.decode_reject.other",
    }
}

impl Workload for Bls {
    type State = Server;
    type Response = Verdict;

    fn threads(&self) -> usize {
        self.shape.threads
    }

    fn cycle(&self) -> usize {
        self.shape.faulty_every.max(1)
    }

    fn warmups(&self) -> usize {
        self.shape.warmups
    }

    fn primary(&self) -> Class {
        Class::Verify
    }

    fn secondary(&self) -> Class {
        if self.shape.faulty_every > 0 {
            Class::Isolate
        } else {
            Class::Verify
        }
    }

    fn setup(&self) -> Result<Server, String> {
        let spec = spec_by_name(self.shape.curve).ok_or("unknown curve")?;
        let curve = Arc::new(Curve::from_spec(spec).map_err(|e| e.to_string())?);
        let registry = if self.shape.registry {
            self.pk_bytes
                .iter()
                .map(|b| curve.decode_g2(b))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("registry key rejected: {e}"))?
        } else {
            Vec::new()
        };
        Ok(Server {
            engine: PairingEngine::new(Arc::clone(&curve)),
            curve,
            registry,
            observed: HashMap::new(),
            rng: Rng::new(self.seed, "bls.replay"),
        })
    }

    fn serve(&self, st: &mut Server, i: usize, cx: Ctx<'_>) -> Result<(Class, Verdict), String> {
        let curve = &st.curve;
        let g2 = curve.g2_generator();
        let mut acc = PairingAccumulator::new(&st.engine);
        let mut rejected = Vec::new();
        let mut pushed = Vec::new();
        let mut checks = Vec::new();
        for (j, item) in self.batch(i).items.iter().enumerate() {
            let sig = cx.span("curves.decode_g1", |_| curve.decode_g1(&item.sig));
            let pk = if self.shape.registry {
                Ok(st.registry[item.key].clone())
            } else {
                cx.span("curves.decode_g2", |_| {
                    curve.decode_g2(&self.pk_bytes[item.key])
                })
            };
            let (sig, pk) = match (sig, pk) {
                (Ok(sig), Ok(pk)) => (sig, pk),
                (Err(e), _) | (_, Err(e)) => {
                    cx.count(reject_counter(&e), 1.0);
                    rejected.push((j, e));
                    continue;
                }
            };
            let h = cx
                .span("curves.hash_to_g1", |_| curve.hash_to_g1(&item.msg))
                .map_err(|e| e.to_string())?;
            cx.span("pairing.push_check", |_| acc.push_check(&sig, g2, &h, &pk));
            pushed.push(j);
            checks.push((sig, h, pk));
        }
        let (class, invalid) = if rejected.is_empty() {
            let ok = cx.span("pairing.settle", |_| acc.settle());
            (Class::Verify, if ok { Vec::new() } else { pushed })
        } else {
            let bad = cx
                .span("pairing.settle_isolating", |_| acc.settle_isolating())
                .err()
                .unwrap_or_default();
            let invalid = bad
                .iter()
                .map(|&k| pushed.get(k).copied().unwrap_or(usize::MAX));
            (Class::Isolate, invalid.collect())
        };
        Ok((
            class,
            Verdict {
                rejected,
                invalid,
                checks,
            },
        ))
    }

    fn check(&self, i: usize, v: &Verdict) -> Result<(), String> {
        let batch = self.batch(i);
        let got: Vec<(usize, Option<Reject>)> = v
            .rejected
            .iter()
            .map(|(j, e)| (*j, Reject::of(e)))
            .collect();
        let want: Vec<(usize, Option<Reject>)> =
            batch.malformed.iter().map(|&(j, r)| (j, Some(r))).collect();
        if got != want {
            return Err(format!("decode rejected {got:?}, expected {want:?}"));
        }
        let want: Vec<usize> = batch.tampered.into_iter().collect();
        if v.invalid != want {
            return Err(format!(
                "settle found {:?} invalid, expected {want:?}",
                v.invalid
            ));
        }
        Ok(())
    }

    /// Replays the settle's first pass — short-scalar MSMs per distinct
    /// G2 point, prepared lookups, Miller loops (on the workload's
    /// threads), one final exponentiation — under randomizers of the
    /// same width, and demands the same verdict.
    fn replay(&self, st: &mut Server, _i: usize, v: &Verdict, cx: Ctx<'_>) -> Result<(), String> {
        let Server {
            curve,
            engine,
            observed,
            rng,
            ..
        } = st;
        let settled = v.invalid.is_empty();
        cx.span("replay.settle", |cx| {
            let ops = FpOps(Arc::clone(curve.fp()));
            let g2 = curve.g2_generator();
            // The accumulator's grouping: one G1 aggregate per distinct
            // G2 point, in first-seen order.
            let mut g2s: Vec<&Affine<Fq>> = Vec::new();
            let mut groups: Vec<(Vec<Affine<Fp>>, Vec<BigUint>)> = Vec::new();
            for (sig, h, pk) in &v.checks {
                let rho = rng.short_scalar();
                for (q, p) in [(g2, sig.clone()), (pk, affine_neg(&ops, h))] {
                    let k = match g2s.iter().position(|s| *s == q) {
                        Some(k) => k,
                        None => {
                            g2s.push(q);
                            groups.push((Vec::new(), Vec::new()));
                            g2s.len() - 1
                        }
                    };
                    groups[k].0.push(p);
                    groups[k].1.push(rho.clone());
                }
            }
            let aggs = cx
                .span("curves.msm_short", |_| curve.g1_msm_short_groups(&groups))
                .map_err(|e| e.to_string())?;
            let mut pairs = Vec::new();
            for (q, agg) in g2s.into_iter().zip(aggs) {
                if agg.infinity {
                    continue;
                }
                let prep = cx.span("pairing.prepare_g2", |_| engine.prepare_g2(q));
                let key = g2_point_key(q);
                let hit = observed
                    .get(&key)
                    .and_then(Weak::upgrade)
                    .is_some_and(|seen| Arc::ptr_eq(&seen, &prep));
                if !hit {
                    cx.count("pairing.prepare_g2.misses", 1.0);
                    cx.span("pairing.prepare_g2.miss_build", |_| {
                        std::hint::black_box(G2Prepared::new(curve, q))
                    });
                }
                observed.insert(key, Arc::downgrade(&prep));
                pairs.push((agg, prep));
            }
            let tower = curve.tower();
            let product = finesse_parallel::par_map_chunks(&pairs, 1, |chunk| {
                chunk
                    .iter()
                    .map(|(p, prep)| {
                        cx.span("pairing.miller_loop", |_| {
                            engine.miller_loop_prepared(p, prep)
                        })
                    })
                    .reduce(|a, b| tower.fpk_mul(&a, &b))
            })
            .into_iter()
            .flatten()
            .reduce(|a, b| tower.fpk_mul(&a, &b))
            .unwrap_or_else(|| tower.fpk_one());
            let f = cx.span("pairing.final_exp", |_| {
                engine.final_exponentiation(&product)
            });
            let ok = cx.span("pairing.gt_is_one", |_| engine.gt_is_one(&f));
            if ok == settled {
                Ok(())
            } else {
                Err(format!("replayed verdict {ok}, settle said {settled}"))
            }
        })
    }
}
