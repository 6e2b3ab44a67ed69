//! Bounded point-keyed caching for per-point precomputations.
//!
//! Production verifiers see the same handful of curve points over and
//! over — long-lived BLS public keys, a KZG SRS element `[τ]₂`, the G2
//! generator itself — and several layers want to attach expensive
//! precomputed state to them (Miller-loop line schedules, fixed-base
//! tables). [`PointKeyedCache`] is the shared plumbing: a small
//! LRU-evicting map from a point's *canonical coordinates* to an
//! `Arc`-shared value, so repeat lookups hand out the same precomputation
//! without rebuilding it and memory stays bounded no matter how many
//! distinct points an adversarial workload cycles through.
//!
//! Keys are built with [`g1_point_key`] / [`g2_point_key`] from the
//! canonical (non-Montgomery) residues of each coordinate, with explicit
//! length framing per limb run — two points collide iff they are the same
//! group element, independent of any internal representation. The one
//! cache keyed otherwise is [`Curve::decode_g2`](crate::Curve::decode_g2)'s,
//! whose key is the exact encoding: a length word, then the bytes packed
//! into `u64` words.

use crate::point::Affine;
use finesse_ff::{Fp, Fq};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A cache key: canonical coordinate limbs with length framing.
pub type PointKey = Vec<u64>;

/// Appends one base-field element to a key: canonical limb count, then
/// the limbs themselves (length framing keeps concatenations prefix-free).
fn push_fp(key: &mut PointKey, c: &Fp) {
    let limbs = c.to_biguint();
    let limbs = limbs.limbs();
    key.push(limbs.len() as u64);
    key.extend_from_slice(limbs);
}

/// The canonical key of a G1 point. The identity gets a reserved tag no
/// finite point can produce (its coordinate framing would start with a
/// limb count, never `u64::MAX`).
pub fn g1_point_key(p: &Affine<Fp>) -> PointKey {
    if p.infinity {
        return vec![u64::MAX];
    }
    let mut key = Vec::new();
    push_fp(&mut key, &p.x);
    push_fp(&mut key, &p.y);
    key
}

/// The canonical key of a G2 (twist) point: the tower-coefficient count
/// followed by each coefficient of `x` then `y`, length-framed like
/// [`g1_point_key`].
pub fn g2_point_key(q: &Affine<Fq>) -> PointKey {
    if q.infinity {
        return vec![u64::MAX];
    }
    let mut key = vec![q.x.coeffs().len() as u64];
    for c in q.x.coeffs().iter().chain(q.y.coeffs()) {
        push_fp(&mut key, c);
    }
    key
}

/// A bounded map from [`PointKey`]s to `Arc`-shared precomputations with
/// least-recently-used eviction.
///
/// Values are handed out as `Arc<V>`, so an evicted entry stays alive for
/// any caller still holding it — eviction only bounds what the cache
/// itself keeps warm. Lookups and inserts are `O(capacity)` in the worst
/// case (the recency list is a plain deque); capacities here are small
/// (tens of entries), far below where that matters next to the
/// precomputations being cached.
pub struct PointKeyedCache<V> {
    capacity: usize,
    map: HashMap<PointKey, Arc<V>>,
    /// Recency order, least-recently-used at the front.
    order: VecDeque<PointKey>,
}

impl<V> PointKeyedCache<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PointKeyedCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Marks `key` most-recently-used.
    fn touch(&mut self, key: &[u64]) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            // `pos` came from `position` on the same deque, so remove
            // always yields the entry.
            if let Some(k) = self.order.remove(pos) {
                self.order.push_back(k);
            }
        }
    }

    /// The cached value for `key`, if present (refreshes its recency).
    pub fn get(&mut self, key: &[u64]) -> Option<Arc<V>> {
        let hit = self.map.get(key).cloned();
        if hit.is_some() {
            self.touch(key);
        }
        hit
    }

    /// The cached value for `key`, building (and caching) it with `make`
    /// on a miss. Evicts the least-recently-used entry when full.
    pub fn get_or_insert_with(&mut self, key: PointKey, make: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        let value = Arc::new(make());
        self.map.insert(key.clone(), Arc::clone(&value));
        self.order.push_back(key);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_builds_once_and_shares() {
        let mut cache = PointKeyedCache::new(4);
        let mut builds = 0;
        let a = cache.get_or_insert_with(vec![1], || {
            builds += 1;
            "va"
        });
        let b = cache.get_or_insert_with(vec![1], || {
            builds += 1;
            "vb"
        });
        assert_eq!(builds, 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b), "hits share the same allocation");
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let mut cache = PointKeyedCache::new(2);
        cache.get_or_insert_with(vec![1], || 1u32);
        cache.get_or_insert_with(vec![2], || 2);
        // Touch key 1, making key 2 the LRU entry.
        assert!(cache.get(&[1]).is_some());
        cache.get_or_insert_with(vec![3], || 3);
        assert_eq!(cache.len(), 2, "capacity is a hard bound");
        assert!(cache.get(&[1]).is_some(), "recently used survives");
        assert!(cache.get(&[2]).is_none(), "LRU entry was evicted");
        assert!(cache.get(&[3]).is_some());
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut cache = PointKeyedCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.get_or_insert_with(vec![9], || ());
        assert_eq!(cache.len(), 1);
    }
}
