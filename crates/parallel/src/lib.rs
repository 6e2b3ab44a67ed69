//! # finesse-parallel
//!
//! The workspace's one thread-pool idiom: opt-in data parallelism on std
//! scoped threads (the build is offline, so no rayon), shared by the
//! Pippenger MSM shards and short-MSM groups in `finesse-curves`, the
//! parallel Miller loops in `finesse-pairing`, and the design-space sweep
//! in `finesse-dse`.
//!
//! The thread count is a process-wide knob resolved once from the
//! `FINESSE_THREADS` environment variable (falling back to
//! [`std::thread::available_parallelism`]), plus a scoped per-thread
//! override ([`with_threads`]) for tests and scaling benchmarks that
//! need to pin a specific count without touching the process
//! environment. At one thread every entry point degrades to a plain
//! serial call on the calling thread — no spawns, no channels — so
//! `FINESSE_THREADS=1` is an exact serial-execution switch.
//!
//! Determinism contract: [`par_map_chunks`] always returns results in
//! input order, so callers that fold shard results in order (as every
//! in-tree user does) produce the same group/field elements at any
//! thread count; only internal association (and therefore projective
//! representatives) may differ, never canonical values.

use std::cell::Cell;
use std::sync::OnceLock;

/// Parses a `FINESSE_THREADS`-style value: a positive integer wins,
/// anything absent, malformed, or zero falls back.
pub fn parse_threads(value: Option<&str>, fallback: usize) -> usize {
    match value.map(|s| s.trim().parse::<usize>()) {
        Some(Ok(n)) if n > 0 => n,
        _ => fallback.max(1),
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide thread budget: `FINESSE_THREADS` if set to a positive
/// integer, otherwise [`hardware_threads`]. Resolved once per process.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        parse_threads(
            std::env::var("FINESSE_THREADS").ok().as_deref(),
            hardware_threads(),
        )
    })
}

thread_local! {
    /// Scoped override installed by [`with_threads`]; `None` defers to
    /// [`configured_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread count parallel entry points will use right now on this
/// thread: the innermost [`with_threads`] override, else the process
/// configuration. Always at least 1.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
        .max(1)
}

/// Runs `f` with the calling thread's parallelism pinned to `n`
/// (clamped to at least 1), restoring the previous setting afterwards —
/// including on unwind. This is how the bench harness measures
/// scaling-vs-cores and how tests pin the serial path without mutating
/// the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Splits `items` into at most [`current_threads`] contiguous chunks of
/// at least `min_chunk` elements, maps each chunk with `f` on its own
/// scoped thread, and returns the chunk results **in input order**.
///
/// With one thread (or too few items to fill two minimum-size chunks)
/// this is exactly `vec![f(items)]` on the calling thread — the serial
/// fallback the determinism tests pin against. An empty input yields an
/// empty result without calling `f`.
pub fn par_map_chunks<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let workers = current_threads().min(items.len() / min_chunk).max(1);
    if workers == 1 {
        return vec![f(items)];
    }
    let chunk_size = items.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| s.spawn(|| f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Propagate a worker panic to the caller unchanged rather
                // than introducing a new panic site of our own.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Pairwise (binary-tree) reduction of shard results: adjacent pairs
/// combine until one value remains, preserving left-to-right order
/// inside every combine. `None` only for an empty input.
pub fn tree_reduce<T>(mut items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => combine(a, b),
                None => a,
            });
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4"), 2), 4);
        assert_eq!(parse_threads(Some(" 8 "), 2), 8);
        assert_eq!(parse_threads(Some("0"), 2), 2);
        assert_eq!(parse_threads(Some("-3"), 2), 2);
        assert_eq!(parse_threads(Some("lots"), 2), 2);
        assert_eq!(parse_threads(None, 2), 2);
        // A zero fallback still yields a usable count.
        assert_eq!(parse_threads(None, 0), 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(3, || {
            assert_eq!(current_threads(), 3);
            // Nested overrides stack.
            with_threads(1, current_threads)
        });
        assert_eq!(inner, 1);
        assert_eq!(current_threads(), outer);
        // Zero clamps to the serial fallback instead of panicking.
        assert_eq!(with_threads(0, current_threads), 1);
    }

    #[test]
    fn par_map_chunks_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: u64 = items.iter().sum();
        for threads in [1, 2, 3, 4, 7] {
            let sums = with_threads(threads, || {
                par_map_chunks(&items, 1, |chunk| chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.iter().sum::<u64>(), serial, "threads = {threads}");
            // Chunks come back in input order: re-mapping first elements
            // must be increasing.
            let firsts = with_threads(threads, || par_map_chunks(&items, 1, |chunk| chunk[0]));
            assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn par_map_chunks_serial_fallback_is_one_chunk() {
        let items = [1u8, 2, 3];
        let got = with_threads(1, || par_map_chunks(&items, 1, <[u8]>::to_vec));
        assert_eq!(got, vec![vec![1, 2, 3]]);
        // Below two minimum chunks the call stays serial too.
        let got = with_threads(8, || par_map_chunks(&items, 2, <[u8]>::to_vec));
        assert_eq!(got, vec![vec![1, 2, 3]]);
        let empty: Vec<Vec<u8>> = par_map_chunks(&[], 1, <[u8]>::to_vec);
        assert!(empty.is_empty());
    }

    #[test]
    fn tree_reduce_folds_pairwise() {
        assert_eq!(tree_reduce(Vec::<u32>::new(), u32::wrapping_add), None);
        assert_eq!(tree_reduce(vec![7], u32::wrapping_add), Some(7));
        let vals: Vec<u32> = (1..=9).collect();
        assert_eq!(tree_reduce(vals, u32::wrapping_add), Some(45));
        // Order inside combines is left-to-right (string concat shows it).
        let words = vec!["a".to_owned(), "b".into(), "c".into(), "d".into()];
        assert_eq!(tree_reduce(words, |a, b| a + &b).unwrap(), "abcd");
    }
}
