//! Tiny data-parallel helpers over std scoped threads.
//!
//! The RDD engine executes partitions with these; they are also reused by
//! the analytics kernels. Work is pulled from a shared index counter so
//! uneven partitions balance dynamically.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use for `n` items.
///
/// Honors the `RP_THREADS` environment variable (any integer ≥ 1) so
/// bench and CI runs can pin a fixed count; only when it is unset or
/// unparsable does the host's `available_parallelism` leak in. The env
/// lookup is cached for the life of the process so the answer cannot
/// change mid-run.
pub fn default_threads(n: usize) -> usize {
    static PINNED: OnceLock<Option<usize>> = OnceLock::new();
    let pinned = *PINNED.get_or_init(|| parse_pinned(std::env::var("RP_THREADS").ok().as_deref()));
    let hw = pinned.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    });
    hw.min(n).max(1)
}

/// Parse an `RP_THREADS` value: any integer ≥ 1 pins the count; empty,
/// junk, or `0` falls through to host detection.
fn parse_pinned(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

/// Apply `f` to every index in `0..n` on `threads` workers; results are
/// returned in index order.
pub fn parallel_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1);
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // std::thread::scope joins all workers and propagates panics.
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                // Relaxed is enough: the counter is a work-stealing index
                // only; every index is claimed exactly once and results
                // land by position.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned").expect("missing result"))
        .collect()
}

/// Apply `f` to every item of `items` on `threads` workers, each with
/// `&mut` access to the one item it claimed; results are returned in item
/// order.
///
/// Runs on [`parallel_map_indexed`]: every index is claimed once, so each
/// item's lock is uncontended. For item-state kernels and owned inputs:
/// `std::mem::take` moves an item out.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    parallel_map_indexed(cells.len(), threads, |i| {
        f(&mut cells[i].lock().expect("item poisoned"))
    })
}

/// Parallel map over a slice (by reference), preserving order.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(items.len(), threads, |i| f(&items[i]))
}

/// Split `items` into `parts` contiguous chunks of near-equal size.
/// Produces exactly `parts` chunks (possibly empty when items < parts).
pub fn split_even<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let mut it = items.into_iter();
    even_ranges(it.len(), parts)
        .into_iter()
        .map(|r| it.by_ref().take(r.len()).collect())
        .collect()
}

/// The index ranges [`split_even`] cuts `0..n` into: `parts` contiguous
/// ranges, the first `n % parts` of them one longer than the rest.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1);
    let (base, rem) = (n / parts, n % parts);
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let end = start + base + usize::from(p < rem);
            let r = start..end;
            start = end;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = parallel_map(&xs, 8, |&x| x * 2);
        assert_eq!(ys, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_mut_preserves_order_and_visits_each_item_once() {
        for threads in [1, 3, 8] {
            let mut xs: Vec<(u64, u32)> = (0..1000).map(|x| (x, 0)).collect();
            let ys = parallel_map_mut(&mut xs, threads, |(x, visits)| {
                *visits += 1;
                *x * 2
            });
            assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
            assert!(
                xs.iter().all(|&(_, visits)| visits == 1),
                "threads {threads}"
            );
        }
        assert!(parallel_map_mut(&mut Vec::<u8>::new(), 4, |_| 1).is_empty());
        let mut owned = vec![vec![1, 2], vec![3]];
        let sums = parallel_map_mut(&mut owned, 2, |v| {
            std::mem::take(v).into_iter().sum::<i32>()
        });
        assert_eq!(sums, vec![3, 3]);
        assert!(owned.iter().all(Vec::is_empty));
    }

    #[test]
    fn indexed_map_handles_empty_and_one() {
        assert!(parallel_map_indexed::<u32, _>(0, 4, |_| 1).is_empty());
        assert_eq!(parallel_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn uneven_work_balances() {
        // Heavier work at low indices; all must still complete correctly.
        let ys = parallel_map_indexed(64, 4, |i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, acc).0
        });
        assert_eq!(ys, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn split_even_distributes_remainder() {
        let parts = split_even((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        let flat: Vec<_> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_even_more_parts_than_items() {
        let parts = split_even(vec![1, 2], 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn default_threads_bounded_by_items() {
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1024) >= 1);
    }

    #[test]
    fn rp_threads_override_parses_strictly() {
        assert_eq!(parse_pinned(Some("8")), Some(8));
        assert_eq!(parse_pinned(Some(" 2 ")), Some(2));
        assert_eq!(parse_pinned(Some("0")), None);
        assert_eq!(parse_pinned(Some("-3")), None);
        assert_eq!(parse_pinned(Some("four")), None);
        assert_eq!(parse_pinned(Some("")), None);
        assert_eq!(parse_pinned(None), None);
    }
}
