//! A deterministic parallel runner for the experiment matrix.
//!
//! Every figure binary evaluates a grid of independent (design,
//! workload, parameter) simulation points. [`parallel_map`] fans those
//! points out over a fixed pool of `std::thread::scope` workers and
//! returns the results **in input order**, so the printed tables are
//! byte-identical regardless of the thread count: each point's
//! simulator is seeded independently, and all output happens after
//! collection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the worker-thread count: an explicit request wins, then
/// the machine's available parallelism.
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Applies `f` to every item on up to `threads` worker threads and
/// returns the results in input order.
///
/// Work is handed out via an atomic cursor, so long and short points
/// balance across workers automatically. With `threads <= 1` (or a
/// single item) everything runs inline on the caller's thread,
/// guaranteeing a serial reference execution for determinism checks.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map(&items, 1, |_, &x| x.wrapping_mul(0x9e37).rotate_left(7));
        let parallel = parallel_map(&items, 6, |_, &x| x.wrapping_mul(0x9e37).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[9u32], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
    }
}
