//! The Drainer's dirty address queue (§4.2–4.3).
//!
//! The drainer tracks the addresses of every metadata line dirtied (or,
//! with deferred spreading, *reserved* — the tree nodes that will be
//! recomputed at drain time) in the current epoch. It is a bounded,
//! duplicate-free FIFO; running out of space is the paper's first
//! drain trigger.

use ccnvm_mem::{LineAddr, LineSet};

/// Bounded, duplicate-free queue of dirty metadata line addresses.
///
/// # Example
///
/// ```
/// use ccnvm::drainer::DirtyAddressQueue;
/// use ccnvm_mem::LineAddr;
///
/// let mut q = DirtyAddressQueue::new(4);
/// assert!(q.try_insert_all(&[LineAddr(1), LineAddr(2), LineAddr(1)]));
/// assert_eq!(q.len(), 2); // duplicates are skipped
/// ```
#[derive(Debug, Clone)]
pub struct DirtyAddressQueue {
    capacity: usize,
    order: Vec<LineAddr>,
    members: LineSet,
}

impl DirtyAddressQueue {
    /// Creates an empty queue with `capacity` entries (the paper's M).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dirty address queue needs capacity");
        Self {
            capacity,
            order: Vec::with_capacity(capacity),
            members: LineSet::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Entries currently recorded.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Capacity (M).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free entries.
    pub fn free(&self) -> usize {
        self.capacity - self.order.len()
    }

    /// Whether `line` is already recorded.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.members.contains(&line.0)
    }

    /// How many of `lines` are *not* yet recorded (the space the next
    /// write-back needs).
    ///
    /// `lines` is a counter-to-root path — at most a few dozen entries —
    /// so duplicates are found with a backward scan instead of a
    /// heap-allocated set; this runs on every write-back.
    pub fn missing(&self, lines: &[LineAddr]) -> usize {
        lines
            .iter()
            .enumerate()
            .filter(|&(i, l)| {
                !self.members.contains(&l.0) && !lines[..i].iter().any(|p| p.0 == l.0)
            })
            .count()
    }

    /// Records every line in `lines` that is not yet present.
    ///
    /// Returns `false` — recording nothing — if they do not all fit;
    /// the caller must drain first (trigger 1 of §4.2).
    pub fn try_insert_all(&mut self, lines: &[LineAddr]) -> bool {
        if self.missing(lines) > self.free() {
            return false;
        }
        for &line in lines {
            if self.members.insert(line.0) {
                self.order.push(line);
            }
        }
        true
    }

    /// The recorded addresses in insertion order.
    pub fn entries(&self) -> &[LineAddr] {
        &self.order
    }

    /// Empties the queue in place (drain committed), keeping the
    /// allocated capacity for the next epoch.
    pub fn clear(&mut self) {
        self.members.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ids: &[u64]) -> Vec<LineAddr> {
        ids.iter().copied().map(LineAddr).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut q = DirtyAddressQueue::new(8);
        assert!(q.try_insert_all(&lines(&[1, 2, 3])));
        assert!(q.try_insert_all(&lines(&[2, 3, 4])));
        assert_eq!(q.len(), 4);
        assert!(q.contains(LineAddr(4)));
    }

    #[test]
    fn rejects_when_overfull_without_partial_insert() {
        let mut q = DirtyAddressQueue::new(3);
        assert!(q.try_insert_all(&lines(&[1, 2])));
        assert!(!q.try_insert_all(&lines(&[3, 4])));
        assert_eq!(q.len(), 2, "no partial insert on failure");
        // A set that fits (one dup, one new) is accepted.
        assert!(q.try_insert_all(&lines(&[2, 5])));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn missing_counts_unique_new_lines() {
        let mut q = DirtyAddressQueue::new(8);
        q.try_insert_all(&lines(&[1]));
        assert_eq!(q.missing(&lines(&[1, 2, 2, 3])), 2);
    }

    #[test]
    fn drain_empties_in_order() {
        // A drain reads the entries in insertion order, then clears.
        let mut q = DirtyAddressQueue::new(8);
        q.try_insert_all(&lines(&[5, 1, 9]));
        assert_eq!(q.entries(), lines(&[5, 1, 9]));
        q.clear();
        assert!(q.is_empty());
        assert!(q.entries().is_empty());
        assert!(!q.contains(LineAddr(5)));
        // Reusable afterwards.
        assert!(q.try_insert_all(&lines(&[5])));
        assert_eq!(q.entries(), lines(&[5]));
    }

    #[test]
    fn clear_keeps_capacity_and_resets_membership() {
        let mut q = DirtyAddressQueue::new(8);
        q.try_insert_all(&lines(&[5, 1, 9]));
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(LineAddr(5)));
        assert_eq!(q.free(), 8);
        assert!(q.try_insert_all(&lines(&[5])));
    }

    #[test]
    fn exact_fit_accepted() {
        let mut q = DirtyAddressQueue::new(2);
        assert!(q.try_insert_all(&lines(&[1, 2])));
        assert_eq!(q.free(), 0);
        assert!(
            q.try_insert_all(&lines(&[1, 2])),
            "all-duplicates still fit"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        DirtyAddressQueue::new(0);
    }
}
