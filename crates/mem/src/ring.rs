//! The bounded buffer every observer keeps its recent history in.

use std::collections::vec_deque::{self, VecDeque};

/// A bounded FIFO that keeps the newest `capacity` items. A push into
/// a full ring drops the oldest item and counts the drop, so a long
/// run records in constant memory and its exports can say what they
/// lost.
///
/// The controller's queue-event buffer is one; the `ccnvm` crate's
/// event trace, epoch rollups, metrics samples, lag spans and flight
/// ring are the others.
///
/// # Example
///
/// ```
/// use ccnvm_mem::Ring;
///
/// let mut ring = Ring::new(2);
/// for i in 0..5 {
///     ring.push(i);
/// }
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [3, 4]);
/// assert_eq!(ring.dropped(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            items: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `item`, dropping the oldest item if the ring is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Removes every buffered item, yielding them oldest first. The
    /// drop count is kept.
    pub fn drain(&mut self) -> vec_deque::Drain<'_, T> {
        self.items.drain(..)
    }

    /// Buffered items, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum items held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ring_drops_the_oldest_and_counts() {
        let mut ring = Ring::new(3);
        for i in 0..7u64 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [4, 5, 6]);
    }

    #[test]
    fn drain_empties_the_ring_and_keeps_the_drop_count() {
        let mut ring = Ring::new(2);
        for i in 0..3u64 {
            ring.push(i);
        }
        assert_eq!(ring.drain().collect::<Vec<_>>(), [1, 2]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
        ring.push(9);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [9]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_refused() {
        let _ = Ring::<u8>::new(0);
    }
}
