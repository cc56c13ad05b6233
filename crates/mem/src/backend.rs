//! The durable-NVM storage seam.
//!
//! [`DurableBackend`] abstracts the *crash-survivable* line store that
//! the secure-memory subsystem persists into. The simulator uses the
//! in-memory [`LineStore`] implementation; tests substitute
//! instrumented mocks to prove that crash images and recovery resume
//! flow exclusively through this interface (no hidden side channels to
//! the durable state).

use crate::store::{Line, LineStore, ZERO_LINE};
use crate::timing::Cycle;
use crate::LineAddr;

/// Crash-survivable line-granular storage.
///
/// Semantics every implementation must uphold:
///
/// * a line never stored reads as [`ZERO_LINE`] and loads as `None`;
/// * [`store`](Self::store) makes the content durable immediately
///   (callers model ADR/WPQ ordering above this trait);
/// * [`snapshot`](Self::snapshot) captures exactly the stored lines —
///   it is what a power failure preserves.
///
/// The atomic-group methods ([`begin_atomic`](Self::begin_atomic) /
/// [`commit_atomic`](Self::commit_atomic)) bracket multi-line persist
/// sequences that hardware retires indivisibly — one write-back's
/// data + data-HMAC pair, one epoch drain's staged lines. In-memory
/// backends are trivially atomic and keep the default no-ops; the
/// file backend turns the brackets into log markers so a reopen
/// applies a group all-or-nothing.
pub trait DurableBackend: std::fmt::Debug + Send {
    /// The stored content of `line`, if any.
    fn load(&self, line: LineAddr) -> Option<Line>;

    /// Durably stores `content` at `line`.
    fn store(&mut self, line: LineAddr, content: Line);

    /// Number of stored lines.
    fn len(&self) -> usize;

    /// Every stored line address, in unspecified order.
    fn addrs(&self) -> Vec<LineAddr>;

    /// Copies the full durable contents into a [`LineStore`] (the
    /// crash-image representation).
    fn snapshot(&self) -> LineStore;

    /// Replaces the entire durable contents with `image`.
    fn restore(&mut self, image: &LineStore);

    /// Whether nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `line` is stored.
    fn contains(&self, line: LineAddr) -> bool {
        self.load(line).is_some()
    }

    /// The content of `line`, defaulting to [`ZERO_LINE`].
    fn read(&self, line: LineAddr) -> Line {
        self.load(line).unwrap_or(ZERO_LINE)
    }

    /// Opens an atomic persist group: subsequent stores up to
    /// [`commit_atomic`](Self::commit_atomic) must survive a crash
    /// all-or-nothing. Groups do not nest. No-op by default (in-memory
    /// stores are trivially atomic).
    fn begin_atomic(&mut self) {}

    /// Closes the atomic group opened by
    /// [`begin_atomic`](Self::begin_atomic). No-op by default.
    fn commit_atomic(&mut self) {}

    /// Forces any buffered writes down to durable storage. No-op for
    /// backends that persist synchronously.
    fn sync(&mut self) {}

    /// Feeds the simulated clock, for backends with time-based flush
    /// policies. No-op by default.
    fn tick(&mut self, _now: Cycle) {}

    /// Appends one flight-recorder entry (an opaque line of bytes) to
    /// the backend's crash-persistent sidecar, if it keeps one.
    /// In-memory backends have no crash-survivable medium and keep the
    /// default no-op; [`crate::FileBackend`] frames the entry into
    /// `flight.log` when flight recording is enabled.
    fn flight_append(&mut self, _entry: &[u8]) {}

    /// Whether [`flight_append`](Self::flight_append) actually
    /// persists anything — callers use this to skip building entries.
    /// The answer is fixed for a backend's life (a
    /// [`crate::FileBackend`] keeps a sidecar exactly when it was
    /// opened with one), so callers may read it once.
    fn flight_enabled(&self) -> bool {
        false
    }

    /// Host-I/O counters of the durable medium, if it has one: the
    /// commit-log/manifest traffic behind the line-store abstraction.
    /// In-memory backends have no host-I/O side and keep the default
    /// `None`; [`crate::FileBackend`] reports its log counters so write
    /// provenance can attribute durable-store amplification.
    fn io_stats(&self) -> Option<crate::file::FileIoStats> {
        None
    }
}

impl DurableBackend for LineStore {
    fn load(&self, line: LineAddr) -> Option<Line> {
        self.get(line).copied()
    }

    fn store(&mut self, line: LineAddr, content: Line) {
        self.write(line, content);
    }

    fn len(&self) -> usize {
        LineStore::len(self)
    }

    fn addrs(&self) -> Vec<LineAddr> {
        self.iter().map(|(l, _)| l).collect()
    }

    fn snapshot(&self) -> LineStore {
        self.clone()
    }

    fn restore(&mut self, image: &LineStore) {
        *self = image.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_store_implements_the_contract() {
        let mut b: Box<dyn DurableBackend> = Box::new(LineStore::new());
        assert!(b.is_empty());
        assert_eq!(b.read(LineAddr(3)), ZERO_LINE);
        b.store(LineAddr(3), [7u8; 64]);
        assert!(b.contains(LineAddr(3)));
        assert_eq!(b.load(LineAddr(3)), Some([7u8; 64]));
        assert_eq!(b.len(), 1);
        assert_eq!(b.addrs(), vec![LineAddr(3)]);
        let snap = b.snapshot();
        assert_eq!(snap.read(LineAddr(3)), [7u8; 64]);
        b.store(LineAddr(3), [8u8; 64]);
        b.store(LineAddr(4), [4u8; 64]);
        b.restore(&snap);
        assert_eq!(b.read(LineAddr(3)), [7u8; 64]);
        assert!(!b.contains(LineAddr(4)));
    }
}
