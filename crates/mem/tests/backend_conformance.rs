//! Reusable conformance suite for the [`DurableBackend`] trait
//! contract, run against every implementation: the in-memory
//! [`LineStore`] and the file-backed [`FileBackend`]. A backend that
//! passes here can be swapped under `SecureMemory` without the upper
//! layers noticing.

use ccnvm_mem::file::{FileBackend, FileBackendConfig};
use ccnvm_mem::store::ZERO_LINE;
use ccnvm_mem::{DurableBackend, LineAddr, LineStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh, unique temp directory (no external tempfile crate).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ccnvm-conf-{tag}-{}-{n}", std::process::id()))
}

/// Addresses every backend under test may freely use.
const FREE: [LineAddr; 3] = [LineAddr(300), LineAddr(301), LineAddr(400)];

/// The trait contract, exercised through a `dyn` handle exactly the
/// way `SecureMemory` holds one.
fn conformance(mut b: Box<dyn DurableBackend>) {
    // Zero-line reads: never-stored lines load None / read zero.
    assert!(b.is_empty());
    assert_eq!(b.len(), 0);
    for l in FREE {
        assert_eq!(b.load(l), None);
        assert!(!b.contains(l));
        assert_eq!(b.read(l), ZERO_LINE);
    }
    assert!(b.addrs().is_empty());

    // Store / load / overwrite.
    b.store(FREE[0], [1u8; 64]);
    b.store(FREE[1], [2u8; 64]);
    assert!(!b.is_empty());
    assert_eq!(b.len(), 2);
    assert!(b.contains(FREE[0]));
    assert_eq!(b.load(FREE[0]), Some([1u8; 64]));
    assert_eq!(b.read(FREE[1]), [2u8; 64]);
    b.store(FREE[0], [3u8; 64]);
    assert_eq!(b.len(), 2, "overwrite is not a new line");
    assert_eq!(b.load(FREE[0]), Some([3u8; 64]));
    let mut addrs = b.addrs();
    addrs.sort_unstable();
    assert_eq!(addrs, [FREE[0], FREE[1]]);

    // Snapshot is a faithful copy, detached from later mutation.
    let snap = b.snapshot();
    assert_eq!(snap.len(), 2);
    assert_eq!(snap.read(FREE[0]), [3u8; 64]);
    assert_eq!(snap.read(FREE[1]), [2u8; 64]);

    b.store(FREE[0], [6u8; 64]);
    b.store(FREE[2], [4u8; 64]);

    // Restore replaces the entire contents with the snapshot.
    b.restore(&snap);
    assert_eq!(b.len(), 2);
    assert_eq!(b.load(FREE[0]), Some([3u8; 64]));
    assert_eq!(b.load(FREE[1]), Some([2u8; 64]));
    assert_eq!(b.load(FREE[2]), None, "restore drops unrelated lines");

    // Atomic-group and maintenance hooks are callable on every
    // implementation (no-ops for the in-memory ones) and preserve
    // functional reads mid-group.
    b.begin_atomic();
    b.store(FREE[2], [5u8; 64]);
    assert_eq!(b.load(FREE[2]), Some([5u8; 64]), "mirror view mid-group");
    b.commit_atomic();
    b.tick(1_000);
    b.sync();
    assert_eq!(b.load(FREE[2]), Some([5u8; 64]));
}

#[test]
fn line_store_conforms() {
    conformance(Box::new(LineStore::new()));
}

#[test]
fn file_backend_conforms() {
    let dir = temp_dir("contract");
    let b = FileBackend::open(&dir, FileBackendConfig::default()).expect("open");
    conformance(Box::new(b));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_conforms_across_a_reopen() {
    // The contract must hold on a backend whose state came off disk,
    // not just one built in memory.
    let dir = temp_dir("reopened");
    {
        let mut warm = FileBackend::open(&dir, FileBackendConfig::default()).expect("open");
        warm.store(LineAddr(999), [9u8; 64]);
        warm.restore(&LineStore::new());
    }
    let b = FileBackend::open(&dir, FileBackendConfig::default()).expect("reopen");
    conformance(Box::new(b));
    std::fs::remove_dir_all(&dir).ok();
}
