//! Memory-hierarchy substrates for the cc-NVM simulator.
//!
//! The cc-NVM paper evaluates on Gem5 with a PCM main memory; no such
//! simulator exists as a reusable Rust library, so this crate provides
//! the pieces from scratch:
//!
//! * [`addr`] — strongly-typed physical addresses and 64-byte line
//!   addresses.
//! * [`store`] — a sparse functional backing store holding real line
//!   contents for a (up to) 16 GB physical address space, and the
//!   line-address hasher every per-line map uses.
//! * [`cache`] — a generic set-associative, LRU, write-back cache model
//!   with per-line user payloads (used for L1, L2 and the Meta Cache).
//! * [`timing`] — a banked NVM device timing model (60 ns reads,
//!   150 ns writes for PCM) and bounded-occupancy queue models.
//! * [`controller`] — the memory controller: 32-entry read queue,
//!   64-entry write queue and the 64-entry ADR-protected write pending
//!   queue (WPQ).
//! * [`ring`] — the bounded drop-oldest buffer every observer keeps its
//!   recent history in.
//!
//! Function and timing are deliberately separated: the store holds real
//! bytes (so encryption/authentication upstream is genuine), while the
//! timing models only account cycles.
//!
//! # Example
//!
//! ```
//! use ccnvm_mem::{addr::LineAddr, cache::{CacheConfig, SetAssocCache}};
//!
//! let mut l1 = SetAssocCache::<()>::new(CacheConfig::new(32 * 1024, 2));
//! let r = l1.access(LineAddr(0), false);
//! assert!(r.is_miss());
//! let r = l1.access(LineAddr(0), false);
//! assert!(r.is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod backend;
pub mod cache;
pub mod controller;
pub mod crashpoint;
pub mod file;
pub mod ring;
pub mod store;
pub mod timing;

pub use addr::{Addr, LineAddr, LINE_SIZE, PAGE_SIZE};
pub use backend::DurableBackend;
pub use cache::{CacheConfig, SetAssocCache};
pub use controller::{
    MemController, MemControllerConfig, MemStats, QueueEvent, QueueKind, QueueRecorder, WearStats,
};
pub use file::{
    read_flight_log, FileBackend, FileBackendConfig, FileBackendError, FileIoCounters, FileIoStats,
    FsyncStrategy,
};
pub use ring::Ring;
pub use store::{Line, LineHasher, LineMap, LineSet, LineStore};
pub use timing::{Cycle, NvmTiming, NvmTimingConfig};
