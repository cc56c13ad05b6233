//! # cc-NVM — secure NVM with crash consistency, write-efficiency and
//! high performance
//!
//! A from-scratch reproduction of *"No Compromises: Secure NVM with
//! Crash Consistency, Write-Efficiency and High-Performance"* (Yang,
//! Lu, Chen, Mao, Shu — DAC 2019): a memory-controller architecture
//! that keeps counter-mode encryption and Bonsai-Merkle-Tree
//! authentication metadata crash-consistent *without* flushing it on
//! every write-back.
//!
//! The crate contains both the architecture and the simulator that
//! evaluates it:
//!
//! * [`layout`], [`counter`], [`bmt`], [`engine`], [`tcb`] — the
//!   secure-memory substrate: split counters, data HMACs, the sparse
//!   4-ary Bonsai Merkle Tree and the on-chip keys/registers.
//! * [`secmem`] — the memory-controller-side machinery: Meta Cache,
//!   encryption engine, the Drainer's dirty address queue
//!   ([`drainer`]) and the five evaluated designs
//!   ([`config::DesignKind`]); its pipeline is layered across
//!   [`writepath`] (the phased write-back), [`epoch`] (the atomic
//!   drain protocol), [`persist`] (durable state and crash images,
//!   behind [`ccnvm_mem::DurableBackend`]) and [`verify`] (metadata
//!   fetching/authentication).
//! * [`sim`] — the trace-driven core + L1/L2 model that turns
//!   workloads from `ccnvm-trace` into IPC and write-traffic numbers
//!   ([`stats::RunStats`]).
//! * [`crash`], [`recovery`], [`attack`] — crash images, the four-step
//!   recovery/attack-locating procedure of §4.4, and the
//!   spoof/splice/replay attack injectors it is tested against.
//!
//! # Quickstart
//!
//! ```
//! use ccnvm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimConfig::small(DesignKind::CcNvm);
//! let mut sim = Simulator::new(config)?;
//! let trace = TraceGenerator::new(profiles::by_name("gcc").unwrap(), 42);
//! let stats = sim.run(trace, 100_000)?;
//! println!("IPC {:.3}, NVM writes {}", stats.ipc(), stats.total_writes());
//!
//! // Crash, recover, verify.
//! let report = recover(&sim.memory().crash_image());
//! assert!(report.is_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod bmt;
pub mod config;
pub mod counter;
pub mod crash;
pub mod drainer;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod layout;
pub mod metacache;
pub mod obs;
pub mod persist;
pub mod recovery;
pub mod secmem;
pub mod sim;
pub mod stats;
pub mod tcb;
pub mod verify;
pub mod view;
pub mod writepath;

/// One-stop imports for examples and the benchmark harness.
pub mod prelude {
    pub use crate::config::{DesignKind, SimConfig};
    pub use crate::crash::{
        sweep_crash_points, BoundaryOutcome, CrashImage, CrashSweepError, CrashSweepReport,
        PowerCut,
    };
    pub use crate::error::{ConfigError, IntegrityError, ResumeError};
    pub use crate::obs::audit::{AuditMode, Auditor};
    pub use crate::obs::chrome::{write_chrome_trace, ChromeTraceInput};
    pub use crate::obs::metrics::{MetricsConfig, MetricsRegistry};
    pub use crate::obs::profile::SpanProfiler;
    pub use crate::obs::{Recorder, RecorderConfig};
    pub use crate::recovery::{
        recover, LocatedAttack, RecoveryReport, RecoverySpan, RootMatch, Verdict,
    };
    pub use crate::secmem::{DrainTrigger, SecureMemory};
    pub use crate::sim::{run_profile, Simulator};
    pub use crate::stats::RunStats;
    pub use ccnvm_trace::{profiles, TraceGenerator, WorkloadProfile};
}
