//! Error types for runtime integrity checking and simulation.

use ccnvm_mem::{LineAddr, PAGE_SIZE};
use std::error::Error;
use std::fmt;

/// A runtime integrity violation detected by the secure memory path.
///
/// In an attack-free simulation none of these can occur; they surface
/// when the attack-injection API tampers with live NVM state, and in
/// tests asserting that tampering *is* detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// A data line's HMAC did not match `(ciphertext, address,
    /// counter)` — spoofing or splicing of data.
    DataHmacMismatch {
        /// The offending data line.
        line: LineAddr,
    },
    /// A fetched counter/tree line did not match its parent's slot —
    /// tampering with the metadata (replay of counters, etc.).
    TreeMismatch {
        /// Level of the fetched child (0 = counter line).
        child_level: usize,
        /// Index of the fetched child within its level.
        child_index: u64,
    },
    /// The fetched top tree node matched neither persistent root.
    RootMismatch,
    /// Decryption succeeded per the HMAC but the plaintext differs
    /// from what the simulator wrote — an internal consistency bug,
    /// never an expected attack outcome.
    PlaintextMismatch {
        /// The offending data line.
        line: LineAddr,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::DataHmacMismatch { line } => {
                write!(f, "data HMAC mismatch at {line} (spoofing/splicing)")
            }
            IntegrityError::TreeMismatch {
                child_level,
                child_index,
            } => write!(
                f,
                "merkle tree mismatch at level {child_level} index {child_index}"
            ),
            IntegrityError::RootMismatch => write!(f, "top tree node matches neither TCB root"),
            IntegrityError::PlaintextMismatch { line } => {
                write!(f, "decrypted plaintext mismatch at {line} (simulator bug)")
            }
        }
    }
}

impl Error for IntegrityError {}

/// A structurally invalid [`SimConfig`](crate::config::SimConfig).
///
/// Raised by [`SimConfig::validate`](crate::config::SimConfig::validate)
/// and by the constructors that call it
/// ([`SecureMemory::new`](crate::secmem::SecureMemory::new),
/// [`Simulator::new`](crate::sim::Simulator::new)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The dirty address queue has zero entries.
    DirtyQueueEmpty,
    /// The dirty address queue is larger than the WPQ it drains into.
    DirtyQueueExceedsWpq {
        /// Configured dirty address queue entries.
        entries: usize,
        /// Configured WPQ entries.
        wpq: usize,
    },
    /// A drainer design's dirty address queue cannot hold even one
    /// full tree path, so no write-back could ever reserve its
    /// metadata addresses.
    DirtyQueueTooSmallForPath {
        /// Configured dirty address queue entries.
        entries: usize,
        /// Lines in one counter-to-root path.
        path_lines: usize,
    },
    /// The update limit N is zero.
    UpdateLimitZero,
    /// The core issue width is zero.
    IssueWidthZero,
    /// A cache geometry holds no whole set: zero ways, or less capacity
    /// than one line per way. For a split Meta Cache the geometry is
    /// that of each half.
    CacheWithoutSets {
        /// Which cache: `"L1"`, `"L2"` or `"meta"`.
        cache: &'static str,
        /// Capacity of the cache (of each half, for a split Meta Cache).
        capacity_bytes: u64,
        /// Configured associativity.
        ways: usize,
    },
    /// The protected capacity is zero or not a whole number of 4 KiB
    /// pages, so no secure layout covers it.
    CapacityNotPaged {
        /// Configured capacity in bytes.
        capacity_bytes: u64,
    },
    /// A controller queue or the write-back buffer has no slot, so no
    /// request could ever be accepted.
    QueueWithoutSlots {
        /// Which queue: `"read queue"`, `"write queue"` or
        /// `"write-back buffer"`.
        queue: &'static str,
    },
    /// The NVM device has no bank to serve an access.
    NvmWithoutBanks,
    /// The `simd` crypto tier was forced but this build or host has no
    /// hardware crypto path.
    CryptoTierUnavailable,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DirtyQueueEmpty => {
                write!(f, "dirty address queue needs at least one entry")
            }
            ConfigError::DirtyQueueExceedsWpq { entries, wpq } => write!(
                f,
                "dirty address queue ({entries}) must not exceed the WPQ ({wpq})"
            ),
            ConfigError::DirtyQueueTooSmallForPath {
                entries,
                path_lines,
            } => write!(
                f,
                "dirty address queue ({entries}) cannot hold one tree path ({path_lines} lines)"
            ),
            ConfigError::UpdateLimitZero => write!(f, "update limit N must be positive"),
            ConfigError::IssueWidthZero => write!(f, "issue width must be positive"),
            ConfigError::CacheWithoutSets {
                cache,
                capacity_bytes,
                ways,
            } => write!(
                f,
                "{cache} cache of {capacity_bytes} bytes and {ways} ways holds no whole set \
                 (needs at least one way and 64 bytes per way)"
            ),
            ConfigError::CapacityNotPaged { capacity_bytes } => write!(
                f,
                "protected capacity of {capacity_bytes} bytes is not a positive multiple \
                 of the {PAGE_SIZE}-byte page"
            ),
            ConfigError::QueueWithoutSlots { queue } => {
                write!(f, "{queue} needs at least one entry")
            }
            ConfigError::NvmWithoutBanks => write!(f, "NVM device needs at least one bank"),
            ConfigError::CryptoTierUnavailable => write!(
                f,
                "crypto tier 'simd' forced but this build/host has no hardware crypto path \
                 (try 'auto' or 'portable')"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Why [`SecureMemory::resume`](crate::secmem::SecureMemory::resume)
/// refused to rebuild a running instance from a crash image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The supplied configuration is invalid on its own.
    Config(ConfigError),
    /// The configuration's capacity does not match the image's.
    CapacityMismatch {
        /// Capacity in the supplied configuration.
        config: u64,
        /// Capacity recorded in the crash image.
        image: u64,
    },
    /// The recovery report carries located attacks or a detected
    /// replay — resuming would silently bless tampered state.
    TamperedImage {
        /// Number of located attacks in the report.
        located: usize,
        /// Whether the report flagged a potential replay.
        potential_replay: bool,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Config(e) => e.fmt(f),
            ResumeError::CapacityMismatch { config, image } => write!(
                f,
                "config capacity {config} does not match the image's {image}"
            ),
            ResumeError::TamperedImage {
                located,
                potential_replay,
            } => write!(
                f,
                "refusing to resume over a tampered image ({located} located attacks, \
                 potential replay: {potential_replay})"
            ),
        }
    }
}

impl Error for ResumeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ResumeError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ResumeError {
    fn from(e: ConfigError) -> Self {
        ResumeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_location() {
        let e = IntegrityError::DataHmacMismatch { line: LineAddr(16) };
        assert!(e.to_string().contains("L0x10"));
        let e = IntegrityError::TreeMismatch {
            child_level: 2,
            child_index: 7,
        };
        assert!(e.to_string().contains("level 2"));
    }

    #[test]
    fn config_error_messages_name_the_constraint() {
        assert!(ConfigError::DirtyQueueEmpty
            .to_string()
            .contains("at least one"));
        let e = ConfigError::DirtyQueueExceedsWpq { entries: 9, wpq: 4 };
        assert!(e.to_string().contains("(9)") && e.to_string().contains("(4)"));
        let e = ConfigError::DirtyQueueTooSmallForPath {
            entries: 2,
            path_lines: 5,
        };
        assert!(e.to_string().contains("tree path"));
        assert!(ConfigError::UpdateLimitZero
            .to_string()
            .contains("positive"));
        let e = ConfigError::CacheWithoutSets {
            cache: "L2",
            capacity_bytes: 64,
            ways: 8,
        };
        assert!(e.to_string().starts_with("L2 cache of 64 bytes and 8 ways"));
        let e = ConfigError::CapacityNotPaged {
            capacity_bytes: 5000,
        };
        assert!(e.to_string().contains("5000 bytes") && e.to_string().contains("4096-byte page"));
        let e = ConfigError::QueueWithoutSlots {
            queue: "write-back buffer",
        };
        assert_eq!(e.to_string(), "write-back buffer needs at least one entry");
        assert!(ConfigError::NvmWithoutBanks.to_string().contains("bank"));
    }

    #[test]
    fn resume_error_wraps_and_chains() {
        let e = ResumeError::from(ConfigError::IssueWidthZero);
        assert_eq!(e.to_string(), ConfigError::IssueWidthZero.to_string());
        assert!(e.source().is_some());
        let e = ResumeError::TamperedImage {
            located: 2,
            potential_replay: false,
        };
        assert!(e.to_string().contains("tampered"));
    }
}
