//! Crypto implementation tiers and runtime CPU-feature selection.
//!
//! Every primitive in this crate exists in (at least) two tiers that
//! produce **bit-identical output** and differ only in host speed:
//!
//! * `portable` — pure-Rust scalar code that compiles on every target,
//!   and
//! * `simd` — the x86-64 SHA-NI and AES-NI instructions, compiled in
//!   behind the `simd` cargo feature and picked per primitive at
//!   runtime from CPUID.
//!
//! [`CryptoSelect`] is the user-facing knob (`auto` / `portable` /
//! `simd`); [`CryptoTier`] is the resolved choice threaded through
//! the engines. Forcing `simd` on a build or host without SHA-NI or
//! AES-NI is a [`TierUnavailable`] error rather than a silent
//! fallback, so benchmark labels never lie.

use std::fmt;
use std::str::FromStr;

/// The resolved implementation tier a crypto call executes under.
///
/// Both tiers are bit-identical; `Simd` merely permits hardware paths
/// where the CPU supports them (each primitive still falls back to the
/// portable code for capabilities the host lacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoTier {
    /// Pure-Rust scalar implementations, available everywhere.
    Portable,
    /// Hardware-accelerated x86-64 paths where CPUID allows.
    Simd,
}

impl CryptoTier {
    /// The best tier available on this host: `Simd` when any hardware
    /// path is compiled in and present, otherwise `Portable`.
    pub fn detect() -> Self {
        if simd_available() {
            Self::Simd
        } else {
            Self::Portable
        }
    }
}

impl fmt::Display for CryptoTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Portable => "portable",
            Self::Simd => "simd",
        })
    }
}

/// Which hardware capabilities the runtime detected (all `false` when
/// the `simd` feature is off or the target is not x86-64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimdCaps {
    /// Single-stream SHA-1 round instructions (`SHA1RNDS4` etc.).
    pub sha_ni: bool,
    /// Single-block AES round instructions (`AESENC`).
    pub aes_ni: bool,
}

/// Detects the hardware capabilities of this host. `std` caches the
/// underlying CPUID probes, so calling this on hot paths is cheap.
pub fn caps() -> SimdCaps {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        SimdCaps {
            sha_ni: std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"),
            aes_ni: std::arch::is_x86_feature_detected!("aes"),
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        SimdCaps::default()
    }
}

/// Whether the `simd` tier can be selected at all on this build/host.
pub fn simd_available() -> bool {
    let caps = caps();
    caps.sha_ni || caps.aes_ni
}

/// User-facing tier selection, as taken by `--crypto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoSelect {
    /// Pick the best tier the host supports (the default).
    #[default]
    Auto,
    /// Force the pure-Rust tier.
    Portable,
    /// Force the hardware tier; an error where none is available.
    Simd,
}

impl CryptoSelect {
    /// Resolves the selection against this host.
    ///
    /// # Errors
    ///
    /// [`TierUnavailable`] when `simd` is forced but the build or
    /// target has no hardware path.
    pub fn resolve(self) -> Result<CryptoTier, TierUnavailable> {
        match self {
            Self::Auto => Ok(CryptoTier::detect()),
            Self::Portable => Ok(CryptoTier::Portable),
            Self::Simd => {
                if simd_available() {
                    Ok(CryptoTier::Simd)
                } else {
                    Err(TierUnavailable)
                }
            }
        }
    }
}

impl fmt::Display for CryptoSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Auto => "auto",
            Self::Portable => "portable",
            Self::Simd => "simd",
        })
    }
}

impl FromStr for CryptoSelect {
    type Err = ParseCryptoSelectError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "portable" => Ok(Self::Portable),
            "simd" => Ok(Self::Simd),
            _ => Err(ParseCryptoSelectError),
        }
    }
}

/// An unrecognized crypto selection string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseCryptoSelectError;

impl fmt::Display for ParseCryptoSelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("crypto tier must be one of: auto, portable, simd")
    }
}

impl std::error::Error for ParseCryptoSelectError {}

/// The `simd` tier was forced but no hardware path exists on this
/// build or target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierUnavailable;

impl fmt::Display for TierUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if cfg!(feature = "simd") {
            f.write_str("crypto tier 'simd' forced but this target has no hardware crypto path")
        } else {
            f.write_str(
                "crypto tier 'simd' forced but the crate was built without the `simd` feature",
            )
        }
    }
}

impl std::error::Error for TierUnavailable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in [
            CryptoSelect::Auto,
            CryptoSelect::Portable,
            CryptoSelect::Simd,
        ] {
            assert_eq!(s.to_string().parse::<CryptoSelect>(), Ok(s));
        }
        assert!("fast".parse::<CryptoSelect>().is_err());
    }

    #[test]
    fn auto_resolves_to_detected_tier() {
        assert_eq!(CryptoSelect::Auto.resolve(), Ok(CryptoTier::detect()));
        assert_eq!(CryptoSelect::Portable.resolve(), Ok(CryptoTier::Portable));
    }

    #[test]
    fn forced_simd_matches_availability() {
        match CryptoSelect::Simd.resolve() {
            Ok(t) => {
                assert_eq!(t, CryptoTier::Simd);
                assert!(simd_available());
            }
            Err(TierUnavailable) => assert!(!simd_available()),
        }
    }
}
