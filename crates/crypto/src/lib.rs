//! Self-contained cryptographic primitives for the cc-NVM trusted
//! computing base (TCB).
//!
//! The cc-NVM paper (DAC'19) assumes two on-chip engines:
//!
//! * an **AES counter-mode encryption engine** producing one-time pads
//!   (OTPs) from a secret key and a seed (address + counter), with an
//!   overall latency of 72 ns, and
//! * an **HMAC engine based on SHA-1** producing 128-bit codewords for
//!   data HMACs and Merkle-tree counter HMACs, at 80 cycles per HMAC.
//!
//! This crate implements both engines *functionally* — real AES-128,
//! real SHA-1, real HMAC — so that the encryption, authentication and
//! crash-recovery logic of the simulator operates on genuine
//! ciphertexts and digests. No external crypto crates are used: the
//! TCB primitives are self-contained and auditable.
//!
//! Timing is kept separate from function: the latency constants the
//! paper's evaluation uses live in [`latency`], and the simulator adds
//! them wherever an engine invocation sits on the timed path.
//!
//! # Example
//!
//! ```
//! use ccnvm_crypto::{Aes128, hmac_sha1_128, otp::OtpGenerator};
//!
//! let aes = Aes128::new(&[0u8; 16]);
//! let otp_gen = OtpGenerator::new(aes);
//! let pad = otp_gen.pad64(0x1000, 7, 42);
//! let pad_again = otp_gen.pad64(0x1000, 7, 42);
//! assert_eq!(pad, pad_again); // same seed, same pad
//!
//! let tag = hmac_sha1_128(b"key", b"message");
//! assert_eq!(tag.len(), 16);
//! ```

// `deny` rather than `forbid` so the one module holding the
// x86 intrinsic kernels can opt back in; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod hmac;
#[allow(unsafe_code)]
mod hw;
pub mod latency;
pub mod otp;
pub mod sha1;
pub mod tier;

pub use aes::Aes128;
pub use hmac::{hmac_sha1, hmac_sha1_128, HmacEngine, HmacSha1};
pub use sha1::Sha1;
pub use tier::{CryptoSelect, CryptoTier};

/// A 128-bit message authentication code, as used for both data HMACs
/// and the counter HMACs stored in Merkle-tree nodes.
///
/// The paper uses 128-bit codewords (truncated HMAC-SHA1), which makes
/// the Bonsai Merkle Tree 4-ary: one 64-byte tree node holds the HMACs
/// of its four children.
pub type Mac128 = [u8; 16];
