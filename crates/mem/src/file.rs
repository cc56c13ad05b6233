//! A file-backed [`DurableBackend`]: an append-only commit log plus a
//! periodically compacted, atomically swapped manifest.
//!
//! On-disk layout inside the backend's directory:
//!
//! * `commit.log` — CRC32-framed line records, appended in write
//!   order. Atomic groups (one write-back's data + HMAC pair, one
//!   epoch drain's staged lines) are bracketed by `BEGIN`/`COMMIT`
//!   marker records; reopening applies a group only when its `COMMIT`
//!   made it to disk, which is the file-level analogue of the ADR
//!   `end`-signal protocol. A torn or truncated tail record stops
//!   replay and is discarded, together with any group left open.
//! * `manifest` — a compacted snapshot of every stored line, replaced
//!   atomically (write `manifest.tmp`, fsync, rename, fsync the
//!   directory). Reopen loads the manifest first, then replays the
//!   log over it; replaying a log the manifest already absorbed is
//!   idempotent, so a crash between the swap and the log truncation is
//!   harmless.
//!
//! Durability is governed by [`FsyncStrategy`]: `always` flushes and
//! fsyncs at every record boundary outside a group and at every group
//! commit (the faithful ADR model — the crash-point harness asserts
//! clean recovery at *every* boundary in this mode); `batch(n)` and
//! `interval(cycles)` defer the flush, trading crash-window durability
//! for throughput exactly like a write-ahead log's group commit. A
//! kill between fsyncs loses the buffered tail; cc-NVM's recovery then
//! reports the loss (`N_retry != N_wb`) rather than silently serving
//! stale state.
//!
//! Reads are served from an in-memory mirror, so the simulator's hot
//! path never touches the filesystem; only persists append to the log.
//!
//! Runtime I/O failures inside trait methods (which cannot return
//! errors) panic with the failing path — a durable store that cannot
//! store is not allowed to limp along.

use crate::backend::DurableBackend;
use crate::crashpoint::{self, Boundary};
use crate::store::{Line, LineStore};
use crate::timing::Cycle;
use crate::LineAddr;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Commit-log file name inside the backend directory.
pub const LOG_FILE: &str = "commit.log";
/// Manifest file name inside the backend directory.
pub const MANIFEST_FILE: &str = "manifest";
/// Temporary manifest written before the atomic rename.
pub const MANIFEST_TMP_FILE: &str = "manifest.tmp";
/// Flight-recorder sidecar file name inside the backend directory.
pub const FLIGHT_FILE: &str = "flight.log";

const MANIFEST_MAGIC: [u8; 8] = *b"CCNVMMF1";

// Kind 2 stays unused: it was an ERASE record that nothing wrote, and
// replay reads it as a corrupt tail, like any unknown kind.
const KIND_STORE: u8 = 1;
const KIND_BEGIN: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// Record kind of every `flight.log` frame:
/// `b'F' + u32 payload length + payload + crc32(kind..payload)`.
const KIND_FLIGHT: u8 = b'F';

/// Flight frame overhead: kind byte, length word, trailing CRC.
const FLIGHT_OVERHEAD: usize = 1 + 4 + 4;

/// `kind + u64 + crc32` — the frame of every non-`STORE` record.
const SHORT_RECORD: usize = 1 + 8 + 4;
/// `kind + addr + 64-byte payload + crc32`.
const STORE_RECORD: usize = 1 + 8 + 64 + 4;

/// When the backend flushes its buffered records and calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncStrategy {
    /// Flush + fsync at every record boundary / group commit.
    Always,
    /// Flush + fsync once at least this many records are buffered.
    Batch(u32),
    /// Flush + fsync when this many simulated cycles passed since the
    /// last sync (fed through [`DurableBackend::tick`]).
    Interval(Cycle),
}

impl fmt::Display for FsyncStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::Batch(n) => write!(f, "batch:{n}"),
            Self::Interval(c) => write!(f, "interval:{c}"),
        }
    }
}

impl std::str::FromStr for FsyncStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "always" {
            return Ok(Self::Always);
        }
        if let Some(n) = s.strip_prefix("batch:") {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("batch size {n:?} is not a number"))?;
            if n == 0 {
                return Err("batch size must be positive".into());
            }
            return Ok(Self::Batch(n));
        }
        if let Some(c) = s.strip_prefix("interval:") {
            let c: Cycle = c
                .parse()
                .map_err(|_| format!("interval cycles {c:?} is not a number"))?;
            if c == 0 {
                return Err("interval must be a positive cycle count".into());
            }
            return Ok(Self::Interval(c));
        }
        Err(format!(
            "unknown fsync strategy {s:?} (expected always, batch:<n> or interval:<cycles>)"
        ))
    }
}

/// Construction options for [`FileBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileBackendConfig {
    /// Flush/fsync policy.
    pub fsync: FsyncStrategy,
    /// Compact the log into the manifest once this many records were
    /// appended since the last compaction.
    pub compact_threshold: u64,
    /// Keep a crash-persistent flight-recorder sidecar (`flight.log`)
    /// next to the commit log. Off by default: the sidecar adds I/O
    /// per persist boundary, and the default path must stay
    /// byte-identical on disk.
    pub flight: bool,
}

impl Default for FileBackendConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncStrategy::Always,
            compact_threshold: 4096,
            flight: false,
        }
    }
}

/// Why a [`FileBackend`] could not be opened.
#[derive(Debug)]
pub enum FileBackendError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The manifest exists but is not a valid snapshot. The manifest
    /// is only ever replaced atomically, so this is real corruption,
    /// not a crash artifact.
    CorruptManifest {
        /// The manifest path.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// A store was to be read back, but the directory holds none: it
    /// has no commit log (every opened store creates one).
    NoStore {
        /// The directory.
        path: PathBuf,
    },
}

impl fmt::Display for FileBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "file backend I/O error at {}: {source}", path.display())
            }
            Self::CorruptManifest { path, detail } => {
                write!(f, "corrupt manifest {}: {detail}", path.display())
            }
            Self::NoStore { path } => {
                write!(f, "no such store: {} has no {LOG_FILE}", path.display())
            }
        }
    }
}

impl std::error::Error for FileBackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::CorruptManifest { .. } | Self::NoStore { .. } => None,
        }
    }
}

/// Shared I/O counters, cloned out via [`FileBackend::io_counters`] so
/// callers can read them after the backend was boxed behind the trait.
#[derive(Debug, Default)]
pub struct FileIoCounters {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    compactions: AtomicU64,
    bytes_written: AtomicU64,
    replayed_records: AtomicU64,
    discarded_bytes: AtomicU64,
}

/// A point-in-time copy of the I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileIoStats {
    /// Records appended to the commit log (including group markers).
    pub appends: u64,
    /// fsync calls issued on the log.
    pub fsyncs: u64,
    /// Manifest compactions performed.
    pub compactions: u64,
    /// Bytes written to the log.
    pub bytes_written: u64,
    /// Log records replayed at the last open.
    pub replayed_records: u64,
    /// Torn/uncommitted tail bytes discarded at the last open.
    pub discarded_bytes: u64,
}

impl FileIoCounters {
    /// Snapshots the counters.
    pub fn stats(&self) -> FileIoStats {
        FileIoStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            discarded_bytes: self.discarded_bytes.load(Ordering::Relaxed),
        }
    }

    fn add(&self, which: &AtomicU64, n: u64) {
        which.fetch_add(n, Ordering::Relaxed);
    }
}

/// Slice-by-8 tables of the reflected CRC-32 polynomial, built at
/// compile time: `CRC_TABLES[0][b]` advances the CRC over byte `b`,
/// and `CRC_TABLES[k][b]` over `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0xEDB8_8320;
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (ISO-HDLC polynomial, the zlib/`crc32fast` flavour),
/// bit-reflected, init and xorout `0xFFFF_FFFF`. Eight bytes per step
/// through [`CRC_TABLES`]; the tests check it against the bit-at-a-time
/// definition.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The bytes of the file at `path`, or `None` when there is none.
fn read_if_present(path: &Path) -> Result<Option<Vec<u8>>, FileBackendError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(source) => Err(FileBackendError::Io {
            path: path.to_path_buf(),
            source,
        }),
    }
}

/// One append-only log of CRC-32-framed records: `commit.log`, or the
/// `flight.log` sidecar. Frames wait in a buffer until [`Log::flush`]
/// writes and fsyncs them; a kill loses the buffer.
#[derive(Debug)]
struct Log {
    file: File,
    /// Encoded frames not yet written + fsynced.
    pending: Vec<u8>,
    /// Number of frames in `pending`.
    frames: u64,
}

impl Log {
    /// Opens the log at `path` for appending (creating it), first
    /// cutting it back to the well-formed prefix whose length
    /// `valid_len` finds in its bytes, so new frames extend a
    /// well-formed log. Returns the log and the number of bytes cut.
    fn open(
        path: &Path,
        valid_len: impl FnOnce(&[u8]) -> usize,
    ) -> Result<(Self, u64), FileBackendError> {
        let io_error = |source| FileBackendError::Io {
            path: path.to_path_buf(),
            source,
        };
        let bytes = read_if_present(path)?.unwrap_or_default();
        let valid = valid_len(&bytes);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_error)?;
        if valid < bytes.len() {
            file.set_len(valid as u64)
                .and_then(|()| file.sync_data())
                .map_err(io_error)?;
        }
        let log = Self {
            file,
            pending: Vec::new(),
            frames: 0,
        };
        Ok((log, (bytes.len() - valid) as u64))
    }

    /// Buffers one frame: `parts` in order, then their CRC-32.
    fn frame(&mut self, parts: &[&[u8]]) {
        let start = self.pending.len();
        for part in parts {
            self.pending.extend_from_slice(part);
        }
        let crc = crc32(&self.pending[start..]);
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.frames += 1;
    }

    /// Writes and fsyncs the buffered frames, and returns the bytes
    /// written: 0, with no fsync, when nothing was buffered.
    fn flush(&mut self) -> io::Result<u64> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        self.file.write_all(&self.pending)?;
        self.file.sync_data()?;
        let written = self.pending.len() as u64;
        self.pending.clear();
        self.frames = 0;
        Ok(written)
    }

    /// Drops the buffered frames and empties the file durably.
    fn truncate(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.frames = 0;
        self.file.set_len(0)?;
        self.file.sync_data()
    }
}

/// The file-backed durable store. See the module docs for the on-disk
/// format and durability model.
///
/// [`DurableBackend::snapshot`] returns the in-memory mirror — the
/// functional view, i.e. what ADR-backed hardware would preserve.
/// What the *host filesystem* preserved is observed by dropping the
/// backend and calling [`FileBackend::open`] on the directory again;
/// that is what the crash-point harness does.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    log: Log,
    mirror: LineStore,
    config: FileBackendConfig,
    /// The flight sidecar, present when `config.flight` is set. Under
    /// `always` its buffer never survives a statement boundary (flight
    /// appends flush immediately so the entry is durable before the
    /// crash point it brackets can fire); under `batch`/`interval` it
    /// rides the commit log's flush cadence — the fsync-loss window
    /// the forensic report quantifies.
    flight: Option<Log>,
    /// Sequence number of the open atomic group, if any.
    group: Option<u64>,
    next_seq: u64,
    records_since_compact: u64,
    now: Cycle,
    last_sync: Cycle,
    counters: Arc<FileIoCounters>,
}

impl FileBackend {
    /// Checks that `dir` holds a store to read back. Every opened store
    /// has a commit log, and reading a store back never creates one.
    ///
    /// # Errors
    ///
    /// Returns [`FileBackendError::NoStore`] when `dir` has no commit
    /// log.
    pub fn require_existing(dir: impl AsRef<Path>) -> Result<(), FileBackendError> {
        let dir = dir.as_ref();
        if dir.join(LOG_FILE).is_file() {
            Ok(())
        } else {
            Err(FileBackendError::NoStore {
                path: dir.to_path_buf(),
            })
        }
    }

    /// Opens (or creates) the backend rooted at `dir`: loads the
    /// manifest, replays the commit log over it (discarding a torn
    /// tail record and any group without its `COMMIT` marker), and
    /// truncates the log back to its last durably-applied byte.
    ///
    /// # Errors
    ///
    /// Returns [`FileBackendError`] on filesystem failures or a
    /// corrupt manifest.
    pub fn open(
        dir: impl AsRef<Path>,
        config: FileBackendConfig,
    ) -> Result<Self, FileBackendError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|source| FileBackendError::Io {
            path: dir.clone(),
            source,
        })?;
        // A leftover manifest.tmp is a crash artifact from before the
        // atomic rename; the real manifest is still authoritative.
        let tmp = dir.join(MANIFEST_TMP_FILE);
        if tmp.exists() {
            std::fs::remove_file(&tmp)
                .map_err(|source| FileBackendError::Io { path: tmp, source })?;
        }

        let counters = Arc::new(FileIoCounters::default());
        let mut mirror = load_manifest(&dir.join(MANIFEST_FILE))?;

        let mut replay = Replay::default();
        let (log, discarded) = Log::open(&dir.join(LOG_FILE), |bytes| {
            replay = replay_log(bytes, &mut mirror);
            replay.applied_end
        })?;
        counters.add(&counters.replayed_records, replay.applied_records);
        counters.add(&counters.discarded_bytes, discarded);
        let flight = if config.flight {
            let (flight, _) = Log::open(&dir.join(FLIGHT_FILE), |bytes| {
                flight_frames(bytes).last().map_or(0, |(_, end)| end)
            })?;
            Some(flight)
        } else {
            None
        };
        Ok(Self {
            dir,
            log,
            mirror,
            config,
            flight,
            group: None,
            next_seq: replay.next_seq,
            records_since_compact: replay.applied_records,
            now: 0,
            last_sync: 0,
            counters,
        })
    }

    /// Handle to the shared I/O counters (usable after the backend is
    /// boxed behind [`DurableBackend`]).
    pub fn io_counters(&self) -> Arc<FileIoCounters> {
        Arc::clone(&self.counters)
    }

    /// The backend's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn io_panic(&self, what: &str, e: std::io::Error) -> ! {
        panic!(
            "file backend cannot {what} in {}: {e} — a durable store that cannot store must stop",
            self.dir.display()
        );
    }

    /// Buffers one commit-log record made of `parts`.
    fn append_record(&mut self, parts: &[&[u8]]) {
        self.log.frame(parts);
        self.records_since_compact += 1;
        self.counters.add(&self.counters.appends, 1);
    }

    /// Writes + fsyncs everything buffered. The durability frontier of
    /// a reopen moves to this point.
    fn flush(&mut self) {
        match self.log.flush() {
            Ok(0) => {}
            Ok(written) => {
                self.counters.add(&self.counters.bytes_written, written);
                self.counters.add(&self.counters.fsyncs, 1);
            }
            Err(e) => self.io_panic("append to the commit log", e),
        }
        self.flush_flight();
        self.last_sync = self.now;
    }

    /// Writes + fsyncs the buffered flight frames. The forensic
    /// record's durability frontier moves to this point.
    fn flush_flight(&mut self) {
        if let Some(Err(e)) = self.flight.as_mut().map(Log::flush) {
            self.io_panic("append to the flight log", e);
        }
    }

    /// Truncates the flight sidecar and stamps a rotation marker —
    /// called once a compaction has folded history into the manifest,
    /// so the sidecar stays bounded alongside the commit log.
    fn rotate_flight(&mut self) {
        let Some(flight) = self.flight.as_mut() else {
            return;
        };
        if let Err(e) = flight.truncate() {
            self.io_panic("rotate the flight log", e);
        }
        self.flight_append(crashpoint::ROTATE_ENTRY.as_bytes());
        self.flush_flight();
    }

    /// Emits the durable *intent* half of a boundary bracket. Under
    /// `always` the entry is fsynced before this returns, so a kill at
    /// the bracketed crash point leaves an unmatched `begin` — the
    /// forensic analyzer's cause signal.
    fn flight_begin(&mut self, boundary: Boundary) {
        self.flight_append(boundary.begin().as_bytes());
    }

    /// Emits the completion half of a boundary bracket.
    fn flight_end(&mut self, boundary: Boundary) {
        self.flight_append(boundary.end().as_bytes());
    }

    /// Applies the fsync strategy at a safe point (never inside an
    /// atomic group). Compaction is *not* triggered here: a record
    /// boundary or group commit can sit between a durable store and
    /// the TCB register update that hardware retires in the same ADR
    /// step, so maintenance waits for [`DurableBackend::tick`] /
    /// [`DurableBackend::sync`], which the engine only calls at
    /// register-consistent instants.
    fn safe_point(&mut self) {
        debug_assert!(self.group.is_none(), "safe point inside an atomic group");
        let due = match self.config.fsync {
            FsyncStrategy::Always => true,
            FsyncStrategy::Batch(n) => self.log.frames >= u64::from(n),
            FsyncStrategy::Interval(c) => self.now.saturating_sub(self.last_sync) >= c,
        };
        if due {
            self.flush();
        }
    }

    /// Triggers compaction when the threshold was crossed (called from
    /// `tick`/`sync`, the register-consistent maintenance points).
    fn maybe_compact(&mut self) {
        if self.group.is_none() && self.records_since_compact >= self.config.compact_threshold {
            self.compact();
        }
    }

    /// Folds the log into a freshly swapped manifest and truncates the
    /// log. Forces a flush first (compaction is a sync point under
    /// every strategy). Fires the `manifest-swap` crash point at each
    /// of its three persist boundaries.
    pub fn compact(&mut self) {
        assert!(
            self.group.is_none(),
            "cannot compact inside an atomic group"
        );
        self.flush();
        if let Err(e) = self.write_manifest() {
            self.io_panic("swap the manifest", e);
        }
        self.flight_begin(Boundary::ManifestSwap);
        if let Err(e) = self.log.truncate() {
            self.io_panic("truncate the compacted log", e);
        }
        crashpoint::fire(Boundary::ManifestSwap.label());
        self.flight_end(Boundary::ManifestSwap);
        self.records_since_compact = 0;
        self.counters.add(&self.counters.compactions, 1);
        self.rotate_flight();
    }

    /// Writes `manifest.tmp`, fsyncs it, renames it over `manifest`
    /// and fsyncs the directory — the atomic-replace idiom.
    fn write_manifest(&mut self) -> std::io::Result<()> {
        self.flight_begin(Boundary::ManifestSwap);
        let mut entries: Vec<(LineAddr, &Line)> = self.mirror.iter().collect();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        let mut bytes = Vec::with_capacity(8 + 8 + entries.len() * 72 + 4);
        bytes.extend_from_slice(&MANIFEST_MAGIC);
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (addr, content) in entries {
            bytes.extend_from_slice(&addr.0.to_le_bytes());
            bytes.extend_from_slice(content);
        }
        let crc = crc32(&bytes[8..]);
        bytes.extend_from_slice(&crc.to_le_bytes());

        let tmp = self.dir.join(MANIFEST_TMP_FILE);
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        crashpoint::fire(Boundary::ManifestSwap.label());
        std::fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        // Make the rename itself durable.
        File::open(&self.dir)?.sync_all()?;
        crashpoint::fire(Boundary::ManifestSwap.label());
        self.flight_end(Boundary::ManifestSwap);
        Ok(())
    }
}

/// The well-formed frames at the head of a flight log, oldest first:
/// each frame's payload and the offset just past the frame. Stops at
/// the first torn or corrupt frame.
fn flight_frames(bytes: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let rest = &bytes[pos..];
        if rest.first() != Some(&KIND_FLIGHT) {
            return None;
        }
        let len = u32::from_le_bytes(rest.get(1..5)?.try_into().ok()?) as usize;
        let frame = rest.get(..FLIGHT_OVERHEAD + len)?;
        let (body, crc) = frame.split_at(frame.len() - 4);
        if crc32(body).to_le_bytes() != crc {
            return None;
        }
        pos += frame.len();
        Some((&body[5..], pos))
    })
}

/// Reads the flight sidecar under `dir` without opening the backend:
/// returns the well-formed entries (oldest first) and the number of
/// torn tail bytes discarded. A missing sidecar reads as empty.
///
/// Call this *before* [`FileBackend::open`] when doing forensics — an
/// open with flight recording enabled truncates the torn tail, losing
/// the discard count.
///
/// # Errors
///
/// Returns [`FileBackendError`] on filesystem failures.
pub fn read_flight_log(dir: impl AsRef<Path>) -> Result<(Vec<String>, u64), FileBackendError> {
    let bytes = read_if_present(&dir.as_ref().join(FLIGHT_FILE))?.unwrap_or_default();
    let mut valid = 0;
    let entries = flight_frames(&bytes)
        .map(|(payload, end)| {
            valid = end;
            String::from_utf8_lossy(payload).into_owned()
        })
        .collect();
    Ok((entries, (bytes.len() - valid) as u64))
}

#[derive(Default)]
struct Replay {
    /// Byte offset just past the last applied record (standalone, or
    /// the `COMMIT` of a complete group).
    applied_end: usize,
    applied_records: u64,
    next_seq: u64,
}

/// Replays a commit log over `mirror`. Stops at the first torn record
/// (truncated frame or CRC mismatch); a group whose `COMMIT` never
/// made it to disk is discarded wholesale — the ADR `end` signal was
/// never sent.
fn replay_log(bytes: &[u8], mirror: &mut LineStore) -> Replay {
    let mut pos = 0usize;
    let mut applied_end = 0usize;
    let mut applied_records = 0u64;
    let mut next_seq = 0u64;
    // Sequence number of the open group; its stores wait in `staged`,
    // one buffer reused by every group.
    let mut group: Option<u64> = None;
    let mut staged: Vec<(LineAddr, Line)> = Vec::new();

    while pos < bytes.len() {
        let kind = bytes[pos];
        let frame = match kind {
            KIND_STORE => STORE_RECORD,
            KIND_BEGIN | KIND_COMMIT => SHORT_RECORD,
            _ => break, // unknown kind: torn/corrupt tail
        };
        if pos + frame > bytes.len() {
            break; // truncated tail record
        }
        let (body, crc) = bytes[pos..pos + frame].split_at(frame - 4);
        if crc32(body).to_le_bytes() != crc {
            break; // torn tail record
        }
        let arg = u64::from_le_bytes(body[1..9].try_into().expect("8"));
        match kind {
            KIND_STORE => {
                let content: Line = body[9..73].try_into().expect("64");
                if group.is_some() {
                    staged.push((LineAddr(arg), content));
                } else {
                    mirror.write(LineAddr(arg), content);
                    applied_records += 1;
                    applied_end = pos + frame;
                }
            }
            KIND_BEGIN => {
                if group.is_some() {
                    break; // nested BEGIN: corrupt tail
                }
                let Some(after) = arg.checked_add(1) else {
                    break; // no sequence can follow: corrupt tail
                };
                staged.clear();
                group = Some(arg);
                next_seq = next_seq.max(after);
            }
            KIND_COMMIT => match group.take() {
                Some(seq) if seq == arg => {
                    mirror.extend(staged.iter().copied());
                    // markers + members all count as applied records.
                    applied_records += staged.len() as u64 + 2;
                    applied_end = pos + frame;
                }
                _ => break, // COMMIT without matching BEGIN: corrupt
            },
            _ => unreachable!("frame lookup rejected unknown kinds"),
        }
        pos += frame;
    }
    Replay {
        applied_end,
        applied_records,
        next_seq,
    }
}

fn load_manifest(path: &Path) -> Result<LineStore, FileBackendError> {
    let Some(bytes) = read_if_present(path)? else {
        return Ok(LineStore::new());
    };
    let corrupt = |detail: &str| FileBackendError::CorruptManifest {
        path: path.to_path_buf(),
        detail: detail.to_owned(),
    };
    if bytes.len() < 8 + 8 + 4 || bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt("missing or bad magic"));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    let entries = &body[16..];
    // Divide the length rather than multiply the untrusted count,
    // which can overflow.
    if entries.len() % 72 != 0 || (entries.len() / 72) as u64 != count {
        return Err(corrupt(&format!(
            "length {} does not match {count} entries",
            bytes.len()
        )));
    }
    if crc32(&body[8..]).to_le_bytes() != crc {
        return Err(corrupt("checksum mismatch"));
    }
    // The length check above bounds the count, so the exact size hint
    // of `chunks_exact` pre-sizes the mirror.
    Ok(entries
        .chunks_exact(72)
        .map(|entry| {
            let addr = u64::from_le_bytes(entry[..8].try_into().expect("8"));
            (LineAddr(addr), entry[8..].try_into().expect("64"))
        })
        .collect())
}

impl DurableBackend for FileBackend {
    fn load(&self, line: LineAddr) -> Option<Line> {
        self.mirror.get(line).copied()
    }

    fn store(&mut self, line: LineAddr, content: Line) {
        self.mirror.write(line, content);
        self.append_record(&[&[KIND_STORE], &line.0.to_le_bytes(), &content]);
        if self.group.is_none() {
            self.safe_point();
        }
    }

    fn len(&self) -> usize {
        self.mirror.len()
    }

    fn addrs(&self) -> Vec<LineAddr> {
        self.mirror.iter().map(|(l, _)| l).collect()
    }

    fn snapshot(&self) -> LineStore {
        self.mirror.clone()
    }

    fn restore(&mut self, image: &LineStore) {
        // Wholesale replacement: install the image as the new manifest
        // and start from an empty log, dropping anything buffered.
        self.group = None;
        self.mirror = image.clone();
        if let Err(e) = self.write_manifest() {
            self.io_panic("swap the manifest during restore", e);
        }
        if let Err(e) = self.log.truncate() {
            self.io_panic("truncate the log during restore", e);
        }
        self.records_since_compact = 0;
        self.rotate_flight();
    }

    fn begin_atomic(&mut self) {
        assert!(self.group.is_none(), "atomic groups do not nest");
        if self.next_seq == u64::MAX {
            // Replay reads `BEGIN u64::MAX` as a corrupt tail: no
            // sequence can follow it. Fold the log into the manifest
            // instead and number the empty log's groups from 0, as a
            // reopen of it would.
            self.compact();
            self.next_seq = 0;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.append_record(&[&[KIND_BEGIN], &seq.to_le_bytes()]);
        self.group = Some(seq);
    }

    fn commit_atomic(&mut self) {
        let seq = self
            .group
            .take()
            .expect("commit_atomic without begin_atomic");
        self.append_record(&[&[KIND_COMMIT], &seq.to_le_bytes()]);
        self.safe_point();
    }

    fn sync(&mut self) {
        self.flush();
        self.maybe_compact();
    }

    fn io_stats(&self) -> Option<FileIoStats> {
        Some(self.counters.stats())
    }

    fn tick(&mut self, now: Cycle) {
        self.now = now;
        if let FsyncStrategy::Interval(c) = self.config.fsync {
            if self.group.is_none() && now.saturating_sub(self.last_sync) >= c {
                self.flush();
            }
        }
        self.maybe_compact();
    }

    fn flight_append(&mut self, entry: &[u8]) {
        let Some(flight) = self.flight.as_mut() else {
            return;
        };
        flight.frame(&[&[KIND_FLIGHT], &(entry.len() as u32).to_le_bytes(), entry]);
        // Under `always` the entry must be durable before the caller's
        // next crash point can fire — flight appends happen *inside*
        // atomic groups too (WPQ retire), where `safe_point` never
        // runs, so the flush cannot be deferred to a record boundary.
        if self.config.fsync == FsyncStrategy::Always {
            self.flush_flight();
        }
    }

    fn flight_enabled(&self) -> bool {
        self.flight.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ccnvm-file-{tag}-{}-{n}", std::process::id()))
    }

    fn open(dir: &Path) -> FileBackend {
        FileBackend::open(dir, FileBackendConfig::default()).expect("open")
    }

    /// The definition of the CRC, one bit at a time: the oracle the
    /// table-driven [`crc32`] must equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        const POLY: u32 = 0xEDB8_8320;
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= POLY;
                }
            }
        }
        !crc
    }

    /// One CRC-valid commit-log record of `kind`, as a forger writes it.
    fn record(kind: u8, arg: u64, content: Option<Line>) -> Vec<u8> {
        let mut f = vec![kind];
        f.extend_from_slice(&arg.to_le_bytes());
        f.extend_from_slice(content.as_ref().map_or(&[][..], |c| &c[..]));
        let crc = crc32(&f);
        f.extend_from_slice(&crc.to_le_bytes());
        f
    }

    /// FNV-1a, 64-bit: a dependency-free digest for pinning file bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Drives one fixed sequence through a store with the flight
    /// sidecar on: standalone stores, atomic groups, flight entries and
    /// a forced compaction, then more of each so all three files end
    /// non-empty.
    fn write_fixed_store(dir: &Path) {
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Always,
            compact_threshold: u64::MAX,
            flight: true,
        };
        let line =
            |i: u64| -> Line { core::array::from_fn(|j| (i as u8).wrapping_mul(31) ^ j as u8) };
        let mut b = FileBackend::open(dir, cfg).expect("open");
        for i in 0..6u64 {
            b.store(LineAddr(i * 7), line(i));
        }
        b.begin_atomic();
        b.store(LineAddr(100), line(100));
        b.store(LineAddr(101), line(101));
        b.commit_atomic();
        b.flight_append(b"{\"flight\":\"epoch\",\"at\":1,\"index\":1}");
        b.compact();
        for i in 6..10u64 {
            b.store(LineAddr(i * 7), line(i));
        }
        b.begin_atomic();
        b.store(LineAddr(3), line(3));
        b.commit_atomic();
        b.flight_append(b"{\"flight\":\"epoch\",\"at\":2,\"index\":2}");
        b.sync();
    }

    #[test]
    fn crc32_matches_the_iso_hdlc_check_value() {
        // The canonical CRC-32/ISO-HDLC check: crc32(b"123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bitwise_definition() {
        let mut rng = ccnvm_rng::Rng::seed_from_u64(0xC4C32);
        let bytes = rng.gen_bytes(300 + 8);
        // Every tail length and every start alignment of the 8-byte
        // stride.
        for start in 0..8 {
            for len in 0..=300 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "start {start} len {len}");
            }
        }
        let big = rng.gen_bytes(1 << 20);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn on_disk_format_is_pinned() {
        let dir = temp_dir("format");
        write_fixed_store(&dir);
        let digest = |name: &str| fnv1a64(&std::fs::read(dir.join(name)).expect("read"));
        assert_eq!(
            [digest(LOG_FILE), digest(MANIFEST_FILE), digest(FLIGHT_FILE)],
            [
                0x3ea3_db7b_7064_9f68,
                0x03ef_dd57_aa07_80c4,
                0xd84a_e51e_2fe6_1298
            ],
            "commit.log, manifest, flight.log"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_bit_flips_stop_every_reader_before_the_flipped_frame() {
        let dir = temp_dir("flips");
        write_fixed_store(&dir);
        let names = [LOG_FILE, MANIFEST_FILE, FLIGHT_FILE];
        let originals = names.map(|name| std::fs::read(dir.join(name)).expect("read"));
        // Frame start offsets of the well-formed log and sidecar.
        let frame_starts = |bytes: &[u8], frame_len: &dyn Fn(&[u8]) -> usize| {
            let mut starts = Vec::new();
            let mut pos = 0;
            while pos < bytes.len() {
                starts.push(pos);
                pos += frame_len(&bytes[pos..]);
            }
            assert_eq!(pos, bytes.len(), "the fixed store is well-formed");
            starts
        };
        let log_starts = frame_starts(&originals[0], &|f| match f[0] {
            KIND_STORE => STORE_RECORD,
            _ => SHORT_RECORD,
        });
        let flight_starts = frame_starts(&originals[2], &|f| {
            FLIGHT_OVERHEAD + u32::from_le_bytes(f[1..5].try_into().expect("4")) as usize
        });
        // Index of the frame holding byte `at`.
        let frame_of = |starts: &[usize], at: usize| starts.partition_point(|&s| s <= at) - 1;

        let mut rng = ccnvm_rng::Rng::seed_from_u64(0xF11B);
        let work = temp_dir("flips-work");
        let cfg = FileBackendConfig::default();
        for (file, name) in names.into_iter().enumerate() {
            for _ in 0..48 {
                let mut bytes = originals[file].clone();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
                std::fs::create_dir_all(&work).expect("work dir");
                for (other, other_name) in names.into_iter().enumerate() {
                    let content = if other == file {
                        &bytes
                    } else {
                        &originals[other]
                    };
                    std::fs::write(work.join(other_name), content).expect("write");
                }
                match name {
                    LOG_FILE => {
                        let b = FileBackend::open(&work, cfg).expect("a torn log is no error");
                        let before = frame_of(&log_starts, at) as u64;
                        let replayed = b.io_counters().stats().replayed_records;
                        assert!(
                            replayed <= before,
                            "flip at byte {at}: {replayed} > {before}"
                        );
                    }
                    MANIFEST_FILE => {
                        let err = FileBackend::open(&work, cfg)
                            .expect_err("a flipped manifest must not load");
                        assert!(
                            matches!(err, FileBackendError::CorruptManifest { .. }),
                            "flip at byte {at}: {err}"
                        );
                    }
                    _ => {
                        let (entries, _) = read_flight_log(&work).expect("read");
                        let frame = frame_of(&flight_starts, at);
                        assert!(
                            entries.len() <= frame,
                            "flip at byte {at}: {} entries",
                            entries.len()
                        );
                        let flight = FileBackendConfig {
                            flight: true,
                            ..cfg
                        };
                        drop(FileBackend::open(&work, flight).expect("a torn sidecar is no error"));
                    }
                }
                std::fs::remove_dir_all(&work).ok();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cuts the fixed store's `commit.log` at every byte offset: a
    /// reopen applies exactly the standalone records and complete
    /// groups that end at or before the cut, counts the rest as
    /// discarded and leaves the log at the applied prefix.
    #[test]
    fn every_commit_log_cut_applies_exactly_the_units_before_it() {
        let dir = temp_dir("logcuts");
        write_fixed_store(&dir);
        let log = std::fs::read(dir.join(LOG_FILE)).expect("read");
        let manifest = std::fs::read(dir.join(MANIFEST_FILE)).expect("read");
        let base = load_manifest(&dir.join(MANIFEST_FILE)).expect("manifest");
        // The log's units, in order: each standalone STORE and each
        // BEGIN..COMMIT group, with the offset just past it, its
        // stores and its record count.
        type Store = (LineAddr, Line);
        let mut units: Vec<(usize, Vec<Store>, u64)> = Vec::new();
        let mut group: Option<Vec<Store>> = None;
        let mut pos = 0;
        while pos < log.len() {
            match log[pos] {
                KIND_STORE => {
                    let addr = u64::from_le_bytes(log[pos + 1..pos + 9].try_into().unwrap());
                    let store = (LineAddr(addr), log[pos + 9..pos + 73].try_into().unwrap());
                    pos += STORE_RECORD;
                    match group.as_mut() {
                        Some(stores) => stores.push(store),
                        None => units.push((pos, vec![store], 1)),
                    }
                }
                KIND_BEGIN => {
                    pos += SHORT_RECORD;
                    group = Some(Vec::new());
                }
                kind => {
                    assert_eq!(kind, KIND_COMMIT);
                    pos += SHORT_RECORD;
                    let stores = group.take().expect("BEGIN before COMMIT");
                    let records = stores.len() as u64 + 2;
                    units.push((pos, stores, records));
                }
            }
        }
        assert!(
            units.iter().any(|u| u.2 == 1) && units.iter().any(|u| u.2 > 1),
            "the fixed log has standalone records and a group"
        );

        let work = temp_dir("logcuts-work");
        for cut in 0..=log.len() {
            std::fs::create_dir_all(&work).expect("work dir");
            std::fs::write(work.join(MANIFEST_FILE), &manifest).expect("write");
            std::fs::write(work.join(LOG_FILE), &log[..cut]).expect("write");
            let mut expected = base.clone();
            let (mut end, mut records) = (0, 0);
            for (unit_end, stores, n) in units.iter().take_while(|u| u.0 <= cut) {
                expected.extend(stores.iter().copied());
                end = *unit_end;
                records += n;
            }
            let b = open(&work);
            let stats = b.io_counters().stats();
            assert_eq!(stats.replayed_records, records, "cut {cut}");
            assert_eq!(stats.discarded_bytes, (cut - end) as u64, "cut {cut}");
            assert_eq!(b.len(), expected.len(), "cut {cut}");
            for (line, content) in expected.iter() {
                assert_eq!(b.load(line), Some(*content), "cut {cut}, {line:?}");
            }
            drop(b);
            let len = std::fs::metadata(work.join(LOG_FILE)).expect("log").len();
            assert_eq!(len, end as u64, "cut {cut}");
            std::fs::remove_dir_all(&work).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cuts the fixed store's `flight.log` at every byte offset: the
    /// reader returns exactly the entries whose frames end at or
    /// before the cut, and a flight-on open cuts the sidecar there.
    #[test]
    fn every_flight_log_cut_keeps_exactly_the_frames_before_it() {
        let dir = temp_dir("flightcuts");
        write_fixed_store(&dir);
        let flight = std::fs::read(dir.join(FLIGHT_FILE)).expect("read");
        let (all, discarded) = read_flight_log(&dir).expect("read");
        assert_eq!(discarded, 0);
        // The offset just past each frame, in order.
        let mut ends = Vec::new();
        let mut pos = 0;
        while pos < flight.len() {
            let len = u32::from_le_bytes(flight[pos + 1..pos + 5].try_into().unwrap());
            pos += FLIGHT_OVERHEAD + len as usize;
            ends.push(pos);
        }
        assert_eq!(ends.len(), all.len());
        assert!(all.len() >= 2, "the fixed sidecar has several frames");

        let work = temp_dir("flightcuts-work");
        let cfg = FileBackendConfig {
            flight: true,
            ..FileBackendConfig::default()
        };
        for cut in 0..=flight.len() {
            std::fs::create_dir_all(&work).expect("work dir");
            std::fs::write(work.join(FLIGHT_FILE), &flight[..cut]).expect("write");
            let kept = ends.partition_point(|&end| end <= cut);
            let end = kept.checked_sub(1).map_or(0, |i| ends[i]);
            let (entries, discarded) = read_flight_log(&work).expect("read");
            assert_eq!(entries, all[..kept], "cut {cut}");
            assert_eq!(discarded, (cut - end) as u64, "cut {cut}");
            drop(FileBackend::open(&work, cfg).expect("a torn sidecar is no error"));
            let len = std::fs::metadata(work.join(FLIGHT_FILE))
                .expect("sidecar")
                .len();
            assert_eq!(len, end as u64, "cut {cut}");
            std::fs::remove_dir_all(&work).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut b = open(&dir);
            b.store(LineAddr(3), [7u8; 64]);
            b.store(LineAddr(9), [9u8; 64]);
            b.store(LineAddr(9), [8u8; 64]);
        }
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(3)), Some([7u8; 64]));
        assert_eq!(b.load(LineAddr(9)), Some([8u8; 64]), "the overwrite wins");
        assert_eq!(b.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_group_rolls_back_on_reopen() {
        let dir = temp_dir("group");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            b.begin_atomic();
            b.store(LineAddr(2), [2u8; 64]);
            b.store(LineAddr(3), [3u8; 64]);
            b.commit_atomic();
            b.begin_atomic();
            b.store(LineAddr(4), [4u8; 64]);
            // Force the half-open group onto disk, then "crash" with
            // the COMMIT marker never written.
            b.flush();
            assert_eq!(b.load(LineAddr(4)), Some([4u8; 64]), "mirror is functional");
        }
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]));
        assert_eq!(b.load(LineAddr(2)), Some([2u8; 64]));
        assert_eq!(b.load(LineAddr(3)), Some([3u8; 64]));
        assert_eq!(b.load(LineAddr(4)), None, "group without COMMIT rolls back");
        let discarded = b.io_counters().stats().discarded_bytes;
        assert!(discarded > 0, "open BEGIN bytes must be cut off");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_record_is_discarded() {
        let dir = temp_dir("torn");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            b.store(LineAddr(2), [2u8; 64]);
        }
        // A write was in flight when power failed: a partial STORE
        // frame after the last good record.
        let log = dir.join(LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[KIND_STORE, 9, 9, 9]).unwrap();
        drop(f);
        let b = open(&dir);
        assert_eq!(b.len(), 2, "good prefix intact");
        assert_eq!(b.io_counters().stats().discarded_bytes, 4);
        // The log was truncated back, so appending keeps working.
        drop(b);
        let mut b = open(&dir);
        assert_eq!(b.io_counters().stats().discarded_bytes, 0);
        b.store(LineAddr(3), [3u8; 64]);
        drop(b);
        assert_eq!(open(&dir).len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_tail_crc_is_discarded() {
        let dir = temp_dir("crc");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            b.store(LineAddr(2), [2u8; 64]);
        }
        let log = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a CRC byte of the final record
        std::fs::write(&log, &bytes).unwrap();
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]));
        assert_eq!(b.load(LineAddr(2)), None, "bad CRC drops the record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_swaps_manifest_and_truncates_log() {
        let dir = temp_dir("compact");
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Always,
            compact_threshold: 8,
            ..FileBackendConfig::default()
        };
        let mut b = FileBackend::open(&dir, cfg).expect("open");
        for i in 0..20u64 {
            b.store(LineAddr(i), [i as u8; 64]);
            b.tick(i); // maintenance point: compaction may trigger here
        }
        let stats = b.io_counters().stats();
        assert!(stats.compactions >= 1, "threshold crossed: {stats:?}");
        assert!(dir.join(MANIFEST_FILE).exists());
        drop(b);
        let b = FileBackend::open(&dir, cfg).expect("reopen");
        for i in 0..20u64 {
            assert_eq!(b.load(LineAddr(i)), Some([i as u8; 64]), "line {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_log_replay_over_manifest_is_idempotent() {
        // Crash between the manifest rename and the log truncation:
        // the manifest already absorbed the log, which is still there.
        let dir = temp_dir("stale");
        let log_copy;
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            b.store(LineAddr(2), [2u8; 64]);
            b.store(LineAddr(2), [3u8; 64]);
            log_copy = std::fs::read(dir.join(LOG_FILE)).unwrap();
            b.compact();
        }
        // Resurrect the pre-compaction log next to the new manifest.
        std::fs::write(dir.join(LOG_FILE), &log_copy).unwrap();
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]));
        assert_eq!(b.load(LineAddr(2)), Some([3u8; 64]));
        assert_eq!(b.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_manifest_tmp_is_ignored() {
        let dir = temp_dir("tmp");
        {
            let mut b = open(&dir);
            b.store(LineAddr(5), [5u8; 64]);
        }
        std::fs::write(dir.join(MANIFEST_TMP_FILE), b"half-written garbage").unwrap();
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(5)), Some([5u8; 64]));
        assert!(
            !dir.join(MANIFEST_TMP_FILE).exists(),
            "crash artifact removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = temp_dir("badmanifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), b"not a manifest at all").unwrap();
        let err = FileBackend::open(&dir, FileBackendConfig::default()).unwrap_err();
        assert!(matches!(err, FileBackendError::CorruptManifest { .. }));
        assert!(err.to_string().contains("manifest"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_count_overflowing_the_length_is_a_typed_error() {
        // Magic, an entry count of 2^61 (so `count * 72` wraps to 0)
        // and a valid CRC: 20 bytes that claim an exabyte of entries.
        let dir = temp_dir("hugemanifest");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        let err = FileBackend::open(&dir, FileBackendConfig::default()).unwrap_err();
        assert!(
            matches!(&err, FileBackendError::CorruptManifest { detail, .. }
                if detail.contains("does not match")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_at_the_last_sequence_number_is_a_corrupt_tail() {
        // A CRC-valid group whose BEGIN carries sequence u64::MAX: no
        // sequence can follow it, so replay stops at the BEGIN and the
        // group is discarded although its COMMIT is intact.
        let dir = temp_dir("maxseq");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
        }
        let mut tail = record(KIND_BEGIN, u64::MAX, None);
        tail.extend(record(KIND_STORE, 7, Some([7u8; 64])));
        tail.extend(record(KIND_COMMIT, u64::MAX, None));
        let log = dir.join(LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&tail).unwrap();
        drop(f);
        let mut b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]), "good prefix intact");
        assert_eq!(
            b.load(LineAddr(7)),
            None,
            "the group after the BEGIN is cut"
        );
        assert_eq!(
            b.io_counters().stats().discarded_bytes,
            (2 * SHORT_RECORD + STORE_RECORD) as u64
        );
        // The log was truncated back, so appending keeps working.
        b.begin_atomic();
        b.store(LineAddr(2), [2u8; 64]);
        b.commit_atomic();
        drop(b);
        assert_eq!(open(&dir).load(LineAddr(2)), Some([2u8; 64]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kind 2 was the ERASE record. A CRC-valid kind-2 frame after a
    /// committed group is a corrupt tail: the group applies, and the
    /// frame and all after it are discarded.
    #[test]
    fn a_kind_2_frame_is_a_corrupt_tail() {
        let dir = temp_dir("kind2");
        {
            let mut b = open(&dir);
            b.begin_atomic();
            b.store(LineAddr(1), [1u8; 64]);
            b.store(LineAddr(2), [2u8; 64]);
            b.commit_atomic();
        }
        let log = dir.join(LOG_FILE);
        let committed = std::fs::metadata(&log).unwrap().len();
        let mut tail = record(2, 1, None);
        tail.extend(record(KIND_STORE, 3, Some([3u8; 64])));
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&tail).unwrap();
        drop(f);
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]), "nothing erases it");
        assert_eq!(b.load(LineAddr(2)), Some([2u8; 64]));
        assert_eq!(b.load(LineAddr(3)), None, "nothing after the frame applies");
        let stats = b.io_counters().stats();
        assert_eq!(stats.replayed_records, 4);
        assert_eq!(stats.discarded_bytes, tail.len() as u64);
        drop(b);
        assert_eq!(std::fs::metadata(&log).unwrap().len(), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_ending_at_the_last_sequence_number_keeps_the_next_commit() {
        // A CRC-valid committed group at u64::MAX - 1 replays, leaving
        // the writer with no successor sequence for its next group.
        let dir = temp_dir("lastseq");
        drop(open(&dir));
        let mut log = record(KIND_BEGIN, u64::MAX - 1, None);
        log.extend(record(KIND_STORE, 7, Some([7u8; 64])));
        log.extend(record(KIND_COMMIT, u64::MAX - 1, None));
        std::fs::write(dir.join(LOG_FILE), &log).unwrap();
        let mut b = open(&dir);
        assert_eq!(b.load(LineAddr(7)), Some([7u8; 64]), "the group replays");
        b.begin_atomic();
        b.store(LineAddr(2), [2u8; 64]);
        b.commit_atomic();
        drop(b);
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(7)), Some([7u8; 64]));
        assert_eq!(
            b.load(LineAddr(2)),
            Some([2u8; 64]),
            "the new commit survives"
        );
        assert_eq!(b.io_counters().stats().discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_strategy_loses_unsynced_tail_on_kill() {
        let dir = temp_dir("batch");
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Batch(100),
            compact_threshold: u64::MAX,
            ..FileBackendConfig::default()
        };
        {
            let mut b = FileBackend::open(&dir, cfg).expect("open");
            b.store(LineAddr(1), [1u8; 64]);
            b.store(LineAddr(2), [2u8; 64]);
            // Dropped without sync: both records were only buffered.
        }
        let b = FileBackend::open(&dir, cfg).expect("reopen");
        assert!(b.is_empty(), "unsynced records are lost by design");
        drop(b);
        {
            let mut b = FileBackend::open(&dir, cfg).expect("open");
            b.store(LineAddr(1), [1u8; 64]);
            b.sync();
            b.store(LineAddr(2), [2u8; 64]);
        }
        let b = FileBackend::open(&dir, cfg).expect("reopen");
        assert_eq!(b.load(LineAddr(1)), Some([1u8; 64]), "synced survives");
        assert_eq!(b.load(LineAddr(2)), None, "post-sync tail lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_strategy_flushes_on_tick() {
        let dir = temp_dir("interval");
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Interval(1_000),
            compact_threshold: u64::MAX,
            ..FileBackendConfig::default()
        };
        {
            let mut b = FileBackend::open(&dir, cfg).expect("open");
            b.store(LineAddr(1), [1u8; 64]);
            b.tick(500);
            b.store(LineAddr(2), [2u8; 64]);
            b.tick(1_500); // interval elapsed: both records flush
            b.store(LineAddr(3), [3u8; 64]); // never flushed
        }
        let b = FileBackend::open(&dir, cfg).expect("reopen");
        assert_eq!(b.len(), 2);
        assert_eq!(b.load(LineAddr(3)), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_replaces_contents_durably() {
        let dir = temp_dir("restore");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            let mut image = LineStore::new();
            image.write(LineAddr(7), [7u8; 64]);
            image.write(LineAddr(8), [8u8; 64]);
            b.restore(&image);
            assert_eq!(b.len(), 2);
        }
        let b = open(&dir);
        assert_eq!(b.load(LineAddr(1)), None);
        assert_eq!(b.load(LineAddr(7)), Some([7u8; 64]));
        assert_eq!(b.load(LineAddr(8)), Some([8u8; 64]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_entries_survive_reopen_and_torn_tail_is_cut() {
        let dir = temp_dir("flight");
        let cfg = FileBackendConfig {
            flight: true,
            ..FileBackendConfig::default()
        };
        {
            let mut b = FileBackend::open(&dir, cfg).expect("open");
            b.store(LineAddr(1), [1u8; 64]);
            b.flight_append(b"{\"flight\":\"boundary\",\"op\":\"begin\",\"label\":\"x\"}");
            b.flight_append(b"{\"flight\":\"boundary\",\"op\":\"end\",\"label\":\"x\"}");
        }
        let (entries, discarded) = read_flight_log(&dir).expect("read");
        assert_eq!(entries.len(), 2);
        assert_eq!(discarded, 0);
        assert!(entries[0].contains("\"op\":\"begin\""));
        // A kill mid-append leaves a partial frame; the reader skips
        // it and an open cuts it off.
        let path = dir.join(FLIGHT_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[KIND_FLIGHT, 200, 0, 0, 0, b'{']).unwrap();
        drop(f);
        let (entries, discarded) = read_flight_log(&dir).expect("read torn");
        assert_eq!(entries.len(), 2, "good prefix intact");
        assert_eq!(discarded, 6);
        drop(FileBackend::open(&dir, cfg).expect("reopen truncates"));
        let (entries, discarded) = read_flight_log(&dir).expect("read clean");
        assert_eq!(entries.len(), 2);
        assert_eq!(discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_disabled_writes_no_sidecar() {
        let dir = temp_dir("noflight");
        {
            let mut b = open(&dir);
            b.store(LineAddr(1), [1u8; 64]);
            b.flight_append(b"ignored");
            assert!(!b.flight_enabled());
        }
        assert!(!dir.join(FLIGHT_FILE).exists());
        let (entries, discarded) = read_flight_log(&dir).expect("missing reads empty");
        assert!(entries.is_empty());
        assert_eq!(discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rotates_flight_sidecar() {
        let dir = temp_dir("flightrotate");
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Always,
            compact_threshold: 4,
            flight: true,
        };
        let mut b = FileBackend::open(&dir, cfg).expect("open");
        for i in 0..8u64 {
            b.flight_append(
                format!("{{\"flight\":\"epoch\",\"at\":{i},\"index\":{i}}}").as_bytes(),
            );
            b.store(LineAddr(i), [i as u8; 64]);
            b.tick(i);
        }
        assert!(b.io_counters().stats().compactions >= 1);
        drop(b);
        let (entries, _) = read_flight_log(&dir).expect("read");
        assert!(
            entries[0].contains("\"op\":\"rotate\""),
            "rotation marker must open the post-compaction sidecar: {entries:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_strategy_defers_flight_flush_to_sync() {
        let dir = temp_dir("flightbatch");
        let cfg = FileBackendConfig {
            fsync: FsyncStrategy::Batch(100),
            compact_threshold: u64::MAX,
            flight: true,
        };
        {
            let mut b = FileBackend::open(&dir, cfg).expect("open");
            b.flight_append(b"{\"flight\":\"epoch\",\"at\":1,\"index\":1}");
            b.sync();
            b.flight_append(b"{\"flight\":\"epoch\",\"at\":2,\"index\":2}");
            // Dropped unsynced: the second entry is the loss window.
        }
        let (entries, _) = read_flight_log(&dir).expect("read");
        assert_eq!(entries.len(), 1, "post-sync tail lost by design");
        assert!(entries[0].contains("\"at\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_strategy_parses_and_displays() {
        assert_eq!("always".parse::<FsyncStrategy>(), Ok(FsyncStrategy::Always));
        assert_eq!(
            "batch:16".parse::<FsyncStrategy>(),
            Ok(FsyncStrategy::Batch(16))
        );
        assert_eq!(
            "interval:50000".parse::<FsyncStrategy>(),
            Ok(FsyncStrategy::Interval(50_000))
        );
        for bad in ["", "sometimes", "batch:0", "batch:x", "interval:0"] {
            assert!(bad.parse::<FsyncStrategy>().is_err(), "{bad:?}");
        }
        assert_eq!(FsyncStrategy::Batch(8).to_string(), "batch:8");
        assert_eq!(
            FsyncStrategy::Batch(8).to_string().parse::<FsyncStrategy>(),
            Ok(FsyncStrategy::Batch(8)),
            "display round-trips through parse"
        );
    }
}
