//! The write-ahead log: durable, checksummed framing for the command
//! stream.
//!
//! Each record the service emits — an accepted [`Command`] or a failed
//! command's rejection tally entry — is framed as
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][body]
//! body = [record version: u16 LE][kind: u8][seq: u64 LE][payload bytes]
//! ```
//!
//! where `len` is the body length, the CRC (IEEE 802.3) covers the whole
//! body, `seq` is a globally monotone record sequence number, and the
//! payload is the same text line the [`crate::SubmissionLog`] serializes
//! ([`Command::fmt_line`]) — one serialization, two containers. The
//! stream itself opens with an 10-byte header (`GAVELWAL` magic + stream
//! version), so a file that is not a WAL is distinguishable from a WAL
//! with a damaged tail.
//!
//! Records reach storage through a pluggable [`LogSink`]:
//! [`MemorySink`] for tests and in-process capture, [`FileSink`] for
//! real runs, and [`FaultSink`] for crash injection (deterministic torn
//! writes mid-append, driven by a [`FaultPlan`]). [`scan_wal`] reads a
//! byte image back tolerantly: it stops at the first unreadable record —
//! truncated frame, checksum failure, unknown version/kind — and reports
//! the torn tail ([`TornTail`]) instead of failing the whole log, so
//! recovery lands on the last durable prefix.
//!
//! Durability contract: a command is durable once the append that framed
//! it returns. The in-memory service applies a command *before* the
//! append (acceptance is only known after application), so a crash
//! between application and append loses exactly the in-flight command —
//! nothing acknowledged to a caller after `apply` returns is ever lost,
//! and recovery converges on the longest prefix whose records survived
//! intact.

use crate::command::{Command, Rejection};
use crate::error::{InvalidCommand, InvalidReason, ServiceError};

/// Stream header magic. A byte image that does not open with this is not
/// a (possibly damaged) WAL but some other file entirely.
pub const WAL_MAGIC: &[u8; 8] = b"GAVELWAL";

/// Current WAL stream format version.
pub const WAL_STREAM_VERSION: u16 = 1;

/// Current record body version (the version tag inside each frame).
pub const WAL_RECORD_VERSION: u16 = 1;

const STREAM_HEADER_LEN: usize = WAL_MAGIC.len() + 2;
const FRAME_PREFIX_LEN: usize = 8; // len + crc
const BODY_MIN_LEN: usize = 2 + 1 + 8; // version + kind + seq

/// Sanity bound on a single record body; a frame length beyond this is
/// treated as corruption rather than attempted as an allocation.
const MAX_BODY_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven, no external deps.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A WAL-level failure (I/O, injected crash, or a stream that is not a
/// WAL at all). Torn tails are *not* errors — see [`TornTail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying storage failed.
    Io(String),
    /// A [`FaultSink`] injected a crash; the sink accepts no further
    /// appends.
    InjectedCrash,
    /// The byte image does not open with the WAL magic.
    BadMagic,
    /// The stream header carries a version this build does not read.
    UnsupportedStreamVersion(u16),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::InjectedCrash => write!(f, "wal sink crashed (fault injection)"),
            WalError::BadMagic => write!(f, "not a gavel WAL (bad magic)"),
            WalError::UnsupportedStreamVersion(v) => {
                write!(f, "unsupported WAL stream version {v}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Pluggable append-only byte storage for the WAL.
pub trait LogSink {
    /// Appends `bytes` atomically-or-not — a torn append is exactly what
    /// recovery tolerates.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Forces written bytes to durable storage.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Discards all content (checkpoint compaction rewrites the stream).
    fn reset(&mut self) -> Result<(), WalError>;
}

/// In-memory sink: the whole stream in a `Vec<u8>`.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The accumulated stream image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the sink, returning the stream image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl LogSink for MemorySink {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }

    fn reset(&mut self) -> Result<(), WalError> {
        self.bytes.clear();
        Ok(())
    }
}

/// File-backed sink for real runs.
#[derive(Debug)]
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Creates (truncating) the WAL file at `path`.
    pub fn create(path: &std::path::Path) -> Result<Self, WalError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileSink { file })
    }
}

impl LogSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        use std::io::Write as _;
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    fn reset(&mut self) -> Result<(), WalError> {
        use std::io::Seek as _;
        self.file.set_len(0)?;
        self.file.seek(std::io::SeekFrom::Start(0))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// A deterministic crash/corruption plan, reproducible from a seed.
/// Three independent fault axes:
///
/// - **kill after append *k*** — the *k*-th append (0-based) is torn:
///   only a deterministic prefix of the record's bytes lands, and the
///   sink refuses everything afterwards ([`WalError::InjectedCrash`]);
/// - **corrupt byte *b*** — XOR a byte of the final image with a nonzero
///   mask ([`FaultPlan::apply_to`]);
/// - **truncate at *t*** — cut the final image to `t` bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Tear the `appends`-th append after `keep_fraction_permille`/1000
    /// of its bytes, then refuse all further appends.
    pub kill: Option<KillSpec>,
    /// XOR the byte at this offset with this (nonzero) mask.
    pub corrupt_byte: Option<(u64, u8)>,
    /// Truncate the image to this many bytes.
    pub truncate_at: Option<u64>,
}

/// The torn-append half of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Which append (0-based) is torn.
    pub after_appends: usize,
    /// How much of the torn append's bytes land, in permille.
    pub keep_permille: u16,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derives one fault deterministically from `seed`: seeds cycle
    /// through kill / corrupt / truncate, with offsets bounded by the
    /// expected append count and image length.
    pub fn from_seed(seed: u64, appends_hint: usize, len_hint: u64) -> FaultPlan {
        let mut s = seed;
        let r0 = splitmix(&mut s);
        let r1 = splitmix(&mut s);
        let r2 = splitmix(&mut s);
        let mut plan = FaultPlan::default();
        match seed % 3 {
            0 if appends_hint > 0 => {
                plan.kill = Some(KillSpec {
                    after_appends: (r0 % appends_hint as u64) as usize,
                    keep_permille: (r1 % 1000) as u16,
                });
            }
            1 if len_hint > 0 => {
                let mask = ((r1 % 255) + 1) as u8;
                plan.corrupt_byte = Some((r0 % len_hint, mask));
            }
            _ if len_hint > 0 => {
                plan.truncate_at = Some(r2 % len_hint);
            }
            _ => {}
        }
        plan
    }

    /// Applies the post-hoc faults (corruption, truncation) to a WAL
    /// byte image — the deterministic stand-in for a disk that lied.
    pub fn apply_to(&self, bytes: &mut Vec<u8>) {
        if let Some((offset, mask)) = self.corrupt_byte {
            if let Some(b) = bytes.get_mut(offset as usize) {
                *b ^= mask.max(1);
            }
        }
        if let Some(t) = self.truncate_at {
            bytes.truncate(t as usize);
        }
    }
}

/// A sink that tears one append and then refuses all writes, per its
/// [`FaultPlan`] — the "process died mid-write" simulator. The byte
/// buffer is shared: [`FaultSink::disk`] hands out a [`FaultDisk`]
/// handle that can read the surviving image even after the sink itself
/// was consumed by a failed [`Wal::create`] (the crash-at-birth case).
#[derive(Debug, Clone, Default)]
pub struct FaultSink {
    bytes: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    plan: FaultPlan,
    appends: usize,
    dead: bool,
}

/// A read handle on a [`FaultSink`]'s byte buffer — what a crash
/// harness inspects after the "process" died.
#[derive(Debug, Clone)]
pub struct FaultDisk {
    bytes: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    plan: FaultPlan,
}

impl FaultDisk {
    /// The (possibly torn) stream image, with the plan's post-hoc
    /// corruption/truncation applied.
    pub fn damaged_bytes(&self) -> Vec<u8> {
        let mut bytes = self.bytes.borrow().clone();
        self.plan.apply_to(&mut bytes);
        bytes
    }
}

impl FaultSink {
    /// A sink that will fail according to `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSink {
            plan,
            ..FaultSink::default()
        }
    }

    /// A read handle that survives the sink being moved or dropped.
    pub fn disk(&self) -> FaultDisk {
        FaultDisk {
            bytes: std::rc::Rc::clone(&self.bytes),
            plan: self.plan,
        }
    }

    /// The (possibly torn) stream image, with the plan's post-hoc
    /// corruption/truncation applied.
    pub fn damaged_bytes(&self) -> Vec<u8> {
        self.disk().damaged_bytes()
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead
    }
}

impl LogSink for FaultSink {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.dead {
            return Err(WalError::InjectedCrash);
        }
        if let Some(kill) = self.plan.kill {
            if self.appends == kill.after_appends {
                let keep = (bytes.len() * kill.keep_permille as usize) / 1000;
                self.bytes.borrow_mut().extend_from_slice(&bytes[..keep]);
                self.dead = true;
                return Err(WalError::InjectedCrash);
            }
        }
        self.appends += 1;
        self.bytes.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        if self.dead {
            return Err(WalError::InjectedCrash);
        }
        Ok(())
    }

    fn reset(&mut self) -> Result<(), WalError> {
        if self.dead {
            return Err(WalError::InjectedCrash);
        }
        self.bytes.borrow_mut().clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// What a WAL record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An accepted command (payload = [`Command::fmt_line`]).
    Command,
    /// A failed command's tally entry (payload = `reject kind=... entity=...`).
    Rejection,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Command => 1,
            RecordKind::Rejection => 2,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Command),
            2 => Some(RecordKind::Rejection),
            _ => None,
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Globally monotone record sequence number.
    pub seq: u64,
    /// Command or rejection.
    pub kind: RecordKind,
    /// The record's text payload.
    pub payload: String,
}

/// The tally-relevant identity of a failed command, as persisted in a
/// rejection record. (The full [`ServiceError`] detail — which field of
/// an invalid payload was bad — is diagnostic, not replayable state, so
/// only the tally-relevant kind survives the round trip.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectionRecord {
    /// A rule rejection.
    Rejected(Rejection),
    /// A validation failure.
    Invalid,
}

impl From<&ServiceError> for RejectionRecord {
    fn from(e: &ServiceError) -> Self {
        match e {
            ServiceError::Rejected(r) => RejectionRecord::Rejected(*r),
            ServiceError::Invalid(_) => RejectionRecord::Invalid,
        }
    }
}

impl RejectionRecord {
    /// A [`ServiceError`] that tallies identically to the original
    /// (invalid-command field detail does not survive persistence).
    pub(crate) fn as_service_error(&self) -> ServiceError {
        match self {
            RejectionRecord::Rejected(r) => ServiceError::Rejected(*r),
            RejectionRecord::Invalid => ServiceError::Invalid(InvalidCommand {
                field: "(recovered)",
                reason: InvalidReason::NotFinite,
            }),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            RejectionRecord::Rejected(Rejection::DuplicateJob) => "duplicate-job",
            RejectionRecord::Rejected(Rejection::EntityCapExceeded) => "entity-cap",
            RejectionRecord::Rejected(Rejection::UnknownJob) => "unknown-job",
            RejectionRecord::Rejected(Rejection::NoFailureModel) => "no-failure-model",
            RejectionRecord::Rejected(Rejection::NothingToRepair) => "nothing-to-repair",
            RejectionRecord::Invalid => "invalid",
        }
    }

    fn from_name(name: &str) -> Option<RejectionRecord> {
        Some(match name {
            "duplicate-job" => RejectionRecord::Rejected(Rejection::DuplicateJob),
            "entity-cap" => RejectionRecord::Rejected(Rejection::EntityCapExceeded),
            "unknown-job" => RejectionRecord::Rejected(Rejection::UnknownJob),
            "no-failure-model" => RejectionRecord::Rejected(Rejection::NoFailureModel),
            "nothing-to-repair" => RejectionRecord::Rejected(Rejection::NothingToRepair),
            "invalid" => RejectionRecord::Invalid,
            _ => return None,
        })
    }

    /// Serializes as a rejection-record payload.
    pub fn fmt_payload(&self, entity: Option<u32>) -> String {
        format!(
            "reject kind={} entity={}",
            self.name(),
            entity.map_or("-".to_string(), |e| e.to_string())
        )
    }

    /// Parses a rejection-record payload back to `(record, entity)`.
    pub fn parse_payload(payload: &str) -> Option<(RejectionRecord, Option<u32>)> {
        let mut parts = payload.split_whitespace();
        if parts.next() != Some("reject") {
            return None;
        }
        let mut kind = None;
        let mut entity = None;
        for part in parts {
            match part.split_once('=')? {
                ("kind", v) => kind = Some(RejectionRecord::from_name(v)?),
                ("entity", "-") => entity = Some(None),
                ("entity", v) => entity = Some(Some(v.parse().ok()?)),
                _ => return None,
            }
        }
        Some((kind?, entity?))
    }
}

fn encode_record(seq: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(BODY_MIN_LEN + payload.len());
    body.extend_from_slice(&WAL_RECORD_VERSION.to_le_bytes());
    body.push(kind.to_byte());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(FRAME_PREFIX_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The WAL writer: frames records and appends them through a sink.
#[derive(Debug)]
pub struct Wal<S: LogSink> {
    sink: S,
    next_seq: u64,
}

impl<S: LogSink> Wal<S> {
    /// Starts a fresh WAL on `sink` (resets it and writes the stream
    /// header).
    pub fn create(sink: S) -> Result<Self, WalError> {
        Self::with_seq(sink, 0)
    }

    /// Starts a fresh WAL whose first record will carry `next_seq` —
    /// used after recovery, where sequence numbers continue from the
    /// recovered prefix.
    pub fn with_seq(mut sink: S, next_seq: u64) -> Result<Self, WalError> {
        sink.reset()?;
        let mut header = Vec::with_capacity(STREAM_HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_STREAM_VERSION.to_le_bytes());
        sink.append(&header)?;
        Ok(Wal { sink, next_seq })
    }

    /// Appends an accepted command; returns its sequence number.
    pub fn append_command(&mut self, cmd: &Command) -> Result<u64, WalError> {
        self.append_payload(RecordKind::Command, cmd.fmt_line().as_bytes())
    }

    /// Appends a failed command's tally entry; returns its sequence
    /// number.
    pub fn append_rejection(
        &mut self,
        rej: RejectionRecord,
        entity: Option<u32>,
    ) -> Result<u64, WalError> {
        self.append_payload(RecordKind::Rejection, rej.fmt_payload(entity).as_bytes())
    }

    fn append_payload(&mut self, kind: RecordKind, payload: &[u8]) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let frame = encode_record(seq, kind, payload);
        self.sink.append(&frame)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Forces written records to durable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.sink.sync()
    }

    /// Discards every record (the just-taken checkpoint covers them) and
    /// restarts the stream; sequence numbers keep counting.
    pub fn compact(&mut self) -> Result<(), WalError> {
        self.sink.reset()?;
        let mut header = Vec::with_capacity(STREAM_HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_STREAM_VERSION.to_le_bytes());
        self.sink.append(&header)
    }

    /// Sequence number the next record will carry (= records written so
    /// far, counting those compacted away).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The underlying sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

// ---------------------------------------------------------------------
// Tolerant reader
// ---------------------------------------------------------------------

/// Why the scan stopped before the end of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than the 8 frame-prefix bytes remained.
    TruncatedFrame,
    /// The frame announced more body bytes than the image holds.
    TruncatedBody,
    /// The frame length is structurally impossible (too small to hold a
    /// record body, or absurdly large) — corruption hit the length.
    BadLength(u32),
    /// The body checksum did not match.
    ChecksumMismatch,
    /// The record body carries a version this build does not read.
    BadRecordVersion(u16),
    /// The record kind byte is unknown.
    BadKind(u8),
    /// The payload is not UTF-8.
    PayloadNotUtf8,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedFrame => write!(f, "truncated frame prefix"),
            TornReason::TruncatedBody => write!(f, "truncated record body"),
            TornReason::BadLength(n) => write!(f, "impossible frame length {n}"),
            TornReason::ChecksumMismatch => write!(f, "checksum mismatch"),
            TornReason::BadRecordVersion(v) => write!(f, "unknown record version {v}"),
            TornReason::BadKind(k) => write!(f, "unknown record kind {k}"),
            TornReason::PayloadNotUtf8 => write!(f, "payload is not UTF-8"),
        }
    }
}

/// A damaged (or mid-write) tail: everything from `offset` on was
/// dropped by the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first unreadable record.
    pub offset: u64,
    /// How many bytes were dropped.
    pub dropped_bytes: u64,
    /// What was wrong with the record at `offset`.
    pub reason: TornReason,
}

/// Result of scanning a WAL byte image.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every intact record, in stream order.
    pub records: Vec<WalRecord>,
    /// The damaged tail, if the image did not end cleanly.
    pub torn: Option<TornTail>,
}

/// Scans a WAL byte image, returning every record up to the first
/// unreadable one. `Err` means the image is not a WAL at all (bad magic
/// or an unreadable stream version); a damaged *tail* — torn header
/// included, for an image shorter than the stream header — is reported
/// in [`WalScan::torn`], never panicking, never erroring.
///
/// An empty image is an empty WAL (no records, no tear): the log of a
/// service that crashed before creating its WAL.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    if bytes.is_empty() {
        return Ok(WalScan::default());
    }
    if bytes.len() < STREAM_HEADER_LEN {
        // The stream header itself was torn mid-write.
        if WAL_MAGIC.starts_with(&bytes[..bytes.len().min(WAL_MAGIC.len())]) {
            return Ok(WalScan {
                records: Vec::new(),
                torn: Some(TornTail {
                    offset: 0,
                    dropped_bytes: bytes.len() as u64,
                    reason: TornReason::TruncatedFrame,
                }),
            });
        }
        return Err(WalError::BadMagic);
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let stream_version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if stream_version == 0 || stream_version > WAL_STREAM_VERSION {
        return Err(WalError::UnsupportedStreamVersion(stream_version));
    }

    let mut scan = WalScan::default();
    let mut pos = STREAM_HEADER_LEN;
    let total = bytes.len();
    let torn = |pos: usize, reason: TornReason| TornTail {
        offset: pos as u64,
        dropped_bytes: (total - pos) as u64,
        reason,
    };
    while pos < total {
        if total - pos < FRAME_PREFIX_LEN {
            scan.torn = Some(torn(pos, TornReason::TruncatedFrame));
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len < BODY_MIN_LEN as u32 || len > MAX_BODY_LEN {
            scan.torn = Some(torn(pos, TornReason::BadLength(len)));
            break;
        }
        let body_start = pos + FRAME_PREFIX_LEN;
        let body_end = body_start + len as usize;
        if body_end > total {
            scan.torn = Some(torn(pos, TornReason::TruncatedBody));
            break;
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            scan.torn = Some(torn(pos, TornReason::ChecksumMismatch));
            break;
        }
        let version = u16::from_le_bytes([body[0], body[1]]);
        if version != WAL_RECORD_VERSION {
            scan.torn = Some(torn(pos, TornReason::BadRecordVersion(version)));
            break;
        }
        let Some(kind) = RecordKind::from_byte(body[2]) else {
            scan.torn = Some(torn(pos, TornReason::BadKind(body[2])));
            break;
        };
        let seq = u64::from_le_bytes([
            body[3], body[4], body[5], body[6], body[7], body[8], body[9], body[10],
        ]);
        let Ok(payload) = std::str::from_utf8(&body[BODY_MIN_LEN..]) else {
            scan.torn = Some(torn(pos, TornReason::PayloadNotUtf8));
            break;
        };
        scan.records.push(WalRecord {
            seq,
            kind,
            payload: payload.to_string(),
        });
        pos = body_end;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::JobId;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    fn sample_commands() -> Vec<Command> {
        vec![
            Command::AdvanceTo { seconds: 360.0 },
            Command::QueryAllocation,
            Command::Complete { job: JobId(3) },
            Command::InjectRepair { accel: 1 },
        ]
    }

    #[test]
    fn wal_round_trips_records() {
        let mut wal = Wal::create(MemorySink::new()).unwrap();
        for cmd in &sample_commands() {
            wal.append_command(cmd).unwrap();
        }
        wal.append_rejection(RejectionRecord::Rejected(Rejection::UnknownJob), Some(7))
            .unwrap();
        let scan = scan_wal(wal.sink().bytes()).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 5);
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(scan.records[4].kind, RecordKind::Rejection);
        let (rej, entity) = RejectionRecord::parse_payload(&scan.records[4].payload).unwrap();
        assert_eq!(rej, RejectionRecord::Rejected(Rejection::UnknownJob));
        assert_eq!(entity, Some(7));
        for (rec, cmd) in scan.records.iter().zip(&sample_commands()) {
            assert_eq!(rec.kind, RecordKind::Command);
            assert_eq!(rec.payload, cmd.fmt_line());
        }
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let mut wal = Wal::create(MemorySink::new()).unwrap();
        for cmd in &sample_commands() {
            wal.append_command(cmd).unwrap();
        }
        let full = wal.sink().bytes().to_vec();
        // Every truncation point recovers a prefix, never panics.
        for cut in 0..full.len() {
            let scan = scan_wal(&full[..cut]).unwrap();
            assert!(scan.records.len() <= 4);
            if cut < full.len() {
                // Either clean prefix or a reported tear — and the
                // records that survived are exactly leading ones.
                for (i, r) in scan.records.iter().enumerate() {
                    assert_eq!(r.seq, i as u64);
                }
            }
        }
        // Corrupting any single byte past the header loses only a suffix.
        for pos in STREAM_HEADER_LEN..full.len() {
            let mut img = full.clone();
            img[pos] ^= 0x40;
            let scan = scan_wal(&img).unwrap();
            assert!(
                scan.torn.is_some(),
                "corruption at {pos} must be detected (records={})",
                scan.records.len()
            );
        }
    }

    #[test]
    fn compaction_restarts_stream_with_continuing_seq() {
        let mut wal = Wal::create(MemorySink::new()).unwrap();
        for cmd in &sample_commands() {
            wal.append_command(cmd).unwrap();
        }
        wal.compact().unwrap();
        wal.append_command(&Command::QueryAllocation).unwrap();
        let scan = scan_wal(wal.sink().bytes()).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 4, "seq continues across compaction");
    }

    #[test]
    fn fault_sink_tears_deterministically() {
        let plan = FaultPlan {
            kill: Some(KillSpec {
                after_appends: 2,
                keep_permille: 500,
            }),
            ..FaultPlan::default()
        };
        let mut wal = Wal::create(FaultSink::new(plan)).unwrap();
        // Header consumed append 0; command appends 1 and 2 — the second
        // tears.
        wal.append_command(&Command::QueryAllocation).unwrap();
        let err = wal.append_command(&Command::InjectFailure).unwrap_err();
        assert_eq!(err, WalError::InjectedCrash);
        assert!(wal.sink().crashed());
        let scan = scan_wal(&wal.sink().damaged_bytes()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn.is_some());
    }

    #[test]
    fn empty_and_alien_images() {
        assert!(scan_wal(&[]).unwrap().records.is_empty());
        assert_eq!(
            scan_wal(b"not a wal at all").unwrap_err(),
            WalError::BadMagic
        );
        let mut img = Vec::new();
        img.extend_from_slice(WAL_MAGIC);
        img.extend_from_slice(&99u16.to_le_bytes());
        assert_eq!(
            scan_wal(&img).unwrap_err(),
            WalError::UnsupportedStreamVersion(99)
        );
    }

    #[test]
    fn fault_plan_from_seed_is_deterministic() {
        for seed in 0..50u64 {
            assert_eq!(
                FaultPlan::from_seed(seed, 10, 1000),
                FaultPlan::from_seed(seed, 10, 1000)
            );
        }
    }
}
