//! The write-ahead log, and the one frame everything this crate
//! persists rides in.
//!
//! A stream — the WAL, or a checkpoint image ([`crate::checkpoint`]) —
//! opens with a 10-byte header (`GAVELWAL` magic + stream version), so a
//! file that is not a stream is told apart from a stream with a damaged
//! tail. Frames follow:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload][seq: u64 LE]
//! ```
//!
//! `len` counts the payload and `seq`, the CRC (IEEE 802.3) covers the
//! same bytes in order, and `seq` is a globally monotone record sequence
//! number. A frame's variable part comes first and its fixed-width `seq`
//! last, so a writer that rewrites only a frame's last bytes extends one
//! running CRC over what it appended since its last seal, then over the
//! rewritten bytes ([`crate::checkpoint`]). The frame's CRC is the
//! crate's only integrity check. A WAL frame's payload is one line of
//! the crate's grammar ([`crate::command`]): an accepted command's
//! [`Command::fmt_line`](crate::Command::fmt_line), or the `reject` line
//! of a failed one, so tallies survive a crash too.
//!
//! Frames reach storage through a pluggable [`LogSink`]: [`MemorySink`]
//! for tests and in-process capture, [`FileSink`] for real runs, and
//! [`FaultSink`] for crash injection (deterministic torn writes
//! mid-append, driven by a [`FaultPlan`]). [`scan_wal`] reads a byte image
//! back tolerantly: it stops at the first frame that is truncated, has an
//! impossible length or fails its checksum, and reports the torn tail
//! ([`TornTail`]) instead of failing the whole log, so recovery lands on
//! the last intact prefix. The scan does not read payloads: a CRC-valid
//! frame whose payload is not a known line is refused by recovery
//! ([`crate::RecoveryError::BadRecord`]), not dropped as a torn tail.
//!
//! Durability contract: *process*-crash durability. By the time
//! [`crate::DurableService::apply`] returns, the command's frame has been
//! handed to the sink — on a [`FileSink`], written to the file, so it
//! survives the process dying. It may not survive the machine losing
//! power: the WAL file is `fsync`ed (`sync_data`) only after a checkpoint
//! compaction rewrites it, and checkpoint saves are not synced at all
//! ([`crate::FileCheckpointStore`]). The service applies a command
//! *before* the append (acceptance is only known after application), so
//! a crash between the two loses exactly the in-flight command, and
//! recovery converges on the longest prefix whose frames survived intact.

/// Stream header magic. A byte image that does not open with this is not
/// a (possibly damaged) stream but some other file entirely.
pub const WAL_MAGIC: &[u8; 8] = b"GAVELWAL";

/// Current stream format version. Version 1 framed a record version and a
/// kind byte inside every frame; version 2 put `seq` in front of the
/// payload, and a checkpoint's `checkpoint` line in front of its log
/// text. This build refuses both.
pub const WAL_STREAM_VERSION: u16 = 3;

const STREAM_HEADER_LEN: usize = WAL_MAGIC.len() + 2;
const FRAME_PREFIX_LEN: usize = 8; // len + crc
pub(crate) const SEQ_LEN: usize = 8;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven, no external deps.
// ---------------------------------------------------------------------

/// The reflected CRC-32 generator polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
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

/// Extends `crc`, the CRC32 of some bytes `a`, to the CRC32 of `a`
/// followed by `bytes`.
fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A persistence failure, for WAL sinks and checkpoint stores alike:
/// storage, an injected crash, or an image that is not the stream it
/// should be. Torn WAL tails are *not* errors — see [`TornTail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying storage failed.
    Io(String),
    /// A [`FaultSink`] injected a crash; the sink accepts no further
    /// writes.
    InjectedCrash,
    /// The byte image does not open with the stream magic.
    BadMagic,
    /// The stream header carries a version this build does not read.
    UnsupportedStreamVersion(u16),
    /// A checkpoint image that is not exactly one intact `checkpoint`
    /// frame (with detail).
    BadCheckpoint(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "i/o error: {e}"),
            WalError::InjectedCrash => write!(f, "storage crashed (fault injection)"),
            WalError::BadMagic => write!(f, "not a gavel stream (bad magic)"),
            WalError::UnsupportedStreamVersion(v) => {
                write!(f, "unsupported stream version {v}")
            }
            WalError::BadCheckpoint(detail) => write!(f, "unusable checkpoint: {detail}"),
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
    disk: FaultDisk,
    appends: usize,
    dead: bool,
}

/// A read handle on a [`FaultSink`]'s byte buffer — what a crash
/// harness inspects after the "process" died.
#[derive(Debug, Clone, Default)]
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
        let disk = FaultDisk {
            plan,
            ..FaultDisk::default()
        };
        FaultSink {
            disk,
            ..FaultSink::default()
        }
    }

    /// A read handle that survives the sink being moved or dropped.
    pub fn disk(&self) -> FaultDisk {
        self.disk.clone()
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead
    }

    fn alive(&self) -> Result<(), WalError> {
        if self.dead {
            Err(WalError::InjectedCrash)
        } else {
            Ok(())
        }
    }
}

impl LogSink for FaultSink {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.alive()?;
        let mut disk = self.disk.bytes.borrow_mut();
        if let Some(kill) = self
            .disk
            .plan
            .kill
            .filter(|k| k.after_appends == self.appends)
        {
            let keep = (bytes.len() * kill.keep_permille as usize) / 1000;
            disk.extend_from_slice(&bytes[..keep]);
            self.dead = true;
            return Err(WalError::InjectedCrash);
        }
        self.appends += 1;
        disk.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.alive()
    }

    fn reset(&mut self) -> Result<(), WalError> {
        self.alive()?;
        self.disk.bytes.borrow_mut().clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// The stream header every image opens with.
pub(crate) fn stream_header() -> Vec<u8> {
    [&WAL_MAGIC[..], &WAL_STREAM_VERSION.to_le_bytes()].concat()
}

/// Appends one frame carrying `payload` and `seq` to `out`.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: &[u8], seq: u64) {
    let mut frame = OpenFrame::open(out);
    out.extend_from_slice(payload);
    let stable = out.len();
    frame.seal(out, stable, seq);
}

/// A frame written in place at the end of a stream image, its payload
/// running to the image's end. Between seals the payload's bytes before
/// the last seal's `stable` offset stay as they are and the rest may be
/// rewritten, so a seal reads the stable bytes appended since the last
/// one and the bytes after them, however long the payload is.
#[derive(Debug, Clone)]
pub(crate) struct OpenFrame {
    /// Offset of the frame's `[len]` in the image.
    start: usize,
    crc: RunningCrc,
}

impl OpenFrame {
    /// Opens a frame at the end of `image`: what is appended after it is
    /// its payload.
    pub(crate) fn open(image: &mut Vec<u8>) -> OpenFrame {
        let start = image.len();
        image.resize(start + FRAME_PREFIX_LEN, 0);
        OpenFrame {
            start,
            crc: RunningCrc::default(),
        }
    }

    /// Ends the frame's payload where `image` ends, appends `seq` and
    /// writes the `[len][crc]` prefix. The payload's bytes before
    /// `stable`, an offset in `image`, must be what they were at the last
    /// seal, up to that seal's `stable`.
    pub(crate) fn seal(&mut self, image: &mut Vec<u8>, stable: usize, seq: u64) {
        image.extend_from_slice(&seq.to_le_bytes());
        let body_at = self.start + FRAME_PREFIX_LEN;
        let prefix = frame_prefix(&image[body_at..], stable - body_at, &mut self.crc);
        image[self.start..body_at].copy_from_slice(&prefix);
    }
}

/// The CRC32 of the first `len` bytes of a frame's body.
#[derive(Debug, Clone, Copy, Default)]
struct RunningCrc {
    crc: u32,
    len: usize,
}

/// The `[len][crc]` prefix of a frame whose body (payload + `seq`) is
/// `body`: what the writer puts in front of it, and what the reader must
/// find there. `crc` covers a prefix of `body[..stable]`: it is extended
/// to all of it and kept, and a copy is extended over the bytes from
/// `stable` on. So across calls on a body whose first `stable` bytes only
/// grow, each of those is read once.
fn frame_prefix(body: &[u8], stable: usize, crc: &mut RunningCrc) -> [u8; FRAME_PREFIX_LEN] {
    crc.crc = crc32_extend(crc.crc, &body[crc.len..stable]);
    crc.len = stable;
    let mut prefix = [0; FRAME_PREFIX_LEN];
    prefix[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    prefix[4..].copy_from_slice(&crc32_extend(crc.crc, &body[stable..]).to_le_bytes());
    prefix
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The WAL writer: frames payloads and appends them through a sink.
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
    pub fn with_seq(sink: S, next_seq: u64) -> Result<Self, WalError> {
        let mut wal = Wal { sink, next_seq };
        wal.compact()?;
        Ok(wal)
    }

    /// Frames `payload` as the next record and appends it; returns its
    /// sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len() + SEQ_LEN);
        push_frame(&mut frame, payload, seq);
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
        self.sink.append(&stream_header())
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

/// One intact frame.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Globally monotone record sequence number.
    pub seq: u64,
    /// The frame's payload bytes.
    pub payload: Vec<u8>,
}

/// Why the scan stopped before the end of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than the 8 frame-prefix bytes remained.
    TruncatedFrame,
    /// The frame announced more body bytes than the image holds.
    TruncatedBody,
    /// The frame length is too small to hold a sequence number —
    /// corruption hit the length.
    BadLength(u32),
    /// The body checksum did not match.
    ChecksumMismatch,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedFrame => write!(f, "truncated frame prefix"),
            TornReason::TruncatedBody => write!(f, "truncated record body"),
            TornReason::BadLength(n) => write!(f, "impossible frame length {n}"),
            TornReason::ChecksumMismatch => write!(f, "checksum mismatch"),
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

/// Result of scanning a stream image.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every intact record, in stream order.
    pub records: Vec<WalRecord>,
    /// The damaged tail, if the image did not end cleanly.
    pub torn: Option<TornTail>,
}

/// Scans a stream image, returning every frame up to the first unreadable
/// one. `Err` means the image is not a stream at all (bad magic or an
/// unreadable stream version); a damaged *tail* — torn header included,
/// for an image shorter than the stream header — is reported in
/// [`WalScan::torn`], never panicking, never erroring.
///
/// An empty image is an empty WAL (no records, no tear): the log of a
/// service that crashed before creating its WAL.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut scan = WalScan::default();
    let magic_len = bytes.len().min(WAL_MAGIC.len());
    if bytes[..magic_len] != WAL_MAGIC[..magic_len] {
        return Err(WalError::BadMagic);
    }
    let total = bytes.len();
    let torn = |pos: usize, reason| {
        Some(TornTail {
            offset: pos as u64,
            dropped_bytes: (total - pos) as u64,
            reason,
        })
    };
    if total < STREAM_HEADER_LEN {
        // Empty (a service that crashed before creating its WAL), or the
        // stream header itself was torn mid-write.
        if total > 0 {
            scan.torn = torn(0, TornReason::TruncatedFrame);
        }
        return Ok(scan);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != WAL_STREAM_VERSION {
        return Err(WalError::UnsupportedStreamVersion(version));
    }
    let mut pos = STREAM_HEADER_LEN;
    while pos < total {
        let frame = &bytes[pos..];
        if frame.len() < FRAME_PREFIX_LEN {
            scan.torn = torn(pos, TornReason::TruncatedFrame);
            break;
        }
        let len = u32::from_le_bytes(std::array::from_fn(|i| frame[i]));
        if len < SEQ_LEN as u32 {
            scan.torn = torn(pos, TornReason::BadLength(len));
            break;
        }
        let Some(body) = frame[FRAME_PREFIX_LEN..].get(..len as usize) else {
            scan.torn = torn(pos, TornReason::TruncatedBody);
            break;
        };
        if frame[..FRAME_PREFIX_LEN] != frame_prefix(body, 0, &mut RunningCrc::default()) {
            scan.torn = torn(pos, TornReason::ChecksumMismatch);
            break;
        }
        let (payload, seq) = body.split_at(body.len() - SEQ_LEN);
        scan.records.push(WalRecord {
            seq: u64::from_le_bytes(std::array::from_fn(|i| seq[i])),
            payload: payload.to_vec(),
        });
        pos += FRAME_PREFIX_LEN + body.len();
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use gavel_core::JobId;

    /// CRC32 (IEEE) of `bytes`, in one shot.
    fn crc32(bytes: &[u8]) -> u32 {
        crc32_extend(0, bytes)
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value, one-shot and extended a byte at
        // a time.
        let check = b"123456789";
        assert_eq!(crc32(check), 0xCBF4_3926);
        let running = check.iter().fold(0, |crc, &b| crc32_extend(crc, &[b]));
        assert_eq!(running, 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Lengths around every power of two up to 2^13, and some between.
    fn lengths(seed: &mut u64) -> Vec<usize> {
        let mut lengths = vec![0, 1, 2, 3];
        for k in 2..=13 {
            lengths.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        lengths.extend((0..16).map(|_| (splitmix(seed) % 20_000) as usize));
        lengths
    }

    #[test]
    fn extending_equals_the_one_shot_crc() {
        let mut seed = 7;
        for len in lengths(&mut seed) {
            let bytes: Vec<u8> = (0..len).map(|_| splitmix(&mut seed) as u8).collect();
            // Two random cuts, empty parts included: every part extended
            // onto the running CRC.
            let mut cuts = [0, 0].map(|_| (splitmix(&mut seed) % (len as u64 + 1)) as usize);
            cuts.sort_unstable();
            let parts = [
                &bytes[..cuts[0]],
                &bytes[cuts[0]..cuts[1]],
                &bytes[cuts[1]..],
            ];
            let running = parts.iter().fold(0, |crc, part| crc32_extend(crc, part));
            assert_eq!(running, crc32(&bytes), "len {len} cuts {cuts:?}");
        }
    }

    #[test]
    fn a_frame_sealed_as_its_tail_grows_matches_one_written_whole() {
        // Each round appends stable bytes, then rewrites five bytes after
        // them, as a checkpoint rewrites its `checkpoint` line.
        let mut seed = 11;
        let mut image = stream_header();
        let mut frame = OpenFrame::open(&mut image);
        let mut stable = image.len();
        for (round, len) in lengths(&mut seed).into_iter().enumerate() {
            image.truncate(stable);
            image.extend((0..len).map(|_| splitmix(&mut seed) as u8));
            stable = image.len();
            image.extend_from_slice(&[round as u8; 5]);
            frame.seal(&mut image, stable, round as u64);
            let body = &image[STREAM_HEADER_LEN + FRAME_PREFIX_LEN..];
            let mut whole = stream_header();
            push_frame(&mut whole, &body[..body.len() - SEQ_LEN], round as u64);
            assert_eq!(image, whole, "after round {round}");
            assert_eq!(
                crc32(body).to_le_bytes(),
                image[STREAM_HEADER_LEN + 4..][..4]
            );
            let scan = scan_wal(&image).unwrap();
            assert!(scan.torn.is_none());
            assert_eq!(scan.records[0].seq, round as u64);
        }
    }

    fn sample_commands() -> Vec<Command> {
        vec![
            Command::AdvanceTo { seconds: 360.0 },
            Command::QueryAllocation,
            Command::Complete { job: JobId(3) },
            Command::InjectRepair { accel: 1 },
        ]
    }

    fn sample_wal() -> Wal<MemorySink> {
        let mut wal = Wal::create(MemorySink::new()).unwrap();
        for cmd in &sample_commands() {
            wal.append(cmd.fmt_line().as_bytes()).unwrap();
        }
        wal
    }

    #[test]
    fn wal_round_trips_records() {
        let mut wal = sample_wal();
        wal.append(b"reject kind=unknown-job entity=7").unwrap();
        let scan = scan_wal(wal.sink().bytes()).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(scan.records[4].payload, b"reject kind=unknown-job entity=7");
        for (rec, cmd) in scan.records.iter().zip(&sample_commands()) {
            assert_eq!(rec.payload, cmd.fmt_line().as_bytes());
        }
        // Header, then per frame: len + crc + payload + seq.
        let payloads: usize = scan.records.iter().map(|r| r.payload.len()).sum();
        assert_eq!(wal.sink().bytes().len(), 10 + 5 * 16 + payloads);
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let full = sample_wal().sink().bytes().to_vec();
        // Every truncation point recovers a prefix, never panics.
        for cut in 0..full.len() {
            let scan = scan_wal(&full[..cut]).unwrap();
            assert!(scan.records.len() < 4);
            // Either clean prefix or a reported tear — and the records
            // that survived are exactly leading ones.
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
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
        let mut wal = sample_wal();
        wal.compact().unwrap();
        wal.append(b"query").unwrap();
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
        wal.append(b"query").unwrap();
        let err = wal.append(b"inject-failure").unwrap_err();
        assert_eq!(err, WalError::InjectedCrash);
        assert!(wal.sink().crashed());
        let scan = scan_wal(&wal.sink().disk().damaged_bytes()).unwrap();
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
        for version in [0u16, 1, 2, 99] {
            let img = [&WAL_MAGIC[..], &version.to_le_bytes()].concat();
            assert_eq!(
                scan_wal(&img).unwrap_err(),
                WalError::UnsupportedStreamVersion(version)
            );
        }
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
