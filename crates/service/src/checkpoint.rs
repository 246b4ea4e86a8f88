//! Checkpoints: periodic compaction points for the WAL.
//!
//! A [`Checkpoint`] captures the covered prefix of the command stream so
//! the WAL records it covers can be dropped:
//!
//! - the **covered entry prefix**, embedded as serialized
//!   [`SubmissionLog`](crate::SubmissionLog) text: one line per consumed
//!   command, failed ones as `reject` lines, so counters survive
//!   compaction too;
//! - `covered_seq` — the WAL sequence number the checkpoint covers up to
//!   (exclusive): records below it are compacted away, records at or
//!   above it are the post-checkpoint suffix;
//! - the **config fingerprint** ([`config_fingerprint`]) of
//!   (policy name, [`SimConfig`], [`ServiceConfig`]) — recovery refuses
//!   to replay a log under a different configuration, which would
//!   silently produce a different run;
//! - the **state fingerprint** the live service reported at capture time:
//!   recovery replays the embedded prefix and verifies it lands on
//!   exactly this value before trusting the checkpoint.
//!
//! What a checkpoint buys is WAL compaction and a verified prefix, not a
//! shorter recovery: [`crate::recover`] replays the embedded prefix on a
//! fresh service, from time zero, before it applies the WAL's suffix.
//!
//! A checkpoint image is a stream in the WAL's format ([`crate::wal`])
//! holding one frame: its payload is the embedded log text followed by
//! the fixed-width line `checkpoint config=0x… state=0x…`, and its `seq`
//! is `covered_seq`. The frame's CRC makes a torn or bit-flipped
//! checkpoint *detected* ([`WalError`]) rather than silently replayed.
//! Every image is written by one writer, `CheckpointImage`: the durable
//! service keeps its next image between captures, appending each
//! consumed entry's line as it goes, so a capture extends the frame's
//! running CRC over the lines appended since the last one, then over the
//! rewritten `checkpoint` line and `seq` that end the image;
//! [`Checkpoint::serialize`] builds one image whole.
//! Checkpoints reach storage through a [`CheckpointStore`]:
//! [`MemoryCheckpointStore`] for tests, [`FileCheckpointStore`] for real
//! runs (two slot files; a save overwrites the older one in place).

use crate::command::Line;
use crate::config::SimConfig;
use crate::core::ServiceConfig;
use crate::wal::{scan_wal, stream_header, OpenFrame, WalError, SEQ_LEN};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The checkpoint stores' error: the crate's one persistence error type.
pub type CheckpointError = WalError;

/// Fingerprint of the full run configuration: FNV-1a over the policy
/// name and the `Debug` forms of [`SimConfig`] and [`ServiceConfig`].
/// Two runs with equal fingerprints replay a command stream identically;
/// recovery uses this to refuse a checkpoint captured under a different
/// configuration.
pub fn config_fingerprint(policy_name: &str, config: &SimConfig, service: &ServiceConfig) -> u64 {
    let text = format!("{policy_name}|{config:?}|{service:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One captured checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of (policy, sim config, service config) at capture.
    pub config_fingerprint: u64,
    /// WAL sequence number covered up to (exclusive): the next record
    /// the post-checkpoint WAL will carry.
    pub covered_seq: u64,
    /// The live service's state fingerprint at capture — replaying the
    /// embedded prefix must land exactly here.
    pub state_fingerprint: u64,
    /// The covered command prefix as serialized submission-log text.
    pub log_text: String,
}

impl Checkpoint {
    /// Serializes to a one-frame stream image.
    pub fn serialize(&self) -> Vec<u8> {
        let mut image = CheckpointImage::new(&self.log_text);
        image.seal(
            self.config_fingerprint,
            self.covered_seq,
            self.state_fingerprint,
        );
        image.bytes
    }

    /// Parses a one-frame stream image. Any damage — truncation, bit
    /// flips, a foreign file, a WAL — returns `Err`; this never panics
    /// and never returns a checkpoint whose CRC did not verify.
    pub fn parse(bytes: &[u8]) -> Result<Checkpoint, WalError> {
        let bad = |detail: String| WalError::BadCheckpoint(detail);
        let mut scan = scan_wal(bytes)?;
        if let Some(torn) = scan.torn {
            return Err(bad(format!("{} at byte {}", torn.reason, torn.offset)));
        }
        if scan.records.len() != 1 {
            return Err(bad(format!("{} frames, not one", scan.records.len())));
        }
        let frame = scan.records.remove(0);
        let mut text =
            String::from_utf8(frame.payload).map_err(|_| bad("payload is not UTF-8".into()))?;
        let line = text
            .len()
            .checked_sub(LINE_LEN)
            .and_then(|at| text.get(at..)?.strip_suffix('\n'))
            .ok_or_else(|| bad("no checkpoint line".into()))?;
        let line = Line::parse(line).map_err(|e| bad(e.0))?;
        if line.verb != "checkpoint" {
            return Err(bad(line.err("not a checkpoint line").0));
        }
        let config_fingerprint = line.bits("config").map_err(|e| bad(e.0))?;
        let state_fingerprint = line.bits("state").map_err(|e| bad(e.0))?;
        text.truncate(text.len() - LINE_LEN);
        Ok(Checkpoint {
            config_fingerprint,
            covered_seq: frame.seq,
            state_fingerprint,
            log_text: text,
        })
    }
}

/// Length of the payload's last line,
/// `checkpoint config=0x{16 hex digits} state=0x{16 hex digits}\n`.
const LINE_LEN: usize = "checkpoint config=0x state=0x\n".len() + 2 * 16;

/// A checkpoint image under construction: the stream header and one
/// open frame whose payload is the embedded log text, followed — once
/// sealed — by the `checkpoint` line and the frame's `seq`. Lines are
/// only ever appended to the text, so each [`CheckpointImage::seal`]
/// costs the lines appended since the last one.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointImage {
    bytes: Vec<u8>,
    /// Where the log text ends: the last seal's `checkpoint` line and
    /// `seq` follow it.
    text_end: usize,
    frame: OpenFrame,
}

impl CheckpointImage {
    /// An image whose embedded log text starts as `log_text`.
    pub(crate) fn new(log_text: &str) -> CheckpointImage {
        let mut bytes = stream_header();
        let frame = OpenFrame::open(&mut bytes);
        bytes.extend_from_slice(log_text.as_bytes());
        let text_end = bytes.len();
        CheckpointImage {
            bytes,
            text_end,
            frame,
        }
    }

    /// Appends one line to the log text — what `write` writes, then a
    /// newline — and returns it without its newline. The text must end
    /// its last line.
    pub(crate) fn push_line(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        let start = self.text_end;
        self.bytes.truncate(start);
        write(&mut self.bytes);
        let end = self.bytes.len();
        self.bytes.push(b'\n');
        self.text_end = end + 1;
        &self.bytes[start..end]
    }

    /// Writes the `checkpoint` line and the frame's `seq`, `len` and CRC
    /// after the log text, and returns the finished image.
    pub(crate) fn seal(
        &mut self,
        config_fingerprint: u64,
        covered_seq: u64,
        state_fingerprint: u64,
    ) -> &[u8] {
        self.bytes.truncate(self.text_end);
        writeln!(
            self.bytes,
            "checkpoint config=0x{config_fingerprint:016x} state=0x{state_fingerprint:016x}"
        )
        .expect("writing to a Vec cannot fail");
        debug_assert_eq!(self.bytes.len() - self.text_end, LINE_LEN);
        self.frame.seal(&mut self.bytes, self.text_end, covered_seq);
        &self.bytes
    }
}

/// Pluggable checkpoint storage. The contract is stated through
/// [`CheckpointStore::load`]: it returns `None` until the first save;
/// once a [`CheckpointStore::save`] returns `Ok`, exactly its bytes until
/// the next save; and after a save that failed or was cut short by a
/// process crash, the previous checkpoint — never a mix of two images.
pub trait CheckpointStore {
    /// Stores `bytes` as the latest checkpoint.
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Reads the latest checkpoint, `None` if none was ever saved.
    fn load(&self) -> Result<Option<Vec<u8>>, WalError>;
}

/// In-memory store for tests and crash harnesses.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpointStore {
    bytes: Option<Vec<u8>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryCheckpointStore::default()
    }

    /// The stored checkpoint bytes, if any.
    pub fn bytes(&self) -> Option<&[u8]> {
        self.bytes.as_deref()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.bytes = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, WalError> {
        Ok(self.bytes.clone())
    }
}

/// File-backed store in two slot files, `path` and its sibling `path.1`
/// ([`FileCheckpointStore::slot_paths`]), each holding one image or
/// nothing. A save overwrites in place — seek to the start, write, cut to
/// length — the slot that does not hold the image `load` serves: no temp
/// file, no rename. The first save through a store verifies which slot
/// holds the newest valid image, writes the other one, and then empties
/// the verified one, so images an earlier run left at the same path are
/// never served once this store has saved; later saves alternate between
/// the two without reading either. `load` tries the slot whose frame
/// claims the higher `seq` first and serves it if it verifies
/// ([`Checkpoint::parse`]), else the other slot; if neither verifies, a
/// non-empty slot's bytes, so that recovery reports the damage.
///
/// A crash mid-save can tear only the slot being written: its CRC fails
/// and the other slot is served, beside the WAL, which the durable
/// service compacts only after the save returns. Neither slot is
/// `fsync`ed, so after a power loss a save that returned may be lost or
/// torn as well; the CRC catches a tear, and an older image beside a WAL
/// whose compaction was synced is refused by recovery as a sequence gap.
#[derive(Debug)]
pub struct FileCheckpointStore {
    slots: [PathBuf; 2],
    /// Both slot files and the slot the next save overwrites, once this
    /// store's first save has succeeded.
    written: Option<([File; 2], usize)>,
}

impl FileCheckpointStore {
    /// A store at `path` and its sibling slot (neither file need exist
    /// yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut sibling = path.clone().into_os_string();
        sibling.push(".1");
        FileCheckpointStore {
            slots: [path, sibling.into()],
            written: None,
        }
    }

    /// The two slot files: `path`, then its sibling.
    pub fn slot_paths(&self) -> [&Path; 2] {
        [&self.slots[0], &self.slots[1]]
    }

    /// The slot `load` serves and its bytes: of the slots in the order of
    /// the `seq` their frames claim, newest first, the first whose image
    /// verifies, else the first that is not empty.
    fn newest(&self) -> Result<Option<(usize, Vec<u8>)>, WalError> {
        let order = if claimed_seq(&self.slots[1])? > claimed_seq(&self.slots[0])? {
            [1, 0]
        } else {
            [0, 1]
        };
        let mut damaged = None;
        for slot in order {
            let bytes = read_slot(&self.slots[slot])?;
            if Checkpoint::parse(&bytes).is_ok() {
                return Ok(Some((slot, bytes)));
            }
            if !bytes.is_empty() {
                damaged = damaged.or(Some(slot));
            }
        }
        // Read again rather than hold two images at once.
        damaged
            .map(|slot| Ok((slot, read_slot(&self.slots[slot])?)))
            .transpose()
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if let Some((files, next)) = &mut self.written {
            overwrite(&mut files[*next], bytes)?;
            *next = 1 - *next;
            return Ok(());
        }
        // Keep the slot `load` serves, chosen by verification, so a torn
        // slot claiming a newer `seq` is the one overwritten.
        let keep = self.newest()?.map_or(1, |(slot, _)| slot);
        let open = |slot: usize| {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.slots[slot])
        };
        let mut files = [open(0)?, open(1)?];
        overwrite(&mut files[1 - keep], bytes)?;
        files[keep].set_len(0)?;
        self.written = Some((files, keep));
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, WalError> {
        Ok(self.newest()?.map(|(_, bytes)| bytes))
    }
}

/// The bytes of the slot file at `path`; a missing file is an empty
/// slot.
fn read_slot(path: &Path) -> Result<Vec<u8>, WalError> {
    match std::fs::read(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        bytes => Ok(bytes?),
    }
}

/// The `seq` the image in the slot file at `path` claims, unverified:
/// its last bytes, where a one-frame image ends with its frame's `seq`.
/// `None` for a missing slot or one shorter than that.
fn claimed_seq(path: &Path) -> Result<Option<u64>, WalError> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut seq = [0; SEQ_LEN];
    if file.metadata()?.len() < SEQ_LEN as u64 {
        return Ok(None);
    }
    file.seek(SeekFrom::End(-(SEQ_LEN as i64)))?;
    file.read_exact(&mut seq)?;
    Ok(Some(u64::from_le_bytes(seq)))
}

/// Replaces the contents of `file` with `bytes`, in place.
fn overwrite(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    file.rewind()?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config_fingerprint: 0xdead_beef_0123_4567,
            covered_seq: 42,
            state_fingerprint: 0x0f0f_0f0f_1234_5678,
            log_text: "gavel-submission-log v3\nquery\nreject kind=invalid entity=-\n".to_string(),
        }
    }

    #[test]
    fn round_trip() {
        // Parse strips exactly the fixed-width `checkpoint` line: the log
        // text before it comes back byte for byte, whatever its last line.
        let sample = sample();
        let unended = "gavel-submission-log v3\nquery";
        for log_text in [&sample.log_text[..], unended, "é", "\n", "checkpoint"] {
            let ckpt = Checkpoint {
                log_text: log_text.to_string(),
                ..sample.clone()
            };
            let bytes = ckpt.serialize();
            assert_eq!(Checkpoint::parse(&bytes).unwrap(), ckpt);
        }
    }

    #[test]
    fn empty_log_round_trip() {
        let ckpt = Checkpoint {
            log_text: String::new(),
            ..sample()
        };
        let bytes = ckpt.serialize();
        assert_eq!(Checkpoint::parse(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn damage_is_detected_never_panics() {
        let bytes = sample().serialize();
        // Every truncation fails cleanly...
        for cut in 0..bytes.len() {
            assert!(Checkpoint::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // ...and so does every single-byte flip: the frame's CRC covers
        // everything past the stream header, which has no spare bits.
        for pos in 0..bytes.len() {
            let mut img = bytes.clone();
            img[pos] ^= 0x20;
            assert!(
                Checkpoint::parse(&img).is_err(),
                "silent corruption at {pos}"
            );
        }
        assert_eq!(
            Checkpoint::parse(b"something else entirely"),
            Err(WalError::BadMagic),
        );
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let cluster = gavel_core::ClusterSpec::new(&[
            ("v100", 2, 2, 2.48),
            ("p100", 2, 2, 1.46),
            ("k80", 2, 2, 0.45),
        ]);
        let base = SimConfig::new(cluster);
        let service = ServiceConfig::default();
        let a = config_fingerprint("max-min", &base, &service);
        assert_eq!(a, config_fingerprint("max-min", &base, &service));
        assert_ne!(a, config_fingerprint("makespan", &base, &service));
        let mut tweaked = base.clone();
        tweaked.round_seconds = 1200.0;
        assert_ne!(a, config_fingerprint("max-min", &tweaked, &service));
        let capped = ServiceConfig {
            max_active_per_entity: Some(3),
        };
        assert_ne!(a, config_fingerprint("max-min", &base, &capped));
    }

    #[test]
    fn memory_store_round_trip() {
        let mut store = MemoryCheckpointStore::new();
        assert!(store.load().unwrap().is_none());
        store.save(b"abc").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"abc");
        store.save(b"def").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"def");
    }
}
