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
//! holding one frame: its `seq` is `covered_seq`, and its payload is the
//! fixed-width line `checkpoint config=0x… state=0x…` followed by the
//! embedded log text. The frame's CRC makes a torn or bit-flipped
//! checkpoint *detected* ([`WalError`]) rather than silently replayed.
//! Every image is written by one writer, `CheckpointImage`: the durable
//! service keeps its next image between captures, appending each
//! consumed entry's line as it goes, so a capture rewrites the fixed
//! head and extends the frame's CRC over only the lines appended since
//! the last one; [`Checkpoint::serialize`] builds one image whole.
//! Checkpoints reach storage through a [`CheckpointStore`]:
//! [`MemoryCheckpointStore`] for tests, [`FileCheckpointStore`] for real
//! runs (write-to-temp + rename).

use crate::command::Line;
use crate::config::SimConfig;
use crate::core::ServiceConfig;
use crate::wal::{scan_wal, stream_header, OpenFrame, WalError};
use std::io::Write as _;

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
        let first_line_len = text.find('\n').ok_or_else(|| bad("no log text".into()))?;
        let line = Line::parse(&text[..first_line_len]).map_err(|e| bad(e.0))?;
        if line.verb != "checkpoint" {
            return Err(bad(line.err("not a checkpoint line").0));
        }
        let config_fingerprint = line.bits("config").map_err(|e| bad(e.0))?;
        let state_fingerprint = line.bits("state").map_err(|e| bad(e.0))?;
        text.drain(..=first_line_len);
        Ok(Checkpoint {
            config_fingerprint,
            covered_seq: frame.seq,
            state_fingerprint,
            log_text: text,
        })
    }
}

/// Length of the payload's first line,
/// `checkpoint config=0x{16 hex digits} state=0x{16 hex digits}\n`.
const HEAD_LINE_LEN: usize = "checkpoint config=0x state=0x\n".len() + 2 * 16;

/// A checkpoint image under construction: the stream header and one
/// open frame whose head is the `checkpoint` line and whose tail is the
/// embedded log text. Lines are only ever appended to the text, so each
/// [`CheckpointImage::seal`] costs the lines appended since the last one.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointImage {
    bytes: Vec<u8>,
    frame: OpenFrame,
}

impl CheckpointImage {
    /// An image whose embedded log text starts as `log_text`.
    pub(crate) fn new(log_text: &str) -> CheckpointImage {
        let mut bytes = stream_header();
        let frame = OpenFrame::open(&mut bytes, HEAD_LINE_LEN);
        bytes.extend_from_slice(log_text.as_bytes());
        CheckpointImage { bytes, frame }
    }

    /// Appends one line to the log text — what `write` writes, then a
    /// newline — and returns it without its newline. The text must end
    /// its last line.
    pub(crate) fn push_line(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        let start = self.bytes.len();
        write(&mut self.bytes);
        let end = self.bytes.len();
        self.bytes.push(b'\n');
        &self.bytes[start..end]
    }

    /// Rewrites the `checkpoint` line and the frame's `seq`, `len` and
    /// CRC, and returns the finished image.
    pub(crate) fn seal(
        &mut self,
        config_fingerprint: u64,
        covered_seq: u64,
        state_fingerprint: u64,
    ) -> &[u8] {
        let mut head = self.frame.head_mut(&mut self.bytes);
        writeln!(
            head,
            "checkpoint config=0x{config_fingerprint:016x} state=0x{state_fingerprint:016x}"
        )
        .expect("the checkpoint line fits its head");
        debug_assert!(head.is_empty(), "the checkpoint line fills its head");
        self.frame.seal(&mut self.bytes, covered_seq);
        &self.bytes
    }
}

/// Pluggable checkpoint storage. A store holds at most one checkpoint —
/// the latest; saving replaces it atomically (or not at all).
pub trait CheckpointStore {
    /// Replaces the stored checkpoint.
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Reads the stored checkpoint, `None` if none was ever saved.
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

/// File-backed store: saves write a sibling temp file and rename it into
/// place, so a process crash mid-save can only ever leave the *previous*
/// checkpoint behind, never a half-written one. Neither the temp file nor
/// the directory is `fsync`ed, so after a power loss the rename may be
/// lost or the renamed file incomplete; [`Checkpoint::parse`] detects the
/// latter.
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: std::path::PathBuf,
}

impl FileCheckpointStore {
    /// A store at `path` (the file need not exist yet).
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, WalError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
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
        let ckpt = sample();
        let bytes = ckpt.serialize();
        assert_eq!(Checkpoint::parse(&bytes).unwrap(), ckpt);
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
