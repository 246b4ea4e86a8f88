//! State checkpoints: periodic compaction points for the WAL.
//!
//! A [`Checkpoint`] captures everything recovery needs to reconstruct the
//! service as of a WAL position without replaying the whole record
//! stream from time zero:
//!
//! - the **covered command prefix**, embedded as serialized
//!   [`SubmissionLog`](crate::SubmissionLog) text (rejection tallies ride
//!   in its header, so counters survive compaction too);
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
//! The serialized form is line-oriented text with a trailing CRC32 over
//! the whole preamble + embedded log, so a torn or bit-flipped checkpoint
//! is *detected* ([`CheckpointError`]) rather than silently replayed.
//! Checkpoints reach storage through a [`CheckpointStore`]:
//! [`MemoryCheckpointStore`] for tests, [`FileCheckpointStore`] for real
//! runs (write-to-temp + atomic rename, so a crash mid-save leaves the
//! previous checkpoint intact).

use crate::config::SimConfig;
use crate::core::ServiceConfig;
use crate::wal::crc32;

/// Checkpoint text header magic (first line prefix).
pub const CHECKPOINT_MAGIC: &str = "gavel-checkpoint";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

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
    /// Serializes to the checked text form.
    pub fn serialize(&self) -> Vec<u8> {
        let preamble = format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n\
             config=0x{:016x}\n\
             covered_seq={}\n\
             state=0x{:016x}\n\
             log_bytes={}\n",
            self.config_fingerprint,
            self.covered_seq,
            self.state_fingerprint,
            self.log_text.len(),
        );
        let mut body = Vec::with_capacity(preamble.len() + self.log_text.len() + 16);
        body.extend_from_slice(preamble.as_bytes());
        body.extend_from_slice(self.log_text.as_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(format!("\ncrc=0x{crc:08x}\n").as_bytes());
        body
    }

    /// Parses the text form. Any damage — truncation, bit flips, a
    /// foreign file — returns `Err`; this never panics and never returns
    /// a checkpoint whose CRC did not verify.
    pub fn parse(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let malformed = |msg: &str| CheckpointError::Malformed(msg.to_string());
        let text = std::str::from_utf8(bytes).map_err(|_| malformed("not UTF-8"))?;
        // The CRC trailer is the last non-empty line.
        let trimmed = text.trim_end_matches('\n');
        let (body_text, crc_line) = trimmed
            .rsplit_once('\n')
            .ok_or_else(|| malformed("missing crc trailer"))?;
        let crc_hex = crc_line
            .strip_prefix("crc=0x")
            .ok_or_else(|| malformed("missing crc trailer"))?;
        let expected_crc =
            u32::from_str_radix(crc_hex, 16).map_err(|_| malformed("bad crc trailer"))?;
        if crc32(body_text.as_bytes()) != expected_crc {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut lines = body_text.splitn(5, '\n');
        let header = lines.next().ok_or_else(|| malformed("empty"))?;
        let version = header
            .strip_prefix(CHECKPOINT_MAGIC)
            .and_then(|rest| rest.trim().strip_prefix('v'))
            .ok_or(CheckpointError::BadMagic)?
            .parse::<u32>()
            .map_err(|_| malformed("bad header version"))?;
        if version == 0 || version > CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let field = |line: Option<&str>, key: &str| -> Result<String, CheckpointError> {
            line.and_then(|l| l.strip_prefix(key))
                .and_then(|l| l.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| malformed(&format!("missing field `{key}`")))
        };
        let config_hex = field(lines.next(), "config")?;
        let covered = field(lines.next(), "covered_seq")?;
        let state_hex = field(lines.next(), "state")?;
        let tail = lines.next().ok_or_else(|| malformed("missing log"))?;
        let (log_bytes_line, log_text) = tail
            .split_once('\n')
            .map(|(a, b)| (a, b.to_string()))
            .unwrap_or((tail, String::new()));
        let log_bytes: usize = log_bytes_line
            .strip_prefix("log_bytes=")
            .ok_or_else(|| malformed("missing field `log_bytes`"))?
            .parse()
            .map_err(|_| malformed("bad log_bytes"))?;
        if log_text.len() != log_bytes {
            return Err(malformed("log length mismatch"));
        }
        let parse_hex_u64 = |s: &str, what: &str| {
            s.strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| malformed(&format!("bad {what}")))
        };
        Ok(Checkpoint {
            config_fingerprint: parse_hex_u64(&config_hex, "config fingerprint")?,
            covered_seq: covered.parse().map_err(|_| malformed("bad covered_seq"))?,
            state_fingerprint: parse_hex_u64(&state_hex, "state fingerprint")?,
            log_text,
        })
    }
}

/// A checkpoint that could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Storage failed.
    Io(String),
    /// The bytes do not open with the checkpoint magic.
    BadMagic,
    /// The format version is newer than this build reads.
    UnsupportedVersion(u32),
    /// The CRC trailer did not verify — torn or corrupted capture.
    ChecksumMismatch,
    /// Structurally broken text (with detail).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a gavel checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Pluggable checkpoint storage. A store holds at most one checkpoint —
/// the latest; saving replaces it atomically (or not at all).
pub trait CheckpointStore {
    /// Replaces the stored checkpoint.
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
    /// Reads the stored checkpoint, `None` if none was ever saved.
    fn load(&self) -> Result<Option<Vec<u8>>, CheckpointError>;
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
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.bytes = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, CheckpointError> {
        Ok(self.bytes.clone())
    }
}

/// File-backed store: saves write a sibling temp file and rename it into
/// place, so a crash mid-save can only ever leave the *previous*
/// checkpoint behind, never a half-written one.
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
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, CheckpointError> {
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
            log_text: "gavel-submission-log v2\nrejected commands=0 cap=0 invalid=0\nquery\n"
                .to_string(),
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
        // Dropping only the final newline is tolerated...
        assert!(Checkpoint::parse(&bytes[..bytes.len() - 1]).is_ok());
        // ...every real truncation fails cleanly.
        for cut in 0..bytes.len() - 1 {
            assert!(Checkpoint::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Every single-byte flip either fails cleanly or parses to the
        // identical checkpoint (a case flip inside the crc hex digits
        // changes bytes but not the value) — never a silently different
        // one.
        for pos in 0..bytes.len() {
            let mut img = bytes.clone();
            img[pos] ^= 0x20;
            match Checkpoint::parse(&img) {
                Err(_) => {}
                Ok(parsed) => assert_eq!(parsed, sample(), "silent corruption at {pos}"),
            }
        }
        assert_eq!(
            Checkpoint::parse(b"something else entirely\ncrc=0x00000000\n"),
            Err(CheckpointError::ChecksumMismatch),
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
