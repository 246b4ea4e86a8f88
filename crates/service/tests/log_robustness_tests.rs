//! Robustness of what is persisted: a submission log of another version
//! is refused by name, parsing mutated or truncated log text never panics
//! — it either errors or returns a log whose re-serialization parses
//! cleanly — and a stream
//! image of the wrong kind or version, or a CRC-valid frame that says
//! nothing known, is a typed error rather than a service.

use gavel_core::{ClusterSpec, JobId};
use gavel_policies::IsolatedSplit;
use gavel_service::wal::WAL_MAGIC;
use gavel_service::{
    recover, scan_wal, Command, DurableService, MemoryCheckpointStore, MemorySink, RecoveryError,
    ServiceConfig, SimConfig, SubmissionLog, Wal, WalError, LOG_VERSION,
};
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Versions (the plain #[test] half): v1 and v2 kept failures as header
// tallies; only the current entry-per-line form parses.
// ---------------------------------------------------------------------

const V1_TEXT: &str = "gavel-submission-log v1\n\
     rejected commands=3 cap=1\n\
     rejected-entity entity=0 cap=1\n\
     query\n\
     advance t=0x40762ac000000000\n";

const V2_TEXT: &str = "gavel-submission-log v2\n\
     rejected commands=5 cap=1 invalid=2\n\
     rejected-entity entity=- cap=1\n\
     inject-failure\n\
     complete job=7\n";

#[test]
fn v1_text_is_refused_naming_its_version() {
    let err = SubmissionLog::parse(V1_TEXT).unwrap_err();
    assert!(err.0.contains("v1 is unsupported"), "{err}");
}

#[test]
fn v2_text_is_refused_naming_its_version() {
    let err = SubmissionLog::parse(V2_TEXT).unwrap_err();
    assert!(err.0.contains("v2 is unsupported"), "{err}");
}

#[test]
fn fresh_logs_serialize_at_current_version() {
    assert_eq!(LOG_VERSION, 3);
    assert_eq!(
        SubmissionLog::default().serialize(),
        format!("gavel-submission-log v{LOG_VERSION}\n")
    );
}

#[test]
fn unknown_versions_are_refused() {
    for text in [
        "gavel-submission-log v0\n",
        "gavel-submission-log v99\nquery\n",
        "gavel-submission-log vx\n",
        "not-a-log v3\n",
        "",
    ] {
        assert!(SubmissionLog::parse(text).is_err(), "accepted: {text:?}");
    }
}

// ---------------------------------------------------------------------
// A well-framed submit naming a batch size Table 2 does not list (a
// foreign or hand-edited log): a typed error on every way in, no panic.
// ---------------------------------------------------------------------

/// A CycleGAN submit at `batch_size`: Table 2 lists 1 for it and nothing
/// else. (`JobConfig`'s fields are public, so the writer can frame a
/// configuration the checked constructor refuses.)
fn cyclegan_submit(batch_size: u32) -> Command {
    Command::Submit {
        job: TraceJob {
            id: JobId(1),
            config: JobConfig {
                family: ModelFamily::CycleGan,
                batch_size,
            },
            arrival_time: 0.0,
            scale_factor: 1,
            total_steps: 1000.0,
            duration_seconds: 3600.0,
            weight: 1.0,
            slo_factor: None,
            entity: None,
        },
    }
}

#[test]
fn unlisted_batch_size_is_a_parse_error() {
    assert!(Command::parse_line(&cyclegan_submit(1).fmt_line()).is_ok());
    let err = Command::parse_line(&cyclegan_submit(64).fmt_line()).unwrap_err();
    assert!(err.0.contains("batch size not in Table 2"), "{err}");
}

#[test]
fn text_log_with_an_unlisted_batch_size_is_refused_at_its_line() {
    let cmds = [
        cyclegan_submit(1),
        cyclegan_submit(64),
        Command::QueryAllocation,
    ];
    let text = build_log_text(cmds.iter().map(Command::fmt_line));
    let err = SubmissionLog::parse(&text).unwrap_err();
    assert!(err.0.contains("batch size not in Table 2"), "{err}");
    // Header, the listed submit, then the unlisted one.
    assert!(err.0.starts_with("line 3: "), "{err}");
}

#[test]
fn wal_record_with_an_unlisted_batch_size_is_a_bad_record() {
    let unlisted = cyclegan_submit(64);
    let mut wal = Wal::create(MemorySink::new()).expect("memory sink");
    wal.append(unlisted.fmt_line().as_bytes())
        .expect("memory sink");
    let image = wal.sink().bytes();

    let scan = scan_wal(image).expect("a WAL image");
    assert!(scan.torn.is_none(), "CRC-valid: {:?}", scan.torn);
    assert_eq!(scan.records.len(), 1);
    assert_eq!(scan.records[0].payload, unlisted.fmt_line().as_bytes());

    let policy = IsolatedSplit::new();
    let config = SimConfig::new(ClusterSpec::new(&[("v100", 2, 2, 1.0)]));
    let recovered = recover(&policy, &config, &ServiceConfig::default(), None, image);
    match recovered.map(|(_, report)| report) {
        Err(RecoveryError::BadRecord { seq: 0, detail }) => {
            assert!(detail.contains("batch size not in Table 2"), "{detail}")
        }
        other => panic!("expected a bad-record error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Stream images of the wrong kind: a typed error, never a service.
// ---------------------------------------------------------------------

fn tiny_config() -> SimConfig {
    SimConfig::new(ClusterSpec::new(&[("v100", 2, 2, 1.0)]))
}

/// A WAL image and the checkpoint image taken after its `checkpointed`
/// leading commands (both through a durable service on memory storage).
fn durable_images(checkpointed: usize) -> (Vec<u8>, Vec<u8>) {
    let policy = IsolatedSplit::new();
    let mut durable = DurableService::new(
        &policy,
        tiny_config(),
        ServiceConfig::default(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        0,
    )
    .expect("memory storage");
    let cmds = [cyclegan_submit(1), Command::QueryAllocation];
    for (i, cmd) in cmds.iter().enumerate() {
        if i == checkpointed {
            durable.checkpoint_now().expect("memory storage");
        }
        durable
            .apply(cmd)
            .expect("memory storage")
            .expect("accepted");
    }
    let wal = durable.wal().sink().bytes().to_vec();
    let ckpt = durable.store().bytes().expect("checkpoint saved").to_vec();
    (wal, ckpt)
}

fn recover_images(ckpt: Option<&[u8]>, wal: &[u8]) -> Result<(), RecoveryError> {
    let policy = IsolatedSplit::new();
    let config = tiny_config();
    recover(&policy, &config, &ServiceConfig::default(), ckpt, wal).map(|_| ())
}

#[test]
fn checkpoint_and_wal_images_are_not_interchangeable() {
    let (wal, ckpt) = durable_images(1);
    assert_eq!(recover_images(Some(&ckpt), &wal), Ok(()));
    // A checkpoint as the WAL: its frame's seq is the covered position,
    // ahead of an empty prefix...
    assert_eq!(
        recover_images(None, &ckpt),
        Err(RecoveryError::SequenceGap {
            expected: 0,
            found: 1
        })
    );
    // ...and where the seq lines up, its payload is no WAL line.
    assert!(matches!(
        recover_images(Some(&ckpt), &ckpt),
        Err(RecoveryError::BadRecord { seq: 1, .. })
    ));
    let (_, empty_ckpt) = durable_images(0);
    assert!(matches!(
        recover_images(None, &empty_ckpt),
        Err(RecoveryError::BadRecord { seq: 0, .. })
    ));
    // A WAL as the checkpoint: one frame or many, none is a checkpoint.
    for checkpointed in [0, 1] {
        let (wal, _) = durable_images(checkpointed);
        assert!(matches!(
            recover_images(Some(&wal), &wal),
            Err(RecoveryError::Checkpoint(WalError::BadCheckpoint(_)))
        ));
    }
}

/// A WAL and a checkpoint image marked with stream `version` are both
/// refused as that version.
fn assert_version_refused(version: u16) {
    let (wal, ckpt) = durable_images(1);
    for mut img in [wal, ckpt] {
        img[WAL_MAGIC.len()..WAL_MAGIC.len() + 2].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            recover_images(None, &img),
            Err(RecoveryError::Wal(WalError::UnsupportedStreamVersion(
                version
            )))
        );
        assert_eq!(
            recover_images(Some(&img), &[]),
            Err(RecoveryError::Checkpoint(
                WalError::UnsupportedStreamVersion(version)
            ))
        );
    }
}

#[test]
fn a_version_1_stream_is_refused() {
    assert_version_refused(1);
}

/// Version 2 put `seq` in front of each payload and the `checkpoint`
/// line in front of the log text.
#[test]
fn a_version_2_stream_is_refused() {
    assert_version_refused(2);
}

#[test]
fn a_crc_valid_payload_that_is_not_utf8_is_a_bad_record() {
    let mut wal = Wal::create(MemorySink::new()).expect("memory sink");
    wal.append(b"query").expect("memory sink");
    wal.append(b"query \xff\xfe").expect("memory sink");
    let image = wal.sink().bytes();
    let scan = scan_wal(image).expect("a WAL image");
    assert!(scan.torn.is_none(), "CRC-valid: {:?}", scan.torn);
    assert_eq!(scan.records.len(), 2);
    match recover_images(None, image) {
        Err(RecoveryError::BadRecord { seq: 1, detail }) => {
            assert!(detail.contains("not UTF-8"), "{detail}")
        }
        other => panic!("expected a bad record, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Fuzz half: build valid logs from generated commands, then mutate.
// ---------------------------------------------------------------------

/// Deterministically builds one command from a generated tuple; f64
/// payloads come straight from arbitrary bit patterns (the text codec is
/// bit-exact for *any* bits, NaN included — validation is `apply`'s job,
/// not the parser's).
fn build_command(op: usize, pick: usize, bits: u64) -> Command {
    let all = JobConfig::all();
    match op % 6 {
        0 => Command::Submit {
            job: TraceJob {
                id: JobId(pick as u64),
                config: all[pick % all.len()],
                arrival_time: f64::from_bits(bits),
                scale_factor: (pick % 4 + 1) as u32,
                total_steps: f64::from_bits(bits.rotate_left(17)),
                duration_seconds: 3600.0,
                weight: 1.0,
                slo_factor: if pick.is_multiple_of(3) {
                    Some(f64::from_bits(bits ^ 0xffff))
                } else {
                    None
                },
                entity: Some(pick % 5).filter(|&e| e < 4),
            },
        },
        1 => Command::Complete {
            job: JobId(pick as u64),
        },
        2 => Command::Cancel {
            job: JobId(pick as u64),
        },
        3 => Command::AdvanceTo {
            seconds: f64::from_bits(bits),
        },
        4 => Command::QueryAllocation,
        _ => Command::InjectRepair { accel: pick % 4 },
    }
}

/// One generated log line: a command's (`op` 0..6) or a `reject` entry's.
fn build_line(op: usize, pick: usize, bits: u64) -> String {
    const KINDS: [&str; 6] = [
        "duplicate-job",
        "entity-cap",
        "unknown-job",
        "no-failure-model",
        "nothing-to-repair",
        "invalid",
    ];
    if op < 6 {
        return build_command(op, pick, bits).fmt_line();
    }
    let entity = Some(pick % 5).filter(|&e| e < 4);
    let entity = entity.map_or("-".into(), |e| e.to_string());
    format!("reject kind={} entity={entity}", KINDS[pick % KINDS.len()])
}

fn build_lines(ops: &[(usize, usize, u64)]) -> Vec<String> {
    (ops.iter())
        .map(|&(op, pick, bits)| build_line(op, pick, bits))
        .collect()
}

/// A log text the way a recorder writes it: the header, one line each.
fn build_log_text(lines: impl IntoIterator<Item = String>) -> String {
    let mut text = format!("gavel-submission-log v{LOG_VERSION}\n");
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

fn lines_of(log: &SubmissionLog) -> Vec<String> {
    log.commands().iter().map(Command::fmt_line).collect()
}

/// The command lines among `lines`, in order.
fn command_lines(lines: &[String]) -> Vec<String> {
    (lines.iter())
        .filter(|l| !l.starts_with("reject "))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid logs round-trip exactly, for arbitrary f64 bit patterns and
    /// `reject` entries anywhere.
    #[test]
    fn generated_logs_round_trip(
        ops in prop::collection::vec((0usize..7, 0usize..64, any::<u64>()), 0..20),
    ) {
        let lines = build_lines(&ops);
        let text = build_log_text(lines.clone());
        let log = SubmissionLog::parse(&text).expect("valid log parses");
        // Command lines survive bit-exactly.
        prop_assert_eq!(lines_of(&log), command_lines(&lines));
        // serialize ∘ parse is the identity on the text.
        prop_assert_eq!(log.serialize(), text);
    }

    /// Truncating a valid log at *any* byte: `parse` errors or returns a
    /// log that (a) is a line-prefix of the original except possibly a
    /// reinterpreted final line and (b) re-serializes to text that parses
    /// back to itself — never panics.
    #[test]
    fn truncated_logs_recover_a_valid_prefix(
        ops in prop::collection::vec((0usize..7, 0usize..64, any::<u64>()), 1..12),
        cut_seed in any::<usize>(),
    ) {
        let lines = build_lines(&ops);
        let text = build_log_text(lines.clone());
        let cut = cut_seed % (text.len() + 1);
        let truncated = &text[..cut.min(text.len())];
        if let Ok(t) = std::str::from_utf8(truncated.as_bytes()) {
            // `parse` must not panic; outcome may be either.
            let Ok(prefix) = SubmissionLog::parse(t) else {
                return Ok(());
            };
            let recovered = lines_of(&prefix);
            let original = command_lines(&lines);
            prop_assert!(recovered.len() <= original.len());
            // Every recovered line except possibly the last (the torn
            // one can reparse to a shorter-but-valid line) matches.
            for (i, line) in recovered.iter().enumerate() {
                if i + 1 < recovered.len() {
                    prop_assert_eq!(line, &original[i], "line {} diverged", i);
                }
            }
            // The recovered prefix is itself a valid log.
            let reparsed = SubmissionLog::parse(&prefix.serialize())
                .expect("recovered prefix must serialize to a parseable log");
            prop_assert_eq!(reparsed.serialize(), prefix.serialize());
        }
    }

    /// Flipping arbitrary bytes of a valid log: `parse` never panics, and
    /// whatever it accepts still re-serializes to a parseable log.
    #[test]
    fn mutated_logs_never_panic(
        ops in prop::collection::vec((0usize..7, 0usize..64, any::<u64>()), 1..10),
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..6),
    ) {
        let mut bytes = build_log_text(build_lines(&ops)).into_bytes();
        for &(pos, mask) in &flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= mask;
        }
        if let Ok(t) = std::str::from_utf8(&bytes) {
            let Ok(prefix) = SubmissionLog::parse(t) else {
                return Ok(());
            };
            let reserialized = prefix.serialize();
            let reparsed = SubmissionLog::parse(&reserialized)
                .expect("recovered prefix must serialize to a parseable log");
            prop_assert_eq!(reparsed.serialize(), reserialized);
        }
    }
}
