//! Submission-log robustness: versioned headers round-trip, and parsing
//! mutated or truncated log text never panics — it either errors or
//! recovers a valid prefix whose re-serialization parses cleanly.

use gavel_core::{ClusterSpec, JobId};
use gavel_policies::IsolatedSplit;
use gavel_service::{
    recover, scan_wal, Command, MemorySink, RecoveryError, ServiceConfig, SimConfig, SubmissionLog,
    Wal, LOG_VERSION,
};
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Version round trips (the plain #[test] half).
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
fn v1_text_parses_and_reserializes_identically() {
    let log = SubmissionLog::parse(V1_TEXT).expect("v1 stays parseable");
    assert_eq!(log.version(), 1);
    assert_eq!(log.len(), 2);
    assert_eq!(log.rejections().commands, 3);
    assert_eq!(log.rejections().invalid, 0, "v1 has no invalid tally");
    // Parse → serialize is the identity: the log remembers it is v1 and
    // does not emit the v2-only `invalid=` field.
    assert_eq!(log.serialize(), V1_TEXT);
}

#[test]
fn v2_text_parses_and_reserializes_identically() {
    let log = SubmissionLog::parse(V2_TEXT).expect("v2 parses");
    assert_eq!(log.version(), 2);
    assert_eq!(log.len(), 2);
    assert_eq!(log.rejections().commands, 5);
    assert_eq!(log.rejections().invalid, 2);
    assert_eq!(log.serialize(), V2_TEXT);
}

#[test]
fn fresh_logs_serialize_at_current_version() {
    let log = SubmissionLog::default();
    assert_eq!(log.version(), LOG_VERSION);
    assert!(log
        .serialize()
        .starts_with(&format!("gavel-submission-log v{LOG_VERSION}\n")));
}

#[test]
fn unknown_versions_are_refused() {
    for text in [
        "gavel-submission-log v0\nrejected commands=0 cap=0\n",
        "gavel-submission-log v99\nrejected commands=0 cap=0 invalid=0\n",
        "gavel-submission-log vx\n",
        "not-a-log v2\n",
        "",
    ] {
        assert!(SubmissionLog::parse(text).is_err(), "accepted: {text:?}");
        // And prefix recovery reports the unusable header rather than
        // inventing an empty log silently.
        let (log, err) = SubmissionLog::parse_prefix(text);
        assert!(log.is_empty());
        assert!(err.is_some());
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
fn text_log_with_an_unlisted_batch_size_recovers_its_prefix() {
    let cmds = [
        cyclegan_submit(1),
        cyclegan_submit(64),
        Command::QueryAllocation,
    ];
    let text = build_log_text(&cmds, 0, 0, 0);
    let err = SubmissionLog::parse(&text).unwrap_err();
    assert!(err.0.contains("batch size not in Table 2"), "{err}");
    let (prefix, err) = SubmissionLog::parse_prefix(&text);
    assert_eq!(lines_of(&prefix), [cmds[0].fmt_line()]);
    assert!(err.is_some());
}

#[test]
fn wal_record_with_an_unlisted_batch_size_is_a_bad_record() {
    let unlisted = cyclegan_submit(64);
    let mut wal = Wal::create(MemorySink::new()).expect("memory sink");
    wal.append_command(&unlisted).expect("memory sink");
    let image = wal.sink().bytes();

    let scan = scan_wal(image).expect("a WAL image");
    assert!(scan.torn.is_none(), "CRC-valid: {:?}", scan.torn);
    assert_eq!(scan.records.len(), 1);
    assert_eq!(scan.records[0].payload, unlisted.fmt_line());

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

/// Serializes generated commands as a log text the way the service
/// would (header + tallies + one line per command).
fn build_log_text(cmds: &[Command], rejected: usize, cap: usize, invalid: usize) -> String {
    let mut text = format!(
        "gavel-submission-log v{LOG_VERSION}\nrejected commands={rejected} cap={cap} invalid={invalid}\n"
    );
    for cmd in cmds {
        text.push_str(&cmd.fmt_line());
        text.push('\n');
    }
    text
}

fn lines_of(log: &SubmissionLog) -> Vec<String> {
    log.commands().iter().map(Command::fmt_line).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid logs round-trip exactly, for arbitrary f64 bit patterns.
    #[test]
    fn generated_logs_round_trip(
        ops in prop::collection::vec((0usize..6, 0usize..64, any::<u64>()), 0..20),
        tallies in (0usize..10, 0usize..5, 0usize..5),
    ) {
        let cmds: Vec<Command> =
            ops.iter().map(|&(op, pick, bits)| build_command(op, pick, bits)).collect();
        let text = build_log_text(&cmds, tallies.0, tallies.1, tallies.2);
        let log = SubmissionLog::parse(&text).expect("valid log parses");
        prop_assert_eq!(log.len(), cmds.len());
        prop_assert_eq!(log.rejections().commands, tallies.0);
        prop_assert_eq!(log.rejections().admission_cap, tallies.1);
        prop_assert_eq!(log.rejections().invalid, tallies.2);
        // Command lines survive bit-exactly.
        let reparsed: Vec<String> = lines_of(&log);
        let original: Vec<String> = cmds.iter().map(Command::fmt_line).collect();
        prop_assert_eq!(reparsed, original);
        // serialize ∘ parse is the identity on the text.
        prop_assert_eq!(log.serialize(), text);
    }

    /// Truncating a valid log at *any* byte: `parse` errors or returns a
    /// prefix, never panics; `parse_prefix` recovers a log that (a) is a
    /// line-prefix of the original except possibly a reinterpreted final
    /// line and (b) re-serializes to text that parses cleanly.
    #[test]
    fn truncated_logs_recover_a_valid_prefix(
        ops in prop::collection::vec((0usize..6, 0usize..64, any::<u64>()), 1..12),
        cut_seed in any::<usize>(),
    ) {
        let cmds: Vec<Command> =
            ops.iter().map(|&(op, pick, bits)| build_command(op, pick, bits)).collect();
        let text = build_log_text(&cmds, 2, 1, 1);
        let cut = cut_seed % (text.len() + 1);
        let truncated = &text[..cut.min(text.len())];
        if let Ok(t) = std::str::from_utf8(truncated.as_bytes()) {
            // `parse` must not panic; outcome may be either.
            let _ = SubmissionLog::parse(t);
            let (prefix, _err) = SubmissionLog::parse_prefix(t);
            let recovered = lines_of(&prefix);
            let original: Vec<String> = cmds.iter().map(Command::fmt_line).collect();
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
            prop_assert_eq!(lines_of(&reparsed), recovered);
        }
    }

    /// Flipping arbitrary bytes of a valid log: `parse` and
    /// `parse_prefix` never panic, and whatever prefix is recovered
    /// still re-serializes to a parseable log.
    #[test]
    fn mutated_logs_never_panic(
        ops in prop::collection::vec((0usize..6, 0usize..64, any::<u64>()), 1..10),
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..6),
    ) {
        let cmds: Vec<Command> =
            ops.iter().map(|&(op, pick, bits)| build_command(op, pick, bits)).collect();
        let mut bytes = build_log_text(&cmds, 0, 0, 0).into_bytes();
        for &(pos, mask) in &flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= mask;
        }
        if let Ok(t) = std::str::from_utf8(&bytes) {
            let _ = SubmissionLog::parse(t);
            let (prefix, _err) = SubmissionLog::parse_prefix(t);
            let reserialized = prefix.serialize();
            let reparsed = SubmissionLog::parse(&reserialized)
                .expect("recovered prefix must serialize to a parseable log");
            prop_assert_eq!(lines_of(&reparsed), lines_of(&prefix));
        }
    }
}
