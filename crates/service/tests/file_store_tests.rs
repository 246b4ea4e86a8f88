//! The file checkpoint store: two slot files overwritten in place, the
//! older one at each save. What it must keep: `load` serves the newest
//! image that verifies, a save torn part-way leaves the previous image
//! served (and, with the uncompacted WAL, the uninterrupted prefix
//! recoverable), the first save of a store never overwrites the only
//! valid slot and retires what an earlier run left, and a durable
//! service on files stores what one on memory stores.

use gavel_core::{ClusterSpec, JobId};
use gavel_policies::MaxMinFairness;
use gavel_service::{
    recover, Checkpoint, CheckpointStore, Command, DurableService, FileCheckpointStore, FileSink,
    MemoryCheckpointStore, MemorySink, SchedulerService, ServiceConfig, SimConfig,
};
use gavel_workloads::{JobConfig, ModelFamily, TraceJob};
use std::path::{Path, PathBuf};

/// A fresh, empty directory of its own for test `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("file_store_tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

fn config() -> SimConfig {
    SimConfig::new(ClusterSpec::new(&[
        ("v100", 2, 2, 2.48),
        ("p100", 2, 2, 1.46),
        ("k80", 2, 2, 0.45),
    ]))
}

/// Command `i` of a stream of submits, clock advances, queries and
/// refused cancels.
fn command(i: u64) -> Command {
    match i % 4 {
        0 if i < 120 => Command::Submit {
            job: TraceJob {
                id: JobId(i),
                config: JobConfig::new(ModelFamily::ResNet50, 64),
                arrival_time: 0.0,
                scale_factor: 1,
                total_steps: 2e6,
                duration_seconds: 3600.0,
                weight: 1.0,
                slo_factor: None,
                entity: Some(i as usize % 3),
            },
        },
        1 => Command::AdvanceTo {
            seconds: 360.0 * i as f64,
        },
        2 => Command::Cancel {
            job: JobId(1 << 40),
        },
        _ => Command::QueryAllocation,
    }
}

/// A checkpoint image covering `seq` whose log text is `lines` lines.
fn image(seq: u64, lines: usize) -> Vec<u8> {
    Checkpoint {
        config_fingerprint: 1,
        covered_seq: seq,
        state_fingerprint: 2,
        log_text: "query\n".repeat(lines),
    }
    .serialize()
}

fn slot_bytes(store: &FileCheckpointStore) -> [Vec<u8>; 2] {
    store
        .slot_paths()
        .map(|path| std::fs::read(path).unwrap_or_default())
}

#[test]
fn an_empty_directory_holds_no_checkpoint() {
    let dir = scratch_dir("empty");
    let store = FileCheckpointStore::new(dir.join("svc.ckpt"));
    assert_eq!(store.load(), Ok(None));
}

#[test]
fn saved_images_load_back_through_any_store_instance() {
    let dir = scratch_dir("round_trip");
    let path = dir.join("svc.ckpt");
    let mut store = FileCheckpointStore::new(&path);
    for seq in 1..=5 {
        let img = image(seq, seq as usize);
        store.save(&img).expect("save");
        assert_eq!(store.load(), Ok(Some(img.clone())), "save {seq}");
        assert_eq!(FileCheckpointStore::new(&path).load(), Ok(Some(img)));
    }
}

#[test]
fn a_shorter_image_after_a_longer_one_leaves_no_trailing_bytes() {
    let dir = scratch_dir("shorter");
    let mut store = FileCheckpointStore::new(dir.join("svc.ckpt"));
    store.save(&image(1, 50)).expect("save");
    store.save(&image(2, 40)).expect("save");
    // Overwrites the slot that held the 50-line image.
    let short = image(3, 1);
    store.save(&short).expect("save");
    assert_eq!(store.load(), Ok(Some(short.clone())));
    let slots = slot_bytes(&store);
    assert!(slots.contains(&short), "no slot holds exactly the image");
    assert!(slots.contains(&image(2, 40)), "the previous image is gone");
}

#[test]
fn an_earlier_runs_newer_images_are_never_served_after_a_save() {
    let dir = scratch_dir("earlier_run");
    let path = dir.join("svc.ckpt");
    let mut earlier = FileCheckpointStore::new(&path);
    earlier.save(&image(100, 3)).expect("save");
    earlier.save(&image(200, 3)).expect("save");
    drop(earlier);

    let mut store = FileCheckpointStore::new(&path);
    assert_eq!(store.load(), Ok(Some(image(200, 3))));
    for seq in 5..9 {
        store.save(&image(seq, 2)).expect("save");
        assert_eq!(store.load(), Ok(Some(image(seq, 2))), "save at seq {seq}");
        assert_eq!(
            FileCheckpointStore::new(&path).load(),
            Ok(Some(image(seq, 2)))
        );
    }
}

#[test]
fn when_no_slot_verifies_a_damaged_one_is_served() {
    let dir = scratch_dir("damaged");
    let mut store = FileCheckpointStore::new(dir.join("svc.ckpt"));
    store.save(&image(1, 4)).expect("save");
    let [path, _] = store.slot_paths();
    let mut bytes = std::fs::read(path).expect("slot 0 holds the image");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(path, &bytes).expect("damage slot 0");
    let loaded = store.load().expect("load").expect("damage is served");
    assert_eq!(loaded, bytes);
    assert!(Checkpoint::parse(&loaded).is_err());
}

/// A durable service on files fed commands `0..25`, checkpointing before
/// commands 10 and 20 only: its WAL holds the five records past the last
/// checkpoint, as at a crash inside the save that would follow them.
/// Returns the store and the image that save would write.
fn run_to_a_torn_save(dir: &Path) -> (FileCheckpointStore, Vec<u8>) {
    let policy = MaxMinFairness::new();
    let path = dir.join("svc.ckpt");
    let mut durable = DurableService::new(
        &policy,
        config(),
        ServiceConfig::default(),
        FileSink::create(&dir.join("svc.wal")).expect("create WAL"),
        FileCheckpointStore::new(&path),
        0,
    )
    .expect("file storage");
    let mut twin = DurableService::new(
        &policy,
        config(),
        ServiceConfig::default(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        0,
    )
    .expect("memory storage");
    for i in 0..25 {
        if i == 10 || i == 20 {
            durable.checkpoint_now().expect("file checkpoint");
        }
        let _verdict = durable.apply(&command(i)).expect("file WAL");
        let _verdict = twin.apply(&command(i)).expect("memory WAL");
    }
    twin.checkpoint_now().expect("memory checkpoint");
    let next = twin.store().bytes().expect("saved").to_vec();
    (FileCheckpointStore::new(path), next)
}

/// The fingerprint of a plain service fed commands `0..n`.
fn prefix_fingerprint(n: u64) -> u64 {
    let policy = MaxMinFairness::new();
    let mut svc = SchedulerService::new(config(), ServiceConfig::default(), &policy);
    for i in 0..n {
        let _ = svc.apply(&command(i));
    }
    svc.state_fingerprint()
}

/// Writes the first half of `next` over the slot that does not hold
/// the image `store` serves — the slot its next save writes — and
/// returns that slot's index.
fn tear_next_slot(store: &FileCheckpointStore, next: &[u8]) -> usize {
    let served = store.load().expect("load").expect("a checkpoint");
    let slots = slot_bytes(store);
    let torn = 1 - slots
        .iter()
        .position(|bytes| *bytes == served)
        .expect("a slot holds the served image");
    std::fs::write(store.slot_paths()[torn], &next[..next.len() / 2]).expect("tear the slot");
    torn
}

#[test]
fn a_torn_save_leaves_the_previous_image_and_the_prefix_recoverable() {
    let dir = scratch_dir("torn");
    let (store, next) = run_to_a_torn_save(&dir);
    let previous = store.load().expect("load").expect("a checkpoint");
    tear_next_slot(&store, &next);
    assert_eq!(store.load(), Ok(Some(previous.clone())));

    let wal = std::fs::read(dir.join("svc.wal")).expect("read WAL");
    let policy = MaxMinFairness::new();
    let (svc, report) = recover(
        &policy,
        &config(),
        &ServiceConfig::default(),
        Some(&previous),
        &wal,
    )
    .expect("previous image + uncompacted WAL recover");
    assert!(report.checkpoint_used);
    assert_eq!(report.consumed(), 25);
    assert_eq!(svc.state_fingerprint(), prefix_fingerprint(25));
}

#[test]
fn resuming_after_a_torn_slot_overwrites_the_torn_slot() {
    let dir = scratch_dir("torn_resume");
    let (store, next) = run_to_a_torn_save(&dir);
    let torn = tear_next_slot(&store, &next);
    let previous = store.load().expect("load").expect("a checkpoint");
    let wal = std::fs::read(dir.join("svc.wal")).expect("read WAL");
    // The torn slot claims the newer `seq`; only verification tells it
    // from the valid one.
    assert!(
        Checkpoint::parse(&previous).expect("valid").covered_seq
            < Checkpoint::parse(&next).expect("valid").covered_seq
    );

    let policy = MaxMinFairness::new();
    let (resumed, _) = DurableService::resume(
        &policy,
        config(),
        ServiceConfig::default(),
        Some(&previous),
        &wal,
        FileSink::create(&dir.join("resumed.wal")).expect("create WAL"),
        FileCheckpointStore::new(dir.join("svc.ckpt")),
        0,
    )
    .expect("resume");
    let saved = resumed.store().load().expect("load").expect("resume saved");
    assert_eq!(saved, next, "resume checkpoints the recovered prefix");
    let slots = slot_bytes(resumed.store());
    assert_eq!(slots[torn], next, "resume wrote the torn slot");
    assert!(
        slots[1 - torn].is_empty(),
        "the previous image is retired once the new one is saved"
    );
}

#[test]
fn a_durable_service_on_files_stores_what_one_on_memory_stores() {
    let dir = scratch_dir("durable");
    let policy = MaxMinFairness::new();
    let mut on_files = DurableService::new(
        &policy,
        config(),
        ServiceConfig::default(),
        FileSink::create(&dir.join("svc.wal")).expect("create WAL"),
        FileCheckpointStore::new(dir.join("svc.ckpt")),
        7,
    )
    .expect("file storage");
    let mut in_memory = DurableService::new(
        &policy,
        config(),
        ServiceConfig::default(),
        MemorySink::new(),
        MemoryCheckpointStore::new(),
        7,
    )
    .expect("memory storage");
    for i in 0..300 {
        let _verdict = on_files.apply(&command(i)).expect("file storage");
        let _verdict = in_memory.apply(&command(i)).expect("memory storage");
        if (i + 1) % 7 == 0 {
            assert_eq!(
                on_files.store().load().expect("load").as_deref(),
                in_memory.store().bytes(),
                "after command {i}"
            );
        }
    }
}
