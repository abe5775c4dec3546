//! Fault-injection recovery properties for the durable pipeline: under
//! scripted disk faults (crash freezes, transient error windows) the
//! engine never panics, degrades typed, and what recovery serves is
//! always a batch-aligned prefix of the ingested stream — bit-identical
//! to an offline replay of that prefix.  A pipeline that ends durable
//! recovers the *whole* stream.

use proptest::prelude::*;
use rtim_core::{
    recover_engine, DurabilityState, EngineHandle, FrameworkKind, FsyncPolicy, HandleOptions,
    PersistOptions, SimConfig, SimEngine,
};
use rtim_stream::{Action, FaultInjector, FaultKind, FaultRule, Fs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rtim-recovery-props-{}-{name}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Window = 16, slide = 4: every 4-action batch is L-aligned, the
/// documented bit-identical replay regime.
const BATCH: usize = 4;

fn config() -> SimConfig {
    SimConfig::new(2, 0.3, 16, BATCH)
}

/// A deterministic trace of `batches * BATCH` actions: roots and replies
/// to recent actions, ids 1..=n (single sender, so ids survive rebasing).
fn synth(batches: usize) -> Vec<Action> {
    let n = (batches * BATCH) as u64;
    let mut actions = Vec::with_capacity(n as usize);
    let mut state = 0xA076_1D64_78BD_642Fu64;
    for t in 1..=n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let user = ((state >> 33) % 23) as u32;
        let is_reply = t > 1 && state % 10 < 6;
        actions.push(if is_reply {
            let back = 1 + (state >> 17) % t.min(12);
            Action::reply(t, user, t - back)
        } else {
            Action::root(t, user)
        });
    }
    actions
}

/// Runs the full life: a `kind` pipeline under `fs` faults, shutdown,
/// recover from the surviving files with a healthy filesystem, and check
/// the recovery contract.  Returns the closing durability state.
fn run_and_check_recovery(
    dir: &PathBuf,
    kind: FrameworkKind,
    fs: Fs,
    actions: &[Action],
    snapshot_every: u64,
    rotate_bytes: u64,
) -> DurabilityState {
    let persist = PersistOptions::new(dir)
        .with_fs(fs)
        .with_fsync(FsyncPolicy::EveryBatch)
        .with_snapshot_every_slides(snapshot_every)
        .with_rotate_segment_bytes(rotate_bytes);
    let handle = EngineHandle::spawn(
        config(),
        kind,
        HandleOptions::default().with_persistence(persist),
    );
    let mut sender = handle.sender();
    for chunk in actions.chunks(BATCH) {
        sender.ingest(chunk.to_vec()).unwrap();
    }
    let report = handle.shutdown();
    assert_eq!(
        report.stats.durability_state,
        report.durability.wire_code(),
        "stats and report must agree on the closing durability state"
    );
    assert_ne!(
        report.durability,
        DurabilityState::Disabled,
        "persistence was configured; the state machine must stay typed"
    );

    // Recovery with a healthy disk: whatever survived must be a
    // batch-aligned prefix, served bit-identically to an offline replay
    // of that prefix.
    let outcome = recover_engine(config(), kind, dir);
    let w = outcome.watermark as usize;
    assert_eq!(w % BATCH, 0, "watermark {w} is not batch-aligned");
    assert!(w <= actions.len());
    let mut offline = SimEngine::new(config(), kind);
    for chunk in actions[..w].chunks(BATCH) {
        offline.ingest_batch(chunk);
    }
    let got = outcome.engine.query();
    let expected = offline.query();
    assert_eq!(got.seeds, expected.seeds);
    assert_eq!(got.value.to_bits(), expected.value.to_bits());

    // A pipeline that ended durable lost nothing: the journal (plus any
    // snapshot) covers the entire stream.
    if report.durability == DurabilityState::Durable {
        assert_eq!(w, actions.len(), "durable shutdown must recover everything");
    }
    report.durability
}

proptest! {
    // Each case spawns engine + writer threads; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A disk that freezes at an arbitrary op (crash simulation): the
    /// pipeline keeps serving, degrades typed, and recovery serves a
    /// bit-identical batch-aligned prefix.
    #[test]
    fn crash_at_any_op_recovers_a_bit_identical_prefix(
        batches in 1usize..24,
        crash_at in 1u64..120,
        snapshot_every in 0u64..4,
    ) {
        let dir = temp_dir("crash");
        let actions = synth(batches);
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::CrashAt { at: crash_at }]));
        run_and_check_recovery(&dir, FrameworkKind::Sic, fs, &actions, snapshot_every, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A transient error window (EIO or ENOSPC on any op): the pipeline
    /// degrades, re-arms with a covering snapshot once the disk heals,
    /// and a long enough healthy tail always ends durable with nothing
    /// lost.
    #[test]
    fn transient_fault_window_degrades_then_rearms_without_loss(
        from in 1u64..40,
        count in 1u64..6,
        enospc in (0u8..2).prop_map(|v| v == 1),
        rotate_bytes in (0u64..2).prop_map(|v| v * 256),
    ) {
        let dir = temp_dir("window");
        // 48 batches ≈ 100+ journal/snapshot ops: the fault window always
        // ends well before the stream does, leaving room for the
        // exponential-backoff re-arm (1+2+4+… batches) to fire and prove
        // its covering snapshot.
        let actions = synth(48);
        let kind = if enospc { FaultKind::Enospc } else { FaultKind::Eio };
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
            op: None,
            kind,
            from,
            count,
        }]));
        let closing =
            run_and_check_recovery(&dir, FrameworkKind::Sic, fs, &actions, 0, rotate_bytes);
        prop_assert_eq!(
            closing,
            DurabilityState::Durable,
            "the disk healed long before the end; the journal must re-arm"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fault-free sanity bound for the suite: either framework, at any
    /// rotation granularity, recovers the whole stream bit-identically.
    #[test]
    fn healthy_rotated_pipeline_recovers_everything(
        kind in (0usize..2).prop_map(|v| [FrameworkKind::Ic, FrameworkKind::Sic][v]),
        batches in 1usize..24,
        snapshot_every in 0u64..4,
        rotate_bytes in (0u64..3).prop_map(|v| [0, 128, 1024][v as usize]),
    ) {
        let dir = temp_dir("healthy");
        let actions = synth(batches);
        let closing =
            run_and_check_recovery(&dir, kind, Fs::real(), &actions, snapshot_every, rotate_bytes);
        prop_assert_eq!(closing, DurabilityState::Durable);
        std::fs::remove_dir_all(&dir).ok();
    }
}
