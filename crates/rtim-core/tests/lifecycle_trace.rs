//! The engine thread's durability lifecycle shows up on its trace lane:
//! a journal fault records one `degrade` event, the re-arm that ends it
//! records one `rearm` event carrying the un-journaled batch count, and a
//! snapshot dispatch records a `lifecycle` event with aux 0.  Lifecycle
//! events are never sampled out, so plain (untraced) ingests suffice.

#![cfg(feature = "trace")]

use rtim_core::{
    DurabilityState, EngineHandle, FrameworkKind, HandleOptions, PersistOptions, SimConfig,
    TraceConfig,
};
use rtim_stream::trace::{TraceEvent, TraceStage};
use rtim_stream::{Action, FaultInjector, FaultKind, FaultRule, Fs, OpKind};

fn events(handle: &EngineHandle, stage: TraceStage) -> Vec<TraceEvent> {
    let recorder = handle.trace_recorder().expect("tracing enabled");
    let dump = recorder.dump(usize::MAX, false);
    dump.events
        .into_iter()
        .filter(|e| e.stage == stage.code())
        .collect()
}

#[test]
fn journal_faults_trace_degrade_rearm_and_snapshot_dispatch() {
    let dir = std::env::temp_dir().join(format!("rtim-lifecycle-trace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Write 1 is the fresh segment's header; writes 2 and 3 (the first
    // batch append and the first re-arm's segment header) fail, so the
    // pipeline degrades, fails one re-arm, and re-arms after backoff.
    let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
        op: Some(OpKind::Write),
        kind: FaultKind::Enospc,
        from: 2,
        count: 2,
    }]));
    let handle = EngineHandle::spawn(
        SimConfig::new(2, 0.3, 8, 2),
        FrameworkKind::Sic,
        HandleOptions::default()
            .with_capacity(8)
            .with_persistence(PersistOptions::new(&dir).with_fs(fs))
            .with_tracing(TraceConfig::sampled(1, 0)),
    );
    let mut sender = handle.sender();

    // Ingest one batch at a time; the stats answer after each batch tells
    // how many batches the degraded period has left un-journaled.
    let mut lost_before_rearm = None;
    let mut lag_while_degraded = 0;
    for t in 1..=12u64 {
        sender
            .ingest(vec![
                Action::root(2 * t - 1, t as u32),
                Action::reply(2 * t, 7u32, 2 * t - 1),
            ])
            .unwrap();
        let stats = sender.stats().unwrap();
        match DurabilityState::from_wire_code(stats.durability_state) {
            Some(DurabilityState::Degraded) => lag_while_degraded = stats.journal_lag_batches,
            Some(DurabilityState::Durable) if lag_while_degraded > 0 => {
                lost_before_rearm.get_or_insert(lag_while_degraded);
            }
            _ => {}
        }
    }
    let lost = lost_before_rearm.expect("the journal degraded and re-armed");
    assert!(lost >= 2, "one failed re-arm widens the gap: {lost}");

    let degrades = events(&handle, TraceStage::Degrade);
    assert_eq!(degrades.len(), 1, "{degrades:?}");
    let engine_lane = degrades[0].lane;
    let rearms = events(&handle, TraceStage::Rearm);
    assert_eq!(rearms.len(), 1, "{rearms:?}");
    assert_eq!(rearms[0].lane, engine_lane);
    assert_eq!(u64::from(rearms[0].aux), lost);

    // No background cadence is configured: the only dispatch is ours.
    let dispatches = |h: &EngineHandle| {
        events(h, TraceStage::Lifecycle)
            .into_iter()
            .filter(|e| e.aux == 0 && e.lane == engine_lane)
            .count()
    };
    assert_eq!(dispatches(&handle), 0);
    sender.snapshot().unwrap();
    // The stats round trip orders the read behind the dispatch.
    sender.stats().unwrap();
    assert_eq!(dispatches(&handle), 1);

    drop(sender);
    assert_eq!(handle.shutdown().durability, DurabilityState::Durable);
    std::fs::remove_dir_all(&dir).ok();
}
