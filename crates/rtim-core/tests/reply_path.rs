//! The engine handle's reply path: queries answered from the published
//! answer, the doorbell that wakes the engine thread, and what callers see
//! once the engine thread is gone.
//!
//! * A query never gets an answer older than recovery.
//! * After the engine thread exits — a panic included — queries, ingests
//!   and callers blocked on a reply get a typed error, never a stale
//!   answer or a hang.
//! * Many producers on a one- or two-slot queue, holding their doorbells
//!   for random pauses, never strand an acknowledged batch: every batch an
//!   enqueue accepted is in the final report.

use rtim_core::{
    EngineHandle, FrameworkKind, HandleClosed, HandleOptions, IngestError, PersistOptions,
    SimConfig, SimEngine, SnapshotRequestError, SpanCtx,
};
use rtim_stream::Action;
use std::sync::mpsc;
use std::time::Duration;

/// xorshift64: deterministic pauses and users without a rand dependency.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `n` actions with ids 1..=n, about half replying to a recent action.
fn script(seed: u64, n: u64) -> Vec<Action> {
    let mut rng = seed.max(1);
    (1..=n)
        .map(|t| {
            let user = (next(&mut rng) % 50) as u32;
            if t > 1 && next(&mut rng).is_multiple_of(2) {
                Action::reply(t, user, t - 1 - next(&mut rng) % (t - 1).min(20))
            } else {
                Action::root(t, user)
            }
        })
        .collect()
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtim-reply-path-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A query issued while startup recovery is still replaying the journal
/// is served the recovered answer — from the queue if need be — never
/// the empty answer of the engine before recovery.
#[test]
fn query_during_recovery_never_sees_a_pre_recovery_answer() {
    let dir = temp_dir("recovery");
    let config = SimConfig::new(5, 0.3, 2_000, 100);
    let actions = script(7, 20_000);
    let persist = || {
        HandleOptions::default()
            .with_capacity(4)
            .with_persistence(PersistOptions::new(&dir).with_snapshot_every_slides(0))
    };
    {
        let handle = EngineHandle::spawn(config, FrameworkKind::Sic, persist());
        let mut sender = handle.sender();
        for batch in actions.chunks(500) {
            sender.ingest(batch.to_vec()).unwrap();
        }
        handle.shutdown();
    }
    let mut reference = SimEngine::new(config, FrameworkKind::Sic);
    for batch in actions.chunks(500) {
        reference.ingest_batch(batch);
    }
    let expected = reference.query();
    assert!(expected.value > 0.0);

    // No snapshot was written, so recovery replays the whole journal.
    let handle = EngineHandle::spawn(config, FrameworkKind::Sic, persist());
    let sender = handle.sender();
    if let Some(early) = sender.published_answer().unwrap() {
        assert_eq!(early, expected, "published answer predates recovery");
    }
    assert_eq!(sender.query().unwrap(), expected);
    assert_eq!(handle.query().unwrap(), expected);
    drop(sender);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine thread dies on a batch (a zero slide length passes
/// construction — the fields are public — and panics at the first slide
/// cut).  Every caller, including one parked on a reply the engine will
/// never send, gets a typed error.
#[test]
fn engine_exit_gives_every_caller_a_typed_error() {
    let config = SimConfig {
        slide: 0,
        ..SimConfig::new(2, 0.3, 8, 2)
    };
    let handle = EngineHandle::spawn(
        config,
        FrameworkKind::Ic,
        HandleOptions::default().with_capacity(1),
    );
    let mut sender = handle.sender();
    // Accepted into the queue; the engine panics processing it.
    sender.ingest(vec![Action::root(1u64, 1u32)]).unwrap();
    // Queued behind the fatal batch (the published answer does not cover
    // it), or refused once the queue closed: an error either way.
    let (tx, waiter) = mpsc::channel();
    let reader = handle.sender();
    std::thread::spawn(move || tx.send(reader.query()));
    let Ok(answer) = waiter.recv_timeout(Duration::from_secs(60)) else {
        // Dropping the handle would block on a queue nobody drains.
        std::mem::forget(handle);
        panic!("a caller hung on a dead engine");
    };
    assert_eq!(answer, Err(HandleClosed));
    assert_eq!(sender.published_answer(), Err(HandleClosed));
    assert_eq!(sender.query(), Err(HandleClosed));
    assert_eq!(handle.query(), Err(HandleClosed));
    assert_eq!(handle.stats(), Err(HandleClosed));
    assert!(matches!(
        sender.snapshot(),
        Err(SnapshotRequestError::Closed)
    ));
    assert!(matches!(
        sender.ingest(vec![Action::root(2u64, 1u32)]),
        Err(IngestError::Closed)
    ));
    assert!(matches!(
        sender.try_ingest(vec![Action::root(3u64, 1u32)]),
        Err(IngestError::Closed)
    ));
    // Dropping the handle joins the dead thread without a second panic.
    drop(handle);
}

/// Lost-wakeup stress: producers race one- and two-slot queues through
/// every enqueue flavour — blocking, retried non-blocking, and deferred
/// wake-ups held for a random pause — beside a reader.  A wake-up lost
/// anywhere stalls a producer for good, which the deadline turns into a
/// failure; every accepted batch must reach the engine.
#[test]
fn many_producers_on_a_tiny_queue_lose_no_acknowledged_batch() {
    const PRODUCERS: u64 = 6;
    const BATCHES: u64 = 150;
    for capacity in [1usize, 2] {
        let handle = EngineHandle::spawn(
            SimConfig::new(2, 0.3, 16, 4),
            FrameworkKind::Ic,
            HandleOptions::default()
                .with_capacity(capacity)
                .with_journal(true),
        );
        let (done_tx, done_rx) = mpsc::channel();
        for p in 0..PRODUCERS {
            let mut sender = handle.sender();
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9e37_79b9_7f4a_7c15 ^ ((p + 1) * 0x1000_0001);
                let mut acked = 0u64;
                for id in 1..=BATCHES {
                    // One action per batch; its user names the producer.
                    let mut batch = vec![Action::root(id, p as u32)];
                    match next(&mut rng) % 3 {
                        0 => sender.ingest(batch).unwrap(),
                        1 => loop {
                            match sender.try_ingest(batch) {
                                Ok(()) => break,
                                Err(IngestError::Full(back)) => {
                                    batch = back;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("ingest: {e}"),
                            }
                        },
                        _ => loop {
                            match sender.try_ingest_traced(batch, SpanCtx::default()) {
                                Ok(bell) => {
                                    let pause = next(&mut rng) % 50;
                                    std::thread::sleep(Duration::from_micros(pause));
                                    drop(bell);
                                    break;
                                }
                                Err(IngestError::Full(back)) => {
                                    batch = back;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("ingest: {e}"),
                            }
                        },
                    }
                    acked += 1;
                    if next(&mut rng).is_multiple_of(4) {
                        std::thread::sleep(Duration::from_micros(next(&mut rng) % 100));
                    }
                }
                let _ = done.send((p, acked));
            });
        }
        drop(done_tx);
        let reader = handle.sender();
        let mut acked = vec![0u64; PRODUCERS as usize];
        for _ in 0..PRODUCERS {
            match done_rx.recv_timeout(Duration::from_secs(60)) {
                Ok((p, n)) => acked[p as usize] = n,
                Err(_) => {
                    // A stalled engine would hang the drain in `drop`.
                    std::mem::forget(handle);
                    panic!("producers stalled at capacity {capacity}: lost wake-up");
                }
            }
            reader.query().unwrap();
        }
        drop(reader);
        let report = handle.shutdown();
        assert!(report.stats.max_queue_depth <= capacity as u64);
        let journal = report.journal.unwrap();
        for (p, &n) in acked.iter().enumerate() {
            assert_eq!(n, BATCHES);
            let landed = journal
                .actions()
                .iter()
                .filter(|a| a.user.0 == p as u32)
                .count();
            assert_eq!(landed as u64, n, "producer {p} at capacity {capacity}");
        }
    }
}
