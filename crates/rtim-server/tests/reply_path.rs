//! Cross-connection ordering of the served reply path.
//!
//! An `ACK` is written before the engine thread even wakes for its batch,
//! and a `QUERY` may be answered on the loop thread from the engine's
//! published answer.  Neither may weaken the ordering contract of
//! `docs/SERVER.md`: once a batch is acknowledged on connection A, a
//! `QUERY` on connection B reflects it — bit for bit against an offline
//! replay, at pool widths 1 and 2, over one and two event-loop threads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtim_core::{FrameworkKind, SimConfig, SimEngine};
use rtim_server::{IngestReply, RtimClient, RtimServer, ServerConfig};
use rtim_stream::Action;

/// Ids 1..=n, about half replying to one of the last 50 actions.
fn script(seed: u64, n: u64, users: u32) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n)
        .map(|t| {
            let user = rng.gen_range(0..users);
            if t > 1 && rng.gen_bool(0.5) {
                Action::reply(t, user, t - rng.gen_range(1..(t - 1).min(50) + 1))
            } else {
                Action::root(t, user)
            }
        })
        .collect()
}

fn check_ack_then_query_elsewhere(threads: usize, loop_threads: usize, kind: FrameworkKind) {
    const L: usize = 40;
    let config = SimConfig::new(4, 0.3, 400, L).with_threads(threads);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, kind)
            .with_queue_capacity(4)
            .with_event_loop_threads(loop_threads),
    )
    .unwrap();
    // Accepted round-robin: with two loop threads the connections live on
    // different threads.
    let mut writer = RtimClient::connect(server.local_addr()).unwrap();
    let mut reader = RtimClient::connect(server.local_addr()).unwrap();
    let mut reference = SimEngine::new(config, kind);
    let actions = script(threads as u64 * 10 + loop_threads as u64, 2_000, 120);
    for (i, batch) in actions.chunks(2 * L).enumerate() {
        match writer.ingest(batch).unwrap() {
            IngestReply::Ack { accepted, .. } => assert_eq!(accepted, batch.len() as u64),
            IngestReply::Busy { .. } => panic!("the event loop parks, never BUSY"),
        }
        reference.ingest_batch(batch);
        let expected = reference.query();
        let served = reader.query().unwrap();
        assert_eq!(served.seeds, expected.seeds, "batch {i}");
        assert_eq!(
            served.value.to_bits(),
            expected.value.to_bits(),
            "batch {i}"
        );
        // A second reader query right behind: the published answer again.
        assert_eq!(reader.query().unwrap(), expected, "batch {i}, repeated");
    }
    drop((writer, reader));
    let report = server.shutdown();
    assert_eq!(report.stats.actions, actions.len() as u64);
    assert_eq!(report.final_solution, reference.query());
}

#[test]
fn ack_on_one_connection_is_seen_by_a_query_on_another() {
    for threads in [1usize, 2] {
        for loop_threads in [1usize, 2] {
            check_ack_then_query_elsewhere(threads, loop_threads, FrameworkKind::Sic);
        }
    }
}

#[test]
fn ack_on_one_connection_is_seen_by_a_query_on_another_under_ic() {
    for threads in [1usize, 2] {
        for loop_threads in [1usize, 2] {
            check_ack_then_query_elsewhere(threads, loop_threads, FrameworkKind::Ic);
        }
    }
}
