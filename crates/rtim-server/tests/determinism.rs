//! Multi-client determinism: concurrent loopback ingest must be
//! bit-identical to an offline replay of the same arrival order.
//!
//! The server enforces arrival order at the bounded queue — whatever
//! interleaving the clients race into, the engine consumes one global
//! sequence.  With the journal enabled that sequence is captured, so the
//! invariant under test is:
//!
//! > final `QUERY` (seeds + value) == `SimEngine::run_stream` over the
//! > journaled arrival-order trace, bit for bit, at pool threads 1 and 4,
//! > over one or two event-loop threads, lockstep (window 1) and
//! > pipelined (window 16).
//!
//! Every client batch is a multiple of the slide length `L`, so the
//! server's within-batch slide cuts land on the same boundaries as the
//! offline replay (see `docs/SERVER.md`, "Determinism").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtim_core::{FrameworkKind, SimConfig, SimEngine};
use rtim_server::{IngestReply, RtimClient, RtimServer, ServerConfig};
use rtim_stream::Action;

/// One client's scripted stream: ids 1..=n in its private space, replying
/// only to its own earlier actions (~55% replies, recency-biased).
fn client_script(seed: u64, actions: usize, users: u32) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(actions);
    for t in 1..=actions as u64 {
        let user = rng.gen_range(0..users);
        let action = if t > 1 && rng.gen_bool(0.55) {
            // Bias towards recent parents, like real cascades.
            let span = (t - 1).min(200);
            let parent = t - rng.gen_range(1..span + 1);
            Action::reply(t, user, parent)
        } else {
            Action::root(t, user)
        };
        out.push(action);
    }
    out
}

/// Drives `clients` concurrent loopback connections, each shipping its
/// script in `batch`-sized chunks (with `window` correlated ingests in
/// flight when `window > 1`), then checks the final answer against the
/// offline replay of the journal.
fn run_case(threads: usize, clients: usize, per_client: usize, loop_threads: usize, window: usize) {
    const L: usize = 100;
    let config = SimConfig::new(5, 0.5, 1_000, L).with_threads(threads);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_journal(true)
            .with_queue_capacity(16)
            .with_event_loop_threads(loop_threads),
    )
    .unwrap();
    let addr = server.local_addr();

    let batch = 5 * L; // multiple of L: slide cuts align with run_stream
    assert!(
        per_client.is_multiple_of(batch),
        "script must split into whole batches"
    );
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let script = client_script(0xC0FFEE + c as u64, per_client, 2_000);
                let mut client = RtimClient::connect(addr).unwrap();
                if window > 1 {
                    // Pipelined: keep `window` unacked batches in flight.
                    let mut pipe = client.pipelined(window);
                    for chunk in script.chunks(batch) {
                        pipe.ingest(chunk).unwrap();
                    }
                    let acked = pipe.drain().unwrap();
                    // Queries still serialize after the drained ingests.
                    if c < 2 {
                        let _ = client.query().unwrap();
                    }
                    acked
                } else {
                    let mut acked = 0u64;
                    for chunk in script.chunks(batch) {
                        client.ingest_blocking(chunk).unwrap();
                        acked += chunk.len() as u64;
                        // Interleave mid-stream queries on a couple of
                        // clients; they must not perturb ingest state.
                        if c < 2 && acked.is_multiple_of(batch as u64 * 4) {
                            let _ = client.query().unwrap();
                        }
                    }
                    acked
                }
            })
        })
        .collect();
    let total_acked: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();

    // Final answer over the wire, then drain.
    let mut probe = RtimClient::connect(addr).unwrap();
    let live = probe.query().unwrap();
    probe.shutdown().unwrap();
    let report = server.wait();

    assert_eq!(total_acked, (clients * per_client) as u64);
    assert_eq!(report.stats.actions, total_acked);
    assert_eq!(report.final_solution, live);

    // Offline replay of the journaled arrival order, same config.
    let journal = report.journal.expect("journal enabled");
    assert_eq!(journal.len(), total_acked as usize);
    let mut offline = SimEngine::new_sic(config);
    let offline_report = offline.run_stream(&journal);
    let offline_solution = offline_report.final_solution();

    assert_eq!(
        live.seeds, offline_solution.seeds,
        "threads={threads} loops={loop_threads} window={window}: seed sets diverged"
    );
    assert_eq!(
        live.value.to_bits(),
        offline_solution.value.to_bits(),
        "threads={threads} loops={loop_threads} window={window}: values diverged ({} vs {})",
        live.value,
        offline_solution.value
    );
    assert_eq!(
        report.stats.slides,
        offline_report.slides.len() as u64,
        "slide boundaries diverged"
    );
    assert_eq!(report.stats.checkpoints, offline.checkpoint_count() as u64);
    assert_eq!(report.stats.oracle_updates, offline.oracle_updates());
}

/// ≥100k actions interleaved by 5 concurrent clients over the event loop,
/// sequential pool.
#[test]
fn concurrent_clients_match_offline_replay_sequential() {
    run_case(1, 5, 20_000, 2, 1);
}

/// Same workload with a 4-worker shard pool behind the engine thread.
#[test]
fn concurrent_clients_match_offline_replay_pool4() {
    run_case(4, 5, 20_000, 2, 1);
}

/// Eight pipelined clients, each with a 16-batch in-flight window racing
/// through a single loop thread: completions interleave out of lockstep,
/// yet the served answers stay bit-identical to the offline replay.
#[test]
fn pipelined_eight_clients_window16_match_offline_replay() {
    run_case(1, 8, 10_000, 1, 16);
}

/// Pipelined interleave across a 2-thread loop pool with the shard pool
/// behind the engine — the full concurrency stack at once.
#[test]
fn pipelined_clients_over_two_loop_threads_pool4() {
    run_case(4, 8, 10_000, 2, 16);
}

/// A `/metrics` + `/trace` scraper hammering the sidecar concurrently
/// with a 256-connection ingest — tracing enabled at sample rate 1, so
/// *every* frame is recorded — must not perturb served-answer
/// bit-identity: scraping and trace dumps only read shared state (they
/// never enqueue an engine command), so the journaled arrival order —
/// and therefore the final answer — replays offline bit for bit, exactly
/// as without the scraper or the recorder.
#[test]
fn scraping_does_not_perturb_bit_identity_under_256_connections() {
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const L: usize = 10;
    const CLIENTS: usize = 256;
    const PER_CLIENT: usize = 200;
    const CAPACITY: usize = 16;
    let config = SimConfig::new(3, 0.4, 100, L);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_journal(true)
            .with_queue_capacity(CAPACITY)
            .with_event_loop_threads(2)
            .with_metrics("127.0.0.1:0")
            .with_tracing(rtim_core::TraceConfig::sampled(1, 0)),
    )
    .unwrap();
    let addr = server.local_addr();
    let scrape_addr = server.metrics_addr().unwrap();

    // The scraper races the whole ingest, as fast as it can reconnect,
    // alternating the registry scrape with a flight-recorder dump.
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !done.load(Ordering::Acquire) {
                let request: &[u8] = if scrapes.is_multiple_of(2) {
                    b"GET /metrics HTTP/1.0\r\n\r\n"
                } else {
                    b"GET /trace?max=256 HTTP/1.0\r\n\r\n"
                };
                let mut conn = std::net::TcpStream::connect(scrape_addr).unwrap();
                conn.write_all(request).unwrap();
                let mut response = String::new();
                conn.read_to_string(&mut response).unwrap();
                assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
                if scrapes.is_multiple_of(2) {
                    assert!(response.contains("rtim_feed_nanos"), "{response}");
                } else {
                    assert!(response.contains("\"type\":\"totals\""), "{response}");
                }
                scrapes += 1;
            }
            scrapes
        })
    };

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let script = client_script(0xBEEF + c as u64, PER_CLIENT, 500);
                let mut client = RtimClient::connect(addr).unwrap();
                for chunk in script.chunks(2 * L) {
                    client.ingest_blocking(chunk).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let scrapes = scraper.join().unwrap();
    assert!(scrapes > 0, "the scraper never completed a scrape");

    let mut probe = RtimClient::connect(addr).unwrap();
    let live = probe.query().unwrap();
    probe.shutdown().unwrap();
    let report = server.wait();
    assert_eq!(report.stats.actions, (CLIENTS * PER_CLIENT) as u64);
    // 256 connections race into the bounded queue; the depth the engine
    // observed stays within its capacity.
    assert!(
        report.stats.max_queue_depth <= CAPACITY as u64,
        "max queue depth {} over capacity {CAPACITY}",
        report.stats.max_queue_depth
    );

    let mut offline = SimEngine::new_sic(config);
    let offline_solution = offline
        .run_stream(&report.journal.unwrap())
        .final_solution();
    assert_eq!(live.seeds, offline_solution.seeds, "{scrapes} scrapes");
    assert_eq!(
        live.value.to_bits(),
        offline_solution.value.to_bits(),
        "{scrapes} scrapes"
    );
}

/// Eight clients with tiny ragged-but-aligned batches still serialize into
/// one valid arrival order (smaller volume; exercises interleaving, not
/// throughput).  The queue holds only 4 commands, so batches park; the
/// server never answers `BUSY`.
#[test]
fn eight_clients_interleave_cleanly() {
    const L: usize = 10;
    let config = SimConfig::new(3, 0.4, 100, L);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Ic)
            .with_journal(true)
            .with_queue_capacity(4),
    )
    .unwrap();
    let addr = server.local_addr();
    let workers: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let script = client_script(7 + c as u64, 600, 150);
                let mut client = RtimClient::connect(addr).unwrap();
                for chunk in script.chunks(3 * L) {
                    match client.ingest(chunk).unwrap() {
                        IngestReply::Ack { accepted, .. } => {
                            assert_eq!(accepted, chunk.len() as u64)
                        }
                        IngestReply::Busy { .. } => panic!("the server parks, never BUSY"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let mut probe = RtimClient::connect(addr).unwrap();
    let live = probe.query().unwrap();
    probe.shutdown().unwrap();
    let report = server.wait();
    assert_eq!(report.stats.actions, 8 * 600);
    let mut offline = SimEngine::new_ic(config);
    let offline_solution = offline
        .run_stream(&report.journal.unwrap())
        .final_solution();
    assert_eq!(live.seeds, offline_solution.seeds);
    assert_eq!(live.value.to_bits(), offline_solution.value.to_bits());
}
