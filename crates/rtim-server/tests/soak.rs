//! Soak battery: sustained multi-client ingest with periodic queries and
//! misbehaving peers — mid-batch droppers, slowloris writers (one byte
//! per second inside a frame), reconnect storms, and a horde of hundreds
//! of silent idle connections — ending in a graceful drain.
//!
//! `#[ignore]` by default — each test runs for ~30 wall-clock seconds
//! (override with `RTIM_SOAK_SECS`).  CI runs them in the nightly-style
//! job:
//!
//! ```text
//! RTIM_SOAK_SECS=10 cargo test -p rtim-server --release -- --ignored soak
//! ```
//!
//! Asserted invariants:
//!
//! * no deadlock — every client thread and the server itself finish;
//! * bounded queue — `max_queue_depth` never exceeds the configured
//!   capacity (backpressure worked);
//! * bounded memory — hostile peers (slowloris + idle horde) do not grow
//!   the process footprint meaningfully (the soaks run one at a time, so
//!   the process-wide RSS counts only the running soak's server);
//! * responsiveness — queries keep answering within a latency bound while
//!   the hostile peers are connected;
//! * clean drain — every action the server `ACK`ed is processed before
//!   the final report, and the final answer matches a live `QUERY`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtim_core::{FrameworkKind, SimConfig};
use rtim_server::{protocol, Frame, IngestReply, RtimClient, RtimServer, ServerConfig};
use rtim_stream::Action;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held for the whole body of each soak, so they never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_alone() -> MutexGuard<'static, ()> {
    // A failed soak poisons the lock; the next one still runs alone.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn soak_duration() -> Duration {
    let secs = std::env::var("RTIM_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30u64);
    Duration::from_secs(secs.max(1))
}

/// Resident set size in bytes, for the bounded-memory assertions.
fn resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// One ingest client: streams forever until told to stop, counting the
/// actions the server acknowledged.
fn ingest_client(addr: std::net::SocketAddr, seed: u64, stop: Arc<AtomicBool>) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = RtimClient::connect(addr).unwrap();
    let mut next_id = 1u64;
    let mut acked = 0u64;
    while !stop.load(Ordering::Acquire) {
        let len = rng.gen_range(50usize..400);
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let user = rng.gen_range(0u32..5_000);
            let action = if next_id > 1 && rng.gen_bool(0.5) {
                let span = (next_id - 1).min(300);
                Action::reply(next_id, user, next_id - rng.gen_range(1..span + 1))
            } else {
                Action::root(next_id, user)
            };
            next_id += 1;
            batch.push(action);
        }
        match client.ingest(&batch).unwrap() {
            IngestReply::Ack { accepted, .. } => acked += accepted,
            // A full queue parks the batch server-side; the ACK just
            // arrives late.
            IngestReply::Busy { .. } => panic!("the server parks, never BUSY"),
        }
    }
    acked
}

#[test]
#[ignore = "~30s soak; run explicitly or via the CI nightly-style step"]
fn soak_sustained_ingest_with_queries_and_a_dropping_client() {
    let _alone = run_alone();
    let capacity = 32usize;
    let config = SimConfig::new(10, 0.4, 2_000, 100).with_threads(2);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_queue_capacity(capacity)
            .with_remap_horizon(500_000),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + soak_duration();

    // Three sustained ingest clients.
    let ingesters: Vec<_> = (0..3)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || ingest_client(addr, 0xBEEF + c as u64, stop))
        })
        .collect();

    // One observer issuing QUERY/STATS every ~100 ms, watching the queue
    // bound live.
    let observer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = RtimClient::connect(addr).unwrap();
            let mut max_depth_seen = 0u64;
            let mut queries = 0u64;
            while !stop.load(Ordering::Acquire) {
                let solution = client.query().unwrap();
                assert!(solution.value.is_finite());
                let stats = client.stats().unwrap();
                max_depth_seen = max_depth_seen.max(stats.max_queue_depth);
                queries += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            (max_depth_seen, queries)
        })
    };

    // One rude client per ~3 s: writes half an INGEST frame and vanishes
    // mid-batch; the server must shrug it off.
    let rude = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xDEAD);
            let mut drops = 0u32;
            while !stop.load(Ordering::Acquire) {
                let mut socket = std::net::TcpStream::connect(addr).unwrap();
                let batch: Vec<Action> = (1..=100u64)
                    .map(|t| Action::root(t, rng.gen_range(0u32..100)))
                    .collect();
                let frame = protocol::encode_frame(&Frame::Ingest {
                    actions: batch,
                    corr: None,
                });
                let cut = rng.gen_range(6usize..frame.len() - 1);
                socket.write_all(&frame[..cut]).unwrap();
                drop(socket); // gone mid-frame
                drops += 1;
                std::thread::sleep(Duration::from_secs(3));
            }
            drops
        })
    };

    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(200));
    }
    stop.store(true, Ordering::Release);

    let mut total_acked = 0u64;
    for worker in ingesters {
        total_acked += worker.join().expect("ingest client panicked");
    }
    let (observed_max_depth, queries) = observer.join().expect("observer panicked");
    let frame_drops = rude.join().expect("rude client panicked");

    // Final answer, then graceful drain.
    let mut probe = RtimClient::connect(addr).unwrap();
    let live = probe.query().unwrap();
    probe.shutdown().unwrap();
    let report = server.wait();

    println!(
        "soak: {} actions acked, {} queries, {} mid-frame drops, \
         max queue depth {} (capacity {})",
        total_acked, queries, frame_drops, report.stats.max_queue_depth, capacity
    );

    assert!(total_acked > 0, "no ingest progress at all");
    assert!(queries > 0, "observer never got a query through");
    assert!(frame_drops > 0, "the rude client never ran");
    // Bounded queue: depth observed at dequeue can never exceed capacity.
    assert!(
        report.stats.max_queue_depth <= capacity as u64,
        "queue depth {} exceeded capacity {capacity}",
        report.stats.max_queue_depth
    );
    assert!(observed_max_depth <= capacity as u64);
    assert!(!report.recent_slides.is_empty());
    assert!(report
        .recent_slides
        .iter()
        .all(|slide| slide.queue_depth.is_some_and(|d| d <= capacity)));
    // Clean drain: everything ACKed was processed (half-written frames
    // never reached the queue, so the counts match exactly).
    assert_eq!(
        report.stats.actions, total_acked,
        "drain lost acked actions"
    );
    assert_eq!(report.final_solution, live);
    assert!(report.stats.checkpoints > 0);
}

/// Hostile-peer soak against the event-loop server: 512 silent idle
/// connections, slowloris writers trickling one byte per second inside an
/// INGEST frame, and a reconnect storm — all while a pipelined ingester
/// and a latency-checked observer keep working.  Asserts responsiveness,
/// bounded memory, and a clean `acked == processed` drain.
#[test]
#[ignore = "~30s soak; run explicitly or via the CI nightly-style step"]
fn soak_slowloris_reconnect_storm_and_idle_horde() {
    let _alone = run_alone();
    const IDLE_HORDE: usize = 512;
    const SLOWLORIS: usize = 4;
    let capacity = 32usize;
    let config = SimConfig::new(10, 0.4, 2_000, 100).with_threads(2);
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_queue_capacity(capacity)
            .with_remap_horizon(500_000)
            .with_event_loop_threads(2),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let rss_before = resident_bytes();

    // The idle horde: connected sockets that never speak and never read.
    let horde: Vec<std::net::TcpStream> = (0..IDLE_HORDE)
        .map(|i| {
            std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle connection {i} refused: {e}"))
        })
        .collect();

    // Slowloris clients: a valid INGEST frame fed at one byte per second —
    // never completing a frame, never triggering a parse error.
    let slow: Vec<_> = (0..SLOWLORIS)
        .map(|s| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut socket = std::net::TcpStream::connect(addr).unwrap();
                let batch: Vec<Action> = (1..=200u64).map(|t| Action::root(t, t as u32)).collect();
                let frame = protocol::encode_frame(&Frame::Ingest {
                    actions: batch,
                    corr: None,
                });
                let mut sent = 0usize;
                while !stop.load(Ordering::Acquire) && sent < frame.len() {
                    socket.write_all(&frame[sent..sent + 1]).unwrap();
                    sent += 1;
                    std::thread::sleep(Duration::from_secs(1));
                }
                let _ = s;
                sent
            })
        })
        .collect();

    // Reconnect storm: full HELLO handshakes plus a one-action ingest,
    // connect/drop as fast as the loopback allows.
    let storm = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reconnects = 0u64;
            let mut storm_acked = 0u64;
            while !stop.load(Ordering::Acquire) {
                let mut client = RtimClient::connect(addr).unwrap();
                if reconnects.is_multiple_of(4) {
                    if let IngestReply::Ack { accepted, .. } =
                        client.ingest(&[Action::root(1u64, 7u32)]).unwrap()
                    {
                        storm_acked += accepted;
                    }
                }
                reconnects += 1; // dropped here: storm of open/close
            }
            (reconnects, storm_acked)
        })
    };

    // One pipelined ingester doing real work through the noise.
    let ingester = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = RtimClient::connect(addr).unwrap();
            let mut pipe = client.pipelined(16);
            let mut next_id = 1u64;
            let mut rng = StdRng::seed_from_u64(0x50AC);
            while !stop.load(Ordering::Acquire) {
                let batch: Vec<Action> = (0..100)
                    .map(|_| {
                        let a = Action::root(next_id, rng.gen_range(0u32..5_000));
                        next_id += 1;
                        a
                    })
                    .collect();
                pipe.ingest(&batch).unwrap();
            }
            pipe.drain().unwrap()
        })
    };

    // Observer: queries must stay answerable within a liberal latency
    // bound while the hostile peers are parked on the poll set.
    let observer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = RtimClient::connect(addr).unwrap();
            let mut worst = Duration::ZERO;
            let mut queries = 0u64;
            while !stop.load(Ordering::Acquire) {
                let started = Instant::now();
                let solution = client.query().unwrap();
                worst = worst.max(started.elapsed());
                assert!(solution.value.is_finite());
                queries += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            (worst, queries)
        })
    };

    std::thread::sleep(soak_duration());
    stop.store(true, Ordering::Release);

    let acked = ingester.join().expect("pipelined ingester panicked");
    let (worst_latency, queries) = observer.join().expect("observer panicked");
    let (reconnects, storm_acked) = storm.join().expect("reconnect storm panicked");
    let slow_bytes: usize = slow
        .into_iter()
        .map(|s| s.join().expect("slowloris panicked"))
        .sum();
    let rss_after = resident_bytes();
    drop(horde); // the horde stays connected through the whole soak

    // Final answer, then graceful drain.
    let mut probe = RtimClient::connect(addr).unwrap();
    let live = probe.query().unwrap();
    probe.shutdown().unwrap();
    let report = server.wait();

    println!(
        "hostile soak: {acked} actions acked (+{storm_acked} storm), {queries} queries \
         (worst {worst_latency:?}), {reconnects} reconnects, {slow_bytes} slowloris bytes, \
         rss {rss_before:?} -> {rss_after:?}"
    );

    assert!(acked > 0, "pipelined ingester made no progress");
    assert!(queries > 0, "observer never got a query through");
    assert!(reconnects > 10, "reconnect storm never stormed");
    assert!(slow_bytes > 0, "slowloris clients never trickled");
    // Responsiveness: a query through the same bounded queue as ingest
    // may wait on in-flight batches, but a poll-set full of idle/slow
    // peers must not add seconds of scheduling delay.
    assert!(
        worst_latency < Duration::from_secs(5),
        "worst query latency {worst_latency:?} under hostile load"
    );
    // Bounded memory: 512 idle + 4 slowloris peers hold buffers measured
    // in KiB, not MiB.  Allow generous slack for engine growth (the real
    // stream keeps accumulating users) — the horde at ~64 KiB apiece
    // would already blow 32 MiB if per-connection buffers leaked.
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        let grown = after.saturating_sub(before);
        assert!(
            grown < 512 * 1024 * 1024,
            "resident set grew by {grown} bytes under hostile load"
        );
    }
    assert!(
        report.stats.max_queue_depth <= capacity as u64,
        "queue depth {} exceeded capacity {capacity}",
        report.stats.max_queue_depth
    );
    // Clean drain on the event loop: every acknowledged action (pipelined
    // ingester + storm one-shots) was processed before the report.
    assert_eq!(
        report.stats.actions,
        acked + storm_acked,
        "drain lost acked actions"
    );
    assert_eq!(report.final_solution, live);
}
