//! Emits the machine-readable serving-performance artifact
//! `BENCH_serve.json` (schema `rtim-bench-serve/v4`).
//!
//! Starts an in-process `rtim-server` on an ephemeral loopback port and
//! measures two things:
//!
//! 1. **Baseline grid** (carried over from v1): framework × pool threads
//!    with `--clients` concurrent full-trace clients in lockstep
//!    (window 1), one doubling as a `QUERY` observer.
//! 2. **Connection-scaling series** (new in v2): one shared trace split
//!    across `--connections` sockets (default 1, 8, 64, 256, 1024), each
//!    streamed with `--in-flight` pipelined `INGEST` frames (default 1
//!    and 16) through the readiness-driven event-loop front-end.  A small
//!    pool of driver threads multiplexes the sockets so the client side
//!    stays out of the way on small machines.
//!
//! Every scaling run enables the `/metrics` sidecar and polls it from a
//! concurrent scraper thread for the whole serving phase (new in v3):
//! each response must be well-formed Prometheus text carrying the feed /
//! query / queue-depth summaries, and the completed scrape count lands in
//! the artifact — scrape-under-load is part of the measured scenario, not
//! a separate smoke.  Every scaling run also enables request tracing at
//! 1-in-64 sampling with a 50 ms slow-op threshold (new in v4) and takes
//! one wire `TRACE` dump after the serving phase; the per-stage span
//! totals land in the artifact as `stage_*_nanos` alongside
//! `trace_events` / `slow_ops`.
//!
//! ```text
//! cargo run --release -p rtim-bench --bin bench_serve -- \
//!     --dataset syn-n --actions 204800 --users 2000 --window 2000 --slide 100 \
//!     --clients 4 --threads 2 --batch 500 --capacity 32 \
//!     --connections 1,8,64,256,1024 --in-flight 1,16 --out BENCH_serve.json
//! ```

use rtim_bench::cli::Args;
use rtim_bench::{CommonArgs, ServeBenchReport, ServeSetup, COMMON_KEYS};
use rtim_core::FrameworkKind;
use rtim_datagen::DatasetConfig;
use rtim_server::protocol::encode_frame;
use rtim_server::{Frame, RtimClient, RtimServer, ServerConfig};
use rtim_stream::Action;
use std::collections::VecDeque;
use std::io::Write as _;
use std::time::Instant;

/// Driver threads multiplexing the scaling-series sockets.
const DRIVERS: usize = 4;

fn parse_list(args: &Args, key: &str, default: &[usize]) -> Vec<usize> {
    match args.get(key) {
        None => default.to_vec(),
        Some(raw) => {
            let list: Vec<usize> = raw
                .split(',')
                .filter(|s| !s.is_empty())
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&v| v > 0)
                .collect();
            if list.is_empty() {
                default.to_vec()
            } else {
                list
            }
        }
    }
}

fn main() {
    let keys: Vec<&str> = COMMON_KEYS
        .iter()
        .copied()
        .chain([
            "threads",
            "clients",
            "batch",
            "capacity",
            "connections",
            "in-flight",
            "out",
        ])
        .collect();
    let args = match Args::parse(&keys) {
        Ok(a) => a,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let common = CommonArgs::resolve(&args);
    let threads: usize = args.get_or("threads", 1usize).max(1);
    let clients: usize = args.get_or("clients", 4usize).max(1);
    let batch: usize = args.get_or("batch", 0usize);
    let capacity: usize = args.get_or("capacity", 32usize).max(1);
    let connection_counts = parse_list(&args, "connections", &[1, 8, 64, 256, 1024]);
    let windows = parse_list(&args, "in-flight", &[1, 16]);
    let out = args.get("out").unwrap_or("BENCH_serve.json").to_string();

    let params = &common.params;
    // Default batch: 5 slides per frame, aligned with L so the server's
    // slide cuts match an offline replay.
    let batch = if batch == 0 { 5 * params.slide } else { batch };
    let dataset = common.datasets[0];

    let mut report = ServeBenchReport::new();
    let mut thread_counts = vec![1usize];
    if threads > 1 {
        thread_counts.push(threads);
    }

    // ---- baseline grid: framework × pool threads, lockstep clients ----
    for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
        for &t in &thread_counts {
            let config = params.sim_config().with_threads(t);
            let server = RtimServer::bind(
                "127.0.0.1:0",
                ServerConfig::new(config, kind).with_queue_capacity(capacity),
            )
            .expect("bind loopback server");
            let addr = server.local_addr();

            // Generate every client's trace BEFORE starting the clock —
            // the artifact measures the serving pipeline, not datagen.
            // Each client streams its own trace (its own id space); seeds
            // differ so the traces differ.
            let traces: Vec<_> = (0..clients)
                .map(|c| {
                    let mut cfg = DatasetConfig::new(dataset, params.scale);
                    if let Some(a) = common.actions {
                        cfg = cfg.with_actions(a);
                    }
                    if let Some(u) = common.users {
                        cfg = cfg.with_users(u);
                    }
                    cfg.with_seed(params.seed + 31 * c as u64).generate()
                })
                .collect();

            let started = Instant::now();
            let workers: Vec<_> = traces
                .into_iter()
                .enumerate()
                .map(|(c, trace)| {
                    std::thread::spawn(move || {
                        let mut client = RtimClient::connect(addr).expect("connect");
                        let mut busy = 0u64;
                        let mut queries = 0u64;
                        for (i, chunk) in trace.actions().chunks(batch).enumerate() {
                            busy += client.ingest_blocking(chunk).expect("ingest");
                            // The first client doubles as the observer.
                            if c == 0 && i % 8 == 7 {
                                let _ = client.query().expect("query");
                                queries += 1;
                            }
                        }
                        (busy, queries)
                    })
                })
                .collect();
            let mut busy_retries = 0u64;
            let mut queries = 0u64;
            for worker in workers {
                let (busy, q) = worker.join().expect("client thread panicked");
                busy_retries += busy;
                queries += q;
            }
            let server_report = server.shutdown();
            let wall_nanos = started.elapsed().as_nanos() as u64;

            let setup = ServeSetup {
                name: format!("{}_el_c{}_t{}", kind.name().to_ascii_lowercase(), clients, t),
                framework: kind.name().to_string(),
                front_end: "event-loop".to_string(),
                threads: t,
                connections: clients,
                in_flight: 1,
                batch,
                capacity,
            };
            let run = setup.finish(&server_report.stats, wall_nanos, busy_retries, queries);
            print_run(&run);
            report.runs.push(run);
        }
    }

    // ---- connection-scaling series: shared trace over N sockets ----
    // Smaller frames than the baseline grid: the pipelining win is the
    // round trips it hides, so the axis uses one-slide batches.
    let scale_batch = params.slide.max(1);
    let mut cfg = DatasetConfig::new(dataset, params.scale);
    if let Some(a) = common.actions {
        cfg = cfg.with_actions(a);
    }
    if let Some(u) = common.users {
        cfg = cfg.with_users(u);
    }
    let trace = cfg.with_seed(params.seed).generate();
    let actions = trace.actions();

    for &connections in &connection_counts {
        for &window in &windows {
            let run = scaling_run(
                params.sim_config().with_threads(threads),
                threads,
                capacity,
                actions,
                connections,
                window,
                scale_batch,
            );
            print_run(&run);
            report.runs.push(run);
        }
    }

    if let Err(e) = report.write(&out) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}

/// One scaling-series measurement: the trace split across `connections`
/// sockets, each keeping `window` `INGEST` frames in flight, multiplexed
/// by a small pool of driver threads.
fn scaling_run(
    config: rtim_core::SimConfig,
    threads: usize,
    capacity: usize,
    actions: &[Action],
    connections: usize,
    window: usize,
    batch: usize,
) -> rtim_bench::ServeRun {
    let server = RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_queue_capacity(capacity)
            .with_metrics("127.0.0.1:0")
            .with_tracing(rtim_core::TraceConfig::sampled(64, 50)),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();
    let scrape_addr = server.metrics_addr().expect("metrics sidecar enabled");

    // Contiguous slices: ids stay strictly increasing inside every
    // connection's private sender space; cross-slice replies resolve
    // through the server's orphan remapping like any cross-client reply.
    let per_conn = actions.len().div_ceil(connections);
    let slices: Vec<&[Action]> = actions.chunks(per_conn.max(1)).collect();

    // Connect everything before the clock starts; the artifact measures
    // streaming, not connection setup.
    let mut conns: Vec<PipeConn<'_>> = slices
        .iter()
        .map(|slice| PipeConn {
            client: RtimClient::connect(addr).expect("connect"),
            chunks: slice.chunks(batch),
            in_flight: VecDeque::with_capacity(window),
            next_corr: 1,
            busy: 0,
            done: false,
        })
        .collect();

    let drivers = DRIVERS.min(conns.len()).max(1);
    let started = Instant::now();
    // A scraper polls `/metrics` for the whole serving phase — scraping
    // under load is part of the measured scenario (it must neither fail
    // nor perturb the run).
    let scrape_done = std::sync::atomic::AtomicBool::new(false);
    let (busy_retries, scrapes): (u64, u64) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut scrapes = 0u64;
            while !scrape_done.load(std::sync::atomic::Ordering::Acquire) {
                validate_scrape(&scrape(scrape_addr));
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            scrapes
        });
        let mut handles = Vec::with_capacity(drivers);
        // Deal the sockets round-robin across the driver pool.
        let mut hands: Vec<Vec<PipeConn<'_>>> = (0..drivers).map(|_| Vec::new()).collect();
        for (i, conn) in conns.drain(..).enumerate() {
            hands[i % drivers].push(conn);
        }
        for hand in hands {
            handles.push(scope.spawn(move || drive(hand, window)));
        }
        let busy = handles.into_iter().map(|h| h.join().expect("driver")).sum();
        scrape_done.store(true, std::sync::atomic::Ordering::Release);
        (busy, scraper.join().expect("scraper"))
    });
    // The scaling series clocks the *serving phase*: every frame written
    // and every `ACK` absorbed.  The engine drain that follows is the
    // same work regardless of connections/window, so including it (as
    // the baseline grid does) would flatten the front-end differences
    // this axis exists to show.
    let wall_nanos = started.elapsed().as_nanos() as u64;
    // One wire TRACE dump after the serving phase: per-stage totals and
    // the slow-op count land in the artifact (events are skipped — the
    // stage totals are cumulative, the ring is just the newest window).
    let trace_dump = RtimClient::connect(addr)
        .expect("connect trace")
        .trace(0, false)
        .expect("TRACE dump");
    let server_report = server.shutdown();

    assert_eq!(
        server_report.stats.actions,
        actions.len() as u64,
        "scaling run lost actions"
    );
    ServeSetup {
        name: format!("sic_el_x{connections}_w{window}_t{threads}"),
        framework: FrameworkKind::Sic.name().to_string(),
        front_end: "event-loop".to_string(),
        threads,
        connections,
        in_flight: window,
        batch,
        capacity,
    }
    .finish(&server_report.stats, wall_nanos, busy_retries, 0)
    .with_scrapes(scrapes)
    .with_trace(&trace_dump)
}

/// One blocking `GET /metrics` round trip, returning the raw response.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::Read as _;
    let mut conn = std::net::TcpStream::connect(addr).expect("connect scrape");
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read scrape");
    response
}

/// Asserts one scrape response is well-formed Prometheus text: a 200
/// status, the expected summaries present, and every body line either a
/// comment or `name[{labels}] value` with a parseable value.
fn validate_scrape(response: &str) {
    assert!(
        response.starts_with("HTTP/1.0 200 OK"),
        "scrape failed: {response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .expect("headerless scrape response")
        .1;
    for required in [
        "rtim_feed_nanos{quantile=\"0.5\"}",
        "rtim_feed_nanos{quantile=\"0.95\"}",
        "rtim_feed_nanos{quantile=\"0.99\"}",
        "rtim_query_nanos{quantile=\"0.99\"}",
        "rtim_queue_depth{quantile=\"0.99\"}",
        "rtim_durability_state",
    ] {
        assert!(body.contains(required), "scrape missing {required}:\n{body}");
    }
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample line without value");
        assert!(
            value.parse::<f64>().is_ok() || value == "NaN",
            "unparseable sample value in {line:?}"
        );
    }
}

/// One socket's streaming state inside a driver's hand.
struct PipeConn<'a> {
    client: RtimClient,
    chunks: std::slice::Chunks<'a, Action>,
    /// Correlation ids of unacknowledged `INGEST` frames, oldest first.
    in_flight: VecDeque<u32>,
    next_corr: u32,
    busy: u64,
    /// Chunks exhausted and every `ACK` absorbed.
    done: bool,
}

impl PipeConn<'_> {
    /// Blocks until the oldest in-flight frame is acknowledged.
    fn absorb_one(&mut self) {
        let expected = self.in_flight.pop_front().expect("nothing in flight");
        match self.client.read_reply().expect("read reply") {
            Frame::Ack { corr, .. } => {
                assert_eq!(corr, Some(expected), "acks arrived out of order")
            }
            other => panic!("unexpected reply to pipelined ingest: {other:?}"),
        }
    }
}

/// Round-robin multiplexer: each visit moves one socket forward by one
/// frame (window permitting), so every socket keeps its pipeline full
/// without any socket starving the others.
fn drive(mut hand: Vec<PipeConn<'_>>, window: usize) -> u64 {
    let mut open = hand.len();
    while open > 0 {
        for conn in &mut hand {
            if conn.done {
                continue;
            }
            match conn.chunks.next() {
                Some(chunk) => {
                    if window <= 1 {
                        // Lockstep: one frame, one ack.
                        conn.busy += conn.client.ingest_blocking(chunk).expect("ingest");
                    } else {
                        if conn.in_flight.len() >= window {
                            conn.absorb_one();
                        }
                        let corr = conn.next_corr;
                        conn.next_corr = conn.next_corr.wrapping_add(1);
                        let frame = encode_frame(&Frame::Ingest {
                            actions: chunk.to_vec(),
                            corr: Some(corr),
                        });
                        conn.client
                            .raw_stream()
                            .write_all(&frame)
                            .expect("write ingest");
                        conn.in_flight.push_back(corr);
                    }
                }
                None => {
                    while !conn.in_flight.is_empty() {
                        conn.absorb_one();
                    }
                    conn.done = true;
                    open -= 1;
                }
            }
        }
    }
    hand.iter().map(|c| c.busy).sum()
}

fn print_run(run: &rtim_bench::ServeRun) {
    println!(
        "{:>18}  {:>9} actions  {:>12.0} actions/s  max depth {:>3}  busy {:>6}",
        run.setup.name, run.actions, run.actions_per_sec, run.max_queue_depth, run.busy_retries
    );
}
