//! The TCP server: the event-loop front-end in front of the
//! bounded-queue engine pipeline.
//!
//! A small pool of loop threads ([`crate::event_loop`]) drives every
//! connection through non-blocking sockets, so connection count never
//! dictates thread count and clients may pipeline correlated requests.
//! Every connection holds its own [`rtim_core::IngestSender`] (one
//! private id space, remapped onto global arrival order), all requests
//! travel the same bounded queue, and a client always observes its own
//! preceding ingests.  Shutdown — from a `SHUTDOWN` frame or the owner —
//! stops accepting, lets the loops deliver what they owe, then drains
//! the engine queue; actions `ACK`ed before the drain began are
//! guaranteed to be processed.

use crate::event_loop::EventLoopRuntime;
use crate::metrics_http::MetricsSidecar;
use rtim_core::{
    EngineHandle, FrameworkKind, HandleOptions, PersistOptions, SimConfig, TraceConfig,
};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};

/// Server configuration: the SIM query plus pipeline knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The continuous SIM query (k, β, N, L, oracle, pool threads).
    pub sim: SimConfig,
    /// Which checkpoint framework the engine runs.
    pub kind: FrameworkKind,
    /// Bounded ingest-queue capacity in commands (batches/queries).
    pub queue_capacity: usize,
    /// Record the rebased arrival-order stream (for determinism tests and
    /// trace capture; costs memory proportional to the stream).
    pub journal: bool,
    /// Per-connection id-remap horizon (see
    /// [`rtim_core::HandleOptions::remap_horizon`]); `None` retains every
    /// mapping for the lifetime of the engine.
    pub remap_horizon: Option<u64>,
    /// Durable persistence: disk journal, snapshots (background and via
    /// the `SNAPSHOT` frame) and crash recovery at startup.  `None` = the
    /// engine state lives and dies with the process.
    pub persist: Option<PersistOptions>,
    /// Event-loop threads (at least 1).  Thread 0 also owns the listener;
    /// connections are assigned round-robin.
    pub event_loop_threads: usize,
    /// Listen address for the Prometheus `/metrics` HTTP sidecar
    /// (e.g. `"127.0.0.1:0"` for an ephemeral port).  `None` = no sidecar.
    pub metrics: Option<String>,
    /// Request tracing (flight recorder + slow-op capture).  Disabled by
    /// default; see [`rtim_core::TraceConfig`] and `docs/TRACING.md`.
    pub trace: TraceConfig,
}

impl ServerConfig {
    /// A configuration with the default pipeline knobs (capacity 64, no
    /// journal, unbounded remap tables, no persistence, two event-loop
    /// threads).
    pub fn new(sim: SimConfig, kind: FrameworkKind) -> Self {
        ServerConfig {
            sim,
            kind,
            queue_capacity: 64,
            journal: false,
            remap_horizon: None,
            persist: None,
            event_loop_threads: 2,
            metrics: None,
            trace: TraceConfig::default(),
        }
    }

    /// Sets the bounded queue capacity (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Enables the arrival-order journal.
    pub fn with_journal(mut self, journal: bool) -> Self {
        self.journal = journal;
        self
    }

    /// Bounds the per-connection id-remap tables.
    pub fn with_remap_horizon(mut self, horizon: u64) -> Self {
        self.remap_horizon = Some(horizon.max(1));
        self
    }

    /// Enables durable persistence (snapshot + journal in `persist.dir`,
    /// startup recovery, and the `SNAPSHOT` admin frame).
    pub fn with_persistence(mut self, persist: PersistOptions) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Sets the number of event-loop threads (clamped to at least 1).
    pub fn with_event_loop_threads(mut self, threads: usize) -> Self {
        self.event_loop_threads = threads.max(1);
        self
    }

    /// Enables request tracing: spans at every pipeline stage into the
    /// in-memory flight recorder, slow-op capture, and the `TRACE` /
    /// `GET /trace` / `rtim-cli trace` read paths.
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enables the Prometheus `/metrics` HTTP sidecar on `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port, reported by
    /// [`RtimServer::metrics_addr`]).
    pub fn with_metrics(mut self, addr: impl Into<String>) -> Self {
        self.metrics = Some(addr.into());
        self
    }
}

/// Final state returned when the server stops: the drained engine
/// pipeline's report (counters, final solution, optional journal, recent
/// slide reports with their observed queue depths).
pub type ServerReport = rtim_core::EngineReport;

/// A running RTIM server.
///
/// Dropping the server without calling [`RtimServer::shutdown`] or
/// [`RtimServer::wait`] aborts the accept loop and drains the engine.
pub struct RtimServer {
    addr: SocketAddr,
    handle: Option<EngineHandle>,
    runtime: Option<EventLoopRuntime>,
    sidecar: Option<MetricsSidecar>,
}

impl RtimServer {
    /// Binds the listener and spawns the engine and event-loop threads.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<RtimServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut options = HandleOptions::default()
            .with_capacity(config.queue_capacity)
            .with_journal(config.journal)
            .with_tracing(config.trace);
        if let Some(h) = config.remap_horizon {
            options = options.with_remap_horizon(h);
        }
        if let Some(p) = config.persist.clone() {
            options = options.with_persistence(p);
        }
        let handle = EngineHandle::spawn(config.sim, config.kind, options);
        let metrics = handle.metrics();
        let recorder = handle.trace_recorder();
        // The sidecar only *reads* the shared registry and the flight
        // recorder — it holds no sender and enqueues nothing, so scraping
        // (or tracing) cannot perturb the served arrival order.
        let sidecar = match &config.metrics {
            Some(scrape_addr) => Some(MetricsSidecar::start(
                scrape_addr.as_str(),
                std::sync::Arc::clone(&metrics),
                recorder.clone(),
            )?),
            None => None,
        };
        // One fresh sender (one private id space) per accepted connection,
        // minted on the accepting thread via the spawner.
        let spawner = handle.sender_spawner();
        let runtime = EventLoopRuntime::start(
            listener,
            spawner,
            config.event_loop_threads,
            metrics,
            recorder,
        )?;
        Ok(RtimServer {
            addr,
            handle: Some(handle),
            runtime: Some(runtime),
            sidecar,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/metrics` scrape address, if the sidecar was enabled via
    /// [`ServerConfig::with_metrics`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.sidecar.as_ref().map(|s| s.addr())
    }

    /// The live metrics registry behind `/metrics` (available whether or
    /// not the HTTP sidecar is enabled).  Reading it never enqueues an
    /// engine command.
    pub fn metrics(&self) -> Option<std::sync::Arc<rtim_core::EngineMetrics>> {
        self.handle.as_ref().map(|h| h.metrics())
    }

    /// The flight recorder behind `TRACE` / `GET /trace`, when tracing is
    /// enabled.  Reading it never enqueues an engine command.
    pub fn trace_recorder(&self) -> Option<std::sync::Arc<rtim_core::FlightRecorder>> {
        self.handle.as_ref().and_then(|h| h.trace_recorder())
    }

    /// Current ingest-queue depth (approximate).
    pub fn queue_depth(&self) -> usize {
        self.handle
            .as_ref()
            .map_or(0, |handle| handle.queue_depth())
    }

    /// Blocks until a client sends `SHUTDOWN`, then drains and reports.
    pub fn wait(mut self) -> ServerReport {
        self.stop(false)
    }

    /// Stops the server from the owning side: stop accepting, close out
    /// connections, drain the queue, join the engine.
    pub fn shutdown(mut self) -> ServerReport {
        self.stop(true)
    }

    fn stop(&mut self, initiate: bool) -> ServerReport {
        // The loop threads exit first (the engine must stay up while they
        // deliver in-flight completions), then the queue drains.
        // With `initiate = false` the runtime stop *blocks* until a client
        // sends SHUTDOWN, so the sidecar must outlive it — `/metrics`
        // stays scrapeable for the server's whole life, including the
        // drain.  It only reads, so nothing is owed on teardown.
        if let Some(runtime) = self.runtime.take() {
            runtime.stop(initiate);
        }
        if let Some(sidecar) = self.sidecar.take() {
            sidecar.stop();
        }
        let handle = self.handle.take().expect("server already stopped");
        handle.shutdown()
    }
}

impl Drop for RtimServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.stop(true);
        }
    }
}

impl std::fmt::Debug for RtimServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtimServer")
            .field("addr", &self.addr)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{IngestReply, RtimClient};
    use crate::protocol::Frame;
    use rtim_stream::Action;

    fn toy_server() -> RtimServer {
        let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Ic)
            .with_journal(true)
            .with_queue_capacity(8);
        RtimServer::bind("127.0.0.1:0", config).unwrap()
    }

    fn figure1_actions() -> Vec<Action> {
        vec![
            Action::root(1u64, 1u32),
            Action::reply(2u64, 2u32, 1u64),
            Action::root(3u64, 3u32),
            Action::reply(4u64, 3u32, 1u64),
            Action::reply(5u64, 4u32, 3u64),
            Action::reply(6u64, 1u32, 3u64),
            Action::reply(7u64, 5u32, 3u64),
            Action::reply(8u64, 4u32, 7u64),
            Action::root(9u64, 2u32),
            Action::reply(10u64, 6u32, 9u64),
        ]
    }

    #[test]
    fn ingest_query_stats_shutdown_over_loopback() {
        let server = toy_server();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        let actions = figure1_actions();
        for batch in actions.chunks(4) {
            // A full queue parks the batch server-side; the client only
            // sees a late ACK, and every batch lands exactly once.
            client.ingest_blocking(batch).unwrap();
        }
        let solution = client.query().unwrap();
        assert_eq!(solution.value, 6.0);
        let stats = client.stats().unwrap();
        assert_eq!(stats.actions, 10);
        assert_eq!(stats.batches, 3);
        client.shutdown().unwrap();
        let report = server.wait();
        assert_eq!(report.stats.actions, 10);
        assert_eq!(report.final_solution.value, 6.0);
        assert_eq!(report.journal.unwrap().actions(), actions.as_slice());
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_the_connection_survives() {
        use std::io::Write as _;
        let server = toy_server();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        // Inject a bodyless QUERY with trailing garbage at the raw socket.
        let raw = client.raw_stream();
        let mut bad = vec![0x02];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(b"xx");
        raw.write_all(&bad).unwrap();
        let err = client.read_error().unwrap();
        assert!(err.contains("trailing bytes"), "{err}");
        // The connection still works afterwards.
        client.ingest(&[Action::root(1u64, 1u32)]).unwrap();
        assert_eq!(client.stats().unwrap().actions, 1);
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 1);
    }

    #[test]
    fn client_dropping_mid_batch_leaves_the_server_healthy() {
        use std::io::Write as _;
        let server = toy_server();
        // A client that writes half an INGEST frame and vanishes.
        {
            let mut half = std::net::TcpStream::connect(server.local_addr()).unwrap();
            let frame = crate::protocol::encode_frame(&Frame::Ingest {
                actions: figure1_actions(),
                corr: None,
            });
            half.write_all(&frame[..frame.len() / 2]).unwrap();
            // dropped here, mid-frame
        }
        // A well-behaved client is unaffected.
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        client.ingest(&figure1_actions()).unwrap();
        assert_eq!(client.query().unwrap().value, 6.0);
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 10);
    }

    /// An idle connected client (no frames, no close) must not stall the
    /// drain: the event loop simply closes the drained connection.
    #[test]
    fn shutdown_is_not_stalled_by_an_idle_client() {
        let server = toy_server();
        let mut active = RtimClient::connect(server.local_addr()).unwrap();
        let _idle = RtimClient::connect(server.local_addr()).unwrap(); // never speaks
        active.ingest(&figure1_actions()).unwrap();
        drop(active);
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 10);
    }

    /// An oversized length prefix cannot be resynchronized: the server
    /// reports it and closes instead of misparsing the unread payload.
    #[test]
    fn oversized_frame_reports_then_closes() {
        use std::io::Write as _;
        let server = toy_server();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        let raw = client.raw_stream();
        let mut bad = vec![0x01]; // INGEST claiming a 4 GiB payload
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&[0x04, 0, 0, 0, 0]); // would parse as SHUTDOWN if desynced
        raw.write_all(&bad).unwrap();
        let err = client.read_error().unwrap();
        assert!(err.contains("exceeds the maximum"), "{err}");
        // The connection is closed; the server itself is still up.
        assert!(client.query().is_err());
        let mut fresh = RtimClient::connect(server.local_addr()).unwrap();
        fresh.ingest(&[Action::root(1u64, 1u32)]).unwrap();
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 1);
    }

    #[test]
    fn owner_side_shutdown_stops_accepting() {
        let server = toy_server();
        let addr = server.local_addr();
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 0);
        // After shutdown the port is released (or at least refuses the
        // protocol): a fresh connect must not receive a HELLO.
        assert!(RtimClient::connect(addr).is_err());
    }

    /// The event loop never answers `BUSY`: a full queue parks the ingest
    /// and TCP flow control stalls the sender, so a tiny queue capacity
    /// with a barrage of one-action batches still lands every batch in
    /// order — the exact scenario that used to trip `BUSY` handling.
    #[test]
    fn event_loop_parks_instead_of_busy_on_a_tiny_queue() {
        let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Ic)
            .with_journal(true)
            .with_queue_capacity(1)
            .with_event_loop_threads(1);
        let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        let actions = figure1_actions();
        for action in &actions {
            match client.ingest(std::slice::from_ref(action)).unwrap() {
                IngestReply::Ack { accepted, .. } => assert_eq!(accepted, 1),
                IngestReply::Busy { .. } => panic!("event loop must park, not BUSY"),
            }
        }
        let report = server.shutdown();
        assert_eq!(report.stats.actions, actions.len() as u64);
        assert_eq!(report.journal.unwrap().actions(), actions.as_slice());
    }

    /// The `/metrics` sidecar scrapes live engine state over plain HTTP:
    /// latency summaries appear once traffic flows, and the port is torn
    /// down with the server.
    #[test]
    fn metrics_sidecar_serves_live_engine_state() {
        use std::io::{Read as _, Write as _};
        let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Ic)
            .with_queue_capacity(8)
            .with_metrics("127.0.0.1:0");
        let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
        let scrape_addr = server.metrics_addr().expect("sidecar enabled");

        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        client.ingest_blocking(&figure1_actions()).unwrap();
        client.query().unwrap();

        let mut scrape = std::net::TcpStream::connect(scrape_addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        scrape.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        for needle in [
            "rtim_feed_nanos{quantile=\"0.5\"}",
            "rtim_feed_nanos{quantile=\"0.99\"}",
            "rtim_query_nanos{quantile=\"0.95\"}",
            "rtim_queue_depth",
            "rtim_durability_state 0",
            "rtim_actions_total 10",
            "rtim_connections_opened_total",
        ] {
            assert!(response.contains(needle), "missing {needle}\n{response}");
        }
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 10);
        // The scrape port was released with the server.
        assert!(std::net::TcpListener::bind(scrape_addr).is_ok());
    }

    /// The tracing acceptance path over the wire: with sampling at 1 and
    /// a zero slow threshold, a served workload at shard-pool width
    /// `threads` produces ring events for every pipeline stage, and every
    /// slow op round-trips through `TRACE` with its stage durations
    /// summing to within the end-to-end span.
    fn check_trace_dump_stage_breakdown(threads: usize) {
        use rtim_core::TraceConfig;
        use rtim_stream::trace::TraceStage;
        let sim = SimConfig::new(2, 0.3, 8, 2).with_threads(threads);
        let config = ServerConfig::new(sim, FrameworkKind::Ic)
            .with_queue_capacity(8)
            .with_event_loop_threads(1)
            .with_tracing(TraceConfig::sampled(1, 0));
        let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        for batch in figure1_actions().chunks(2) {
            client.ingest_blocking(batch).unwrap();
        }
        client.query().unwrap();
        client.stats().unwrap();

        let dump = client.trace(4096, false).unwrap();
        assert!(!dump.events.is_empty());
        assert!(!dump.slow_ops.is_empty());
        for stage in [
            TraceStage::Parse,
            TraceStage::QueueWait,
            TraceStage::Resolve,
            TraceStage::ShardFeed,
            TraceStage::OracleQuery,
            TraceStage::ReplyDrain,
        ] {
            assert!(
                dump.stage_totals[stage.code() as usize].0 > 0,
                "no {} events in {:?}",
                stage.name(),
                dump.stage_totals
            );
        }
        // Threshold 0 promotes every request; each record's stage
        // durations must fit inside its end-to-end span, and the ingest /
        // query / stats kinds must all be represented.
        for op in &dump.slow_ops {
            let stage_sum: u64 = op.stages.iter().sum();
            assert!(
                stage_sum <= op.total_nanos,
                "stage sum {stage_sum} exceeds total {} in {op:?}",
                op.total_nanos
            );
        }
        for kind in [0x01u8, 0x02, 0x03] {
            assert!(
                dump.slow_ops.iter().any(|op| op.kind == kind),
                "no slow op of kind {kind:#x}"
            );
        }

        // slow_only drains just the retained log.
        let slow = client.trace(0, true).unwrap();
        assert!(slow.events.is_empty());
        assert!(!slow.slow_ops.is_empty());
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.stats.actions, 10);
    }

    /// Pool width 1: the engine feeds its checkpoints inline.
    #[test]
    fn trace_dump_round_trips_with_full_stage_breakdown() {
        check_trace_dump_stage_breakdown(1);
    }

    /// Pool width 2: checkpoints are fed through the shard pool, and the
    /// shard-feed stage must still be attributed.
    #[test]
    fn trace_dump_round_trips_with_full_stage_breakdown_at_pool_width_2() {
        check_trace_dump_stage_breakdown(2);
    }

    /// With tracing off (the default), TRACE still answers — with an
    /// empty dump — rather than erroring.
    #[test]
    fn trace_without_tracing_returns_an_empty_dump() {
        let server = toy_server();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        let dump = client.trace(1024, false).unwrap();
        assert!(dump.events.is_empty());
        assert!(dump.slow_ops.is_empty());
        drop(client);
        server.shutdown();
    }

    /// Pipelined ingest over the event loop: correlation ids come back in
    /// order on a single in-flight window, and the stream lands intact.
    #[test]
    fn pipelined_ingest_round_trips_with_correlation_ids() {
        let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Ic)
            .with_journal(true)
            .with_queue_capacity(4)
            .with_event_loop_threads(1);
        let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        let actions = figure1_actions();
        {
            let mut pipe = client.pipelined(16);
            for batch in actions.chunks(2) {
                pipe.ingest(batch).unwrap();
            }
            assert_eq!(pipe.drain().unwrap(), actions.len() as u64);
        }
        assert_eq!(client.query().unwrap().value, 6.0);
        let report = server.shutdown();
        assert_eq!(report.journal.unwrap().actions(), actions.as_slice());
    }
}
