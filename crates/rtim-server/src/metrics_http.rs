//! The `/metrics` HTTP sidecar: a hand-rolled HTTP/1.0 responder serving
//! the Prometheus text exposition of the engine's
//! [`rtim_core::EngineMetrics`] registry, plus `GET /trace` — the flight
//! recorder's events and slow ops as JSON lines.
//!
//! Deliberately minimal, matching the crate's `std::net`-only constraint:
//! one blocking acceptor thread, one request per connection
//! (`Connection: close`), `GET /metrics` and `GET /trace` and nothing
//! else.  The sidecar is **passive** — rendering reads the shared
//! registry (or scans the recorder rings) and never sends a command
//! through the engine queue, so scraping at any rate cannot perturb the
//! arrival order that makes served answers bit-identical to an offline
//! replay.  A slow or hostile client can at worst stall its own
//! connection: the request is read under a wall-clock deadline *and* a
//! byte cap (a slowloris drip neither holds the accept thread past the
//! deadline nor grows the buffer past the cap), and responses are
//! best-effort writes.
//!
//! Enable it with [`crate::ServerConfig::with_metrics`]; the bound
//! address is reported by [`crate::RtimServer::metrics_addr`].

use rtim_core::{EngineMetrics, FlightRecorder};
use rtim_stream::trace::{SlowOp, TraceDump, TraceEvent, TraceStage, SLOW_STAGES};
use std::io::{self, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall-clock budget for one connection to deliver its request line and
/// headers; re-armed as the *remaining* time before every read, so a
/// byte-at-a-time drip cannot extend it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on request-line + header bytes; anything longer is dropped
/// without a response (no well-formed client gets near this).
const MAX_REQUEST_BYTES: usize = 4 * 1024;

/// Default and maximum event counts for `GET /trace` (the `max` query
/// parameter is clamped to the latter).
const TRACE_HTTP_DEFAULT_EVENTS: usize = 1024;
const TRACE_HTTP_MAX_EVENTS: usize = 65_536;

/// The running metrics sidecar thread.
pub(crate) struct MetricsSidecar {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsSidecar {
    /// Binds `addr` (port 0 picks an ephemeral port) and spawns the
    /// acceptor thread.
    pub(crate) fn start(
        addr: impl ToSocketAddrs,
        metrics: Arc<EngineMetrics>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> io::Result<MetricsSidecar> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rtim-metrics".into())
            .spawn(move || accept_loop(listener, metrics, recorder, thread_stop))
            .expect("spawn metrics sidecar thread");
        Ok(MetricsSidecar {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound scrape address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor (flag + self-connect wake) and joins it.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsSidecar {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(self.addr);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl std::fmt::Debug for MetricsSidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSidecar")
            .field("addr", &self.addr)
            .finish()
    }
}

/// One scrape connection after another; scrapes are rare (seconds apart)
/// and cheap (one registry read), so serial handling is plenty and keeps
/// the sidecar to a single thread.
fn accept_loop(
    listener: TcpListener,
    metrics: Arc<EngineMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A broken scrape must never take the sidecar down with it.
        let _ = serve_one(stream, &metrics, recorder.as_deref());
    }
}

/// Reads the request line and headers under both the wall-clock deadline
/// and the byte cap.  `None` = the client overstayed or overflowed —
/// drop it without a response.
fn read_request(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            return Ok(None);
        };
        stream.set_read_timeout(Some(remaining))?;
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF: parse whatever arrived
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_REQUEST_BYTES {
                    return Ok(None);
                }
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Parses one HTTP request and answers it: `GET /metrics` → 200 with the
/// Prometheus text; `GET /trace` → 200 with recorder JSON lines; any
/// other path → 404; any other method → 405 (with `Allow: GET`).
fn serve_one(
    stream: TcpStream,
    metrics: &EngineMetrics,
    recorder: Option<&FlightRecorder>,
) -> io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut stream = stream;
    let Some(request) = read_request(&mut stream)? else {
        return Ok(()); // slowloris or oversized: drop without a response
    };
    let request_line = request.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond_with(
            &mut stream,
            "405 Method Not Allowed",
            "Allow: GET\r\n",
            "only GET is supported\n",
        );
    }
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, query),
        None => (path, ""),
    };
    let (content_type, body) = match route {
        "/metrics" => (
            "text/plain; version=0.0.4; charset=utf-8",
            metrics.render_prometheus(),
        ),
        "/trace" => {
            let slow_only = query.split('&').any(|p| p == "slow=1" || p == "slow=true");
            let max_events = query
                .split('&')
                .find_map(|p| p.strip_prefix("max="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(TRACE_HTTP_DEFAULT_EVENTS)
                .min(TRACE_HTTP_MAX_EVENTS);
            let dump = match recorder {
                Some(recorder) => recorder.dump(max_events, slow_only),
                None => TraceDump::default(),
            };
            (
                "application/jsonlines; charset=utf-8",
                render_trace_json(&dump),
            )
        }
        _ => {
            return respond(
                &mut stream,
                "404 Not Found",
                "try GET /metrics or GET /trace\n",
            )
        }
    };
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Renders a recorder dump as JSON lines: one `totals` line, then one
/// line per ring event, then one per retained slow op.  Stage names come
/// from [`TraceStage::name`]; absent conn/corr render as `null`.
pub(crate) fn render_trace_json(dump: &TraceDump) -> String {
    let mut out = String::new();
    out.push_str("{\"type\":\"totals\",\"stages\":{");
    let mut first = true;
    for (code, (count, nanos)) in dump.stage_totals.iter().enumerate() {
        let Some(stage) = TraceStage::from_code(code as u8) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{count},\"nanos\":{nanos}}}",
            stage.name()
        ));
    }
    out.push_str("}}\n");
    for event in &dump.events {
        out.push_str(&render_event_json(event));
        out.push('\n');
    }
    for op in &dump.slow_ops {
        out.push_str(&render_slow_json(op));
        out.push('\n');
    }
    out
}

fn json_conn(conn: u64) -> String {
    if conn == u64::MAX {
        "null".into()
    } else {
        conn.to_string()
    }
}

fn json_corr(corr: u32) -> String {
    if corr == u32::MAX {
        "null".into()
    } else {
        corr.to_string()
    }
}

fn render_event_json(event: &TraceEvent) -> String {
    let stage = TraceStage::from_code(event.stage).map_or_else(
        || format!("stage_{}", event.stage),
        |s| s.name().to_string(),
    );
    format!(
        "{{\"type\":\"event\",\"stage\":\"{stage}\",\"nanos\":{},\"duration_nanos\":{},\
         \"conn\":{},\"corr\":{},\"lane\":{},\"aux\":{}}}",
        event.nanos,
        event.duration_nanos,
        json_conn(event.conn),
        json_corr(event.corr),
        event.lane,
        event.aux
    )
}

fn render_slow_json(op: &SlowOp) -> String {
    let kind = match op.kind {
        0x01 => "ingest".to_string(),
        0x02 => "query".to_string(),
        0x03 => "stats".to_string(),
        other => format!("kind_{other}"),
    };
    let mut stages = String::new();
    for (i, nanos) in op.stages.iter().enumerate().take(SLOW_STAGES) {
        if i > 0 {
            stages.push(',');
        }
        let name = TraceStage::from_code(i as u8)
            .map_or_else(|| format!("stage_{i}"), |s| s.name().to_string());
        stages.push_str(&format!("\"{name}\":{nanos}"));
    }
    format!(
        "{{\"type\":\"slow_op\",\"conn\":{},\"corr\":{},\"kind\":\"{kind}\",\
         \"start_nanos\":{},\"total_nanos\":{},\"stages\":{{{stages}}}}}",
        json_conn(op.conn),
        json_corr(op.corr),
        op.start_nanos,
        op.total_nanos
    )
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    respond_with(stream, status, "", body)
}

fn respond_with(
    stream: &mut TcpStream,
    status: &str,
    extra_headers: &str,
    body: &str,
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n{extra_headers}\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_prometheus_text_and_404s_everything_else() {
        let metrics = Arc::new(EngineMetrics::new());
        metrics.incr_parked_request();
        let sidecar = MetricsSidecar::start("127.0.0.1:0", Arc::clone(&metrics), None).unwrap();
        let addr = sidecar.addr();

        let ok = get(addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        assert!(ok.contains("rtim_feed_nanos"), "{ok}");
        assert!(ok.contains("rtim_durability_state"), "{ok}");
        assert!(ok.contains("rtim_parked_requests_total 1"), "{ok}");
        // The declared length matches the body exactly.
        let (head, body) = ok.split_once("\r\n\r\n").unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());

        let missing = get(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let bad = get(addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.0 405"), "{bad}");
        assert!(bad.contains("Allow: GET"), "{bad}");

        sidecar.stop();
        // The port is released after stop.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn trace_endpoint_serves_json_lines() {
        use rtim_core::TraceConfig;
        let metrics = Arc::new(EngineMetrics::new());
        let recorder = FlightRecorder::new(TraceConfig::sampled(1, 0));
        let mut writer = recorder.writer();
        writer.span(TraceStage::Parse.code(), 7, 42, 1_000, 0);
        writer.span(TraceStage::QueueWait.code(), 7, 42, 2_000, 0);
        recorder.record_slow(SlowOp {
            conn: 7,
            corr: 42,
            kind: 0x01,
            start_nanos: 10,
            total_nanos: 5_000,
            stages: [1_000, 2_000, 0, 0, 0, 0, 0, 0],
        });
        let sidecar = MetricsSidecar::start(
            "127.0.0.1:0",
            Arc::clone(&metrics),
            Some(Arc::clone(&recorder)),
        )
        .unwrap();
        let addr = sidecar.addr();

        let ok = get(addr, "GET /trace HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        let body = ok.split_once("\r\n\r\n").unwrap().1;
        assert!(
            body.lines().next().unwrap().contains("\"type\":\"totals\""),
            "{body}"
        );
        assert!(body.contains("\"stage\":\"parse\""), "{body}");
        assert!(body.contains("\"stage\":\"queue_wait\""), "{body}");
        assert!(body.contains("\"type\":\"slow_op\""), "{body}");
        assert!(body.contains("\"kind\":\"ingest\""), "{body}");
        // Every line is self-delimiting JSON (cheap structural check).
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }

        // slow=1 skips the ring events entirely.
        let slow = get(addr, "GET /trace?slow=1 HTTP/1.0\r\n\r\n");
        let slow_body = slow.split_once("\r\n\r\n").unwrap().1;
        assert!(!slow_body.contains("\"type\":\"event\""), "{slow_body}");
        assert!(slow_body.contains("\"type\":\"slow_op\""), "{slow_body}");

        sidecar.stop();
    }

    /// A slowloris drip (bytes trickling in, no header end) is dropped at
    /// the deadline without a response and without stalling later
    /// scrapes.
    #[test]
    fn slow_request_is_dropped_at_the_deadline() {
        let metrics = Arc::new(EngineMetrics::new());
        let sidecar = MetricsSidecar::start("127.0.0.1:0", Arc::clone(&metrics), None).unwrap();
        let addr = sidecar.addr();

        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /metr").unwrap(); // never finishes
        let started = std::time::Instant::now();
        let mut response = String::new();
        slow.read_to_string(&mut response).unwrap();
        assert!(response.is_empty(), "{response}");
        assert!(
            started.elapsed() < REQUEST_TIMEOUT + Duration::from_secs(3),
            "drip held the sidecar for {:?}",
            started.elapsed()
        );

        // The sidecar is still serving.
        let ok = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        sidecar.stop();
    }
}
