//! `rtim-cli` — operate and observe a running RTIM server from the shell.
//!
//! ```text
//! rtim-cli serve    [--listen ADDR] [--metrics ADDR] [--framework ic|sic]
//!                   [--k N] [--beta F] [--window N] [--slide N]
//!                   [--capacity N] [--persist DIR]
//!                   [--trace-sample N] [--trace-slow-ms N]
//! rtim-cli top      [--addr ADDR] [--interval-ms N] [--once]
//! rtim-cli trace    [--addr ADDR] [--max N] [--slow] [--follow]
//!                   [--interval-ms N]
//! rtim-cli query    [--addr ADDR]
//! rtim-cli shutdown [--addr ADDR]
//! ```
//!
//! `query` sends one `QUERY` and prints the current window's seed users
//! (raw ids) and their influence value.
//!
//! `top` polls the engine's `STATS` frame and renders a live terminal
//! view (press Ctrl-C to leave; `--once` prints a single snapshot and
//! exits — handy in scripts and CI).  If the server goes away, `top`
//! keeps reconnecting; when the counters come back smaller than the
//! previous frame it flags the frame as `(restarted)` and resets the
//! rate baseline rather than printing garbage rates.
//!
//! `trace` issues a `TRACE` frame and prints the flight recorder's
//! per-stage totals, newest span events and retained slow ops
//! (`--slow` fetches only the slow-op log; `--follow` polls and prints
//! only events not already seen).  The server must be running with
//! tracing enabled — `serve --trace-sample N` samples one request in N,
//! `--trace-slow-ms N` promotes any request slower than N ms to the
//! slow-op log.  See `docs/TRACING.md`.
//!
//! `serve` runs a server until a client sends `SHUTDOWN` (e.g.
//! `rtim-cli shutdown`), printing the bound addresses as parseable
//! `listening on ...` / `metrics on ...` lines.  See `docs/METRICS.md`
//! for the `/metrics` scrape endpoint the `--metrics` flag enables.

use rtim::core::{EngineStats, FrameworkKind, PersistOptions, SimConfig, TraceConfig};
use rtim::server::{RtimClient, RtimServer, ServerConfig};
use rtim::stream::trace::{SlowOp, TraceDump, TraceEvent, TraceStage};
use std::time::{Duration, Instant};

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let result = match command.as_str() {
        "serve" => serve(rest),
        "top" => top(rest),
        "trace" => trace(rest),
        "query" => query(rest),
        "shutdown" => shutdown(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let Err(message) = result {
        eprintln!("rtim-cli: {message}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:
  rtim-cli serve    [--listen ADDR] [--metrics ADDR] [--framework ic|sic]
                    [--k N] [--beta F] [--window N] [--slide N]
                    [--capacity N] [--persist DIR]
                    [--trace-sample N] [--trace-slow-ms N]
  rtim-cli top      [--addr ADDR] [--interval-ms N] [--once]
  rtim-cli trace    [--addr ADDR] [--max N] [--slow] [--follow]
                    [--interval-ms N]
  rtim-cli query    [--addr ADDR]
  rtim-cli shutdown [--addr ADDR]";

/// Tiny flag parser: every option takes a value except the listed
/// boolean switches.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], bool_switches: &[&str]) -> Result<Flags, String> {
        let mut values = Vec::new();
        let mut switches = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument `{flag}`\n{USAGE}"));
            };
            if bool_switches.contains(&name) {
                switches.push(name.to_string());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                values.push((name.to_string(), value.clone()));
            }
        }
        Ok(Flags { values, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let k = flags.num("k", 5usize)?;
    let beta = flags.num("beta", 0.1f64)?;
    let window = flags.num("window", 400usize)?;
    let slide = flags.num("slide", 100usize)?;
    let capacity = flags.num("capacity", 64usize)?;
    let kind = match flags.get("framework").unwrap_or("sic") {
        "ic" => FrameworkKind::Ic,
        "sic" => FrameworkKind::Sic,
        other => return Err(format!("--framework: expected ic or sic, got `{other}`")),
    };
    let mut config = ServerConfig::new(SimConfig::new(k, beta, window, slide), kind)
        .with_queue_capacity(capacity);
    if let Some(dir) = flags.get("persist") {
        config = config.with_persistence(PersistOptions::new(dir));
    }
    if let Some(scrape) = flags.get("metrics") {
        config = config.with_metrics(scrape);
    }
    let trace_sample = flags.num("trace-sample", 0u32)?;
    let trace_slow_ms = flags.num("trace-slow-ms", u64::MAX)?;
    if trace_sample > 0 || flags.get("trace-slow-ms").is_some() {
        // `--trace-slow-ms` alone still needs sampling on for the
        // end-to-end span to exist, so it implies `--trace-sample 1`.
        config = config.with_tracing(TraceConfig::sampled(trace_sample.max(1), trace_slow_ms));
    }
    let listen = flags.get("listen").unwrap_or(DEFAULT_ADDR);
    let server = RtimServer::bind(listen, config).map_err(|e| format!("bind {listen}: {e}"))?;
    println!("listening on {}", server.local_addr());
    if let Some(scrape) = server.metrics_addr() {
        println!("metrics on http://{scrape}/metrics");
    }
    let report = server.wait(); // until a client sends SHUTDOWN
    println!(
        "drained: {} actions, {} batches, {} slides, final influence {:.1}",
        report.stats.actions,
        report.stats.batches,
        report.stats.slides,
        report.final_solution.value
    );
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = RtimClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let solution = client.query().map_err(|e| format!("query: {e}"))?;
    let seeds: Vec<String> = solution.seeds.iter().map(|s| s.0.to_string()).collect();
    println!("seeds: [{}]", seeds.join(", "));
    println!("value: {}", solution.value);
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR);
    let mut client = RtimClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("shutdown acknowledged by {addr}");
    Ok(())
}

fn top(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["once"])?;
    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR).to_string();
    let interval = Duration::from_millis(flags.num("interval-ms", 1000u64)?.max(50));
    let once = flags.has("once");
    let mut client = RtimClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut previous: Option<(EngineStats, Instant)> = None;
    loop {
        let stats = match client.stats() {
            Ok(stats) => stats,
            Err(e) if !once => {
                // The server went away mid-session: keep polling for it
                // to come back instead of dying, and drop the rate
                // baseline so the first frame after reconnect does not
                // derive rates across the outage.
                print!("\x1b[2J\x1b[H");
                println!("rtim top — {addr}   (unreachable: {e}; retrying…)");
                previous = None;
                std::thread::sleep(interval);
                if let Ok(next) = RtimClient::connect(&addr) {
                    client = next;
                }
                continue;
            }
            Err(e) => return Err(format!("stats: {e}")),
        };
        let now = Instant::now();
        // A restarted server reports counters smaller than the previous
        // frame; flag it and reset the baseline rather than deriving
        // rates from a negative delta (which would clamp to a silent 0).
        let restarted = previous.as_ref().is_some_and(|(p, _)| {
            stats.actions < p.actions || stats.batches < p.batches || stats.slides < p.slides
        });
        if restarted {
            previous = None;
        }
        if !once {
            // Clear + home, like top(1); the frame below repaints fully.
            print!("\x1b[2J\x1b[H");
        }
        render_top(
            &addr,
            &stats,
            previous.as_ref().map(|(s, t)| (s, now - *t)),
            restarted,
        );
        if once {
            return Ok(());
        }
        previous = Some((stats, now));
        std::thread::sleep(interval);
    }
}

/// One stats frame, rendered as aligned label/value lines with rates
/// derived from the previous poll.
fn render_top(
    addr: &str,
    stats: &EngineStats,
    prev: Option<(&EngineStats, Duration)>,
    restarted: bool,
) {
    let rate = |now: u64, before: u64, dt: Duration| {
        let secs = dt.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            now.saturating_sub(before) as f64 / secs
        }
    };
    let (actions_rate, queries_note) = match prev {
        Some((p, dt)) => (
            rate(stats.actions, p.actions, dt),
            format!("{:.1} slides/s", rate(stats.slides, p.slides, dt)),
        ),
        None => (0.0, "…".to_string()),
    };
    let durability = match stats.durability_state {
        0 => "disabled",
        1 => "durable",
        2 => "DEGRADED",
        _ => "unknown",
    };
    let note = if restarted {
        "   (restarted — rates reset)"
    } else {
        ""
    };
    println!("rtim top — {addr}{note}");
    println!();
    println!(
        "  actions   {:>12}   ({:>9.1}/s)     batches   {:>10}",
        stats.actions, actions_rate, stats.batches
    );
    println!(
        "  slides    {:>12}   ({:>13})     queries   {:>10} ms total",
        stats.slides,
        queries_note,
        stats.query_nanos / 1_000_000
    );
    println!(
        "  feed time {:>9} ms   checkpoints {:>6}     users     {:>10}",
        stats.feed_nanos / 1_000_000,
        stats.checkpoints,
        stats.users
    );
    println!();
    println!(
        "  queue     {:>5} now / {:>5} max          orphaned replies {:>8}",
        stats.queue_depth, stats.max_queue_depth, stats.orphaned_replies
    );
    println!(
        "  shards    ewma {:>8}–{:<8} µs       migrations {:>12}",
        stats.shard_ewma_min_nanos / 1_000,
        stats.shard_ewma_max_nanos / 1_000,
        stats.shard_migrations
    );
    println!(
        "  durability {:<9}  journal lag {:>6} batches   snapshot age {:>6} slides",
        durability, stats.journal_lag_batches, stats.snapshot_age_slides
    );
    println!();
    println!("  oracle updates {:>14}", stats.oracle_updates);
    println!();
    println!("  (Ctrl-C quits; --once prints a single frame)");
}

fn trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["slow", "follow", "once"])?;
    let addr = flags.get("addr").unwrap_or(DEFAULT_ADDR).to_string();
    let max_events = flags.num("max", 1024u32)?;
    let slow_only = flags.has("slow");
    let follow = flags.has("follow") && !flags.has("once");
    let interval = Duration::from_millis(flags.num("interval-ms", 500u64)?.max(50));
    let mut client = RtimClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // `--follow` dedupes across polls: events by their end timestamp
    // (strictly increasing per dump), slow ops by start+total.
    let mut seen_event: Option<u64> = None;
    let mut seen_slow: Option<u64> = None;
    loop {
        let dump = client
            .trace(max_events, slow_only)
            .map_err(|e| format!("trace: {e}"))?;
        if seen_event.is_none() {
            render_stage_totals(&dump);
        }
        for e in &dump.events {
            if seen_event.is_none_or(|newest| e.nanos > newest) {
                println!("{}", render_trace_event(e));
            }
        }
        for op in &dump.slow_ops {
            let end = op.start_nanos.saturating_add(op.total_nanos);
            if seen_slow.is_none_or(|newest| end > newest) {
                println!("{}", render_slow_op(op));
            }
        }
        let newest_event = dump.events.iter().map(|e| e.nanos).max().unwrap_or(0);
        let newest_slow = dump
            .slow_ops
            .iter()
            .map(|op| op.start_nanos.saturating_add(op.total_nanos))
            .max()
            .unwrap_or(0);
        seen_event = Some(seen_event.unwrap_or(0).max(newest_event));
        seen_slow = Some(seen_slow.unwrap_or(0).max(newest_slow));
        if !follow {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Stage wire code → name, tolerating codes from a newer server.
fn stage_name(code: u8) -> &'static str {
    TraceStage::from_code(code).map_or("stage?", TraceStage::name)
}

/// Human duration: `842ns`, `13.1µs`, `4.20ms`, `1.07s`.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn render_stage_totals(dump: &TraceDump) {
    println!("stage totals (cumulative since server start):");
    for (code, &(count, nanos)) in dump.stage_totals.iter().enumerate() {
        if count == 0 {
            continue;
        }
        println!(
            "  {:<17} {:>10} spans   {:>10} total",
            stage_name(code as u8),
            count,
            fmt_nanos(nanos)
        );
    }
    println!(
        "events in ring: {}   slow ops retained: {}",
        dump.events.len(),
        dump.slow_ops.len()
    );
}

fn render_trace_event(e: &TraceEvent) -> String {
    let conn = if e.conn == u64::MAX {
        "-".to_string()
    } else {
        e.conn.to_string()
    };
    let corr = if e.corr == u32::MAX {
        "-".to_string()
    } else {
        e.corr.to_string()
    };
    format!(
        "  t+{:<10} {:<17} {:>10}   conn {:<5} corr {:<5} aux {}",
        fmt_nanos(e.nanos),
        stage_name(e.stage),
        fmt_nanos(e.duration_nanos),
        conn,
        corr,
        e.aux
    )
}

fn render_slow_op(op: &SlowOp) -> String {
    let kind = match op.kind {
        0x01 => "ingest",
        0x02 => "query",
        0x03 => "stats",
        _ => "op?",
    };
    let corr = if op.corr == u32::MAX {
        "-".to_string()
    } else {
        op.corr.to_string()
    };
    let mut line = format!(
        "  SLOW {:<6} total {:>10}   conn {} corr {}   [",
        kind,
        fmt_nanos(op.total_nanos),
        op.conn,
        corr
    );
    let mut first = true;
    for (code, &nanos) in op.stages.iter().enumerate() {
        if nanos == 0 {
            continue;
        }
        if !first {
            line.push_str("  ");
        }
        first = false;
        line.push_str(&format!("{}={}", stage_name(code as u8), fmt_nanos(nanos)));
    }
    line.push(']');
    line
}
