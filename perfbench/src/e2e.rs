//! End-to-end runs: set-up, the timed traffic mix and the correctness
//! gate, all against a server child over loopback TCP.
//!
//! Tracing stays off and no ladder code runs here.  Timing starts once
//! the window is full; every counted action has been processed when the
//! clock stops (the clock stops at the `SOLUTION` of a `QUERY` sent after
//! the last `ACK`).

use crate::report::{median, ms, quantile, sorted, Report};
use crate::server::{ServeOptions, ServerChild, WorkDir};
use crate::workload::{copy_dir, seed_dir, Inputs, Load, Workload};
use rtim_core::{recover_engine, SimEngine, Solution};
use rtim_server::poll::{poll, PollFd, POLLIN};
use rtim_server::protocol::{encode_frame, parse_frame};
use rtim_server::{Frame, RtimClient};
use rtim_stream::Action;
use std::collections::HashMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Server starts per run — at least the minimum, then more while the
/// budget lasts; `setup_s` is their median.  Consecutive starts run
/// 30-50% apart in phases of half a second on a shared host, so the budget
/// spans several such phases.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Share of the offered rate below which a paced run counts as having
/// fallen behind its schedule.
const MIN_RATE_SHARE: f64 = 0.95;

/// A reply slower than this counts as a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Correlation ids of pipelined `QUERY` frames start here, above every
/// frame index.
const QUERY_CORR_BASE: u32 = 0x8000_0000;

/// Whether two answers agree bit for bit: same seeds in the same order and
/// the same value down to the last bit.
pub fn same_answer(a: &Solution, b: &Solution) -> bool {
    a.seeds == b.seeds && a.value.to_bits() == b.value.to_bits()
}

pub fn connect(addr: SocketAddr) -> Result<RtimClient, String> {
    let mut client = RtimClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .raw_stream()
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(client)
}

/// Pre-encodes a connection's frames (before any clock starts), each
/// `INGEST` carrying its frame index plus one as correlation id.
pub fn encode_frames(frames: &[Vec<Action>]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            encode_frame(&Frame::Ingest {
                actions: f.clone(),
                corr: Some(i as u32 + 1),
            })
        })
        .collect()
}

/// Pre-encodes a connection's timed frames: each `INGEST` of
/// [`encode_frames`] with its freshness `QUERY` right behind it in the same
/// buffer, so the two reach the server in one write and are read in one
/// wake-up, not in one or two as the scheduler happens to interleave them.
fn encode_timed(frames: &[Vec<Action>]) -> Vec<Vec<u8>> {
    encode_frames(frames)
        .into_iter()
        .enumerate()
        .map(|(i, mut bytes)| {
            bytes.extend(encode_frame(&Frame::Query {
                corr: Some(QUERY_CORR_BASE + i as u32),
            }));
            bytes
        })
        .collect()
}

/// Fills a fresh server's window over `client`, pipelining 16 frames.
pub fn fill(
    client: &mut RtimClient,
    frames: impl Iterator<Item = impl AsRef<[Action]>>,
) -> Result<(), String> {
    let mut session = client.pipelined(16);
    for frame in frames {
        session
            .ingest(frame.as_ref())
            .map_err(|e| format!("fill: {e}"))?;
    }
    session.drain().map(drop).map_err(|e| format!("fill: {e}"))
}

/// How one connection sends its frames.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Frame `i` is due at `start + i * period`.
    start: Instant,
    period: Duration,
    /// Lockstep: a frame waits for the `SOLUTION` of the previous one, and
    /// replies are timed from the send.  Otherwise an open loop: frames
    /// never wait, and replies are timed from the frame's due time.  Either
    /// way each query is pipelined right behind its frame.  (A query sent
    /// once the `ACK` is in times a round trip on an idle engine, about
    /// 0.1 ms of thread wake-ups whose median moved by a third from run
    /// to run.)
    lockstep: bool,
    /// Whether the queries behind the frames also count as `query_ms`
    /// samples.
    queries_timed: bool,
}

enum Pending {
    Ingest {
        from: Instant,
        len: u64,
    },
    Query {
        sent: Instant,
        fresh_from: Instant,
        /// Frames sent before this query, all processed once it answers.
        covers: usize,
    },
}

/// Samples and counters of one connection.
#[derive(Default)]
pub struct Tally {
    pub ack: Vec<f64>,
    pub query: Vec<f64>,
    pub fresh: Vec<f64>,
    pub lateness: Vec<f64>,
    pub attempted: u64,
    pub frames_sent: usize,
    pub actions_sent: u64,
    /// A connection sent every frame it had before its time was up.
    pub exhausted: bool,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ack.extend(other.ack);
        self.query.extend(other.query);
        self.fresh.extend(other.fresh);
        self.lateness.extend(other.lateness);
        self.attempted += other.attempted;
        self.frames_sent += other.frames_sent;
        self.actions_sent += other.actions_sent;
        self.exhausted |= other.exhausted;
    }
}

/// A connection's socket with a receive buffer of its own, so a reply can
/// be awaited until a deadline without losing a partly read frame.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Wire {
    /// Takes over `client`'s socket; the client must have no reply
    /// outstanding.
    fn new(client: &mut RtimClient) -> Result<Wire, String> {
        let stream = client
            .raw_stream()
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Wire {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// The next reply and when it was complete, or `None` once `until`
    /// passes first (`None` waits up to [`REPLY_TIMEOUT`], then fails).
    fn reply(&mut self, until: Option<Instant>) -> Result<Option<(Frame, Instant)>, String> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some((frame, used)) =
                parse_frame(&self.buf).map_err(|e| format!("bad reply: {e}"))?
            {
                let now = Instant::now();
                self.buf.drain(..used);
                return Ok(Some((frame, now)));
            }
            if let Some(t) = until {
                // Socket read timeouts tick in scheduler jiffies, too coarse
                // for a paced schedule; poll(2) sleeps on a high-resolution
                // timer.  The last partial millisecond is spun through.
                let left = match t.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => left,
                    _ => return Ok(None),
                };
                let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLIN)];
                let wait_ms = i32::try_from(left.as_millis()).unwrap_or(i32::MAX);
                if poll(&mut fds, wait_ms).map_err(|e| format!("poll: {e}"))? == 0 {
                    continue;
                }
            }
            self.stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| format!("set timeout: {e}"))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Replies still owed to one connection, and how far processing has got.
struct Owed {
    pending: HashMap<u32, Pending>,
    /// Frames a returned `SOLUTION` has shown processed.
    processed: usize,
}

impl Owed {
    /// Files one reply's timing.
    fn settle(
        &mut self,
        reply: (Frame, Instant),
        shape: Shape,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (frame, now) = reply;
        match frame {
            Frame::Ack {
                corr: Some(corr),
                accepted,
                ..
            } => match self.pending.remove(&corr) {
                Some(Pending::Ingest { from, len }) if accepted == len => {
                    tally.ack.push(ms(now - from));
                    Ok(())
                }
                _ => Err(format!(
                    "ACK for corr {corr} ({accepted} actions) matches no frame"
                )),
            },
            Frame::Solution {
                corr: Some(corr), ..
            } => match self.pending.remove(&corr) {
                Some(Pending::Query {
                    sent,
                    fresh_from,
                    covers,
                }) => {
                    self.processed = self.processed.max(covers);
                    if shape.queries_timed {
                        tally.query.push(ms(now - sent));
                    }
                    tally.fresh.push(ms(now - fresh_from));
                    Ok(())
                }
                _ => Err(format!("SOLUTION for corr {corr} matches no query")),
            },
            Frame::Error { message, .. } => Err(format!("ERROR reply: {message}")),
            Frame::Busy { .. } => Err("BUSY reply".to_string()),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Blocks for the next reply and files it.
    fn settle_next(
        &mut self,
        wire: &mut Wire,
        shape: Shape,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let reply = wire.reply(None)?.expect("no deadline");
        self.settle(reply, shape, tally)
    }
}

/// One connection's traffic until `deadline` (or its frames run out).
fn drive(
    client: &mut RtimClient,
    frames: &[Vec<u8>],
    lens: &[u64],
    deadline: Instant,
    shape: Shape,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut wire = Wire::new(client)?;
    let mut owed = Owed {
        pending: HashMap::new(),
        processed: 0,
    };
    tally.exhausted = true;
    for (i, frame) in frames.iter().enumerate() {
        let due = shape.start + shape.period * i as u32;
        if due >= deadline {
            tally.exhausted = false;
            break;
        }
        // Replies are read while waiting for the frame's due time.
        while let Some(reply) = wire.reply(Some(due))? {
            owed.settle(reply, shape, tally)?;
        }
        if shape.lockstep {
            while owed.processed < i {
                owed.settle_next(&mut wire, shape, tally)?;
            }
        }
        let now = Instant::now();
        tally.lateness.push(ms(now.saturating_duration_since(due)));
        let from = if shape.lockstep { now } else { due };
        // The frame and the freshness query behind it.
        wire.send(frame)?;
        tally.attempted += 2;
        tally.frames_sent += 1;
        tally.actions_sent += lens[i];
        owed.pending
            .insert(i as u32 + 1, Pending::Ingest { from, len: lens[i] });
        owed.pending.insert(
            QUERY_CORR_BASE + i as u32,
            Pending::Query {
                sent: now,
                fresh_from: from,
                covers: i + 1,
            },
        );
    }
    while !owed.pending.is_empty() {
        owed.settle_next(&mut wire, shape, tally)?;
    }
    Ok(())
}

/// Lockstep `QUERY` loop on its own connection until `stop` is set, each
/// query sent on the reply to the last but at most one per `gap`.
fn query_loop(
    client: &mut RtimClient,
    stop: &AtomicBool,
    gap: Duration,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        let sent = Instant::now();
        next = sent + gap;
        tally.attempted += 1;
        client.query().map_err(|e| format!("query: {e}"))?;
        tally.query.push(ms(sent.elapsed()));
    }
    Ok(())
}

/// A set-up server: ready to serve its full window.
struct Started {
    child: ServerChild,
    client: RtimClient,
    setup: Duration,
}

/// Spawns a server and brings it to its first `QUERY` answered over a
/// full window: by filling the window over the wire, or by recovering a
/// copy of the seeded directory.
fn start(w: &Workload, opts: &ServeOptions, inputs: &Inputs) -> Result<Started, String> {
    let started = Instant::now();
    let child = ServerChild::spawn(opts).map_err(|e| format!("spawn server: {e}"))?;
    let mut client = connect(child.addr)?;
    if !w.starts_from_disk() {
        fill(&mut client, inputs.start_frames(w))?;
    }
    client.query().map_err(|e| format!("first query: {e}"))?;
    Ok(Started {
        child,
        client,
        setup: started.elapsed(),
    })
}

/// One end-to-end run.  `perturb` flips the last bit of the expected
/// answer, which the correctness gate must catch (self-test).
pub fn run(w: &Workload, toy: bool, seed: u64, seconds: u64, perturb: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(w, toy, seed, seconds, perturb, &mut report) {
        report.fail(e);
    }
    report
}

fn run_into(
    w: &Workload,
    toy: bool,
    seed: u64,
    seconds: u64,
    perturb: bool,
    report: &mut Report,
) -> Result<(), String> {
    let work = WorkDir::new(&format!("{}-e2e", w.name)).map_err(|e| format!("work dir: {e}"))?;
    let inputs = w.inputs(seed);
    let encoded: Vec<Vec<Vec<u8>>> = inputs.conns.iter().map(|c| encode_timed(c)).collect();
    let lens: Vec<Vec<u64>> = inputs
        .conns
        .iter()
        .map(|c| c.iter().map(|f| f.len() as u64).collect())
        .collect();
    let template = work.join("template");
    if w.starts_from_disk() {
        seed_dir(&template, w, &inputs.warm, &inputs.tail).map_err(|e| format!("seed dir: {e}"))?;
    }

    // ---- set-up, several times; the last server stays up ----
    let mut setups = Vec::with_capacity(SETUP_MAX_REPS);
    let mut live: Option<(Started, Option<std::path::PathBuf>)> = None;
    let budget = Instant::now() + SETUP_BUDGET;
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && Instant::now() >= budget {
            break;
        }
        if let Some((old, _)) = live.take() {
            old.child
                .shutdown()
                .map_err(|e| format!("stop set-up server: {e}"))?;
        }
        let dir = if w.starts_from_disk() {
            let dir = work.join(&format!("served-{rep}"));
            copy_dir(&template, &dir).map_err(|e| format!("copy seeded dir: {e}"))?;
            Some(dir)
        } else {
            None
        };
        let opts = ServeOptions {
            workload: w.name.to_string(),
            toy,
            dir: dir.clone(),
            trace: false,
        };
        report.attempted += 1;
        let started = start(w, &opts, &inputs)?;
        setups.push(started.setup.as_secs_f64());
        live = Some((started, dir));
    }
    let (started, served_dir) = live.expect("at least one set-up");
    let Started {
        child, mut client, ..
    } = started;

    // ---- timed phase ----
    // Connections beyond the first: the open loop's reader, or the other
    // lockstep senders.
    let extra_conns = w.load.connections() - 1;
    // Memory to hold the full window, read before any timed traffic.
    let setup_rss = child
        .proc_sample()
        .map_err(|e| format!("/proc: {e}"))?
        .hwm_mb;
    let mut extra: Vec<RtimClient> = (0..extra_conns)
        .map(|_| connect(child.addr))
        .collect::<Result<_, _>>()?;
    let cpu_before = child.proc_sample().map_err(|e| format!("/proc: {e}"))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let outcome: Result<(), String> = match w.load {
        // Without a reader the only queries are those behind the frames, so
        // `query_ms` is the freshness time.  Queries on an idle full window
        // spread by a third or more from run to run on a two-core host,
        // past any usable bound.
        Load::OpenLoop {
            period,
            reader_gap: None,
        } => drive(
            &mut client,
            &encoded[0],
            &lens[0],
            deadline,
            Shape {
                start,
                period,
                lockstep: false,
                queries_timed: true,
            },
            &mut tally,
        ),
        Load::OpenLoop {
            period,
            reader_gap: Some(gap),
        } => {
            let stop = AtomicBool::new(false);
            let querier = &mut extra[0];
            std::thread::scope(|scope| {
                let ingest = scope.spawn(|| {
                    let mut t = Tally::default();
                    let shape = Shape {
                        start,
                        period,
                        lockstep: false,
                        queries_timed: false,
                    };
                    let r = drive(&mut client, &encoded[0], &lens[0], deadline, shape, &mut t);
                    stop.store(true, Ordering::Release);
                    (r, t)
                });
                let mut q = Tally::default();
                let queried = query_loop(querier, &stop, gap, &mut q);
                // A failed query loop must not leave the ingest side
                // running on: it stops at its own deadline.
                let (ingested, t) = ingest.join().expect("ingest thread panicked");
                tally.merge(t);
                tally.merge(q);
                ingested.and(queried)
            })
        }
        Load::Lockstep {
            connections,
            period,
        } => {
            // The connections' schedules are spread evenly over the period,
            // so their frames take turns instead of always arriving
            // together, which made half the replies wait behind the other
            // connection's frame and the median flip between the two.
            let shape = |c: usize| Shape {
                start: start + period * c as u32 / connections as u32,
                period,
                lockstep: true,
                queries_timed: true,
            };
            std::thread::scope(|scope| {
                let others: Vec<_> = extra
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let (frames, lens) = (&encoded[c + 1], &lens[c + 1]);
                        let shape = shape(c + 1);
                        scope.spawn(move || {
                            let mut t = Tally::default();
                            let r = drive(conn, frames, lens, deadline, shape, &mut t);
                            (r, t)
                        })
                    })
                    .collect();
                let mut result = drive(
                    &mut client,
                    &encoded[0],
                    &lens[0],
                    deadline,
                    shape(0),
                    &mut tally,
                );
                for other in others {
                    let (r, t) = other.join().expect("connection thread panicked");
                    tally.merge(t);
                    result = result.and(r);
                }
                result
            })
        }
    };
    report.attempted += tally.attempted;
    outcome?;
    // Every frame is ACKed, so this QUERY is ordered behind all of them.
    report.attempted += 1;
    let served = client.query().map_err(|e| format!("final query: {e}"))?;
    let wall = start.elapsed();
    let cpu_after = child.proc_sample().map_err(|e| format!("/proc: {e}"))?;
    drop(extra);
    drop(client);
    child.shutdown().map_err(|e| format!("stop server: {e}"))?;

    // ---- correctness gate ----
    let mut expected = match &served_dir {
        Some(dir) => recover_engine(w.config(), w.kind, dir).engine.query(),
        None => {
            let mut engine = SimEngine::new(w.config(), w.kind);
            for frame in inputs.start_frames(w) {
                engine.ingest_batch(frame);
            }
            for frame in &inputs.conns[0][..tally.frames_sent] {
                engine.ingest_batch(frame);
            }
            engine.query()
        }
    };
    if perturb {
        expected.value = f64::from_bits(expected.value.to_bits() ^ 1);
    }
    if !same_answer(&served, &expected) {
        report.fail(format!(
            "served answer diverges from the offline answer: {served:?} vs {expected:?}"
        ));
    }

    // ---- metrics ----
    let actions = tally.actions_sent as f64;
    report.metric("setup_s", "s", median(&setups));
    report.metric("ingest_aps", "actions/s", actions / wall.as_secs_f64());
    report.latency("ack_ms", &tally.ack);
    report.latency("query_ms", &tally.query);
    report.latency("fresh_ms", &tally.fresh);
    report.metric(
        "server_cpu_us_per_action",
        "us",
        (cpu_after.cpu_s() - cpu_before.cpu_s()) * 1e6 / actions,
    );
    report.metric("setup_rss_mb", "MiB", setup_rss);
    report.fact("peak_rss_mb", cpu_after.hwm_mb);
    report.fact("timed_wall_s", wall.as_secs_f64());
    report.fact("frames", tally.frames_sent as f64);
    report.fact("actions", actions);
    let setups = sorted(&setups);
    report.samples.push(("setup_s".into(), setups.len()));
    report.fact("setup_s_min", setups[0]);
    report.fact("setup_s_max", setups[setups.len() - 1]);
    if !tally.lateness.is_empty() {
        let late = sorted(&tally.lateness);
        let p99 = quantile(&late, 0.99);
        let max = *late.last().expect("non-empty");
        report.fact("lateness_ms_p99", p99);
        report.fact("lateness_ms_max", max);
        // One late send is a scheduling hiccup the schedule absorbs (due
        // times never drift); an open-loop generator whose p99 send is a
        // whole period late has fallen behind.  A lockstep connection waits
        // out every server stall instead, and a background snapshot can
        // stall the engine for several periods, so there only a schedule
        // that never caught up (below) counts.
        let period = ms(w.load.period());
        if matches!(w.load, Load::OpenLoop { .. }) && p99 >= period {
            report.fail(format!(
                "open-loop generator fell behind: p99 lateness {p99:.3} ms (period {period} ms)"
            ));
        }
    }
    // Every frame due before the deadline is sent, late or not, so a
    // generator that fell behind shows as a timed phase that overran.
    if wall.as_secs_f64() * MIN_RATE_SHARE > seconds as f64 {
        report.fail(format!(
            "the load fell behind its schedule: {seconds} s of frames took {:.3} s",
            wall.as_secs_f64()
        ));
    }
    if tally.exhausted {
        report.fail("the generated input ran out before the run's time was up".to_string());
    }
    println!("{{\"server_process\": {}}}", cpu_after.json());
    Ok(())
}
