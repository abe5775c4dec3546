//! The traced run: a workload's frames replayed down a ladder of calls
//! into each layer's public API, every rung timed from this file.
//!
//! Rungs, top to bottom, each replaying the same start frames untimed and
//! then timing the same frames, one frame plus one query at a time:
//!
//! 1. wire — `RtimClient` against a server child (flight recorder on);
//! 2. handle — an in-process `EngineHandle` (`IngestSender::ingest` +
//!    `query`), with the workload's persistence;
//! 3. engine — `SimEngine::ingest_batch_traced` + `query`;
//! 4. framework — `SicFramework`/`IcFramework` fed pre-resolved slides, at
//!    pool width 2 and at width 1.
//!
//! A layer's self time is its rung minus the rung below it, per frame.
//! Probes beside the ladder time the protocol codec, the journal, the
//! snapshot writer, recovery and the coverage kernels (absorbs and
//! marginal-gain probes over the window's own influence sets).  The server's own span
//! totals from one wire `TRACE` dump are recorded next to the ladder.

use crate::e2e::{connect, encode_frames, fill, same_answer};
use crate::report::{median, quantile, sorted, Report};
use crate::server::{ServeOptions, ServerChild, WorkDir};
use crate::workload::{copy_dir, rebase, seed_dir, Workload};
use rtim_core::{
    recover_engine, EngineHandle, Framework, FrameworkKind, HandleOptions, IcFramework,
    IngestError, PersistOptions, PoolStats, ResolvedAction, SicFramework, SimConfig, SimEngine,
    Solution, UserInterner,
};
use rtim_server::protocol::{encode_frame, parse_frame};
use rtim_server::Frame;
use rtim_stream::trace::TraceStage;
use rtim_stream::{Action, InfluenceSet, PropagationIndex, SlidingWindow, UserId};
use rtim_submodular::{CoverageState, UnitWeight};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Minimum wall time of each repeated micro-probe.
const PROBE_TIME: Duration = Duration::from_millis(50);

/// Backoff between `try_ingest` retries on a full queue (the client's
/// `ingest_blocking` pacing).
const FULL_BACKOFF: Duration = Duration::from_micros(200);

/// Frames each connection of the queue probe sends, at the workload's
/// period.
const PACED_PROBE_FRAMES: usize = 40;

/// Server span stages recorded next to the ladder.
const STAGES: [TraceStage; 8] = [
    TraceStage::Parse,
    TraceStage::QueueWait,
    TraceStage::JournalAppend,
    TraceStage::Resolve,
    TraceStage::ShardFeed,
    TraceStage::OracleQuery,
    TraceStage::SnapshotDispatch,
    TraceStage::ReplyDrain,
];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// One rung's per-frame timings (µs) and its final answer.
struct Rung {
    /// Frame + query, per frame.
    frame_us: Vec<f64>,
    /// The query alone, per frame.
    query_us: Vec<f64>,
    answer: Solution,
}

impl Rung {
    fn per_frame(&self) -> f64 {
        mean(&self.frame_us)
    }

    /// Mean per-frame time without the query.
    fn feed_per_frame(&self) -> f64 {
        self.per_frame() - mean(&self.query_us)
    }
}

pub fn run(w: &Workload, toy: bool, seed: u64) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(w, toy, seed, &mut report) {
        report.fail(e);
    }
    report
}

fn run_into(w: &Workload, toy: bool, seed: u64, report: &mut Report) -> Result<(), String> {
    let work = WorkDir::new(&format!("{}-ladder", w.name)).map_err(|e| format!("work dir: {e}"))?;
    let inputs = w.inputs(seed);
    let m = w.ladder_frames.min(inputs.conns[0].len());
    let start: Vec<Vec<Action>> = inputs.start_frames(w).map(<[Action]>::to_vec).collect();
    // The frames as their connection sends them, and as the engine sees
    // them once the server has assigned global ids.
    let raw = &inputs.conns[0][..m];
    let offset = if w.starts_from_disk() {
        inputs.start_actions(w)
    } else {
        0
    };
    let timed = rebase(raw, offset);
    let template = work.join("template");
    let seeded =
        seed_dir(&template, w, &inputs.warm, &inputs.tail).map_err(|e| format!("seed dir: {e}"))?;

    // ---- the ladder ----
    let (wire, stage_us) = wire_rung(w, toy, &work, &template, &start, raw)?;
    let (handle, queue) = handle_rung(w, &work, &template, &start, raw, &inputs.conns)?;
    let engine = engine_rung(w.config(), w.kind, &start, &timed);
    let prepared = prepare(w.config(), &start, &timed);
    let fw2 = framework_rung(w.config().with_threads(2), w.kind, &prepared);
    let fw1 = framework_rung(w.config().with_threads(1), w.kind, &prepared);
    let fw = if w.threads == 1 { &fw1 } else { &fw2 };
    report.attempted += 5 * m as u64;
    for (name, answer) in [
        ("wire", &wire.answer),
        ("handle", &handle.answer),
        ("framework t2", &fw2.rung.answer),
        ("framework t1", &fw1.rung.answer),
    ] {
        if !same_answer(answer, &engine.rung.answer) {
            report.fail(format!(
                "{name} rung answer {answer:?} diverges from the engine rung's {:?}",
                engine.rung.answer
            ));
        }
    }

    let (w_us, h_us, e_us, f_us) = (
        wire.per_frame(),
        handle.per_frame(),
        engine.rung.per_frame(),
        fw.rung.per_frame(),
    );
    let selves = [w_us - h_us, h_us - e_us, e_us - f_us];
    // Self times telescope to the wire wall; a rung faster than the work
    // beneath it leaves a negative self time the ladder cannot place.
    let overlap: f64 = selves.iter().map(|s| (-s).max(0.0)).sum();
    report.metric("ladder.wire_us_per_frame", "us", w_us);
    report.metric("ladder.handle_us_per_frame", "us", h_us);
    report.metric("ladder.engine_us_per_frame", "us", e_us);
    report.metric("ladder.framework_us_per_frame", "us", f_us);
    report.metric("server.self_us_per_frame", "us", selves[0]);
    report.metric("handle.self_us_per_batch", "us", selves[1]);
    report.metric("engine.self_us_per_slide", "us", selves[2]);
    report.metric("unattributed_share", "ratio", overlap / w_us);

    // ---- per-layer probes ----
    report.metric(
        "protocol.decode_ns_per_action",
        "ns",
        decode_probe(&encode_frames(raw))?,
    );
    let hq = sorted(&queue.query_us);
    report.metric("handle.query_us_p50", "us", quantile(&hq, 0.5));
    report.metric("handle.query_us_p99", "us", quantile(&hq, 0.99));
    report.samples.push(("handle.query_us".into(), hq.len()));
    report.metric("handle.queue_depth_max", "count", queue.depth_max as f64);
    report.metric("handle.full_retries", "count", queue.full_retries as f64);

    let tail_actions: u64 = inputs.tail.iter().map(|f| f.len() as u64).sum();
    let appends: Vec<f64> = seeded.append.iter().map(|d| us(*d)).collect();
    report.metric("journal.append_us_per_batch", "us", median(&appends));
    report.metric(
        "journal.bytes_per_action",
        "bytes",
        seeded.journal_bytes as f64 / tail_actions as f64,
    );
    report
        .samples
        .push(("journal.append_us".into(), appends.len()));
    report.metric(
        "snapshot.write_ms",
        "ms",
        seeded.snapshot.as_secs_f64() * 1e3,
    );
    report.metric("snapshot.bytes", "bytes", seeded.snapshot_bytes as f64);
    let (recover_ms, recovered) = recover_probe(w, &work, &template)?;
    report.metric("recover.ms", "ms", recover_ms);
    let mut replay = SimEngine::new(w.config(), w.kind);
    for frame in inputs.warm.iter().chain(&inputs.tail) {
        replay.ingest_batch(frame);
    }
    let replayed = replay.query();
    if !same_answer(&recovered, &replayed) {
        report.fail(format!(
            "recovered answer {recovered:?} diverges from the replayed {replayed:?}"
        ));
    }

    let timed_actions: u64 = timed.iter().map(|f| f.len() as u64).sum();
    report.metric(
        "engine.resolve_ns_per_action",
        "ns",
        engine.resolve_nanos as f64 / timed_actions as f64,
    );
    report.metric(
        "propagation.ancestors_per_action",
        "count",
        prepared.timed_ancestors as f64 / timed_actions as f64,
    );
    report.metric("engine.query_us", "us", median(&engine.rung.query_us));

    report.metric("framework.us_per_slide_t1", "us", fw1.rung.feed_per_frame());
    report.metric("framework.query_us_t1", "us", median(&fw1.rung.query_us));
    report.metric("framework.checkpoints_mean", "count", fw1.checkpoints_mean);
    report.metric(
        "framework.oracle_updates_per_action",
        "count",
        fw1.oracle_updates_per_action,
    );
    report.metric("pool.us_per_slide", "us", fw2.rung.feed_per_frame());
    report.metric(
        "pool.speedup",
        "x",
        fw1.rung.feed_per_frame() / fw2.rung.feed_per_frame(),
    );
    report.metric(
        "pool.query_overhead_us",
        "us",
        median(&fw2.rung.query_us) - median(&fw1.rung.query_us),
    );
    report.metric("pool.migrations", "count", fw2.pool.migrations as f64);
    report.metric(
        "pool.ewma_skew",
        "ratio",
        if fw2.pool.ewma_min_nanos > 0 {
            fw2.pool.ewma_max_nanos as f64 / fw2.pool.ewma_min_nanos as f64
        } else {
            0.0
        },
    );
    report.metric(
        "arena.hit_ratio",
        "ratio",
        if fw2.pool.arena_takes > 0 {
            fw2.pool.arena_hits as f64 / fw2.pool.arena_takes as f64
        } else {
            0.0
        },
    );

    let (marginal, absorb) = coverage_probe(&engine.window_sets);
    report.metric("coverage.marginal_ns_per_op", "ns", marginal);
    report.metric("coverage.absorb_ns_per_op", "ns", absorb);
    report.fact("coverage.sets", engine.window_sets.len() as f64);

    for (stage, value) in STAGES.iter().zip(stage_us) {
        report.metric(format!("trace.{}_us_per_frame", stage.name()), "us", value);
    }
    report.fact("ladder_frames", m as f64);
    Ok(())
}

/// Rung 1: frames and queries over loopback to a server child recording
/// every request in its flight recorder.  Also returns the server's own
/// per-stage span time per timed frame (µs), from `TRACE` dumps taken
/// before and after the timed frames.
fn wire_rung(
    w: &Workload,
    toy: bool,
    work: &WorkDir,
    template: &std::path::Path,
    start: &[Vec<Action>],
    raw: &[Vec<Action>],
) -> Result<(Rung, Vec<f64>), String> {
    let dir = if w.starts_from_disk() {
        let dir = work.join("wire");
        copy_dir(template, &dir).map_err(|e| format!("copy seeded dir: {e}"))?;
        Some(dir)
    } else {
        None
    };
    let child = ServerChild::spawn(&ServeOptions {
        workload: w.name.to_string(),
        toy,
        dir,
        trace: true,
    })
    .map_err(|e| format!("spawn server: {e}"))?;
    let mut client = connect(child.addr)?;
    if !w.starts_from_disk() {
        fill(&mut client, start.iter())?;
    }
    client.query().map_err(|e| format!("query: {e}"))?;
    let before = client.trace(0, false).map_err(|e| format!("TRACE: {e}"))?;
    let frames = encode_frames(raw);
    // The wire rung cannot split the query from the frame (the server's
    // oracle_query span totals stand in), so it keeps no query times.
    let mut rung = Rung {
        frame_us: Vec::with_capacity(raw.len()),
        query_us: Vec::new(),
        answer: Solution::empty(),
    };
    let query = encode_frame(&Frame::Query {
        corr: Some(u32::MAX),
    });
    for frame in &frames {
        let t0 = Instant::now();
        let stream = client.raw_stream();
        stream
            .write_all(frame)
            .and_then(|()| stream.write_all(&query))
            .map_err(|e| format!("write: {e}"))?;
        let mut acked = false;
        loop {
            match client
                .read_reply()
                .map_err(|e| format!("read reply: {e}"))?
            {
                Frame::Ack { .. } if !acked => acked = true,
                Frame::Solution { solution, .. } if acked => {
                    let elapsed = t0.elapsed();
                    rung.frame_us.push(us(elapsed));
                    rung.answer = solution;
                    break;
                }
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
    }
    let after = client.trace(0, false).map_err(|e| format!("TRACE: {e}"))?;
    drop(client);
    child.shutdown().map_err(|e| format!("stop server: {e}"))?;
    let stage_us = STAGES
        .iter()
        .map(|s| {
            let code = s.code() as usize;
            let nanos = after.stage_totals[code].1 - before.stage_totals[code].1;
            nanos as f64 / 1e3 / raw.len() as f64
        })
        .collect();
    Ok((rung, stage_us))
}

/// What the queue probe saw.
struct QueueProbe {
    depth_max: u64,
    full_retries: u64,
    /// `EngineHandle::query` latencies beside the pushed frames.
    query_us: Vec<f64>,
}

/// Rung 2: an in-process `EngineHandle`.  After the rung, a probe pushes
/// the connections' frames through `IngestSender::try_ingest` at the
/// workload's period while queries run beside them, to see how
/// deep the bounded queue gets, how often it turns a batch away and how
/// long a query waits.
fn handle_rung(
    w: &Workload,
    work: &WorkDir,
    template: &std::path::Path,
    start: &[Vec<Action>],
    raw: &[Vec<Action>],
    conns: &[Vec<Vec<Action>>],
) -> Result<(Rung, QueueProbe), String> {
    let mut options = HandleOptions::default();
    if let Some(every) = w.snapshot_every {
        let dir = work.join("handle");
        copy_dir(template, &dir).map_err(|e| format!("copy seeded dir: {e}"))?;
        options =
            options.with_persistence(PersistOptions::new(dir).with_snapshot_every_slides(every));
    }
    let handle = EngineHandle::spawn(w.config(), w.kind, options);
    let mut sender = handle.sender();
    let closed = |e: IngestError| format!("ingest: {e}");
    if !w.starts_from_disk() {
        for frame in start {
            sender.ingest(frame.clone()).map_err(closed)?;
        }
    }
    sender.query().map_err(|_| "handle closed".to_string())?;
    let mut rung = Rung {
        frame_us: Vec::with_capacity(raw.len()),
        query_us: Vec::with_capacity(raw.len()),
        answer: Solution::empty(),
    };
    for frame in raw {
        let batch = frame.clone();
        let t0 = Instant::now();
        sender.ingest(batch).map_err(closed)?;
        let tq = Instant::now();
        let answer = sender.query().map_err(|_| "handle closed".to_string())?;
        let t1 = Instant::now();
        rung.frame_us.push(us(t1 - t0));
        rung.query_us.push(us(t1 - tq));
        rung.answer = answer;
    }

    let mut full_retries = 0u64;
    let mut query_us = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let pushers: Vec<_> = conns
            .iter()
            .map(|frames| {
                let mut sender = handle.sender();
                let frames = &frames[..raw.len().min(frames.len())];
                scope.spawn(move || -> Result<u64, String> {
                    let mut retries = 0u64;
                    let (t0, period) = (Instant::now(), w.load.period());
                    for (i, frame) in frames.iter().take(PACED_PROBE_FRAMES).enumerate() {
                        let due = t0 + period * i as u32;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let mut batch = frame.clone();
                        loop {
                            match sender.try_ingest(batch) {
                                Ok(()) => break,
                                Err(IngestError::Full(back)) => {
                                    retries += 1;
                                    batch = back;
                                    std::thread::sleep(FULL_BACKOFF);
                                }
                                Err(e) => return Err(format!("probe ingest: {e}")),
                            }
                        }
                    }
                    Ok(retries)
                })
            })
            .collect();
        // Queries beside the pushers, as the workload's readers see them.
        while pushers.iter().any(|p| !p.is_finished()) {
            let started = Instant::now();
            handle.query().map_err(|_| "handle closed".to_string())?;
            query_us.push(us(started.elapsed()));
        }
        for pusher in pushers {
            full_retries += pusher.join().expect("probe thread panicked")?;
        }
        Ok(())
    })?;
    let stats = handle.stats().map_err(|_| "handle closed".to_string())?;
    handle.shutdown();
    Ok((
        rung,
        QueueProbe {
            depth_max: stats.max_queue_depth,
            full_retries,
            query_us,
        },
    ))
}

struct EngineRung {
    rung: Rung,
    resolve_nanos: u64,
    window_sets: Vec<InfluenceSet>,
}

/// Rung 3: `SimEngine` called directly.
fn engine_rung(
    config: SimConfig,
    kind: FrameworkKind,
    start: &[Vec<Action>],
    timed: &[Vec<Action>],
) -> EngineRung {
    let mut engine = SimEngine::new(config, kind);
    for frame in start {
        engine.ingest_batch(frame);
    }
    let mut rung = Rung {
        frame_us: Vec::with_capacity(timed.len()),
        query_us: Vec::with_capacity(timed.len()),
        answer: engine.query(),
    };
    let mut resolve_nanos = 0u64;
    for frame in timed {
        let t0 = Instant::now();
        let (_, breakdown) = engine.ingest_batch_traced(frame);
        let tq = Instant::now();
        rung.answer = engine.query();
        let t1 = Instant::now();
        rung.frame_us.push(us(t1 - t0));
        rung.query_us.push(us(t1 - tq));
        resolve_nanos += breakdown.resolve_nanos;
    }
    let window_sets = engine
        .window_influence_sets()
        .iter()
        .map(|(_, set)| set.clone())
        .collect();
    EngineRung {
        rung,
        resolve_nanos,
        window_sets,
    }
}

/// One slide as the engine hands it to its framework.
struct Slide {
    new_users: Vec<UserId>,
    resolved: Vec<ResolvedAction>,
    window_start: u64,
}

struct Prepared {
    start: Vec<Slide>,
    timed: Vec<Slide>,
    interner: UserInterner,
    timed_ancestors: u64,
}

/// Resolves every frame the way `SimEngine` does (propagation index,
/// interner, window boundary), untimed, so the framework rung feeds the
/// framework alone.  Every frame is exactly one slide.
fn prepare(config: SimConfig, start: &[Vec<Action>], timed: &[Vec<Action>]) -> Prepared {
    let mut index = PropagationIndex::new();
    let mut interner = UserInterner::new();
    let mut window = SlidingWindow::new(config.window_size);
    let mut timed_ancestors = 0u64;
    let mut slide = |frame: &[Action], ancestors: &mut u64| -> Slide {
        let registered = interner.len();
        let resolved = frame
            .iter()
            .map(|action| {
                let updated = index.insert(action);
                let (actor, rest) = updated.split_first().expect("non-empty update set");
                *ancestors += rest.len() as u64;
                ResolvedAction {
                    id: action.id.0,
                    actor: interner.intern(*actor),
                    ancestors: rest.iter().map(|&u| interner.intern(u)).collect(),
                }
            })
            .collect();
        for &action in frame {
            window.push(action);
        }
        Slide {
            new_users: interner.raws()[registered..].to_vec(),
            resolved,
            window_start: window.oldest_id().map_or(1, |a| a.0),
        }
    };
    let mut ignored = 0u64;
    let start = start.iter().map(|f| slide(f, &mut ignored)).collect();
    let timed = timed
        .iter()
        .map(|f| slide(f, &mut timed_ancestors))
        .collect();
    Prepared {
        start,
        timed,
        interner,
        timed_ancestors,
    }
}

struct FrameworkRung {
    rung: Rung,
    checkpoints_mean: f64,
    /// Oracle updates held by the live checkpoints per window action,
    /// averaged over the timed slides (the live total drops whenever a
    /// checkpoint retires, so a difference of totals is no count of work).
    oracle_updates_per_action: f64,
    pool: PoolStats,
}

/// Rung 4: the checkpoint framework alone, fed pre-resolved slides.
fn framework_rung(config: SimConfig, kind: FrameworkKind, prepared: &Prepared) -> FrameworkRung {
    let mut framework: Box<dyn Framework> = match kind {
        FrameworkKind::Sic => Box::new(SicFramework::new(config)),
        FrameworkKind::Ic => Box::new(IcFramework::new(config)),
    };
    fn feed(framework: &mut Box<dyn Framework>, slide: &Slide) {
        framework.register_users(&slide.new_users);
        framework.process_slide(&slide.resolved, slide.window_start);
    }
    for slide in &prepared.start {
        feed(&mut framework, slide);
    }
    let mut rung = Rung {
        frame_us: Vec::with_capacity(prepared.timed.len()),
        query_us: Vec::with_capacity(prepared.timed.len()),
        answer: Solution::empty(),
    };
    let mut checkpoints = 0usize;
    let mut updates = 0u64;
    for slide in &prepared.timed {
        let t0 = Instant::now();
        feed(&mut framework, slide);
        let tq = Instant::now();
        rung.answer = framework.query();
        let t1 = Instant::now();
        rung.frame_us.push(us(t1 - t0));
        rung.query_us.push(us(t1 - tq));
        checkpoints += framework.checkpoint_count();
        updates += framework.oracle_updates();
    }
    for seed in &mut rung.answer.seeds {
        *seed = prepared.interner.raw(*seed);
    }
    let slides = prepared.timed.len().max(1) as f64;
    FrameworkRung {
        checkpoints_mean: checkpoints as f64 / slides,
        oracle_updates_per_action: updates as f64 / slides / config.window_size as f64,
        pool: framework.pool_stats(),
        rung,
    }
}

/// Repeats `pass` until [`PROBE_TIME`] has elapsed; nanoseconds per unit
/// of the work counts it returns.
fn repeat(mut pass: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut units = 0u64;
    while started.elapsed() < PROBE_TIME {
        units += pass();
    }
    started.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// `INGEST` frame parsing, payload codec included, per action.
fn decode_probe(frames: &[Vec<u8>]) -> Result<f64, String> {
    for frame in frames {
        match parse_frame(frame) {
            Ok(Some((Frame::Ingest { .. }, n))) if n == frame.len() => {}
            other => return Err(format!("frame does not parse back: {other:?}")),
        }
    }
    Ok(repeat(|| {
        let mut actions = 0u64;
        for frame in frames {
            if let Ok(Some((Frame::Ingest { actions: a, .. }, _))) =
                parse_frame(std::hint::black_box(frame))
            {
                actions += a.len() as u64;
            }
        }
        actions
    }))
}

/// `recover_engine` over copies of the seeded directory: median
/// milliseconds of three recoveries, and the recovered answer.
fn recover_probe(
    w: &Workload,
    work: &WorkDir,
    template: &std::path::Path,
) -> Result<(f64, Solution), String> {
    let mut times = Vec::new();
    let mut answer = Solution::empty();
    for rep in 0..3 {
        let dir = work.join(&format!("recover-{rep}"));
        copy_dir(template, &dir).map_err(|e| format!("copy seeded dir: {e}"))?;
        let started = Instant::now();
        let outcome = recover_engine(w.config(), w.kind, &dir);
        times.push(started.elapsed().as_secs_f64() * 1e3);
        if !outcome.used_snapshot {
            return Err(format!(
                "recovery ignored the snapshot: {:?}",
                outcome.notes
            ));
        }
        answer = outcome.engine.query();
    }
    Ok((median(&times), answer))
}

/// The coverage kernels over the window's influence sets, each op timed in
/// a loop of its own: absorbs of every other set into a fresh state, and
/// marginal-gain probes of every set against that filled state (the
/// SieveStreaming mix of one probe per set and one absorb per admitted
/// set, split so that each op gets its own figure).
fn coverage_probe(sets: &[InfluenceSet]) -> (f64, f64) {
    let absorbed: Vec<&InfluenceSet> = sets.iter().step_by(2).collect();
    let absorb = repeat(|| {
        let mut state = CoverageState::default();
        let mut sum = 0.0;
        for set in &absorbed {
            sum += state.absorb(&UnitWeight, set);
        }
        std::hint::black_box(sum);
        absorbed.len() as u64
    });
    let mut filled = CoverageState::default();
    for set in &absorbed {
        filled.absorb(&UnitWeight, set);
    }
    let marginal = repeat(|| {
        let mut sum = 0.0;
        for set in sets {
            sum += filled.marginal_gain(&UnitWeight, std::hint::black_box(set));
        }
        std::hint::black_box(sum);
        sets.len() as u64
    });
    (marginal, absorb)
}
