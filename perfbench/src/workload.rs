//! The three traffic mixes and the inputs they replay.
//!
//! Inputs come from the workload seed alone and are generated before any
//! clock starts.  Every frame is exactly one slide (`L` actions), so the
//! server's per-frame slide cuts match an offline replay of the same
//! frames, and every timed frame carries a `QUERY` pipelined right behind
//! it, whose `SOLUTION` shows when the frame became visible.

use rtim_core::{write_snapshot_atomic, FrameworkKind, SimConfig, SimEngine, SNAPSHOT_FILE};
use rtim_datagen::{DatasetConfig, DatasetKind, Scale};
use rtim_stream::{Action, ActionId, Fs, SegmentedJournal};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// How the load generator drives the server.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: one frame every `period` on one connection whatever the
    /// server does.  With a `reader_gap`, a second connection sends `QUERY`
    /// in lockstep, on each reply but at most one per gap (a reader
    /// spinning as fast as replies return would take a whole core of a
    /// two-core host).
    OpenLoop {
        period: Duration,
        reader_gap: Option<Duration>,
    },
    /// `connections` connections, each sending one frame every `period`
    /// with its `QUERY` right behind it, and waiting for the `SOLUTION`
    /// before the next frame: a fixed offered load well under
    /// capacity, so per-frame costs show as latency and CPU rather than as
    /// a throughput that drifts with the host.
    Lockstep {
        connections: usize,
        period: Duration,
    },
}

impl Load {
    pub fn connections(&self) -> usize {
        match *self {
            Load::Lockstep { connections, .. } => connections,
            Load::OpenLoop { reader_gap, .. } => 1 + usize::from(reader_gap.is_some()),
        }
    }

    /// Time between two frames of one sending connection.
    pub fn period(&self) -> Duration {
        match *self {
            Load::OpenLoop { period, .. } | Load::Lockstep { period, .. } => period,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetKind,
    pub kind: FrameworkKind,
    pub window: usize,
    pub slide: usize,
    pub users: u32,
    pub k: usize,
    pub beta: f64,
    /// Shard-pool width of the served engine.
    pub threads: usize,
    /// Persistence with a background snapshot every this many slides.
    pub snapshot_every: Option<u64>,
    pub load: Load,
    /// Actions generated per connection for the timed phase: a fixed
    /// length, so the trace's cascade shape never depends on run length.
    pub timed_actions: u64,
    /// Frames each ladder rung times in the traced run.
    pub ladder_frames: usize,
    /// Journal batches behind the snapshot in a seeded directory.
    pub tail_frames: usize,
}

pub const NAMES: [&str; 3] = ["reddit-ingest", "twitter-query", "durable-frames"];

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "reddit-ingest" => Workload {
            name: "reddit-ingest",
            dataset: DatasetKind::Reddit,
            kind: FrameworkKind::Sic,
            window: 20_000,
            slide: 1_000,
            users: 20_000,
            k: 50,
            beta: 0.1,
            threads: 2,
            snapshot_every: None,
            // 1 000 actions every 100 ms: 10 000 actions/s, about half of
            // what the engine sustains here.  A closed loop at saturation
            // keeps both cores of a two-core host busy, and its throughput
            // then moved by up to 30% from run to run with the host.
            load: Load::OpenLoop {
                period: Duration::from_millis(100),
                reader_gap: None,
            },
            timed_actions: 1_500_000,
            ladder_frames: 60,
            tail_frames: 30,
        },
        "twitter-query" => Workload {
            name: "twitter-query",
            dataset: DatasetKind::Twitter,
            kind: FrameworkKind::Ic,
            window: 20_000,
            slide: 500,
            users: 20_000,
            k: 50,
            beta: 0.1,
            threads: 2,
            snapshot_every: None,
            // 500 actions every 50 ms: 10 000 actions/s, an absolute rate
            // of about a third of what the engine sustains.  At 20 000
            // actions/s a slide took three quarters of its period, and on
            // a slower host phase frames queued behind each other, which
            // spread fresh_ms by 20-40% from run to run.
            load: Load::OpenLoop {
                period: Duration::from_millis(50),
                reader_gap: Some(Duration::from_millis(1)),
            },
            timed_actions: 1_300_000,
            ladder_frames: 200,
            tail_frames: 30,
        },
        "durable-frames" => Workload {
            name: "durable-frames",
            dataset: DatasetKind::SynN,
            kind: FrameworkKind::Sic,
            window: 2_000,
            slide: 20,
            users: 2_000,
            k: 10,
            beta: 0.2,
            threads: 1,
            snapshot_every: Some(50),
            // 2 × 100 frames of 20 actions per second: 4 000 actions/s.  A
            // background snapshot every 50 slides stalls the engine for
            // 10 ms or more on a two-core host; at a 4 ms period the
            // generator's p99 send was 8-17 ms behind its schedule.
            load: Load::Lockstep {
                connections: 2,
                period: Duration::from_millis(10),
            },
            timed_actions: 2_000_000,
            ladder_frames: 1_000,
            // Long enough that replaying it, not starting a process,
            // dominates set-up time.
            tail_frames: 250,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.k, self.beta, self.window, self.slide).with_threads(self.threads)
    }

    /// A toy-size variant with the same shape, for the self-test.
    pub fn toy(mut self) -> Workload {
        self.window /= 10;
        self.slide = (self.slide / 10).max(2);
        self.users = (self.users / 10).max(100);
        self.timed_actions = (self.timed_actions / 20).max(20_000);
        self.ladder_frames = (self.ladder_frames / 10).max(10);
        self
    }

    pub fn frames_per_window(&self) -> usize {
        self.window / self.slide
    }

    /// The trace of stream `index` for `seed` (index 0 fills the window;
    /// later indexes are per-connection streams in their own id spaces).
    fn stream(&self, seed: u64, index: u64, actions: u64) -> Vec<Action> {
        DatasetConfig::new(self.dataset, Scale::Small)
            .with_users(self.users)
            .with_actions(actions)
            .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(index))
            .generate()
            .actions()
            .to_vec()
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        let warm_frames = self.frames_per_window();
        let start_actions = ((warm_frames + self.tail_frames) * self.slide) as u64;
        let frames = |actions: Vec<Action>| -> Vec<Vec<Action>> {
            actions.chunks(self.slide).map(<[Action]>::to_vec).collect()
        };
        match self.load {
            // One id space: the timed frames continue the warm stream.
            Load::OpenLoop { .. } => {
                let mut warm = frames(self.stream(seed, 0, start_actions + self.timed_actions));
                let timed = warm.split_off(warm_frames);
                Inputs {
                    warm,
                    tail: timed[..self.tail_frames].to_vec(),
                    conns: vec![timed],
                }
            }
            // The server restarts on a seeded directory; each connection
            // then streams a trace of its own.
            Load::Lockstep { connections, .. } => {
                let mut start = frames(self.stream(seed, 0, start_actions));
                let tail = start.split_off(warm_frames);
                Inputs {
                    warm: start,
                    tail,
                    conns: (1..=connections as u64)
                        .map(|c| frames(self.stream(seed, c, self.timed_actions)))
                        .collect(),
                }
            }
        }
    }

    /// Whether the server starts from a seeded persistence directory
    /// holding the warm frames and tail, instead of filling its window
    /// over the wire.
    pub fn starts_from_disk(&self) -> bool {
        self.snapshot_every.is_some()
    }
}

pub struct Inputs {
    /// Frames filling the window.
    pub warm: Vec<Vec<Action>>,
    /// `tail_frames` frames after the warm frames: the journal tail of a
    /// seeded directory.  Without persistence these are the first timed
    /// frames, and only the ladder's persistence probes use them as a tail.
    pub tail: Vec<Vec<Action>>,
    /// Timed frames per connection.
    pub conns: Vec<Vec<Vec<Action>>>,
}

impl Inputs {
    /// The frames the served engine holds when timing starts, in order:
    /// the warm frames sent over the wire, or the warm frames and tail
    /// recovered from a seeded directory.
    pub fn start_frames<'a>(&'a self, w: &Workload) -> impl Iterator<Item = &'a [Action]> {
        let tail: &[Vec<Action>] = if w.starts_from_disk() {
            &self.tail
        } else {
            &[]
        };
        self.warm.iter().chain(tail).map(Vec::as_slice)
    }

    /// Actions in [`Inputs::start_frames`].
    pub fn start_actions(&self, w: &Workload) -> u64 {
        self.start_frames(w).map(|f| f.len() as u64).sum()
    }
}

/// Shifts a connection's frames onto the global ids the server assigns a
/// single sender whose first action follows `offset` earlier actions.
pub fn rebase(frames: &[Vec<Action>], offset: u64) -> Vec<Vec<Action>> {
    frames
        .iter()
        .map(|f| {
            f.iter()
                .map(|a| Action {
                    id: ActionId(a.id.0 + offset),
                    user: a.user,
                    parent: a.parent.map(|p| ActionId(p.0 + offset)),
                })
                .collect()
        })
        .collect()
}

/// Timings taken while writing a seeded directory.
pub struct SeedTimings {
    /// Per-batch journal append times.
    pub append: Vec<Duration>,
    /// Snapshot capture + encode + atomic write.
    pub snapshot: Duration,
    pub snapshot_bytes: u64,
    pub journal_bytes: u64,
}

/// Writes `dir` as a server restarting after a crash finds it: a snapshot
/// of the engine after `snapshot_frames`, then a journal tail of
/// `tail_frames` past its watermark.
pub fn seed_dir(
    dir: &Path,
    w: &Workload,
    snapshot_frames: &[Vec<Action>],
    tail_frames: &[Vec<Action>],
) -> io::Result<SeedTimings> {
    std::fs::create_dir_all(dir)?;
    let mut engine = SimEngine::new(w.config(), w.kind);
    for frame in snapshot_frames {
        engine.ingest_batch(frame);
    }
    let started = Instant::now();
    let snapshot = engine
        .snapshot()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let snapshot_bytes = write_snapshot_atomic(dir.join(SNAPSHOT_FILE), &snapshot)?;
    let snapshot_time = started.elapsed();
    let mut journal = SegmentedJournal::open_dir(dir, &Fs::real(), 0)?;
    let mut append = Vec::with_capacity(tail_frames.len());
    for frame in tail_frames {
        let started = Instant::now();
        journal.append_batch(frame)?;
        append.push(started.elapsed());
    }
    journal.sync()?;
    let journal_bytes = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("journal"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok(SeedTimings {
        append,
        snapshot: snapshot_time,
        snapshot_bytes,
        journal_bytes,
    })
}

/// Copies a flat directory (a seeded template) to `to`, replacing it.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_core::recover_engine;

    #[test]
    fn inputs_are_slide_aligned_and_seed_determined() {
        let w = by_name("reddit-ingest").unwrap().toy();
        let a = w.inputs(3);
        let b = w.inputs(3);
        assert_eq!(a.warm, b.warm);
        assert_eq!(a.conns, b.conns);
        assert_eq!(a.warm.len(), w.frames_per_window());
        assert_eq!(a.tail.len(), w.tail_frames);
        assert!(a.conns[0].iter().all(|f| f.len() == w.slide));
        // The timed frames continue the warm stream's id space.
        let last_warm = a.warm.last().unwrap().last().unwrap().id.0;
        assert_eq!(a.conns[0][0][0].id.0, last_warm + 1);
        assert_eq!(a.tail[..], a.conns[0][..w.tail_frames]);
        assert_ne!(w.inputs(4).warm, a.warm);
    }

    #[test]
    fn seeded_dir_recovers_to_the_replayed_state() {
        let w = by_name("durable-frames").unwrap().toy();
        let inputs = w.inputs(1);
        let dir = std::env::temp_dir().join(format!("perfbench-seed-{}", std::process::id()));
        let timings = seed_dir(&dir, &w, &inputs.warm, &inputs.tail).unwrap();
        assert_eq!(timings.append.len(), w.tail_frames);
        assert!(timings.snapshot_bytes > 0 && timings.journal_bytes > 0);
        let recovered = recover_engine(w.config(), w.kind, &dir);
        assert!(recovered.used_snapshot, "{:?}", recovered.notes);
        let mut replay = SimEngine::new(w.config(), w.kind);
        for f in inputs.start_frames(&w) {
            replay.ingest_batch(f);
        }
        assert_eq!(recovered.engine.query(), replay.query());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebase_shifts_ids_and_parents() {
        let frames = vec![vec![
            Action::root(1u64, 7u32),
            Action::reply(2u64, 8u32, 1u64),
        ]];
        let r = rebase(&frames, 10);
        assert_eq!(r[0][0].id.0, 11);
        assert_eq!(r[0][1].parent, Some(ActionId(11)));
    }
}
