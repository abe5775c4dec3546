//! Persistent sharded checkpoint worker pool.
//!
//! Checkpoints are mutually independent: every checkpoint replays the same
//! slide of resolved actions against its own private state, so slides can be
//! fanned out across workers without any cross-checkpoint synchronization.
//! A [`ShardPool`] spawns its workers **once** (per engine) rather than per
//! slide and keeps them alive for the lifetime of the pool, which is the
//! shape a long-running ingest server needs.
//!
//! ## Shard-ownership model
//!
//! * Each worker thread *owns* its shard of [`Checkpoint`]s outright — the
//!   checkpoints are moved into the worker on [`ShardPool::add`] and never
//!   aliased, so no locking is involved anywhere on the hot path.
//! * The pool (on the caller's thread) keeps only the *assignment map*
//!   (checkpoint start id → worker) and per-worker load counts; the start id
//!   is a stable unique key because both frameworks create checkpoints at
//!   strictly increasing stream positions.
//! * A slide is broadcast to all workers as one `Arc<[ResolvedAction]>` —
//!   one allocation per slide, shared by every shard, never cloned per
//!   checkpoint.  Workers reply with per-checkpoint
//!   [`CheckpointStat`]s (start, value, update count), which is all the
//!   frameworks need for pruning/eviction decisions, plus each
//!   checkpoint's seed list — so answering a query never crosses a worker
//!   channel.
//! * New checkpoints go to the least-loaded worker (lowest index on ties),
//!   and [`ShardPool::remove`] rebalances whenever shard sizes drift apart
//!   by ≥ 3 — SIC's pruning and IC's rotation both delete checkpoints in
//!   patterns that would otherwise starve some shards.  (The slack of 2
//!   leaves room for the timing-driven migrations below without the two
//!   mechanisms thrashing against each other.)
//!
//! ## Adaptive, timing-driven placement
//!
//! Checkpoint *counts* are a poor proxy for shard cost: an old checkpoint
//! has accumulated large influence sets and can cost an order of magnitude
//! more per slide than a fresh one.  Every worker therefore times its feed
//! round and reports `feed_nanos` with its stats; the pool folds these into
//! a per-shard EWMA and, when the measured skew exceeds
//! [`AdaptiveConfig::skew_ratio`] (plus gates: an absolute floor, a
//! post-migration cooldown, and a no-count-skew guard), migrates the
//! *oldest* checkpoint of the hottest shard to the coldest shard — at a
//! slide boundary, through the same Extract/Add machinery rebalancing uses.
//!
//! Migrating whole checkpoints is what keeps this safe: a checkpoint's
//! arithmetic is completely determined by the slides it observes, never by
//! which worker hosts it, so placement decisions (even timing-driven,
//! inherently non-deterministic ones) cannot change any result bit.  See
//! `docs/PERF.md` for the invariant writeup and knob guidance.
//!
//! ## Determinism
//!
//! Results are bit-for-bit identical to sequential processing: each
//! checkpoint still observes the slide in stream order against its own
//! state, and shard placement never influences any checkpoint's arithmetic.
//! The determinism property tests in `tests/determinism.rs` assert this for
//! both frameworks at 2–8 workers, including under an aggressive adaptive
//! configuration that migrates constantly.
//!
//! ## Shutdown
//!
//! Dropping the pool sends every worker a shutdown message and joins it; a
//! worker panic is re-raised on the caller's thread at that point (unless
//! the caller is already panicking).

use crate::framework::ResolvedAction;
use crate::snapshot::CheckpointState;
use crate::ssm::Checkpoint;
use rtim_stream::{UserId, WordArena};
use rtim_submodular::{DenseWeights, OracleCounters};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-checkpoint summary returned by a feed round: everything the
/// frameworks need to make pruning/eviction decisions without touching the
/// checkpoint itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointStat {
    /// First action id covered by the checkpoint (its unique key).
    pub start: u64,
    /// Influence value `Λ_t[i]` after the feed.
    pub value: f64,
    /// Total oracle element updates performed by this checkpoint so far.
    pub updates: u64,
    /// The checkpoint oracle's outcome counters.
    pub counters: OracleCounters,
}

/// Knobs of the timing-driven adaptive placement (see the
/// [module docs](self)).  Runtime-only state — deliberately **not** part of
/// [`SimConfig`](crate::SimConfig) or the snapshot codec: placement never
/// affects results, so the knobs need no durability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor `α ∈ (0, 1]` applied to per-shard feed nanos
    /// (`ewma ← α·measured + (1−α)·ewma`).  Higher reacts faster, lower
    /// rides out noise.
    pub alpha: f64,
    /// Migration trigger: the hottest shard's EWMA must exceed the coldest
    /// shard's by at least this ratio.
    pub skew_ratio: f64,
    /// Absolute floor: no migration while the hottest shard's EWMA is
    /// below this many nanoseconds per slide (skew between trivially cheap
    /// shards is all noise).
    pub min_nanos: f64,
    /// Slides to wait after a migration before considering the next one
    /// (lets the EWMAs re-converge on the new placement).
    pub cooldown_slides: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            alpha: 0.3,
            skew_ratio: 1.5,
            min_nanos: 200_000.0,
            cooldown_slides: 4,
        }
    }
}

impl AdaptiveConfig {
    /// A maximally trigger-happy configuration (no floor, no cooldown,
    /// any skew migrates).  Used by the determinism proptests to force
    /// constant migration; not a sensible production setting.
    pub fn aggressive() -> Self {
        AdaptiveConfig {
            alpha: 1.0,
            skew_ratio: 1.0,
            min_nanos: 0.0,
            cooldown_slides: 0,
        }
    }
}

/// Observability snapshot of the adaptive pool, surfaced on
/// [`EngineStats`](crate::EngineStats) and the server `STATS` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkpoints migrated between shards by the adaptive placement since
    /// the pool was created.
    pub migrations: u64,
    /// Smallest per-shard feed-time EWMA, in nanoseconds (rounded).
    pub ewma_min_nanos: u64,
    /// Largest per-shard feed-time EWMA, in nanoseconds (rounded).
    pub ewma_max_nanos: u64,
    /// Cumulative bitmap word-vectors requested from the workers' slide
    /// arenas (summed across shards).
    pub arena_takes: u64,
    /// Of [`PoolStats::arena_takes`], how many were served from the
    /// recycled free lists instead of fresh allocations.
    pub arena_hits: u64,
}

/// What one worker reports back with each feed round: its wall-clock span
/// for the slide plus the cumulative allocation counters of its private
/// [`WordArena`].  The pool retains the latest report per shard so the
/// engine can emit per-shard trace spans without extra channel traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFeedReport {
    /// Wall-clock nanoseconds the worker spent on the slide.
    pub nanos: u64,
    /// Cumulative arena take count (see [`rtim_stream::WordArena::stats`]).
    pub arena_takes: u64,
    /// Cumulative arena free-list hits.
    pub arena_hits: u64,
}

/// Messages from the pool to a worker.
enum ShardMsg {
    /// Process a slide against every checkpoint in the shard and reply with
    /// `ShardReply::Fed` (stats and seed lists).  The second field is the
    /// element-weight update: `None` for the cardinality objective,
    /// `Some(delta)` to append the dense weights of users interned since
    /// the previous feed to the worker's local weight table (every worker
    /// maintains an identical copy; deltas are broadcast once as a shared
    /// allocation).
    Feed(Arc<[ResolvedAction]>, Option<Arc<[f64]>>),
    /// Adopt a checkpoint into the shard (no reply).
    Add(Box<Checkpoint>),
    /// Delete the checkpoint with this start id (no reply).
    Remove(u64),
    /// Remove the checkpoint with this start id and send it back
    /// (`ShardReply::Extracted`) — used for rebalancing.
    Extract(u64),
    /// Reply with the serializable state of every checkpoint in the shard
    /// (`None` if any oracle lacks snapshot support).
    Snapshot,
    /// Exit the worker loop.
    Shutdown,
}

/// Replies from a worker to the pool.
enum ShardReply {
    /// Per-checkpoint stats and seed lists plus the worker's feed report
    /// (span nanos for the adaptive placement and trace spans, arena
    /// counters for the allocation gauges).
    Fed(Vec<(CheckpointStat, Vec<UserId>)>, WorkerFeedReport),
    Extracted(Box<Checkpoint>),
    Snapshot(Option<Vec<CheckpointState>>),
}

struct Worker {
    tx: Sender<ShardMsg>,
    rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
}

/// A persistent pool of worker threads, each owning a stable shard of
/// checkpoints, fed window slides over channels.
///
/// See the [module docs](self) for the ownership and determinism model.
pub struct ShardPool {
    workers: Vec<Worker>,
    /// Checkpoint start id → index of the owning worker.
    assignment: HashMap<u64, usize>,
    /// Number of checkpoints currently owned by each worker.
    counts: Vec<usize>,
    /// Adaptive-placement knobs (see [`AdaptiveConfig`]).
    adaptive: AdaptiveConfig,
    /// Per-shard feed-time EWMA in nanoseconds (`0` until first feed).
    ewma: Vec<f64>,
    /// Slides remaining before the next migration is considered.
    cooldown: u32,
    /// Checkpoints migrated by the adaptive placement so far.
    migrations: u64,
    /// Latest per-worker feed report (all-zero until the first feed).
    last_feed: Vec<WorkerFeedReport>,
}

impl ShardPool {
    /// Spawns `threads` workers (at least 1), alive until the pool is
    /// dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = (0..threads)
            .map(|i| {
                let (msg_tx, msg_rx) = channel::<ShardMsg>();
                let (reply_tx, reply_rx) = channel::<ShardReply>();
                let join = std::thread::Builder::new()
                    .name(format!("rtim-shard-{i}"))
                    .spawn(move || worker_loop(msg_rx, reply_tx))
                    .expect("spawn shard worker");
                Worker {
                    tx: msg_tx,
                    rx: reply_rx,
                    join: Some(join),
                }
            })
            .collect();
        ShardPool {
            workers,
            assignment: HashMap::new(),
            counts: vec![0; threads],
            adaptive: AdaptiveConfig::default(),
            ewma: vec![0.0; threads],
            cooldown: 0,
            migrations: 0,
            last_feed: vec![WorkerFeedReport::default(); threads],
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Replaces the adaptive-placement knobs (takes effect from the next
    /// feed round; never affects results, only where checkpoints live).
    pub fn set_adaptive(&mut self, config: AdaptiveConfig) {
        self.adaptive = config;
    }

    /// The current adaptive-placement knobs.
    pub fn adaptive(&self) -> AdaptiveConfig {
        self.adaptive
    }

    /// Migration count and the current EWMA spread (observability; see
    /// [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &e in &self.ewma {
            lo = lo.min(e);
            hi = hi.max(e);
        }
        PoolStats {
            migrations: self.migrations,
            ewma_min_nanos: if lo.is_finite() { lo as u64 } else { 0 },
            ewma_max_nanos: hi as u64,
            arena_takes: self.last_feed.iter().map(|r| r.arena_takes).sum(),
            arena_hits: self.last_feed.iter().map(|r| r.arena_hits).sum(),
        }
    }

    /// The latest per-worker feed report, indexed by shard (all-zero
    /// entries until the first feed).  Input to the engine's per-shard
    /// trace spans.
    pub fn last_feed_reports(&self) -> &[WorkerFeedReport] {
        &self.last_feed
    }

    /// Number of checkpoints currently owned across all shards.
    pub fn checkpoint_count(&self) -> usize {
        self.assignment.len()
    }

    /// Moves a checkpoint into the least-loaded shard (lowest worker index
    /// on ties, so placement is deterministic).
    ///
    /// # Panics
    /// Panics if a checkpoint with the same start id is already pooled.
    pub fn add(&mut self, checkpoint: Checkpoint) {
        let start = checkpoint.start();
        assert!(
            !self.assignment.contains_key(&start),
            "checkpoint starting at {start} already pooled"
        );
        let target = self.least_loaded();
        self.send(target, ShardMsg::Add(Box::new(checkpoint)));
        self.assignment.insert(start, target);
        self.counts[target] += 1;
    }

    /// Broadcasts one slide to every shard and gathers each checkpoint's
    /// stats and seed list (in no particular order — keyed by `start`).
    ///
    /// `weight_delta` is `None` for the cardinality objective; for weighted
    /// objectives it carries the dense weights of users interned since the
    /// previous feed, which every worker appends to its local table.
    pub fn feed(
        &mut self,
        slide: &[ResolvedAction],
        weight_delta: Option<&[f64]>,
    ) -> Vec<(CheckpointStat, Vec<UserId>)> {
        let shared: Arc<[ResolvedAction]> = slide.into();
        let shared_delta: Option<Arc<[f64]>> = weight_delta.map(Into::into);
        for i in 0..self.workers.len() {
            self.send(i, ShardMsg::Feed(shared.clone(), shared_delta.clone()));
        }
        let mut stats = Vec::with_capacity(self.assignment.len());
        for i in 0..self.workers.len() {
            match self.recv(i) {
                ShardReply::Fed(s, report) => {
                    stats.extend(s);
                    self.observe_feed_nanos(i, report.nanos);
                    self.last_feed[i] = report;
                }
                _ => unreachable!("worker answered Feed with a non-Fed reply"),
            }
        }
        self.adapt();
        stats
    }

    /// Folds one measured per-shard feed time into the EWMA.
    fn observe_feed_nanos(&mut self, worker: usize, nanos: u64) {
        let alpha = self.adaptive.alpha.clamp(0.0, 1.0);
        let e = &mut self.ewma[worker];
        *e = if *e <= 0.0 {
            nanos as f64
        } else {
            alpha * nanos as f64 + (1.0 - alpha) * *e
        };
    }

    /// Timing-driven migration, run once per feed round (i.e. at slide
    /// boundaries only): moves the oldest checkpoint of the hottest shard
    /// to the coldest shard when the measured skew warrants it.
    ///
    /// Whole-checkpoint moves cannot change results — a checkpoint's
    /// arithmetic depends only on the slides it observes (see the module
    /// docs) — so the gates below are pure performance heuristics.
    fn adapt(&mut self) {
        if self.workers.len() < 2 || self.assignment.is_empty() {
            return;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        let (mut hot, mut cold) = (0usize, 0usize);
        for (i, &e) in self.ewma.iter().enumerate() {
            if e > self.ewma[hot] {
                hot = i;
            }
            if e < self.ewma[cold] {
                cold = i;
            }
        }
        if hot == cold || self.counts[hot] == 0 {
            return;
        }
        if self.ewma[hot] < self.adaptive.min_nanos {
            return;
        }
        if self.ewma[hot] < self.adaptive.skew_ratio * self.ewma[cold].max(1.0) {
            return;
        }
        // Never create count skew the count-based rebalancer (slack 2)
        // would bounce straight back: after the move the cold shard may
        // hold at most one more checkpoint than the hot one.
        if self.counts[cold] > self.counts[hot] {
            return;
        }
        // Oldest checkpoint first: it has accumulated the largest
        // influence sets, so it is the likeliest cause of the skew (and a
        // deterministic choice).
        let moved = self
            .assignment
            .iter()
            .filter(|&(_, &w)| w == hot)
            .map(|(&start, _)| start)
            .min()
            .expect("hot shard is non-empty");
        self.transfer(moved, hot, cold);
        self.migrations += 1;
        self.cooldown = self.adaptive.cooldown_slides;
        // The placement just changed under both EWMAs; meet in the middle
        // and let fresh measurements re-skew if the move was not enough.
        let mid = (self.ewma[hot] + self.ewma[cold]) / 2.0;
        self.ewma[hot] = mid;
        self.ewma[cold] = mid;
    }

    /// Moves the checkpoint with start id `moved` from shard `from` to
    /// shard `to` through the worker channels, updating the bookkeeping.
    fn transfer(&mut self, moved: u64, from: usize, to: usize) {
        self.send(from, ShardMsg::Extract(moved));
        let checkpoint = match self.recv(from) {
            ShardReply::Extracted(cp) => cp,
            _ => unreachable!("worker answered Extract with a non-Extracted reply"),
        };
        self.send(to, ShardMsg::Add(checkpoint));
        self.assignment.insert(moved, to);
        self.counts[from] -= 1;
        self.counts[to] += 1;
    }

    /// Deletes the checkpoint with the given start id, then rebalances if
    /// shard sizes have drifted apart.
    pub fn remove(&mut self, start: u64) {
        let worker = self
            .assignment
            .remove(&start)
            .expect("removing a checkpoint the pool does not own");
        self.send(worker, ShardMsg::Remove(start));
        self.counts[worker] -= 1;
        self.rebalance();
    }

    /// Captures the serializable state of every pooled checkpoint, oldest
    /// first, without moving any out of its shard: one round trip per
    /// worker, all workers in parallel.  `None` if any checkpoint's oracle
    /// lacks snapshot support.
    pub fn snapshot(&self) -> Option<Vec<CheckpointState>> {
        for i in 0..self.workers.len() {
            self.send(i, ShardMsg::Snapshot);
        }
        let mut states = Vec::with_capacity(self.assignment.len());
        let mut supported = true;
        // Every reply is collected even after a `None`, so no answer is
        // left behind in a worker channel.
        for i in 0..self.workers.len() {
            match self.recv(i) {
                ShardReply::Snapshot(Some(shard)) => states.extend(shard),
                ShardReply::Snapshot(None) => supported = false,
                _ => unreachable!("worker answered Snapshot with a non-Snapshot reply"),
            }
        }
        states.sort_unstable_by_key(|s| s.start);
        supported.then_some(states)
    }

    /// Index of the worker owning the fewest checkpoints.
    fn least_loaded(&self) -> usize {
        let mut best = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c < self.counts[best] {
                best = i;
            }
        }
        best
    }

    /// Moves checkpoints from the richest to the poorest shard until shard
    /// sizes differ by at most 2.  The newest checkpoint of the richest
    /// shard moves first (deterministic choice; which checkpoint lives where
    /// never affects results, only balance).  The slack of 2 leaves the
    /// timing-driven [`Self::adapt`] room to deliberately unbalance counts
    /// by one without the two mechanisms thrashing.
    fn rebalance(&mut self) {
        loop {
            let poorest = self.least_loaded();
            let richest = self
                .counts
                .iter()
                .enumerate()
                .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .expect("pool has at least one worker");
            if self.counts[richest] <= self.counts[poorest] + 2 {
                return;
            }
            let moved = self
                .assignment
                .iter()
                .filter(|&(_, &w)| w == richest)
                .map(|(&start, _)| start)
                .max()
                .expect("richest shard is non-empty");
            self.transfer(moved, richest, poorest);
        }
    }

    fn send(&self, worker: usize, msg: ShardMsg) {
        self.workers[worker]
            .tx
            .send(msg)
            .expect("shard worker hung up");
    }

    fn recv(&self, worker: usize) -> ShardReply {
        self.workers[worker]
            .rx
            .recv()
            .expect("shard worker hung up without replying")
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for w in &self.workers {
            // A worker that already panicked has dropped its receiver; the
            // failed send is fine, the join below surfaces the panic.
            let _ = w.tx.send(ShardMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                if join.join().is_err() && !std::thread::panicking() {
                    panic!("shard worker panicked");
                }
            }
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.workers.len())
            .field("checkpoints", &self.assignment.len())
            .field("counts", &self.counts)
            .finish()
    }
}

/// The worker loop: owns its shard (plus its copy of the dense weight
/// table and its bitmap-recycling [`WordArena`]), serves messages until
/// shutdown.
fn worker_loop(rx: Receiver<ShardMsg>, tx: Sender<ShardReply>) {
    let mut shard: Vec<Checkpoint> = Vec::new();
    // `Some` once any feed carried a weight table (weighted objective).
    let mut table: Option<Vec<f64>> = None;
    // Slide-loop bitmap recycling: expired checkpoints (Remove) donate
    // their bitmap backing stores to the next slide's set promotions.
    let mut arena = WordArena::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Feed(slide, delta) => {
                if let Some(d) = delta {
                    table.get_or_insert_with(Vec::new).extend_from_slice(&d);
                }
                let weights = match &table {
                    None => DenseWeights::Unit,
                    Some(t) => DenseWeights::Table(t),
                };
                let started = std::time::Instant::now();
                let mut stats = Vec::with_capacity(shard.len());
                for cp in shard.iter_mut() {
                    for action in slide.iter() {
                        cp.process_in(action, &weights, &mut arena);
                    }
                    let stat = CheckpointStat {
                        start: cp.start(),
                        value: cp.value(),
                        updates: cp.updates(),
                        counters: cp.counters(),
                    };
                    stats.push((stat, cp.solution().seeds));
                }
                arena.end_slide();
                let (arena_takes, arena_hits) = arena.stats();
                let report = WorkerFeedReport {
                    nanos: started.elapsed().as_nanos() as u64,
                    arena_takes,
                    arena_hits,
                };
                if tx.send(ShardReply::Fed(stats, report)).is_err() {
                    break;
                }
            }
            ShardMsg::Add(cp) => shard.push(*cp),
            ShardMsg::Remove(start) => {
                if let Some(pos) = shard.iter().position(|c| c.start() == start) {
                    shard.swap_remove(pos).recycle_into(&mut arena);
                }
            }
            ShardMsg::Extract(start) => {
                let pos = shard
                    .iter()
                    .position(|c| c.start() == start)
                    .expect("extracting a checkpoint this shard does not own");
                let cp = shard.swap_remove(pos);
                if tx.send(ShardReply::Extracted(Box::new(cp))).is_err() {
                    break;
                }
            }
            ShardMsg::Snapshot => {
                let states = shard.iter().map(Checkpoint::snapshot).collect();
                if tx.send(ShardReply::Snapshot(states)).is_err() {
                    break;
                }
            }
            ShardMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::UserId;
    use rtim_submodular::{OracleConfig, OracleKind};

    fn resolved(id: u64, actor: u32, ancestors: &[u32]) -> ResolvedAction {
        ResolvedAction {
            id,
            actor: UserId(actor),
            ancestors: ancestors.iter().map(|&u| UserId(u)).collect(),
        }
    }

    fn slide() -> Vec<ResolvedAction> {
        (1..=40u64)
            .map(|t| {
                if t % 3 == 0 {
                    resolved(t, (t % 7) as u32, &[((t + 1) % 7) as u32])
                } else {
                    resolved(t, (t % 7) as u32, &[])
                }
            })
            .collect()
    }

    fn checkpoint(start: u64, k: usize) -> Checkpoint {
        Checkpoint::new(start, OracleKind::SieveStreaming, OracleConfig::new(k, 0.2))
    }

    /// Feeds `fed` sequentially to 7 checkpoints with distinct starts 1..=7
    /// and distinct k; `fed` must only contain ids ≥ 7 so every checkpoint
    /// may observe every action.
    fn sequential_stats(fed: &[ResolvedAction]) -> Vec<CheckpointStat> {
        (0..7usize)
            .map(|i| {
                let mut cp = checkpoint(1 + i as u64, 1 + (i % 4));
                for a in fed {
                    cp.process(a, &DenseWeights::Unit);
                }
                CheckpointStat {
                    start: cp.start(),
                    value: cp.value(),
                    updates: cp.updates(),
                    counters: cp.counters(),
                }
            })
            .collect()
    }

    #[test]
    fn pool_feed_matches_sequential_bit_for_bit() {
        let slide = slide();
        let fed = &slide[6..]; // ids 7..=40, observable by every checkpoint
        let expected = sequential_stats(fed);
        for threads in [1usize, 2, 4, 8] {
            let mut pool = ShardPool::new(threads);
            for i in 0..7usize {
                pool.add(checkpoint(1 + i as u64, 1 + (i % 4)));
            }
            let mut stats = pool.feed(fed, None);
            stats.sort_by_key(|(s, _)| s.start);
            for ((got, _), want) in stats.iter().zip(&expected) {
                assert_eq!(got.start, want.start);
                assert_eq!(got.value.to_bits(), want.value.to_bits());
                assert_eq!(got.updates, want.updates);
            }
        }
    }

    #[test]
    fn add_places_on_least_loaded_worker() {
        let mut pool = ShardPool::new(3);
        for i in 0..7u64 {
            pool.add(checkpoint(i + 1, 2));
        }
        assert_eq!(pool.checkpoint_count(), 7);
        let max = *pool.counts.iter().max().unwrap();
        let min = *pool.counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts: {:?}", pool.counts);
    }

    #[test]
    fn remove_rebalances_skewed_shards() {
        let mut pool = ShardPool::new(2);
        for i in 0..8u64 {
            pool.add(checkpoint(i + 1, 2));
        }
        // Worker 0 owns the odd-numbered adds (1,3,5,7 → starts 1,3,5,7).
        // Deleting three checkpoints from one shard must trigger moves.
        let victims: Vec<u64> = pool
            .assignment
            .iter()
            .filter(|&(_, &w)| w == 0)
            .map(|(&s, _)| s)
            .take(3)
            .collect();
        for v in victims {
            pool.remove(v);
        }
        let max = *pool.counts.iter().max().unwrap();
        let min = *pool.counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts: {:?}", pool.counts);
        assert_eq!(pool.checkpoint_count(), 5);
        // The moved checkpoints are still fed and still report.
        let mut fed: Vec<u64> = pool
            .feed(&slide()[8..], None)
            .iter()
            .map(|(s, _)| s.start)
            .collect();
        fed.sort_unstable();
        let mut owned: Vec<u64> = pool.assignment.keys().copied().collect();
        owned.sort_unstable();
        assert_eq!(fed, owned);
    }

    #[test]
    fn fed_replies_carry_each_checkpoints_seeds() {
        let slide = slide();
        let fed = &slide[1..]; // ids 2..=40, observable by both
        let mut pool = ShardPool::new(2);
        pool.add(checkpoint(1, 2));
        pool.add(checkpoint(2, 2));
        for (stat, seeds) in pool.feed(fed, None) {
            let mut cp = checkpoint(stat.start, 2);
            for a in fed {
                cp.process(a, &DenseWeights::Unit);
            }
            let want = cp.solution();
            assert!(want.value > 0.0 && !want.seeds.is_empty());
            assert_eq!(seeds, want.seeds);
            assert_eq!(stat.value.to_bits(), want.value.to_bits());
        }
    }

    #[test]
    fn snapshot_gathers_every_shard_oldest_first() {
        let slide = slide();
        let fed = &slide[6..];
        let mut pool = ShardPool::new(3);
        for i in 0..7u64 {
            pool.add(checkpoint(i + 1, 2));
        }
        pool.feed(fed, None);
        let states = pool.snapshot().expect("sieve checkpoints snapshot");
        let starts: Vec<u64> = states.iter().map(|s| s.start).collect();
        assert_eq!(starts, (1..=7).collect::<Vec<u64>>());
        for state in states {
            let mut cp = checkpoint(state.start, 2);
            for a in fed {
                cp.process(a, &DenseWeights::Unit);
            }
            let restored = Checkpoint::from_state(state, OracleConfig::new(2, 0.2));
            assert_eq!(restored.solution(), cp.solution());
            assert_eq!(restored.updates(), cp.updates());
        }
    }

    #[test]
    fn aggressive_adaptation_migrates_and_stays_bit_identical() {
        // Sequential ground truth: 3 checkpoints over repeated slides.
        let slide = slide();
        let fed = &slide[6..];
        let rounds = 10usize;
        let mut seq: Vec<Checkpoint> = (0..3usize)
            .map(|i| checkpoint(1 + i as u64, 1 + (i % 4)))
            .collect();
        for _ in 0..rounds {
            for cp in seq.iter_mut() {
                for a in fed {
                    cp.process(a, &DenseWeights::Unit);
                }
            }
        }

        // 2 workers, 3 checkpoints: shard 0 starts with 2 of them, so its
        // EWMA genuinely dominates and the zero-threshold config migrates.
        let mut pool = ShardPool::new(2);
        pool.set_adaptive(AdaptiveConfig::aggressive());
        assert_eq!(pool.adaptive(), AdaptiveConfig::aggressive());
        for i in 0..3usize {
            pool.add(checkpoint(1 + i as u64, 1 + (i % 4)));
        }
        let mut last = Vec::new();
        for _ in 0..rounds {
            last = pool.feed(fed, None);
        }
        let stats = pool.stats();
        assert!(stats.migrations >= 1, "no migration in {rounds} rounds");
        assert!(stats.ewma_max_nanos >= stats.ewma_min_nanos);
        assert!(stats.ewma_min_nanos > 0);
        // Count skew introduced by migration stays within the rebalance
        // slack, and every checkpoint still answers bit-identically.
        let max = *pool.counts.iter().max().unwrap();
        let min = *pool.counts.iter().min().unwrap();
        assert!(max - min <= 2, "counts: {:?}", pool.counts);
        last.sort_by_key(|(s, _)| s.start);
        assert_eq!(last.len(), seq.len());
        for ((stat, seeds), cp) in last.iter().zip(&seq) {
            let want = cp.solution();
            assert_eq!(stat.start, cp.start());
            assert_eq!(*seeds, want.seeds);
            assert_eq!(stat.value.to_bits(), want.value.to_bits());
        }
    }

    #[test]
    fn adapt_holds_off_below_the_time_floor() {
        // Default config: min_nanos is far above anything these tiny
        // slides can accumulate, so no migration may ever fire.
        let slide = slide();
        let mut pool = ShardPool::new(2);
        for i in 0..4u64 {
            pool.add(checkpoint(i + 1, 2));
        }
        let config = AdaptiveConfig {
            min_nanos: 1e15,
            ..AdaptiveConfig::default()
        };
        pool.set_adaptive(config);
        for _ in 0..10 {
            pool.feed(&slide[6..], None);
        }
        assert_eq!(pool.stats().migrations, 0);
    }

    #[test]
    fn feed_reports_surface_span_and_arena_counters() {
        let mut pool = ShardPool::new(2);
        for i in 0..4u64 {
            pool.add(checkpoint(i + 1, 2));
        }
        pool.feed(&slide()[6..], None);
        assert!(pool.last_feed_reports().iter().any(|r| r.nanos > 0));
        let stats = pool.stats();
        assert!(stats.arena_takes >= stats.arena_hits);
    }

    #[test]
    fn empty_pool_feed_is_a_no_op() {
        let mut pool = ShardPool::new(4);
        assert!(pool.feed(&slide(), None).is_empty());
        assert_eq!(pool.checkpoint_count(), 0);
        assert_eq!(pool.threads(), 4);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let mut pool = ShardPool::new(4);
        for i in 0..4u64 {
            pool.add(checkpoint(i + 1, 1));
        }
        pool.feed(&slide()[3..], None); // ids 4..=40, observable by every checkpoint
        drop(pool); // must not hang or panic
    }
}
