//! Persistent sharded checkpoint pool.
//!
//! Checkpoints are mutually independent: every checkpoint replays the same
//! slide of resolved actions against its own private state (Set-Stream
//! Mapping), so where a checkpoint runs never changes an answer.  A
//! [`ShardPool`] splits its checkpoints into shards, and one shard type
//! feeds, removes, extracts and snapshots them at every pool width.
//!
//! ## Execution
//!
//! * Width 1 runs its one shard inline on the calling thread: no worker
//!   thread, no channel, no shared copy of the slide.
//! * Width ≥ 2 spawns one worker thread per shard **once** (per engine) and
//!   keeps it for the lifetime of the pool.  Each worker owns its shard
//!   outright — checkpoints are moved in on [`ShardPool::add`] and never
//!   aliased, so nothing on the hot path locks.  A slide is broadcast as
//!   one `Arc<[ResolvedAction]>`, shared by every worker and never cloned
//!   per checkpoint.
//!
//! Either way a feed returns each checkpoint's [`CheckpointStat`] (start,
//! value, update count, oracle counters) and seed list, which is all the
//! frameworks need for pruning, eviction and queries — so answering a
//! query never crosses a worker channel.  Each shard also reports its feed
//! time and arena counters ([`WorkerFeedReport`]).
//!
//! ## Placement
//!
//! The pool keeps only the assignment map (checkpoint start id → shard) and
//! per-shard counts; the start id is a stable unique key because both
//! frameworks create checkpoints at strictly increasing stream positions.
//! Placement is count-only.  New checkpoints go to the least-loaded shard
//! (lowest index on ties), and [`ShardPool::remove`] moves checkpoints from
//! the fullest to the emptiest shard while their sizes differ by more than
//! 2 — SIC's pruning and IC's rotation both delete checkpoints in patterns
//! that would otherwise starve some shards.  The slack is 2, not 1, because
//! every move costs a worker round trip.  Moves are counted in
//! [`PoolStats::migrations`]; the per-shard feed-time EWMA in [`PoolStats`]
//! is an observation only and never drives placement.
//!
//! ## Determinism
//!
//! Results are bit-for-bit identical at every width: each checkpoint
//! observes the slide in stream order against its own state, and a
//! whole-checkpoint move at a slide boundary changes only where it runs.
//! The property tests in `tests/determinism.rs` assert this for both
//! frameworks at 1–8 shards.
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
use std::time::Instant;

/// Smoothing factor of the per-shard feed-time EWMA
/// (`ewma ← α·measured + (1−α)·ewma`).
const EWMA_ALPHA: f64 = 0.3;

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

impl CheckpointStat {
    /// The current summary of `checkpoint`.
    pub(crate) fn of(checkpoint: &Checkpoint) -> Self {
        CheckpointStat {
            start: checkpoint.start(),
            value: checkpoint.value(),
            updates: checkpoint.updates(),
            counters: checkpoint.counters(),
        }
    }
}

/// Observability snapshot of the pool, surfaced on
/// [`EngineStats`](crate::EngineStats) and the server `STATS` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkpoints moved between shards by the count rebalancer since the
    /// pool was created (always 0 at width 1).
    pub migrations: u64,
    /// Smallest per-shard feed-time EWMA, in nanoseconds (rounded).
    pub ewma_min_nanos: u64,
    /// Largest per-shard feed-time EWMA, in nanoseconds (rounded).
    pub ewma_max_nanos: u64,
    /// Cumulative bitmap word-vectors requested from the shards' slide
    /// arenas (summed across shards).
    pub arena_takes: u64,
    /// Of [`PoolStats::arena_takes`], how many were served from the
    /// recycled free lists instead of fresh allocations.
    pub arena_hits: u64,
}

/// What one shard reports back with each feed round: its wall-clock span
/// for the slide plus the cumulative allocation counters of its private
/// [`WordArena`].  The pool retains the latest report per shard so the
/// engine can emit per-shard trace spans without extra channel traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFeedReport {
    /// Wall-clock nanoseconds the shard spent on the slide.
    pub nanos: u64,
    /// Cumulative arena take count (see [`rtim_stream::WordArena::stats`]).
    pub arena_takes: u64,
    /// Cumulative arena free-list hits.
    pub arena_hits: u64,
}

/// One feed round's result: each checkpoint's stats and seed list, plus
/// the shard's report.
type Fed = (Vec<(CheckpointStat, Vec<UserId>)>, WorkerFeedReport);

/// A shard: its checkpoints plus what their feeds share.  Run inline at
/// width 1 and by one worker thread per shard above.
#[derive(Default)]
struct Shard {
    checkpoints: Vec<Checkpoint>,
    /// Local copy of the dense weight table: `None` for the cardinality
    /// objective, `Some` once any feed carried a weight delta.
    table: Option<Vec<f64>>,
    /// Bitmap recycling: removed checkpoints donate their backing stores
    /// to the next slide's set promotions.
    arena: WordArena,
}

impl Shard {
    /// Appends `delta` (dense weights of users interned since the previous
    /// feed) to the local table, then feeds `slide` to every checkpoint.
    fn feed(&mut self, slide: &[ResolvedAction], delta: Option<&[f64]>) -> Fed {
        if let Some(d) = delta {
            self.table.get_or_insert_with(Vec::new).extend_from_slice(d);
        }
        let weights = match &self.table {
            None => DenseWeights::Unit,
            Some(t) => DenseWeights::Table(t),
        };
        let started = Instant::now();
        let mut stats = Vec::with_capacity(self.checkpoints.len());
        for cp in &mut self.checkpoints {
            for action in slide {
                cp.process_in(action, &weights, &mut self.arena);
            }
            stats.push((CheckpointStat::of(cp), cp.seeds()));
        }
        self.arena.end_slide();
        let (arena_takes, arena_hits) = self.arena.stats();
        let report = WorkerFeedReport {
            nanos: started.elapsed().as_nanos() as u64,
            arena_takes,
            arena_hits,
        };
        (stats, report)
    }

    /// Takes the checkpoint with start id `start` out of the shard.
    fn take(&mut self, start: u64) -> Checkpoint {
        let pos = self
            .checkpoints
            .iter()
            .position(|c| c.start() == start)
            .expect("taking a checkpoint this shard does not own");
        self.checkpoints.swap_remove(pos)
    }

    /// Deletes the checkpoint with start id `start`, recycling its bitmaps.
    fn remove(&mut self, start: u64) {
        self.take(start).recycle_into(&mut self.arena);
    }

    /// The serializable state of every checkpoint in the shard (`None` if
    /// any oracle lacks snapshot support).
    fn snapshot(&self) -> Option<Vec<CheckpointState>> {
        self.checkpoints.iter().map(Checkpoint::snapshot).collect()
    }
}

/// Messages from the pool to a worker; each maps onto one [`Shard`] method.
enum ShardMsg {
    /// Feed a slide (with the weight delta, shared by every worker) and
    /// reply `ShardReply::Fed`.
    Feed(Arc<[ResolvedAction]>, Option<Arc<[f64]>>),
    /// Adopt a checkpoint (no reply).
    Add(Box<Checkpoint>),
    /// Delete the checkpoint with this start id (no reply).
    Remove(u64),
    /// Take the checkpoint with this start id out and send it back
    /// (`ShardReply::Extracted`) — used for rebalancing.
    Extract(u64),
    /// Reply with the shard's snapshot (`ShardReply::Snapshot`).
    Snapshot,
    /// Exit the worker loop.
    Shutdown,
}

/// Replies from a worker to the pool.
enum ShardReply {
    Fed(Fed),
    Extracted(Box<Checkpoint>),
    Snapshot(Option<Vec<CheckpointState>>),
}

/// A worker thread that owns one shard.
struct Worker {
    tx: Sender<ShardMsg>,
    rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(index: usize) -> Self {
        let (msg_tx, msg_rx) = channel::<ShardMsg>();
        let (reply_tx, reply_rx) = channel::<ShardReply>();
        let join = std::thread::Builder::new()
            .name(format!("rtim-shard-{index}"))
            .spawn(move || worker_loop(msg_rx, reply_tx))
            .expect("spawn shard worker");
        Worker {
            tx: msg_tx,
            rx: reply_rx,
            join: Some(join),
        }
    }

    fn send(&self, msg: ShardMsg) {
        self.tx.send(msg).expect("shard worker hung up");
    }

    fn recv(&self) -> ShardReply {
        self.rx
            .recv()
            .expect("shard worker hung up without replying")
    }
}

/// Where the shards run.
enum Shards {
    /// Width 1: the one shard, run on the calling thread.
    Inline(Shard),
    /// Width ≥ 2: one worker thread per shard.
    Threads(Vec<Worker>),
}

/// A pool of checkpoint shards fed window slides: inline at width 1, one
/// persistent worker thread per shard above.
///
/// See the [module docs](self) for the ownership and determinism model.
pub struct ShardPool {
    shards: Shards,
    /// Checkpoint start id → index of the owning shard.
    assignment: HashMap<u64, usize>,
    /// Number of checkpoints currently owned by each shard.
    counts: Vec<usize>,
    /// Per-shard feed-time EWMA in nanoseconds (`0` until first feed).
    ewma: Vec<f64>,
    /// Checkpoints moved between shards by the rebalancer so far.
    migrations: u64,
    /// Latest per-shard feed report (all-zero until the first feed).
    last_feed: Vec<WorkerFeedReport>,
}

impl ShardPool {
    /// Creates a pool of `threads` shards (at least 1).  Width 1 runs its
    /// shard inline; wider pools spawn one worker per shard, alive until
    /// the pool is dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shards = if threads == 1 {
            Shards::Inline(Shard::default())
        } else {
            Shards::Threads((0..threads).map(Worker::spawn).collect())
        };
        ShardPool {
            shards,
            assignment: HashMap::new(),
            counts: vec![0; threads],
            ewma: vec![0.0; threads],
            migrations: 0,
            last_feed: vec![WorkerFeedReport::default(); threads],
        }
    }

    /// Number of shards (the pool width).
    pub fn threads(&self) -> usize {
        self.counts.len()
    }

    /// Rebalance count, feed-time EWMA spread and arena counters (see
    /// [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &e in &self.ewma {
            lo = lo.min(e);
            hi = hi.max(e);
        }
        PoolStats {
            migrations: self.migrations,
            ewma_min_nanos: lo as u64,
            ewma_max_nanos: hi as u64,
            arena_takes: self.last_feed.iter().map(|r| r.arena_takes).sum(),
            arena_hits: self.last_feed.iter().map(|r| r.arena_hits).sum(),
        }
    }

    /// The latest feed report of every shard, indexed by shard (all-zero
    /// entries until the first feed).  Input to the engine's per-shard
    /// trace spans.
    pub fn last_feed_reports(&self) -> &[WorkerFeedReport] {
        &self.last_feed
    }

    /// Number of checkpoints currently owned across all shards.
    pub fn checkpoint_count(&self) -> usize {
        self.assignment.len()
    }

    /// Moves a checkpoint into the least-loaded shard (lowest index on
    /// ties, so placement is deterministic).
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
        match &mut self.shards {
            Shards::Inline(shard) => shard.checkpoints.push(checkpoint),
            Shards::Threads(workers) => workers[target].send(ShardMsg::Add(Box::new(checkpoint))),
        }
        self.assignment.insert(start, target);
        self.counts[target] += 1;
    }

    /// Feeds one slide to every shard and gathers each checkpoint's stats
    /// and seed list (in no particular order — keyed by `start`).
    ///
    /// `weight_delta` is `None` for the cardinality objective; for weighted
    /// objectives it carries the dense weights of users interned since the
    /// previous feed, which every shard appends to its local table.
    pub fn feed(
        &mut self,
        slide: &[ResolvedAction],
        weight_delta: Option<&[f64]>,
    ) -> Vec<(CheckpointStat, Vec<UserId>)> {
        let stats = match &mut self.shards {
            Shards::Inline(shard) => {
                let (stats, report) = shard.feed(slide, weight_delta);
                self.last_feed[0] = report;
                stats
            }
            Shards::Threads(workers) => {
                let shared: Arc<[ResolvedAction]> = slide.into();
                let shared_delta: Option<Arc<[f64]>> = weight_delta.map(Into::into);
                for w in workers.iter() {
                    w.send(ShardMsg::Feed(shared.clone(), shared_delta.clone()));
                }
                let mut stats = Vec::with_capacity(self.assignment.len());
                for (w, last) in workers.iter().zip(&mut self.last_feed) {
                    let ShardReply::Fed((fed, report)) = w.recv() else {
                        unreachable!("worker answered Feed with a non-Fed reply")
                    };
                    stats.extend(fed);
                    *last = report;
                }
                stats
            }
        };
        for (e, report) in self.ewma.iter_mut().zip(&self.last_feed) {
            let nanos = report.nanos as f64;
            *e = if *e <= 0.0 {
                nanos
            } else {
                EWMA_ALPHA * nanos + (1.0 - EWMA_ALPHA) * *e
            };
        }
        stats
    }

    /// Deletes the checkpoint with the given start id, then rebalances if
    /// shard sizes have drifted apart.
    pub fn remove(&mut self, start: u64) {
        let owner = self
            .assignment
            .remove(&start)
            .expect("removing a checkpoint the pool does not own");
        self.counts[owner] -= 1;
        match &mut self.shards {
            Shards::Inline(shard) => shard.remove(start),
            Shards::Threads(workers) => workers[owner].send(ShardMsg::Remove(start)),
        }
        self.rebalance();
    }

    /// Captures the serializable state of every pooled checkpoint, oldest
    /// first, without moving any out of its shard (above width 1: one
    /// round trip per worker, all workers in parallel).  `None` if any
    /// checkpoint's oracle lacks snapshot support.
    pub fn snapshot(&self) -> Option<Vec<CheckpointState>> {
        let mut states = match &self.shards {
            Shards::Inline(shard) => shard.snapshot()?,
            Shards::Threads(workers) => {
                for w in workers {
                    w.send(ShardMsg::Snapshot);
                }
                // Every reply is collected even after a `None`, so no
                // answer is left behind in a worker channel.
                let replies: Vec<ShardReply> = workers.iter().map(Worker::recv).collect();
                let mut states = Vec::with_capacity(self.assignment.len());
                for reply in replies {
                    let ShardReply::Snapshot(shard) = reply else {
                        unreachable!("worker answered Snapshot with a non-Snapshot reply")
                    };
                    states.extend(shard?);
                }
                states
            }
        };
        states.sort_unstable_by_key(|s| s.start);
        Some(states)
    }

    /// Index of the shard owning the fewest checkpoints.
    fn least_loaded(&self) -> usize {
        let mut best = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c < self.counts[best] {
                best = i;
            }
        }
        best
    }

    /// Moves checkpoints from the fullest to the emptiest worker until
    /// shard sizes differ by at most 2 (a move costs a worker round trip,
    /// so a difference of 2 is left alone).  The newest checkpoint of the
    /// fullest shard moves first — a deterministic choice; where a
    /// checkpoint lives never affects results, only balance.
    fn rebalance(&mut self) {
        let Shards::Threads(workers) = &self.shards else {
            return;
        };
        loop {
            let poorest = self.least_loaded();
            let richest = self
                .counts
                .iter()
                .enumerate()
                .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .expect("pool has at least one shard");
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
            workers[richest].send(ShardMsg::Extract(moved));
            let ShardReply::Extracted(checkpoint) = workers[richest].recv() else {
                unreachable!("worker answered Extract with a non-Extracted reply")
            };
            workers[poorest].send(ShardMsg::Add(checkpoint));
            self.assignment.insert(moved, poorest);
            self.counts[richest] -= 1;
            self.counts[poorest] += 1;
            self.migrations += 1;
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        let Shards::Threads(workers) = &mut self.shards else {
            return;
        };
        for w in workers.iter() {
            // A worker that already panicked has dropped its receiver; the
            // failed send is fine, the join below surfaces the panic.
            let _ = w.tx.send(ShardMsg::Shutdown);
        }
        for w in workers.iter_mut() {
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
            .field("threads", &self.threads())
            .field("checkpoints", &self.assignment.len())
            .field("counts", &self.counts)
            .finish()
    }
}

/// The worker loop: dispatches each message onto the worker's [`Shard`]
/// until shutdown.
fn worker_loop(rx: Receiver<ShardMsg>, tx: Sender<ShardReply>) {
    let mut shard = Shard::default();
    while let Ok(msg) = rx.recv() {
        let reply = match msg {
            ShardMsg::Feed(slide, delta) => ShardReply::Fed(shard.feed(&slide, delta.as_deref())),
            ShardMsg::Add(cp) => {
                shard.checkpoints.push(*cp);
                continue;
            }
            ShardMsg::Remove(start) => {
                shard.remove(start);
                continue;
            }
            ShardMsg::Extract(start) => ShardReply::Extracted(Box::new(shard.take(start))),
            ShardMsg::Snapshot => ShardReply::Snapshot(shard.snapshot()),
            ShardMsg::Shutdown => break,
        };
        if tx.send(reply).is_err() {
            break;
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
                CheckpointStat::of(&cp)
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
            assert_eq!(pool.last_feed_reports().len(), pool.threads());
            assert!(pool.stats().ewma_max_nanos > 0);
            stats.sort_by_key(|(s, _)| s.start);
            assert_eq!(stats.len(), expected.len());
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
        let before = pool.assignment.clone();
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
        // Counts [1, 4] after the third delete: exactly one move, counted.
        let moved = pool
            .assignment
            .iter()
            .filter(|&(start, owner)| before[start] != *owner)
            .count();
        assert_eq!(moved, 1);
        assert_eq!(pool.stats().migrations, moved as u64);
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
