//! The SIM engine: stream driver around a checkpoint framework.
//!
//! The engine owns the pieces every framework needs but should not manage
//! itself (§4's separation of concerns):
//!
//! * the [`SlidingWindow`] of the `N` most recent actions,
//! * the [`PropagationIndex`] resolving reply ancestries, and
//! * a [`Framework`] (IC or SIC) fed with resolved actions slide by slide.
//!
//! Ingestion comes in three granularities:
//!
//! * [`SimEngine::process_slide`] — one explicit slide (any size),
//! * [`SimEngine::ingest_batch`] — a server-shaped batch of any number of
//!   actions: ancestries are resolved in **one** pass over the batch, then
//!   the resolved actions are cut into `L`-sized slides and pipelined into
//!   the framework (and its shard pool) without re-cloning per checkpoint,
//! * [`SimEngine::run_stream`] — replays a whole [`SocialStream`], querying
//!   after every slide, and returns a [`RunReport`] with per-slide timings
//!   and answers (what the benches and figure binaries consume).
//!
//! It also exposes the pieces the evaluation harness needs: the exact
//! window-scoped influence sets (for the Greedy baseline / quality metric)
//! and per-slide statistics.

use crate::config::SimConfig;
use crate::framework::{Framework, FrameworkKind, ResolvedAction, Solution};
use crate::ic::IcFramework;
use crate::intern::UserInterner;
use crate::sic::SicFramework;
use rtim_stream::{
    window_influence_sets, Action, InfluenceSets, PropagationIndex, SlidingWindow, SocialStream,
};
use rtim_submodular::{ElementWeight, OracleCounters};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-slide statistics reported by [`SimEngine::process_slide`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SlideReport {
    /// Number of actions processed in this slide.
    pub actions: usize,
    /// Number of actions evicted from the window by this slide.
    pub expired: usize,
    /// Checkpoints maintained by the framework after the slide.
    pub checkpoints: usize,
    /// Total oracle element updates performed by the framework so far.
    pub oracle_updates: u64,
    /// Oracle outcome counters summed over the live checkpoints.
    pub oracle_counters: OracleCounters,
    /// Wall-clock nanoseconds spent ingesting this slide: ancestry
    /// resolution (amortized per action for batched ingestion), window
    /// maintenance and the framework's checkpoint updates.
    pub feed_nanos: u64,
    /// Wall-clock nanoseconds spent answering the SIM query after this
    /// slide.  Filled by [`SimEngine::run_stream`] (which queries every
    /// slide); 0 when the caller never queried.
    pub query_nanos: u64,
    /// Ingest-queue depth observed when the batch producing this slide was
    /// dequeued.  Filled by [`crate::EngineHandle`]'s engine thread (the
    /// asynchronous ingest pipeline); `None` for synchronous callers
    /// ([`SimEngine::process_slide`], [`SimEngine::run_stream`]), which
    /// have no queue — so depth aggregations can skip offline slides
    /// instead of counting them as zero-depth samples.
    pub queue_depth: Option<usize>,
}

/// Stage split of one batched ingest, for the tracing pipeline: how the
/// batch's wall time divided between ancestry resolution and the window +
/// checkpoint feed.  Returned by [`SimEngine::ingest_batch_traced`];
/// the per-slide [`SlideReport::feed_nanos`] remains the amortized total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedBreakdown {
    /// Nanoseconds resolving ancestries + interning over the whole batch.
    pub resolve_nanos: u64,
    /// Nanoseconds feeding the cut slides (window maintenance + framework
    /// checkpoint fan-out, summed across the batch's slides).
    pub feed_nanos: u64,
}

/// Aggregated result of replaying a whole stream
/// ([`SimEngine::run_stream`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunReport {
    /// One report per window slide, in stream order.
    pub slides: Vec<SlideReport>,
    /// The SIM answer after each slide (aligned with `slides`).
    pub solutions: Vec<Solution>,
}

impl RunReport {
    /// Total actions processed.
    pub fn actions(&self) -> u64 {
        self.slides.iter().map(|r| r.actions as u64).sum()
    }

    /// Total nanoseconds spent feeding slides (resolution + window +
    /// checkpoint updates).  Saturates instead of wrapping: a soak long
    /// enough to overflow `u64` nanoseconds must pin at the maximum, not
    /// silently report a tiny total.
    pub fn feed_nanos(&self) -> u64 {
        self.slides
            .iter()
            .fold(0u64, |total, r| total.saturating_add(r.feed_nanos))
    }

    /// Total nanoseconds spent answering queries (saturating, like
    /// [`RunReport::feed_nanos`]).
    pub fn query_nanos(&self) -> u64 {
        self.slides
            .iter()
            .fold(0u64, |total, r| total.saturating_add(r.query_nanos))
    }

    /// Aggregate throughput in actions per second of processing time
    /// (feeding + querying), the metric of Figures 7 and 9–12.
    pub fn throughput(&self) -> f64 {
        let nanos = self.feed_nanos().saturating_add(self.query_nanos());
        if nanos == 0 {
            f64::INFINITY
        } else {
            self.actions() as f64 / (nanos as f64 / 1e9)
        }
    }

    /// The answer after the final slide (empty if the stream was empty).
    pub fn final_solution(&self) -> Solution {
        self.solutions
            .last()
            .cloned()
            .unwrap_or_else(Solution::empty)
    }
}

/// Continuous SIM query processor.
///
/// The engine is also the **interning boundary**: raw user ids are mapped to
/// dense ids (first-appearance order) during ancestry resolution, before any
/// slide reaches the framework or its shard pool — shard workers never mint
/// ids, so sharded execution stays bit-identical to sequential.  Everything
/// behind [`Framework`] speaks dense ids; [`SimEngine::query`] translates
/// the answer's seeds back to raw ids.
pub struct SimEngine {
    config: SimConfig,
    window: SlidingWindow,
    index: PropagationIndex,
    framework: Box<dyn Framework>,
    slides: u64,
    /// Raw-id → dense-id mapping, minted at resolve time.
    interner: UserInterner,
    /// Number of interned users already announced to the framework via
    /// [`Framework::register_users`].
    registered: usize,
}

impl SimEngine {
    /// Creates an engine running the IC framework with the cardinality
    /// influence function.
    pub fn new_ic(config: SimConfig) -> Self {
        Self::with_framework(config, Box::new(IcFramework::new(config)))
    }

    /// Creates an engine running the SIC framework with the cardinality
    /// influence function.
    pub fn new_sic(config: SimConfig) -> Self {
        Self::with_framework(config, Box::new(SicFramework::new(config)))
    }

    /// Creates an engine for the given framework kind.
    pub fn new(config: SimConfig, kind: FrameworkKind) -> Self {
        match kind {
            FrameworkKind::Ic => Self::new_ic(config),
            FrameworkKind::Sic => Self::new_sic(config),
        }
    }

    /// Creates an engine running IC with a custom influence function
    /// (e.g. conformity-aware weights, Appendix A).
    pub fn new_ic_weighted<W: ElementWeight + Send + 'static>(
        config: SimConfig,
        weight: W,
    ) -> Self {
        Self::with_framework(config, Box::new(IcFramework::with_weight(config, weight)))
    }

    /// Creates an engine running SIC with a custom influence function.
    pub fn new_sic_weighted<W: ElementWeight + Send + 'static>(
        config: SimConfig,
        weight: W,
    ) -> Self {
        Self::with_framework(config, Box::new(SicFramework::with_weight(config, weight)))
    }

    /// Creates an engine around an arbitrary framework implementation.
    pub fn with_framework(config: SimConfig, framework: Box<dyn Framework>) -> Self {
        SimEngine {
            config,
            window: SlidingWindow::new(config.window_size),
            index: PropagationIndex::new(),
            framework,
            slides: 0,
            interner: UserInterner::new(),
            registered: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current sliding window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// The propagation index accumulated so far.
    pub fn index(&self) -> &PropagationIndex {
        &self.index
    }

    /// Which framework the engine runs.
    pub fn framework_kind(&self) -> FrameworkKind {
        self.framework.kind()
    }

    /// Number of slides processed so far.
    pub fn slides_processed(&self) -> u64 {
        self.slides
    }

    /// Adaptive-placement counters of the framework's shard pool (all
    /// zeros under sequential execution); see [`crate::pool::PoolStats`].
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.framework.pool_stats()
    }

    /// Reconfigures the timing-driven checkpoint placement of the
    /// framework's shard pool (no-op under sequential execution);
    /// placement never affects answers, only load balance.
    pub fn set_adaptive(&mut self, config: crate::pool::AdaptiveConfig) {
        self.framework.set_adaptive(config);
    }

    /// Latest per-shard feed reports from the framework's pool (empty
    /// under sequential execution); input to per-shard trace spans.
    pub fn shard_feed_reports(&self) -> &[crate::pool::WorkerFeedReport] {
        self.framework.shard_feed_reports()
    }

    /// The engine's user interner (raw ↔ dense id mapping).
    pub fn interner(&self) -> &UserInterner {
        &self.interner
    }

    /// Interned users already announced to the framework (snapshot
    /// bookkeeping; equals [`UserInterner::len`] between batches).
    pub fn registered_users(&self) -> usize {
        self.registered
    }

    /// The framework's serializable state (`None` for custom frameworks or
    /// oracles without snapshot support); see [`crate::snapshot`].
    pub(crate) fn framework_snapshot(&self) -> Option<crate::snapshot::FrameworkState> {
        self.framework.snapshot_state()
    }

    /// Reassembles an engine from restored parts (the
    /// [`SimEngine::restore`](crate::snapshot) path), validating the
    /// invariants the streaming constructors normally establish.
    pub(crate) fn from_restored_parts(
        config: SimConfig,
        framework: Box<dyn Framework>,
        slides: u64,
        registered: usize,
        interner_raws: Vec<rtim_stream::UserId>,
        window_actions: Vec<Action>,
        index: PropagationIndex,
    ) -> Result<SimEngine, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let interner = UserInterner::from_raws(interner_raws).map_err(SnapshotError::Corrupt)?;
        if registered > interner.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{registered} users registered but only {} interned",
                interner.len()
            )));
        }
        if window_actions.len() > config.window_size {
            return Err(SnapshotError::Corrupt(format!(
                "window holds {} actions but N = {}",
                window_actions.len(),
                config.window_size
            )));
        }
        let mut window = SlidingWindow::new(config.window_size);
        for action in window_actions {
            window.push(action);
        }
        Ok(SimEngine {
            config,
            window,
            index,
            framework,
            slides,
            interner,
            registered,
        })
    }

    /// Resolves the reply ancestry of every action in `actions` through the
    /// propagation index, in one pass, interning every user into the dense
    /// id space as it appears.  The returned actions carry **dense** ids.
    fn resolve(&mut self, actions: &[Action]) -> Vec<ResolvedAction> {
        let mut resolved = Vec::with_capacity(actions.len());
        for action in actions {
            let updated = self.index.insert(action);
            // `updated` = actor followed by ancestor users (raw ids).
            let (actor, ancestors) = updated.split_first().expect("non-empty update set");
            resolved.push(ResolvedAction {
                id: action.id.0,
                actor: self.interner.intern(*actor),
                ancestors: ancestors.iter().map(|&u| self.interner.intern(u)).collect(),
            });
        }
        resolved
    }

    /// Announces users interned since the last announcement to the
    /// framework, so its dense weight table covers the coming slide.
    fn register_new_users(&mut self) {
        if self.registered < self.interner.len() {
            self.framework
                .register_users(&self.interner.raws()[self.registered..]);
            self.registered = self.interner.len();
        }
    }

    /// Pushes one already-resolved slide through the window and the
    /// framework, returning the slide report (without query timing).
    fn feed_slide(
        &mut self,
        actions: &[Action],
        resolved: &[ResolvedAction],
        resolve_nanos: u64,
    ) -> SlideReport {
        let started = Instant::now();
        self.register_new_users();
        let mut expired = 0usize;
        for &action in actions {
            if self.window.push(action).is_some() {
                expired += 1;
            }
        }
        let window_start = self.window.oldest_id().map(|a| a.0).unwrap_or(1);
        self.framework.process_slide(resolved, window_start);
        self.slides += 1;
        SlideReport {
            actions: actions.len(),
            expired,
            checkpoints: self.framework.checkpoint_count(),
            oracle_updates: self.framework.oracle_updates(),
            oracle_counters: self.framework.oracle_counters(),
            feed_nanos: resolve_nanos + started.elapsed().as_nanos() as u64,
            query_nanos: 0,
            queue_depth: None,
        }
    }

    /// Processes one window slide (any number of actions; the configured
    /// slide length `L` is the convention used by the experiment harness but
    /// the engine accepts arbitrary batch sizes, including 1).
    pub fn process_slide(&mut self, actions: &[Action]) -> SlideReport {
        if actions.is_empty() {
            return SlideReport {
                checkpoints: self.framework.checkpoint_count(),
                oracle_updates: self.framework.oracle_updates(),
                oracle_counters: self.framework.oracle_counters(),
                ..SlideReport::default()
            };
        }
        let started = Instant::now();
        let resolved = self.resolve(actions);
        let resolve_nanos = started.elapsed().as_nanos() as u64;
        self.feed_slide(actions, &resolved, resolve_nanos)
    }

    /// Ingests a batch of any number of actions: ancestries are resolved in
    /// one pass over the whole batch, then the batch is cut into slides of
    /// the configured length `L` and each slide is fed to the framework.
    /// Returns one report per slide (the resolution cost is amortized across
    /// the slides proportionally to their size).
    ///
    /// This is the server-shaped ingest path: a front-end can hand the
    /// engine whatever burst of actions arrived since the last call.  Slide
    /// boundaries are cut **within** each call — a burst whose length is not
    /// a multiple of `L` ends with one shorter slide (fully processed and
    /// queryable immediately; nothing is buffered across calls), exactly as
    /// if that shorter slide had been passed to [`Self::process_slide`].
    /// Front-ends that need slides of exactly `L` actions should accumulate
    /// to `L` before calling.
    pub fn ingest_batch(&mut self, actions: &[Action]) -> Vec<SlideReport> {
        self.ingest_batch_traced(actions).0
    }

    /// [`Self::ingest_batch`] plus the batch's [`FeedBreakdown`] — the
    /// resolve/feed stage split the flight recorder attributes to traced
    /// requests.  Identical processing (the plain path delegates here), so
    /// tracing can never perturb results.
    pub fn ingest_batch_traced(&mut self, actions: &[Action]) -> (Vec<SlideReport>, FeedBreakdown) {
        if actions.is_empty() {
            return (Vec::new(), FeedBreakdown::default());
        }
        let started = Instant::now();
        let resolved = self.resolve(actions);
        let resolve_nanos = started.elapsed().as_nanos() as u64;
        let per_action = resolve_nanos / actions.len() as u64;

        let slide_len = self.config.slide;
        let feed_started = Instant::now();
        let mut reports = Vec::with_capacity(actions.len().div_ceil(slide_len));
        for (chunk, resolved_chunk) in actions.chunks(slide_len).zip(resolved.chunks(slide_len)) {
            reports.push(self.feed_slide(chunk, resolved_chunk, per_action * chunk.len() as u64));
        }
        let breakdown = FeedBreakdown {
            resolve_nanos,
            feed_nanos: feed_started.elapsed().as_nanos() as u64,
        };
        (reports, breakdown)
    }

    /// Replays a whole stream in `L`-sized slides, answering the SIM query
    /// after every slide, and reports per-slide statistics, timings and
    /// answers.
    pub fn run_stream(&mut self, stream: &SocialStream) -> RunReport {
        let mut slides = Vec::with_capacity(stream.len().div_ceil(self.config.slide));
        let mut solutions = Vec::with_capacity(slides.capacity());
        for batch in stream.batches(self.config.slide) {
            for mut report in self.ingest_batch(batch) {
                let started = Instant::now();
                let solution = self.query();
                report.query_nanos = started.elapsed().as_nanos() as u64;
                slides.push(report);
                solutions.push(solution);
            }
        }
        RunReport { slides, solutions }
    }

    /// Answers the SIM query for the current window.
    ///
    /// The framework answers in dense-id space; the seeds are translated
    /// back to raw user ids here.
    pub fn query(&self) -> Solution {
        let mut solution = self.framework.query();
        for seed in &mut solution.seeds {
            *seed = self.interner.raw(*seed);
        }
        solution
    }

    /// Number of checkpoints currently maintained by the framework.
    pub fn checkpoint_count(&self) -> usize {
        self.framework.checkpoint_count()
    }

    /// Total oracle element updates performed by the framework so far.
    pub fn oracle_updates(&self) -> u64 {
        self.framework.oracle_updates()
    }

    /// Exact influence sets of the current window (recomputed from scratch;
    /// used by baselines, the quality metric and tests — not on the
    /// streaming hot path).
    pub fn window_influence_sets(&self) -> InfluenceSets {
        window_influence_sets(&self.window, &self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::UserId;
    use rtim_submodular::{brute_force_best, UnitWeight};

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
    fn ic_engine_tracks_example2() {
        let mut engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 1));
        let mut values = Vec::new();
        for a in figure1_actions() {
            engine.process_slide(&[a]);
            values.push(engine.query().value);
        }
        assert_eq!(values[7], 5.0);
        assert_eq!(values[9], 6.0);
        assert_eq!(engine.framework_kind(), FrameworkKind::Ic);
        assert_eq!(engine.slides_processed(), 10);
    }

    #[test]
    fn sic_engine_stays_within_bound_of_window_optimum() {
        let config = SimConfig::new(2, 0.2, 8, 2);
        let mut engine = SimEngine::new_sic(config);
        for slide in figure1_actions().chunks(2) {
            engine.process_slide(slide);
            let solution = engine.query();
            let inf = engine.window_influence_sets();
            let opt = brute_force_best(&inf, 2, &UnitWeight).value;
            let bound = (0.5 - 0.2) * (1.0 - 0.2) / 2.0;
            assert!(solution.value >= bound * opt - 1e-9);
            assert!(solution.value <= opt + 1e-9);
            // The reported seeds themselves achieve a comparable coverage in
            // the *checkpoint's* (append-only) view; against the exact
            // window sets they can only be evaluated upward (Theorem 2).
            let realized = inf.coverage(&solution.seeds) as f64;
            assert!(realized + 1e-9 >= solution.value * 0.99 || realized >= bound * opt);
        }
    }

    #[test]
    fn slide_report_counts_actions_and_expiry() {
        let mut engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 4, 2));
        let actions = figure1_actions();
        let r1 = engine.process_slide(&actions[..2]);
        assert_eq!(r1.actions, 2);
        assert_eq!(r1.expired, 0);
        let _ = engine.process_slide(&actions[2..4]);
        let r3 = engine.process_slide(&actions[4..6]);
        assert_eq!(r3.expired, 2);
        assert!(r3.oracle_updates > 0);
        assert!(r3.checkpoints <= 2);
    }

    #[test]
    fn ingest_batch_matches_per_slide_processing() {
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();
        // Engine A: explicit slides of L = 2.
        let mut by_slide = SimEngine::new_ic(config);
        let mut slide_values = Vec::new();
        for chunk in actions.chunks(2) {
            by_slide.process_slide(chunk);
            slide_values.push(by_slide.query().value);
        }
        // Engine B: one batch covering the whole stream; the engine must cut
        // it into the same L-aligned slides.
        let mut by_batch = SimEngine::new_ic(config);
        let reports = by_batch.ingest_batch(&actions);
        assert_eq!(reports.len(), 5);
        assert_eq!(reports.iter().map(|r| r.actions).sum::<usize>(), 10);
        assert!(reports.iter().all(|r| r.feed_nanos > 0));
        assert_eq!(by_batch.slides_processed(), 5);
        assert_eq!(by_batch.query().value, *slide_values.last().unwrap());
        assert_eq!(by_batch.checkpoint_count(), by_slide.checkpoint_count());
        // Engine C: two separate batches (4 + 6) must yield the same final
        // state — the engine cuts at L boundaries within each call.
        let mut ragged = SimEngine::new_ic(config);
        let head = ragged.ingest_batch(&actions[..4]);
        let tail = ragged.ingest_batch(&actions[4..]);
        assert_eq!(head.len() + tail.len(), 5);
        assert_eq!(ragged.query().value, *slide_values.last().unwrap());
    }

    #[test]
    fn ingest_batch_cuts_slides_within_each_call() {
        // A burst that is NOT a multiple of L ends with one shorter slide;
        // nothing is buffered across calls (documented behaviour).  3 + 7
        // actions with L = 2 → slides of 2,1 then 2,2,2,1.
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();
        let mut engine = SimEngine::new_ic(config);
        let head = engine.ingest_batch(&actions[..3]);
        assert_eq!(
            head.iter().map(|r| r.actions).collect::<Vec<_>>(),
            vec![2, 1]
        );
        let tail = engine.ingest_batch(&actions[3..]);
        assert_eq!(
            tail.iter().map(|r| r.actions).collect::<Vec<_>>(),
            vec![2, 2, 2, 1]
        );
        assert_eq!(engine.slides_processed(), 6);
        // The shorter slides are fully processed: same result as the same
        // slide pattern through process_slide.
        let mut by_slide = SimEngine::new_ic(config);
        for chunk in [
            &actions[..2],
            &actions[2..3],
            &actions[3..5],
            &actions[5..7],
            &actions[7..9],
            &actions[9..],
        ] {
            by_slide.process_slide(chunk);
        }
        assert_eq!(engine.query(), by_slide.query());
        assert_eq!(engine.checkpoint_count(), by_slide.checkpoint_count());
    }

    #[test]
    fn run_stream_reports_per_slide_answers_and_timings() {
        let stream = SocialStream::new(figure1_actions()).unwrap();
        let config = SimConfig::new(2, 0.3, 8, 2);
        let mut engine = SimEngine::new_ic(config);
        let report = engine.run_stream(&stream);
        assert_eq!(report.slides.len(), 5);
        assert_eq!(report.solutions.len(), 5);
        assert_eq!(report.actions(), 10);
        // Same per-slide answers as explicit slide-by-slide processing.
        assert_eq!(report.solutions[3].value, 5.0);
        assert_eq!(report.solutions[4].value, 6.0);
        assert_eq!(report.final_solution().value, 6.0);
        assert!(report.feed_nanos() > 0);
        assert!(report.query_nanos() > 0);
        assert!(report.throughput() > 0.0);
        assert!(report.slides.iter().all(|r| r.query_nanos > 0));
    }

    #[test]
    fn run_stream_with_sharded_engine_matches_sequential() {
        let stream = SocialStream::new(figure1_actions()).unwrap();
        let sequential = SimConfig::new(2, 0.2, 8, 2);
        let sharded = sequential.with_threads(4);
        let mut seq = SimEngine::new_sic(sequential);
        let mut par = SimEngine::new_sic(sharded);
        let seq_report = seq.run_stream(&stream);
        let par_report = par.run_stream(&stream);
        assert_eq!(seq_report.solutions, par_report.solutions);
        assert_eq!(
            seq_report
                .slides
                .iter()
                .map(|r| r.checkpoints)
                .collect::<Vec<_>>(),
            par_report
                .slides
                .iter()
                .map(|r| r.checkpoints)
                .collect::<Vec<_>>(),
        );
        // The oracle outcome counters travel the pool's stats unchanged.
        let counters = |r: &RunReport| {
            r.slides
                .iter()
                .map(|s| s.oracle_counters)
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&seq_report), counters(&par_report));
        assert!(seq_report.slides.last().unwrap().oracle_counters.elements > 0);
    }

    #[test]
    fn run_report_nano_sums_saturate_instead_of_wrapping() {
        // A soak whose accumulated nanos exceed u64 must pin at the
        // maximum (regression: these sums used wrapping `Iterator::sum`).
        let report = RunReport {
            slides: vec![
                SlideReport {
                    feed_nanos: u64::MAX - 10,
                    query_nanos: u64::MAX - 10,
                    ..SlideReport::default()
                },
                SlideReport {
                    actions: 1,
                    feed_nanos: 100,
                    query_nanos: 100,
                    ..SlideReport::default()
                },
            ],
            solutions: Vec::new(),
        };
        assert_eq!(report.feed_nanos(), u64::MAX);
        assert_eq!(report.query_nanos(), u64::MAX);
        // throughput's feed+query sum must saturate too, not panic.
        assert!(report.throughput() >= 0.0);
    }

    #[test]
    fn offline_slides_carry_no_queue_depth() {
        let mut engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        let reports = engine.ingest_batch(&figure1_actions());
        assert!(reports.iter().all(|r| r.queue_depth.is_none()));
    }

    #[test]
    fn empty_slide_is_harmless() {
        let mut engine = SimEngine::new_sic(SimConfig::new(2, 0.3, 8, 1));
        let report = engine.process_slide(&[]);
        assert_eq!(report.actions, 0);
        assert!(engine.ingest_batch(&[]).is_empty());
        assert_eq!(engine.query(), Solution::empty());
    }

    #[test]
    fn weighted_engine_prefers_heavy_users() {
        use rtim_submodular::MapWeight;
        use std::collections::HashMap;
        // User 6 is worth 100; everything else 1.  An engine with that
        // weighting must report a much larger value once u6 acts.
        let mut weights = HashMap::new();
        weights.insert(UserId(6), 100.0);
        let weight = MapWeight::new(weights, 1.0);
        let mut engine = SimEngine::new_sic_weighted(SimConfig::new(2, 0.2, 8, 1), weight);
        for a in figure1_actions() {
            engine.process_slide(&[a]);
        }
        assert!(engine.query().value >= 100.0);
    }

    #[test]
    fn window_influence_sets_match_direct_computation() {
        let mut engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 1));
        for a in figure1_actions() {
            engine.process_slide(&[a]);
        }
        let inf = engine.window_influence_sets();
        assert_eq!(inf.coverage(&[UserId(2), UserId(3)]), 6);
        assert_eq!(engine.window().len(), 8);
    }
}
