//! # rtim-core
//!
//! The paper's primary contribution: continuous **Stream Influence
//! Maximization (SIM)** over sliding windows of social actions.
//!
//! * [`config`] — the SIM query configuration (`k`, `β`, window size `N`,
//!   slide length `L`, checkpoint-oracle choice).
//! * [`ssm`] — the Set-Stream Mapping (§4.2): a [`Checkpoint`] adapts any
//!   append-only streaming-submodular-optimization oracle into a checkpoint
//!   oracle over the action stream, preserving its approximation ratio
//!   (Theorem 2).
//! * [`framework`] — the common interface of the two checkpoint frameworks
//!   and the [`Solution`] type.
//! * [`ic`] — the **Influential Checkpoints** framework (§4, Algorithm 1):
//!   one checkpoint per window slide, `ε`-approximate answers.
//! * [`sic`] — the **Sparse Influential Checkpoints** framework (§5,
//!   Algorithm 2): `O(log N / β)` checkpoints, `ε(1−β)/2`-approximate
//!   answers (Theorems 3–5).
//! * [`checkpoint_set`] — the [`CheckpointSet`] layer shared by both
//!   frameworks: owns the ordered checkpoint list and its execution
//!   strategy (sequential, or sharded across a persistent worker pool).
//! * [`pool`] — the [`ShardPool`]: long-lived worker threads, each owning a
//!   stable shard of checkpoints, fed slides over channels with
//!   bit-identical-to-sequential results.
//! * [`engine`] — the [`SimEngine`] driver: maintains the sliding window and
//!   the propagation index, feeds resolved actions into a framework, and
//!   answers SIM queries after every slide (including multi-action slides,
//!   §5.3).  Batched ingestion ([`SimEngine::ingest_batch`]) and whole-stream
//!   replay ([`SimEngine::run_stream`]) sit on top.
//! * [`handle`] — the asynchronous ingest pipeline ([`EngineHandle`]): a
//!   bounded queue decoupling producers from a dedicated engine thread while
//!   preserving the one-writer determinism invariant (what the
//!   `rtim-server` TCP front-end runs on), with optional durable
//!   persistence (disk journal + snapshots + startup recovery, owned by
//!   the engine thread and implemented in `durable.rs`).
//! * [`metrics`] — the observability layer: log-scale latency histograms
//!   with sliding-window p50/p95/p99 aggregation and the shared
//!   [`EngineMetrics`] registry the engine thread, the server front-ends
//!   and the `/metrics` scrape endpoint meet at.
//! * [`trace`] — the flight recorder: lock-free per-thread rings of
//!   fixed-size trace events spanning every pipeline stage, slow-op
//!   capture, and passive bounded dumps (`TRACE` command, `GET /trace`,
//!   `rtim-cli trace`); see `docs/TRACING.md`.
//! * [`snapshot`] — durable engine snapshots ([`EngineSnapshot`], `RTSS`
//!   codec), atomic writes, and the crash-recovery decision tree
//!   ([`recover_engine`]); see `docs/RECOVERY.md`.
//! * [`extensions`] — topic-aware, location-aware and conformity-aware SIM
//!   (Appendix A).
//!
//! ## Quick start
//!
//! ```
//! use rtim_core::{SimConfig, SimEngine};
//! use rtim_stream::Action;
//!
//! // k = 2 seeds over a window of the 8 most recent actions, sliding by 2.
//! let config = SimConfig::new(2, 0.2, 8, 2);
//! let mut engine = SimEngine::new_sic(config);
//!
//! let actions = vec![
//!     Action::root(1u64, 1u32),
//!     Action::reply(2u64, 2u32, 1u64),
//!     Action::root(3u64, 3u32),
//!     Action::reply(4u64, 3u32, 1u64),
//! ];
//! for slide in actions.chunks(2) {
//!     engine.process_slide(slide);
//!     let solution = engine.query();
//!     assert!(solution.seeds.len() <= 2);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint_set;
pub mod config;
mod durable;
pub mod engine;
pub mod extensions;
pub mod framework;
pub mod handle;
pub mod ic;
pub mod intern;
pub mod metrics;
pub mod pool;
pub mod sic;
pub mod snapshot;
pub mod ssm;
pub mod trace;

pub use checkpoint_set::CheckpointSet;
pub use config::SimConfig;
pub use engine::{FeedBreakdown, RunReport, SimEngine, SlideReport};
pub use framework::{Framework, FrameworkKind, ResolvedAction, Solution};
pub use handle::{
    AsyncRequestError, Completion, CompletionPayload, CompletionSink, Doorbell, DurabilityState,
    EngineHandle, EngineReport, EngineStats, FsyncPolicy, HandleClosed, HandleOptions, IngestError,
    IngestSender, PersistOptions, Request, SenderSpawner, SnapshotInfo, SnapshotRequestError,
    JOURNAL_FILE, RECENT_SLIDES, SNAPSHOT_FILE,
};
pub use ic::IcFramework;
pub use intern::UserInterner;
pub use metrics::{
    EngineMetrics, Histogram, SlidingHistogram, HISTOGRAM_BUCKETS, METRICS_WINDOW_SLIDES,
};
pub use pool::{AdaptiveConfig, CheckpointStat, PoolStats, ShardPool, WorkerFeedReport};
pub use sic::SicFramework;
pub use snapshot::{
    load_snapshot, load_snapshot_with, recover_engine, recover_engine_with, write_snapshot_atomic,
    write_snapshot_atomic_with, write_snapshot_bytes_atomic, CheckpointSetState, CheckpointState,
    EngineSnapshot, FrameworkState, RecoveryOutcome, SnapshotError,
};
pub use ssm::Checkpoint;
pub use trace::{FlightRecorder, SpanCtx, TraceConfig, TraceWriter, MAX_LANES};
