//! # rtim-bench
//!
//! Experiment harness reproducing every table and figure of §6 of the paper.
//!
//! * [`params`] — the parameter grid of Table 4 and the scaled-down default
//!   experiment sizes used by the bundled binaries.
//! * [`runner`] — drives a method (SIC, IC, Greedy, IMM, UBI) over a
//!   generated stream, measuring the metrics the paper reports: average SIM
//!   influence value, number of maintained checkpoints, and throughput
//!   (actions per second of processing time).
//! * [`quality`] — the paper's quality metric: the seeds reported at each
//!   window are evaluated by Monte-Carlo simulation under the Weighted
//!   Cascade model on that window's influence graph, and averaged.
//! * [`report`] — plain-text table/series output shared by the experiment
//!   binaries (`src/bin/fig*.rs`, `src/bin/table*.rs`).
//!
//! The Criterion benches under `benches/` measure the same operations at
//! micro scale (per-slide latencies, per-element oracle updates, graph
//! operations); the binaries regenerate the full figures/tables.
//!
//! The `bench_feed` binary writes the engine-level perf artifact
//! `BENCH_feed.json` ([`feedjson`]).  The served path (TCP front-end,
//! journal, snapshots, recovery) is measured by the separate `perfbench/`
//! workspace: `python3 perfbench/run.py`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod covbench;
pub mod experiments;
pub mod feedjson;
pub mod params;
pub mod quality;
pub mod report;
pub mod runner;
pub mod stats;

pub use covbench::{bitmap_pass, coverage_workload, hashset_pass, time_pass};
pub use experiments::{BetaSweep, CommonArgs, MethodSweep, COMMON_KEYS};
pub use feedjson::{
    BaselineSample, CoverageOpsSample, FeedBenchReport, FeedRun, TraceOverheadSample, FEED_SCHEMA,
};
pub use params::{ExperimentParams, ParamGrid};
pub use quality::evaluate_average_spread;
pub use report::{format_series, format_table, Series};
pub use runner::{run_method, BaselineBudget, MethodKind, MethodRun};
pub use stats::LatencyStats;
