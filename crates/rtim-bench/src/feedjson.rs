//! Machine-readable feed-performance reports (`BENCH_feed.json`).
//!
//! The Criterion benches and figure binaries print human-oriented tables;
//! tracking the perf *trajectory across PRs* needs a stable, parseable
//! artifact instead.  [`FeedBenchReport`] captures, for one machine and one
//! run of the `bench_feed` binary:
//!
//! * per-framework feed runs driven through [`SimEngine::run_stream`](rtim_core::SimEngine::run_stream)
//!   (`rtim_core`), with total and per-slide `feed_nanos` / `query_nanos`
//!   and the derived actions-per-second rate, and
//! * the `coverage_ops` micro-comparison of the bitmap
//!   [`CoverageState`](rtim_submodular::CoverageState) against the retained
//!   hash-set baseline
//!   ([`HashCoverageState`](rtim_submodular::HashCoverageState)), so the
//!   layout win (and any regression) is recorded next to the end-to-end
//!   numbers that depend on it.
//!
//! The JSON is emitted by a small hand-rolled writer: the vendored `serde`
//! is a no-op stub (see `vendor/serde`), and the schema is flat enough that
//! a dedicated writer is simpler than growing the stub.  The schema is
//! versioned via the `schema` field; CI smoke-runs the emission path so
//! schema bitrot is caught.
//!
//! ## Schema v2
//!
//! `rtim-bench-feed/v2` extends v1 with
//!
//! * a top-level `simd` flag recording whether the kernels ran with the
//!   `simd` feature,
//! * per-run `shard_migrations` / `shard_ewma_min_nanos` /
//!   `shard_ewma_max_nanos` from the pool (rebalance moves and the
//!   per-shard feed-time EWMA spread),
//! * a `baselines` array of reference per-slide feed times recorded on the
//!   same machine by an earlier run, and
//! * `speedups_vs_baseline`, pairing each run with its baseline by name
//!   (`baseline_mean / run_mean`, > 1 is a win).
//!
//! v1 fields are unchanged, so v1 consumers that ignore unknown fields
//! keep working.  The additive `trace_overhead` object (same convention:
//! unknown-field-tolerant consumers keep working, so the schema id stays
//! v2) records the flight-recorder differential — the same stream pushed
//! through the [`EngineHandle`](rtim_core::EngineHandle) pipeline with
//! tracing disabled and again at 1-in-N sampling, with the engine feed
//! times and their ratio (`≈ 1.0` when the hot path stays untouched).

use rtim_core::{PoolStats, RunReport};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema identifier of the emitted JSON document.
pub const FEED_SCHEMA: &str = "rtim-bench-feed/v2";

/// Cap on the per-slide arrays embedded in the JSON (aggregates always cover
/// every slide; the arrays exist for shape inspection, not bulk storage).
pub const PER_SLIDE_CAP: usize = 512;

/// One framework run, summarized from the engine's own instrumentation.
#[derive(Debug, Clone)]
pub struct FeedRun {
    /// Run label, e.g. `"sic_syn-n_t1"`.
    pub name: String,
    /// Framework name (`"SIC"` / `"IC"`).
    pub framework: String,
    /// Worker threads backing the checkpoint set (1 = sequential).
    pub threads: usize,
    /// Total actions processed.
    pub actions: u64,
    /// Number of window slides.
    pub slides: usize,
    /// Total nanoseconds spent feeding slides.
    pub feed_nanos_total: u64,
    /// Total nanoseconds spent answering queries.
    pub query_nanos_total: u64,
    /// Mean feed nanoseconds per slide.
    pub feed_nanos_per_slide_mean: f64,
    /// Actions per second of feed time (the headline rate).
    pub elements_per_sec: f64,
    /// Per-slide feed nanoseconds (first [`PER_SLIDE_CAP`] slides).
    pub per_slide_feed_nanos: Vec<u64>,
    /// Per-slide query nanoseconds (first [`PER_SLIDE_CAP`] slides).
    pub per_slide_query_nanos: Vec<u64>,
    /// `true` if the per-slide arrays were truncated to the cap.
    pub per_slide_truncated: bool,
    /// Checkpoints moved between shards by the pool's count rebalancer
    /// (0 at pool width 1).
    pub shard_migrations: u64,
    /// Smallest per-shard feed-time EWMA after the run, nanoseconds.
    pub shard_ewma_min_nanos: u64,
    /// Largest per-shard feed-time EWMA after the run, nanoseconds.
    pub shard_ewma_max_nanos: u64,
}

impl FeedRun {
    /// Summarizes an engine [`RunReport`] under the given label.
    pub fn from_report(
        name: impl Into<String>,
        framework: impl Into<String>,
        threads: usize,
        report: &RunReport,
    ) -> FeedRun {
        let slides = report.slides.len();
        let feed_total = report.feed_nanos();
        let feed_secs = feed_total as f64 / 1e9;
        FeedRun {
            name: name.into(),
            framework: framework.into(),
            threads,
            actions: report.actions(),
            slides,
            feed_nanos_total: feed_total,
            query_nanos_total: report.query_nanos(),
            feed_nanos_per_slide_mean: if slides == 0 {
                0.0
            } else {
                feed_total as f64 / slides as f64
            },
            elements_per_sec: if feed_secs > 0.0 {
                report.actions() as f64 / feed_secs
            } else {
                0.0
            },
            per_slide_feed_nanos: report
                .slides
                .iter()
                .take(PER_SLIDE_CAP)
                .map(|s| s.feed_nanos)
                .collect(),
            per_slide_query_nanos: report
                .slides
                .iter()
                .take(PER_SLIDE_CAP)
                .map(|s| s.query_nanos)
                .collect(),
            per_slide_truncated: slides > PER_SLIDE_CAP,
            shard_migrations: 0,
            shard_ewma_min_nanos: 0,
            shard_ewma_max_nanos: 0,
        }
    }

    /// Attaches the engine's post-run [`PoolStats`] to the run record.
    pub fn with_pool_stats(mut self, stats: PoolStats) -> Self {
        self.shard_migrations = stats.migrations;
        self.shard_ewma_min_nanos = stats.ewma_min_nanos;
        self.shard_ewma_max_nanos = stats.ewma_max_nanos;
        self
    }
}

/// A reference per-slide feed time recorded by an earlier run on the same
/// machine, keyed by run name (schema v2).
#[derive(Debug, Clone)]
pub struct BaselineSample {
    /// Run name the baseline pairs with (e.g. `"sic_syn-n_t4"`).
    pub name: String,
    /// The earlier run's mean feed nanoseconds per slide.
    pub feed_nanos_per_slide_mean: f64,
    /// Where the number came from (e.g. a PR/commit label).
    pub source: String,
}

/// The tracing-overhead differential: one stream pushed through the
/// pipeline with tracing disabled and again at 1-in-`sample` sampling.
#[derive(Debug, Clone)]
pub struct TraceOverheadSample {
    /// Sampling rate of the traced run (1-in-`sample`).
    pub sample: u32,
    /// Actions pushed through each run.
    pub actions: u64,
    /// Engine feed nanoseconds with tracing disabled.
    pub feed_nanos_disabled: u64,
    /// Engine feed nanoseconds at 1-in-`sample` sampling.
    pub feed_nanos_sampled: u64,
    /// `feed_nanos_sampled / feed_nanos_disabled` (1.0 = free).
    pub overhead_ratio: f64,
}

/// One measured coverage micro-operation.
#[derive(Debug, Clone)]
pub struct CoverageOpsSample {
    /// Operation name (`"absorb"`, `"marginal_gain"`).
    pub op: String,
    /// Implementation (`"bitmap"` or `"hashset"` — the retained baseline).
    pub implementation: String,
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Number of operations timed.
    pub ops: u64,
}

/// The complete `BENCH_feed.json` document.
#[derive(Debug, Clone, Default)]
pub struct FeedBenchReport {
    /// Framework feed runs.
    pub runs: Vec<FeedRun>,
    /// Bitmap-vs-hashset coverage micro-comparison.
    pub coverage_ops: Vec<CoverageOpsSample>,
    /// Whether the kernels ran with the `simd` feature enabled.
    pub simd: bool,
    /// Reference numbers from an earlier run on the same machine.
    pub baselines: Vec<BaselineSample>,
    /// Tracing-overhead differential, when the run measured it.
    pub trace_overhead: Option<TraceOverheadSample>,
}

impl FeedBenchReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate speedup of the bitmap implementation over the hash-set
    /// baseline (total hashset ns / total bitmap ns over the paired
    /// operations), or `None` if either side is missing.
    pub fn bitmap_speedup(&self) -> Option<f64> {
        let total = |imp: &str| -> f64 {
            self.coverage_ops
                .iter()
                .filter(|s| s.implementation == imp)
                .map(|s| s.ns_per_op * s.ops as f64)
                .sum()
        };
        let (bitmap, hashset) = (total("bitmap"), total("hashset"));
        if bitmap > 0.0 && hashset > 0.0 {
            Some(hashset / bitmap)
        } else {
            None
        }
    }

    /// Speedup of the named run over its same-named baseline
    /// (`baseline_mean / run_mean`; > 1 means the run got faster), or
    /// `None` if either side is missing or non-positive.
    pub fn speedup_vs_baseline(&self, name: &str) -> Option<f64> {
        let run = self.runs.iter().find(|r| r.name == name)?;
        let base = self.baselines.iter().find(|b| b.name == name)?;
        if run.feed_nanos_per_slide_mean > 0.0 && base.feed_nanos_per_slide_mean > 0.0 {
            Some(base.feed_nanos_per_slide_mean / run.feed_nanos_per_slide_mean)
        } else {
            None
        }
    }

    /// Renders the document as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(FEED_SCHEMA));
        let _ = writeln!(out, "  \"simd\": {},", self.simd);
        out.push_str("  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}, ", json_str(&run.name));
            let _ = write!(out, "\"framework\": {}, ", json_str(&run.framework));
            let _ = write!(out, "\"threads\": {}, ", run.threads);
            let _ = write!(out, "\"actions\": {}, ", run.actions);
            let _ = write!(out, "\"slides\": {}, ", run.slides);
            let _ = write!(out, "\"feed_nanos_total\": {}, ", run.feed_nanos_total);
            let _ = write!(out, "\"query_nanos_total\": {}, ", run.query_nanos_total);
            let _ = write!(
                out,
                "\"feed_nanos_per_slide_mean\": {}, ",
                json_f64(run.feed_nanos_per_slide_mean)
            );
            let _ = write!(
                out,
                "\"elements_per_sec\": {}, ",
                json_f64(run.elements_per_sec)
            );
            let _ = write!(
                out,
                "\"per_slide_truncated\": {}, ",
                run.per_slide_truncated
            );
            let _ = write!(out, "\"shard_migrations\": {}, ", run.shard_migrations);
            let _ = write!(
                out,
                "\"shard_ewma_min_nanos\": {}, ",
                run.shard_ewma_min_nanos
            );
            let _ = write!(
                out,
                "\"shard_ewma_max_nanos\": {}, ",
                run.shard_ewma_max_nanos
            );
            let _ = write!(
                out,
                "\"per_slide_feed_nanos\": {}, ",
                json_u64_array(&run.per_slide_feed_nanos)
            );
            let _ = write!(
                out,
                "\"per_slide_query_nanos\": {}",
                json_u64_array(&run.per_slide_query_nanos)
            );
            out.push('}');
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"coverage_ops\": [");
        for (i, s) in self.coverage_ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"op\": {}, ", json_str(&s.op));
            let _ = write!(out, "\"impl\": {}, ", json_str(&s.implementation));
            let _ = write!(out, "\"ns_per_op\": {}, ", json_f64(s.ns_per_op));
            let _ = write!(out, "\"ops\": {}", s.ops);
            out.push('}');
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"baselines\": [");
        for (i, b) in self.baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}, ", json_str(&b.name));
            let _ = write!(
                out,
                "\"feed_nanos_per_slide_mean\": {}, ",
                json_f64(b.feed_nanos_per_slide_mean)
            );
            let _ = write!(out, "\"source\": {}", json_str(&b.source));
            out.push('}');
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"speedups_vs_baseline\": [");
        let mut first = true;
        for run in &self.runs {
            if let Some(speedup) = self.speedup_vs_baseline(&run.name) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    {");
                let _ = write!(out, "\"name\": {}, ", json_str(&run.name));
                let _ = write!(out, "\"speedup\": {}", json_f64(speedup));
                out.push('}');
            }
        }
        out.push_str("\n  ],\n");
        match &self.trace_overhead {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "  \"trace_overhead\": {{\"sample\": {}, \"actions\": {}, \
                     \"feed_nanos_disabled\": {}, \"feed_nanos_sampled\": {}, \
                     \"overhead_ratio\": {}}},",
                    t.sample,
                    t.actions,
                    t.feed_nanos_disabled,
                    t.feed_nanos_sampled,
                    json_f64(t.overhead_ratio)
                );
            }
            None => {
                out.push_str("  \"trace_overhead\": null,\n");
            }
        }
        match self.bitmap_speedup() {
            Some(v) => {
                let _ = writeln!(out, "  \"bitmap_speedup_vs_hashset\": {}", json_f64(v));
            }
            None => {
                out.push_str("  \"bitmap_speedup_vs_hashset\": null\n");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Writes the document to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes the labels here can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; those become null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_core::{SlideReport, Solution};

    fn report_with(feed: &[u64]) -> RunReport {
        RunReport {
            slides: feed
                .iter()
                .map(|&f| SlideReport {
                    actions: 10,
                    feed_nanos: f,
                    query_nanos: 5,
                    ..SlideReport::default()
                })
                .collect(),
            solutions: feed.iter().map(|_| Solution::empty()).collect(),
        }
    }

    #[test]
    fn feed_run_summarizes_report() {
        let run = FeedRun::from_report("sic_test", "SIC", 1, &report_with(&[100, 300]));
        assert_eq!(run.actions, 20);
        assert_eq!(run.slides, 2);
        assert_eq!(run.feed_nanos_total, 400);
        assert_eq!(run.query_nanos_total, 10);
        assert_eq!(run.feed_nanos_per_slide_mean, 200.0);
        assert!(run.elements_per_sec > 0.0);
        assert!(!run.per_slide_truncated);
        assert_eq!(run.per_slide_feed_nanos, vec![100, 300]);
    }

    #[test]
    fn json_has_schema_runs_and_ops() {
        let mut r = FeedBenchReport::new();
        r.runs
            .push(FeedRun::from_report("ic_x", "IC", 2, &report_with(&[7])));
        r.coverage_ops.push(CoverageOpsSample {
            op: "absorb".into(),
            implementation: "bitmap".into(),
            ns_per_op: 12.5,
            ops: 1000,
        });
        r.coverage_ops.push(CoverageOpsSample {
            op: "absorb".into(),
            implementation: "hashset".into(),
            ns_per_op: 50.0,
            ops: 1000,
        });
        r.trace_overhead = Some(TraceOverheadSample {
            sample: 64,
            actions: 20_000,
            feed_nanos_disabled: 1_000,
            feed_nanos_sampled: 1_010,
            overhead_ratio: 1.01,
        });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"rtim-bench-feed/v2\""));
        assert!(json.contains("\"simd\": false"));
        assert!(json.contains("\"name\": \"ic_x\""));
        assert!(json.contains("\"per_slide_feed_nanos\": [7]"));
        assert!(json.contains("\"shard_migrations\": 0"));
        assert!(json.contains("\"impl\": \"hashset\""));
        assert!(json.contains("\"bitmap_speedup_vs_hashset\": 4"));
        assert!(json.contains("\"trace_overhead\": {\"sample\": 64"));
        assert!(json.contains("\"overhead_ratio\": 1.01"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn speedup_requires_both_sides() {
        let mut r = FeedBenchReport::new();
        assert_eq!(r.bitmap_speedup(), None);
        r.coverage_ops.push(CoverageOpsSample {
            op: "marginal_gain".into(),
            implementation: "bitmap".into(),
            ns_per_op: 1.0,
            ops: 10,
        });
        assert_eq!(r.bitmap_speedup(), None);
        assert!(r.to_json().contains("\"bitmap_speedup_vs_hashset\": null"));
        assert!(r.to_json().contains("\"trace_overhead\": null"));
    }

    #[test]
    fn baseline_speedup_pairs_by_name() {
        let mut r = FeedBenchReport::new();
        r.runs.push(FeedRun::from_report(
            "sic_a_t4",
            "SIC",
            4,
            &report_with(&[100, 100]),
        ));
        assert_eq!(r.speedup_vs_baseline("sic_a_t4"), None);
        r.baselines.push(BaselineSample {
            name: "sic_a_t4".into(),
            feed_nanos_per_slide_mean: 250.0,
            source: "earlier run".into(),
        });
        assert_eq!(r.speedup_vs_baseline("sic_a_t4"), Some(2.5));
        assert_eq!(r.speedup_vs_baseline("nope"), None);
        let json = r.to_json();
        assert!(json.contains("\"speedups_vs_baseline\": ["));
        assert!(json.contains("\"speedup\": 2.5"));
        assert!(json.contains("\"source\": \"earlier run\""));
    }

    #[test]
    fn pool_stats_attach_to_runs() {
        let run =
            FeedRun::from_report("x", "IC", 4, &report_with(&[10])).with_pool_stats(PoolStats {
                migrations: 3,
                ewma_min_nanos: 5,
                ewma_max_nanos: 9,
                arena_takes: 0,
                arena_hits: 0,
            });
        assert_eq!(run.shard_migrations, 3);
        assert_eq!(run.shard_ewma_min_nanos, 5);
        assert_eq!(run.shard_ewma_max_nanos, 9);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
