//! Emits the machine-readable feed-performance artifact `BENCH_feed.json`.
//!
//! Runs SIC and IC through [`rtim_core::SimEngine::run_stream`] on a
//! synthetic stream (per-slide `feed_nanos`/`query_nanos` come from the
//! engine's own instrumentation) and the `coverage_ops` micro-comparison of
//! the bitmap coverage state against the retained hash-set baseline, then
//! writes everything as schema-v2 JSON so the perf trajectory can be
//! tracked across PRs on the same machine.
//!
//! `--hot-frac P` additionally replays the stream with `P` percent of the
//! actions remapped onto a handful of hot users — a skewed workload that
//! makes some checkpoints far costlier than others — and records the
//! resulting `shard_migrations` (rebalance moves) and per-shard EWMA
//! spread per run.
//!
//! ```text
//! cargo run --release -p rtim-bench --bin bench_feed -- \
//!     --dataset syn-n --actions 2000 --users 500 --window 400 --slide 100 \
//!     --threads 4 --hot-frac 30 --out BENCH_feed.json
//! ```

use rtim_bench::cli::Args;
use rtim_bench::{
    bitmap_pass, coverage_workload, hashset_pass, time_pass, BaselineSample, CommonArgs,
    CoverageOpsSample, FeedBenchReport, FeedRun, TraceOverheadSample, COMMON_KEYS,
};
use rtim_core::{EngineHandle, FrameworkKind, HandleOptions, SimEngine, SpanCtx, TraceConfig};
use rtim_stream::{SocialStream, UserId};

/// Number of distinct hot users the `--hot-frac` remap concentrates on.
const HOT_USERS: u32 = 4;

/// Sampling rate of the trace-overhead differential (1-in-N).
const TRACE_SAMPLE: u32 = 64;

/// Reference per-slide feed times measured on this repository's CI/dev
/// machine at the PR 6 head (commit 4ee98f3), with the canonical artifact
/// arguments below.  Attached to the report only when the current
/// invocation matches those arguments — trajectory numbers from different
/// workloads are not comparable.
const PR6_BASELINE_SOURCE: &str = "PR6 @ 4ee98f3 (pre-kernel scalar hot path)";
const PR6_BASELINE: &[(&str, f64)] = &[
    ("sic_syn-n_t1", 13_442_587.725),
    ("sic_syn-n_t4", 12_644_833.175),
    ("ic_syn-n_t1", 12_092_878.15),
    ("ic_syn-n_t4", 12_942_741.025),
];

/// The canonical artifact arguments the PR 6 baseline was recorded with:
/// `--dataset syn-n --actions 20000 --users 2000 --window 4000 --slide 500
/// --threads 4`.
fn matches_baseline_workload(common: &CommonArgs, threads: usize) -> bool {
    common.actions == Some(20_000)
        && common.users == Some(2_000)
        && common.params.window == 4_000
        && common.params.slide == 500
        && threads == 4
}

/// Remaps `percent`% of the actions (every ⌊100/percent⌋-th, deterministic)
/// onto [`HOT_USERS`] users, concentrating influence-set growth — and
/// therefore checkpoint feed time — on whichever shards own the oldest
/// checkpoints.  Ids and reply structure are untouched, so the stream
/// stays valid.
fn hotify(stream: &SocialStream, percent: u32) -> SocialStream {
    let actions: Vec<_> = stream
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if (i as u64 * percent as u64) % 100 < percent as u64 {
                rtim_stream::Action {
                    user: UserId(a.user.0 % HOT_USERS),
                    ..*a
                }
            } else {
                *a
            }
        })
        .collect();
    SocialStream::new(actions).expect("user remap preserves stream validity")
}

/// One trace-overhead leg: the stream pushed through the
/// [`EngineHandle`] pipeline (the instrumented hot path, not the
/// in-process [`SimEngine`]) in one-slide batches, returning the engine
/// feed nanoseconds.  `trace` enables the flight recorder; a sampled
/// span rides on every [`TRACE_SAMPLE`]-th batch, exactly like a
/// front-end at 1-in-N sampling.
fn traced_feed_nanos(
    config: rtim_core::SimConfig,
    stream: &SocialStream,
    batch: usize,
    trace: Option<TraceConfig>,
) -> u64 {
    let mut options = HandleOptions::default().with_capacity(64);
    if let Some(trace) = trace {
        options = options.with_tracing(trace);
    }
    let handle = EngineHandle::spawn(config, FrameworkKind::Sic, options);
    let recorder = handle.trace_recorder();
    let mut sender = handle.sender();
    for (i, chunk) in stream.actions().chunks(batch.max(1)).enumerate() {
        let span = match &recorder {
            Some(r) if (i as u32).is_multiple_of(TRACE_SAMPLE) => {
                let now = r.now_nanos();
                SpanCtx {
                    conn: 0,
                    corr: i as u32,
                    kind: 0x01, // ingest
                    sampled: true,
                    start_nanos: now,
                    parse_nanos: 0,
                    enqueue_nanos: now,
                }
            }
            _ => SpanCtx::default(),
        };
        sender.ingest_traced(chunk.to_vec(), span).expect("ingest");
    }
    handle.shutdown().stats.feed_nanos
}

fn main() {
    let keys: Vec<&str> = COMMON_KEYS
        .iter()
        .copied()
        .chain(["threads", "out", "cov-sets", "cov-iters", "hot-frac"])
        .collect();
    let args = match Args::parse(&keys) {
        Ok(a) => a,
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let common = CommonArgs::resolve(&args);
    let threads: usize = args.get_or("threads", 1usize).max(1);
    let out = args.get("out").unwrap_or("BENCH_feed.json").to_string();
    let cov_sets: usize = args.get_or("cov-sets", 400usize);
    let cov_iters: u32 = args.get_or("cov-iters", 5u32);
    let hot_frac: u32 = args.get_or("hot-frac", 0u32).min(100);

    let dataset = common.datasets[0];
    let stream = common.generate(dataset);
    let params = &common.params;

    let mut report = FeedBenchReport::new();
    report.simd = cfg!(feature = "simd");

    // Framework feed runs: sequential always, plus the pool when asked.
    let mut thread_counts = vec![1usize];
    if threads > 1 {
        thread_counts.push(threads);
    }
    for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
        for &t in &thread_counts {
            let config = params.sim_config().with_threads(t);
            let mut engine = SimEngine::new(config, kind);
            let run = engine.run_stream(&stream);
            let name = format!(
                "{}_{}_t{}",
                kind.name().to_ascii_lowercase(),
                dataset.name().to_ascii_lowercase(),
                t
            );
            report.runs.push(
                FeedRun::from_report(name, kind.name(), t, &run)
                    .with_pool_stats(engine.pool_stats()),
            );
        }
    }

    // Hot-key skew runs: the same stream with a fraction of the actions
    // concentrated on a few users, replayed at the full thread count so
    // the per-shard EWMA spread shows the cost skew between shards.
    if hot_frac > 0 && threads > 1 {
        let hot = hotify(&stream, hot_frac);
        for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
            let config = params.sim_config().with_threads(threads);
            let mut engine = SimEngine::new(config, kind);
            let run = engine.run_stream(&hot);
            let name = format!(
                "{}_{}_hot{}_t{}",
                kind.name().to_ascii_lowercase(),
                dataset.name().to_ascii_lowercase(),
                hot_frac,
                threads
            );
            report.runs.push(
                FeedRun::from_report(name, kind.name(), threads, &run)
                    .with_pool_stats(engine.pool_stats()),
            );
        }
    }

    if matches_baseline_workload(&common, threads) {
        for &(name, mean) in PR6_BASELINE {
            report.baselines.push(BaselineSample {
                name: name.into(),
                feed_nanos_per_slide_mean: mean,
                source: PR6_BASELINE_SOURCE.into(),
            });
        }
    }

    // coverage_ops: bitmap vs the retained hash-set baseline on the shared
    // workload (identical op sequence; see rtim_bench::covbench).
    let sets = coverage_workload(cov_sets, 5_000, params.seed);
    let (bitmap_ns, bitmap_ops) = time_pass(cov_iters, || bitmap_pass(&sets));
    let (hash_ns, hash_ops) = time_pass(cov_iters, || hashset_pass(&sets));
    report.coverage_ops.push(CoverageOpsSample {
        op: "mixed_marginal_absorb".into(),
        implementation: "bitmap".into(),
        ns_per_op: bitmap_ns,
        ops: bitmap_ops,
    });
    report.coverage_ops.push(CoverageOpsSample {
        op: "mixed_marginal_absorb".into(),
        implementation: "hashset".into(),
        ns_per_op: hash_ns,
        ops: hash_ops,
    });

    // trace_overhead: the same stream through the pipeline hot path with
    // tracing disabled and again at 1-in-64 sampling.  The disabled leg
    // runs first so the traced leg cannot borrow its cache warmth.
    let batch = params.slide;
    let disabled = traced_feed_nanos(params.sim_config(), &stream, batch, None);
    let sampled = traced_feed_nanos(
        params.sim_config(),
        &stream,
        batch,
        Some(TraceConfig::sampled(TRACE_SAMPLE, 50)),
    );
    report.trace_overhead = Some(TraceOverheadSample {
        sample: TRACE_SAMPLE,
        actions: stream.len() as u64,
        feed_nanos_disabled: disabled,
        feed_nanos_sampled: sampled,
        overhead_ratio: if disabled > 0 {
            sampled as f64 / disabled as f64
        } else {
            0.0
        },
    });

    if let Err(e) = report.write(&out) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }

    for run in &report.runs {
        let vs = report
            .speedup_vs_baseline(&run.name)
            .map(|s| format!("  {s:.2}x vs baseline"))
            .unwrap_or_default();
        println!(
            "{:>20}  slides {:>5}  feed/slide {:>12.0} ns  {:>12.0} actions/s  migrations {:>3}{}",
            run.name,
            run.slides,
            run.feed_nanos_per_slide_mean,
            run.elements_per_sec,
            run.shard_migrations,
            vs
        );
    }
    println!(
        "coverage_ops: bitmap {bitmap_ns:.1} ns/op, hashset {hash_ns:.1} ns/op, speedup {}",
        report
            .bitmap_speedup()
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "n/a".into())
    );
    if let Some(t) = &report.trace_overhead {
        println!(
            "trace_overhead: 1-in-{} sampling {:.3}x of disabled ({} vs {} feed ns)",
            t.sample, t.overhead_ratio, t.feed_nanos_sampled, t.feed_nanos_disabled
        );
    }
    println!("wrote {out}");
}
