//! Method runners: process a stream with one method and collect the
//! paper's performance metrics.
//!
//! The paper's metrics (§6.1):
//!
//! * **Throughput** — for every window slide of `L` actions, the elapsed
//!   processing CPU time is measured; throughput is `L` divided by that
//!   time.  We report total processed actions divided by total processing
//!   time, which is the same aggregate the figures plot.
//! * **Influence value** — the SIM objective value reported by the method's
//!   answer, averaged over all full windows (Figure 5).
//! * **Checkpoints** — the average number of checkpoints maintained
//!   (Figure 6; only meaningful for IC/SIC).
//!
//! Baselines are driven through the same window maintenance (sliding
//! window plus propagation index) so their measured cost includes exactly
//! the same substrate work as the streaming frameworks.

use crate::stats::LatencyStats;
use rtim_baselines::{GreedySim, Imm, Ubi, UbiConfig};
use rtim_core::{FrameworkKind, SimConfig, SimEngine};
use rtim_graph::build_window_graph;
use rtim_stream::{PropagationIndex, SlidingWindow, SocialStream, UserId};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The five compared methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodKind {
    /// Sparse Influential Checkpoints (this paper).
    Sic,
    /// Influential Checkpoints (this paper).
    Ic,
    /// Greedy recomputation per window (Nemhauser et al.).
    Greedy,
    /// IMM re-run per window (Tang et al. 2015).
    Imm,
    /// Upper Bound Interchange (Chen et al. 2015).
    Ubi,
}

impl MethodKind {
    /// All methods in the order used by the figures.
    pub fn all() -> [MethodKind; 5] {
        [
            MethodKind::Sic,
            MethodKind::Ic,
            MethodKind::Greedy,
            MethodKind::Imm,
            MethodKind::Ubi,
        ]
    }

    /// The two streaming frameworks only.
    pub fn streaming() -> [MethodKind; 2] {
        [MethodKind::Sic, MethodKind::Ic]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Sic => "SIC",
            MethodKind::Ic => "IC",
            MethodKind::Greedy => "Greedy",
            MethodKind::Imm => "IMM",
            MethodKind::Ubi => "UBI",
        }
    }

    /// Parses a method name (case-insensitive).
    pub fn parse(s: &str) -> Option<MethodKind> {
        match s.to_ascii_lowercase().as_str() {
            "sic" => Some(MethodKind::Sic),
            "ic" => Some(MethodKind::Ic),
            "greedy" => Some(MethodKind::Greedy),
            "imm" => Some(MethodKind::Imm),
            "ubi" => Some(MethodKind::Ubi),
            _ => None,
        }
    }
}

/// Metrics and per-slide answers collected from one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Which method produced this run.
    pub method: MethodKind,
    /// Total actions processed.
    pub actions: u64,
    /// Total processing time (window maintenance + method work).
    pub elapsed: Duration,
    /// Throughput in actions per second.
    pub throughput: f64,
    /// Average SIM influence value over full windows (streaming methods) or
    /// average objective value of the selected seeds (Greedy); 0 for
    /// IMM/UBI whose native objective is the spread, not the SIM value.
    pub avg_value: f64,
    /// Average number of checkpoints maintained (streaming methods only).
    pub avg_checkpoints: f64,
    /// Seeds reported after each slide (aligned with slide index).
    pub seeds_per_slide: Vec<Vec<UserId>>,
    /// Distribution of per-slide processing latencies.
    pub latency: LatencyStats,
}

impl MethodRun {
    fn finish(
        method: MethodKind,
        actions: u64,
        per_slide: &[Duration],
        values: &[f64],
        checkpoints: &[usize],
        seeds_per_slide: Vec<Vec<UserId>>,
    ) -> Self {
        let elapsed: Duration = per_slide.iter().sum();
        let throughput = if elapsed.as_secs_f64() > 0.0 {
            actions as f64 / elapsed.as_secs_f64()
        } else {
            f64::INFINITY
        };
        MethodRun {
            method,
            actions,
            elapsed,
            throughput,
            avg_value: mean(values),
            avg_checkpoints: mean(&checkpoints.iter().map(|&c| c as f64).collect::<Vec<_>>()),
            seeds_per_slide,
            latency: LatencyStats::from_durations(per_slide),
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Extra knobs for the expensive baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineBudget {
    /// Cap on RR sets per IMM invocation (resource guard for sweeps).
    pub imm_max_rr_sets: usize,
    /// RR sets per UBI update.
    pub ubi_rr_sets: usize,
    /// Process at most this many *full-window* slides (0 = all).  The static
    /// baselines are orders of magnitude slower than SIC; sweeps cap their
    /// measured slides and the throughput estimate remains valid (their
    /// per-slide cost is stationary once the window is full).
    pub max_slides: usize,
}

impl Default for BaselineBudget {
    fn default() -> Self {
        BaselineBudget {
            imm_max_rr_sets: 50_000,
            ubi_rr_sets: 5_000,
            max_slides: 0,
        }
    }
}

/// Runs a method over the stream using the given SIM configuration.
pub fn run_method(
    method: MethodKind,
    config: SimConfig,
    stream: &SocialStream,
    budget: BaselineBudget,
    seed: u64,
) -> MethodRun {
    match method {
        MethodKind::Sic => run_framework(FrameworkKind::Sic, config, stream),
        MethodKind::Ic => run_framework(FrameworkKind::Ic, config, stream),
        MethodKind::Greedy | MethodKind::Imm | MethodKind::Ubi => {
            run_baseline(method, config, stream, budget, seed)
        }
    }
}

/// Runs IC or SIC over the stream via [`SimEngine::run_stream`], deriving
/// every timing metric from the engine's own per-slide `feed_nanos` /
/// `query_nanos` instrumentation (no stopwatch around the engine).
pub fn run_framework(kind: FrameworkKind, config: SimConfig, stream: &SocialStream) -> MethodRun {
    let method = match kind {
        FrameworkKind::Sic => MethodKind::Sic,
        FrameworkKind::Ic => MethodKind::Ic,
    };
    let mut engine = SimEngine::new(config, kind);
    let report = engine.run_stream(stream);
    let warmup_slides = config.checkpoint_capacity();

    let per_slide: Vec<Duration> = report
        .slides
        .iter()
        .map(|r| Duration::from_nanos(r.feed_nanos + r.query_nanos))
        .collect();
    let mut values = Vec::new();
    let mut checkpoints = Vec::new();
    for (slide_idx, (slide, solution)) in report.slides.iter().zip(&report.solutions).enumerate() {
        if slide_idx + 1 >= warmup_slides {
            values.push(solution.value);
            checkpoints.push(slide.checkpoints);
        }
    }
    let seeds_per_slide = report
        .solutions
        .into_iter()
        .map(|s| s.seeds)
        .collect::<Vec<_>>();
    MethodRun::finish(
        method,
        report.slides.iter().map(|r| r.actions as u64).sum(),
        &per_slide,
        &values,
        &checkpoints,
        seeds_per_slide,
    )
}

/// Runs one of the baselines over the stream, maintaining the same window
/// substrate and invoking the baseline's selection at every slide.
pub fn run_baseline(
    method: MethodKind,
    config: SimConfig,
    stream: &SocialStream,
    budget: BaselineBudget,
    seed: u64,
) -> MethodRun {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut window = SlidingWindow::new(config.window_size);
    let mut index = PropagationIndex::new();
    let mut rng = StdRng::seed_from_u64(seed);

    let greedy = GreedySim::new(config.k);
    let imm = Imm::new(config.k).with_max_rr_sets(budget.imm_max_rr_sets);
    let mut ubi = Ubi::new(UbiConfig::new(config.k).with_rr_sets(budget.ubi_rr_sets));

    let warmup_slides = config.checkpoint_capacity();
    let mut values = Vec::new();
    let mut seeds_per_slide = Vec::new();
    let mut actions = 0u64;
    let mut per_slide = Vec::new();
    let mut measured_slides = 0usize;

    for (slide_idx, batch) in stream.batches(config.slide).enumerate() {
        // Warm-up: fill the window without timing or selecting — the static
        // baselines answer per *full* window, and measuring them on a
        // half-empty window would overstate their throughput.
        if slide_idx + 1 < warmup_slides {
            for action in batch {
                index.insert(action);
                window.push(*action);
            }
            seeds_per_slide.push(Vec::new());
            continue;
        }
        if budget.max_slides > 0 && measured_slides >= budget.max_slides {
            break;
        }
        measured_slides += 1;
        let start = Instant::now();
        for action in batch {
            index.insert(action);
            window.push(*action);
        }
        let (seeds, value) = match method {
            MethodKind::Greedy => {
                let influence = rtim_stream::window_influence_sets(&window, &index);
                let result = greedy.select(&influence);
                (result.seeds, result.value)
            }
            MethodKind::Imm => {
                let graph = build_window_graph(&window, &index);
                let result = imm.select(&graph, &mut rng);
                (result.seeds, result.estimated_spread)
            }
            MethodKind::Ubi => {
                let graph = build_window_graph(&window, &index);
                let spread = ubi.update(&graph, &mut rng);
                (ubi.seeds().to_vec(), spread)
            }
            _ => unreachable!("streaming methods use run_framework"),
        };
        per_slide.push(start.elapsed());
        actions += batch.len() as u64;
        values.push(value);
        seeds_per_slide.push(seeds);
    }
    MethodRun::finish(method, actions, &per_slide, &values, &[], seeds_per_slide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_datagen::{DatasetConfig, DatasetKind, Scale};

    fn tiny_stream() -> SocialStream {
        DatasetConfig::new(DatasetKind::SynN, Scale::Small)
            .with_users(300)
            .with_actions(2_000)
            .generate()
    }

    fn tiny_config() -> SimConfig {
        SimConfig::new(5, 0.2, 400, 50)
    }

    #[test]
    fn framework_runs_report_metrics() {
        let stream = tiny_stream();
        for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
            let run = run_framework(kind, tiny_config(), &stream);
            assert_eq!(run.actions, 2_000);
            assert!(run.throughput > 0.0, "{}", run.method.name());
            assert!(run.avg_value > 0.0);
            assert!(run.avg_checkpoints >= 1.0);
            assert_eq!(run.seeds_per_slide.len(), 40);
        }
    }

    #[test]
    fn sic_keeps_fewer_checkpoints_than_ic() {
        let stream = tiny_stream();
        let sic = run_framework(FrameworkKind::Sic, tiny_config(), &stream);
        let ic = run_framework(FrameworkKind::Ic, tiny_config(), &stream);
        assert!(sic.avg_checkpoints < ic.avg_checkpoints);
        // IC's value is an upper bound on SIC's (same oracle, denser grid).
        assert!(ic.avg_value + 1e-9 >= sic.avg_value * 0.8);
    }

    #[test]
    fn greedy_baseline_runs() {
        let stream = tiny_stream();
        let budget = BaselineBudget {
            max_slides: 10,
            ..BaselineBudget::default()
        };
        let run = run_method(MethodKind::Greedy, tiny_config(), &stream, budget, 7);
        // 7 empty warm-up entries (window filling) + 10 measured slides.
        let measured = run.seeds_per_slide.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(measured, 10);
        assert!(run.throughput > 0.0);
        assert!(run.latency.count == 10);
    }

    #[test]
    fn imm_and_ubi_baselines_run() {
        let stream = tiny_stream();
        let budget = BaselineBudget {
            imm_max_rr_sets: 2_000,
            ubi_rr_sets: 500,
            max_slides: 5,
        };
        for method in [MethodKind::Imm, MethodKind::Ubi] {
            let run = run_method(method, tiny_config(), &stream, budget, 7);
            let measured = run.seeds_per_slide.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(measured, 5, "{}", method.name());
            assert!(run.seeds_per_slide.last().unwrap().len() <= 5);
        }
    }

    #[test]
    fn method_kind_parse_and_names() {
        assert_eq!(MethodKind::parse("sic"), Some(MethodKind::Sic));
        assert_eq!(MethodKind::parse("IMM"), Some(MethodKind::Imm));
        assert_eq!(MethodKind::parse("nope"), None);
        assert_eq!(MethodKind::all().len(), 5);
        assert_eq!(MethodKind::streaming().len(), 2);
        assert_eq!(MethodKind::Greedy.name(), "Greedy");
    }
}
