//! The paper's quality metric (§6.1).
//!
//! "When a set of seed users is returned by each approach at time `t`, we
//! evaluate the influence spread of the users under the WC model with
//! 10,000 rounds of Monte-Carlo simulation on the corresponding influence
//! graph `G_t`.  Finally, we use the average influence spread of all windows
//! for each approach as the quality metric."
//!
//! [`evaluate_average_spread`] replays the stream, rebuilds the window
//! influence graph at the evaluated slides, and averages the Monte-Carlo
//! spread of the seeds each method reported at those slides.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtim_core::SimConfig;
use rtim_graph::{build_window_graph, monte_carlo_spread};
use rtim_stream::{PropagationIndex, SlidingWindow, SocialStream, UserId};

/// Averages the WC-model Monte-Carlo spread of per-slide seed sets.
///
/// * `seeds_per_slide` — the seeds each method reported after each slide
///   (as produced by [`crate::runner::MethodRun::seeds_per_slide`]).
/// * `mc_rounds` — Monte-Carlo rounds per evaluation (paper: 10 000).
/// * `eval_every` — evaluate every `eval_every`-th slide (1 = every slide);
///   evaluation starts once the window is full.
pub fn evaluate_average_spread(
    stream: &SocialStream,
    config: SimConfig,
    seeds_per_slide: &[Vec<UserId>],
    mc_rounds: usize,
    eval_every: usize,
    seed: u64,
) -> f64 {
    let eval_every = eval_every.max(1);
    let mut window = SlidingWindow::new(config.window_size);
    let mut index = PropagationIndex::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let warmup = config.checkpoint_capacity();

    let mut total = 0.0;
    let mut evaluated = 0usize;
    for (slide_idx, batch) in stream.batches(config.slide).enumerate() {
        for action in batch {
            index.insert(action);
            window.push(*action);
        }
        if slide_idx >= seeds_per_slide.len() {
            break;
        }
        let full = slide_idx + 1 >= warmup;
        if !full || !(slide_idx + 1 - warmup).is_multiple_of(eval_every) {
            continue;
        }
        let seeds = &seeds_per_slide[slide_idx];
        if seeds.is_empty() {
            evaluated += 1;
            continue;
        }
        let graph = build_window_graph(&window, &index);
        total += monte_carlo_spread(&graph, seeds, mc_rounds, &mut rng);
        evaluated += 1;
    }
    if evaluated == 0 {
        0.0
    } else {
        total / evaluated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_framework, run_method, BaselineBudget, MethodKind};
    use rtim_core::FrameworkKind;
    use rtim_datagen::{DatasetConfig, DatasetKind, Scale};

    fn tiny_stream() -> SocialStream {
        DatasetConfig::new(DatasetKind::SynN, Scale::Small)
            .with_users(300)
            .with_actions(2_000)
            .generate()
    }

    #[test]
    fn spread_of_streaming_methods_is_positive_and_bounded() {
        let stream = tiny_stream();
        let config = rtim_core::SimConfig::new(5, 0.2, 400, 50);
        let run = run_framework(FrameworkKind::Sic, config, &stream);
        let spread = evaluate_average_spread(&stream, config, &run.seeds_per_slide, 100, 2, 42);
        assert!(spread > 0.0);
        // Spread can never exceed the window size (at most N active users).
        assert!(spread <= 400.0);
    }

    #[test]
    fn greedy_quality_is_at_least_sic_quality_on_average() {
        let stream = tiny_stream();
        let config = rtim_core::SimConfig::new(5, 0.3, 400, 50);
        let sic = run_framework(FrameworkKind::Sic, config, &stream);
        let budget = BaselineBudget::default();
        let greedy = run_method(MethodKind::Greedy, config, &stream, budget, 7);
        let s_sic = evaluate_average_spread(&stream, config, &sic.seeds_per_slide, 200, 2, 42);
        let s_greedy =
            evaluate_average_spread(&stream, config, &greedy.seeds_per_slide, 200, 2, 42);
        // Greedy recomputes the (1-1/e) answer on the exact window, so its
        // average spread should not be much below SIC's (and usually above).
        assert!(
            s_greedy >= 0.75 * s_sic,
            "greedy spread {s_greedy} vs sic spread {s_sic}"
        );
    }

    #[test]
    fn empty_seed_lists_yield_zero() {
        let stream = tiny_stream();
        let config = rtim_core::SimConfig::new(5, 0.2, 400, 50);
        let empty: Vec<Vec<UserId>> = vec![Vec::new(); 40];
        let spread = evaluate_average_spread(&stream, config, &empty, 50, 1, 1);
        assert_eq!(spread, 0.0);
    }
}
