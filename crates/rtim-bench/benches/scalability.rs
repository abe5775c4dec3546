//! Scalability of IC/SIC in window size N and slide length L (the micro
//! view of Figures 10 and 11), plus the persistent [`ShardPool`]'s feed
//! cost at 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtim_core::{Checkpoint, FrameworkKind, ResolvedAction, ShardPool, SimConfig, SimEngine};
use rtim_datagen::{DatasetConfig, DatasetKind, Scale};
use rtim_stream::{SocialStream, UserId};
use rtim_submodular::{OracleConfig, OracleKind};
use std::time::Duration;

fn stream() -> SocialStream {
    DatasetConfig::new(DatasetKind::SynO, Scale::Small)
        .with_users(2_000)
        .with_actions(8_000)
        .generate()
}

fn run(stream: &SocialStream, kind: FrameworkKind, config: SimConfig) -> f64 {
    let mut engine = SimEngine::new(config, kind);
    engine.run_stream(stream).final_solution().value
}

fn bench_window_size(c: &mut Criterion) {
    let stream = stream();
    let mut group = c.benchmark_group("scalability_window_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
        for n in [500usize, 1_000, 2_000, 4_000] {
            let config = SimConfig::new(20, 0.1, n, 100);
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &config, |b, &config| {
                b.iter(|| run(&stream, kind, config));
            });
        }
    }
    group.finish();
}

fn bench_slide_length(c: &mut Criterion) {
    let stream = stream();
    let mut group = c.benchmark_group("scalability_slide_length");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for kind in [FrameworkKind::Sic, FrameworkKind::Ic] {
        for l in [50usize, 100, 200, 400] {
            let config = SimConfig::new(20, 0.1, 2_000, l);
            group.bench_with_input(BenchmarkId::new(kind.name(), l), &config, |b, &config| {
                b.iter(|| run(&stream, kind, config));
            });
        }
    }
    group.finish();
}

/// The feeding workload of the strategy comparison: `CHECKPOINTS` live
/// checkpoints (the IC steady state for N = 2 000, L = 125), `SLIDES`
/// window slides of `SLIDE_LEN` resolved actions each.
const CHECKPOINTS: usize = 16;
const SLIDES: usize = 40;
const SLIDE_LEN: usize = 25;

fn resolved_slides() -> Vec<Vec<ResolvedAction>> {
    (0..SLIDES)
        .map(|s| {
            (0..SLIDE_LEN)
                .map(|i| {
                    // Ids start after every checkpoint's start position, so
                    // each checkpoint may observe every action.
                    let t = (CHECKPOINTS + s * SLIDE_LEN + i + 1) as u64;
                    ResolvedAction {
                        id: t,
                        actor: UserId((t % 97) as u32),
                        ancestors: if t.is_multiple_of(3) {
                            vec![UserId(((t + 1) % 97) as u32)]
                        } else {
                            Vec::new()
                        },
                    }
                })
                .collect()
        })
        .collect()
}

fn fresh_checkpoints() -> Vec<Checkpoint> {
    // Distinct start ids (required by the pool's assignment map), all
    // preceding the first action id.
    (0..CHECKPOINTS)
        .map(|i| {
            Checkpoint::new(
                1 + i as u64,
                OracleKind::SieveStreaming,
                OracleConfig::new(5 + (i % 4), 0.2),
            )
        })
        .collect()
}

/// The persistent worker pool over `SLIDES` slides, spawning its workers
/// once per run.
fn bench_feed_strategy(c: &mut Criterion) {
    let slides = resolved_slides();
    let mut group = c.benchmark_group("scalability_feed_strategy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("persistent_pool", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut pool = ShardPool::new(threads);
                    for cp in fresh_checkpoints() {
                        pool.add(cp);
                    }
                    let mut total = 0.0;
                    for slide in &slides {
                        total = pool
                            .feed(slide, None)
                            .iter()
                            .map(|(s, _)| s.value)
                            .sum::<f64>();
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_window_size,
    bench_slide_length,
    bench_feed_strategy
);
criterion_main!(benches);
