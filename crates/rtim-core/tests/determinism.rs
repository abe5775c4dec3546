//! Determinism of the sharded checkpoint pipeline: a [`ShardPool`]-backed
//! framework with 2–8 worker threads must produce **bit-identical**
//! solutions, checkpoint values and update counts to the sequential
//! strategy, on random streams, for both IC and SIC.
//!
//! This is the contract that makes the pool safe to enable: shard placement
//! and worker scheduling may vary, but no checkpoint's arithmetic ever
//! depends on them.

use proptest::prelude::*;
use rtim_core::{Framework, IcFramework, ResolvedAction, SicFramework, SimConfig, SimEngine};
use rtim_stream::{PropagationIndex, SocialStream};

/// Resolves one action's reply ancestry through the index, the way the
/// engine does before feeding a framework.
fn resolve(index: &mut PropagationIndex, action: &rtim_stream::Action) -> ResolvedAction {
    let updated = index.insert(action);
    let (actor, ancestors) = updated.split_first().expect("non-empty update set");
    ResolvedAction {
        id: action.id.0,
        actor: *actor,
        ancestors: ancestors.to_vec(),
    }
}

/// Random valid action streams; ancestries get resolved through a real
/// propagation index when driving the raw frameworks.
fn arb_actions(max_len: usize, users: u32) -> impl Strategy<Value = Vec<rtim_stream::Action>> {
    prop::collection::vec((0u32..users, prop::option::of(0.0f64..1.0)), 8..max_len).prop_map(
        |specs| {
            let mut out = Vec::with_capacity(specs.len());
            for (i, (user, parent)) in specs.into_iter().enumerate() {
                let t = (i + 1) as u64;
                let action = match parent {
                    Some(f) if i > 0 => {
                        let p = 1 + (f * i as f64).floor() as u64;
                        rtim_stream::Action::reply(t, user, p.min(t - 1))
                    }
                    _ => rtim_stream::Action::root(t, user),
                };
                out.push(action);
            }
            out
        },
    )
}

/// Bit-level equality of two value lists (no epsilon: the pool must be
/// *identical*, not merely close).
fn assert_bits_eq(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "values differ: {} vs {}", x, y);
    }
    Ok(())
}

/// Drives a sequential and a `threads`-worker instance of the same
/// framework in lockstep and asserts bit-identical state after every slide.
fn check_framework<F: Framework, M: Fn(&F) -> (Vec<u64>, Vec<f64>)>(
    mut seq: F,
    mut par: F,
    mirror: M,
    actions: &[rtim_stream::Action],
    window: u64,
    slide: usize,
) -> Result<(), TestCaseError> {
    let mut index_seq = PropagationIndex::new();
    let mut index_par = PropagationIndex::new();
    for chunk in actions.chunks(slide) {
        let resolved_seq: Vec<_> = chunk.iter().map(|a| resolve(&mut index_seq, a)).collect();
        let resolved_par: Vec<_> = chunk.iter().map(|a| resolve(&mut index_par, a)).collect();
        let last = chunk.last().unwrap().id.0;
        let window_start = last.saturating_sub(window - 1).max(1);
        seq.process_slide(&resolved_seq, window_start);
        par.process_slide(&resolved_par, window_start);

        prop_assert_eq!(seq.checkpoint_count(), par.checkpoint_count());
        prop_assert_eq!(seq.oracle_updates(), par.oracle_updates());
        let (seq_starts, seq_values) = mirror(&seq);
        let (par_starts, par_values) = mirror(&par);
        prop_assert_eq!(seq_starts, par_starts);
        assert_bits_eq(&seq_values, &par_values)?;
        let (a, b) = (seq.query(), par.query());
        prop_assert_eq!(&a.seeds, &b.seeds);
        prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// IC with a 2–8 worker pool is bit-identical to sequential IC.
    #[test]
    fn ic_pool_is_bit_identical_to_sequential(
        actions in arb_actions(70, 12),
        threads in 2usize..9,
        slide in 1usize..5,
    ) {
        let window = 16usize;
        let config = SimConfig::new(3, 0.25, window, slide);
        check_framework(
            IcFramework::new(config),
            IcFramework::new(config.with_threads(threads)),
            |f: &IcFramework| (f.checkpoint_starts(), f.checkpoint_values()),
            &actions,
            window as u64,
            slide,
        )?;
    }

    /// SIC with a 2–8 worker pool is bit-identical to sequential SIC —
    /// including the pruning decisions, which read the pool-reported values.
    #[test]
    fn sic_pool_is_bit_identical_to_sequential(
        actions in arb_actions(70, 12),
        threads in 2usize..9,
        beta_pct in 10u32..50,
    ) {
        let window = 16usize;
        let slide = 2usize;
        let beta = beta_pct as f64 / 100.0;
        let config = SimConfig::new(3, beta, window, slide);
        check_framework(
            SicFramework::new(config),
            SicFramework::new(config.with_threads(threads)),
            |f: &SicFramework| (f.checkpoint_starts(), f.checkpoint_values()),
            &actions,
            window as u64,
            slide,
        )?;
    }

    /// The interned pipeline with **sparse raw user ids** stays bit-identical
    /// between sequential and 2–8-thread pool execution: interning happens at
    /// resolve time on the engine thread (workers never mint ids), so shard
    /// placement cannot perturb the dense id space, and the raw seeds
    /// translated back at the query boundary agree exactly.
    #[test]
    fn interned_engine_is_bit_identical_with_sparse_ids(
        actions in arb_actions(60, 10),
        threads in 2usize..9,
    ) {
        // Spread the (dense) generated user ids across a ~1.2-billion raw id
        // space; interning must absorb the sparsity.
        let sparse: Vec<rtim_stream::Action> = actions
            .iter()
            .map(|a| rtim_stream::Action {
                user: rtim_stream::UserId(a.user.0 * 99_999_989 + 17),
                ..*a
            })
            .collect();
        let stream = SocialStream::new(sparse.clone()).unwrap();
        let config = SimConfig::new(3, 0.2, 16, 3);
        for kind in [rtim_core::FrameworkKind::Ic, rtim_core::FrameworkKind::Sic] {
            let mut seq = SimEngine::new(config, kind);
            let mut par = SimEngine::new(config.with_threads(threads), kind);
            let seq_report = seq.run_stream(&stream);
            let par_report = par.run_stream(&stream);
            prop_assert_eq!(seq_report.solutions.len(), par_report.solutions.len());
            let raw_ids: std::collections::HashSet<u32> =
                sparse.iter().map(|a| a.user.0).collect();
            for (a, b) in seq_report.solutions.iter().zip(&par_report.solutions) {
                prop_assert_eq!(&a.seeds, &b.seeds);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                // Seeds are translated back to the sparse raw id space.
                for seed in &a.seeds {
                    prop_assert!(raw_ids.contains(&seed.0), "non-raw seed {}", seed.0);
                }
            }
        }
    }

    /// Engine results are invariant under injective raw-id relabeling: the
    /// dense id sequence depends only on first-appearance order, so values
    /// are bit-identical and seeds map through the relabeling.
    #[test]
    fn engine_is_invariant_under_user_relabeling(actions in arb_actions(60, 10)) {
        let relabel = |u: u32| u * 7_368_787 + 1_000_003;
        let relabeled: Vec<rtim_stream::Action> = actions
            .iter()
            .map(|a| rtim_stream::Action {
                user: rtim_stream::UserId(relabel(a.user.0)),
                ..*a
            })
            .collect();
        let config = SimConfig::new(3, 0.25, 16, 2);
        for kind in [rtim_core::FrameworkKind::Ic, rtim_core::FrameworkKind::Sic] {
            let mut plain = SimEngine::new(config, kind);
            let mut mapped = SimEngine::new(config, kind);
            let plain_report = plain.run_stream(&SocialStream::new(actions.clone()).unwrap());
            let mapped_report = mapped.run_stream(&SocialStream::new(relabeled.clone()).unwrap());
            for (a, b) in plain_report.solutions.iter().zip(&mapped_report.solutions) {
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                let mapped_seeds: Vec<u32> = a.seeds.iter().map(|s| relabel(s.0)).collect();
                let got: Vec<u32> = b.seeds.iter().map(|s| s.0).collect();
                prop_assert_eq!(mapped_seeds, got);
            }
        }
    }

    /// Checkpoint moves cannot perturb results: IC rotation and SIC
    /// pruning delete checkpoints in patterns that make a 1–8 shard pool
    /// rebalance, and it stays bit-identical to the single inline shard
    /// for both frameworks.  Whole-checkpoint moves at slide boundaries
    /// change placement only, never arithmetic.
    #[test]
    fn rebalancing_is_bit_identical_to_one_shard(
        actions in arb_actions(70, 12),
        threads in 1usize..9,
        slide in 1usize..5,
    ) {
        let window = 16usize;
        let config = SimConfig::new(3, 0.25, window, slide);
        let ic = IcFramework::new(config.with_threads(threads));
        check_framework(
            IcFramework::new(config),
            ic,
            |f: &IcFramework| (f.checkpoint_starts(), f.checkpoint_values()),
            &actions,
            window as u64,
            slide,
        )?;
        let sic = SicFramework::new(config.with_threads(threads));
        check_framework(
            SicFramework::new(config),
            sic,
            |f: &SicFramework| (f.checkpoint_starts(), f.checkpoint_values()),
            &actions,
            window as u64,
            slide,
        )?;
    }

    /// The full engine path (`run_stream`, which routes through
    /// `ingest_batch` and the pool) is bit-identical too, for both kinds.
    #[test]
    fn engine_run_stream_is_bit_identical_across_strategies(
        actions in arb_actions(60, 10),
        threads in 2usize..9,
    ) {
        let stream = SocialStream::new(actions).unwrap();
        let config = SimConfig::new(3, 0.2, 16, 3);
        for kind in [rtim_core::FrameworkKind::Ic, rtim_core::FrameworkKind::Sic] {
            let mut seq = SimEngine::new(config, kind);
            let mut par = SimEngine::new(config.with_threads(threads), kind);
            let seq_report = seq.run_stream(&stream);
            let par_report = par.run_stream(&stream);
            prop_assert_eq!(seq_report.solutions.len(), par_report.solutions.len());
            for (a, b) in seq_report.solutions.iter().zip(&par_report.solutions) {
                prop_assert_eq!(&a.seeds, &b.seeds);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
            let seq_cp: Vec<usize> = seq_report.slides.iter().map(|r| r.checkpoints).collect();
            let par_cp: Vec<usize> = par_report.slides.iter().map(|r| r.checkpoints).collect();
            prop_assert_eq!(seq_cp, par_cp);
        }
    }
}
