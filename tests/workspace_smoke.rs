//! Workspace smoke test: the facade prelude exposes the full public
//! surface promised by the README/docs (engine, config, datasets, and all
//! three baselines), and a tiny SYN-N stream runs end-to-end through the
//! SIC framework.

use rtim::prelude::*;

/// Every prelude name the quick start and examples rely on is present and
/// nameable (this fails to *compile* if a re-export drifts).
#[test]
fn prelude_exposes_engine_config_datasets_and_baselines() {
    // Engine + config.
    let config: SimConfig = SimConfig::new(3, 0.2, 64, 8);
    let _engine: SimEngine = SimEngine::new_sic(config);
    let _kinds: [FrameworkKind; 2] = [FrameworkKind::Ic, FrameworkKind::Sic];

    // Dataset generation.
    let _dataset: DatasetConfig = DatasetConfig::new(DatasetKind::SynN, Scale::Small);

    // The three baselines of §6.1.
    let _greedy: GreedySim = GreedySim::new(3);
    let _imm: Imm = Imm::new(3);
    let _ubi: Ubi = Ubi::new(UbiConfig::new(3));

    // Stream substrate types.
    let action: Action = Action::root(1u64, 7u32);
    assert_eq!(action.user, UserId(7));
    assert_eq!(action.id, ActionId(1));
    let _window: SlidingWindow = SlidingWindow::new(16);

    // Submodular + graph substrate.
    let _oracle: OracleKind = OracleKind::SieveStreaming;
    let _weight: UnitWeight = UnitWeight;
}

/// A small SYN-N stream flows through `new_sic` end-to-end and yields a
/// plausible continuous answer.
#[test]
fn tiny_syn_n_stream_runs_through_sic() {
    let stream: SocialStream = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
        .with_users(150)
        .with_actions(800)
        .with_seed(7)
        .generate();
    assert_eq!(stream.len(), 800);

    let config = SimConfig::new(5, 0.1, 200, 25);
    let mut engine = SimEngine::new_sic(config);
    let mut queried = 0usize;
    for slide in stream.batches(config.slide) {
        engine.process_slide(slide);
        let answer = engine.query();
        assert!(answer.seeds.len() <= 5);
        assert!(answer.value >= 0.0);
        queried += 1;
    }
    assert_eq!(queried, 800 / 25);

    let final_answer = engine.query();
    assert!(
        final_answer.value > 0.0,
        "a busy stream must have influence"
    );
    assert!(!final_answer.seeds.is_empty());

    // Seeds must be users that actually acted.
    for seed in &final_answer.seeds {
        assert!(stream.iter().any(|a| a.user == *seed));
    }
}
