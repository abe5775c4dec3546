//! Quickstart: track the most influential users over a synthetic social
//! stream in real time with the SIC framework.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rtim::prelude::*;

fn main() {
    // 1. Generate a synthetic social action stream (deterministic).
    //    20,000 actions by 2,000 users; replies tend to target recent posts.
    let stream = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
        .with_users(2_000)
        .with_actions(20_000)
        .generate();
    println!(
        "stream: {} actions by {} users",
        stream.len(),
        stream.stats().distinct_users
    );

    // 2. Configure the SIM query: the k = 10 most influential users over the
    //    last N = 4,000 actions, refreshed every L = 500 actions, with the
    //    SIC framework (β = 0.1 trades a little accuracy for speed).
    let config = SimConfig::new(10, 0.1, 4_000, 500);
    let mut engine = SimEngine::new_sic(config);

    // 3. Replay the whole stream: `run_stream` cuts it into L-sized slides,
    //    answers the SIM query after each one and reports per-slide timings
    //    (in production, `ingest_batch` accepts whatever burst of actions
    //    arrived since the last call instead).
    let run = engine.run_stream(&stream);
    for (i, (report, answer)) in run.slides.iter().zip(&run.solutions).enumerate() {
        if (i + 1) % 8 == 0 {
            println!(
                "slide {:>3}: influence value {:>5.0}, {} checkpoints, top seeds: {:?}",
                i + 1,
                answer.value,
                report.checkpoints,
                &answer.seeds[..answer.seeds.len().min(5)]
            );
        }
    }

    // 4. Final answer plus the throughput achieved on this machine, from the
    //    engine's own per-slide instrumentation.
    let answer = run.final_solution();
    println!(
        "\nfinal top-{} influential users: {:?}",
        answer.seeds.len(),
        answer.seeds
    );
    println!("final influence value: {:.0}", answer.value);
    println!(
        "processed {} actions in {:.2} ms feeding + {:.2} ms querying ({:.0} actions/s)",
        run.actions(),
        run.feed_nanos() as f64 / 1e6,
        run.query_nanos() as f64 / 1e6,
        run.throughput()
    );
}
