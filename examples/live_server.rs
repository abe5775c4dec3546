//! Live serving: run the SIM engine behind the TCP front-end, stream a
//! synthetic trace in over loopback, query mid-stream, and verify the
//! served answer is bit-identical to an offline replay of the same trace.
//!
//! ```text
//! cargo run --release --example live_server
//! ```
//!
//! Exits non-zero if the served answer ever diverges from the offline
//! replay — CI runs this as the server smoke test.

use rtim::prelude::*;
use rtim::server::ServerConfig;

fn main() {
    // A fig6-scale toy trace: 2,000 actions by 500 users.
    let stream = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
        .with_users(500)
        .with_actions(2_000)
        .generate();

    // k = 5 seeds over the last 400 actions, slid 100 at a time, SIC.
    let config = SimConfig::new(5, 0.1, 400, 100);

    // 1. Serve on an ephemeral loopback port.
    let server = RtimServer::bind("127.0.0.1:0", ServerConfig::new(config, FrameworkKind::Sic))
        .expect("bind loopback server");
    println!("serving SIM on {}", server.local_addr());

    // 2. A protocol client streams the trace in L-aligned batches.  The
    //    client's action ids are 1..n and the server assigns global ids in
    //    arrival order, so with a single client the two id spaces coincide.
    let mut client = RtimClient::connect(server.local_addr()).expect("connect");
    for (i, batch) in stream.actions().chunks(4 * config.slide).enumerate() {
        let busy_retries = client.ingest_blocking(batch).expect("ingest");
        if i % 2 == 1 {
            let answer = client.query().expect("query");
            println!(
                "after {:>4} actions: influence {:>4.0}, seeds {:?}{}",
                (i + 1) * 4 * config.slide,
                answer.value,
                &answer.seeds[..answer.seeds.len().min(5)],
                if busy_retries > 0 {
                    " (backpressure hit)"
                } else {
                    ""
                },
            );
        }
    }

    // 3. Final served answer + pipeline counters, then graceful drain.
    let served = client.query().expect("final query");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    let report = server.wait();
    println!(
        "served {} actions in {} batches ({} slides, max queue depth {})",
        stats.actions, stats.batches, stats.slides, stats.max_queue_depth
    );

    // 4. Offline replay of the same trace must reproduce the served answer
    //    bit for bit (same arrival order, same L-aligned slide cuts).
    let mut offline = SimEngine::new_sic(config);
    let offline_answer = offline.run_stream(&stream).final_solution();
    assert_eq!(
        served.seeds, offline_answer.seeds,
        "served seed set diverged from the offline replay"
    );
    assert_eq!(
        served.value.to_bits(),
        offline_answer.value.to_bits(),
        "served influence value diverged from the offline replay"
    );
    assert_eq!(report.stats.actions, stream.len() as u64);
    println!(
        "offline replay agrees: influence {:.0}, seeds {:?}",
        served.value, served.seeds
    );
}
