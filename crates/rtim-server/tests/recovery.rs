//! Server-level crash-recovery battery: the `SNAPSHOT` admin frame,
//! restart-and-continue determinism at pool threads 1 and 4, recovery from
//! torn files, and the durability counters surfaced over `STATS`.
//!
//! The contract (docs/RECOVERY.md): a server restored from snapshot +
//! journal-tail replay returns **bit-identical** `QUERY` answers to an
//! uninterrupted server over the same arrival order, and to an offline
//! `run_stream` of the same global stream, provided ingest batches are
//! L-aligned (the same alignment caveat as the PR-4 determinism contract).

use rtim_core::{
    recover_engine, write_snapshot_atomic, DurabilityState, FrameworkKind, PersistOptions,
    SimConfig, SimEngine,
};
use rtim_server::{RtimClient, RtimServer, ServerConfig};
use rtim_stream::{read_journal, read_journal_dir, segment_file_name, Action, Fs, SocialStream};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rtim-server-recovery-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A deterministic pseudo-random trace: roots and replies to recent
/// actions, ids 1..=n (single client, so client ids == global ids).
fn synth_actions(n: u64) -> Vec<Action> {
    let mut actions = Vec::with_capacity(n as usize);
    let mut state = 0x9E37_79B9u64;
    for t in 1..=n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let user = (state >> 33) % 97;
        let is_reply = t > 1 && state % 10 < 6;
        actions.push(if is_reply {
            let back = 1 + (state >> 17) % t.min(40);
            Action::reply(t, user as u32, t - back)
        } else {
            Action::root(t, user as u32)
        });
    }
    actions
}

fn serve(dir: &PathBuf, threads: usize) -> RtimServer {
    let config = SimConfig::new(3, 0.2, 200, 25).with_threads(threads);
    RtimServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(config, FrameworkKind::Sic)
            .with_queue_capacity(16)
            .with_persistence(PersistOptions::new(dir).with_snapshot_every_slides(0)),
    )
    .unwrap()
}

/// Full life cycle over the wire: serve, SNAPSHOT mid-stream (which
/// rotates the journal and compacts the covered segment), stop, restart
/// (snapshot + journal tail), continue ingesting, and verify the final
/// answer is bit-identical to an offline replay of the same global stream
/// — at pool threads 1 and 4.
#[test]
fn restarted_server_answers_bit_identically_at_threads_1_and_4() {
    let actions = synth_actions(1000);
    let config = SimConfig::new(3, 0.2, 200, 25);
    for threads in [1usize, 4] {
        let dir = temp_dir(&format!("restart-t{threads}"));

        // Life 1: 500 actions in L-aligned batches, snapshot at 400.
        {
            let server = serve(&dir, threads);
            let mut client = RtimClient::connect(server.local_addr()).unwrap();
            for chunk in actions[..400].chunks(50) {
                client.ingest_blocking(chunk).unwrap();
            }
            let info = client.snapshot().unwrap();
            assert_eq!(info.watermark, 400);
            assert!(info.bytes > 0);
            for chunk in actions[400..500].chunks(50) {
                client.ingest_blocking(chunk).unwrap();
            }
            let stats = client.stats().unwrap();
            assert_eq!(
                stats.durability_state,
                DurabilityState::Durable.wire_code(),
                "threads {threads}"
            );
            drop(client);
            server.shutdown();
        }

        // The snapshot at 400 rotated the journal and compaction deleted
        // the fully-covered first segment: only the tail past the
        // watermark stays on disk.
        let on_disk = read_journal_dir(&dir, &Fs::real()).unwrap();
        assert_eq!(on_disk.actions(), 100, "threads {threads}");
        assert_eq!(on_disk.last_id(), 500, "threads {threads}");

        // Life 2: recovery must already hold all 500 actions; stream the
        // rest and capture the final answer.
        let served_final = {
            let server = serve(&dir, threads);
            let mut client = RtimClient::connect(server.local_addr()).unwrap();
            assert_eq!(client.stats().unwrap().actions, 500);
            // This fresh connection's private ids 1..=500 rebase onto
            // global ids 501..=1000; parents are remapped per connection,
            // so renumber the tail as a self-contained fragment.
            let tail: Vec<Action> = actions[500..]
                .iter()
                .map(|a| Action {
                    id: rtim_stream::ActionId(a.id.0 - 500),
                    user: a.user,
                    parent: a
                        .parent
                        .and_then(|p| (p.0 > 500).then(|| rtim_stream::ActionId(p.0 - 500))),
                })
                .collect();
            for chunk in tail.chunks(50) {
                client.ingest_blocking(chunk).unwrap();
            }
            let answer = client.query().unwrap();
            drop(client);
            server.shutdown();
            answer
        };

        // Compaction deleted the journal head, so rebuild the global
        // stream the two lives produced: ids 1..=1000, with replies that
        // crossed the restart boundary rebased to roots (their parents
        // were unknown to life 2's fresh connection).
        let flat: Vec<Action> = actions
            .iter()
            .enumerate()
            .map(|(i, a)| Action {
                id: a.id,
                user: a.user,
                // Mirror the server's remap: a parent id the connection
                // never ingested (0, or one before the restart boundary)
                // is orphaned to a root.
                parent: a.parent.filter(|p| p.0 >= 1 && (i < 500 || p.0 > 500)),
            })
            .collect();
        let stream = SocialStream::new(flat).expect("rebuilt stream is valid");
        let mut offline = SimEngine::new_sic(config.with_threads(threads));
        let expected = offline.run_stream(&stream).final_solution();
        assert_eq!(served_final.seeds, expected.seeds, "threads {threads}");
        assert_eq!(
            served_final.value.to_bits(),
            expected.value.to_bits(),
            "threads {threads}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn journal tail (crash mid-append) is dropped at recovery, and the
/// restarted server serves the valid prefix.
#[test]
fn torn_journal_tail_is_dropped_at_recovery() {
    let dir = temp_dir("torn-tail");
    let actions = synth_actions(200);
    {
        let server = serve(&dir, 1);
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        for chunk in actions.chunks(25) {
            client.ingest_blocking(chunk).unwrap();
        }
        drop(client);
        server.shutdown();
    }
    // Crash simulation: a partial batch at the tail of the only segment.
    let segment = dir.join(segment_file_name(1));
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .unwrap();
        f.write_all(&10u32.to_le_bytes()).unwrap();
        f.write_all(&[0xCD; 7]).unwrap();
    }
    let server = serve(&dir, 1);
    let mut client = RtimClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.stats().unwrap().actions, 200);
    // The resumed journal truncated the torn tail: ingesting more keeps
    // the segment parseable end to end.
    client.ingest_blocking(&[Action::root(1u64, 7u32)]).unwrap();
    let _ = client.query().unwrap();
    drop(client);
    server.shutdown();
    let journal = read_journal(&segment).unwrap();
    assert_eq!(journal.actions(), 201);
    assert_eq!(journal.ignored_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt snapshot falls back to full-journal replay with identical
/// answers (exercised through the public recovery API the server uses).
/// The snapshot is written offline so the journal keeps the full stream —
/// a server-written snapshot compacts the segments it covers away.
#[test]
fn corrupt_snapshot_falls_back_to_full_replay_with_identical_answers() {
    let dir = temp_dir("corrupt-snapshot");
    let actions = synth_actions(300);
    let reference = {
        let server = serve(&dir, 1);
        let mut client = RtimClient::connect(server.local_addr()).unwrap();
        for chunk in actions.chunks(25) {
            client.ingest_blocking(chunk).unwrap();
        }
        let answer = client.query().unwrap();
        drop(client);
        server.shutdown();
        answer
    };
    let config = SimConfig::new(3, 0.2, 200, 25);

    // Write a valid covering snapshot, then flip a body byte (the CRC
    // catches it at load).
    let snap_path = dir.join("snapshot.rtss");
    {
        let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
        assert_eq!(outcome.watermark, 300);
        let snap = outcome.engine.snapshot().unwrap();
        write_snapshot_atomic(&snap_path, &snap).unwrap();
    }
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap_path, bytes).unwrap();

    let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
    assert!(!outcome.used_snapshot);
    assert!(outcome.notes.iter().any(|n| n.contains("unreadable")));
    assert_eq!(outcome.replayed_actions, 300);
    let got = outcome.engine.query();
    assert_eq!(got.seeds, reference.seeds);
    assert_eq!(got.value.to_bits(), reference.value.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// SNAPSHOT against a server without persistence is a typed error, the
/// durability counters read "disabled", and the connection stays usable.
#[test]
fn snapshot_without_persistence_reports_an_error() {
    let config = SimConfig::new(2, 0.3, 8, 2);
    let server =
        RtimServer::bind("127.0.0.1:0", ServerConfig::new(config, FrameworkKind::Ic)).unwrap();
    let mut client = RtimClient::connect(server.local_addr()).unwrap();
    let err = client.snapshot().unwrap_err();
    assert!(err.to_string().contains("not configured"), "{err}");
    // Still serving.
    client.ingest_blocking(&[Action::root(1u64, 1u32)]).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.actions, 1);
    assert_eq!(
        stats.durability_state,
        DurabilityState::Disabled.wire_code()
    );
    drop(client);
    server.shutdown();
}
