//! Fault-matrix kill-and-recover smoke: three scripted disasters, each
//! ending with a recovered server whose answers are bit-identical to an
//! offline recovery replay of the surviving files.
//!
//!  A. **SIGKILL mid-snapshot** — dense background snapshots, `kill -9`
//!     right behind the last fenced batch so the snapshot writer thread is
//!     almost certainly mid-file; a torn snapshot temp must be ignored.
//!  B. **ENOSPC on journal append** — the `RTIM_FAULT` environment
//!     variable scripts a transient out-of-space window on journal
//!     writes; the server must degrade typed (`durability_state = 2`),
//!     keep serving, re-arm with a covering snapshot (back to `1`), and
//!     then survive a SIGKILL with nothing lost.
//!  C. **fsync failure on rotation** — a size-backstop rotation seals the
//!     old segment with an fsync that fails; same degrade → re-arm → kill
//!     → lossless recovery contract.
//!
//! The binary plays both roles: with no arguments it is the orchestrator;
//! `serve <profile> <dir> <addr-file>` is the sacrificial server process
//! (so every kill is a real process kill), which builds its durability
//! filesystem from `RTIM_FAULT` via [`Fs::from_env`].
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! Exits non-zero on any divergence — CI runs this as the kill-and-recover
//! smoke step.

use rtim::core::{
    recover_engine, DurabilityState, FrameworkKind, FsyncPolicy, PersistOptions, SimConfig,
};
use rtim::prelude::*;
use rtim::server::ServerConfig;
use rtim::stream::{read_journal_dir, Fs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn sim_config() -> SimConfig {
    SimConfig::new(5, 0.1, 400, 100)
}

/// Persistence profile of each phase, resolved inside the server process.
fn persist_options(profile: &str, dir: &Path) -> PersistOptions {
    let fs = Fs::from_env().expect("RTIM_FAULT spec must parse");
    let base = PersistOptions::new(dir).with_fs(fs);
    match profile {
        // Phase A: a snapshot dispatch lands on (almost) every batch, so a
        // kill at any moment is a kill mid-snapshot.
        "dense-snapshots" => base
            .with_snapshot_every_slides(2)
            .with_fsync(FsyncPolicy::EveryBatch),
        // Phase B: plain fsync-per-batch journaling, snapshots on demand.
        "fsync-per-batch" => base.with_fsync(FsyncPolicy::EveryBatch),
        // Phase C: rotation-heavy (tiny segments), fsync only on seals.
        "rotate-4k" => base
            .with_fsync(FsyncPolicy::Never)
            .with_rotate_segment_bytes(4096),
        other => panic!("unknown persistence profile {other:?}"),
    }
}

/// The sacrificial server role: bind, advertise the address, serve until
/// killed (or cleanly shut down).
fn serve(profile: &str, dir: &Path, addr_file: &Path) {
    let config = ServerConfig::new(sim_config(), FrameworkKind::Sic)
        .with_queue_capacity(16)
        .with_persistence(persist_options(profile, dir));
    let server = RtimServer::bind("127.0.0.1:0", config).expect("bind loopback server");
    // Write to a temp name then rename, so the orchestrator never reads a
    // half-written address.
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("write addr");
    std::fs::rename(&tmp, addr_file).expect("publish addr");
    let _ = server.wait();
}

/// Spawns the server role (with an optional `RTIM_FAULT` script) and waits
/// for it to advertise its address.
fn spawn_server(
    profile: &str,
    dir: &Path,
    addr_file: &Path,
    fault: Option<&str>,
) -> (Child, std::net::SocketAddr) {
    std::fs::remove_file(addr_file).ok();
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg(profile)
        .arg(dir)
        .arg(addr_file)
        .env_remove("RTIM_FAULT")
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    if let Some(spec) = fault {
        cmd.env("RTIM_FAULT", spec);
    }
    let child = cmd.spawn().expect("spawn server process");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never advertised its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

/// Renumbers a global-stream fragment into a fresh connection's private id
/// space (ids 1.., parents kept only when inside the fragment — outside
/// references would be orphaned by the server anyway).
fn renumber(fragment: &[Action], base: u64) -> Vec<Action> {
    fragment
        .iter()
        .map(|a| Action {
            id: rtim::stream::ActionId(a.id.0 - base),
            user: a.user,
            parent: a
                .parent
                .and_then(|p| (p.0 > base).then(|| rtim::stream::ActionId(p.0 - base))),
        })
        .collect()
}

/// Post-kill life of every phase: restart healthy on the same directory,
/// assert nothing acknowledged was lost and the pipeline came back
/// durable, finish the stream, and return the served final answer.
fn finish_and_query(
    profile: &str,
    dir: &Path,
    addr_file: &Path,
    stream: &SocialStream,
    survived_expect: u64,
    batch: usize,
) -> Solution {
    let (mut child, addr) = spawn_server(profile, dir, addr_file, None);
    let served = {
        let mut client = RtimClient::connect(addr).expect("reconnect");
        let stats = client.stats().expect("stats");
        println!(
            "  recovered server reports {} actions (durability_state {})",
            stats.actions, stats.durability_state
        );
        assert_eq!(
            stats.actions, survived_expect,
            "recovery lost acknowledged state"
        );
        assert_eq!(
            stats.durability_state,
            DurabilityState::Durable.wire_code(),
            "a restart on a healthy disk must come back durable"
        );
        let tail = renumber(&stream.actions()[stats.actions as usize..], stats.actions);
        for chunk in tail.chunks(batch) {
            client.ingest_blocking(chunk).expect("ingest tail");
        }
        let served = client.query().expect("final query");
        client.shutdown().expect("graceful shutdown");
        served
    };
    let _ = child.wait();
    served
}

/// Final arbiter of every phase: an offline [`recover_engine`] over the
/// surviving files must cover the whole stream and answer bit-identically
/// to what the live server served.
fn verify_offline(phase: &str, dir: &Path, total: u64, served: &Solution) {
    let contents = read_journal_dir(dir, &Fs::real()).expect("read journal dir");
    println!(
        "  surviving journal: {} segment(s), {} actions, {} rejected file(s)",
        contents.segments.len(),
        contents.actions(),
        contents.rejected.len()
    );
    let outcome = recover_engine(sim_config(), FrameworkKind::Sic, dir);
    for note in &outcome.notes {
        println!("  recovery note: {note}");
    }
    assert!(outcome.used_snapshot, "a snapshot must survive every phase");
    assert_eq!(
        outcome.watermark, total,
        "offline recovery must cover the full stream"
    );
    let expected = outcome.engine.query();
    assert_eq!(
        served.seeds, expected.seeds,
        "phase {phase}: served seed set diverged from the offline recovery replay"
    );
    assert_eq!(
        served.value.to_bits(),
        expected.value.to_bits(),
        "phase {phase}: served influence value diverged from the offline recovery replay"
    );
    println!(
        "  phase {phase} agrees with the offline recovery replay: influence {:.0}, seeds {:?}",
        served.value, served.seeds
    );
}

/// Phase A: background snapshots on a dense cadence, then a real `kill -9`
/// landing while the writer thread is (almost certainly) mid-snapshot.
fn phase_sigkill_mid_snapshot(dir: &Path, stream: &SocialStream) {
    println!("--- phase A: SIGKILL mid-snapshot ---");
    std::fs::create_dir_all(dir).expect("create state dir");
    let addr_file = dir.join("addr.txt");
    let batch = 200; // 2 slides: every batch crosses a snapshot cadence point

    let (mut child, addr) = spawn_server("dense-snapshots", dir, &addr_file, None);
    {
        let mut client = RtimClient::connect(addr).expect("connect");
        for chunk in stream.actions()[..1_600].chunks(batch) {
            client.ingest_blocking(chunk).expect("ingest");
        }
        // The stats round-trip fences the ingests: once it answers, every
        // batch has been dequeued and journaled — but the last background
        // snapshot is still being written off-thread.  Kill now.
        let stats = client.stats().expect("pre-kill stats");
        assert_eq!(stats.actions, 1_600);
    }
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    let served = finish_and_query("dense-snapshots", dir, &addr_file, stream, 1_600, batch);
    verify_offline("A", dir, stream.actions().len() as u64, &served);
}

/// Phases B and C: a scripted `RTIM_FAULT` window trips the journal; the
/// server must be seen degraded (typed, with its journal lag surfaced),
/// then re-armed, before the kill lands.
fn phase_fault_window(
    phase: &str,
    title: &str,
    profile: &str,
    spec: &str,
    dir: &Path,
    stream: &SocialStream,
) {
    println!("--- phase {phase}: {title} (RTIM_FAULT={spec}) ---");
    std::fs::create_dir_all(dir).expect("create state dir");
    let addr_file = dir.join("addr.txt");
    let batch = 100; // one slide per batch: many journal ops in the window

    let (mut child, addr) = spawn_server(profile, dir, &addr_file, Some(spec));
    {
        let mut client = RtimClient::connect(addr).expect("connect");
        let mut saw_degraded = false;
        let mut rearmed = false;
        for chunk in stream.actions()[..1_200].chunks(batch) {
            client.ingest_blocking(chunk).expect("ingest");
            // The stats round-trip fences the batch: by the time it
            // answers, the batch went through the durability state machine.
            let stats = client.stats().expect("stats");
            if stats.durability_state == DurabilityState::Degraded.wire_code() {
                if !saw_degraded {
                    println!(
                        "  degraded after {} actions ({} batch(es) unjournaled)",
                        stats.actions, stats.journal_lag_batches
                    );
                }
                saw_degraded = true;
                assert!(
                    stats.journal_lag_batches > 0,
                    "degraded mode must surface its journal lag"
                );
            } else if stats.durability_state == DurabilityState::Durable.wire_code()
                && saw_degraded
                && !rearmed
            {
                println!(
                    "  re-armed at {} actions (covering snapshot written)",
                    stats.actions
                );
                rearmed = true;
            }
        }
        assert!(saw_degraded, "the fault window never tripped the journal");
        assert!(
            rearmed,
            "the journal never re-armed after the window closed"
        );
    }
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    let served = finish_and_query(profile, dir, &addr_file, stream, 1_200, batch);
    verify_offline(phase, dir, stream.actions().len() as u64, &served);
}

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(role) = args.next() {
        assert_eq!(role, "serve", "unknown role {role:?}");
        let profile = args.next().expect("serve <profile> <dir> <addr-file>");
        let dir = PathBuf::from(args.next().expect("serve <profile> <dir> <addr-file>"));
        let addr_file = PathBuf::from(args.next().expect("serve <profile> <dir> <addr-file>"));
        serve(&profile, &dir, &addr_file);
        return;
    }

    // A fig6-scale toy trace shared by all three phases (fresh directory
    // each), streamed in L-aligned batches.
    let stream = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
        .with_users(500)
        .with_actions(2_000)
        .generate();
    let root = std::env::temp_dir().join(format!("rtim-crash-matrix-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    phase_sigkill_mid_snapshot(&root.join("a"), &stream);
    phase_fault_window(
        "B",
        "ENOSPC window on journal appends",
        "fsync-per-batch",
        "enospc:write@3x2",
        &root.join("b"),
        &stream,
    );
    phase_fault_window(
        "C",
        "fsync failure on segment rotation",
        "rotate-4k",
        "eio:fsync@1x1",
        &root.join("c"),
        &stream,
    );

    std::fs::remove_dir_all(&root).ok();
    println!("crash matrix passed: all three phases recovered bit-identically");
}
