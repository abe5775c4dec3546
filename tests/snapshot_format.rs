//! Pins the `RTSS` snapshot bytes of two fixed engines: the Figure 1
//! running example followed by 2 000 SYN-N actions, under SIC and IC.
//!
//! The expected lengths and CRC-32 values were taken from the encoder
//! before the propagation index moved to flat, id-ordered columns and the
//! CRC to slicing-by-8; a change to either that moved a single byte of the
//! format fails here.

use rtim::core::FrameworkKind;
use rtim::prelude::*;
use rtim::stream::persist::state::crc32;

/// Figure 1 of the paper (ids 1..=10), then 2 000 SYN-N actions rebased
/// to follow it.
fn fixed_stream() -> Vec<Action> {
    let mut actions = vec![
        Action::root(1u64, 1u32),
        Action::reply(2u64, 2u32, 1u64),
        Action::root(3u64, 3u32),
        Action::reply(4u64, 3u32, 1u64),
        Action::reply(5u64, 4u32, 3u64),
        Action::reply(6u64, 1u32, 3u64),
        Action::reply(7u64, 5u32, 3u64),
        Action::reply(8u64, 4u32, 7u64),
        Action::root(9u64, 2u32),
        Action::reply(10u64, 6u32, 9u64),
    ];
    let syn = DatasetConfig::new(DatasetKind::SynN, Scale::Small)
        .with_actions(2_000)
        .with_users(300)
        .with_seed(7)
        .generate();
    let base = actions.len() as u64;
    actions.extend(syn.actions().iter().map(|a| Action {
        id: ActionId(a.id.0 + base),
        user: a.user,
        parent: a.parent.map(|p| ActionId(p.0 + base)),
    }));
    actions
}

/// Length and CRC-32 of the snapshot of a `kind` engine fed the fixed
/// stream slide by slide.
fn snapshot_fingerprint(kind: FrameworkKind) -> (usize, u32) {
    let config = SimConfig::new(10, 0.2, 400, 20);
    let mut engine = SimEngine::new(config, kind);
    for slide in fixed_stream().chunks(config.slide) {
        engine.process_slide(slide);
    }
    let bytes = engine.snapshot().unwrap().encode();
    (bytes.len(), crc32(&bytes))
}

#[test]
fn sic_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_fingerprint(FrameworkKind::Sic),
        (110_571, 0xb452_a8ea)
    );
}

#[test]
fn ic_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_fingerprint(FrameworkKind::Ic),
        (169_336, 0x848c_eafc)
    );
}
