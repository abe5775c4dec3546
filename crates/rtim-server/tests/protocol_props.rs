//! Property tests for the framed wire protocol: every frame round-trips
//! bit-exactly through `encode_frame`/`read_frame` and the incremental
//! `parse_frame` (with or without a correlation id), frame streams stay in
//! sync, the server echoes correlation ids and demultiplexes out-of-order
//! completions, and hostile bytes (truncations, oversized length prefixes,
//! random garbage) come back as typed [`FrameError`]s — never panics.

use proptest::prelude::*;
use rtim_core::{EngineStats, Solution};
use rtim_server::protocol::{encode_frame, parse_frame, read_frame};
use rtim_server::{Frame, FrameError, MAX_FRAME_LEN};
use rtim_stream::{Action, UserId};

/// A structurally valid ingest batch from free-form generator output: ids
/// grow by `gap`; a reply's parent is any earlier id (not necessarily in
/// the batch — the batch codec allows cross-batch references).
fn build_batch(start: u64, spec: Vec<(u64, u32, Option<u64>)>) -> Vec<Action> {
    let mut actions = Vec::with_capacity(spec.len());
    let mut id = start;
    for (gap, user, reply_back) in spec {
        id += gap;
        actions.push(match reply_back {
            Some(back) if id > 1 => {
                Action::reply(id, user, (id - 1).saturating_sub(back % (id - 1)).max(1))
            }
            _ => Action::root(id, user),
        });
    }
    actions
}

fn batch_strategy() -> impl Strategy<Value = Vec<Action>> {
    (
        1u64..1000,
        prop::collection::vec((1u64..4, 0u32..10_000, prop::option::of(0u64..500)), 1..80),
    )
        .prop_map(|(start, spec)| build_batch(start, spec))
}

fn corr_strategy() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(0u32..u32::MAX)
}

/// Any protocol frame, driven by a discriminant plus generic payloads.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0usize..10,
        batch_strategy(),
        prop::collection::vec(0u32..5_000_000, 0..12),
        0u64..u64::MAX,
        0.0f64..1e12,
        prop::collection::vec(0u16..128, 0..40),
        corr_strategy(),
    )
        .prop_map(
            |(pick, batch, seeds, number, value, text, corr)| match pick {
                0 => Frame::Hello {
                    version: (number % 256) as u8,
                },
                1 => Frame::Ingest {
                    actions: batch,
                    corr,
                },
                2 => Frame::Query { corr },
                3 => Frame::Stats { corr },
                4 => Frame::Shutdown,
                5 => Frame::Ack {
                    accepted: number,
                    queue_depth: (number % 4096) as u32,
                    corr,
                },
                6 => Frame::Solution {
                    solution: Solution {
                        seeds: seeds.into_iter().map(UserId).collect(),
                        value,
                    },
                    corr,
                },
                7 => Frame::StatsReply {
                    stats: EngineStats {
                        actions: number,
                        batches: number / 3,
                        slides: number / 7,
                        checkpoints: number % 100,
                        oracle_updates: number / 2,
                        feed_nanos: number,
                        query_nanos: number / 5,
                        queue_depth: number % 64,
                        max_queue_depth: number % 128,
                        users: number % 1_000_000,
                        orphaned_replies: number % 17,
                        shard_migrations: number % 23,
                        shard_ewma_min_nanos: number / 11,
                        shard_ewma_max_nanos: number / 9,
                        journal_lag_batches: number % 13,
                        snapshot_age_slides: number / 13,
                        durability_state: number % 3,
                    },
                    corr,
                },
                8 => Frame::Busy {
                    capacity: (number % 100_000) as u32,
                    corr,
                },
                _ => Frame::Error {
                    message: text
                        .into_iter()
                        .map(|c| char::from_u32(u32::from(c) + 32).unwrap_or('?'))
                        .collect(),
                    corr,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → read is the identity for every frame kind, correlated or
    /// not — and the incremental parser agrees byte for byte.
    #[test]
    fn frames_round_trip(frame in frame_strategy()) {
        let bytes = encode_frame(&frame);
        let decoded = read_frame(bytes.as_slice()).unwrap();
        prop_assert_eq!(&decoded, &frame);
        let (parsed, consumed) = parse_frame(&bytes).unwrap().unwrap();
        prop_assert_eq!(&parsed, &frame);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(parsed.corr(), frame.corr());
    }

    /// Pins the STATS v2 → v1 compatibility direction: the 17-field v2
    /// payload is the 14-field v1 payload with the three durability
    /// fields **appended**, so truncating an encoded v2 `STATS_REPLY` to
    /// its v1 prefix (what a v1 proxy or reader effectively does) must
    /// decode to the same stats with `journal_lag_batches`,
    /// `snapshot_age_slides` and `durability_state` zeroed — for both
    /// the plain and the correlated frame kind.  Any field reorder or
    /// mid-payload insertion breaks this test before it breaks a peer.
    #[test]
    fn stats_v2_truncates_to_a_decodable_v1_prefix(frame in frame_strategy()) {
        let Frame::StatsReply { stats, corr } = &frame else {
            return Ok(()); // only stats frames carry the versioned payload
        };
        const V1_PAYLOAD: usize = 14 * 8;
        let bytes = encode_frame(&frame);
        // Truncate the payload to the v1 prefix (keeping the corr that a
        // correlated frame prepends) and patch the length header.
        let corr_len = if corr.is_some() { 4 } else { 0 };
        let mut v1 = bytes[..5 + corr_len + V1_PAYLOAD].to_vec();
        let len = (v1.len() - 5) as u32;
        v1[1..5].copy_from_slice(&len.to_le_bytes());

        let decoded = read_frame(v1.as_slice()).unwrap();
        let Frame::StatsReply { stats: got, corr: got_corr } = decoded else {
            return Err(TestCaseError::fail(format!("decoded {decoded:?}")));
        };
        prop_assert_eq!(got_corr, *corr);
        let mut expected = *stats;
        expected.journal_lag_batches = 0;
        expected.snapshot_age_slides = 0;
        expected.durability_state = 0;
        prop_assert_eq!(got, expected);
    }

    /// The incremental parser returns `None` for every strict prefix of a
    /// frame and never consumes past the frame boundary with trailing
    /// bytes present.
    #[test]
    fn incremental_parser_respects_frame_boundaries(
        frame in frame_strategy(),
        cut in 0usize..100_000,
        trailer in prop::collection::vec(0u16..256, 0..16),
    ) {
        let bytes = encode_frame(&frame);
        let cut = cut % bytes.len();
        prop_assert!(parse_frame(&bytes[..cut]).unwrap().is_none());
        let mut padded = bytes.clone();
        padded.extend(trailer.into_iter().map(|b| b as u8));
        let (parsed, consumed) = parse_frame(&padded).unwrap().unwrap();
        prop_assert_eq!(parsed, frame);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// Several frames back to back decode in order and end with `Closed` —
    /// the length prefix keeps the stream in sync.
    #[test]
    fn frame_streams_stay_in_sync(frames in prop::collection::vec(frame_strategy(), 1..8)) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut cursor = stream.as_slice();
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// A frame cut at ANY byte offset is `Closed` (cut before the first
    /// byte) or `Truncated` — never a panic, never a bogus frame.
    #[test]
    fn truncated_frames_are_typed_errors(frame in frame_strategy(), at in 0usize..100_000) {
        let bytes = encode_frame(&frame);
        let cut = at % bytes.len();
        match read_frame(&bytes[..cut]) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "cut {} gave {:?}", cut, other),
        }
    }

    /// An oversized length prefix is rejected as `Oversized` before any
    /// payload allocation, whatever the kind byte says.
    #[test]
    fn oversized_length_prefix_is_rejected(tag in 0u16..256, len in 0u32..u32::MAX) {
        prop_assume!(len > MAX_FRAME_LEN);
        let mut bytes = vec![tag as u8];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]); // some payload bytes present
        prop_assert!(matches!(
            read_frame(bytes.as_slice()),
            Err(FrameError::Oversized { .. })
        ));
        prop_assert!(matches!(
            parse_frame(bytes.as_slice()),
            Err(FrameError::Oversized { .. })
        ));
    }

    /// Random garbage never panics the frame reader or the incremental
    /// parser.
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(0u16..256, 0..400)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
    ) {
        let mut cursor = bytes.as_slice();
        // Drain frames until the reader reports an error or clean close;
        // each step must return, not panic.
        for _ in 0..bytes.len() + 1 {
            if read_frame(&mut cursor).is_err() {
                break;
            }
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            match parse_frame(&bytes[pos..]) {
                Ok(Some((_, consumed))) => pos += consumed,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// Live-server properties: the event loop echoes correlation ids verbatim
/// and demultiplexes replies submitted out of order.
mod live {
    use super::*;
    use rtim_core::{FrameworkKind, SimConfig};
    use rtim_server::{RtimClient, RtimServer, ServerConfig};
    use std::io::Write as _;

    fn serve() -> (RtimServer, RtimClient) {
        let config = ServerConfig::new(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Ic)
            .with_queue_capacity(8)
            .with_event_loop_threads(1);
        let server = RtimServer::bind("127.0.0.1:0", config).unwrap();
        let client = RtimClient::connect(server.local_addr()).unwrap();
        (server, client)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every request kind echoes an arbitrary correlation id on its
        /// reply, including the error path.
        #[test]
        fn correlation_ids_echo_verbatim(corr in 0u32..u32::MAX) {
            let (server, mut client) = serve();
            let raw = client.raw_stream();
            // One correlated request of each kind, written back to back —
            // a pipelined burst.
            let ingest = Frame::Ingest {
                actions: vec![Action::root(1u64, 1u32)],
                corr: Some(corr),
            };
            let query = Frame::Query { corr: Some(corr.wrapping_add(1)) };
            let stats = Frame::Stats { corr: Some(corr.wrapping_add(2)) };
            // Invalid batch (non-increasing ids) → correlated ERROR.
            let bad = Frame::Ingest {
                actions: vec![Action::root(1u64, 1u32)],
                corr: Some(corr.wrapping_add(3)),
            };
            let mut burst = Vec::new();
            for f in [&ingest, &query, &stats, &bad] {
                burst.extend_from_slice(&encode_frame(f));
            }
            raw.write_all(&burst).unwrap();

            // ACK comes back at enqueue time, ahead of the engine-routed
            // SOLUTION/STATS; the invalid batch errors after them.
            let mut got = std::collections::HashMap::new();
            for _ in 0..4 {
                let frame = client.read_reply().unwrap();
                prop_assert!(frame.corr().is_some(), "uncorrelated reply {frame:?}");
                got.insert(frame.corr().unwrap(), frame);
            }
            prop_assert!(matches!(got.get(&corr), Some(Frame::Ack { accepted: 1, .. })));
            prop_assert!(matches!(
                got.get(&corr.wrapping_add(1)),
                Some(Frame::Solution { .. })
            ));
            prop_assert!(matches!(
                got.get(&corr.wrapping_add(2)),
                Some(Frame::StatsReply { .. })
            ));
            prop_assert!(matches!(
                got.get(&corr.wrapping_add(3)),
                Some(Frame::Error { .. })
            ));
            drop(client);
            server.shutdown();
        }

        /// A burst interleaving ingests and queries completes every
        /// request exactly once, with ACKs ahead of their following
        /// queries' SOLUTIONs (per-connection FIFO by completion order)
        /// even though the client never waited between requests.
        #[test]
        fn out_of_order_completions_demux_by_corr(
            ops in prop::collection::vec((0u32..2).prop_map(|b| b == 1), 1..24),
        ) {
            let (server, mut client) = serve();
            let raw = client.raw_stream();
            let mut burst = Vec::new();
            let mut next_id = 1u64;
            let mut expect_ack = Vec::new();
            let mut expect_solution = Vec::new();
            for (i, is_ingest) in ops.iter().enumerate() {
                let corr = i as u32;
                if *is_ingest {
                    burst.extend_from_slice(&encode_frame(&Frame::Ingest {
                        actions: vec![Action::root(next_id, (next_id % 7) as u32)],
                        corr: Some(corr),
                    }));
                    next_id += 1;
                    expect_ack.push(corr);
                } else {
                    burst.extend_from_slice(&encode_frame(&Frame::Query {
                        corr: Some(corr),
                    }));
                    expect_solution.push(corr);
                }
            }
            raw.write_all(&burst).unwrap();
            let mut acks = Vec::new();
            let mut solutions = Vec::new();
            for _ in 0..ops.len() {
                match client.read_reply().unwrap() {
                    Frame::Ack { corr, .. } => acks.push(corr.unwrap()),
                    Frame::Solution { corr, .. } => solutions.push(corr.unwrap()),
                    other => prop_assert!(false, "unexpected reply {other:?}"),
                }
            }
            // Each class of replies preserves its issue order (FIFO per
            // connection), whatever the interleaving between classes.
            prop_assert_eq!(acks, expect_ack);
            prop_assert_eq!(solutions, expect_solution);
            drop(client);
            server.shutdown();
        }
    }
}
