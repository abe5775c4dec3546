//! Property tests for the `RTTR` trace-dump codec: arbitrary dumps
//! round-trip bit-exactly, and truncation at *any* byte offset — or
//! header corruption — comes back as a typed [`TraceCodecError`], never
//! a panic and never a silently wrong dump (the same contract the
//! persist codecs pin in `persist_props.rs`).

use proptest::prelude::*;
use rtim_stream::trace::{
    SlowOp, TraceCodecError, TraceDump, TraceEvent, SLOW_STAGES, STAGE_COUNT,
};

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u8..255,
        0u8..255,
        0u16..u16::MAX,
    )
        .prop_map(
            |(nanos, duration_nanos, conn, corr, stage, lane, aux)| TraceEvent {
                nanos,
                duration_nanos,
                conn,
                corr,
                stage,
                lane,
                aux,
            },
        )
}

fn slow_strategy() -> impl Strategy<Value = SlowOp> {
    (
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u8..255,
        0u64..u64::MAX,
        0u64..u64::MAX,
        prop::collection::vec(0u64..u64::MAX, SLOW_STAGES..SLOW_STAGES + 1),
    )
        .prop_map(
            |(conn, corr, kind, start_nanos, total_nanos, stages)| SlowOp {
                conn,
                corr,
                kind,
                start_nanos,
                total_nanos,
                stages: stages.try_into().expect("exactly SLOW_STAGES entries"),
            },
        )
}

fn dump_strategy() -> impl Strategy<Value = TraceDump> {
    (
        prop::collection::vec(event_strategy(), 0..48),
        prop::collection::vec(slow_strategy(), 0..12),
        prop::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX),
            STAGE_COUNT..STAGE_COUNT + 1,
        ),
    )
        .prop_map(|(events, slow_ops, stage_totals)| TraceDump {
            events,
            slow_ops,
            stage_totals: stage_totals
                .try_into()
                .expect("exactly STAGE_COUNT entries"),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `encode` → `decode` is the identity on arbitrary dumps.
    #[test]
    fn dump_round_trips(dump in dump_strategy()) {
        let bytes = dump.encode();
        let decoded = TraceDump::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, dump);
    }

    /// Any strict prefix of an encoded dump decodes to a typed error —
    /// truncation can land mid-header, mid-event or mid-slow-op and must
    /// never panic or produce a silently short dump.
    #[test]
    fn truncation_at_any_offset_is_a_typed_error(
        dump in dump_strategy(),
        cut_seed in 0usize..usize::MAX,
    ) {
        let bytes = dump.encode();
        let cut = cut_seed % bytes.len(); // 0 ≤ cut < len
        match TraceDump::decode(&bytes[..cut]) {
            Err(
                TraceCodecError::Truncated
                | TraceCodecError::BadHeader
                | TraceCodecError::UnsupportedVersion(_),
            ) => {}
            Ok(_) => prop_assert!(false, "truncated dump decoded at cut {}", cut),
        }
    }

    /// A corrupted magic or version byte is rejected before any counts
    /// are trusted.
    #[test]
    fn corrupted_header_is_rejected(dump in dump_strategy(), byte in 0usize..5, bump in 1u8..255) {
        let mut bytes = dump.encode();
        bytes[byte] = bytes[byte].wrapping_add(bump);
        match TraceDump::decode(&bytes) {
            Err(TraceCodecError::BadHeader | TraceCodecError::UnsupportedVersion(_)) => {}
            other => prop_assert!(false, "corrupt header at byte {} gave {:?}", byte, other),
        }
    }

    /// Free-form garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(0u8..255, 0..512)) {
        let _ = TraceDump::decode(&bytes);
    }
}
