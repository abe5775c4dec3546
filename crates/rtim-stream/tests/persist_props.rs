//! Property tests for the persisted trace codecs (`RTAS`, `RTAB`, text):
//! arbitrary streams round-trip bit-exactly, and corrupted inputs come
//! back as typed [`TraceError`]s — never panics.

use proptest::prelude::*;
use rtim_stream::{
    decode_batch, decode_binary, encode_batch, encode_binary, read_binary, read_text, write_binary,
    write_text, Action, SocialStream, TraceError,
};

/// Builds a structurally valid stream from free-form generator output:
/// ids grow by `gap`, and a reply picks its parent among the already
/// emitted actions via `pick` (so every parent exists and precedes it).
fn build_stream(spec: Vec<(u64, u32, Option<usize>)>) -> SocialStream {
    let mut actions: Vec<Action> = Vec::with_capacity(spec.len());
    let mut id = 0u64;
    for (gap, user, reply) in spec {
        id += gap;
        let parent = match reply {
            Some(pick) if !actions.is_empty() => Some(actions[pick % actions.len()].id),
            _ => None,
        };
        actions.push(match parent {
            Some(p) => Action::reply(id, user, p),
            None => Action::root(id, user),
        });
    }
    SocialStream::new(actions).expect("construction preserves invariants")
}

/// Strategy output feeding [`build_stream`].
fn spec_strategy() -> impl Strategy<Value = Vec<(u64, u32, Option<usize>)>> {
    prop::collection::vec((1u64..5, 0u32..500, prop::option::of(0usize..64)), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `write_binary` → `read_binary` is the identity on valid streams.
    #[test]
    fn binary_round_trips(spec in spec_strategy()) {
        let stream = build_stream(spec);
        let mut file = Vec::new();
        write_binary(&stream, &mut file).unwrap();
        let decoded = read_binary(file.as_slice()).unwrap();
        prop_assert_eq!(decoded.actions(), stream.actions());
    }

    /// The text format round-trips the same streams.
    #[test]
    fn text_round_trips(spec in spec_strategy()) {
        let stream = build_stream(spec);
        let mut file = Vec::new();
        write_text(&stream, &mut file).unwrap();
        let decoded = read_text(file.as_slice()).unwrap();
        prop_assert_eq!(decoded.actions(), stream.actions());
    }

    /// The batch (fragment) codec round-trips any slice of a stream —
    /// including slices whose parents fall outside the fragment.
    #[test]
    fn batch_round_trips_any_fragment(
        spec in spec_strategy(),
        cut in (0usize..100, 0usize..100),
    ) {
        let stream = build_stream(spec);
        let (a, b) = (cut.0 % stream.len(), cut.1 % stream.len());
        let fragment = &stream.actions()[a.min(b)..=a.max(b)];
        let decoded = decode_batch(&encode_batch(fragment)).unwrap();
        prop_assert_eq!(decoded.as_slice(), fragment);
    }

    /// Truncating an encoded trace at ANY byte offset yields a typed
    /// error (header, mid-record or count mismatch) — never a panic, and
    /// never a silently shortened stream.
    #[test]
    fn truncation_always_yields_typed_errors(spec in spec_strategy(), at in 0usize..10_000) {
        let stream = build_stream(spec);
        let bytes = encode_binary(&stream);
        let cut = at % bytes.len();
        let err = decode_binary(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(
            err,
            TraceError::BadHeader | TraceError::Truncated | TraceError::Invalid(_)
        ));
        let err = decode_batch(&encode_batch(stream.actions())[..cut]).unwrap_err();
        prop_assert!(matches!(
            err,
            TraceError::BadHeader | TraceError::Truncated | TraceError::Invalid(_)
        ));
    }

    /// Trailing bytes after the declared records are always rejected.
    #[test]
    fn trailing_bytes_always_rejected(spec in spec_strategy(), junk in 1usize..9) {
        let stream = build_stream(spec);
        let mut bytes = encode_binary(&stream).to_vec();
        bytes.extend(std::iter::repeat_n(0xAB, junk));
        prop_assert!(matches!(
            decode_binary(&bytes),
            Err(TraceError::Invalid(_))
        ));
        let mut bytes = encode_batch(stream.actions()).to_vec();
        bytes.extend(std::iter::repeat_n(0xAB, junk));
        prop_assert!(matches!(decode_batch(&bytes), Err(TraceError::Invalid(_))));
    }

    /// A corrupted declared count (the length-prefix analogue of the
    /// binary codecs) is rejected before any allocation is sized from it.
    #[test]
    fn corrupted_count_is_rejected(spec in spec_strategy(), count in 1u64..u64::MAX) {
        let stream = build_stream(spec);
        let mut bytes = encode_binary(&stream).to_vec();
        prop_assume!(count as usize > stream.len());
        bytes[5..13].copy_from_slice(&count.to_le_bytes());
        prop_assert!(matches!(decode_binary(&bytes), Err(TraceError::Truncated)));
    }

    /// Random bytes never panic the decoders.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u16..256, 0..200).prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>())) {
        let _ = decode_binary(&bytes);
        let _ = decode_batch(&bytes);
        let _ = read_text(bytes.as_slice());
    }
}
