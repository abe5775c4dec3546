//! # rtim-stream
//!
//! Social action stream substrate for Stream Influence Maximization (SIM).
//!
//! This crate models the data layer of the paper *"Real-Time Influence
//! Maximization on Dynamic Social Streams"* (Wang et al., 2017):
//!
//! * [`Action`] — a single social action `a_t = ⟨u, a_{t'}⟩_t` (a user `u`
//!   acting at time `t` in response to an earlier action `a_{t'}`, or a
//!   *root* action when there is no parent).
//! * [`PropagationIndex`] — incremental resolution of the reply ancestry of
//!   every action, i.e. the set of users whose influence sets grow when an
//!   action arrives (the `d` ancestor users of §4.2).
//! * [`SlidingWindow`] — the sequence-based sliding window `W_t` holding the
//!   most recent `N` actions, with support for multi-action slides (`L > 1`).
//! * [`InfluenceAccumulator`] — append-only, per-user influence sets
//!   `I(u) ⊆ U`, the building block of every checkpoint oracle.
//! * [`window_influence_sets`] — from-scratch computation of the
//!   window-scoped influence sets `I_t(u)` used by baselines and by the
//!   quality-evaluation influence graph.
//!
//! The key design decision (mirroring the paper) is that influence sets are
//! **never maintained globally under expiry**; they are either accumulated
//! append-only inside a checkpoint, or recomputed from the window contents.
//!
//! Durability lives under [`persist`]: trace codecs (`RTAS`/`RTAB`/text),
//! the CRC-checked [`persist::state`] (`RTSS`) section substrate that
//! engine snapshots build on, the crash-tolerant [`persist::journal`]
//! (`RTAJ`) of ingest batches with its segmented rotation/compaction layer
//! [`persist::segjournal`], and the deterministic fault-injection I/O
//! layer [`persist::faultfs`] every durability file op flows through.
//! The flight-recorder dump codec (`RTTR`) lives in [`trace`], next to
//! its sibling stream codecs.
//!
//! The hot-path word loops live in [`kernels`] (unrolled, with an optional
//! stable-`std::arch` SIMD path behind the `simd` feature) and slide-time
//! bitmap allocation recycles through [`WordArena`].

// Unsafe is forbidden except for the `simd` feature, whose only unsafe is
// the runtime-dispatched `#[target_feature]` call boundary in
// `kernels::simd` (module-scoped allow there, same containment pattern as
// rtim-server's poll FFI).
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod action;
pub mod arena;
pub mod influence;
pub mod influence_set;
pub mod kernels;
pub mod persist;
pub mod propagation;
pub mod stream;
pub mod trace;
pub mod window;

pub use action::{Action, ActionId, Timestamp, UserId};
pub use arena::WordArena;
pub use influence::{window_influence_sets, InfluenceAccumulator, InfluenceSets};
pub use influence_set::{InfluenceSet, SetIter, SetView};
pub use kernels::{absorb_count, and_not_popcount, and_not_popcount_at_least, popcount_words};
pub use persist::faultfs::{DurableFile, FaultInjector, FaultKind, FaultRule, Fs, OpKind};
pub use persist::journal::{read_journal, read_journal_with, JournalContents, JournalWriter};
pub use persist::segjournal::{
    read_journal_dir, resume_plan, segment_file_name, CompletedSegment, JournalDirContents,
    JournalResume, ResumePoint, SegmentedJournal,
};
pub use persist::state::{ByteReader, StateDocument, StateError, StateWriter};
pub use persist::{
    decode_batch, decode_batch_into, decode_binary, encode_batch, encode_binary, read_binary,
    read_text, write_binary, write_text, TraceError, MAX_FRAME_BYTES,
};
pub use propagation::{PropagationIndex, PropagationStats};
pub use stream::{ActionBatchIter, SocialStream, StreamStats};
pub use trace::{
    SlowOp, TraceCodecError, TraceDump, TraceEvent, TraceStage, SLOW_STAGES, STAGE_COUNT,
    TRACE_EVENT_BYTES,
};
pub use window::{SlideOutcome, SlidingWindow};
