//! Durable engine snapshots and crash recovery.
//!
//! A [`SimEngine`] keeps all influence state in memory; without snapshots a
//! restart means replaying the entire arrival journal from zero.  This
//! module gives every stateful structure in the engine a canonical
//! serialized form and a determinism-preserving rehydration path:
//!
//! * [`EngineSnapshot`] — the full engine state: configuration, interner
//!   table, window contents, propagation index, and the framework's
//!   checkpoints with their influence accumulators and oracle states.  It
//!   encodes to a single `RTSS` document (magic + schema version +
//!   CRC-checked sections — see [`rtim_stream::persist::state`]) and
//!   carries the **journal watermark**: the id of the last action the
//!   engine had processed, so recovery replays only the journal suffix.
//! * [`write_snapshot_atomic`] — temp-file + `fsync` + rename + parent
//!   directory `fsync`, so a crash at any point (including a machine
//!   crash right after the rename) can never leave a torn snapshot
//!   visible under the live name, and a published snapshot is durable.
//! * [`recover_engine`] — the startup decision tree over a persistence
//!   *directory*: load the latest valid snapshot (falling back to a cold
//!   engine if it is missing, corrupt, or was taken under a different
//!   configuration), then replay the segmented journal past the snapshot
//!   watermark, batch by batch and across segment boundaries.  Because the
//!   journal records *batches* (the engine's slide-cut unit), a recovered
//!   engine's subsequent answers are **bit-identical** to an engine that
//!   never stopped.
//!
//! All file I/O flows through the fault-injectable
//! [`rtim_stream::persist::faultfs::Fs`] layer; the `*_with` variants take
//! an explicit handle, the plain ones use the zero-cost pass-through.
//! The recovery semantics and file formats are documented in
//! `docs/RECOVERY.md`.

use crate::config::SimConfig;
use crate::engine::SimEngine;
use crate::framework::FrameworkKind;
use crate::ic::IcFramework;
use crate::sic::SicFramework;
use rtim_stream::persist::faultfs::Fs;
use rtim_stream::persist::segjournal::{
    read_journal_dir, resume_plan, CompletedSegment, JournalDirContents, JournalResume, ResumePoint,
};
use rtim_stream::persist::state::{
    decode_actions, decode_influence_sets, decode_propagation_index, encode_actions,
    encode_influence_sets, encode_propagation_index, ByteReader, StateDocument, StateError,
    StateWriter,
};
use rtim_stream::{Action, InfluenceSets, PropagationIndex, UserId};
use rtim_submodular::{OracleKind, OracleState};
use std::io;
use std::path::Path;

/// File name of the snapshot inside a persistence directory.
pub const SNAPSHOT_FILE: &str = "snapshot.rtss";

/// Errors produced when capturing or rehydrating engine state (codec-level
/// failures are [`StateError`]; this type covers the semantic layer).
#[derive(Debug)]
pub enum SnapshotError {
    /// The engine holds state with no serialized form (a custom oracle or
    /// framework implementation without snapshot support, or a weighted
    /// objective restored without its weight function).
    Unsupported(String),
    /// The snapshot decoded structurally but violates an engine invariant.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt engine snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialized state of one checkpoint: its append-only influence
/// accumulator plus its oracle.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// First action id the checkpoint covers.
    pub start: u64,
    /// Oracle element updates performed so far.
    pub updates: u64,
    /// The accumulated per-user influence sets.
    pub sets: InfluenceSets,
    /// The wrapped oracle's state.
    pub oracle: OracleState,
}

/// Serialized state of a checkpoint set (shard contents plus the dense
/// weight table).
#[derive(Debug, Clone, Default)]
pub struct CheckpointSetState {
    /// Whether the dense table was populated by the identity fallback.
    pub identity_filled: bool,
    /// The materialized dense weight table (empty for the cardinality
    /// objective).
    pub dense_weights: Vec<f64>,
    /// Checkpoints oldest-first (starts strictly increasing).
    pub checkpoints: Vec<CheckpointState>,
}

/// Serialized state of a checkpoint framework (IC or SIC policy state over
/// a [`CheckpointSetState`]).
#[derive(Debug, Clone)]
pub struct FrameworkState {
    /// Which framework this is.
    pub kind: FrameworkKind,
    /// SIC's recorded window start (0 for IC).
    pub window_start: u64,
    /// SIC's pruned-checkpoint counter (0 for IC).
    pub pruned: u64,
    /// The checkpoint collection.
    pub set: CheckpointSetState,
}

/// A complete, restorable capture of a [`SimEngine`].
///
/// Obtained from [`SimEngine::snapshot`]; restored with
/// [`SimEngine::restore`].  [`EngineSnapshot::encode`] /
/// [`EngineSnapshot::decode`] convert to/from the durable `RTSS` form.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The engine's configuration (restore refuses a mismatch — answers
    /// must reflect the configuration the operator asked for).
    pub config: SimConfig,
    /// Window slides processed so far.
    pub slides: u64,
    /// Interned users already announced to the framework.
    pub registered: u64,
    /// Id of the last action the engine processed — the journal offset
    /// recovery replays from.
    pub watermark: u64,
    /// The interner table: raw user ids in dense-id order.
    pub interner: Vec<UserId>,
    /// The sliding-window contents, oldest first.
    pub window: Vec<Action>,
    /// The propagation (reply-ancestry) index.
    pub index: PropagationIndex,
    /// The checkpoint framework's state.
    pub framework: FrameworkState,
}

/// Largest pool-thread count a decoded snapshot may declare.  Restoring a
/// sharded set spawns this many OS threads, so a CRC-valid but hostile
/// file must not be able to demand millions of them; no real deployment
/// approaches this bound.
const MAX_RESTORE_THREADS: usize = 1024;

/// Section tags of the engine-snapshot document.
const SEC_CONFIG: [u8; 4] = *b"CONF";
const SEC_INTERNER: [u8; 4] = *b"INTR";
const SEC_WINDOW: [u8; 4] = *b"WIND";
const SEC_INDEX: [u8; 4] = *b"PIDX";
const SEC_FRAMEWORK: [u8; 4] = *b"FRWK";

/// Wire tags for [`OracleKind`] / [`FrameworkKind`].
fn oracle_kind_tag(kind: OracleKind) -> u8 {
    match kind {
        OracleKind::SieveStreaming => 0,
        OracleKind::ThresholdStream => 1,
        OracleKind::Swap => 2,
    }
}

fn oracle_kind_from_tag(tag: u8) -> Result<OracleKind, StateError> {
    match tag {
        0 => Ok(OracleKind::SieveStreaming),
        1 => Ok(OracleKind::ThresholdStream),
        2 => Ok(OracleKind::Swap),
        other => Err(StateError::Corrupt(format!(
            "unknown oracle kind tag {other}"
        ))),
    }
}

fn framework_kind_tag(kind: FrameworkKind) -> u8 {
    match kind {
        FrameworkKind::Ic => 0,
        FrameworkKind::Sic => 1,
    }
}

fn framework_kind_from_tag(tag: u8) -> Result<FrameworkKind, StateError> {
    match tag {
        0 => Ok(FrameworkKind::Ic),
        1 => Ok(FrameworkKind::Sic),
        other => Err(StateError::Corrupt(format!(
            "unknown framework kind tag {other}"
        ))),
    }
}

impl EngineSnapshot {
    /// Serializes the snapshot into a single `RTSS` document.
    ///
    /// The encoding is deterministic: equal state always produces equal
    /// bytes (hash-map iteration order never leaks in).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();

        let conf = w.section(SEC_CONFIG);
        conf.extend_from_slice(&(self.config.k as u64).to_le_bytes());
        conf.extend_from_slice(&self.config.beta.to_bits().to_le_bytes());
        conf.extend_from_slice(&(self.config.window_size as u64).to_le_bytes());
        conf.extend_from_slice(&(self.config.slide as u64).to_le_bytes());
        conf.push(oracle_kind_tag(self.config.oracle));
        conf.extend_from_slice(&(self.config.threads as u64).to_le_bytes());
        conf.extend_from_slice(&self.slides.to_le_bytes());
        conf.extend_from_slice(&self.registered.to_le_bytes());
        conf.extend_from_slice(&self.watermark.to_le_bytes());

        let intr = w.section(SEC_INTERNER);
        intr.extend_from_slice(&(self.interner.len() as u32).to_le_bytes());
        for raw in &self.interner {
            intr.extend_from_slice(&raw.0.to_le_bytes());
        }

        encode_actions(&self.window, w.section(SEC_WINDOW));
        encode_propagation_index(&self.index, w.section(SEC_INDEX));

        let frwk = w.section(SEC_FRAMEWORK);
        frwk.push(framework_kind_tag(self.framework.kind));
        frwk.extend_from_slice(&self.framework.window_start.to_le_bytes());
        frwk.extend_from_slice(&self.framework.pruned.to_le_bytes());
        frwk.push(self.framework.set.identity_filled as u8);
        frwk.extend_from_slice(&(self.framework.set.dense_weights.len() as u64).to_le_bytes());
        for weight in &self.framework.set.dense_weights {
            frwk.extend_from_slice(&weight.to_bits().to_le_bytes());
        }
        frwk.extend_from_slice(&(self.framework.set.checkpoints.len() as u32).to_le_bytes());
        for cp in &self.framework.set.checkpoints {
            frwk.extend_from_slice(&cp.start.to_le_bytes());
            frwk.extend_from_slice(&cp.updates.to_le_bytes());
            encode_influence_sets(&cp.sets, frwk);
            cp.oracle.encode(frwk);
        }

        w.finish()
    }

    /// Parses and validates an `RTSS` engine snapshot.
    ///
    /// Decoding is defensive end to end: lengths are checked before
    /// allocation, CRCs before interpretation, and every structural
    /// invariant (increasing window ids, increasing checkpoint starts,
    /// distinct interner entries, a configuration `SimConfig` would accept)
    /// is re-validated — a hostile file is a typed [`StateError`], never a
    /// panic.
    pub fn decode(data: &[u8]) -> Result<EngineSnapshot, StateError> {
        let doc = StateDocument::parse(data)?;

        let mut r = ByteReader::new(doc.section(SEC_CONFIG)?);
        let k = r.u64()? as usize;
        let beta = r.f64()?;
        let window_size = r.u64()? as usize;
        let slide = r.u64()? as usize;
        let oracle = oracle_kind_from_tag(r.u8()?)?;
        let threads = r.u64()? as usize;
        let slides = r.u64()?;
        let registered = r.u64()?;
        let watermark = r.u64()?;
        r.finish()?;
        if k == 0 || window_size == 0 || slide == 0 || slide > window_size {
            return Err(StateError::Corrupt(format!(
                "invalid configuration: k={k}, N={window_size}, L={slide}"
            )));
        }
        if !beta.is_finite() {
            return Err(StateError::Corrupt("non-finite beta".into()));
        }
        if threads > MAX_RESTORE_THREADS {
            // Restoring spawns `threads` pool workers; a hostile file must
            // not drive that.
            return Err(StateError::Corrupt(format!(
                "declared pool thread count {threads} exceeds the restore cap \
                 {MAX_RESTORE_THREADS}"
            )));
        }
        let config = SimConfig::new(k, beta, window_size, slide)
            .with_oracle(oracle)
            .with_threads(threads);

        let mut r = ByteReader::new(doc.section(SEC_INTERNER)?);
        let declared = r.u32()? as u64;
        let count = r.array_len(declared, 4)?;
        let mut interner = Vec::with_capacity(count);
        for _ in 0..count {
            interner.push(r.user()?);
        }
        r.finish()?;
        if registered > interner.len() as u64 {
            return Err(StateError::Corrupt(format!(
                "{registered} users registered but only {} interned",
                interner.len()
            )));
        }

        let mut r = ByteReader::new(doc.section(SEC_WINDOW)?);
        let window = decode_actions(&mut r)?;
        r.finish()?;
        if window.len() > window_size {
            return Err(StateError::Corrupt(format!(
                "window holds {} actions but N = {window_size}",
                window.len()
            )));
        }
        for pair in window.windows(2) {
            if pair[1].id <= pair[0].id {
                return Err(StateError::Corrupt(format!(
                    "window ids must be strictly increasing: {} after {}",
                    pair[1].id, pair[0].id
                )));
            }
        }
        if let Some(last) = window.last() {
            if last.id.0 > watermark {
                return Err(StateError::Corrupt(format!(
                    "window reaches {} past the watermark {watermark}",
                    last.id
                )));
            }
        }

        let mut r = ByteReader::new(doc.section(SEC_INDEX)?);
        let index = decode_propagation_index(&mut r)?;
        r.finish()?;

        let mut r = ByteReader::new(doc.section(SEC_FRAMEWORK)?);
        let kind = framework_kind_from_tag(r.u8()?)?;
        let window_start = r.u64()?;
        let pruned = r.u64()?;
        let identity_filled = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(StateError::Corrupt(format!(
                    "bad identity-filled flag {other}"
                )))
            }
        };
        let declared = r.u64()?;
        let weight_count = r.array_len(declared, 8)?;
        let mut dense_weights = Vec::with_capacity(weight_count);
        for _ in 0..weight_count {
            dense_weights.push(r.f64()?);
        }
        let declared = r.u32()? as u64;
        // A checkpoint costs at least 8 + 8 + 4 + 1 bytes.
        let cp_count = r.array_len(declared, 21)?;
        let mut checkpoints = Vec::with_capacity(cp_count);
        let mut last_start: Option<u64> = None;
        for _ in 0..cp_count {
            let start = r.u64()?;
            if let Some(prev) = last_start {
                if start <= prev {
                    return Err(StateError::Corrupt(format!(
                        "checkpoint starts must be strictly increasing: {start} after {prev}"
                    )));
                }
            }
            last_start = Some(start);
            let updates = r.u64()?;
            let sets = decode_influence_sets(&mut r)?;
            let oracle = OracleState::decode(&mut r)?;
            checkpoints.push(CheckpointState {
                start,
                updates,
                sets,
                oracle,
            });
        }
        r.finish()?;

        Ok(EngineSnapshot {
            config,
            slides,
            registered,
            watermark,
            interner,
            window,
            index,
            framework: FrameworkState {
                kind,
                window_start,
                pruned,
                set: CheckpointSetState {
                    identity_filled,
                    dense_weights,
                    checkpoints,
                },
            },
        })
    }

    /// Which framework the snapshotted engine ran.
    pub fn kind(&self) -> FrameworkKind {
        self.framework.kind
    }
}

impl SimEngine {
    /// Captures the engine's full state as a restorable snapshot.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the framework or any
    /// checkpoint oracle is a custom implementation without snapshot
    /// support.
    pub fn snapshot(&self) -> Result<EngineSnapshot, SnapshotError> {
        let framework = self.framework_snapshot().ok_or_else(|| {
            SnapshotError::Unsupported(
                "the engine's framework or one of its oracles does not implement \
                 state snapshots"
                    .into(),
            )
        })?;
        Ok(EngineSnapshot {
            config: *self.config(),
            slides: self.slides_processed(),
            registered: self.registered_users() as u64,
            watermark: self.index().latest_id(),
            interner: self.interner().raws().to_vec(),
            window: self.window().iter().copied().collect(),
            index: self.index().clone(),
            framework,
        })
    }

    /// Rehydrates an engine from a snapshot, bit-identical to the engine
    /// the snapshot was taken from: same interner table, same window, same
    /// checkpoints (re-sharded deterministically oldest-first when the
    /// configuration asks for pool threads), same cached float state.
    ///
    /// Only the built-in unit-weight (cardinality) frameworks can be
    /// restored through this entry point — a snapshot whose dense weight
    /// table is non-empty was taken from a weighted engine, whose weight
    /// *function* is not serializable; restoring one is
    /// [`SnapshotError::Unsupported`].
    pub fn restore(snapshot: EngineSnapshot) -> Result<SimEngine, SnapshotError> {
        let config = snapshot.config;
        if !snapshot.framework.set.dense_weights.is_empty()
            || snapshot.framework.set.identity_filled
        {
            return Err(SnapshotError::Unsupported(
                "snapshot was taken from a weighted engine; the weight function \
                 itself is not serializable"
                    .into(),
            ));
        }
        let framework: Box<dyn crate::framework::Framework> = match snapshot.framework.kind {
            FrameworkKind::Ic => Box::new(IcFramework::from_state(config, snapshot.framework)?),
            FrameworkKind::Sic => Box::new(SicFramework::from_state(config, snapshot.framework)?),
        };
        SimEngine::from_restored_parts(
            config,
            framework,
            snapshot.slides,
            snapshot.registered as usize,
            snapshot.interner,
            snapshot.window,
            snapshot.index,
        )
    }
}

/// Writes a snapshot durably and atomically: encode, write to
/// `<path>.tmp`, `fsync`, rename over `path`, then `fsync` the parent
/// directory.  A crash at any point leaves either the previous snapshot or
/// none — never a torn file under the live name (property-tested in
/// `tests/snapshot_props.rs`) — and once this returns, the rename itself
/// is durable (without the directory `fsync` a machine crash could undo
/// the publish even though the data blocks survived).
///
/// Returns the encoded size in bytes.
pub fn write_snapshot_atomic(path: impl AsRef<Path>, snapshot: &EngineSnapshot) -> io::Result<u64> {
    write_snapshot_atomic_with(path.as_ref(), snapshot, &Fs::real())
}

/// [`write_snapshot_atomic`] through an explicit (possibly
/// fault-injected) [`Fs`].
pub fn write_snapshot_atomic_with(
    path: &Path,
    snapshot: &EngineSnapshot,
    fs: &Fs,
) -> io::Result<u64> {
    write_snapshot_bytes_atomic(path, &snapshot.encode(), fs)
}

/// The byte-level core of [`write_snapshot_atomic`], for callers that
/// already hold the encoded document (the background snapshot writer).
pub fn write_snapshot_bytes_atomic(path: &Path, bytes: &[u8], fs: &Fs) -> io::Result<u64> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = fs.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs.sync_dir(parent)?;
        }
    }
    Ok(bytes.len() as u64)
}

/// Loads and decodes a snapshot file.  A missing file is
/// `StateError::Io(NotFound)`; corruption is the decoder's typed error.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<EngineSnapshot, StateError> {
    load_snapshot_with(path.as_ref(), &Fs::real())
}

/// [`load_snapshot`] through an explicit [`Fs`].
pub fn load_snapshot_with(path: &Path, fs: &Fs) -> Result<EngineSnapshot, StateError> {
    let data = fs.read(path)?;
    EngineSnapshot::decode(&data)
}

/// What [`recover_engine`] reconstructed, and how.
pub struct RecoveryOutcome {
    /// The recovered engine, ready to serve.
    pub engine: SimEngine,
    /// `true` if a valid, configuration-matching snapshot was used.
    pub used_snapshot: bool,
    /// The snapshot's watermark (0 without a snapshot).
    pub snapshot_watermark: u64,
    /// Window slides the snapshot had processed (0 without a snapshot) —
    /// the baseline for `snapshot_age_slides` accounting.
    pub snapshot_slides: u64,
    /// Journal batches replayed past the watermark.
    pub replayed_batches: u64,
    /// Journal actions replayed past the watermark.
    pub replayed_actions: u64,
    /// Id of the last action the engine has now processed.
    pub watermark: u64,
    /// How a resumed journal writer must re-arm: which segment to append
    /// to (and at what truncation offset), which files to orphan first,
    /// and which completed segments are compaction candidates.
    pub journal_resume: JournalResume,
    /// Human-readable notes about fallbacks taken (corrupt snapshot,
    /// configuration mismatch, torn journal tail, rejected or orphaned
    /// segments, detected data-loss gaps, …).
    pub notes: Vec<String>,
}

/// The startup recovery decision tree over a persistence directory (see
/// `docs/RECOVERY.md`):
///
/// 1. Try `snapshot.rtss`.  Use it only if it decodes, matches the
///    requested configuration and framework, and restores cleanly;
///    otherwise note the reason and fall back to a cold engine.
/// 2. Read every journal segment (missing → empty; torn tail in the newest
///    segment → valid prefix; a torn/corrupt *older* segment severs the
///    sequence there) and replay every batch past the snapshot watermark,
///    batch by batch and across segment boundaries — the journal's batch
///    boundaries reproduce the engine's original slide cuts, so the
///    recovered engine's answers are bit-identical to an uninterrupted
///    engine's.
/// 3. Enforce id continuity past the watermark: rebased ids are
///    consecutive, so a jump means actions were lost (e.g. a crash between
///    a degraded-period re-arm and its covering snapshot).  Replay stops
///    at the gap, the unreachable suffix is marked for orphaning, and the
///    loss is noted — the engine serves the longest provably consistent
///    prefix rather than a silently wrong stream.
///
/// This function never fails: every degraded path falls back to replaying
/// more (or, at worst, a cold engine) and records a note.
pub fn recover_engine(
    config: SimConfig,
    kind: FrameworkKind,
    dir: impl AsRef<Path>,
) -> RecoveryOutcome {
    recover_engine_with(config, kind, dir.as_ref(), &Fs::real())
}

/// [`recover_engine`] through an explicit (possibly fault-injected)
/// [`Fs`].
pub fn recover_engine_with(
    config: SimConfig,
    kind: FrameworkKind,
    dir: &Path,
    fs: &Fs,
) -> RecoveryOutcome {
    let mut notes = Vec::new();
    let mut engine = None;
    let mut used_snapshot = false;
    let mut snapshot_watermark = 0u64;
    let mut snapshot_slides = 0u64;

    match load_snapshot_with(&dir.join(SNAPSHOT_FILE), fs) {
        Ok(snap) => {
            if snap.config != config || snap.framework.kind != kind {
                notes.push(format!(
                    "snapshot was taken under a different configuration \
                     ({:?} {:?} vs requested {:?} {:?}); falling back to full replay",
                    snap.framework.kind, snap.config, kind, config
                ));
            } else {
                let watermark = snap.watermark;
                let slides = snap.slides;
                match SimEngine::restore(snap) {
                    Ok(restored) => {
                        engine = Some(restored);
                        used_snapshot = true;
                        snapshot_watermark = watermark;
                        snapshot_slides = slides;
                    }
                    Err(e) => notes.push(format!(
                        "snapshot failed to restore ({e}); falling back to full replay"
                    )),
                }
            }
        }
        Err(StateError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => notes.push(format!(
            "snapshot is unreadable ({e}); falling back to full replay"
        )),
    }

    let mut engine = engine.unwrap_or_else(|| SimEngine::new(config, kind));
    let mut replayed_batches = 0u64;
    let mut replayed_actions = 0u64;

    let contents = match read_journal_dir(dir, fs) {
        Ok(contents) => contents,
        Err(e) => {
            notes.push(format!(
                "journal directory is unreadable ({e}); starting a fresh journal{}",
                if used_snapshot {
                    " from the snapshot"
                } else {
                    ""
                }
            ));
            JournalDirContents::default()
        }
    };
    notes.extend(contents.notes.iter().cloned());
    if used_snapshot && contents.last_id() < snapshot_watermark {
        notes.push(format!(
            "journal ends at {} before the snapshot watermark {snapshot_watermark} \
             (journal lost or compacted); serving from the snapshot alone",
            contents.last_id()
        ));
    }

    // Replay across segments, enforcing consecutive ids past the
    // watermark.  `expected` is the next id replay must see; `None` until
    // a durable basis exists (a cold engine accepts any starting id — a
    // compacted journal whose snapshot was lost legitimately starts
    // mid-stream, and the best effort is its valid prefix).
    let mut expected: Option<u64> = if used_snapshot {
        Some(snapshot_watermark + 1)
    } else {
        None
    };
    let mut gap_at: Option<(usize, usize)> = None;
    'replay: for (si, seg) in contents.segments.iter().enumerate() {
        for (bi, batch) in seg.contents.batches.iter().enumerate() {
            let last = batch.last().map_or(0, |a| a.id.0);
            if last <= snapshot_watermark {
                continue; // already inside the snapshot
            }
            // Snapshots are taken between batches, so a batch straddling
            // the watermark means the files disagree; replay only the
            // unseen suffix to stay safe.
            let tail_start = batch
                .iter()
                .position(|a| a.id.0 > snapshot_watermark)
                .expect("batch reaches past the watermark");
            if tail_start > 0 {
                notes.push(format!(
                    "journal batch straddles the watermark {snapshot_watermark}; \
                     replaying its suffix only"
                ));
            }
            let tail = &batch[tail_start..];
            let first = tail.first().map_or(0, |a| a.id.0);
            if let Some(exp) = expected {
                if first > exp {
                    notes.push(format!(
                        "journal gap past the watermark: expected action {exp}, found \
                         {first} (actions {exp}–{} were lost in a degraded period); \
                         serving the consistent prefix and orphaning the unreachable \
                         suffix",
                        first - 1
                    ));
                    gap_at = Some((si, bi));
                    break 'replay;
                }
            }
            engine.ingest_batch(tail);
            replayed_batches += 1;
            replayed_actions += tail.len() as u64;
            expected = Some(last + 1);
        }
    }

    let journal_resume = match gap_at {
        None => resume_plan(&contents),
        Some((si, bi)) => gap_resume_plan(&contents, si, bi),
    };

    let watermark = engine.index().latest_id();
    RecoveryOutcome {
        engine,
        used_snapshot,
        snapshot_watermark,
        snapshot_slides,
        replayed_batches,
        replayed_actions,
        watermark,
        journal_resume,
        notes,
    }
}

/// Rebuilds the journal-resume plan after replay stopped at a gap in
/// segment `si`, batch `bi`: everything from the gap on is unreachable and
/// must be orphaned, and appending resumes at the last batch boundary of
/// the kept prefix.
fn gap_resume_plan(contents: &JournalDirContents, si: usize, bi: usize) -> JournalResume {
    let base = resume_plan(contents);
    let mut plan = JournalResume {
        next_seq: base.next_seq,
        orphans: base.orphans,
        ..JournalResume::default()
    };
    // Segments fully before the gap are kept whole; the gap segment keeps
    // its batches `..bi` (truncated via the recorded batch-end offset).
    let keep_partial = bi > 0;
    let full_keep = if keep_partial { si + 1 } else { si };
    for seg in &contents.segments[..full_keep.saturating_sub(1)] {
        plan.completed.push(CompletedSegment {
            seq: seg.seq,
            path: seg.path.clone(),
            last_id: seg.contents.last_id(),
        });
    }
    if full_keep > 0 {
        let resumed = &contents.segments[full_keep - 1];
        let valid_len = if keep_partial {
            resumed.contents.batch_ends[bi - 1]
        } else {
            resumed.contents.valid_len
        };
        plan.resume = Some(ResumePoint {
            seq: resumed.seq,
            path: resumed.path.clone(),
            valid_len,
        });
    }
    for seg in &contents.segments[full_keep..] {
        plan.orphans.push(seg.path.clone());
    }
    plan.last_id = if keep_partial {
        contents.segments[si].contents.batches[bi - 1]
            .last()
            .map_or(0, |a| a.id.0)
    } else {
        contents.segments[..si]
            .iter()
            .rev()
            .map(|s| s.contents.last_id())
            .find(|&id| id != 0)
            .unwrap_or(0)
    };
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtim_stream::persist::journal::JournalWriter;

    fn figure1_actions() -> Vec<Action> {
        vec![
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
        ]
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rtim-snapshot-{}-{name}", std::process::id()));
        // Directory-based recovery scans every file, so a stale directory
        // from an earlier failed run must not leak into this one.
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn snapshot_restores_bit_identically_and_keeps_evolving() {
        for kind in [FrameworkKind::Ic, FrameworkKind::Sic] {
            let config = SimConfig::new(2, 0.3, 8, 2);
            let actions = figure1_actions();
            let mut original = SimEngine::new(config, kind);
            original.ingest_batch(&actions[..6]);

            let snap = original.snapshot().unwrap();
            assert_eq!(snap.watermark, 6);
            let bytes = snap.encode();
            let decoded = EngineSnapshot::decode(&bytes).unwrap();
            // Deterministic encoding: decode → encode is the identity.
            assert_eq!(decoded.encode(), bytes);
            let mut restored = SimEngine::restore(decoded).unwrap();

            assert_eq!(restored.query(), original.query());
            assert_eq!(restored.checkpoint_count(), original.checkpoint_count());
            assert_eq!(restored.slides_processed(), original.slides_processed());
            assert_eq!(restored.oracle_updates(), original.oracle_updates());
            // Both engines keep evolving identically.
            let a = original.ingest_batch(&actions[6..]);
            let b = restored.ingest_batch(&actions[6..]);
            assert_eq!(a.len(), b.len());
            let (qa, qb) = (original.query(), restored.query());
            assert_eq!(qa.seeds, qb.seeds);
            assert_eq!(qa.value.to_bits(), qb.value.to_bits());
            assert_eq!(
                original.window_influence_sets().total_facts(),
                restored.window_influence_sets().total_facts()
            );
        }
    }

    #[test]
    fn restore_of_a_sharded_snapshot_matches_sequential() {
        let actions = figure1_actions();
        let sequential = SimConfig::new(2, 0.2, 8, 2);
        let sharded = sequential.with_threads(4);
        let mut seq = SimEngine::new_sic(sequential);
        let mut par = SimEngine::new_sic(sharded);
        seq.ingest_batch(&actions[..6]);
        par.ingest_batch(&actions[..6]);
        let mut seq_restored = SimEngine::restore(seq.snapshot().unwrap()).unwrap();
        let mut par_restored = SimEngine::restore(par.snapshot().unwrap()).unwrap();
        seq_restored.ingest_batch(&actions[6..]);
        par_restored.ingest_batch(&actions[6..]);
        let (a, b) = (seq_restored.query(), par_restored.query());
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }

    #[test]
    fn weighted_snapshots_are_refused_at_restore() {
        use rtim_submodular::MapWeight;
        let mut weights = std::collections::HashMap::new();
        weights.insert(rtim_stream::UserId(6), 100.0);
        let mut engine =
            SimEngine::new_sic_weighted(SimConfig::new(2, 0.2, 8, 2), MapWeight::new(weights, 1.0));
        engine.ingest_batch(&figure1_actions());
        let snap = engine.snapshot().unwrap();
        assert!(!snap.framework.set.dense_weights.is_empty());
        assert!(matches!(
            SimEngine::restore(snap),
            Err(SnapshotError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_engine_round_trips() {
        let engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.watermark, 0);
        let restored = SimEngine::restore(EngineSnapshot::decode(&snap.encode()).unwrap()).unwrap();
        assert_eq!(restored.query(), engine.query());
        assert_eq!(restored.checkpoint_count(), 0);
    }

    #[test]
    fn decode_rejects_invalid_configurations() {
        let engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        let snap = engine.snapshot().unwrap();
        let bytes = snap.encode();
        // Zero out k (first 8 bytes of the CONF payload); the CRC must be
        // refreshed so the corruption reaches the semantic validator.
        let mut w = StateWriter::new();
        let doc = StateDocument::parse(&bytes).unwrap();
        for sec in doc.sections() {
            let payload = w.section(sec.tag);
            payload.extend_from_slice(sec.payload);
            if sec.tag == SEC_CONFIG {
                payload[..8].copy_from_slice(&0u64.to_le_bytes());
            }
        }
        let err = EngineSnapshot::decode(&w.finish()).unwrap_err();
        assert!(matches!(err, StateError::Corrupt(_)), "{err}");
    }

    /// A CRC-valid snapshot declaring an absurd pool-thread count is
    /// rejected before restore could spawn that many workers.
    #[test]
    fn decode_rejects_absurd_thread_counts() {
        let engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        let bytes = engine.snapshot().unwrap().encode();
        let doc = StateDocument::parse(&bytes).unwrap();
        let mut w = StateWriter::new();
        for sec in doc.sections() {
            let payload = w.section(sec.tag);
            payload.extend_from_slice(sec.payload);
            if sec.tag == SEC_CONFIG {
                // threads is the u64 after k, beta, N, L and the oracle tag.
                payload[33..41].copy_from_slice(&10_000_000u64.to_le_bytes());
            }
        }
        let err = EngineSnapshot::decode(&w.finish()).unwrap_err();
        assert!(
            matches!(&err, StateError::Corrupt(msg) if msg.contains("thread count")),
            "{err}"
        );
    }

    #[test]
    fn recover_prefers_snapshot_and_replays_only_the_tail() {
        let dir = temp_dir("tail");
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join("journal.rtaj");
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();

        // A server's life: journal every batch, snapshot after the third.
        let mut journal = JournalWriter::create(&journal_path).unwrap();
        let mut engine = SimEngine::new_sic(config);
        for (i, batch) in actions.chunks(2).enumerate() {
            journal.append_batch(batch).unwrap();
            engine.ingest_batch(batch);
            if i == 2 {
                write_snapshot_atomic(&snapshot_path, &engine.snapshot().unwrap()).unwrap();
            }
        }
        drop(journal);
        let expected = engine.query();

        let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
        assert!(outcome.used_snapshot);
        assert_eq!(outcome.snapshot_watermark, 6);
        assert_eq!(outcome.snapshot_slides, 3);
        assert_eq!(outcome.replayed_batches, 2);
        assert_eq!(outcome.replayed_actions, 4);
        assert_eq!(outcome.watermark, 10);
        let resume = outcome.journal_resume.resume.as_ref().unwrap();
        assert_eq!(resume.path, journal_path);
        assert!(outcome.journal_resume.orphans.is_empty());
        let got = outcome.engine.query();
        assert_eq!(got.seeds, expected.seeds);
        assert_eq!(got.value.to_bits(), expected.value.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rotation transparency: the same stream split across several
    /// segments recovers bit-identically to the single-file layout.
    #[test]
    fn recover_replays_across_segment_boundaries() {
        use rtim_stream::persist::segjournal::segment_file_name;
        let dir = temp_dir("segments");
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();

        let mut engine = SimEngine::new_sic(config);
        for (i, batch) in actions.chunks(2).enumerate() {
            // One batch per segment: seqs 1..=5.
            let mut journal =
                JournalWriter::create(dir.join(segment_file_name(i as u64 + 1))).unwrap();
            journal.append_batch(batch).unwrap();
            engine.ingest_batch(batch);
            if i == 2 {
                write_snapshot_atomic(dir.join(SNAPSHOT_FILE), &engine.snapshot().unwrap())
                    .unwrap();
            }
        }
        let expected = engine.query();

        let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
        assert!(outcome.used_snapshot);
        assert_eq!(outcome.replayed_batches, 2);
        assert_eq!(outcome.watermark, 10);
        assert_eq!(outcome.journal_resume.next_seq, 6);
        let got = outcome.engine.query();
        assert_eq!(got.seeds, expected.seeds);
        assert_eq!(got.value.to_bits(), expected.value.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An id gap past the watermark (actions lost in a degraded period
    /// without a covering snapshot) stops replay at the gap: the engine
    /// serves the consistent prefix, and the unreachable suffix is marked
    /// for orphaning.
    #[test]
    fn recover_stops_at_an_id_gap_and_orphans_the_suffix() {
        use rtim_stream::persist::segjournal::segment_file_name;
        let dir = temp_dir("gap");
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();

        // Segment 1 holds ids 1..=4; segment 2 jumps to 7..=10 — ids 5–6
        // were lost (never journaled during a degraded period, and the
        // re-arm snapshot that would cover them never landed).
        let mut j1 = JournalWriter::create(dir.join(segment_file_name(1))).unwrap();
        j1.append_batch(&actions[..4]).unwrap();
        drop(j1);
        let mut j2 = JournalWriter::create(dir.join(segment_file_name(2))).unwrap();
        j2.append_batch(&actions[6..]).unwrap();
        drop(j2);

        let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
        assert!(!outcome.used_snapshot);
        assert_eq!(outcome.watermark, 4, "replay must stop at the gap");
        assert!(
            outcome.notes.iter().any(|n| n.contains("journal gap")),
            "{:?}",
            outcome.notes
        );
        // The kept prefix resumes in segment 1; segment 2 is unreachable.
        let resume = outcome.journal_resume.resume.as_ref().unwrap();
        assert_eq!(resume.seq, 1);
        assert_eq!(
            outcome.journal_resume.orphans,
            vec![dir.join(segment_file_name(2))]
        );
        assert_eq!(outcome.journal_resume.last_id, 4);
        assert_eq!(outcome.journal_resume.next_seq, 3);

        // The answers match an engine that only ever saw the prefix.
        let mut reference = SimEngine::new_sic(config);
        reference.ingest_batch(&actions[..4]);
        let (got, expected) = (outcome.engine.query(), reference.query());
        assert_eq!(got.seeds, expected.seeds);
        assert_eq!(got.value.to_bits(), expected.value.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A gap at a mid-segment batch boundary truncates the resumed segment
    /// at the last good batch end.
    #[test]
    fn recover_gap_inside_a_segment_truncates_at_the_batch_boundary() {
        let dir = temp_dir("gap-mid");
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();

        let path = dir.join("journal.rtaj");
        let mut journal = JournalWriter::create(&path).unwrap();
        journal.append_batch(&actions[..4]).unwrap();
        journal.append_batch(&actions[6..]).unwrap(); // ids 7..=10: gap at 5–6
        drop(journal);
        let disk_len = std::fs::metadata(&path).unwrap().len();

        let outcome = recover_engine(config, FrameworkKind::Sic, &dir);
        assert_eq!(outcome.watermark, 4);
        let resume = outcome.journal_resume.resume.as_ref().unwrap();
        assert!(
            resume.valid_len < disk_len,
            "resume must cut off the unreachable batch ({} vs {disk_len})",
            resume.valid_len
        );
        assert_eq!(outcome.journal_resume.last_id, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_falls_back_to_full_replay_when_the_snapshot_is_corrupt() {
        let dir = temp_dir("corrupt-snap");
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join("journal.rtaj");
        let config = SimConfig::new(2, 0.3, 8, 2);
        let actions = figure1_actions();

        let mut journal = JournalWriter::create(&journal_path).unwrap();
        let mut engine = SimEngine::new_ic(config);
        for batch in actions.chunks(2) {
            journal.append_batch(batch).unwrap();
            engine.ingest_batch(batch);
        }
        drop(journal);
        std::fs::write(&snapshot_path, b"RTSSgarbage").unwrap();

        let outcome = recover_engine(config, FrameworkKind::Ic, &dir);
        assert!(!outcome.used_snapshot);
        assert!(!outcome.notes.is_empty());
        assert_eq!(outcome.replayed_actions, 10);
        let got = outcome.engine.query();
        let expected = engine.query();
        assert_eq!(got.seeds, expected.seeds);
        assert_eq!(got.value.to_bits(), expected.value.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_ignores_a_snapshot_with_a_different_configuration() {
        let dir = temp_dir("config-mismatch");
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let old = SimConfig::new(2, 0.3, 8, 2);
        let mut engine = SimEngine::new_ic(old);
        engine.ingest_batch(&figure1_actions()[..4]);
        write_snapshot_atomic(&snapshot_path, &engine.snapshot().unwrap()).unwrap();

        let new = SimConfig::new(3, 0.3, 8, 2); // operator changed k
        let outcome = recover_engine(new, FrameworkKind::Ic, &dir);
        assert!(!outcome.used_snapshot);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("different configuration")));
        assert_eq!(outcome.engine.config().k, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_start_with_no_files_is_a_fresh_engine() {
        let dir = temp_dir("cold");
        let outcome = recover_engine(SimConfig::new(2, 0.3, 8, 2), FrameworkKind::Sic, &dir);
        assert!(!outcome.used_snapshot);
        assert_eq!(outcome.watermark, 0);
        assert!(outcome.notes.is_empty());
        assert!(outcome.journal_resume.resume.is_none());
        assert_eq!(outcome.journal_resume.next_seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_removes_the_temp_file() {
        let dir = temp_dir("atomic");
        let path = dir.join("snapshot.rtss");
        let mut engine = SimEngine::new_ic(SimConfig::new(2, 0.3, 8, 2));
        engine.ingest_batch(&figure1_actions()[..4]);
        let first = engine.snapshot().unwrap();
        let bytes = write_snapshot_atomic(&path, &first).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        engine.ingest_batch(&figure1_actions()[4..]);
        let second = engine.snapshot().unwrap();
        write_snapshot_atomic(&path, &second).unwrap();
        assert!(!dir.join("snapshot.rtss.tmp").exists());
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.watermark, 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
