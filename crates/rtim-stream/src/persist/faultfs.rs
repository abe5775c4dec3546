//! Deterministic fault injection for the durability I/O paths.
//!
//! Every file operation the journal and snapshot writers perform goes
//! through an [`Fs`] handle.  By default the handle is a zero-cost
//! pass-through to `std::fs`; tests (and the crash-matrix example) attach a
//! [`FaultInjector`] whose scripted rules deliver EIO, ENOSPC, short/torn
//! writes, fsync failures, or a **crash point** — an op index past which the
//! disk is frozen exactly as a SIGKILL would leave it — at precisely
//! reproducible moments.
//!
//! ## Design rules
//!
//! * **Deterministic**: rules are keyed to per-rule *matching-op* counters
//!   (the 3rd `Write`, every `Fsync` from the 2nd on, …) or to a seeded
//!   per-op hash — never to wall-clock or global state, so a failing run
//!   replays bit-identically.
//! * **Crash freeze**: once a [`FaultRule::CrashAt`] fires, *every*
//!   subsequent op fails and nothing further reaches the disk.  The files
//!   are left exactly as they were after op `at - 1`, which is what a real
//!   crash does (modulo the kernel page cache, which the fsync-policy tests
//!   cover separately).
//! * **Zero-cost default**: a plain [`Fs::real`] handle carries no
//!   injector; the per-op check is a `None` test.
//!
//! The injector also counts ops, so a crash-point sweep can first measure a
//! clean run (`ops()`), then re-run with `CrashAt { at }` for every prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The observable failure delivered by a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `EIO` — a generic I/O error (bad sector, dying disk).
    Eio,
    /// `ENOSPC` — the disk is full.
    Enospc,
    /// A short write: a *prefix* of the buffer reaches the file, then the
    /// call fails.  This is how torn batches and torn snapshot temps are
    /// manufactured.
    ShortWrite,
}

impl FaultKind {
    fn error(self) -> io::Error {
        match self {
            // Raw errnos so `ErrorKind` mapping matches what a real kernel
            // would produce (5 = EIO, 28 = ENOSPC on Linux).
            FaultKind::Eio => io::Error::from_raw_os_error(5),
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::ShortWrite => io::Error::other("injected short write"),
        }
    }
}

/// The operation classes an [`Fs`] performs; rules match on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Creating (truncating) a file.
    Create,
    /// Opening an existing file for read/write.
    Open,
    /// Reading a whole file.
    Read,
    /// Writing a buffer to an open file.
    Write,
    /// `fsync` of an open file.
    Fsync,
    /// Renaming a path (the atomic-publish step).
    Rename,
    /// Removing a file (journal compaction).
    Remove,
    /// Truncating an open file (`set_len`).
    SetLen,
    /// `fsync` of a directory (making renames/creates crash-durable).
    SyncDir,
    /// Listing a directory.
    ReadDir,
    /// `create_dir_all` of the persistence directory.
    Mkdir,
}

impl OpKind {
    fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "create" => OpKind::Create,
            "open" => OpKind::Open,
            "read" => OpKind::Read,
            "write" => OpKind::Write,
            "fsync" => OpKind::Fsync,
            "rename" => OpKind::Rename,
            "remove" => OpKind::Remove,
            "setlen" => OpKind::SetLen,
            "syncdir" => OpKind::SyncDir,
            "readdir" => OpKind::ReadDir,
            "mkdir" => OpKind::Mkdir,
            _ => return None,
        })
    }
}

/// One scripted failure rule.  Each rule keeps its own counter of
/// *matching* ops, so "the 3rd fsync" stays the 3rd fsync regardless of how
/// many writes happen in between.
#[derive(Debug, Clone)]
pub enum FaultRule {
    /// Fail matching ops numbered `from ..= from + count - 1` (1-based,
    /// counting only ops that match `op`; `op == None` matches every op).
    /// `count == u64::MAX` means "from that point on, forever" — a
    /// persistent fault the degraded-mode machinery must ride out.
    Window {
        /// Which op class to match (`None` = all).
        op: Option<OpKind>,
        /// The failure to deliver.
        kind: FaultKind,
        /// First matching op (1-based) that fails.
        from: u64,
        /// How many matching ops fail.
        count: u64,
    },
    /// Fail each matching op with probability `per_mille`/1000, decided by
    /// a seeded hash of the rule's matching-op index — deterministic and
    /// replayable for a fixed seed.
    Seeded {
        /// Which op class to match (`None` = all).
        op: Option<OpKind>,
        /// The failure to deliver.
        kind: FaultKind,
        /// Hash seed.
        seed: u64,
        /// Failure probability in thousandths.
        per_mille: u16,
    },
    /// Freeze the disk at the `at`-th op overall (1-based, counting every
    /// op): that op and all later ones fail with no disk side effects.
    CrashAt {
        /// The op index at which the process "crashes".
        at: u64,
    },
}

#[derive(Debug, Default)]
struct InjectorState {
    ops_total: u64,
    injected: u64,
    /// Per-rule matching-op counters (parallel to `rules`).
    matched: Vec<u64>,
}

/// A scripted fault source shared by every [`Fs`] clone in a test.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    state: Mutex<InjectorState>,
    crashed: AtomicBool,
}

/// SplitMix64 — the standard 64-bit finalizer; used to derive the seeded
/// rule's per-op coin flips without depending on an RNG crate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Builds an injector from a rule script.
    pub fn new(rules: Vec<FaultRule>) -> Arc<FaultInjector> {
        let matched = vec![0; rules.len()];
        Arc::new(FaultInjector {
            rules,
            state: Mutex::new(InjectorState {
                matched,
                ..InjectorState::default()
            }),
            crashed: AtomicBool::new(false),
        })
    }

    /// Parses the `RTIM_FAULT` environment-variable grammar, used to inject
    /// faults across a process boundary (the crash-matrix example):
    ///
    /// ```text
    /// spec    = rule ("," rule)*
    /// rule    = "crash@" N
    ///         | kind ":" op "@" N            -- one-shot at the Nth matching op
    ///         | kind ":" op "@" N "+"        -- persistent from the Nth on
    ///         | kind ":" op "@" N "x" M      -- window of M matching ops
    ///         | kind ":" op "~" seed "/" pm  -- seeded, pm per-mille
    /// kind    = "eio" | "enospc" | "short"
    /// op      = "any" | "create" | "open" | "read" | "write" | "fsync"
    ///         | "rename" | "remove" | "setlen" | "syncdir" | "readdir"
    ///         | "mkdir"
    /// ```
    pub fn from_spec(spec: &str) -> Result<Arc<FaultInjector>, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            rules.push(Self::parse_rule(raw).ok_or_else(|| format!("bad fault rule: {raw:?}"))?);
        }
        Ok(Self::new(rules))
    }

    fn parse_rule(raw: &str) -> Option<FaultRule> {
        if let Some(at) = raw.strip_prefix("crash@") {
            return Some(FaultRule::CrashAt {
                at: at.parse().ok()?,
            });
        }
        let (kind, rest) = raw.split_once(':')?;
        let kind = match kind {
            "eio" => FaultKind::Eio,
            "enospc" => FaultKind::Enospc,
            "short" => FaultKind::ShortWrite,
            _ => return None,
        };
        let (op, tail, seeded) = match (rest.split_once('@'), rest.split_once('~')) {
            (Some((op, tail)), _) => (op, tail, false),
            (None, Some((op, tail))) => (op, tail, true),
            _ => return None,
        };
        let op = match op {
            "any" => None,
            named => Some(OpKind::parse(named)?),
        };
        if seeded {
            let (seed, pm) = tail.split_once('/')?;
            return Some(FaultRule::Seeded {
                op,
                kind,
                seed: seed.parse().ok()?,
                per_mille: pm.parse().ok()?,
            });
        }
        let (from, count) = if let Some(n) = tail.strip_suffix('+') {
            (n.parse().ok()?, u64::MAX)
        } else if let Some((n, m)) = tail.split_once('x') {
            (n.parse().ok()?, m.parse().ok()?)
        } else {
            (tail.parse().ok()?, 1)
        };
        Some(FaultRule::Window {
            op,
            kind,
            from,
            count,
        })
    }

    /// Total ops observed so far (for crash-point sweeps).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("injector poisoned").ops_total
    }

    /// Faults delivered so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("injector poisoned").injected
    }

    /// Whether a crash point has fired (the disk is frozen).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Records one op of class `op` and decides its fate: `None` = let it
    /// through, `Some(kind)` = deliver that fault instead.
    fn check(&self, op: OpKind) -> Option<FaultKind> {
        if self.crashed() {
            return Some(FaultKind::Eio);
        }
        let mut st = self.state.lock().expect("injector poisoned");
        st.ops_total += 1;
        let op_index = st.ops_total;
        let mut verdict = None;
        for (i, rule) in self.rules.iter().enumerate() {
            match rule {
                FaultRule::Window {
                    op: want,
                    kind,
                    from,
                    count,
                } => {
                    if want.is_none_or(|w| w == op) {
                        st.matched[i] += 1;
                        let n = st.matched[i];
                        if verdict.is_none() && n >= *from && n - from < *count {
                            verdict = Some(*kind);
                        }
                    }
                }
                FaultRule::Seeded {
                    op: want,
                    kind,
                    seed,
                    per_mille,
                } => {
                    if want.is_none_or(|w| w == op) {
                        st.matched[i] += 1;
                        let roll = splitmix64(seed ^ st.matched[i]) % 1000;
                        if verdict.is_none() && roll < u64::from(*per_mille) {
                            verdict = Some(*kind);
                        }
                    }
                }
                FaultRule::CrashAt { at } => {
                    if verdict.is_none() && op_index >= *at {
                        self.crashed.store(true, Ordering::SeqCst);
                        verdict = Some(FaultKind::Eio);
                    }
                }
            }
        }
        if verdict.is_some() {
            st.injected += 1;
        }
        verdict
    }
}

/// Handle through which all durability file I/O flows.  Cheap to clone;
/// clones share the same injector (or, by default, none).
#[derive(Debug, Clone, Default)]
pub struct Fs {
    injector: Option<Arc<FaultInjector>>,
}

impl Fs {
    /// The pass-through handle used in production: no injector, no
    /// overhead beyond an `Option` check per op.
    pub fn real() -> Fs {
        Fs::default()
    }

    /// A handle whose ops consult `injector` before touching the disk.
    pub fn faulty(injector: Arc<FaultInjector>) -> Fs {
        Fs {
            injector: Some(injector),
        }
    }

    /// Builds a handle from the `RTIM_FAULT` environment variable, if set
    /// (see [`FaultInjector::from_spec`]).  A malformed spec is an error —
    /// silently ignoring it would turn a fault-matrix run into a no-op.
    pub fn from_env() -> Result<Fs, String> {
        match std::env::var("RTIM_FAULT") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Fs::faulty(FaultInjector::from_spec(&spec)?)),
            _ => Ok(Fs::real()),
        }
    }

    /// The attached injector, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    #[inline]
    fn check(&self, op: OpKind) -> io::Result<Option<FaultKind>> {
        match &self.injector {
            None => Ok(None),
            Some(inj) => match inj.check(op) {
                Some(FaultKind::ShortWrite) if op == OpKind::Write => {
                    Ok(Some(FaultKind::ShortWrite))
                }
                Some(kind) => Err(kind.error()),
                None => Ok(None),
            },
        }
    }

    /// Creates (truncating) `path` for writing.
    pub fn create(&self, path: &Path) -> io::Result<DurableFile> {
        self.check(OpKind::Create)?;
        Ok(DurableFile {
            file: File::create(path)?,
            fs: self.clone(),
        })
    }

    /// Opens `path` read/write without truncating.
    pub fn open_rw(&self, path: &Path) -> io::Result<DurableFile> {
        self.check(OpKind::Open)?;
        Ok(DurableFile {
            file: OpenOptions::new().read(true).write(true).open(path)?,
            fs: self.clone(),
        })
    }

    /// Reads the entire contents of `path`.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check(OpKind::Read)?;
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Ok(data)
    }

    /// Renames `from` to `to` (atomic within a filesystem).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(OpKind::Rename)?;
        std::fs::rename(from, to)
    }

    /// Removes the file at `path`.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(OpKind::Remove)?;
        std::fs::remove_file(path)
    }

    /// Creates `dir` and its ancestors.
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.check(OpKind::Mkdir)?;
        std::fs::create_dir_all(dir)
    }

    /// `fsync`s a directory, making completed renames/creates/removes in
    /// it durable against machine crashes.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.check(OpKind::SyncDir)?;
        File::open(dir)?.sync_all()
    }

    /// Lists the file paths directly inside `dir` (non-recursive).
    pub fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.check(OpKind::ReadDir)?;
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
}

/// An open file whose writes, fsyncs and truncations go through the fault
/// layer.
#[derive(Debug)]
pub struct DurableFile {
    file: File,
    fs: Fs,
}

impl DurableFile {
    /// Writes the whole buffer.  Under an injected [`FaultKind::ShortWrite`]
    /// a *prefix* of the buffer reaches the file before the call fails —
    /// the torn-write shape crash recovery must tolerate.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.fs.check(OpKind::Write)? {
            None => self.file.write_all(buf),
            Some(_short) => {
                let torn = buf.len() / 2;
                if torn > 0 {
                    self.file.write_all(&buf[..torn])?;
                }
                Err(FaultKind::ShortWrite.error())
            }
        }
    }

    /// Forces file contents to stable storage.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.fs.check(OpKind::Fsync)?;
        self.file.sync_all()
    }

    /// Truncates (or extends) the file to `len` bytes.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.fs.check(OpKind::SetLen)?;
        self.file.set_len(len)
    }

    /// Positions the cursor at the end of the file (after a resume
    /// truncation).  Pure cursor arithmetic — not an injectable op.
    pub fn seek_end(&mut self) -> io::Result<u64> {
        self.file.seek(SeekFrom::End(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtim-faultfs-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_fs_round_trips() {
        let dir = temp_dir("real");
        let path = dir.join("f");
        let fs = Fs::real();
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"hello");
        fs.rename(&path, &dir.join("g")).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.read_dir(&dir).unwrap().len(), 1);
        fs.remove_file(&dir.join("g")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nth_matching_op_fails_once() {
        let dir = temp_dir("nth");
        let inj = FaultInjector::new(vec![FaultRule::Window {
            op: Some(OpKind::Write),
            kind: FaultKind::Enospc,
            from: 2,
            count: 1,
        }]);
        let fs = Fs::faulty(Arc::clone(&inj));
        let mut f = fs.create(&dir.join("f")).unwrap();
        f.write_all(b"a").unwrap();
        let err = f.write_all(b"b").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        f.write_all(b"c").unwrap(); // one-shot: the 3rd write succeeds
        assert_eq!(inj.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let dir = temp_dir("short");
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
            op: Some(OpKind::Write),
            kind: FaultKind::ShortWrite,
            from: 1,
            count: 1,
        }]));
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap();
        assert!(f.write_all(b"abcdefgh").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_freezes_the_disk() {
        let dir = temp_dir("crash");
        let inj = FaultInjector::new(vec![FaultRule::CrashAt { at: 3 }]);
        let fs = Fs::faulty(Arc::clone(&inj));
        let path = dir.join("f");
        let mut f = fs.create(&path).unwrap(); // op 1
        f.write_all(b"one").unwrap(); // op 2
        assert!(f.write_all(b"two").is_err()); // op 3: crash fires
        assert!(inj.crashed());
        assert!(f.sync_all().is_err());
        assert!(fs.create(&dir.join("g")).is_err());
        // Disk frozen exactly as of op 2.
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        assert!(!dir.join("g").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_window_then_clear_via_count() {
        let dir = temp_dir("window");
        let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::Window {
            op: Some(OpKind::Fsync),
            kind: FaultKind::Eio,
            from: 1,
            count: 2,
        }]));
        let mut f = fs.create(&dir.join("f")).unwrap();
        assert!(f.sync_all().is_err());
        assert!(f.sync_all().is_err());
        f.sync_all().unwrap(); // fault window over
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_rule_is_replayable() {
        let decide = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(vec![FaultRule::Seeded {
                op: None,
                kind: FaultKind::Eio,
                seed,
                per_mille: 400,
            }]);
            (0..64)
                .map(|_| inj.check(OpKind::Write).is_some())
                .collect()
        };
        let a = decide(7);
        assert_eq!(a, decide(7), "same seed, same schedule");
        assert_ne!(a, decide(8), "different seed, different schedule");
        let hits = a.iter().filter(|&&b| b).count();
        assert!(hits > 10 && hits < 54, "~40% of 64 ops, got {hits}");
    }

    #[test]
    fn spec_grammar_parses() {
        let inj = FaultInjector::from_spec("crash@12").unwrap();
        assert!(matches!(inj.rules[0], FaultRule::CrashAt { at: 12 }));
        let inj = FaultInjector::from_spec("enospc:write@5").unwrap();
        assert!(matches!(
            inj.rules[0],
            FaultRule::Window {
                op: Some(OpKind::Write),
                kind: FaultKind::Enospc,
                from: 5,
                count: 1
            }
        ));
        let inj = FaultInjector::from_spec("eio:fsync@2+").unwrap();
        assert!(matches!(
            inj.rules[0],
            FaultRule::Window {
                kind: FaultKind::Eio,
                from: 2,
                count: u64::MAX,
                ..
            }
        ));
        let inj = FaultInjector::from_spec("short:write@3x4,crash@9").unwrap();
        assert!(matches!(
            inj.rules[0],
            FaultRule::Window {
                from: 3,
                count: 4,
                ..
            }
        ));
        assert!(matches!(inj.rules[1], FaultRule::CrashAt { at: 9 }));
        let inj = FaultInjector::from_spec("eio:any~42/250").unwrap();
        assert!(matches!(
            inj.rules[0],
            FaultRule::Seeded {
                op: None,
                seed: 42,
                per_mille: 250,
                ..
            }
        ));
        assert!(FaultInjector::from_spec("bogus@3").is_err());
        assert!(FaultInjector::from_spec("eio:teleport@3").is_err());
    }

    #[test]
    fn op_counter_supports_sweeps() {
        let dir = temp_dir("sweep");
        let run = |fs: &Fs| -> io::Result<()> {
            let mut f = fs.create(&dir.join("f"))?;
            f.write_all(b"x")?;
            f.sync_all()?;
            fs.rename(&dir.join("f"), &dir.join("g"))?;
            fs.sync_dir(&dir)?;
            Ok(())
        };
        let inj = FaultInjector::new(vec![]);
        run(&Fs::faulty(Arc::clone(&inj))).unwrap();
        let total = inj.ops();
        assert_eq!(total, 5);
        for at in 1..=total {
            let fs = Fs::faulty(FaultInjector::new(vec![FaultRule::CrashAt { at }]));
            assert!(run(&fs).is_err(), "crash at op {at} must surface");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
