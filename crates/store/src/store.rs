//! [`BindingStore`]: the durable store façade — open, append, compact,
//! recover.
//!
//! A store directory holds at most three files:
//!
//! | file            | role                                      |
//! |-----------------|-------------------------------------------|
//! | `snapshot.snap` | last compacted image of the full table    |
//! | `snapshot.tmp`  | in-flight snapshot (crash leftover only)  |
//! | `wal.log`       | ops appended since the last snapshot      |
//!
//! Recovery loads `snapshot.snap` (missing ⇒ empty), replays `wal.log` on
//! top, truncating the log at the first torn/corrupt frame, and leaves the
//! result as the in-memory shadow state. Compaction writes the shadow to a
//! fresh snapshot (tmp + fsync + atomic rename) and then truncates the WAL;
//! a crash between the rename and the truncate is harmless because replaying
//! the old ops onto the new snapshot is idempotent — every op is a by-key
//! set or delete whose outcome does not depend on prior state.

use crate::record::{BindingRecord, WalOp};
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::wal::{append_op, recover_file};
use sav_obs::{EventKind, Obs, Severity};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// When appends hit the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Group commit: appends are written immediately and made durable by
    /// the next [`WalCommit::commit`], one fsync for everything staged
    /// since the previous one. The controller commits before any output
    /// of the batch that staged a record leaves it, so a record is still
    /// durable before any flow rule derived from it is pushed. The
    /// default; correctness over throughput.
    #[default]
    Always,
    /// fsync only at compaction; a crash can lose the tail since the last
    /// snapshot. For benchmarks and tests that churn thousands of bindings.
    OnCompact,
    /// Never fsync explicitly (OS page cache decides). Test-only.
    Never,
}

/// Tuning for a [`BindingStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Durability policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Compact when the WAL holds at least this many records…
    pub compact_min_records: u64,
    /// …and exceeds this many bytes. Both thresholds must trip.
    pub compact_min_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            compact_min_records: 1024,
            compact_min_bytes: 64 * 1024,
        }
    }
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Bindings loaded from the snapshot file.
    pub snapshot_bindings: usize,
    /// True if the snapshot was present but damaged (prefix salvaged).
    pub snapshot_damaged: bool,
    /// Ops replayed from the WAL tail.
    pub wal_ops_replayed: usize,
    /// True if a torn/corrupt WAL tail was cut off.
    pub wal_truncated: bool,
    /// Live bindings after replay.
    pub recovered_bindings: usize,
}

/// A live-append observer: called with `(global_seq, op)` once per
/// record, in sequence order, after the record is durable — under
/// [`FsyncPolicy::Always`] by the commit that covered it, under the other
/// policies at append. This is how a replication leader fans freshly
/// committed records out to followers without polling the file.
pub type WalTap = Box<dyn FnMut(u64, &WalOp) + Send>;

/// What a store shares with its commit handles.
struct Staged {
    /// A second descriptor on the WAL file, for the commit's fsync.
    wal: File,
    fsync: FsyncPolicy,
    /// Records written since the last commit (`Always` only), with their
    /// global sequence numbers; the tap sees them once they are durable.
    pending: Vec<(u64, WalOp)>,
    tap: Option<WalTap>,
    obs: Option<Obs>,
}

impl Staged {
    fn stage(&mut self, seq: u64, op: &WalOp) {
        if self.fsync == FsyncPolicy::Always {
            self.pending.push((seq, *op));
        } else if let Some(tap) = &mut self.tap {
            tap(seq, op);
        }
    }

    fn commit(&mut self) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        {
            let _span = self.obs.as_ref().map(|o| o.span("wal_fsync"));
            self.wal.sync_data()?;
        }
        if let Some(obs) = &self.obs {
            obs.counters.incr("sav_wal_commits_total");
        }
        let n = self.pending.len();
        for (seq, op) in self.pending.drain(..) {
            if let Some(tap) = &mut self.tap {
                tap(seq, &op);
            }
        }
        Ok(n)
    }
}

/// Cloneable handle that makes a [`BindingStore`]'s staged appends
/// durable. Taken with [`BindingStore::commit_handle`], so a caller that
/// does not own the store (the controller, at the end of a batch) can
/// still commit it.
#[derive(Clone)]
pub struct WalCommit(Arc<Mutex<Staged>>);

impl WalCommit {
    /// Fsync once if anything was appended since the last commit, then
    /// hand the newly durable records to the tap in sequence order.
    /// Returns how many records this commit covered (0 = nothing staged,
    /// no fsync). On failure the records stay staged for the next commit.
    pub fn commit(&self) -> std::io::Result<usize> {
        self.0.lock().expect("wal commit poisoned").commit()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Staged) -> R) -> R {
        f(&mut self.0.lock().expect("wal commit poisoned"))
    }
}

impl std::fmt::Debug for WalCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalCommit")
    }
}

/// Durable, crash-recoverable store for the binding table.
#[derive(Debug)]
pub struct BindingStore {
    dir: PathBuf,
    wal: File,
    wal_bytes: u64,
    wal_records: u64,
    /// Global sequence of the first record in the current WAL segment.
    /// Persisted in the snapshot header, so sequence numbers are monotone
    /// across process restarts, not just within one lifetime: compaction
    /// advances the base instead of rewinding the counter, and reopening
    /// resumes from the persisted base plus the replayed WAL tail. A
    /// follower's "I have up to seq N" therefore survives both leader-side
    /// compactions and leader restarts.
    base_seq: u64,
    state: BTreeMap<Ipv4Addr, BindingRecord>,
    config: StoreConfig,
    report: RecoveryReport,
    scratch: Vec<u8>,
    obs: Option<Obs>,
    staged: WalCommit,
}

impl BindingStore {
    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.snap")
    }

    fn tmp_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.tmp")
    }

    /// Open (creating if needed) the store at `dir` and run recovery.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> std::io::Result<BindingStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A leftover snapshot.tmp is an aborted compaction; the real
        // snapshot is still intact, so just discard it.
        let _ = std::fs::remove_file(Self::tmp_path(&dir));

        let snap = read_snapshot(&Self::snapshot_path(&dir));
        let mut state = snap.bindings;
        let snapshot_bindings = state.len();

        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(Self::wal_path(&dir))?;
        let scan = recover_file(&mut wal)?;
        for op in &scan.ops {
            apply(&mut state, op);
        }

        let staged = WalCommit(Arc::new(Mutex::new(Staged {
            wal: wal.try_clone()?,
            fsync: config.fsync,
            pending: Vec::new(),
            tap: None,
            obs: None,
        })));
        let report = RecoveryReport {
            snapshot_bindings,
            snapshot_damaged: snap.damaged,
            wal_ops_replayed: scan.ops.len(),
            wal_truncated: scan.truncated,
            recovered_bindings: state.len(),
        };
        Ok(BindingStore {
            dir,
            wal,
            wal_bytes: scan.valid_len,
            wal_records: scan.ops.len() as u64,
            base_seq: snap.base_seq,
            state,
            config,
            report,
            scratch: Vec::new(),
            obs: None,
            staged,
        })
    }

    /// Attach an observability handle: appends and compactions reach its
    /// journal, commit fsync latency its `wal_fsync` trace histogram,
    /// commits its `sav_wal_commits_total` counter, and the current WAL
    /// size its `sav_wal_bytes` gauge.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.gauges.set("sav_wal_bytes", self.wal_bytes as f64);
        obs.counters.add("sav_wal_commits_total", 0);
        self.staged.with(|s| s.obs = Some(obs.clone()));
        self.obs = Some(obs);
    }

    /// What recovery found when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The recovered/live binding image, keyed (and therefore iterated)
    /// by IP in ascending order.
    pub fn bindings(&self) -> &BTreeMap<Ipv4Addr, BindingRecord> {
        &self.state
    }

    /// Current WAL size in bytes (frames only, no header).
    pub fn wal_len(&self) -> u64 {
        self.wal_bytes
    }

    /// Records appended to the WAL since the last compaction.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Global sequence of the first record still in the WAL file. Records
    /// older than this have been folded into the snapshot; a tail reader
    /// asking for them gets [`crate::wal::TailError::Compacted`] and must
    /// resync from a snapshot.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Next global sequence number to be assigned. Monotone across
    /// restarts (the base is persisted in the snapshot header): a crash
    /// between a snapshot rename and the WAL truncate may inflate the
    /// counter by the replayed segment's length, but it never rewinds. A
    /// follower holding everything below this value is fully caught up.
    pub fn seq(&self) -> u64 {
        self.base_seq + self.wal_records
    }

    /// Re-anchor the sequence space so [`Self::seq`] returns `next_seq`.
    /// For replication followers that just rebuilt this store from a
    /// leader snapshot whose image ends at `next_seq`; the adjustment only
    /// moves the base forward (a rewind request is ignored) and is made
    /// durable by the caller's following [`Self::compact`].
    pub fn align_next_seq(&mut self, next_seq: u64) {
        let base = next_seq.saturating_sub(self.wal_records);
        if base > self.base_seq {
            self.base_seq = base;
        }
    }

    /// Path of the live WAL file, for tail readers
    /// ([`crate::wal::read_from`]).
    pub fn wal_file(&self) -> PathBuf {
        Self::wal_path(&self.dir)
    }

    /// Install (or replace) the live-append tap: every subsequent append
    /// also invokes `tap(global_seq, op)` once the record is durable (see
    /// [`WalTap`]).
    pub fn set_tap(&mut self, tap: WalTap) {
        self.staged.with(|s| s.tap = Some(tap));
    }

    /// A handle whose [`WalCommit::commit`] makes this store's staged
    /// appends durable. Clones share the store's staging state.
    pub fn commit_handle(&self) -> WalCommit {
        self.staged.clone()
    }

    /// Make every staged append durable now: shorthand for committing
    /// through [`Self::commit_handle`].
    pub fn commit(&self) -> std::io::Result<usize> {
        self.staged.commit()
    }

    /// Write one op to the WAL and fold it into the shadow state. Under
    /// [`FsyncPolicy::Always`] the record is staged, not yet durable: the
    /// next commit (or compaction) fsyncs it. Compacts automatically when
    /// both thresholds in [`StoreConfig`] trip.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<()> {
        let wrote = append_op(&mut self.wal, op, &mut self.scratch)?;
        let seq = self.base_seq + self.wal_records;
        self.wal_bytes += wrote;
        self.wal_records += 1;
        apply(&mut self.state, op);
        self.staged.with(|s| s.stage(seq, op));
        if let Some(obs) = &self.obs {
            obs.event(
                Severity::Debug,
                EventKind::WalAppend {
                    bytes: self.wal_bytes,
                },
            );
            obs.gauges.set("sav_wal_bytes", self.wal_bytes as f64);
        }
        if self.wal_records >= self.config.compact_min_records
            && self.wal_bytes >= self.config.compact_min_bytes
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Commit what is staged, then write the shadow state to a fresh
    /// snapshot and reset the WAL.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.commit()?;
        let before = self.wal_bytes;
        write_snapshot(
            &Self::snapshot_path(&self.dir),
            &Self::tmp_path(&self.dir),
            &self.state,
            self.base_seq + self.wal_records,
        )?;
        // Snapshot is durable; the WAL's ops are now redundant. Crash before
        // this truncate just replays them onto the snapshot, idempotently.
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.sync_all()?;
        self.base_seq += self.wal_records;
        self.wal_bytes = 0;
        self.wal_records = 0;
        if let Some(obs) = &self.obs {
            obs.event(Severity::Info, EventKind::WalCompact { before, after: 0 });
            obs.gauges.set("sav_wal_bytes", 0.0);
        }
        Ok(())
    }

    /// Flush pending appends (used by `FsyncPolicy::OnCompact` callers at
    /// orderly shutdown).
    pub fn sync(&mut self) -> std::io::Result<()> {
        let _span = self.obs.as_ref().map(|o| o.span("wal_fsync"));
        self.wal.sync_data()
    }

    /// Delete all store files under `dir`. For `--wipe` flags and tests.
    pub fn wipe(dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        for p in [
            Self::wal_path(dir),
            Self::snapshot_path(dir),
            Self::tmp_path(dir),
        ] {
            match std::fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Fold one op into a binding image. Pure by-key set/delete: replay is
/// idempotent and convergent regardless of how many times a suffix reruns.
pub fn apply(state: &mut BTreeMap<Ipv4Addr, BindingRecord>, op: &WalOp) {
    match op {
        WalOp::Upsert(rec) | WalOp::Migrate(rec) => {
            state.insert(rec.ip, *rec);
        }
        WalOp::Remove(ip) | WalOp::Expire(ip) => {
            state.remove(ip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordSource;
    use sav_net::addr::MacAddr;
    use sav_sim::SimTime;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sav-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(i: u8) -> BindingRecord {
        BindingRecord {
            ip: Ipv4Addr::new(10, 0, 0, i),
            mac: MacAddr::from_index(u64::from(i)),
            dpid: u64::from(i % 2 + 1),
            port: u32::from(i),
            source: RecordSource::Dhcp,
            expires: Some(SimTime::from_secs(300)),
        }
    }

    #[test]
    fn reopen_recovers_appends() {
        let dir = tmp_dir("reopen");
        {
            let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
            s.append(&WalOp::Upsert(rec(1))).unwrap();
            s.append(&WalOp::Upsert(rec(2))).unwrap();
            s.append(&WalOp::Remove(rec(1).ip)).unwrap();
        } // dropped without any orderly shutdown — like a kill -9
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.recovery_report().wal_ops_replayed, 3);
        assert_eq!(s.bindings().len(), 1);
        assert_eq!(s.bindings().get(&rec(2).ip), Some(&rec(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_then_reopen() {
        let dir = tmp_dir("compact");
        {
            let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
            for i in 1..=20 {
                s.append(&WalOp::Upsert(rec(i))).unwrap();
            }
            s.append(&WalOp::Remove(rec(5).ip)).unwrap();
            s.compact().unwrap();
            assert_eq!(s.wal_len(), 0);
            // Post-compaction appends land in a fresh WAL.
            s.append(&WalOp::Upsert(rec(30))).unwrap();
        }
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        let r = s.recovery_report();
        assert_eq!(r.snapshot_bindings, 19);
        assert_eq!(r.wal_ops_replayed, 1);
        assert_eq!(r.recovered_bindings, 20);
        assert!(!s.bindings().contains_key(&rec(5).ip));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_trips_on_thresholds() {
        let dir = tmp_dir("auto");
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            compact_min_records: 8,
            compact_min_bytes: 1,
        };
        let mut s = BindingStore::open(&dir, config).unwrap();
        for i in 1..=8 {
            s.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        assert_eq!(s.wal_len(), 0, "8th append should have compacted");
        assert_eq!(s.bindings().len(), 8);
        drop(s);
        let s = BindingStore::open(&dir, config).unwrap();
        assert_eq!(s.recovery_report().snapshot_bindings, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reported_and_survivable() {
        let dir = tmp_dir("torn");
        {
            let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
            s.append(&WalOp::Upsert(rec(1))).unwrap();
            s.append(&WalOp::Upsert(rec(2))).unwrap();
        }
        // Simulate a torn write: chop the last record mid-frame.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        let r = s.recovery_report().clone();
        assert!(r.wal_truncated);
        assert_eq!(r.wal_ops_replayed, 1);
        assert_eq!(s.bindings().len(), 1);
        // The store keeps working after cutting the tail.
        s.append(&WalOp::Upsert(rec(3))).unwrap();
        drop(s);
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(!s.recovery_report().wal_truncated);
        assert_eq!(s.bindings().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rename_and_truncate_converges() {
        let dir = tmp_dir("rename-crash");
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 1..=4 {
            s.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        s.append(&WalOp::Remove(rec(2).ip)).unwrap();
        let expect: BTreeMap<_, _> = s.bindings().clone();
        // Emulate the crash window: snapshot renamed into place but the WAL
        // (still holding all five ops) never truncated.
        write_snapshot(
            &BindingStore::snapshot_path(&dir),
            &BindingStore::tmp_path(&dir),
            s.bindings(),
            s.seq(),
        )
        .unwrap();
        drop(s);
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.bindings(), &expect, "replay onto snapshot must converge");
        // The replayed segment inflates seq (5 snapshot base + 5 replayed
        // ops) — allowed: the contract is monotonicity, never a rewind.
        assert!(s.seq() >= 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Finding from review: seq() must not rewind when the process
    /// restarts, or replication followers end up "ahead" of a freshly
    /// reopened leader. The base is persisted in the snapshot header.
    #[test]
    fn base_seq_persists_across_reopen() {
        let dir = tmp_dir("base-persist");
        {
            let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
            for i in 1..=5 {
                s.append(&WalOp::Upsert(rec(i))).unwrap();
            }
            s.compact().unwrap();
            s.append(&WalOp::Upsert(rec(6))).unwrap();
            assert_eq!((s.base_seq(), s.seq()), (5, 6));
        }
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            (s.base_seq(), s.seq()),
            (5, 6),
            "sequence space must survive a restart"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn align_next_seq_moves_base_forward_only() {
        let dir = tmp_dir("align");
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        s.append(&WalOp::Upsert(rec(1))).unwrap();
        s.append(&WalOp::Upsert(rec(2))).unwrap();
        s.align_next_seq(10);
        assert_eq!((s.base_seq(), s.seq()), (8, 10));
        s.align_next_seq(3); // rewind attempts are ignored
        assert_eq!(s.seq(), 10);
        s.compact().unwrap();
        drop(s);
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.seq(), 10, "aligned base persists via compact");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn obs_sees_appends_and_compactions() {
        let dir = tmp_dir("obs");
        let obs = sav_obs::Obs::with_tracing();
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        s.set_obs(obs.clone());
        s.append(&WalOp::Upsert(rec(1))).unwrap();
        assert_eq!(obs.gauges.get("sav_wal_bytes"), Some(s.wal_len() as f64));
        assert!(obs.journal.tail_jsonl(1).contains("wal_append"));
        s.commit().unwrap();
        let fsync = obs.tracer.histogram("wal_fsync").unwrap();
        assert_eq!(fsync.count(), 1, "the commit fsyncs the staged append");
        s.compact().unwrap();
        assert_eq!(obs.gauges.get("sav_wal_bytes"), Some(0.0));
        assert!(obs.journal.tail_jsonl(1).contains("wal_compact"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The replication primitives end to end: the tap reports each commit
    /// with its global seq; compaction advances `base_seq` instead of
    /// rewinding; a follower that lagged past the compaction gets
    /// `Compacted` from the tail reader and resyncs via snapshot + tail to
    /// the exact leader state.
    #[test]
    fn tap_seq_and_compaction_support_follower_resync() {
        use crate::wal::{read_from, TailError};
        use std::sync::{Arc, Mutex};

        let dir = tmp_dir("resync");
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        s.set_tap(Box::new(move |seq, _op| sink.lock().unwrap().push(seq)));

        for i in 1..=4 {
            s.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        s.commit().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!((s.base_seq(), s.seq()), (0, 4));

        // A follower that stopped after seq 2 can tail the rest live.
        let tail: Vec<u64> = read_from(&s.wal_file(), s.base_seq(), 2)
            .unwrap()
            .map(|(q, _)| q)
            .collect();
        assert_eq!(tail, vec![2, 3]);

        // Compaction folds 0..4 into the snapshot; seq keeps counting.
        s.compact().unwrap();
        assert_eq!((s.base_seq(), s.seq()), (4, 4));
        s.append(&WalOp::Remove(rec(2).ip)).unwrap();
        s.commit().unwrap();
        assert_eq!(seen.lock().unwrap().last(), Some(&4));

        // The lagging follower (still at seq 2) now gets a resync signal…
        match read_from(&s.wal_file(), s.base_seq(), 2) {
            Err(TailError::Compacted { base_seq: 4 }) => {}
            other => panic!("expected Compacted, got {other:?}"),
        }
        // …and rebuilds leader state from snapshot image + post-base tail.
        let mut image = s.bindings().clone();
        for i in 1..=4 {
            image.insert(rec(i).ip, rec(i)); // stale pre-compaction view
        }
        for (_, op) in read_from(&s.wal_file(), s.base_seq(), s.base_seq()).unwrap() {
            apply(&mut image, &op);
        }
        assert_eq!(&image, s.bindings());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit: N appends cost one fsync at the commit, the tap sees
    /// each record exactly once and only after that fsync, and all N
    /// records survive a reopen.
    #[test]
    fn n_appends_one_commit_one_fsync() {
        use std::sync::{Arc, Mutex};

        let dir = tmp_dir("group");
        let obs = sav_obs::Obs::with_tracing();
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        s.set_obs(obs.clone());
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        s.set_tap(Box::new(move |seq, _op| sink.lock().unwrap().push(seq)));
        let fsyncs =
            |obs: &sav_obs::Obs| obs.tracer.histogram("wal_fsync").map_or(0, |h| h.count());

        for i in 1..=6 {
            s.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        assert_eq!(fsyncs(&obs), 0, "appends stage, they do not fsync");
        assert!(seen.lock().unwrap().is_empty(), "tap fired before commit");

        let handle = s.commit_handle();
        assert_eq!(handle.commit().unwrap(), 6);
        assert_eq!(fsyncs(&obs), 1);
        assert_eq!(obs.counters.get("sav_wal_commits_total"), 1);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);

        // Nothing staged: a second commit (from any clone) is free.
        assert_eq!(handle.clone().commit().unwrap(), 0);
        assert_eq!(fsyncs(&obs), 1);
        assert_eq!(obs.counters.get("sav_wal_commits_total"), 1);
        assert_eq!(seen.lock().unwrap().len(), 6, "each record tapped once");
        drop(s);

        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.recovery_report().wal_ops_replayed, 6);
        assert_eq!(s.bindings().len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Compaction commits first, so staged records reach the tap before
    /// they fold into the snapshot.
    #[test]
    fn compaction_commits_staged_records() {
        use std::sync::{Arc, Mutex};

        let dir = tmp_dir("compact-commit");
        let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        s.set_tap(Box::new(move |seq, _op| sink.lock().unwrap().push(seq)));
        s.append(&WalOp::Upsert(rec(1))).unwrap();
        s.append(&WalOp::Upsert(rec(2))).unwrap();
        s.compact().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![0, 1]);
        assert_eq!(s.commit().unwrap(), 0, "compaction left nothing staged");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `OnCompact` keeps its old shape: the tap fires at append and a
    /// commit never fsyncs.
    #[test]
    fn on_compact_policy_taps_at_append_and_never_commits() {
        use std::sync::{Arc, Mutex};

        let dir = tmp_dir("on-compact");
        let config = StoreConfig {
            fsync: FsyncPolicy::OnCompact,
            ..StoreConfig::default()
        };
        let obs = sav_obs::Obs::with_tracing();
        let mut s = BindingStore::open(&dir, config).unwrap();
        s.set_obs(obs.clone());
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        s.set_tap(Box::new(move |seq, _op| sink.lock().unwrap().push(seq)));
        s.append(&WalOp::Upsert(rec(1))).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![0]);
        assert_eq!(s.commit().unwrap(), 0);
        assert!(obs.tracer.histogram("wal_fsync").is_none());
        assert_eq!(obs.counters.get("sav_wal_commits_total"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wipe_removes_all_state() {
        let dir = tmp_dir("wipe");
        {
            let mut s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
            s.append(&WalOp::Upsert(rec(1))).unwrap();
            s.compact().unwrap();
            s.append(&WalOp::Upsert(rec(2))).unwrap();
        }
        BindingStore::wipe(&dir).unwrap();
        let s = BindingStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(s.bindings().is_empty());
        assert_eq!(s.recovery_report().wal_ops_replayed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
