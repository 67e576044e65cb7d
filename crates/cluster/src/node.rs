//! The cluster node runtime: peer links, WAL streaming, and promotion.
//!
//! A [`ClusterNode`] runs a small thread family around one shared core:
//!
//! * a **listener** accepting peer links on this node's cluster endpoint,
//! * one **dialer** per lower-id peer (higher ids dial lower ids, so each
//!   pair gets exactly one link; redials use the southbound channel's
//!   capped-jittered backoff),
//! * a **ticker** driving the [`Election`] lease clock, heartbeats, and
//!   the cluster gauges.
//!
//! While following, the node owns a *durable* replica: every streamed
//! [`PeerMsg::WalRecord`] is appended to its own [`BindingStore`], so a
//! standby that crashes and restarts recovers its copy from disk exactly
//! like a standalone controller would. On promotion the embedder calls
//! [`ClusterHandle::take_store`] and hands the replica to the SAV app —
//! replay is the recovery path that already exists; failover adds nothing
//! new to trust.
//!
//! The leader keeps a bounded in-memory window of recent records for tail
//! catch-up. A follower whose `Hello{have_seq}` predates the window gets a
//! full image transfer (`SnapshotBegin` / `SnapshotEntry*` / `SnapshotEnd`)
//! — the same snapshot-plus-tail fallback the on-disk WAL uses after
//! compaction ([`sav_store::TailError::Compacted`]).
//!
//! Catch-up is **vetted**: every record is stamped with the generation of
//! the leader that committed it, and a tail stream only extends a follower
//! whose `(applied_gen, have_seq)` the leader can prove is a prefix of its
//! own history (same generation, or the leader's own pre-claim position
//! covers it). Anything else — including a follower *ahead* of a newly
//! elected leader, whose suffix is orphaned — gets a truncating image
//! transfer. A follower only applies records after a `TailBegin` or
//! snapshot on the same link authorized the stream; a sequence mismatch
//! drops the link so the reconnect renegotiates, never skips.
//!
//! Catch-up triggers from three sides so no replica is left behind on a
//! quiet network: link setup (`Hello`), promotion (a new leader
//! immediately serves every registered standby), and a follower-side pull
//! (`CatchupRequest`) when heartbeats show lag but nothing is streaming.

use crate::election::{Election, Role, Transition};
use crate::proto::{PeerDeframer, PeerMsg, PROTO_VERSION};
use crossbeam::channel::{unbounded, Receiver, Sender};
use sav_channel::BackoffPolicy;
use sav_obs::{EventKind, Obs, Severity};
use sav_sim::{SimDuration, SimTime};
use sav_store::{apply, BindingRecord, BindingStore, StoreConfig, WalOp, WalTap};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for one replication-group member.
#[derive(Clone)]
pub struct ClusterConfig {
    /// This node's id. **Lower ids win elections**; give the preferred
    /// primary the lowest id.
    pub node_id: u64,
    /// The cluster endpoint this node listens on for peers.
    pub listen: SocketAddr,
    /// Every other group member: `(node_id, cluster endpoint)`.
    pub peers: Vec<(u64, SocketAddr)>,
    /// Directory for this node's durable binding replica.
    pub replica_dir: PathBuf,
    /// Durability tuning for the replica store.
    pub store: StoreConfig,
    /// Liveness lease: a peer silent this long is presumed dead, and a
    /// standby waits this long at startup before self-electing.
    pub lease: Duration,
    /// Heartbeat / election-tick cadence. Keep well under `lease`.
    pub heartbeat_interval: Duration,
    /// Leader-side in-memory catch-up window (records). Followers lagging
    /// further fall back to a full image transfer.
    pub retained_ops: usize,
    /// Redial schedule for peer links.
    pub backoff: BackoffPolicy,
    /// Observability sink (role gauges, lag gauge, failover events).
    pub obs: Obs,
}

impl ClusterConfig {
    /// A config with production-ish timing defaults.
    pub fn new(
        node_id: u64,
        listen: SocketAddr,
        peers: Vec<(u64, SocketAddr)>,
        replica_dir: impl Into<PathBuf>,
    ) -> ClusterConfig {
        ClusterConfig {
            node_id,
            listen,
            peers,
            replica_dir: replica_dir.into(),
            store: StoreConfig::default(),
            lease: Duration::from_millis(500),
            heartbeat_interval: Duration::from_millis(100),
            retained_ops: 4096,
            backoff: BackoffPolicy::default(),
            obs: Obs::new(),
        }
    }
}

/// Notifications the embedder must react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// This node now leads: take the replica store, hydrate the SAV app,
    /// bind the southbound listener, and assert `MASTER(generation)`.
    BecameLeader {
        /// Generation to fence the switches with.
        generation: u64,
    },
    /// A newer generation fenced us: stop serving southbound.
    Deposed {
        /// The generation that displaced ours.
        by_generation: u64,
    },
}

/// One live peer link as the core sees it.
struct LinkHandle {
    /// Epoch of the serving `link_loop` (guards stale deregistration).
    epoch: u64,
    /// Encoded-frame outbox drained by the link thread.
    tx: Sender<Vec<u8>>,
    /// Set by the core to tell the link thread to die (outbox overflow).
    evicted: Arc<AtomicBool>,
}

/// Follower-side in-flight image transfer.
struct PendingImage {
    /// Epoch of the link delivering the transfer; entries from any other
    /// link are strays.
    epoch: u64,
    /// Sequence the stream continues from after `SnapshotEnd`.
    next_seq: u64,
    /// Generation of the serving leader; stamps the rebuilt replica.
    gen: u64,
    /// The image accumulated so far.
    image: BTreeMap<Ipv4Addr, BindingRecord>,
}

/// Shared state behind every thread of one node.
struct Core {
    node_id: u64,
    started: Instant,
    election: Election,
    obs: Obs,
    events: Sender<ClusterEvent>,
    /// The durable replica; `None` after the embedder took it on
    /// promotion (the live image below remains authoritative for serving
    /// followers).
    store: Option<BindingStore>,
    /// Durability tuning, kept for replica rebuilds after an image transfer.
    store_config: StoreConfig,
    /// Always-current binding image (replica plus streamed/committed ops).
    image: BTreeMap<Ipv4Addr, BindingRecord>,
    /// Next global sequence: everything below is applied/committed here.
    seq: u64,
    /// Generation that committed our last applied/committed record
    /// (0 = state recovered from disk without a stamp, or empty).
    applied_gen: u64,
    /// Stream authorization: `(link epoch, leader generation)` set by a
    /// vetted `TailBegin`/snapshot; records are only applied from this
    /// link at up to this generation.
    auth: Option<(u64, u64)>,
    /// Our `applied_gen` at the moment of our latest leadership claim —
    /// the generation whose prefix we can vouch for below `claim_seq`.
    prev_gen: u64,
    /// Our `seq` at the moment of our latest leadership claim.
    claim_seq: u64,
    /// Liveness lease (also throttles follower-side catch-up pulls).
    lease: SimDuration,
    /// Last instant replication moved our seq forward.
    last_progress: SimTime,
    /// Last instant we sent a `CatchupRequest`.
    last_catchup_req: SimTime,
    /// Tail window: the last `retained_cap` records seen, committed or
    /// applied, as `(seq, committing generation, op)`.
    retained: VecDeque<(u64, u64, WalOp)>,
    retained_cap: usize,
    /// Live peer outboxes, by peer id.
    links: HashMap<u64, LinkHandle>,
    /// Peer progress from Hello/heartbeats: id → (seq, applied_gen).
    /// Feeds the lag gauge and the promotion-time catch-up push.
    peer_state: HashMap<u64, (u64, u64)>,
    /// Follower-side in-flight image transfer.
    pending_image: Option<PendingImage>,
    /// Set when a takeover claim happens; consumed by
    /// [`ClusterHandle::report_failover_complete`].
    takeover_started: Option<Instant>,
}

impl Core {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    fn role_gauge(&self) {
        let v = match self.election.role() {
            Role::Leader => 2.0,
            Role::Follower => 3.0,
        };
        self.obs
            .gauges
            .set(format!("sav_cluster_role{{node=\"{}\"}}", self.node_id), v);
    }

    /// Largest outbox backlog a link may hold. Sized so one full image
    /// transfer plus a tail window never trips it, but a genuinely
    /// stalled peer does.
    fn outbox_limit(&self) -> usize {
        2 * self.image.len() + 2 * self.retained_cap + 1024
    }

    /// Send one encoded frame to every live link, evicting any link whose
    /// outbox has grown past [`Core::outbox_limit`] — a stalled peer must
    /// not grow the leader's memory without bound; it reconnects and
    /// renegotiates catch-up instead.
    fn fanout(&mut self, bytes: Vec<u8>) {
        let limit = self.outbox_limit();
        let mut evict = Vec::new();
        for (&id, link) in &self.links {
            if link.tx.len() > limit {
                link.evicted.store(true, Ordering::Relaxed);
                evict.push(id);
            } else {
                let _ = link.tx.send(bytes.clone());
            }
        }
        for id in evict {
            self.links.remove(&id);
            self.obs.event(
                Severity::Warn,
                EventKind::ClusterLinkDropped {
                    peer: id,
                    reason: "outbox_overflow",
                },
            );
        }
    }

    /// Remember one record in the tail window. Called for *both* leader
    /// commits and follower applies, so the window stays contiguous with
    /// `seq` across role changes.
    fn retain(&mut self, seq: u64, gen: u64, op: WalOp) {
        self.retained.push_back((seq, gen, op));
        while self.retained.len() > self.retained_cap {
            self.retained.pop_front();
        }
    }

    /// Commit one op at the head of the stream (leader path: called from
    /// the store tap after the record is durable) and fan it out.
    fn commit(&mut self, op: WalOp) {
        let seq = self.seq;
        let gen = self.election.generation().unwrap_or(self.applied_gen);
        self.seq += 1;
        self.applied_gen = gen;
        apply(&mut self.image, &op);
        self.retain(seq, gen, op);
        self.fanout(PeerMsg::WalRecord { seq, gen, op }.encode());
    }

    /// Serve catch-up to a follower whose replica is complete below
    /// `have_seq` with its last record committed by `peer_gen`.
    ///
    /// A tail stream is only offered when the follower's position is
    /// provably a prefix of our history: its last record carries our own
    /// generation, or it sits at or below our pre-claim position under
    /// the generation we ourselves applied (a leader's stream is linear
    /// within one generation, so prefixes of it are comparable by
    /// length). An unstamped prefix (`peer_gen == 0`) is only trusted
    /// when empty. Everything else — lagged past the window, ahead of
    /// us, or on a diverged fork — gets a truncating image transfer.
    fn serve_catchup(&mut self, have_seq: u64, peer_gen: u64, out: &Sender<Vec<u8>>) {
        let Some(my_gen) = self.election.generation() else {
            return;
        };
        if peer_gen > my_gen {
            // The peer applied records from a leader newer than us; we
            // have no authority over its suffix. The election will fence
            // one of us shortly.
            return;
        }
        let window_base = self.seq - self.retained.len() as u64;
        let vetted = have_seq == 0
            || (peer_gen == my_gen && have_seq <= self.seq)
            || (peer_gen == self.prev_gen && peer_gen > 0 && have_seq <= self.claim_seq);
        if vetted && have_seq >= window_base {
            let _ = out.send(
                PeerMsg::TailBegin {
                    gen: my_gen,
                    from_seq: have_seq,
                }
                .encode(),
            );
            for (seq, gen, op) in self.retained.iter().filter(|(s, _, _)| *s >= have_seq) {
                let _ = out.send(
                    PeerMsg::WalRecord {
                        seq: *seq,
                        gen: *gen,
                        op: *op,
                    }
                    .encode(),
                );
            }
        } else {
            // Same shape as a WAL reader lagging past a compaction:
            // snapshot, then tail. Also the divergence healer — the
            // follower replaces its replica wholesale, truncating any
            // suffix a dead leader left orphaned.
            let _ = out.send(
                PeerMsg::SnapshotBegin {
                    next_seq: self.seq,
                    gen: my_gen,
                }
                .encode(),
            );
            for rec in self.image.values() {
                let _ = out.send(
                    PeerMsg::SnapshotEntry {
                        op: WalOp::Upsert(*rec),
                    }
                    .encode(),
                );
            }
            let _ = out.send(PeerMsg::SnapshotEnd.encode());
        }
    }

    /// Apply one streamed record (follower path): durable replica first,
    /// then the live image. Returns `false` if the stream is not
    /// authorized for this link or does not land exactly at our head —
    /// the link must be dropped so the reconnect renegotiates catch-up.
    /// Nothing is ever silently skipped: a follower ahead of the stream
    /// fails the `seq` check and is healed by a truncating snapshot on
    /// the next negotiation.
    fn apply_record(&mut self, epoch: u64, seq: u64, gen: u64, op: &WalOp) -> bool {
        let authorized = self
            .auth
            .is_some_and(|(e, g)| e == epoch && gen <= g && gen >= self.applied_gen);
        if !authorized || seq != self.seq {
            return false;
        }
        if let Some(store) = &mut self.store {
            // Durable before it is counted as applied, like any commit.
            if let Err(e) = store.append(op).and_then(|()| store.commit().map(drop)) {
                self.obs.event(
                    Severity::Error,
                    EventKind::WalError {
                        op: format!("replica append: {e}"),
                    },
                );
            }
        }
        apply(&mut self.image, op);
        self.retain(seq, gen, *op);
        self.seq = seq + 1;
        self.applied_gen = gen;
        self.last_progress = self.now();
        true
    }

    /// Follower image transfer: rebuild the replica from scratch.
    fn finish_snapshot(&mut self) {
        let Some(PendingImage {
            epoch,
            next_seq,
            gen,
            image,
        }) = self.pending_image.take()
        else {
            return;
        };
        let store_config = self.store_config;
        if let Some(store) = &mut self.store {
            let dir = store.wal_file().parent().map(PathBuf::from);
            if let Some(dir) = dir {
                let rebuilt =
                    BindingStore::wipe(&dir).and_then(|()| BindingStore::open(&dir, store_config));
                match rebuilt {
                    Ok(mut fresh) => {
                        for rec in image.values() {
                            let _ = fresh.append(&WalOp::Upsert(*rec));
                        }
                        // Re-anchor the rebuilt store in the leader's
                        // sequence space and persist the base via the
                        // snapshot header.
                        fresh.align_next_seq(next_seq);
                        if let Err(e) = fresh.compact() {
                            self.obs.event(
                                Severity::Error,
                                EventKind::WalError {
                                    op: format!("replica compact: {e}"),
                                },
                            );
                        }
                        *store = fresh;
                    }
                    Err(e) => self.obs.event(
                        Severity::Error,
                        EventKind::WalError {
                            op: format!("replica rebuild: {e}"),
                        },
                    ),
                }
            }
        }
        self.image = image;
        self.seq = next_seq;
        self.applied_gen = gen;
        // The image transfer authorizes the live stream that follows it.
        self.auth = Some((epoch, gen));
        self.retained.clear();
        self.last_progress = self.now();
    }

    /// Handle one peer message arriving on the link with `epoch`, able to
    /// reply on `out`. Returns `false` if the link must be dropped
    /// (unauthorized or misaligned stream — reconnecting renegotiates).
    fn handle_peer_msg(&mut self, msg: PeerMsg, epoch: u64, out: &Sender<Vec<u8>>) -> bool {
        let now = self.now();
        match msg {
            PeerMsg::Hello { .. } => {} // handled at link setup
            PeerMsg::Heartbeat {
                node_id,
                generation,
                seq,
                applied_gen,
                leading,
            } => {
                self.election.observe(node_id, generation, leading, now);
                self.peer_state.insert(node_id, (seq, applied_gen));
                // Follower pull: the leader's head differs from ours and
                // nothing has streamed for a lease — ask for catch-up
                // (throttled to one request per lease).
                if leading
                    && self.election.role() == Role::Follower
                    && self.pending_image.is_none()
                    && self.election.leader_hint(now) == node_id
                    && seq != self.seq
                    && now.saturating_since(self.last_progress) > self.lease
                    && now.saturating_since(self.last_catchup_req) > self.lease
                {
                    self.last_catchup_req = now;
                    let _ = out.send(
                        PeerMsg::CatchupRequest {
                            have_seq: self.seq,
                            applied_gen: self.applied_gen,
                        }
                        .encode(),
                    );
                }
            }
            PeerMsg::CatchupRequest {
                have_seq,
                applied_gen,
            } => {
                if self.election.role() == Role::Leader {
                    self.serve_catchup(have_seq, applied_gen, out);
                }
            }
            PeerMsg::TailBegin { gen, from_seq } => {
                if self.election.role() != Role::Follower || self.pending_image.is_some() {
                    return true; // stale go-ahead (we promoted meanwhile)
                }
                if from_seq != self.seq || gen < self.applied_gen {
                    // The leader vetted a position we no longer hold;
                    // reconnect and renegotiate from the current one.
                    return false;
                }
                self.auth = Some((epoch, gen));
            }
            PeerMsg::WalRecord { seq, gen, op } => {
                if self.election.role() == Role::Follower && self.pending_image.is_none() {
                    return self.apply_record(epoch, seq, gen, &op);
                }
            }
            PeerMsg::SnapshotBegin { next_seq, gen } => {
                if self.election.role() == Role::Follower && gen >= self.applied_gen {
                    self.pending_image = Some(PendingImage {
                        epoch,
                        next_seq,
                        gen,
                        image: BTreeMap::new(),
                    });
                }
            }
            PeerMsg::SnapshotEntry { op } => {
                if let Some(p) = &mut self.pending_image {
                    if p.epoch == epoch {
                        apply(&mut p.image, &op);
                    }
                }
            }
            PeerMsg::SnapshotEnd => {
                if self
                    .pending_image
                    .as_ref()
                    .is_some_and(|p| p.epoch == epoch)
                {
                    self.finish_snapshot();
                }
            }
        }
        true
    }

    /// One election/heartbeat tick. Returns the encoded heartbeat to
    /// broadcast.
    fn tick(&mut self) -> Vec<u8> {
        let now = self.now();
        match self.election.tick(now) {
            Transition::BecameLeader { generation } => {
                // Anchor the vetting boundary: below `claim_seq` our
                // history is the `prev_gen` leader's; above it, ours.
                self.prev_gen = self.applied_gen;
                self.claim_seq = self.seq;
                self.pending_image = None;
                self.auth = None;
                self.obs.event(
                    Severity::Info,
                    EventKind::LeaderElected {
                        node: self.node_id,
                        generation,
                    },
                );
                if generation > 1 {
                    // Not the group's first election: this is a takeover.
                    self.takeover_started = Some(Instant::now());
                }
                let _ = self.events.send(ClusterEvent::BecameLeader { generation });
                // Back-fill every registered standby now: on a quiet
                // network (no fresh commits) a replica that linked up
                // before we won would otherwise never catch up. A stale
                // peer position is harmless — a misaligned TailBegin
                // makes the follower reconnect and renegotiate.
                let targets: Vec<(u64, Sender<Vec<u8>>)> = self
                    .links
                    .iter()
                    .map(|(&id, l)| (id, l.tx.clone()))
                    .collect();
                for (id, tx) in targets {
                    let (have_seq, peer_gen) = self.peer_state.get(&id).copied().unwrap_or((0, 0));
                    self.serve_catchup(have_seq, peer_gen, &tx);
                }
            }
            Transition::Deposed { by_generation } => {
                let _ = self.events.send(ClusterEvent::Deposed { by_generation });
            }
            Transition::None => {}
        }
        self.role_gauge();
        if self.election.role() == Role::Leader {
            let lag = self
                .peer_state
                .iter()
                .filter(|(id, _)| self.links.contains_key(id))
                .map(|(_, &(s, _))| self.seq.saturating_sub(s))
                .max()
                .unwrap_or(0);
            self.obs
                .gauges
                .set("sav_cluster_replication_lag_records", lag as f64);
        }
        let generation = self
            .election
            .generation()
            .unwrap_or_else(|| self.election.max_generation_seen());
        PeerMsg::Heartbeat {
            node_id: self.node_id,
            generation,
            seq: self.seq,
            applied_gen: self.applied_gen,
            leading: self.election.role() == Role::Leader,
        }
        .encode()
    }
}

/// A running cluster node.
pub struct ClusterHandle {
    core: Arc<Mutex<Core>>,
    stop: Arc<AtomicBool>,
    events: Receiver<ClusterEvent>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ClusterHandle {
    /// Promotion/deposition notifications, in order.
    pub fn events(&self) -> &Receiver<ClusterEvent> {
        &self.events
    }

    /// This node's current role.
    pub fn role(&self) -> Role {
        self.core.lock().unwrap().election.role()
    }

    /// Our leadership generation (None unless leading).
    pub fn generation(&self) -> Option<u64> {
        self.core.lock().unwrap().election.generation()
    }

    /// Head of the applied/committed stream.
    pub fn seq(&self) -> u64 {
        self.core.lock().unwrap().seq
    }

    /// Current replica image (clone).
    pub fn bindings(&self) -> BTreeMap<Ipv4Addr, BindingRecord> {
        self.core.lock().unwrap().image.clone()
    }

    /// Take the durable replica on promotion; the SAV app should be
    /// hydrated from it and must then feed commits back via
    /// [`ClusterHandle::wal_tap`]. Returns `None` if already taken.
    pub fn take_store(&self) -> Option<BindingStore> {
        self.core.lock().unwrap().store.take()
    }

    /// A [`WalTap`] that replicates every durable append to the standbys.
    /// Install it on the promoted store:
    /// `store.set_tap(handle.wal_tap())`.
    pub fn wal_tap(&self) -> WalTap {
        let core = self.core.clone();
        Box::new(move |_local_seq, op| {
            core.lock().unwrap().commit(*op);
        })
    }

    /// The embedder finished its takeover (store taken, app hydrated,
    /// southbound serving as master): emit `failover_completed` with the
    /// claim-to-now latency and bump `sav_failover_total`. No-op for the
    /// group's first election.
    pub fn report_failover_complete(&self) {
        let mut core = self.core.lock().unwrap();
        let Some(t0) = core.takeover_started.take() else {
            return;
        };
        let generation = core.election.generation().unwrap_or(0);
        let node = core.node_id;
        core.obs.counters.incr("sav_failover_total");
        core.obs.event(
            Severity::Info,
            EventKind::FailoverCompleted {
                node,
                generation,
                takeover_ms: t0.elapsed().as_millis() as u64,
            },
        );
    }

    /// Stop every thread and join them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The cluster subsystem entry point: open (or recover) the replica and
/// start the thread family.
pub struct ClusterNode;

impl ClusterNode {
    /// Spawn a node. Fails only if the replica store or the listener
    /// cannot be set up.
    pub fn spawn(config: ClusterConfig) -> std::io::Result<ClusterHandle> {
        let store = BindingStore::open(&config.replica_dir, config.store)?;
        let listener = TcpListener::bind(config.listen)?;
        listener.set_nonblocking(true)?;
        let started = Instant::now();
        let lease = SimDuration::from_nanos(config.lease.as_nanos() as u64);
        let (events_tx, events_rx) = unbounded();
        config.obs.counters.add("sav_failover_total", 0);
        let core = Arc::new(Mutex::new(Core {
            node_id: config.node_id,
            started,
            election: Election::new(config.node_id, lease, SimTime::ZERO),
            obs: config.obs.clone(),
            events: events_tx,
            seq: store.seq(),
            image: store.bindings().clone(),
            store: Some(store),
            store_config: config.store,
            applied_gen: 0,
            auth: None,
            prev_gen: 0,
            claim_seq: 0,
            lease,
            last_progress: SimTime::ZERO,
            last_catchup_req: SimTime::ZERO,
            retained: VecDeque::new(),
            retained_cap: config.retained_ops.max(1),
            links: HashMap::new(),
            peer_state: HashMap::new(),
            pending_image: None,
            takeover_started: None,
        }));
        core.lock().unwrap().role_gauge();

        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();

        // Listener: accept links from higher-id peers.
        {
            let core = core.clone();
            let stop = stop.clone();
            let epoch = epoch.clone();
            threads.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let core = core.clone();
                            let stop = stop.clone();
                            let epoch = epoch.clone();
                            thread::spawn(move || link_loop(stream, core, stop, epoch));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            }));
        }

        // Dialers: one per lower-id peer (higher ids dial lower ids).
        for (peer_id, addr) in config
            .peers
            .iter()
            .filter(|(id, _)| *id < config.node_id)
            .cloned()
        {
            let core = core.clone();
            let stop = stop.clone();
            let epoch = epoch.clone();
            let policy = BackoffPolicy {
                seed: config.backoff.seed ^ peer_id,
                ..config.backoff.clone()
            };
            threads.push(thread::spawn(move || {
                let mut backoff = policy.start();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(stream) = TcpStream::connect(addr) {
                        backoff.reset();
                        link_loop(stream, core.clone(), stop.clone(), epoch.clone());
                    }
                    let wait = backoff.next_delay();
                    let deadline = Instant::now() + wait;
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        thread::sleep(Duration::from_millis(5));
                    }
                }
            }));
        }

        // Ticker: election clock, heartbeats, gauges.
        {
            let core = core.clone();
            let stop = stop.clone();
            let interval = config.heartbeat_interval;
            threads.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    {
                        let mut c = core.lock().unwrap();
                        let hb = c.tick();
                        // Through fanout, so heartbeats count against the
                        // outbox bound too.
                        c.fanout(hb);
                    }
                    thread::sleep(interval);
                }
            }));
        }

        Ok(ClusterHandle {
            core,
            stop,
            events: events_rx,
            threads,
        })
    }
}

/// Serve one established peer link until it dies or the node stops.
fn link_loop(
    mut stream: TcpStream,
    core: Arc<Mutex<Core>>,
    stop: Arc<AtomicBool>,
    epoch: Arc<AtomicU64>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    let my_epoch = epoch.fetch_add(1, Ordering::Relaxed) + 1;
    let (out_tx, out_rx) = unbounded::<Vec<u8>>();
    let evicted = Arc::new(AtomicBool::new(false));

    // Opener: who we are and where our replica ends.
    {
        let c = core.lock().unwrap();
        let hello = PeerMsg::Hello {
            version: PROTO_VERSION,
            node_id: c.node_id,
            have_seq: c.seq,
            applied_gen: c.applied_gen,
        };
        drop(c);
        if stream.write_all(&hello.encode()).is_err() {
            return;
        }
    }

    let mut deframer = PeerDeframer::new();
    let mut buf = [0u8; 8192];
    let mut peer_id: Option<u64> = None;
    loop {
        if stop.load(Ordering::Relaxed) || evicted.load(Ordering::Relaxed) {
            break;
        }
        // Outbound first: heartbeats, records, catch-up.
        let mut dead = false;
        while let Ok(frame) = out_rx.try_recv() {
            if stream.write_all(&frame).is_err() {
                dead = true;
                break;
            }
        }
        if dead {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                deframer.push(&buf[..n]);
                loop {
                    match deframer.next_message() {
                        Ok(Some(PeerMsg::Hello {
                            version,
                            node_id,
                            have_seq,
                            applied_gen,
                        })) => {
                            if version != PROTO_VERSION {
                                let _ = stream.shutdown(Shutdown::Both);
                                deregister(&core, peer_id, my_epoch, None);
                                return;
                            }
                            peer_id = Some(node_id);
                            let mut c = core.lock().unwrap();
                            c.links.insert(
                                node_id,
                                LinkHandle {
                                    epoch: my_epoch,
                                    tx: out_tx.clone(),
                                    evicted: evicted.clone(),
                                },
                            );
                            c.peer_state.insert(node_id, (have_seq, applied_gen));
                            if c.election.role() == Role::Leader {
                                c.serve_catchup(have_seq, applied_gen, &out_tx);
                            }
                        }
                        Ok(Some(msg)) => {
                            if !core.lock().unwrap().handle_peer_msg(msg, my_epoch, &out_tx) {
                                let _ = stream.shutdown(Shutdown::Both);
                                deregister(&core, peer_id, my_epoch, Some("stream_mismatch"));
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            let _ = stream.shutdown(Shutdown::Both);
                            deregister(&core, peer_id, my_epoch, Some("protocol_error"));
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    deregister(&core, peer_id, my_epoch, None);
}

/// Remove this link's outbox unless a newer link already replaced it, and
/// abandon any image transfer this link was delivering (a half-received
/// image must not wedge the follower — the next negotiation restarts it).
/// A `reason` means the link was severed by policy, worth a journal line.
fn deregister(
    core: &Arc<Mutex<Core>>,
    peer_id: Option<u64>,
    my_epoch: u64,
    reason: Option<&'static str>,
) {
    let mut c = core.lock().unwrap();
    if let Some(id) = peer_id {
        if c.links.get(&id).is_some_and(|l| l.epoch == my_epoch) {
            c.links.remove(&id);
        }
        if let Some(reason) = reason {
            c.obs.event(
                Severity::Warn,
                EventKind::ClusterLinkDropped { peer: id, reason },
            );
        }
    }
    if c.pending_image
        .as_ref()
        .is_some_and(|p| p.epoch == my_epoch)
    {
        c.pending_image = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_store::{FsyncPolicy, RecordSource};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sav-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn free_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    fn fast(
        node_id: u64,
        listen: SocketAddr,
        peers: Vec<(u64, SocketAddr)>,
        dir: PathBuf,
    ) -> ClusterConfig {
        let mut c = ClusterConfig::new(node_id, listen, peers, dir);
        c.store.fsync = FsyncPolicy::Never;
        c.lease = Duration::from_millis(250);
        c.heartbeat_interval = Duration::from_millis(25);
        c.backoff.base = Duration::from_millis(20);
        c.backoff.cap = Duration::from_millis(100);
        c
    }

    fn rec(i: u8) -> BindingRecord {
        BindingRecord {
            ip: Ipv4Addr::new(10, 0, 0, i),
            mac: sav_net::addr::MacAddr::from_index(i as u64),
            dpid: 1,
            port: u32::from(i),
            source: RecordSource::Dhcp,
            expires: None,
        }
    }

    fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if f() {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    /// Simulate the embedder's promotion step: take the replica, install
    /// the replication tap, return the store ready for the SAV app.
    fn promote(h: &ClusterHandle) -> BindingStore {
        let mut store = h.take_store().expect("store already taken");
        store.set_tap(h.wal_tap());
        store
    }

    #[test]
    fn lowest_id_leads_and_streams_records_to_the_standby() {
        let (a1, a2) = (free_addr(), free_addr());
        let h1 = ClusterNode::spawn(fast(1, a1, vec![(2, a2)], tmp("stream-1"))).unwrap();
        let h2 = ClusterNode::spawn(fast(2, a2, vec![(1, a1)], tmp("stream-2"))).unwrap();

        let ev = h1.events().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ev, ClusterEvent::BecameLeader { generation: 1 });
        assert_eq!(h2.role(), Role::Follower);

        let mut store = promote(&h1);
        for i in 1..=3 {
            store.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        store.commit().unwrap();
        wait_until("standby to replicate 3 records", || h2.seq() == 3);
        assert_eq!(h2.bindings().len(), 3);
        assert_eq!(h2.bindings(), h1.bindings());
        assert!(
            h2.events().try_recv().is_err(),
            "standby must not promote while the leader lives"
        );
        drop((h1, h2));
    }

    #[test]
    fn standby_promotes_with_the_full_replica_after_leader_death() {
        let (a1, a2) = (free_addr(), free_addr());
        let obs2 = Obs::new();
        let h1 = ClusterNode::spawn(fast(1, a1, vec![(2, a2)], tmp("fo-1"))).unwrap();
        let mut cfg2 = fast(2, a2, vec![(1, a1)], tmp("fo-2"));
        cfg2.obs = obs2.clone();
        let h2 = ClusterNode::spawn(cfg2).unwrap();

        h1.events().recv_timeout(Duration::from_secs(10)).unwrap();
        let mut store = promote(&h1);
        store.append(&WalOp::Upsert(rec(1))).unwrap();
        store.append(&WalOp::Upsert(rec(2))).unwrap();
        store.commit().unwrap();
        wait_until("replication", || h2.seq() == 2);

        // Kill the leader: the standby must claim a strictly newer
        // generation within ~one lease.
        h1.shutdown();
        let ev = h2.events().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ev, ClusterEvent::BecameLeader { generation: 2 });

        // Its replica already holds both bindings — zero re-learning.
        let replica = promote(&h2);
        assert_eq!(replica.bindings().len(), 2);
        assert_eq!(
            replica.bindings().get(&Ipv4Addr::new(10, 0, 0, 1)),
            Some(&rec(1))
        );

        h2.report_failover_complete();
        assert_eq!(obs2.counters.get("sav_failover_total"), 1);
        let journal = obs2.journal.tail_jsonl(10);
        assert!(journal.contains("leader_elected"), "journal: {journal}");
        assert!(journal.contains("failover_completed"), "journal: {journal}");
        drop(h2);
    }

    #[test]
    fn late_follower_catches_up_via_image_transfer() {
        let (a1, a2) = (free_addr(), free_addr());
        let mut cfg1 = fast(1, a1, vec![(2, a2)], tmp("snap-1"));
        cfg1.retained_ops = 2; // force the window to forget early records
        let h1 = ClusterNode::spawn(cfg1).unwrap();
        h1.events().recv_timeout(Duration::from_secs(10)).unwrap();

        let mut store = promote(&h1);
        for i in 1..=5 {
            store.append(&WalOp::Upsert(rec(i))).unwrap();
        }
        store.commit().unwrap();
        assert_eq!(h1.seq(), 5);

        // A brand-new standby joins at have_seq 0, far behind the 2-record
        // window: it must get SnapshotBegin/Entry*/End then live records.
        let dir2 = tmp("snap-2");
        let h2 = ClusterNode::spawn(fast(2, a2, vec![(1, a1)], dir2.clone())).unwrap();
        wait_until("image transfer", || h2.seq() == 5);
        assert_eq!(h2.bindings(), h1.bindings());

        // And the transfer is durable: the rebuilt replica recovers from
        // disk like any standalone store.
        store
            .append(&WalOp::Remove(Ipv4Addr::new(10, 0, 0, 3)))
            .unwrap();
        store.commit().unwrap();
        wait_until("live tail after image", || h2.seq() == 6);
        drop(h2);
        let reopened = BindingStore::open(&dir2, StoreConfig::default()).unwrap();
        assert_eq!(reopened.bindings().len(), 4);
        assert!(!reopened
            .bindings()
            .contains_key(&Ipv4Addr::new(10, 0, 0, 3)));
        drop(h1);
    }

    /// Review finding: a leader that wins with pre-existing WAL state must
    /// back-fill standbys even if no new commit ever happens — the Hellos
    /// were exchanged during the election grace, before it could serve.
    #[test]
    fn standby_backfills_preexisting_state_without_new_commits() {
        let dir1 = tmp("backfill-1");
        {
            let mut seed = BindingStore::open(&dir1, StoreConfig::default()).unwrap();
            for i in 1..=3 {
                seed.append(&WalOp::Upsert(rec(i))).unwrap();
            }
        }
        let (a1, a2) = (free_addr(), free_addr());
        let h1 = ClusterNode::spawn(fast(1, a1, vec![(2, a2)], dir1)).unwrap();
        let h2 = ClusterNode::spawn(fast(2, a2, vec![(1, a1)], tmp("backfill-2"))).unwrap();
        h1.events().recv_timeout(Duration::from_secs(10)).unwrap();
        // Deliberately no promote()/append: the network stays quiet.
        wait_until("standby back-fill of recovered state", || h2.seq() == 3);
        assert_eq!(h2.bindings(), h1.bindings());
        assert_eq!(h2.bindings().len(), 3);
        drop((h1, h2));
    }

    /// Review finding: a follower *ahead* of a newly elected leader (its
    /// suffix was orphaned by the old leader's death) must be truncated to
    /// the leader's history, not left silently diverged while the
    /// leader's fresh commits are discarded as "duplicates".
    #[test]
    fn diverged_standby_is_truncated_to_the_leaders_history() {
        let dir1 = tmp("diverge-1");
        let dir2 = tmp("diverge-2");
        {
            let mut s1 = BindingStore::open(&dir1, StoreConfig::default()).unwrap();
            s1.append(&WalOp::Upsert(rec(1))).unwrap();
            let mut s2 = BindingStore::open(&dir2, StoreConfig::default()).unwrap();
            for i in 11..=13 {
                s2.append(&WalOp::Upsert(rec(i))).unwrap();
            }
        }
        let (a1, a2) = (free_addr(), free_addr());
        let h1 = ClusterNode::spawn(fast(1, a1, vec![(2, a2)], dir1)).unwrap();
        let h2 = ClusterNode::spawn(fast(2, a2, vec![(1, a1)], dir2.clone())).unwrap();
        h1.events().recv_timeout(Duration::from_secs(10)).unwrap();

        // The ahead-standby converges DOWN to the leader's single record.
        wait_until("diverged standby truncation", || {
            h2.seq() == 1 && h2.bindings().len() == 1
        });
        assert_eq!(h2.bindings(), h1.bindings());
        assert!(!h2.bindings().contains_key(&rec(11).ip), "orphan kept");

        // And it tracks the leader's new commits from there.
        let mut store = promote(&h1);
        store.append(&WalOp::Upsert(rec(2))).unwrap();
        store.commit().unwrap();
        wait_until("post-truncation streaming", || h2.seq() == 2);
        assert_eq!(h2.bindings(), h1.bindings());

        // The truncation is durable: the replica on disk matches too.
        drop(h2);
        let reopened = BindingStore::open(&dir2, StoreConfig::default()).unwrap();
        assert_eq!(reopened.bindings().len(), 2);
        assert!(!reopened.bindings().contains_key(&rec(11).ip));
        assert_eq!(reopened.seq(), 2, "leader's sequence space adopted");
        drop(h1);
    }

    /// Review finding: a stalled peer must not grow the leader's fan-out
    /// queue without bound — past the outbox limit the link is evicted
    /// (and journalled), forcing a reconnect + catch-up instead.
    #[test]
    fn stalled_outbox_evicts_the_link() {
        let obs = Obs::new();
        let (events_tx, _events_rx) = unbounded();
        let mut core = Core {
            node_id: 1,
            started: Instant::now(),
            election: Election::new(1, SimDuration::from_millis(50), SimTime::ZERO),
            obs: obs.clone(),
            events: events_tx,
            store: None,
            store_config: StoreConfig::default(),
            image: BTreeMap::new(),
            seq: 0,
            applied_gen: 0,
            auth: None,
            prev_gen: 0,
            claim_seq: 0,
            lease: SimDuration::from_millis(50),
            last_progress: SimTime::ZERO,
            last_catchup_req: SimTime::ZERO,
            retained: VecDeque::new(),
            retained_cap: 4,
            links: HashMap::new(),
            peer_state: HashMap::new(),
            pending_image: None,
            takeover_started: None,
        };
        let (tx, rx) = unbounded();
        let evicted = Arc::new(AtomicBool::new(false));
        core.links.insert(
            2,
            LinkHandle {
                epoch: 1,
                tx,
                evicted: evicted.clone(),
            },
        );
        // Nobody drains the outbox: commits pile up until the bound trips.
        let budget = core.outbox_limit() + 10;
        for i in 0..=budget {
            core.commit(WalOp::Upsert(rec(1)));
            if core.links.is_empty() {
                break;
            }
            assert!(i < budget, "link never evicted");
        }
        assert!(evicted.load(Ordering::Relaxed), "link thread not signalled");
        assert!(
            obs.journal.tail_jsonl(3).contains("cluster_link_dropped"),
            "eviction must reach the journal"
        );
        drop(rx);
    }
}
