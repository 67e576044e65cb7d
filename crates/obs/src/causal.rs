//! Causal per-binding traces: from the DHCP packet-in that revealed a host
//! to the barrier ack that proves its SAV rule is enforced.
//!
//! A [`TraceId`] is minted when the controller decides a packet-in will
//! become a binding, threaded through the upsert path (rule compilation,
//! flow-mod send, and the WAL group commit the batch waits for — see
//! [`TraceCollector::settle_commit`]), and closed when the barrier reply
//! for the tagged `BarrierRequest` xid comes back. Each completed trace is a flat
//! span tree — one [`TraceStage`] per pipeline stage with start/end
//! nanoseconds relative to the collector's epoch — kept in a bounded ring
//! and served as JSONL at `/traces?n=`. The trace total feeds the headline
//! `sav_time_to_enforcement_seconds` histogram.
//!
//! Traces whose barrier ack never arrives (switch died, controller failed
//! over) are *abandoned*, not completed: they leave the open table and are
//! counted, so a restart never leaks half-open spans into the ring.
//!
//! Like [`Span`](crate::Span), everything is zero-cost while disabled:
//! [`begin`](TraceCollector::begin) returns `None` after one relaxed
//! atomic load and no producer takes the lock.

use crate::event::escape_json;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of one causal trace, unique per collector.
pub type TraceId = u64;

/// Completed traces kept for `/traces?n=`.
const DEFAULT_RING: usize = 256;

/// One stage of a trace (e.g. `wal_fsync`). Times are nanoseconds since
/// the collector's epoch; `end_ns` is `None` while the stage is open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStage {
    /// Stage name: `packet_in`, `wal_fsync`, `compile`, `send`,
    /// `barrier_ack`.
    pub stage: &'static str,
    /// Stage start, ns since epoch.
    pub start_ns: u64,
    /// Stage end, ns since epoch (`None` while open).
    pub end_ns: Option<u64>,
}

/// A finished trace: the per-stage latency breakdown of one binding's
/// path from packet-in to enforced rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// Trace id.
    pub id: TraceId,
    /// The bound address the trace is about.
    pub ip: String,
    /// Switch the binding was programmed on.
    pub dpid: u64,
    /// Trace start, ns since the collector's epoch.
    pub started_ns: u64,
    /// End-to-end seconds from packet-in to barrier ack.
    pub total_secs: f64,
    /// Stages in emission order; all closed by completion time.
    pub stages: Vec<TraceStage>,
}

impl CompletedTrace {
    /// One JSONL line, schema-stable for scrapers:
    /// `{"id":..,"ip":"..","dpid":..,"start_ns":..,"total_s":..,"stages":[..]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"id\":{},\"ip\":\"{}\",\"dpid\":{},\"start_ns\":{},\"total_s\":{}",
            self.id,
            escape_json(&self.ip),
            self.dpid,
            self.started_ns,
            self.total_secs
        );
        s.push_str(",\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                st.stage,
                st.start_ns,
                st.end_ns.unwrap_or(st.start_ns)
            );
        }
        s.push_str("]}");
        s
    }
}

struct OpenTrace {
    ip: String,
    dpid: u64,
    started_ns: u64,
    stages: Vec<TraceStage>,
}

#[derive(Default)]
struct Inner {
    next_id: TraceId,
    open: HashMap<TraceId, OpenTrace>,
    done: VecDeque<CompletedTrace>,
    completed: u64,
    abandoned: u64,
}

/// Shareable collector of causal traces; clones share state.
#[derive(Clone)]
pub struct TraceCollector {
    enabled: Arc<AtomicBool>,
    epoch: Instant,
    cap: usize,
    inner: Arc<Mutex<Inner>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector {
            enabled: Arc::new(AtomicBool::new(false)),
            epoch: Instant::now(),
            cap: DEFAULT_RING,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }
}

impl TraceCollector {
    /// A fresh, disabled collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Whether traces are being collected.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off (off is the zero-cost default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this collector's epoch — the clock every stage
    /// timestamp uses.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a trace for `ip` on `dpid`, started at `started_ns` (usually a
    /// [`now_ns`](Self::now_ns) captured at packet-in). `None` while
    /// disabled.
    pub fn begin(&self, ip: String, dpid: u64, started_ns: u64) -> Option<TraceId> {
        if !self.enabled() {
            return None;
        }
        let mut g = self.inner.lock().expect("trace collector poisoned");
        let id = g.next_id;
        g.next_id += 1;
        g.open.insert(
            id,
            OpenTrace {
                ip,
                dpid,
                started_ns,
                stages: Vec::with_capacity(5),
            },
        );
        Some(id)
    }

    /// Append a closed stage `[start_ns, end_ns]` to an open trace.
    pub fn stage(&self, id: TraceId, stage: &'static str, start_ns: u64, end_ns: u64) {
        let mut g = self.inner.lock().expect("trace collector poisoned");
        if let Some(t) = g.open.get_mut(&id) {
            t.stages.push(TraceStage {
                stage,
                start_ns,
                end_ns: Some(end_ns),
            });
        }
    }

    /// Open a stage now; it closes when the trace completes (used for
    /// `barrier_ack`, whose end is the reply arriving).
    pub fn stage_open(&self, id: TraceId, stage: &'static str) {
        let start_ns = self.now_ns();
        let mut g = self.inner.lock().expect("trace collector poisoned");
        if let Some(t) = g.open.get_mut(&id) {
            t.stages.push(TraceStage {
                stage,
                start_ns,
                end_ns: None,
            });
        }
    }

    /// The WAL group commit covering trace `id` ran over
    /// `[start_ns, end_ns]`. The trace's `wal_fsync` stage (opened when its
    /// record was staged) becomes that interval; its `send` stage, whose
    /// output the controller held until the commit, ends at `start_ns`;
    /// and its open `barrier_ack` stage, whose barrier could not leave
    /// before the commit, starts at `end_ns`. The stages keep tiling the
    /// trace without overlap. No-op for ids that are not open.
    pub fn settle_commit(&self, id: TraceId, start_ns: u64, end_ns: u64) {
        let mut g = self.inner.lock().expect("trace collector poisoned");
        let Some(t) = g.open.get_mut(&id) else {
            return;
        };
        for st in &mut t.stages {
            match st.stage {
                "wal_fsync" => {
                    st.start_ns = start_ns;
                    st.end_ns = Some(end_ns);
                }
                "send" => st.end_ns = st.end_ns.map(|e| e.max(start_ns)),
                "barrier_ack" if st.end_ns.is_none() => st.start_ns = st.start_ns.max(end_ns),
                _ => {}
            }
        }
    }

    /// RAII stage guard: the stage spans from this call to the guard drop.
    pub fn stage_guard(&self, id: TraceId, stage: &'static str) -> TraceStageGuard {
        TraceStageGuard {
            collector: self.clone(),
            id,
            stage,
            start_ns: self.now_ns(),
        }
    }

    /// Close a trace: open stages end now, the total is `now - started`,
    /// and the trace moves to the completed ring. Returns the end-to-end
    /// seconds, or `None` if `id` is not open (already completed or
    /// abandoned — double acks are harmless).
    pub fn complete(&self, id: TraceId) -> Option<f64> {
        let end_ns = self.now_ns();
        let mut g = self.inner.lock().expect("trace collector poisoned");
        let t = g.open.remove(&id)?;
        let mut stages = t.stages;
        for st in &mut stages {
            if st.end_ns.is_none() {
                st.end_ns = Some(end_ns);
            }
        }
        let total_secs = end_ns.saturating_sub(t.started_ns) as f64 / 1e9;
        if g.done.len() == self.cap {
            g.done.pop_front();
        }
        g.done.push_back(CompletedTrace {
            id,
            ip: t.ip,
            dpid: t.dpid,
            started_ns: t.started_ns,
            total_secs,
            stages,
        });
        g.completed += 1;
        Some(total_secs)
    }

    /// Drop an open trace without completing it (its barrier ack will
    /// never come). Returns whether `id` was open.
    pub fn abandon(&self, id: TraceId) -> bool {
        let mut g = self.inner.lock().expect("trace collector poisoned");
        if g.open.remove(&id).is_some() {
            g.abandoned += 1;
            true
        } else {
            false
        }
    }

    /// Traces completed so far.
    pub fn completed(&self) -> u64 {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .completed
    }

    /// Traces abandoned so far.
    pub fn abandoned(&self) -> u64 {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .abandoned
    }

    /// Traces currently open (minted, barrier not yet acked).
    pub fn open_count(&self) -> usize {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .open
            .len()
    }

    /// The newest `n` completed traces, oldest first.
    pub fn tail(&self, n: usize) -> Vec<CompletedTrace> {
        let g = self.inner.lock().expect("trace collector poisoned");
        let skip = g.done.len().saturating_sub(n);
        g.done.iter().skip(skip).cloned().collect()
    }

    /// The newest `n` completed traces as JSONL (the `/traces` body).
    pub fn tail_jsonl(&self, n: usize) -> String {
        let mut s = String::new();
        for t in self.tail(n) {
            s.push_str(&t.to_json());
            s.push('\n');
        }
        s
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().expect("trace collector poisoned");
        f.debug_struct("TraceCollector")
            .field("enabled", &self.enabled())
            .field("open", &g.open.len())
            .field("completed", &g.completed)
            .field("abandoned", &g.abandoned)
            .finish()
    }
}

/// Closes its stage with the elapsed interval when dropped.
pub struct TraceStageGuard {
    collector: TraceCollector,
    id: TraceId,
    stage: &'static str,
    start_ns: u64,
}

impl Drop for TraceStageGuard {
    fn drop(&mut self) {
        let end_ns = self.collector.now_ns();
        self.collector
            .stage(self.id, self.stage, self.start_ns, end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_mints_nothing() {
        let c = TraceCollector::new();
        assert!(c.begin("10.0.0.1".into(), 1, 0).is_none());
        assert_eq!(c.open_count(), 0);
        assert_eq!(c.tail_jsonl(16), "");
    }

    #[test]
    fn full_trace_lifecycle() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let t0 = c.now_ns();
        let id = c.begin("10.0.0.5".into(), 7, t0).unwrap();
        c.stage(id, "packet_in", t0, c.now_ns());
        {
            let _g = c.stage_guard(id, "wal_fsync");
        }
        c.stage_open(id, "barrier_ack");
        assert_eq!(c.open_count(), 1);
        let total = c.complete(id).expect("open trace completes");
        assert!(total >= 0.0);
        assert_eq!(c.open_count(), 0);
        assert_eq!(c.completed(), 1);
        // Double completion (e.g. a second barrier ack) is a no-op.
        assert!(c.complete(id).is_none());

        let traces = c.tail(8);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.ip, "10.0.0.5");
        assert_eq!(t.dpid, 7);
        assert_eq!(t.stages.len(), 3);
        assert!(
            t.stages.iter().all(|s| s.end_ns.is_some()),
            "completion closes open stages"
        );
        let json = t.to_json();
        for needle in [
            "\"ip\":\"10.0.0.5\"",
            "\"stage\":\"packet_in\"",
            "\"stage\":\"barrier_ack\"",
        ] {
            assert!(json.contains(needle), "{json}");
        }
    }

    #[test]
    fn settled_commit_tiles_the_trace() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let id = c.begin("10.0.0.6".into(), 1, 0).unwrap();
        c.stage(id, "packet_in", 0, 10);
        c.stage_open(id, "wal_fsync");
        c.stage(id, "compile", 12, 15);
        c.stage(id, "send", 15, 16);
        c.stage_open(id, "barrier_ack");
        let (start, end) = (c.now_ns() + 1_000, c.now_ns() + 2_000);
        c.settle_commit(id, start, end);
        c.complete(id).unwrap();
        let stages: Vec<(&str, u64, Option<u64>)> = c.tail(1)[0]
            .stages
            .iter()
            .map(|s| (s.stage, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(stages[1], ("wal_fsync", start, Some(end)));
        assert_eq!(
            stages[3],
            ("send", 15, Some(start)),
            "held until the commit"
        );
        assert_eq!((stages[4].0, stages[4].1), ("barrier_ack", end));
        c.settle_commit(id, 0, 1); // closed trace: no-op
    }

    #[test]
    fn abandoned_traces_never_reach_the_ring() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        let id = c.begin("10.0.0.9".into(), 1, c.now_ns()).unwrap();
        c.stage_open(id, "barrier_ack");
        assert!(c.abandon(id));
        assert!(!c.abandon(id), "second abandon is a no-op");
        assert_eq!(c.abandoned(), 1);
        assert_eq!(c.open_count(), 0);
        assert!(c.tail(8).is_empty(), "abandoned trace must not complete");
        assert!(c.complete(id).is_none());
    }

    #[test]
    fn ring_is_bounded() {
        let c = TraceCollector::new();
        c.set_enabled(true);
        for i in 0..(DEFAULT_RING + 10) {
            let id = c
                .begin(format!("10.0.0.{}", i % 250), 1, c.now_ns())
                .unwrap();
            c.complete(id).unwrap();
        }
        assert_eq!(c.tail(usize::MAX).len(), DEFAULT_RING);
        // Newest n, oldest first — like the journal tail.
        let tail = c.tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].id < tail[1].id);
    }
}
