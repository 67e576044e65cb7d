//! The controller application interface.
//!
//! An [`App`] is a state machine fed switch events; it reacts by queueing
//! OpenFlow messages through [`Ctx`]. Apps are chained: every app sees every
//! event, in registration order (the convention of Ryu/Floodlight-style
//! platforms). An app can *consume* a PACKET_IN to stop later apps from
//! also reacting to it (e.g. the DHCP server consumes DHCP packet-ins so
//! the forwarding app does not try to unicast-learn from broadcasts).

use sav_obs::TraceId;
use sav_openflow::messages::{
    FlowMod, FlowRemoved, Message, MultipartReplyBody, PacketIn, PacketOut, PortStatus,
};
use sav_openflow::prelude::Action;
use sav_sim::SimTime;
use std::sync::Arc;

/// Work that must finish before output derived from it leaves the
/// controller: in practice a WAL group commit, so that no flow rule
/// outruns the durable record that justifies it. Implementors count and
/// report their own failures; the output leaves either way.
pub trait Commit: Send + Sync {
    /// Make everything staged so far durable.
    fn commit(&self);
}

/// Run each handle once, in registration order.
pub(crate) fn run_commits(commits: &mut Vec<Arc<dyn Commit>>) {
    for c in commits.drain(..) {
        c.commit();
    }
}

/// Add `c` to `commits` unless the same handle is already there.
pub(crate) fn add_commit(commits: &mut Vec<Arc<dyn Commit>>, c: Arc<dyn Commit>) {
    if !commits.iter().any(|h| Arc::ptr_eq(h, &c)) {
        commits.push(c);
    }
}

/// Handle through which apps talk to switches during one event dispatch.
pub struct Ctx {
    now: SimTime,
    out: Vec<(u64, Message)>,
    traced_barriers: Vec<(u64, TraceId)>,
    commits: Vec<Arc<dyn Commit>>,
}

impl Ctx {
    /// New context at `now`.
    pub fn new(now: SimTime) -> Ctx {
        Ctx {
            now,
            out: Vec::new(),
            traced_barriers: Vec::new(),
            commits: Vec::new(),
        }
    }

    /// Require `c` to run before any message queued here leaves the
    /// controller. The controller runs each distinct handle once per
    /// batch (everything one read decodes), so N records staged in one
    /// batch share one commit. Registering a handle again is a no-op.
    pub fn commit_before_send(&mut self, c: Arc<dyn Commit>) {
        add_commit(&mut self.commits, c);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queue an arbitrary message to the switch with datapath id `dpid`.
    pub fn send(&mut self, dpid: u64, msg: Message) {
        self.out.push((dpid, msg));
    }

    /// Queue a flow-mod.
    pub fn install(&mut self, dpid: u64, fm: FlowMod) {
        self.send(dpid, Message::FlowMod(fm));
    }

    /// Queue a packet-out carrying `frame` to the given ports.
    pub fn packet_out(&mut self, dpid: u64, in_port: u32, ports: &[u32], frame: Vec<u8>) {
        self.send(
            dpid,
            Message::PacketOut(PacketOut {
                buffer_id: sav_openflow::consts::NO_BUFFER,
                in_port,
                actions: ports.iter().map(|&p| Action::output(p)).collect(),
                data: frame,
            }),
        );
    }

    /// Release a switch-buffered packet through the given ports.
    pub fn packet_out_buffered(&mut self, dpid: u64, buffer_id: u32, in_port: u32, ports: &[u32]) {
        self.send(
            dpid,
            Message::PacketOut(PacketOut {
                buffer_id,
                in_port,
                actions: ports.iter().map(|&p| Action::output(p)).collect(),
                data: vec![],
            }),
        );
    }

    /// Queue a `BarrierRequest` tagged with a causal trace: the controller
    /// remembers the xid it assigns at encode time and completes `trace`
    /// when the matching `BarrierReply` comes back (or abandons it if the
    /// connection dies first).
    pub fn send_traced_barrier(&mut self, dpid: u64, trace: TraceId) {
        self.traced_barriers.push((dpid, trace));
        self.send(dpid, Message::BarrierRequest);
    }

    /// Run the registered commits, then drain the queued messages: the
    /// entry point for harnesses that drive apps directly, which so stay
    /// durable per dispatch. Trace tags are dropped, since such harnesses
    /// have no barrier replies to correlate anyway.
    pub fn take(mut self) -> Vec<(u64, Message)> {
        run_commits(&mut self.commits);
        self.out
    }

    /// Split into queued messages, barrier trace tags (in barrier emission
    /// order per dpid) and the commits still to run. For the controller
    /// core, which defers the commits to the end of the batch.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        Vec<(u64, Message)>,
        Vec<(u64, TraceId)>,
        Vec<Arc<dyn Commit>>,
    ) {
        (self.out, self.traced_barriers, self.commits)
    }

    /// Number of queued messages so far.
    pub fn pending(&self) -> usize {
        self.out.len()
    }
}

/// Whether later apps in the chain should still see a PACKET_IN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Pass the event to the next app.
    Continue,
    /// Stop the chain for this event.
    Consumed,
}

/// A controller application.
///
/// Default method bodies ignore events, so apps implement only what they
/// care about. The `Any` supertrait lets the harness downcast apps to
/// inspect their state ([`crate::Controller::with_app`]).
pub trait App: std::any::Any + Send {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// A switch completed its handshake.
    fn on_switch_up(&mut self, _ctx: &mut Ctx, _dpid: u64) {}

    /// A switch's control channel went away.
    fn on_switch_down(&mut self, _ctx: &mut Ctx, _dpid: u64) {}

    /// A packet was punted to the controller.
    fn on_packet_in(&mut self, _ctx: &mut Ctx, _dpid: u64, _pi: &PacketIn) -> Disposition {
        Disposition::Continue
    }

    /// A flow was removed (timeout or delete with SEND_FLOW_REM).
    fn on_flow_removed(&mut self, _ctx: &mut Ctx, _dpid: u64, _fr: &FlowRemoved) {}

    /// A port changed state.
    fn on_port_status(&mut self, _ctx: &mut Ctx, _dpid: u64, _ps: &PortStatus) {}

    /// A multipart (statistics / port-description) reply arrived.
    fn on_stats_reply(&mut self, _ctx: &mut Ctx, _dpid: u64, _body: &MultipartReplyBody) {}

    /// A periodic poll tick fired for a ready switch (driven by the
    /// embedding transport via [`crate::Controller::poll_tick`]). Apps that
    /// collect statistics queue their multipart requests here; everyone
    /// else ignores it.
    fn on_poll(&mut self, _ctx: &mut Ctx, _dpid: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_openflow::oxm::OxmMatch;

    #[test]
    fn ctx_queues_in_order() {
        let mut ctx = Ctx::new(SimTime::from_secs(1));
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        ctx.install(7, FlowMod::add(OxmMatch::new()));
        ctx.packet_out(7, 1, &[2, 3], vec![0xab]);
        assert_eq!(ctx.pending(), 2);
        let msgs = ctx.take();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].0, 7);
        assert!(matches!(msgs[0].1, Message::FlowMod(_)));
        match &msgs[1].1 {
            Message::PacketOut(po) => {
                assert_eq!(po.actions.len(), 2);
                assert_eq!(po.data, vec![0xab]);
            }
            other => panic!("expected PacketOut, got {other:?}"),
        }
    }

    #[test]
    fn default_app_impls_are_inert() {
        struct Nop;
        impl App for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
        }
        let mut n = Nop;
        let mut ctx = Ctx::new(SimTime::ZERO);
        n.on_switch_up(&mut ctx, 1);
        let pi = PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: 0,
            reason: sav_openflow::messages::PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: OxmMatch::new(),
            data: vec![],
        };
        assert_eq!(n.on_packet_in(&mut ctx, 1, &pi), Disposition::Continue);
        assert_eq!(ctx.pending(), 0);
    }

    struct Counting(std::sync::atomic::AtomicUsize);

    impl Commit for Counting {
        fn commit(&self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn take_runs_each_distinct_commit_once_before_returning() {
        let c = Arc::new(Counting(Default::default()));
        let runs = || c.0.load(std::sync::atomic::Ordering::SeqCst);
        let mut ctx = Ctx::new(SimTime::ZERO);
        ctx.install(1, FlowMod::add(OxmMatch::new()));
        ctx.commit_before_send(c.clone());
        ctx.commit_before_send(c.clone());
        assert_eq!(runs(), 0, "registering does not commit");
        let msgs = ctx.take();
        assert_eq!(msgs.len(), 1);
        assert_eq!(
            runs(),
            1,
            "one run per distinct handle, before take returns"
        );
    }
}
