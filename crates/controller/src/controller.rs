//! The controller core: connection state machines and event dispatch.
//!
//! Sans-IO like everything else: [`Controller::on_connect`] returns the
//! greeting bytes for a new control channel, [`Controller::on_bytes`] feeds
//! received bytes and returns bytes to write back, per connection. The
//! handshake (HELLO → FEATURES_REQUEST → FEATURES_REPLY) runs here; once a
//! connection is `Ready`, its datapath id is known and events flow to apps.

use crate::app::{add_commit, run_commits, App, Commit, Ctx, Disposition};
use sav_obs::{EventKind, Obs, Severity, TraceId};
use sav_openflow::consts::error_type;
use sav_openflow::error::CodecError;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{ControllerRole, Message, MultipartReplyBody, RoleMsg};
use sav_sim::SimTime;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Non-final multipart reply parts (at most 64 KiB each) one connection
/// may have buffered at a time, across all its xids. A peer that sends
/// more without finishing its replies is hung up on, so one that never
/// sends a final part cannot grow memory without bound.
const MAX_REPLY_PARTS: usize = 256;

/// Connection identifier (assigned by the embedding I/O layer).
pub type ConnId = usize;

enum ConnState {
    /// HELLO sent, waiting for the peer's HELLO.
    AwaitHello,
    /// FEATURES_REQUEST sent with this xid, waiting for the matching reply.
    AwaitFeatures { xid: u32 },
    /// ROLE_REQUEST(MASTER) sent with this xid (clustered controllers
    /// only). Apps see the switch only after it confirms mastership, so a
    /// fenced stale leader never gets to program flows.
    AwaitRole { dpid: u64, xid: u32 },
    /// Handshake complete.
    Ready { dpid: u64 },
}

struct Conn {
    state: ConnState,
    deframer: Deframer,
    /// Multipart replies still arriving in REPLY_MORE parts, by xid, with
    /// the number of parts buffered for each.
    partial: HashMap<u32, (MultipartReplyBody, usize)>,
    /// Parts buffered in `partial`, across all its xids.
    partial_parts: usize,
}

/// Messages to write, per connection.
#[derive(Debug, Default)]
pub struct ControllerOutput {
    /// `(connection, bytes)` pairs, in write order.
    pub to_switch: Vec<(ConnId, Vec<u8>)>,
    /// ECHO_REPLY payloads received on ready connections, for the transport
    /// layer to match against its outstanding keepalives (RTT, liveness).
    pub echo_replies: Vec<(ConnId, Vec<u8>)>,
    /// Connections the controller wants torn down (protocol violations such
    /// as a FEATURES_REPLY answering the wrong xid). The embedding I/O layer
    /// should close the socket and then call
    /// [`Controller::on_disconnect`].
    pub hangups: Vec<ConnId>,
}

/// Control-plane load counters (evaluation input).
#[derive(Debug, Default, Clone, Copy)]
pub struct ControllerStats {
    /// PACKET_INs dispatched to apps.
    pub packet_ins: u64,
    /// FLOW_MODs sent.
    pub flow_mods: u64,
    /// PACKET_OUTs sent.
    pub packet_outs: u64,
    /// Total messages received from switches.
    pub rx_messages: u64,
    /// Total messages sent to switches.
    pub tx_messages: u64,
    /// FLOW_REMOVED notifications received.
    pub flow_removed: u64,
    /// OpenFlow errors received from switches.
    pub errors: u64,
    /// ECHO_REQUESTs received from switches (each is answered).
    pub echo_requests: u64,
    /// ECHO_REPLYs received from switches (answers to our keepalives).
    pub echo_replies: u64,
    /// ECHO_REQUEST keepalives this controller sent.
    pub echo_sent: u64,
    /// Handshakes aborted for protocol violations (e.g. xid mismatch).
    pub handshake_failures: u64,
    /// ROLE_REQUESTs a switch refused (stale generation — we were fenced).
    pub role_rejections: u64,
    /// App messages dropped unsent because they exceed the 64 KiB
    /// OpenFlow message limit (e.g. a flood of a maximal packet-in frame).
    pub oversized_dropped: u64,
}

/// The controller: connections + the app chain.
pub struct Controller {
    conns: HashMap<ConnId, Conn>,
    dpid_to_conn: HashMap<u64, ConnId>,
    apps: Vec<Box<dyn App>>,
    next_xid: u32,
    /// When set, every handshake asserts MASTER with this generation
    /// before apps see the switch (cluster mode). `None` = standalone.
    master_generation: Option<u64>,
    obs: Option<Obs>,
    /// Outstanding traced barriers: `(conn, xid)` of a `BarrierRequest`
    /// carrying a causal trace, waiting for its `BarrierReply`.
    pending_barriers: HashMap<(ConnId, u32), TraceId>,
    /// Commits registered by apps during the current batch; each runs
    /// once before the batch's output is returned.
    pending_commits: Vec<Arc<dyn Commit>>,
    /// Counters for the evaluation harness.
    pub stats: ControllerStats,
}

impl Controller {
    /// A controller running the given app chain.
    pub fn new(apps: Vec<Box<dyn App>>) -> Controller {
        Controller {
            conns: HashMap::new(),
            dpid_to_conn: HashMap::new(),
            apps,
            next_xid: 1,
            master_generation: None,
            obs: None,
            pending_barriers: HashMap::new(),
            pending_commits: Vec::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Enter (or refresh) cluster-master mode: every subsequent switch
    /// handshake sends `ROLE_REQUEST(MASTER, generation)` after the
    /// features exchange, and apps are dispatched only once the switch
    /// confirms. A switch that refuses (it has seen a newer generation)
    /// is counted in [`ControllerStats::role_rejections`], surfaced as a
    /// `role_rejected` journal event, and hung up on — so a deposed
    /// leader can never program flows.
    pub fn set_master_generation(&mut self, generation: u64) {
        self.master_generation = Some(generation);
    }

    /// Attach an observability handle (role rejections reach its journal).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    fn xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        x
    }

    /// Datapath ids of all switches that completed the handshake.
    pub fn ready_dpids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.dpid_to_conn.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// True once `conn` has completed the full handshake (HELLO,
    /// FEATURES, and — in cluster mode — role assertion). The transport
    /// uses the `false → true` flip to measure accept-to-ready handshake
    /// latency without peeking at connection state.
    pub fn conn_ready(&self, conn: ConnId) -> bool {
        matches!(
            self.conns.get(&conn),
            Some(Conn {
                state: ConnState::Ready { .. },
                ..
            })
        )
    }

    /// A new control channel appeared; returns the greeting bytes.
    pub fn on_connect(&mut self, conn: ConnId) -> Vec<u8> {
        self.conns.insert(
            conn,
            Conn {
                state: ConnState::AwaitHello,
                deframer: Deframer::new(),
                partial: HashMap::new(),
                partial_parts: 0,
            },
        );
        let x = self.xid();
        self.stats.tx_messages += 1;
        Message::Hello.encode(x)
    }

    /// A control channel died.
    pub fn on_disconnect(&mut self, now: SimTime, conn: ConnId) -> ControllerOutput {
        let mut out = ControllerOutput::default();
        // Barrier replies outstanding on this channel will never arrive:
        // abandon their traces cleanly instead of leaking half-open spans
        // (a recovering controller re-learns the binding and starts a
        // fresh trace).
        let stale: Vec<TraceId> = self
            .pending_barriers
            .iter()
            .filter(|(k, _)| k.0 == conn)
            .map(|(_, &t)| t)
            .collect();
        if !stale.is_empty() {
            self.pending_barriers.retain(|k, _| k.0 != conn);
            if let Some(obs) = &self.obs {
                for t in stale {
                    obs.abandon_trace(t);
                }
            }
        }
        if let Some(c) = self.conns.remove(&conn) {
            if let ConnState::Ready { dpid } = c.state {
                self.dpid_to_conn.remove(&dpid);
                let mut ctx = Ctx::new(now);
                for app in &mut self.apps {
                    app.on_switch_down(&mut ctx, dpid);
                }
                self.flush(ctx, &mut out);
            }
        }
        self.run_commits();
        out
    }

    /// Feed bytes received on `conn`. Codec failures poison the connection.
    ///
    /// Every message the bytes complete is dispatched, and the commits the
    /// apps registered while handling them run once, after the last
    /// message and before the output is returned: one group commit per
    /// read, however many bindings it carried.
    pub fn on_bytes(
        &mut self,
        now: SimTime,
        conn: ConnId,
        bytes: &[u8],
    ) -> Result<ControllerOutput, CodecError> {
        let mut out = ControllerOutput::default();
        // Decode everything first to keep borrows simple.
        let msgs = {
            let Some(c) = self.conns.get_mut(&conn) else {
                return Ok(out);
            };
            c.deframer.push(bytes)?;
            let mut msgs = Vec::new();
            while let Some(m) = c.deframer.next_message()? {
                msgs.push(m);
            }
            msgs
        };
        for (msg, xid) in msgs {
            self.stats.rx_messages += 1;
            self.handle_message(now, conn, msg, xid, &mut out);
        }
        self.run_commits();
        Ok(out)
    }

    fn handle_message(
        &mut self,
        now: SimTime,
        conn: ConnId,
        msg: Message,
        xid: u32,
        out: &mut ControllerOutput,
    ) {
        let master_generation = self.master_generation;
        let state = match self.conns.get_mut(&conn) {
            Some(c) => &mut c.state,
            None => return,
        };
        match (&*state, &msg) {
            (ConnState::AwaitHello, Message::Hello) => {
                let x = self.xid();
                self.stats.tx_messages += 1;
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.state = ConnState::AwaitFeatures { xid: x };
                }
                out.to_switch
                    .push((conn, Message::FeaturesRequest.encode(x)));
            }
            (ConnState::AwaitFeatures { xid: expected }, Message::FeaturesReply(f)) => {
                if *expected != xid {
                    // The reply answers a request we never sent — a confused
                    // or hostile peer. Abort the handshake.
                    self.stats.handshake_failures += 1;
                    out.hangups.push(conn);
                    return;
                }
                let dpid = f.datapath_id;
                match master_generation {
                    Some(generation_id) => {
                        // Cluster mode: claim mastership before apps see
                        // the switch.
                        let x = self.xid();
                        self.stats.tx_messages += 1;
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.state = ConnState::AwaitRole { dpid, xid: x };
                        }
                        let m = RoleMsg {
                            role: ControllerRole::Master,
                            generation_id,
                        };
                        out.to_switch
                            .push((conn, Message::RoleRequest(m).encode(x)));
                    }
                    None => {
                        *state = ConnState::Ready { dpid };
                        self.mark_ready(now, conn, dpid, out);
                    }
                }
            }
            (
                ConnState::AwaitRole {
                    dpid,
                    xid: expected,
                },
                Message::RoleReply(m),
            ) => {
                if *expected != xid || m.role != ControllerRole::Master {
                    self.stats.handshake_failures += 1;
                    out.hangups.push(conn);
                    return;
                }
                let dpid = *dpid;
                *state = ConnState::Ready { dpid };
                self.mark_ready(now, conn, dpid, out);
            }
            (ConnState::AwaitRole { dpid, .. }, Message::Error(e))
                if e.err_type == error_type::ROLE_REQUEST_FAILED =>
            {
                // The switch has seen a newer master generation: we are a
                // deposed leader. Surface it and drop the channel — apps
                // never saw this switch, so no flow-mod can leak out.
                let dpid = *dpid;
                self.stats.role_rejections += 1;
                if let Some(obs) = &self.obs {
                    obs.event(
                        Severity::Warn,
                        EventKind::RoleRejected {
                            dpid,
                            generation: master_generation.unwrap_or(0),
                        },
                    );
                }
                out.hangups.push(conn);
            }
            (ConnState::Ready { dpid }, _) => {
                let dpid = *dpid;
                let mut ctx = Ctx::new(now);
                match &msg {
                    Message::EchoRequest(d) => {
                        self.stats.echo_requests += 1;
                        let x = self.xid();
                        self.stats.tx_messages += 1;
                        out.to_switch
                            .push((conn, Message::EchoReply(d.clone()).encode(x)));
                    }
                    Message::EchoReply(d) => {
                        self.stats.echo_replies += 1;
                        out.echo_replies.push((conn, d.0.clone()));
                    }
                    Message::PacketIn(pi) => {
                        self.stats.packet_ins += 1;
                        for app in &mut self.apps {
                            if app.on_packet_in(&mut ctx, dpid, pi) == Disposition::Consumed {
                                break;
                            }
                        }
                    }
                    Message::FlowRemoved(fr) => {
                        self.stats.flow_removed += 1;
                        for app in &mut self.apps {
                            app.on_flow_removed(&mut ctx, dpid, fr);
                        }
                    }
                    Message::PortStatus(ps) => {
                        for app in &mut self.apps {
                            app.on_port_status(&mut ctx, dpid, ps);
                        }
                    }
                    Message::Error(_) => {
                        self.stats.errors += 1;
                    }
                    Message::MultipartReplyMore(part) => {
                        let ok = self.collect_part(conn, xid, part.clone());
                        if !ok {
                            out.hangups.push(conn);
                        }
                    }
                    Message::MultipartReply(last) => match self.reassemble(conn, xid, last) {
                        Ok(merged) => {
                            let body = merged.as_ref().unwrap_or(last);
                            for app in &mut self.apps {
                                app.on_stats_reply(&mut ctx, dpid, body);
                            }
                        }
                        Err(()) => out.hangups.push(conn),
                    },
                    Message::BarrierReply => {
                        // A traced barrier coming home closes its causal
                        // trace: the switch has processed every flow-mod
                        // sent before the barrier, so the binding is
                        // enforced. Untraced barriers need no dispatch.
                        if let Some(trace) = self.pending_barriers.remove(&(conn, xid)) {
                            if let Some(obs) = &self.obs {
                                obs.complete_trace(trace);
                            }
                        }
                    }
                    // The rest need no dispatch.
                    _ => {}
                }
                self.flush(ctx, out);
            }
            // Anything unexpected during handshake: ignore (a resilient
            // controller does not crash on stray messages).
            _ => {}
        }
    }

    /// Buffer a non-final multipart part until the final one arrives.
    /// Returns `false` for a protocol violation: a part of another kind
    /// than the ones before it under the same xid, or one that would take
    /// the connection past [`MAX_REPLY_PARTS`] buffered parts.
    fn collect_part(&mut self, conn: ConnId, xid: u32, part: MultipartReplyBody) -> bool {
        use std::collections::hash_map::Entry;
        let Some(c) = self.conns.get_mut(&conn) else {
            return true;
        };
        if c.partial_parts >= MAX_REPLY_PARTS {
            return false;
        }
        c.partial_parts += 1;
        match c.partial.entry(xid) {
            Entry::Vacant(v) => {
                v.insert((part, 1));
                true
            }
            Entry::Occupied(mut o) => {
                let (body, parts) = o.get_mut();
                *parts += 1;
                body.extend(part)
            }
        }
    }

    /// The reply a final part completes: `None` when the part stands
    /// alone, the reassembled body when it ends earlier REPLY_MORE parts,
    /// and `Err` when it is of another kind than they were.
    fn reassemble(
        &mut self,
        conn: ConnId,
        xid: u32,
        last: &MultipartReplyBody,
    ) -> Result<Option<MultipartReplyBody>, ()> {
        let Some(c) = self.conns.get_mut(&conn) else {
            return Ok(None);
        };
        let Some((mut body, parts)) = c.partial.remove(&xid) else {
            return Ok(None);
        };
        c.partial_parts -= parts;
        if body.extend(last.clone()) {
            Ok(Some(body))
        } else {
            Err(())
        }
    }

    /// Emit an ECHO_REQUEST keepalive on `conn`, returning the bytes to
    /// write. The transport layer owns the schedule and the liveness
    /// deadline; the payload round-trips verbatim so it can carry a
    /// timestamp for RTT measurement. Returns `None` for unknown
    /// connections.
    pub fn send_echo(&mut self, conn: ConnId, payload: Vec<u8>) -> Option<Vec<u8>> {
        if !self.conns.contains_key(&conn) {
            return None;
        }
        let x = self.xid();
        self.stats.echo_sent += 1;
        self.stats.tx_messages += 1;
        Some(Message::EchoRequest(sav_openflow::messages::EchoData(payload)).encode(x))
    }

    /// Fire [`App::on_poll`] for every ready switch and return the queued
    /// requests as writable output. The embedding transport owns the
    /// schedule (like keepalives): call this on whatever period the stats
    /// poller should run at. No-op when no app polls or no switch is ready.
    pub fn poll_tick(&mut self, now: SimTime) -> ControllerOutput {
        let mut out = ControllerOutput::default();
        let dpids = self.ready_dpids();
        let mut ctx = Ctx::new(now);
        for dpid in dpids {
            for app in &mut self.apps {
                app.on_poll(&mut ctx, dpid);
            }
        }
        self.flush(ctx, &mut out);
        self.run_commits();
        out
    }

    /// Let an external driver (the testbed command layer or tests) inject
    /// messages to switches through the app-visible path, e.g. to seed rules.
    /// Messages taken from a [`Ctx`] with [`Ctx::take`] were committed
    /// there, so nothing is left to commit here.
    pub fn send_all(&mut self, msgs: Vec<(u64, Message)>, out: &mut ControllerOutput) {
        self.send_tagged(msgs, Vec::new(), out);
    }

    /// Encode and dispatch queued messages; `traced` carries the causal
    /// trace tags of barrier requests, matched to barriers per dpid in
    /// emission order so the xid assigned here can be correlated with the
    /// eventual `BarrierReply`.
    fn send_tagged(
        &mut self,
        msgs: Vec<(u64, Message)>,
        traced: Vec<(u64, TraceId)>,
        out: &mut ControllerOutput,
    ) {
        let mut tags: HashMap<u64, VecDeque<TraceId>> = HashMap::new();
        for (dpid, trace) in &traced {
            tags.entry(*dpid).or_default().push_back(*trace);
        }
        for (dpid, msg) in msgs {
            let Some(&conn) = self.dpid_to_conn.get(&dpid) else {
                self.count_sent(&msg);
                continue;
            };
            let x = self.xid();
            // App output can carry peer-sized data (a packet-out echoes a
            // packet-in's frame): drop a message the 16-bit length field
            // cannot describe rather than take the controller down.
            let Ok(bytes) = msg.try_encode(x) else {
                self.stats.oversized_dropped += 1;
                continue;
            };
            self.count_sent(&msg);
            if matches!(msg, Message::BarrierRequest) {
                if let Some(trace) = tags.get_mut(&dpid).and_then(|q| q.pop_front()) {
                    self.pending_barriers.insert((conn, x), trace);
                }
            }
            out.to_switch.push((conn, bytes));
        }
        // Tags whose barrier never encoded (switch disconnected between
        // queueing and flush) can never complete: abandon them.
        if let Some(obs) = &self.obs {
            for q in tags.values_mut() {
                for trace in q.drain(..) {
                    obs.abandon_trace(trace);
                }
            }
        }
    }

    fn count_sent(&mut self, msg: &Message) {
        match msg {
            Message::FlowMod(_) => self.stats.flow_mods += 1,
            Message::PacketOut(_) => self.stats.packet_outs += 1,
            _ => {}
        }
        self.stats.tx_messages += 1;
    }

    /// A connection finished its (possibly role-gated) handshake: index the
    /// dpid and let the apps program the switch.
    fn mark_ready(&mut self, now: SimTime, conn: ConnId, dpid: u64, out: &mut ControllerOutput) {
        self.dpid_to_conn.insert(dpid, conn);
        let mut ctx = Ctx::new(now);
        for app in &mut self.apps {
            app.on_switch_up(&mut ctx, dpid);
        }
        self.flush(ctx, out);
    }

    /// Encode a dispatch's messages into `out` and hold its commits for
    /// the end of the batch.
    fn flush(&mut self, ctx: Ctx, out: &mut ControllerOutput) {
        let (msgs, traced, commits) = ctx.into_parts();
        self.send_tagged(msgs, traced, out);
        for c in commits {
            add_commit(&mut self.pending_commits, c);
        }
    }

    /// Run the batch's commits, each distinct handle once. Every entry
    /// point that dispatches to apps calls this last, so no message leaves
    /// before the records it derives from are durable.
    fn run_commits(&mut self) {
        run_commits(&mut self.pending_commits);
    }

    /// Run a closure against the first app of concrete type `A` (state
    /// peeking for tests and the harness). Relies on `App: Any` and trait
    /// upcasting.
    pub fn with_app<A: App, R>(&mut self, f: impl FnOnce(&mut A) -> R) -> Option<R> {
        for app in &mut self.apps {
            let any: &mut dyn std::any::Any = app.as_mut();
            if let Some(a) = any.downcast_mut::<A>() {
                return Some(f(a));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
    use sav_net::addr::MacAddr;
    use sav_openflow::oxm::OxmMatch;
    use sav_openflow::ports::PortDesc;

    /// App that installs one flow on switch-up and counts packet-ins.
    struct Probe {
        ups: Vec<u64>,
        packet_ins: usize,
    }

    impl App for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn on_switch_up(&mut self, ctx: &mut Ctx, dpid: u64) {
            self.ups.push(dpid);
            ctx.install(dpid, sav_openflow::messages::FlowMod::add(OxmMatch::new()));
        }
        fn on_packet_in(
            &mut self,
            _ctx: &mut Ctx,
            _dpid: u64,
            _pi: &sav_openflow::messages::PacketIn,
        ) -> Disposition {
            self.packet_ins += 1;
            Disposition::Continue
        }
    }

    fn mk_switch(dpid: u64) -> OpenFlowSwitch {
        OpenFlowSwitch::new(
            SwitchConfig::new(dpid),
            vec![
                PortDesc::new(1, MacAddr::from_index(1)),
                PortDesc::new(2, MacAddr::from_index(2)),
            ],
        )
    }

    /// Run the handshake between a real switch and the controller by
    /// ferrying bytes until quiescent. Returns bytes counts for sanity.
    fn converge(ctrl: &mut Controller, sw: &mut OpenFlowSwitch, conn: ConnId) {
        let now = SimTime::ZERO;
        let mut to_switch = vec![ctrl.on_connect(conn)];
        let mut to_ctrl = vec![sw.hello()];
        while !to_switch.is_empty() || !to_ctrl.is_empty() {
            let mut next_to_ctrl = Vec::new();
            for b in to_switch.drain(..) {
                let out = sw.handle_controller_bytes(now, &b).unwrap();
                next_to_ctrl.extend(out.to_controller);
            }
            let mut next_to_switch = Vec::new();
            for b in to_ctrl.drain(..) {
                let out = ctrl.on_bytes(now, conn, &b).unwrap();
                next_to_switch.extend(out.to_switch.into_iter().map(|(_, b)| b));
            }
            to_switch = next_to_switch;
            to_ctrl = next_to_ctrl;
        }
    }

    #[test]
    fn handshake_reaches_ready_and_fires_switch_up() {
        let mut ctrl = Controller::new(vec![Box::new(Probe {
            ups: vec![],
            packet_ins: 0,
        })]);
        let mut sw = mk_switch(0x42);
        converge(&mut ctrl, &mut sw, 0);
        assert_eq!(ctrl.ready_dpids(), vec![0x42]);
        ctrl.with_app::<Probe, _>(|p| assert_eq!(p.ups, vec![0x42]));
        // The probe's switch-up flow-mod reached the switch.
        assert_eq!(sw.total_flows(), 1);
        assert_eq!(ctrl.stats.flow_mods, 1);
    }

    #[test]
    fn packet_in_dispatch() {
        let mut ctrl = Controller::new(vec![Box::new(Probe {
            ups: vec![],
            packet_ins: 0,
        })]);
        let mut sw = mk_switch(7);
        converge(&mut ctrl, &mut sw, 3);
        // Fabricate a packet-in from the switch side.
        let pi = sav_openflow::messages::PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: 4,
            reason: sav_openflow::messages::PacketInReason::NoMatch,
            table_id: 0,
            cookie: u64::MAX,
            match_: OxmMatch::new().with(sav_openflow::oxm::OxmField::InPort(1)),
            data: vec![1, 2, 3, 4],
        };
        let bytes = Message::PacketIn(pi).encode(900);
        ctrl.on_bytes(SimTime::ZERO, 3, &bytes).unwrap();
        ctrl.with_app::<Probe, _>(|p| assert_eq!(p.packet_ins, 1));
        assert_eq!(ctrl.stats.packet_ins, 1);
    }

    #[test]
    fn echo_answered_without_apps() {
        let mut ctrl = Controller::new(vec![]);
        let mut sw = mk_switch(9);
        converge(&mut ctrl, &mut sw, 0);
        let bytes =
            Message::EchoRequest(sav_openflow::messages::EchoData(b"hb".to_vec())).encode(5);
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &bytes).unwrap();
        assert_eq!(out.to_switch.len(), 1);
        let (msg, _) = Message::decode(&out.to_switch[0].1).unwrap();
        assert!(matches!(msg, Message::EchoReply(_)));
    }

    #[test]
    fn disconnect_fires_switch_down_and_forgets_dpid() {
        struct DownProbe {
            downs: Vec<u64>,
        }
        impl App for DownProbe {
            fn name(&self) -> &'static str {
                "down"
            }
            fn on_switch_down(&mut self, _ctx: &mut Ctx, dpid: u64) {
                self.downs.push(dpid);
            }
        }
        let mut ctrl = Controller::new(vec![Box::new(DownProbe { downs: vec![] })]);
        let mut sw = mk_switch(5);
        converge(&mut ctrl, &mut sw, 0);
        assert_eq!(ctrl.ready_dpids(), vec![5]);
        ctrl.on_disconnect(SimTime::ZERO, 0);
        assert!(ctrl.ready_dpids().is_empty());
        ctrl.with_app::<DownProbe, _>(|p| assert_eq!(p.downs, vec![5]));
    }

    /// Mints a causal trace per packet-in and fences it with a traced
    /// barrier — the controller-side half of what `SavApp` does for a
    /// DHCP-learned binding.
    struct TraceApp {
        obs: sav_obs::Obs,
    }
    impl App for TraceApp {
        fn name(&self) -> &'static str {
            "trace"
        }
        fn on_packet_in(
            &mut self,
            ctx: &mut Ctx,
            dpid: u64,
            _pi: &sav_openflow::messages::PacketIn,
        ) -> Disposition {
            let t = self.obs.traces.now_ns();
            let id = self
                .obs
                .traces
                .begin("10.0.0.1".into(), dpid, t)
                .expect("tracing enabled");
            self.obs
                .traces
                .stage(id, "packet_in", t, self.obs.traces.now_ns());
            ctx.install(dpid, sav_openflow::messages::FlowMod::add(OxmMatch::new()));
            self.obs.traces.stage_open(id, "barrier_ack");
            ctx.send_traced_barrier(dpid, id);
            Disposition::Consumed
        }
    }

    fn packet_in_bytes() -> Vec<u8> {
        let pi = sav_openflow::messages::PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: 4,
            reason: sav_openflow::messages::PacketInReason::NoMatch,
            table_id: 0,
            cookie: u64::MAX,
            match_: OxmMatch::new().with(sav_openflow::oxm::OxmField::InPort(1)),
            data: vec![1, 2, 3, 4],
        };
        Message::PacketIn(pi).encode(901)
    }

    /// Counts the commits run through it.
    struct Counting {
        runs: std::sync::atomic::AtomicUsize,
    }

    impl Commit for Counting {
        fn commit(&self) {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Installs a flow per packet-in and asks for the shared commit.
    struct Journaling(Arc<Counting>);

    impl App for Journaling {
        fn name(&self) -> &'static str {
            "journaling"
        }
        fn on_packet_in(
            &mut self,
            ctx: &mut Ctx,
            dpid: u64,
            _pi: &sav_openflow::messages::PacketIn,
        ) -> Disposition {
            ctx.install(dpid, sav_openflow::messages::FlowMod::add(OxmMatch::new()));
            ctx.commit_before_send(self.0.clone());
            Disposition::Continue
        }
        fn on_poll(&mut self, ctx: &mut Ctx, _dpid: u64) {
            ctx.commit_before_send(self.0.clone());
        }
    }

    #[test]
    fn one_read_runs_each_commit_once_before_returning() {
        let c = Arc::new(Counting {
            runs: Default::default(),
        });
        let runs = || c.runs.load(std::sync::atomic::Ordering::SeqCst);
        let mut ctrl = Controller::new(vec![Box::new(Journaling(c.clone()))]);
        let mut sw = mk_switch(6);
        converge(&mut ctrl, &mut sw, 0);
        assert_eq!(runs(), 0);

        let chunk: Vec<u8> = (0..5).flat_map(|_| packet_in_bytes()).collect();
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &chunk).unwrap();
        assert_eq!(out.to_switch.len(), 5, "every packet-in's flow-mod");
        assert_eq!(runs(), 1, "five dispatches, one commit, before return");

        ctrl.poll_tick(SimTime::ZERO);
        assert_eq!(runs(), 2, "poll ticks commit too");
        ctrl.on_bytes(SimTime::ZERO, 0, &Message::BarrierReply.encode(77))
            .unwrap();
        assert_eq!(runs(), 2, "a batch that registers nothing commits nothing");
    }

    #[test]
    fn reply_more_parts_reach_apps_as_one_reply() {
        struct StatsProbe(Vec<usize>);
        impl App for StatsProbe {
            fn name(&self) -> &'static str {
                "stats"
            }
            fn on_stats_reply(&mut self, _ctx: &mut Ctx, _dpid: u64, body: &MultipartReplyBody) {
                if let MultipartReplyBody::PortDesc(p) = body {
                    self.0.push(p.len());
                }
            }
        }
        let mut ctrl = Controller::new(vec![Box::new(StatsProbe(vec![]))]);
        let mut sw = mk_switch(8);
        converge(&mut ctrl, &mut sw, 0);
        let ports = |n: u32| {
            MultipartReplyBody::PortDesc(
                (1..=n)
                    .map(|p| PortDesc::new(p, MacAddr::from_index(u64::from(p))))
                    .collect(),
            )
        };
        let parts = [
            Message::MultipartReplyMore(ports(2)).encode(40),
            Message::MultipartReplyMore(ports(3)).encode(40),
            Message::MultipartReply(ports(1)).encode(40),
        ];
        for p in &parts {
            ctrl.on_bytes(SimTime::ZERO, 0, p).unwrap();
        }
        ctrl.with_app::<StatsProbe, _>(|p| assert_eq!(p.0, vec![6]));
        // A final part of another kind than its predecessors is a
        // protocol violation: hang up, dispatch nothing.
        ctrl.on_bytes(SimTime::ZERO, 0, &parts[0]).unwrap();
        let mixed = Message::MultipartReply(MultipartReplyBody::Table(vec![])).encode(40);
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &mixed).unwrap();
        assert_eq!(out.hangups, vec![0]);
        ctrl.with_app::<StatsProbe, _>(|p| assert_eq!(p.0, vec![6]));
    }

    /// The part limit is per connection: a peer that opens replies under
    /// ever new xids and never finishes them is hung up on once it has
    /// [`MAX_REPLY_PARTS`] parts buffered, and a finished reply frees its
    /// parts.
    #[test]
    fn reply_parts_are_capped_per_connection_across_xids() {
        let mut ctrl = Controller::new(vec![]);
        let mut sw = mk_switch(9);
        converge(&mut ctrl, &mut sw, 0);
        let part =
            |xid: u32| Message::MultipartReplyMore(MultipartReplyBody::Table(vec![])).encode(xid);
        let chunk: Vec<u8> = (0..MAX_REPLY_PARTS as u32).flat_map(part).collect();
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &chunk).unwrap();
        assert!(out.hangups.is_empty());
        assert_eq!(ctrl.conns[&0].partial_parts, MAX_REPLY_PARTS);

        let last = Message::MultipartReply(MultipartReplyBody::Table(vec![])).encode(0);
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &last).unwrap();
        assert!(out.hangups.is_empty(), "finishing xid 0 frees its part");
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &part(100_000)).unwrap();
        assert!(out.hangups.is_empty());
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &part(100_001)).unwrap();
        assert_eq!(out.hangups, vec![0], "one part past the limit");
        assert_eq!(ctrl.conns[&0].partial_parts, MAX_REPLY_PARTS);
    }

    /// A switch can send a packet-in carrying a frame close to 64 KiB; the
    /// L2 app's flood of it adds one output action per port and no longer
    /// fits in an OpenFlow message. The controller drops that one
    /// packet-out and keeps serving the connection.
    #[test]
    fn oversized_flood_is_dropped_and_the_controller_survives() {
        use crate::apps::L2RoutingApp;
        use sav_topo::routes::Routes;

        let topo = Arc::new(sav_topo::generators::linear(2, 2));
        let routes = Arc::new(Routes::compute(&topo));
        let s0 = topo.switches()[0].id;
        let host = topo.hosts_on(s0).next().unwrap().clone();
        let mut ctrl = Controller::new(vec![Box::new(L2RoutingApp::new(topo.clone(), routes))]);
        let mut sw = mk_switch(s0.dpid());
        converge(&mut ctrl, &mut sw, 0);

        // Broadcast frame from a known host on its own port: flooded to
        // the other host port and the trunk.
        let frame = |len: usize| {
            let mut f = vec![0u8; len];
            f[..6].copy_from_slice(&MacAddr::BROADCAST.0);
            f[6..12].copy_from_slice(&host.mac.0);
            f[12..14].copy_from_slice(&0x88b5u16.to_be_bytes());
            f
        };
        let packet_in = |data: Vec<u8>| {
            Message::PacketIn(sav_openflow::messages::PacketIn {
                buffer_id: sav_openflow::consts::NO_BUFFER,
                total_len: u16::try_from(data.len()).unwrap_or(u16::MAX),
                reason: sav_openflow::messages::PacketInReason::NoMatch,
                table_id: 1,
                cookie: u64::MAX,
                match_: OxmMatch::new().with(sav_openflow::oxm::OxmField::InPort(host.port)),
                data,
            })
            .encode(7)
        };
        let big = packet_in(frame(65_480));
        assert!(big.len() <= sav_openflow::messages::MAX_MESSAGE_LEN);
        let chunk: Vec<u8> = big.into_iter().chain(packet_in(frame(64))).collect();

        let out = ctrl.on_bytes(SimTime::ZERO, 0, &chunk).unwrap();
        assert_eq!(ctrl.stats.oversized_dropped, 1);
        assert!(out.hangups.is_empty());
        assert_eq!(out.to_switch.len(), 1, "the small frame is still flooded");
        let (msg, _) = Message::decode(&out.to_switch[0].1).unwrap();
        assert!(matches!(msg, Message::PacketOut(po) if po.actions.len() == 2));
        assert_eq!(ctrl.stats.packet_outs, 1);
    }

    #[test]
    fn traced_barrier_reply_completes_the_trace() {
        let obs = sav_obs::Obs::with_tracing();
        let mut ctrl = Controller::new(vec![Box::new(TraceApp { obs: obs.clone() })]);
        ctrl.set_obs(obs.clone());
        let mut sw = mk_switch(4);
        converge(&mut ctrl, &mut sw, 0);

        let out = ctrl.on_bytes(SimTime::ZERO, 0, &packet_in_bytes()).unwrap();
        assert_eq!(
            obs.traces.open_count(),
            1,
            "trace waits for the barrier ack"
        );
        // Ferry the flow-mod + barrier to the switch; it acks the barrier.
        let mut replies = Vec::new();
        for (_, b) in out.to_switch {
            replies.extend(
                sw.handle_controller_bytes(SimTime::ZERO, &b)
                    .unwrap()
                    .to_controller,
            );
        }
        for b in replies {
            ctrl.on_bytes(SimTime::ZERO, 0, &b).unwrap();
        }
        assert_eq!(obs.traces.open_count(), 0);
        assert_eq!(obs.traces.completed(), 1);
        let traces = obs.traces.tail(4);
        assert_eq!(traces.len(), 1);
        assert!(traces[0].stages.iter().any(|s| s.stage == "barrier_ack"));
        assert_eq!(
            obs.tracer
                .histogram("time_to_enforcement")
                .map(|h| h.count()),
            Some(1),
            "completion feeds the headline histogram"
        );
    }

    #[test]
    fn disconnect_abandons_half_open_traces() {
        let obs = sav_obs::Obs::with_tracing();
        let mut ctrl = Controller::new(vec![Box::new(TraceApp { obs: obs.clone() })]);
        ctrl.set_obs(obs.clone());
        let mut sw = mk_switch(4);
        converge(&mut ctrl, &mut sw, 0);

        // The barrier goes out but its reply is never delivered — the
        // channel dies first (crash/failover). The trace must be dropped
        // cleanly, not leaked half-open into a recovered controller.
        let _lost = ctrl.on_bytes(SimTime::ZERO, 0, &packet_in_bytes()).unwrap();
        assert_eq!(obs.traces.open_count(), 1);
        ctrl.on_disconnect(SimTime::ZERO, 0);
        assert_eq!(obs.traces.open_count(), 0, "no half-open trace survives");
        assert_eq!(obs.traces.abandoned(), 1);
        assert!(obs.traces.tail(4).is_empty(), "abandoned ≠ completed");
        assert_eq!(obs.counters.get("sav_traces_abandoned_total"), 1);
        assert_eq!(
            obs.tracer
                .histogram("time_to_enforcement")
                .map(|h| h.count()),
            None,
            "an unenforced binding must not pollute the latency histogram"
        );

        // Recovery: the switch reconnects and a fresh packet-in traces
        // end-to-end as usual.
        let mut sw2 = mk_switch(4);
        converge(&mut ctrl, &mut sw2, 1);
        let out = ctrl.on_bytes(SimTime::ZERO, 1, &packet_in_bytes()).unwrap();
        let mut replies = Vec::new();
        for (_, b) in out.to_switch {
            replies.extend(
                sw2.handle_controller_bytes(SimTime::ZERO, &b)
                    .unwrap()
                    .to_controller,
            );
        }
        for b in replies {
            ctrl.on_bytes(SimTime::ZERO, 1, &b).unwrap();
        }
        assert_eq!(obs.traces.completed(), 1);
        assert_eq!(obs.traces.abandoned(), 1, "old trace stays abandoned");
    }

    #[test]
    fn consumed_packet_in_stops_chain() {
        struct Eater;
        impl App for Eater {
            fn name(&self) -> &'static str {
                "eater"
            }
            fn on_packet_in(
                &mut self,
                _ctx: &mut Ctx,
                _dpid: u64,
                _pi: &sav_openflow::messages::PacketIn,
            ) -> Disposition {
                Disposition::Consumed
            }
        }
        let mut ctrl = Controller::new(vec![
            Box::new(Eater),
            Box::new(Probe {
                ups: vec![],
                packet_ins: 0,
            }),
        ]);
        let mut sw = mk_switch(7);
        converge(&mut ctrl, &mut sw, 0);
        let pi = sav_openflow::messages::PacketIn {
            buffer_id: sav_openflow::consts::NO_BUFFER,
            total_len: 0,
            reason: sav_openflow::messages::PacketInReason::NoMatch,
            table_id: 0,
            cookie: u64::MAX,
            match_: OxmMatch::new(),
            data: vec![],
        };
        ctrl.on_bytes(SimTime::ZERO, 0, &Message::PacketIn(pi).encode(1))
            .unwrap();
        ctrl.with_app::<Probe, _>(|p| assert_eq!(p.packet_ins, 0));
    }

    #[test]
    fn features_reply_with_wrong_xid_aborts_handshake() {
        let mut ctrl = Controller::new(vec![]);
        let greeting = ctrl.on_connect(0);
        assert!(!greeting.is_empty());
        // Peer says HELLO; controller asks for features with some xid.
        let out = ctrl
            .on_bytes(SimTime::ZERO, 0, &Message::Hello.encode(1))
            .unwrap();
        let (msg, req_xid) = Message::decode(&out.to_switch[0].1).unwrap();
        assert_eq!(msg, Message::FeaturesRequest);
        // Reply with a different xid: handshake must abort, not complete.
        let reply = sav_openflow::messages::FeaturesReply {
            datapath_id: 0x77,
            n_buffers: 0,
            n_tables: 1,
            auxiliary_id: 0,
            capabilities: 0,
        };
        let bytes = Message::FeaturesReply(reply).encode(req_xid.wrapping_add(9));
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &bytes).unwrap();
        assert_eq!(out.hangups, vec![0]);
        assert!(ctrl.ready_dpids().is_empty());
        assert_eq!(ctrl.stats.handshake_failures, 1);
    }

    /// In cluster mode the handshake asserts MASTER before apps run: the
    /// switch ends the converge loop mastered at our generation, and the
    /// app's switch-up flow-mod still lands (proving dispatch happens
    /// after the role exchange, not instead of it).
    #[test]
    fn master_generation_inserts_role_exchange_into_handshake() {
        let mut ctrl = Controller::new(vec![Box::new(Probe {
            ups: vec![],
            packet_ins: 0,
        })]);
        ctrl.set_master_generation(7);
        let mut sw = mk_switch(0x42);
        converge(&mut ctrl, &mut sw, 0);
        assert_eq!(ctrl.ready_dpids(), vec![0x42]);
        assert_eq!(sw.role(), sav_openflow::messages::ControllerRole::Master);
        assert_eq!(sw.master_generation(), Some(7));
        ctrl.with_app::<Probe, _>(|p| assert_eq!(p.ups, vec![0x42]));
        assert_eq!(sw.total_flows(), 1);
    }

    /// A deposed leader (older generation than the switch has seen) is
    /// fenced during the handshake: the switch's refusal surfaces as a
    /// `role_rejected` journal event and a hangup, apps never see the
    /// switch, and no flow-mod reaches it.
    #[test]
    fn stale_generation_is_rejected_before_apps_run() {
        let mut sw = mk_switch(0x42);
        // The switch has already been mastered at generation 9 by the
        // real leader.
        sw.handle_controller_bytes(
            SimTime::ZERO,
            &Message::RoleRequest(sav_openflow::messages::RoleMsg {
                role: sav_openflow::messages::ControllerRole::Master,
                generation_id: 9,
            })
            .encode(1),
        )
        .unwrap();
        let _ = sw.on_control_reconnect();

        let obs = Obs::new();
        let mut ctrl = Controller::new(vec![Box::new(Probe {
            ups: vec![],
            packet_ins: 0,
        })]);
        ctrl.set_obs(obs.clone());
        ctrl.set_master_generation(3); // stale: 3 < 9
        let now = SimTime::ZERO;
        let mut to_switch = vec![ctrl.on_connect(0)];
        let mut to_ctrl = vec![sw.hello()];
        let mut hung_up = false;
        while !hung_up && (!to_switch.is_empty() || !to_ctrl.is_empty()) {
            let mut next_to_ctrl = Vec::new();
            for b in to_switch.drain(..) {
                let out = sw.handle_controller_bytes(now, &b).unwrap();
                next_to_ctrl.extend(out.to_controller);
            }
            let mut next_to_switch = Vec::new();
            for b in to_ctrl.drain(..) {
                let out = ctrl.on_bytes(now, 0, &b).unwrap();
                hung_up |= !out.hangups.is_empty();
                next_to_switch.extend(out.to_switch.into_iter().map(|(_, b)| b));
            }
            to_switch = next_to_switch;
            to_ctrl = next_to_ctrl;
        }
        assert!(hung_up, "stale leader must be hung up on");
        assert!(ctrl.ready_dpids().is_empty());
        assert_eq!(ctrl.stats.role_rejections, 1);
        ctrl.with_app::<Probe, _>(|p| assert!(p.ups.is_empty(), "apps must not run"));
        assert_eq!(sw.total_flows(), 0, "no flow from the fenced leader");
        assert!(obs.journal.tail_jsonl(1).contains("role_rejected"));
    }

    #[test]
    fn echo_roundtrip_counts_and_surfaces_payload() {
        let mut ctrl = Controller::new(vec![]);
        let mut sw = mk_switch(2);
        converge(&mut ctrl, &mut sw, 0);
        // Controller-initiated keepalive...
        let req = ctrl.send_echo(0, b"t=123".to_vec()).unwrap();
        assert_eq!(ctrl.stats.echo_sent, 1);
        // ...answered by the real switch...
        let out = sw.handle_controller_bytes(SimTime::ZERO, &req).unwrap();
        let mut reply_bytes = Vec::new();
        for b in out.to_controller {
            reply_bytes.extend_from_slice(&b);
        }
        // ...and the reply's payload surfaces for RTT matching.
        let out = ctrl.on_bytes(SimTime::ZERO, 0, &reply_bytes).unwrap();
        assert_eq!(out.echo_replies, vec![(0, b"t=123".to_vec())]);
        assert_eq!(ctrl.stats.echo_replies, 1);
        // Switch-initiated echo is still answered and now counted.
        let bytes =
            Message::EchoRequest(sav_openflow::messages::EchoData(b"hb".to_vec())).encode(5);
        ctrl.on_bytes(SimTime::ZERO, 0, &bytes).unwrap();
        assert_eq!(ctrl.stats.echo_requests, 1);
    }
}
