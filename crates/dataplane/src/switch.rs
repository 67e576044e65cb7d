//! [`OpenFlowSwitch`] — a sans-IO OpenFlow 1.3 switch.
//!
//! The switch has two inputs and two outputs, all plain data:
//!
//! * control channel in: raw bytes from the controller
//!   ([`OpenFlowSwitch::handle_controller_bytes`]) — parsed with the real
//!   `sav-openflow` deframer/codec;
//! * data plane in: Ethernet frames arriving on ports
//!   ([`OpenFlowSwitch::receive_frame`]);
//! * control channel out / data plane out: collected in [`SwitchOutput`].
//!
//! The pipeline follows OpenFlow 1.3 semantics: packets enter table 0,
//! `Goto-Table` moves them forward, `Apply-Actions` executes immediately,
//! `Write-Actions`/`Clear-Actions` maintain the action set, and the action
//! set executes when the pipeline stops. A packet that misses in a table is
//! dropped (the controller installs explicit table-miss entries to punt).

use crate::flow_table::{FlowModOutcome, FlowTable};
use crate::matcher::MatchContext;
use sav_net::packet::ParsedPacket;
use sav_openflow::consts::{
    error_type, flow_mod_failed, flow_mod_flags, port, role_request_failed, table, NO_BUFFER,
};
use sav_openflow::error::CodecError;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{
    generation_is_stale, ControllerRole, ErrorMsg, FeaturesReply, FlowMod, FlowRemoved,
    FlowRemovedReason, FlowStatsEntry, Message, MultipartReplyBody, MultipartRequestBody, PacketIn,
    PacketInReason, PortStats, PortStatus, PortStatusReason, RoleMsg,
    SwitchConfig as WireSwitchConfig, TableStats,
};
use sav_openflow::oxm::{OxmField, OxmMatch};
use sav_openflow::ports::{PortDesc, PortState};
use sav_openflow::prelude::{Action, Instruction};
use sav_sim::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Static switch parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Datapath id reported in FEATURES_REPLY.
    pub datapath_id: u64,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Per-table flow capacity (models TCAM size).
    pub max_entries_per_table: usize,
    /// PACKET_IN buffer slots.
    pub n_buffers: u32,
}

impl SwitchConfig {
    /// Defaults modelled on a small hardware switch: 4 tables, 8k flows
    /// per table, 256 buffers.
    pub fn new(datapath_id: u64) -> SwitchConfig {
        SwitchConfig {
            datapath_id,
            n_tables: 4,
            max_entries_per_table: 8192,
            n_buffers: 256,
        }
    }
}

/// Per-port traffic counters (the subset reported in port stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortCounters {
    /// Packets received.
    pub rx_packets: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Received packets dropped by the pipeline.
    pub rx_dropped: u64,
    /// Transmissions suppressed (port down / missing).
    pub tx_dropped: u64,
}

/// What a switch wants the outside world to do after an input.
#[derive(Debug, Default)]
pub struct SwitchOutput {
    /// Encoded OpenFlow messages for the controller, in order.
    pub to_controller: Vec<Vec<u8>>,
    /// Frames to transmit: `(egress port, frame bytes)`.
    pub tx: Vec<(u32, Vec<u8>)>,
}

impl SwitchOutput {
    fn merge(&mut self, other: SwitchOutput) {
        self.to_controller.extend(other.to_controller);
        self.tx.extend(other.tx);
    }
}

/// A software OpenFlow 1.3 switch.
pub struct OpenFlowSwitch {
    config: SwitchConfig,
    miss_send_len: u16,
    tables: Vec<FlowTable>,
    ports: BTreeMap<u32, PortDesc>,
    counters: BTreeMap<u32, PortCounters>,
    port_up_since: BTreeMap<u32, SimTime>,
    buffers: HashMap<u32, (u32, Vec<u8>)>, // buffer_id -> (in_port, frame)
    next_buffer_id: u32,
    deframer: Deframer,
    next_xid: u32,
    /// Role of the current control connection (OF1.3 §6.3.6). Resets to
    /// EQUAL on reconnect — a new connection must re-assert mastership.
    role: ControllerRole,
    /// Highest master-election generation ever accepted. Survives
    /// reconnects so a resurrected stale master cannot fence itself back
    /// in with an old generation_id.
    master_generation: Option<u64>,
    /// Frames dropped because they failed to parse at all.
    pub malformed_rx: u64,
}

impl OpenFlowSwitch {
    /// Create a switch with the given ports (all initially up).
    pub fn new(config: SwitchConfig, ports: Vec<PortDesc>) -> OpenFlowSwitch {
        let tables = (0..config.n_tables)
            .map(|_| FlowTable::new(config.max_entries_per_table))
            .collect();
        let counters = ports
            .iter()
            .map(|p| (p.port_no, PortCounters::default()))
            .collect();
        let port_up_since = ports.iter().map(|p| (p.port_no, SimTime::ZERO)).collect();
        OpenFlowSwitch {
            config,
            miss_send_len: 0xffff,
            tables,
            ports: ports.into_iter().map(|p| (p.port_no, p)).collect(),
            counters,
            port_up_since,
            buffers: HashMap::new(),
            next_buffer_id: 1,
            deframer: Deframer::new(),
            next_xid: 0x8000_0000, // switch-initiated xids live in the top half
            role: ControllerRole::Equal,
            master_generation: None,
            malformed_rx: 0,
        }
    }

    /// The datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.config.datapath_id
    }

    /// Port numbers currently configured.
    pub fn port_numbers(&self) -> Vec<u32> {
        self.ports.keys().copied().collect()
    }

    /// Per-port counters.
    pub fn port_counters(&self, port_no: u32) -> Option<&PortCounters> {
        self.counters.get(&port_no)
    }

    /// Flows installed in `table_id`.
    pub fn flow_count(&self, table_id: u8) -> usize {
        self.tables
            .get(usize::from(table_id))
            .map(FlowTable::len)
            .unwrap_or(0)
    }

    /// Total flows across all tables.
    pub fn total_flows(&self) -> usize {
        self.tables.iter().map(FlowTable::len).sum()
    }

    /// Borrow a flow table (e.g. for assertions in tests).
    pub fn table(&self, table_id: u8) -> Option<&FlowTable> {
        self.tables.get(usize::from(table_id))
    }

    fn fresh_xid(&mut self) -> u32 {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.next_xid
    }

    /// The greeting the switch sends when its control channel connects.
    pub fn hello(&mut self) -> Vec<u8> {
        let xid = self.fresh_xid();
        Message::Hello.encode(xid)
    }

    /// Feed bytes arriving on the control channel. Codec failures poison the
    /// connection (returned as `Err`); the caller should send
    /// [`OpenFlowSwitch::goodbye`] (if any) and drop the channel.
    pub fn handle_controller_bytes(
        &mut self,
        now: SimTime,
        bytes: &[u8],
    ) -> Result<SwitchOutput, CodecError> {
        self.deframer.push(bytes)?;
        let mut out = SwitchOutput::default();
        while let Some((msg, xid)) = self.deframer.next_message()? {
            out.merge(self.handle_message(now, msg, xid));
        }
        Ok(out)
    }

    /// The farewell to write before closing a poisoned control channel.
    ///
    /// A peer speaking another OpenFlow version gets a HELLO_FAILED /
    /// INCOMPATIBLE error, per OF1.3 §6.3.1; other codec failures get
    /// BAD_REQUEST. Garbage that never framed a message gets nothing.
    pub fn goodbye(&mut self, err: CodecError) -> Option<Vec<u8>> {
        let (err_type, code) = match err {
            CodecError::BadVersion(_) => (error_type::HELLO_FAILED, 0), // OFPHFC_INCOMPATIBLE
            CodecError::BufferOverflow | CodecError::BadLength => return None,
            _ => (error_type::BAD_REQUEST, 1), // OFPBRC_BAD_TYPE
        };
        let xid = self.fresh_xid();
        Some(
            Message::Error(ErrorMsg {
                err_type,
                code,
                data: vec![],
            })
            .encode(xid),
        )
    }

    /// The control channel reconnected: discard the old connection's stream
    /// state (including any poison) and greet the controller again. Flow
    /// tables are kept — the controller re-syncs them after the handshake.
    /// The connection's role resets to EQUAL, but the highest accepted
    /// `master_generation` persists: whoever reconnects must prove
    /// mastership with a generation at least as new.
    pub fn on_control_reconnect(&mut self) -> Vec<u8> {
        self.deframer = Deframer::new();
        self.role = ControllerRole::Equal;
        self.hello()
    }

    /// Role of the current control connection.
    pub fn role(&self) -> ControllerRole {
        self.role
    }

    /// Highest master-election generation accepted so far.
    pub fn master_generation(&self) -> Option<u64> {
        self.master_generation
    }

    /// Process one decoded controller message.
    pub fn handle_message(&mut self, now: SimTime, msg: Message, xid: u32) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        match msg {
            Message::Hello => {}
            Message::EchoRequest(d) => {
                out.to_controller.push(Message::EchoReply(d).encode(xid));
            }
            Message::EchoReply(_) | Message::Error(_) => {}
            Message::FeaturesRequest => {
                let reply = FeaturesReply {
                    datapath_id: self.config.datapath_id,
                    n_buffers: self.config.n_buffers,
                    n_tables: self.config.n_tables,
                    auxiliary_id: 0,
                    capabilities: 0x0000_0047, // FLOW_STATS|TABLE_STATS|PORT_STATS|QUEUE? (0x47 as commonly reported)
                };
                out.to_controller
                    .push(Message::FeaturesReply(reply).encode(xid));
            }
            Message::GetConfigRequest => {
                out.to_controller.push(
                    Message::GetConfigReply(WireSwitchConfig {
                        flags: 0,
                        miss_send_len: self.miss_send_len,
                    })
                    .encode(xid),
                );
            }
            Message::SetConfig(c) => {
                self.miss_send_len = c.miss_send_len;
            }
            Message::RoleRequest(m) => {
                out.merge(self.handle_role_request(m, xid));
            }
            Message::FlowMod(fm) => {
                if let Some(err) = self.fence_non_master(xid) {
                    out.to_controller.push(err);
                    return out;
                }
                out.merge(self.handle_flow_mod(now, fm, xid));
            }
            Message::PacketOut(po) => {
                if let Some(err) = self.fence_non_master(xid) {
                    out.to_controller.push(err);
                    return out;
                }
                let frame = if po.buffer_id != NO_BUFFER {
                    match self.buffers.remove(&po.buffer_id) {
                        Some((_, frame)) => frame,
                        None => {
                            out.to_controller.push(
                                Message::Error(ErrorMsg {
                                    err_type: error_type::BAD_REQUEST,
                                    code: 8, // OFPBRC_BUFFER_UNKNOWN
                                    data: vec![],
                                })
                                .encode(xid),
                            );
                            return out;
                        }
                    }
                } else {
                    po.data
                };
                out.merge(self.execute_actions(now, po.in_port, &po.actions, frame));
            }
            Message::MultipartRequest(body) => {
                out.to_controller
                    .extend(self.handle_multipart(now, body, xid));
            }
            Message::BarrierRequest => {
                out.to_controller.push(Message::BarrierReply.encode(xid));
            }
            // Controller-bound messages arriving at a switch are protocol
            // misuse; answer with BAD_REQUEST like a real switch.
            Message::FeaturesReply(_)
            | Message::GetConfigReply(_)
            | Message::PacketIn(_)
            | Message::FlowRemoved(_)
            | Message::PortStatus(_)
            | Message::MultipartReply(_)
            | Message::MultipartReplyMore(_)
            | Message::RoleReply(_)
            | Message::BarrierReply => {
                out.to_controller.push(
                    Message::Error(ErrorMsg {
                        err_type: error_type::BAD_REQUEST,
                        code: 1, // OFPBRC_BAD_TYPE
                        data: vec![],
                    })
                    .encode(xid),
                );
            }
        }
        out
    }

    /// OFPT_ROLE_REQUEST, per OF1.3 §6.3.6. MASTER/SLAVE requests carry a
    /// generation_id; one older than the highest accepted so far is a
    /// fenced-out stale master and gets ROLE_REQUEST_FAILED / STALE.
    /// NOCHANGE queries the current role; EQUAL needs no generation.
    fn handle_role_request(&mut self, m: RoleMsg, xid: u32) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        match m.role {
            ControllerRole::NoChange => {}
            ControllerRole::Equal => self.role = ControllerRole::Equal,
            ControllerRole::Master | ControllerRole::Slave => {
                if let Some(current) = self.master_generation {
                    if generation_is_stale(m.generation_id, current) {
                        out.to_controller.push(
                            Message::Error(ErrorMsg {
                                err_type: error_type::ROLE_REQUEST_FAILED,
                                code: role_request_failed::STALE,
                                data: vec![],
                            })
                            .encode(xid),
                        );
                        return out;
                    }
                }
                self.master_generation = Some(m.generation_id);
                self.role = m.role;
            }
        }
        out.to_controller.push(
            Message::RoleReply(RoleMsg {
                role: self.role,
                generation_id: self.master_generation.unwrap_or(m.generation_id),
            })
            .encode(xid),
        );
        out
    }

    /// The split-brain fence: once any controller has asserted mastership
    /// (a generation exists), state-changing messages from a connection
    /// that has not proven itself MASTER are refused with BAD_REQUEST /
    /// IS_SLAVE. Before the first role assertion every connection has
    /// full EQUAL access, so single-controller deployments are untouched.
    fn fence_non_master(&mut self, xid: u32) -> Option<Vec<u8>> {
        if self.master_generation.is_none() || self.role == ControllerRole::Master {
            return None;
        }
        Some(
            Message::Error(ErrorMsg {
                err_type: error_type::BAD_REQUEST,
                code: 10, // OFPBRC_IS_SLAVE
                data: vec![],
            })
            .encode(xid),
        )
    }

    fn handle_flow_mod(&mut self, now: SimTime, fm: FlowMod, xid: u32) -> SwitchOutput {
        use sav_openflow::messages::FlowModCommand::*;
        let mut out = SwitchOutput::default();
        if let Err(_e) = fm.match_.validate_prerequisites() {
            out.to_controller.push(
                Message::Error(ErrorMsg {
                    err_type: error_type::BAD_MATCH,
                    code: 11, // OFPBMC_BAD_PREREQ
                    data: vec![],
                })
                .encode(xid),
            );
            return out;
        }
        // Resolve target tables.
        if fm.table_id == table::ALL && matches!(fm.command, Delete | DeleteStrict) {
            for tid in 0..self.tables.len() {
                let removed = self.tables[tid].delete(&fm);
                out.merge(self.emit_flow_removed(now, tid as u8, removed));
            }
            return out;
        }
        let tid = usize::from(fm.table_id);
        if tid >= self.tables.len() {
            out.to_controller.push(
                Message::Error(ErrorMsg {
                    err_type: error_type::FLOW_MOD_FAILED,
                    code: flow_mod_failed::BAD_TABLE_ID,
                    data: vec![],
                })
                .encode(xid),
            );
            return out;
        }
        match fm.command {
            Add => {
                match self.tables[tid].add(&fm, now) {
                    FlowModOutcome::Ok => {
                        // Apply to a buffered packet if requested.
                        if fm.buffer_id != NO_BUFFER {
                            if let Some((in_port, frame)) = self.buffers.remove(&fm.buffer_id) {
                                out.merge(self.run_pipeline(now, in_port, frame, 0));
                            }
                        }
                    }
                    FlowModOutcome::Overlap => {
                        out.to_controller.push(
                            Message::Error(ErrorMsg {
                                err_type: error_type::FLOW_MOD_FAILED,
                                code: flow_mod_failed::OVERLAP,
                                data: vec![],
                            })
                            .encode(xid),
                        );
                    }
                    FlowModOutcome::TableFull => {
                        out.to_controller.push(
                            Message::Error(ErrorMsg {
                                err_type: error_type::FLOW_MOD_FAILED,
                                code: flow_mod_failed::TABLE_FULL,
                                data: vec![],
                            })
                            .encode(xid),
                        );
                    }
                }
            }
            Modify | ModifyStrict => {
                self.tables[tid].modify(&fm);
            }
            Delete | DeleteStrict => {
                let removed = self.tables[tid].delete(&fm);
                out.merge(self.emit_flow_removed(now, fm.table_id, removed));
            }
        }
        out
    }

    fn emit_flow_removed(
        &mut self,
        now: SimTime,
        table_id: u8,
        removed: Vec<crate::flow_table::FlowEntry>,
    ) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        for e in removed {
            if e.flags & flow_mod_flags::SEND_FLOW_REM == 0 {
                continue;
            }
            let (duration_sec, duration_nsec) = e.duration(now);
            let xid = self.fresh_xid();
            out.to_controller.push(
                Message::FlowRemoved(FlowRemoved {
                    cookie: e.cookie,
                    priority: e.priority,
                    reason: FlowRemovedReason::Delete,
                    table_id,
                    duration_sec,
                    duration_nsec,
                    idle_timeout: e.idle_timeout,
                    hard_timeout: e.hard_timeout,
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                    match_: e.match_,
                })
                .encode(xid),
            );
        }
        out
    }

    /// Answer a multipart request: one reply message, or several
    /// REPLY_MORE-chained parts when the body exceeds one message.
    fn handle_multipart(
        &mut self,
        now: SimTime,
        body: MultipartRequestBody,
        xid: u32,
    ) -> Vec<Vec<u8>> {
        let reply = match body {
            MultipartRequestBody::Flow(req) => {
                let mut entries = Vec::new();
                let table_ids: Vec<u8> = if req.table_id == table::ALL {
                    (0..self.config.n_tables).collect()
                } else {
                    vec![req.table_id]
                };
                for tid in table_ids {
                    let Some(t) = self.tables.get(usize::from(tid)) else {
                        continue;
                    };
                    for e in t.entries() {
                        if req.cookie_mask != 0
                            && (e.cookie & req.cookie_mask) != (req.cookie & req.cookie_mask)
                        {
                            continue;
                        }
                        let (duration_sec, duration_nsec) = e.duration(now);
                        entries.push(FlowStatsEntry {
                            table_id: tid,
                            duration_sec,
                            duration_nsec,
                            priority: e.priority,
                            idle_timeout: e.idle_timeout,
                            hard_timeout: e.hard_timeout,
                            flags: e.flags,
                            cookie: e.cookie,
                            packet_count: e.packet_count,
                            byte_count: e.byte_count,
                            match_: e.match_.clone(),
                            instructions: e.instructions.clone(),
                        });
                    }
                }
                MultipartReplyBody::Flow(entries)
            }
            MultipartRequestBody::PortStats { port_no } => {
                let mut stats = Vec::new();
                for (no, c) in &self.counters {
                    if port_no != port::ANY && *no != port_no {
                        continue;
                    }
                    let up_since = self.port_up_since.get(no).copied().unwrap_or(SimTime::ZERO);
                    stats.push(PortStats {
                        port_no: *no,
                        rx_packets: c.rx_packets,
                        tx_packets: c.tx_packets,
                        rx_bytes: c.rx_bytes,
                        tx_bytes: c.tx_bytes,
                        rx_dropped: c.rx_dropped,
                        tx_dropped: c.tx_dropped,
                        duration_sec: (now.saturating_since(up_since).as_secs_f64()) as u32,
                    });
                }
                MultipartReplyBody::PortStats(stats)
            }
            MultipartRequestBody::Table => {
                let stats = self
                    .tables
                    .iter()
                    .enumerate()
                    .map(|(i, t)| TableStats {
                        table_id: i as u8,
                        active_count: t.len() as u32,
                        lookup_count: t.lookup_count,
                        matched_count: t.matched_count,
                    })
                    .collect();
                MultipartReplyBody::Table(stats)
            }
            MultipartRequestBody::PortDesc => {
                MultipartReplyBody::PortDesc(self.ports.values().cloned().collect())
            }
        };
        reply.encode_parts(xid)
    }

    /// A frame arrives on `in_port`. Runs the pipeline from table 0.
    pub fn receive_frame(&mut self, now: SimTime, in_port: u32, frame: Vec<u8>) -> SwitchOutput {
        let Some(desc) = self.ports.get(&in_port) else {
            self.malformed_rx += 1;
            return SwitchOutput::default();
        };
        if !desc.is_up() {
            return SwitchOutput::default();
        }
        {
            let c = self.counters.entry(in_port).or_default();
            c.rx_packets += 1;
            c.rx_bytes += frame.len() as u64;
        }
        self.run_pipeline(now, in_port, frame, 0)
    }

    fn run_pipeline(
        &mut self,
        now: SimTime,
        in_port: u32,
        frame: Vec<u8>,
        start_table: u8,
    ) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        let parsed = match ParsedPacket::parse(&frame) {
            Ok(p) => p,
            Err(_) => {
                self.malformed_rx += 1;
                if let Some(c) = self.counters.get_mut(&in_port) {
                    c.rx_dropped += 1;
                }
                return out;
            }
        };
        let mut table_id = start_table;
        let mut action_set: Vec<Action> = Vec::new();
        let mut matched_cookie = u64::MAX;
        let mut matched_table = start_table;
        while let Some(t) = self.tables.get_mut(usize::from(table_id)) {
            let ctx = MatchContext {
                in_port,
                packet: &parsed,
            };
            let Some((instructions, cookie)) = t.lookup(&ctx, now, frame.len()) else {
                // Table miss with no miss entry: drop (OF1.3 §5.4).
                if let Some(c) = self.counters.get_mut(&in_port) {
                    c.rx_dropped += 1;
                }
                return out;
            };
            matched_cookie = cookie;
            matched_table = table_id;
            let mut goto = None;
            for ins in instructions {
                match ins {
                    Instruction::ApplyActions(actions) => {
                        out.merge(self.apply_actions_immediate(
                            now,
                            in_port,
                            &actions,
                            &frame,
                            matched_cookie,
                            matched_table,
                        ));
                    }
                    Instruction::WriteActions(actions) => {
                        for a in actions {
                            // The action set holds at most one output; the
                            // latest write wins (OF1.3 §5.10).
                            if matches!(a, Action::Output { .. }) {
                                action_set.retain(|x| !matches!(x, Action::Output { .. }));
                            }
                            action_set.push(a);
                        }
                    }
                    Instruction::ClearActions => action_set.clear(),
                    Instruction::GotoTable(t) => goto = Some(t),
                    Instruction::Meter(_) => {} // accepted, not rate-limited
                }
            }
            match goto {
                Some(next) if next > table_id => table_id = next,
                _ => break,
            }
        }
        if !action_set.is_empty() {
            let set = std::mem::take(&mut action_set);
            out.merge(self.apply_actions_immediate(
                now,
                in_port,
                &set,
                &frame,
                matched_cookie,
                matched_table,
            ));
        }
        out
    }

    /// Execute an action list on a packet-out (public path; used by the
    /// PACKET_OUT handler and tests).
    pub fn execute_actions(
        &mut self,
        now: SimTime,
        in_port: u32,
        actions: &[Action],
        frame: Vec<u8>,
    ) -> SwitchOutput {
        self.apply_actions_immediate(now, in_port, actions, &frame, u64::MAX, 0)
    }

    fn apply_actions_immediate(
        &mut self,
        now: SimTime,
        in_port: u32,
        actions: &[Action],
        frame: &[u8],
        cookie: u64,
        table_id: u8,
    ) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        let mut frame = frame.to_vec();
        for a in actions {
            match a {
                Action::SetField(f) => {
                    // Supported rewrites: Ethernet addresses (enough for the
                    // L2 use-cases in this workspace). Others are ignored.
                    match f {
                        OxmField::EthSrc(mac, None) if frame.len() >= 12 => {
                            frame[6..12].copy_from_slice(mac.as_bytes());
                        }
                        OxmField::EthDst(mac, None) if frame.len() >= 12 => {
                            frame[0..6].copy_from_slice(mac.as_bytes());
                        }
                        _ => {}
                    }
                }
                Action::Group(_) => {
                    // Groups are out of scope; a real switch without group
                    // support would have rejected the flow-mod — emitting a
                    // late error keeps the contract visible.
                    let xid = self.fresh_xid();
                    out.to_controller.push(
                        Message::Error(ErrorMsg {
                            err_type: error_type::BAD_ACTION,
                            code: 9, // OFPBAC_BAD_OUT_GROUP
                            data: vec![],
                        })
                        .encode(xid),
                    );
                }
                Action::Output { port: p, max_len } => match *p {
                    port::CONTROLLER => {
                        out.to_controller
                            .push(self.make_packet_in(in_port, &frame, *max_len, cookie, table_id));
                    }
                    port::FLOOD | port::ALL => {
                        let ports: Vec<u32> = self
                            .ports
                            .values()
                            .filter(|d| d.is_up() && d.port_no != in_port)
                            .map(|d| d.port_no)
                            .collect();
                        for p in ports {
                            self.tx_frame(&mut out, p, frame.clone());
                        }
                    }
                    port::IN_PORT => self.tx_frame(&mut out, in_port, frame.clone()),
                    port::TABLE => {
                        out.merge(self.run_pipeline(now, in_port, frame.clone(), 0));
                    }
                    port::LOCAL | port::NORMAL | port::ANY => {}
                    p => self.tx_frame(&mut out, p, frame.clone()),
                },
            }
        }
        out
    }

    fn tx_frame(&mut self, out: &mut SwitchOutput, port_no: u32, frame: Vec<u8>) {
        match self.ports.get(&port_no) {
            Some(d) if d.is_up() => {
                let c = self.counters.entry(port_no).or_default();
                c.tx_packets += 1;
                c.tx_bytes += frame.len() as u64;
                out.tx.push((port_no, frame));
            }
            _ => {
                let c = self.counters.entry(port_no).or_default();
                c.tx_dropped += 1;
            }
        }
    }

    fn make_packet_in(
        &mut self,
        in_port: u32,
        frame: &[u8],
        max_len: u16,
        cookie: u64,
        table_id: u8,
    ) -> Vec<u8> {
        let total_len = frame.len() as u16;
        let send_len = usize::from(max_len.min(self.miss_send_len)).min(frame.len());
        let (buffer_id, data) =
            if send_len < frame.len() && self.buffers.len() < self.config.n_buffers as usize {
                let id = self.next_buffer_id;
                self.next_buffer_id = self.next_buffer_id.wrapping_add(1).max(1);
                self.buffers.insert(id, (in_port, frame.to_vec()));
                (id, frame[..send_len].to_vec())
            } else {
                (NO_BUFFER, frame.to_vec())
            };
        let reason = if cookie == u64::MAX {
            PacketInReason::NoMatch
        } else {
            PacketInReason::Action
        };
        let xid = self.fresh_xid();
        Message::PacketIn(PacketIn {
            buffer_id,
            total_len,
            reason,
            table_id,
            cookie,
            match_: OxmMatch::new().with(OxmField::InPort(in_port)),
            data,
        })
        .encode(xid)
    }

    /// Administratively flip a port's link state, emitting PORT_STATUS.
    pub fn set_port_up(&mut self, now: SimTime, port_no: u32, up: bool) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        let Some(desc) = self.ports.get_mut(&port_no) else {
            return out;
        };
        let was_up = desc.is_up();
        desc.state = if up {
            PortState::LIVE
        } else {
            PortState::LINK_DOWN
        };
        if up && !was_up {
            self.port_up_since.insert(port_no, now);
        }
        if was_up != up {
            let xid = self.fresh_xid();
            out.to_controller.push(
                Message::PortStatus(PortStatus {
                    reason: PortStatusReason::Modify,
                    desc: self.ports[&port_no].clone(),
                })
                .encode(xid),
            );
        }
        out
    }

    /// Expire timed-out flows; returns FLOW_REMOVED notifications for those
    /// installed with `SEND_FLOW_REM`.
    pub fn tick(&mut self, now: SimTime) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        for tid in 0..self.tables.len() {
            let expired = self.tables[tid].expire(now);
            for (e, reason) in expired {
                if e.flags & flow_mod_flags::SEND_FLOW_REM == 0 {
                    continue;
                }
                let (duration_sec, duration_nsec) = e.duration(now);
                let xid = self.fresh_xid();
                out.to_controller.push(
                    Message::FlowRemoved(FlowRemoved {
                        cookie: e.cookie,
                        priority: e.priority,
                        reason,
                        table_id: tid as u8,
                        duration_sec,
                        duration_nsec,
                        idle_timeout: e.idle_timeout,
                        hard_timeout: e.hard_timeout,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        match_: e.match_,
                    })
                    .encode(xid),
                );
            }
        }
        out
    }

    /// Earliest future instant any installed flow could expire.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.tables.iter().filter_map(FlowTable::next_expiry).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_net::builder::build_ipv4_udp;
    use sav_net::prelude::*;
    use sav_openflow::ports::PortDesc as OfPortDesc;

    fn mk_switch(nports: u32) -> OpenFlowSwitch {
        let ports = (1..=nports)
            .map(|i| OfPortDesc::new(i, sav_net::addr::MacAddr::from_index(0x100 + u64::from(i))))
            .collect();
        OpenFlowSwitch::new(SwitchConfig::new(0xd1), ports)
    }

    fn udp_frame(src_ip: &str, dst_ip: &str) -> Vec<u8> {
        let udp = UdpRepr {
            src_port: 1000,
            dst_port: 2000,
            payload_len: 4,
        };
        let ip = Ipv4Repr::udp(
            src_ip.parse().unwrap(),
            dst_ip.parse().unwrap(),
            udp.buffer_len(),
        );
        let eth = EthernetRepr {
            src: MacAddr::from_index(1),
            dst: MacAddr::from_index(2),
            ethertype: EtherType::Ipv4,
        };
        build_ipv4_udp(&eth, &ip, &udp, b"data")
    }

    fn decode_all(out: &SwitchOutput) -> Vec<Message> {
        out.to_controller
            .iter()
            .map(|b| Message::decode(b).unwrap().0)
            .collect()
    }

    fn flow_mod(sw: &mut OpenFlowSwitch, fm: FlowMod) -> SwitchOutput {
        let bytes = Message::FlowMod(fm).encode(1);
        sw.handle_controller_bytes(SimTime::ZERO, &bytes).unwrap()
    }

    #[test]
    fn handshake_over_bytes() {
        let mut sw = mk_switch(2);
        let hello = Message::Hello.encode(1);
        let feat = Message::FeaturesRequest.encode(2);
        let mut stream = hello;
        stream.extend_from_slice(&feat);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &stream).unwrap();
        let msgs = decode_all(&out);
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::FeaturesReply(f) => {
                assert_eq!(f.datapath_id, 0xd1);
                assert_eq!(f.n_tables, 4);
            }
            other => panic!("expected FeaturesReply, got {other:?}"),
        }
    }

    #[test]
    fn echo_and_barrier_preserve_xid() {
        let mut sw = mk_switch(1);
        let out = sw
            .handle_controller_bytes(
                SimTime::ZERO,
                &Message::EchoRequest(sav_openflow::messages::EchoData(b"x".to_vec())).encode(77),
            )
            .unwrap();
        let (msg, xid) = Message::decode(&out.to_controller[0]).unwrap();
        assert_eq!(xid, 77);
        assert!(matches!(msg, Message::EchoReply(_)));
        let out = sw
            .handle_controller_bytes(SimTime::ZERO, &Message::BarrierRequest.encode(78))
            .unwrap();
        let (msg, xid) = Message::decode(&out.to_controller[0]).unwrap();
        assert_eq!(xid, 78);
        assert_eq!(msg, Message::BarrierReply);
    }

    #[test]
    fn miss_without_entry_drops() {
        let mut sw = mk_switch(2);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        assert!(out.tx.is_empty());
        assert!(out.to_controller.is_empty());
        assert_eq!(sw.port_counters(1).unwrap().rx_dropped, 1);
    }

    #[test]
    fn table_miss_entry_punts_to_controller() {
        let mut sw = mk_switch(2);
        let miss = FlowMod {
            priority: 0,
            instructions: vec![Instruction::apply_output(port::CONTROLLER)],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, miss);
        let frame = udp_frame("10.0.0.1", "10.0.0.2");
        let out = sw.receive_frame(SimTime::ZERO, 1, frame.clone());
        let msgs = decode_all(&out);
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::PacketIn(pi) => {
                assert_eq!(pi.in_port(), Some(1));
                assert_eq!(pi.data, frame);
                assert_eq!(pi.total_len as usize, frame.len());
                assert_eq!(pi.buffer_id, NO_BUFFER);
            }
            other => panic!("expected PacketIn, got {other:?}"),
        }
    }

    #[test]
    fn forwarding_via_flow() {
        let mut sw = mk_switch(3);
        let fm = FlowMod {
            priority: 10,
            instructions: vec![Instruction::apply_output(2)],
            ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(1)))
        };
        flow_mod(&mut sw, fm);
        let frame = udp_frame("10.0.0.1", "10.0.0.2");
        let out = sw.receive_frame(SimTime::ZERO, 1, frame.clone());
        assert_eq!(out.tx, vec![(2, frame)]);
        assert_eq!(sw.port_counters(2).unwrap().tx_packets, 1);
    }

    #[test]
    fn two_table_pipeline_sav_then_forward() {
        let mut sw = mk_switch(3);
        // Table 0: allow this binding, goto table 1. Default: drop (no miss entry).
        let allow = FlowMod {
            priority: 40_000,
            table_id: 0,
            instructions: vec![Instruction::GotoTable(1)],
            ..FlowMod::add(
                OxmMatch::new()
                    .with(OxmField::InPort(1))
                    .with(OxmField::EthType(0x0800))
                    .with(OxmField::Ipv4Src("10.0.0.1".parse().unwrap(), None)),
            )
        };
        flow_mod(&mut sw, allow);
        // Table 1: forward everything to port 3.
        let fwd = FlowMod {
            priority: 1,
            table_id: 1,
            instructions: vec![Instruction::apply_output(3)],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, fwd);

        // Legit packet goes through both tables.
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "8.8.8.8"));
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].0, 3);
        // Spoofed source dies in table 0.
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("99.9.9.9", "8.8.8.8"));
        assert!(out.tx.is_empty());
    }

    #[test]
    fn write_actions_execute_at_pipeline_end() {
        let mut sw = mk_switch(3);
        let t0 = FlowMod {
            priority: 1,
            table_id: 0,
            instructions: vec![
                Instruction::WriteActions(vec![Action::output(2)]),
                Instruction::GotoTable(1),
            ],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, t0);
        // Table 1 overrides the action-set output.
        let t1 = FlowMod {
            priority: 1,
            table_id: 1,
            instructions: vec![Instruction::WriteActions(vec![Action::output(3)])],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, t1);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        assert_eq!(out.tx.len(), 1, "single output from the action set");
        assert_eq!(out.tx[0].0, 3, "later write wins");
    }

    #[test]
    fn clear_actions_drops() {
        let mut sw = mk_switch(2);
        let t0 = FlowMod {
            priority: 1,
            table_id: 0,
            instructions: vec![
                Instruction::WriteActions(vec![Action::output(2)]),
                Instruction::GotoTable(1),
            ],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, t0);
        let t1 = FlowMod {
            priority: 1,
            table_id: 1,
            instructions: vec![Instruction::ClearActions],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, t1);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        assert!(out.tx.is_empty());
    }

    #[test]
    fn flood_excludes_ingress_and_down_ports() {
        let mut sw = mk_switch(4);
        sw.set_port_up(SimTime::ZERO, 3, false);
        let fm = FlowMod {
            priority: 1,
            instructions: vec![Instruction::apply_output(port::FLOOD)],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, fm);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        let mut ports: Vec<u32> = out.tx.iter().map(|(p, _)| *p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![2, 4]);
    }

    #[test]
    fn packet_out_transmits() {
        let mut sw = mk_switch(2);
        let frame = udp_frame("10.0.0.1", "10.0.0.2");
        let po = Message::PacketOut(sav_openflow::messages::PacketOut {
            buffer_id: NO_BUFFER,
            in_port: port::CONTROLLER,
            actions: vec![Action::output(2)],
            data: frame.clone(),
        })
        .encode(5);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &po).unwrap();
        assert_eq!(out.tx, vec![(2, frame)]);
    }

    #[test]
    fn packet_in_buffering_and_release() {
        let mut sw = mk_switch(2);
        // Truncate packet-ins to 32 bytes → switch buffers the frame.
        let sc = Message::SetConfig(WireSwitchConfig {
            flags: 0,
            miss_send_len: 32,
        })
        .encode(1);
        sw.handle_controller_bytes(SimTime::ZERO, &sc).unwrap();
        let miss = FlowMod {
            priority: 0,
            instructions: vec![Instruction::apply_output(port::CONTROLLER)],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, miss);

        let frame = udp_frame("10.0.0.1", "10.0.0.2");
        let out = sw.receive_frame(SimTime::ZERO, 1, frame.clone());
        let msgs = decode_all(&out);
        let Message::PacketIn(pi) = &msgs[0] else {
            panic!("expected PacketIn");
        };
        assert_ne!(pi.buffer_id, NO_BUFFER);
        assert_eq!(pi.data.len(), 32);
        assert_eq!(pi.total_len as usize, frame.len());

        // Controller releases the buffer out port 2.
        let po = Message::PacketOut(sav_openflow::messages::PacketOut {
            buffer_id: pi.buffer_id,
            in_port: 1,
            actions: vec![Action::output(2)],
            data: vec![],
        })
        .encode(9);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &po).unwrap();
        assert_eq!(out.tx, vec![(2, frame)]);
        // Releasing again is an error (buffer consumed).
        let po = Message::PacketOut(sav_openflow::messages::PacketOut {
            buffer_id: pi.buffer_id,
            in_port: 1,
            actions: vec![Action::output(2)],
            data: vec![],
        })
        .encode(10);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &po).unwrap();
        assert!(matches!(
            Message::decode(&out.to_controller[0]).unwrap().0,
            Message::Error(_)
        ));
    }

    #[test]
    fn bad_prereq_flow_mod_rejected() {
        let mut sw = mk_switch(1);
        let fm = FlowMod::add(
            OxmMatch::new().with(OxmField::Ipv4Src("10.0.0.1".parse().unwrap(), None)),
        );
        let out = flow_mod(&mut sw, fm);
        let msgs = decode_all(&out);
        match &msgs[0] {
            Message::Error(e) => assert_eq!(e.err_type, error_type::BAD_MATCH),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(sw.total_flows(), 0);
    }

    #[test]
    fn bad_table_id_rejected() {
        let mut sw = mk_switch(1);
        let fm = FlowMod {
            table_id: 9,
            ..FlowMod::add(OxmMatch::new())
        };
        let out = flow_mod(&mut sw, fm);
        match &decode_all(&out)[0] {
            Message::Error(e) => {
                assert_eq!(e.err_type, error_type::FLOW_MOD_FAILED);
                assert_eq!(e.code, flow_mod_failed::BAD_TABLE_ID);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn delete_with_send_flow_rem_notifies() {
        let mut sw = mk_switch(1);
        let fm = FlowMod {
            priority: 5,
            cookie: 0xc0ffee,
            flags: flow_mod_flags::SEND_FLOW_REM,
            ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(1)))
        };
        flow_mod(&mut sw, fm);
        let out = flow_mod(&mut sw, FlowMod::delete(0, OxmMatch::new()));
        match &decode_all(&out)[0] {
            Message::FlowRemoved(fr) => {
                assert_eq!(fr.cookie, 0xc0ffee);
                assert_eq!(fr.reason, FlowRemovedReason::Delete);
            }
            other => panic!("expected FlowRemoved, got {other:?}"),
        }
    }

    #[test]
    fn timeout_expiry_notifies() {
        let mut sw = mk_switch(1);
        let fm = FlowMod {
            priority: 5,
            hard_timeout: 2,
            flags: flow_mod_flags::SEND_FLOW_REM,
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, fm);
        assert_eq!(sw.next_expiry(), Some(SimTime::from_secs(2)));
        let out = sw.tick(SimTime::from_secs(2));
        match &decode_all(&out)[0] {
            Message::FlowRemoved(fr) => {
                assert_eq!(fr.reason, FlowRemovedReason::HardTimeout);
                assert_eq!(fr.duration_sec, 2);
            }
            other => panic!("expected FlowRemoved, got {other:?}"),
        }
        assert_eq!(sw.total_flows(), 0);
    }

    #[test]
    fn port_status_on_link_change() {
        let mut sw = mk_switch(2);
        let out = sw.set_port_up(SimTime::from_secs(1), 2, false);
        match &decode_all(&out)[0] {
            Message::PortStatus(ps) => {
                assert_eq!(ps.desc.port_no, 2);
                assert!(!ps.desc.is_up());
            }
            other => panic!("expected PortStatus, got {other:?}"),
        }
        // No duplicate event when state unchanged.
        let out = sw.set_port_up(SimTime::from_secs(2), 2, false);
        assert!(out.to_controller.is_empty());
    }

    #[test]
    fn rx_on_down_port_ignored() {
        let mut sw = mk_switch(2);
        sw.set_port_up(SimTime::ZERO, 1, false);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        assert!(out.tx.is_empty());
        assert_eq!(sw.port_counters(1).unwrap().rx_packets, 0);
    }

    #[test]
    fn multipart_flow_and_table_stats() {
        let mut sw = mk_switch(2);
        let fm = FlowMod {
            priority: 9,
            cookie: 0xabc,
            instructions: vec![Instruction::apply_output(2)],
            ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(1)))
        };
        flow_mod(&mut sw, fm);
        sw.receive_frame(SimTime::from_secs(1), 1, udp_frame("10.0.0.1", "10.0.0.2"));

        let req = Message::MultipartRequest(MultipartRequestBody::Flow(
            sav_openflow::messages::FlowStatsRequest::default(),
        ))
        .encode(3);
        let out = sw
            .handle_controller_bytes(SimTime::from_secs(2), &req)
            .unwrap();
        match &decode_all(&out)[0] {
            Message::MultipartReply(MultipartReplyBody::Flow(entries)) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].cookie, 0xabc);
                assert_eq!(entries[0].packet_count, 1);
                assert_eq!(entries[0].duration_sec, 2);
            }
            other => panic!("expected flow stats, got {other:?}"),
        }

        let req = Message::MultipartRequest(MultipartRequestBody::Table).encode(4);
        let out = sw
            .handle_controller_bytes(SimTime::from_secs(2), &req)
            .unwrap();
        match &decode_all(&out)[0] {
            Message::MultipartReply(MultipartReplyBody::Table(stats)) => {
                assert_eq!(stats.len(), 4);
                assert_eq!(stats[0].active_count, 1);
                assert_eq!(stats[0].lookup_count, 1);
                assert_eq!(stats[0].matched_count, 1);
            }
            other => panic!("expected table stats, got {other:?}"),
        }
    }

    #[test]
    fn multipart_port_desc_lists_ports() {
        let mut sw = mk_switch(3);
        let req = Message::MultipartRequest(MultipartRequestBody::PortDesc).encode(4);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &req).unwrap();
        match &decode_all(&out)[0] {
            Message::MultipartReply(MultipartReplyBody::PortDesc(ports)) => {
                assert_eq!(ports.len(), 3);
                assert_eq!(ports[0].port_no, 1);
            }
            other => panic!("expected port desc, got {other:?}"),
        }
    }

    #[test]
    fn set_field_rewrites_mac() {
        let mut sw = mk_switch(2);
        let new_dst = MacAddr::from_index(0xbeef);
        let fm = FlowMod {
            priority: 1,
            instructions: vec![Instruction::ApplyActions(vec![
                Action::SetField(OxmField::EthDst(new_dst, None)),
                Action::output(2),
            ])],
            ..FlowMod::add(OxmMatch::new())
        };
        flow_mod(&mut sw, fm);
        let out = sw.receive_frame(SimTime::ZERO, 1, udp_frame("10.0.0.1", "10.0.0.2"));
        let frame = &out.tx[0].1;
        let parsed = ParsedPacket::parse(frame).unwrap();
        assert_eq!(parsed.ethernet.dst, new_dst);
    }

    fn role_request(sw: &mut OpenFlowSwitch, role: ControllerRole, generation: u64) -> Message {
        let bytes = Message::RoleRequest(RoleMsg {
            role,
            generation_id: generation,
        })
        .encode(42);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &bytes).unwrap();
        decode_all(&out).remove(0)
    }

    #[test]
    fn role_request_grants_master_and_reports_generation() {
        let mut sw = mk_switch(1);
        assert_eq!(sw.role(), ControllerRole::Equal);
        assert_eq!(sw.master_generation(), None);
        match role_request(&mut sw, ControllerRole::Master, 7) {
            Message::RoleReply(m) => {
                assert_eq!(m.role, ControllerRole::Master);
                assert_eq!(m.generation_id, 7);
            }
            other => panic!("expected RoleReply, got {other:?}"),
        }
        assert_eq!(sw.role(), ControllerRole::Master);
        assert_eq!(sw.master_generation(), Some(7));
        // NOCHANGE queries without modifying anything.
        match role_request(&mut sw, ControllerRole::NoChange, 999) {
            Message::RoleReply(m) => {
                assert_eq!(m.role, ControllerRole::Master);
                assert_eq!(m.generation_id, 7);
            }
            other => panic!("expected RoleReply, got {other:?}"),
        }
    }

    #[test]
    fn stale_generation_rejected_and_role_unchanged() {
        let mut sw = mk_switch(1);
        role_request(&mut sw, ControllerRole::Master, 5);
        match role_request(&mut sw, ControllerRole::Master, 4) {
            Message::Error(e) => {
                assert_eq!(e.err_type, error_type::ROLE_REQUEST_FAILED);
                assert_eq!(e.code, role_request_failed::STALE);
            }
            other => panic!("expected stale error, got {other:?}"),
        }
        assert_eq!(sw.master_generation(), Some(5));
        // Equal or newer generations are accepted.
        match role_request(&mut sw, ControllerRole::Master, 6) {
            Message::RoleReply(m) => assert_eq!(m.generation_id, 6),
            other => panic!("expected RoleReply, got {other:?}"),
        }
    }

    #[test]
    fn generation_survives_reconnect_and_fences_stale_master() {
        let mut sw = mk_switch(2);
        role_request(&mut sw, ControllerRole::Master, 3);
        // The fenced connection dies; a reconnect resets the role but the
        // generation floor persists.
        sw.on_control_reconnect();
        assert_eq!(sw.role(), ControllerRole::Equal);
        assert_eq!(sw.master_generation(), Some(3));
        // The resurrected stale master replays its old generation: refused.
        match role_request(&mut sw, ControllerRole::Master, 2) {
            Message::Error(e) => assert_eq!(e.err_type, error_type::ROLE_REQUEST_FAILED),
            other => panic!("expected stale error, got {other:?}"),
        }
        // And without mastership its flow-mods are fenced too.
        let fm = FlowMod {
            priority: 1,
            instructions: vec![Instruction::apply_output(2)],
            ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(1)))
        };
        let out = flow_mod(&mut sw, fm.clone());
        match &decode_all(&out)[0] {
            Message::Error(e) => {
                assert_eq!(e.err_type, error_type::BAD_REQUEST);
                assert_eq!(e.code, 10); // OFPBRC_IS_SLAVE
            }
            other => panic!("expected IS_SLAVE error, got {other:?}"),
        }
        assert_eq!(sw.total_flows(), 0, "fenced flow-mod must not install");
        // The rightful new master (higher generation) still gets through.
        role_request(&mut sw, ControllerRole::Master, 4);
        flow_mod(&mut sw, fm);
        assert_eq!(sw.total_flows(), 1);
    }

    #[test]
    fn fencing_inactive_before_first_role_assertion() {
        let mut sw = mk_switch(2);
        // No generation yet: plain EQUAL connections keep full access.
        let fm = FlowMod {
            priority: 1,
            instructions: vec![Instruction::apply_output(2)],
            ..FlowMod::add(OxmMatch::new().with(OxmField::InPort(1)))
        };
        flow_mod(&mut sw, fm);
        assert_eq!(sw.total_flows(), 1);
        // A slave is fenced from packet-out as well.
        role_request(&mut sw, ControllerRole::Slave, 1);
        let po = Message::PacketOut(sav_openflow::messages::PacketOut {
            buffer_id: NO_BUFFER,
            in_port: port::CONTROLLER,
            actions: vec![Action::output(2)],
            data: udp_frame("10.0.0.1", "10.0.0.2"),
        })
        .encode(5);
        let out = sw.handle_controller_bytes(SimTime::ZERO, &po).unwrap();
        assert!(out.tx.is_empty());
        assert!(matches!(
            decode_all(&out)[0],
            Message::Error(ErrorMsg { err_type, code, .. })
                if err_type == error_type::BAD_REQUEST && code == 10
        ));
    }

    #[test]
    fn malformed_frame_counted() {
        let mut sw = mk_switch(1);
        flow_mod(
            &mut sw,
            FlowMod {
                priority: 0,
                instructions: vec![Instruction::apply_output(port::CONTROLLER)],
                ..FlowMod::add(OxmMatch::new())
            },
        );
        // IPv4 ethertype but garbage payload: parse fails.
        let mut junk = vec![0u8; 20];
        junk[12] = 0x08;
        junk[13] = 0x00;
        let out = sw.receive_frame(SimTime::ZERO, 1, junk);
        assert!(out.to_controller.is_empty());
        assert_eq!(sw.malformed_rx, 1);
    }
}
