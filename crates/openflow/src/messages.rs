//! The OpenFlow 1.3 message set: [`Message`] with `encode` / `decode`.
//!
//! Each variant's wire layout follows the spec struct-for-struct. A message
//! is encoded with an explicit transaction id (`xid`); decoding returns the
//! message and its xid. `decode` expects exactly one complete message — use
//! [`crate::framing::Deframer`] to cut messages out of a byte stream first.

use crate::actions::Action;
use crate::consts::{msg_type, pad8, NO_BUFFER, OFP_VERSION};
use crate::error::{CodecError, Result};
use crate::header::{Header, HEADER_LEN};
use crate::instructions::Instruction;
use crate::oxm::OxmMatch;
use crate::ports::PortDesc;
use crate::wire::{Reader, Writer};

/// Payload of ECHO_REQUEST / ECHO_REPLY.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EchoData(pub Vec<u8>);

/// OFPT_ERROR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// `ofp_error_type` value.
    pub err_type: u16,
    /// Type-specific code.
    pub code: u16,
    /// At least 64 bytes of the offending request (or any diagnostic data).
    pub data: Vec<u8>,
}

/// OFPT_FEATURES_REPLY (1.3: no port list; ports come via multipart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeaturesReply {
    /// Datapath unique id (MAC + implementation-defined bits).
    pub datapath_id: u64,
    /// Packets the switch can buffer for PACKET_IN.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Auxiliary connection id (0 = main).
    pub auxiliary_id: u8,
    /// Capability bitmap.
    pub capabilities: u32,
}

/// OFPT_GET_CONFIG_REPLY / OFPT_SET_CONFIG payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchConfig {
    /// Fragment-handling flags.
    pub flags: u16,
    /// Bytes of each packet sent to the controller on table-miss.
    pub miss_send_len: u16,
}

/// Why a PACKET_IN was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketInReason {
    /// OFPR_NO_MATCH: table-miss.
    NoMatch,
    /// OFPR_ACTION: explicit output:controller.
    Action,
    /// OFPR_INVALID_TTL.
    InvalidTtl,
}

impl PacketInReason {
    fn to_wire(self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
            PacketInReason::InvalidTtl => 2,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PacketInReason::NoMatch,
            1 => PacketInReason::Action,
            2 => PacketInReason::InvalidTtl,
            _ => return Err(CodecError::Unsupported),
        })
    }
}

/// OFPT_PACKET_IN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketIn {
    /// Buffer id at the switch, or [`NO_BUFFER`].
    pub buffer_id: u32,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Why the packet was punted.
    pub reason: PacketInReason,
    /// Table that punted it.
    pub table_id: u8,
    /// Cookie of the punting flow (or -1 on miss).
    pub cookie: u64,
    /// Pipeline metadata — at minimum `in_port`.
    pub match_: OxmMatch,
    /// The (possibly truncated) frame bytes.
    pub data: Vec<u8>,
}

impl PacketIn {
    /// The ingress port carried in the match metadata.
    pub fn in_port(&self) -> Option<u32> {
        self.match_.in_port()
    }
}

/// OFPT_PACKET_OUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketOut {
    /// Switch buffer to release, or [`NO_BUFFER`] if `data` carries the frame.
    pub buffer_id: u32,
    /// Ingress port for action processing (OFPP_CONTROLLER for synthesized).
    pub in_port: u32,
    /// Actions applied to the packet.
    pub actions: Vec<Action>,
    /// Frame bytes when `buffer_id == NO_BUFFER`.
    pub data: Vec<u8>,
}

/// `ofp_flow_mod_command`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModCommand {
    /// Add a new flow.
    Add,
    /// Modify matching flows (loose).
    Modify,
    /// Modify strictly matching flow.
    ModifyStrict,
    /// Delete matching flows (loose).
    Delete,
    /// Delete strictly matching flow.
    DeleteStrict,
}

impl FlowModCommand {
    fn to_wire(self) -> u8 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::ModifyStrict => 2,
            FlowModCommand::Delete => 3,
            FlowModCommand::DeleteStrict => 4,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            _ => return Err(CodecError::Unsupported),
        })
    }
}

/// OFPT_FLOW_MOD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// Opaque controller id attached to the flow.
    pub cookie: u64,
    /// Cookie filter for modify/delete.
    pub cookie_mask: u64,
    /// Target table.
    pub table_id: u8,
    /// What to do.
    pub command: FlowModCommand,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Match priority.
    pub priority: u16,
    /// Buffered packet to apply the new flow to, or [`NO_BUFFER`].
    pub buffer_id: u32,
    /// Output-port filter for delete.
    pub out_port: u32,
    /// Output-group filter for delete.
    pub out_group: u32,
    /// [`crate::consts::flow_mod_flags`] bits.
    pub flags: u16,
    /// The match.
    pub match_: OxmMatch,
    /// The instruction list.
    pub instructions: Vec<Instruction>,
}

impl FlowMod {
    /// An ADD with sane defaults (no timeouts, priority 0, no buffer).
    pub fn add(match_: OxmMatch) -> FlowMod {
        FlowMod {
            cookie: 0,
            cookie_mask: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0,
            buffer_id: NO_BUFFER,
            out_port: crate::consts::port::ANY,
            out_group: crate::consts::group::ANY,
            flags: 0,
            match_,
            instructions: Vec::new(),
        }
    }

    /// A loose DELETE for the given table and match.
    pub fn delete(table_id: u8, match_: OxmMatch) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Delete,
            table_id,
            ..FlowMod::add(match_)
        }
    }
}

/// Why a flow was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowRemovedReason {
    /// OFPRR_IDLE_TIMEOUT.
    IdleTimeout,
    /// OFPRR_HARD_TIMEOUT.
    HardTimeout,
    /// OFPRR_DELETE: removed by a flow-mod.
    Delete,
    /// OFPRR_GROUP_DELETE.
    GroupDelete,
}

impl FlowRemovedReason {
    fn to_wire(self) -> u8 {
        match self {
            FlowRemovedReason::IdleTimeout => 0,
            FlowRemovedReason::HardTimeout => 1,
            FlowRemovedReason::Delete => 2,
            FlowRemovedReason::GroupDelete => 3,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => FlowRemovedReason::IdleTimeout,
            1 => FlowRemovedReason::HardTimeout,
            2 => FlowRemovedReason::Delete,
            3 => FlowRemovedReason::GroupDelete,
            _ => return Err(CodecError::Unsupported),
        })
    }
}

/// OFPT_FLOW_REMOVED.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRemoved {
    /// Cookie of the removed flow.
    pub cookie: u64,
    /// Priority of the removed flow.
    pub priority: u16,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
    /// Table it lived in.
    pub table_id: u8,
    /// Lifetime, whole seconds.
    pub duration_sec: u32,
    /// Lifetime, nanosecond remainder.
    pub duration_nsec: u32,
    /// Its idle timeout.
    pub idle_timeout: u16,
    /// Its hard timeout.
    pub hard_timeout: u16,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The flow's match.
    pub match_: OxmMatch,
}

/// Why a PORT_STATUS was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortStatusReason {
    /// OFPPR_ADD.
    Add,
    /// OFPPR_DELETE.
    Delete,
    /// OFPPR_MODIFY (link state change).
    Modify,
}

impl PortStatusReason {
    fn to_wire(self) -> u8 {
        match self {
            PortStatusReason::Add => 0,
            PortStatusReason::Delete => 1,
            PortStatusReason::Modify => 2,
        }
    }

    fn from_wire(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PortStatusReason::Add,
            1 => PortStatusReason::Delete,
            2 => PortStatusReason::Modify,
            _ => return Err(CodecError::Unsupported),
        })
    }
}

/// OFPT_PORT_STATUS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortStatus {
    /// What changed.
    pub reason: PortStatusReason,
    /// The port after the change.
    pub desc: PortDesc,
}

/// Multipart body types.
mod mp_type {
    pub const FLOW: u16 = 1;
    pub const TABLE: u16 = 3;
    pub const PORT_STATS: u16 = 4;
    pub const PORT_DESC: u16 = 13;
}

/// OFPMPF_REPLY_MORE: more parts of this multipart reply follow.
const MPF_REPLY_MORE: u16 = 1;

/// Largest message the 16-bit OpenFlow length field can describe.
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// Fixed part of a multipart reply: header + type + flags + pad.
const MULTIPART_REPLY_HEADER_LEN: usize = HEADER_LEN + 8;

/// Body of an OFPMP_FLOW request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStatsRequest {
    /// Table to read, or OFPTT_ALL.
    pub table_id: u8,
    /// Output-port filter, or OFPP_ANY.
    pub out_port: u32,
    /// Output-group filter, or OFPG_ANY.
    pub out_group: u32,
    /// Cookie filter.
    pub cookie: u64,
    /// Cookie mask (0 = no filtering).
    pub cookie_mask: u64,
    /// Match filter (loose).
    pub match_: OxmMatch,
}

impl Default for FlowStatsRequest {
    fn default() -> Self {
        FlowStatsRequest {
            table_id: crate::consts::table::ALL,
            out_port: crate::consts::port::ANY,
            out_group: crate::consts::group::ANY,
            cookie: 0,
            cookie_mask: 0,
            match_: OxmMatch::new(),
        }
    }
}

/// One flow entry in an OFPMP_FLOW reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStatsEntry {
    /// Table the flow lives in.
    pub table_id: u8,
    /// Lifetime, whole seconds.
    pub duration_sec: u32,
    /// Lifetime, nanosecond remainder.
    pub duration_nsec: u32,
    /// Match priority.
    pub priority: u16,
    /// Idle timeout.
    pub idle_timeout: u16,
    /// Hard timeout.
    pub hard_timeout: u16,
    /// Flow-mod flags.
    pub flags: u16,
    /// Cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The match.
    pub match_: OxmMatch,
    /// The instructions.
    pub instructions: Vec<Instruction>,
}

/// One port entry in an OFPMP_PORT_STATS reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Port number.
    pub port_no: u32,
    /// Packets received.
    pub rx_packets: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped on receive.
    pub rx_dropped: u64,
    /// Packets dropped on transmit.
    pub tx_dropped: u64,
    /// Seconds the port has been up.
    pub duration_sec: u32,
}

/// One table entry in an OFPMP_TABLE reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Table id.
    pub table_id: u8,
    /// Active flow count.
    pub active_count: u32,
    /// Packets looked up.
    pub lookup_count: u64,
    /// Packets that matched.
    pub matched_count: u64,
}

/// Multipart request bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultipartRequestBody {
    /// OFPMP_FLOW.
    Flow(FlowStatsRequest),
    /// OFPMP_PORT_STATS for one port or OFPP_ANY.
    PortStats {
        /// Port filter.
        port_no: u32,
    },
    /// OFPMP_TABLE.
    Table,
    /// OFPMP_PORT_DESC.
    PortDesc,
}

/// Multipart reply bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultipartReplyBody {
    /// OFPMP_FLOW.
    Flow(Vec<FlowStatsEntry>),
    /// OFPMP_PORT_STATS.
    PortStats(Vec<PortStats>),
    /// OFPMP_TABLE.
    Table(Vec<TableStats>),
    /// OFPMP_PORT_DESC.
    PortDesc(Vec<PortDesc>),
}

impl FlowStatsEntry {
    /// Encoded length of this entry in a flow-stats reply.
    pub fn encoded_len(&self) -> usize {
        48 + self.match_.encoded_len() + Instruction::list_len(&self.instructions)
    }
}

impl MultipartReplyBody {
    /// Split a flow-stats body into flow-stats bodies whose encoded
    /// entries each fit in `budget` bytes, preserving entry order; an
    /// entry larger than the budget travels alone. Flow stats are the one
    /// reply that grows with the rule count, so other kinds come back
    /// whole, as does a body that already fits.
    fn split(self, budget: usize) -> Vec<MultipartReplyBody> {
        let MultipartReplyBody::Flow(entries) = self else {
            return vec![self];
        };
        let mut runs = vec![Vec::new()];
        let mut used = 0;
        for e in entries {
            let n = e.encoded_len();
            if used > 0 && used + n > budget {
                runs.push(Vec::new());
                used = 0;
            }
            used += n;
            runs.last_mut().expect("runs is never empty").push(e);
        }
        runs.into_iter().map(MultipartReplyBody::Flow).collect()
    }

    /// Append the entries of a later part of the same reply. Returns
    /// `false` (and leaves `self` unchanged) if `part` is of another kind.
    pub fn extend(&mut self, part: MultipartReplyBody) -> bool {
        match (self, part) {
            (MultipartReplyBody::Flow(a), MultipartReplyBody::Flow(b)) => a.extend(b),
            (MultipartReplyBody::PortStats(a), MultipartReplyBody::PortStats(b)) => a.extend(b),
            (MultipartReplyBody::Table(a), MultipartReplyBody::Table(b)) => a.extend(b),
            (MultipartReplyBody::PortDesc(a), MultipartReplyBody::PortDesc(b)) => a.extend(b),
            _ => return false,
        }
        true
    }

    /// Encode as one or more OFPT_MULTIPART_REPLY messages under `xid`:
    /// a flow-stats body is split into parts within [`MAX_MESSAGE_LEN`],
    /// every part but the last carrying OFPMPF_REPLY_MORE, so a flow table
    /// of any size reaches the peer intact.
    pub fn encode_parts(self, xid: u32) -> Vec<Vec<u8>> {
        let mut parts = self.split(MAX_MESSAGE_LEN - MULTIPART_REPLY_HEADER_LEN);
        let last = parts.pop().expect("split yields at least one part");
        let mut out: Vec<Vec<u8>> = parts
            .into_iter()
            .map(|p| Message::MultipartReplyMore(p).encode(xid))
            .collect();
        out.push(Message::MultipartReply(last).encode(xid));
        out
    }
}

/// Controller roles (`ofp_controller_role`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerRole {
    /// OFPCR_ROLE_NOCHANGE: query the current role.
    NoChange,
    /// OFPCR_ROLE_EQUAL: default full access, no fencing.
    Equal,
    /// OFPCR_ROLE_MASTER: full access; demotes other masters to slave.
    Master,
    /// OFPCR_ROLE_SLAVE: read-only access.
    Slave,
}

impl ControllerRole {
    fn to_wire(self) -> u32 {
        match self {
            ControllerRole::NoChange => 0,
            ControllerRole::Equal => 1,
            ControllerRole::Master => 2,
            ControllerRole::Slave => 3,
        }
    }

    fn from_wire(v: u32) -> Result<Self> {
        Ok(match v {
            0 => ControllerRole::NoChange,
            1 => ControllerRole::Equal,
            2 => ControllerRole::Master,
            3 => ControllerRole::Slave,
            _ => return Err(CodecError::Unsupported),
        })
    }
}

/// OFPT_ROLE_REQUEST / OFPT_ROLE_REPLY payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleMsg {
    /// Requested (or granted) role.
    pub role: ControllerRole,
    /// Master-election generation; larger (mod 2^64) wins.
    pub generation_id: u64,
}

/// Is `new` a stale generation relative to `current`, per OF1.3 §6.3.6?
///
/// The spec defines staleness through a signed wraparound distance:
/// `(int64_t)(new - current) < 0`, i.e. a generation that lags the one
/// in effect — even across the u64 wrap — is stale and must be refused
/// with OFPRRFC_STALE. The signed subtraction keeps comparisons correct
/// for any pair whose true distance is below 2^63; the fencing tests pin
/// it at distances up to 64 on both sides of the wrap boundary, the most
/// a realistic election sequence could advance between observations.
pub fn generation_is_stale(new: u64, current: u64) -> bool {
    (new.wrapping_sub(current) as i64) < 0
}

/// An OpenFlow 1.3 message (xid carried separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// OFPT_HELLO (version-bitmap element omitted; plain 1.3 hello).
    Hello,
    /// OFPT_ERROR.
    Error(ErrorMsg),
    /// OFPT_ECHO_REQUEST.
    EchoRequest(EchoData),
    /// OFPT_ECHO_REPLY.
    EchoReply(EchoData),
    /// OFPT_FEATURES_REQUEST.
    FeaturesRequest,
    /// OFPT_FEATURES_REPLY.
    FeaturesReply(FeaturesReply),
    /// OFPT_GET_CONFIG_REQUEST.
    GetConfigRequest,
    /// OFPT_GET_CONFIG_REPLY.
    GetConfigReply(SwitchConfig),
    /// OFPT_SET_CONFIG.
    SetConfig(SwitchConfig),
    /// OFPT_PACKET_IN.
    PacketIn(PacketIn),
    /// OFPT_FLOW_REMOVED.
    FlowRemoved(FlowRemoved),
    /// OFPT_PORT_STATUS.
    PortStatus(PortStatus),
    /// OFPT_PACKET_OUT.
    PacketOut(PacketOut),
    /// OFPT_FLOW_MOD.
    FlowMod(FlowMod),
    /// OFPT_MULTIPART_REQUEST.
    MultipartRequest(MultipartRequestBody),
    /// OFPT_MULTIPART_REPLY: the whole reply, or the final part of one
    /// split across messages.
    MultipartReply(MultipartReplyBody),
    /// OFPT_MULTIPART_REPLY with OFPMPF_REPLY_MORE set: a non-final part.
    /// The remaining parts follow under the same xid; the part without the
    /// flag (a [`Message::MultipartReply`]) ends the reply.
    MultipartReplyMore(MultipartReplyBody),
    /// OFPT_BARRIER_REQUEST.
    BarrierRequest,
    /// OFPT_BARRIER_REPLY.
    BarrierReply,
    /// OFPT_ROLE_REQUEST.
    RoleRequest(RoleMsg),
    /// OFPT_ROLE_REPLY.
    RoleReply(RoleMsg),
}

impl Message {
    fn msg_type(&self) -> u8 {
        match self {
            Message::Hello => msg_type::HELLO,
            Message::Error(_) => msg_type::ERROR,
            Message::EchoRequest(_) => msg_type::ECHO_REQUEST,
            Message::EchoReply(_) => msg_type::ECHO_REPLY,
            Message::FeaturesRequest => msg_type::FEATURES_REQUEST,
            Message::FeaturesReply(_) => msg_type::FEATURES_REPLY,
            Message::GetConfigRequest => msg_type::GET_CONFIG_REQUEST,
            Message::GetConfigReply(_) => msg_type::GET_CONFIG_REPLY,
            Message::SetConfig(_) => msg_type::SET_CONFIG,
            Message::PacketIn(_) => msg_type::PACKET_IN,
            Message::FlowRemoved(_) => msg_type::FLOW_REMOVED,
            Message::PortStatus(_) => msg_type::PORT_STATUS,
            Message::PacketOut(_) => msg_type::PACKET_OUT,
            Message::FlowMod(_) => msg_type::FLOW_MOD,
            Message::MultipartRequest(_) => msg_type::MULTIPART_REQUEST,
            Message::MultipartReply(_) | Message::MultipartReplyMore(_) => {
                msg_type::MULTIPART_REPLY
            }
            Message::BarrierRequest => msg_type::BARRIER_REQUEST,
            Message::BarrierReply => msg_type::BARRIER_REPLY,
            Message::RoleRequest(_) => msg_type::ROLE_REQUEST,
            Message::RoleReply(_) => msg_type::ROLE_REPLY,
        }
    }

    /// Encode with the given transaction id into a fresh byte vector.
    ///
    /// # Panics
    ///
    /// If the message exceeds [`MAX_MESSAGE_LEN`] bytes; see
    /// [`Message::try_encode`]. Large multipart replies are split with
    /// [`MultipartReplyBody::encode_parts`] instead.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        match self.try_encode(xid) {
            Ok(bytes) => bytes,
            Err(e) => panic!("cannot encode {:?} message: {e}", self.msg_type()),
        }
    }

    /// Encode with the given transaction id, refusing a message too long
    /// for the 16-bit header length field instead of wrapping it.
    pub fn try_encode(&self, xid: u32) -> Result<Vec<u8>> {
        let mut w = Writer::with_capacity(64);
        // Placeholder header; length patched at the end.
        Header::new(self.msg_type(), 0, xid).encode(&mut w);
        match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::GetConfigRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::Error(e) => {
                w.u16(e.err_type);
                w.u16(e.code);
                w.bytes(&e.data);
            }
            Message::EchoRequest(d) | Message::EchoReply(d) => w.bytes(&d.0),
            Message::FeaturesReply(f) => {
                w.u64(f.datapath_id);
                w.u32(f.n_buffers);
                w.u8(f.n_tables);
                w.u8(f.auxiliary_id);
                w.pad(2);
                w.u32(f.capabilities);
                w.u32(0); // reserved
            }
            Message::GetConfigReply(c) | Message::SetConfig(c) => {
                w.u16(c.flags);
                w.u16(c.miss_send_len);
            }
            Message::PacketIn(p) => {
                w.u32(p.buffer_id);
                w.u16(p.total_len);
                w.u8(p.reason.to_wire());
                w.u8(p.table_id);
                w.u64(p.cookie);
                p.match_.encode(&mut w);
                w.pad(2);
                w.bytes(&p.data);
            }
            Message::FlowRemoved(fr) => {
                w.u64(fr.cookie);
                w.u16(fr.priority);
                w.u8(fr.reason.to_wire());
                w.u8(fr.table_id);
                w.u32(fr.duration_sec);
                w.u32(fr.duration_nsec);
                w.u16(fr.idle_timeout);
                w.u16(fr.hard_timeout);
                w.u64(fr.packet_count);
                w.u64(fr.byte_count);
                fr.match_.encode(&mut w);
            }
            Message::PortStatus(ps) => {
                w.u8(ps.reason.to_wire());
                w.pad(7);
                ps.desc.encode(&mut w);
            }
            Message::PacketOut(po) => {
                w.u32(po.buffer_id);
                w.u32(po.in_port);
                w.u16(Action::list_len(&po.actions) as u16);
                w.pad(6);
                Action::encode_list(&po.actions, &mut w);
                w.bytes(&po.data);
            }
            Message::FlowMod(fm) => {
                w.u64(fm.cookie);
                w.u64(fm.cookie_mask);
                w.u8(fm.table_id);
                w.u8(fm.command.to_wire());
                w.u16(fm.idle_timeout);
                w.u16(fm.hard_timeout);
                w.u16(fm.priority);
                w.u32(fm.buffer_id);
                w.u32(fm.out_port);
                w.u32(fm.out_group);
                w.u16(fm.flags);
                w.pad(2);
                fm.match_.encode(&mut w);
                Instruction::encode_list(&fm.instructions, &mut w);
            }
            Message::RoleRequest(m) | Message::RoleReply(m) => {
                w.u32(m.role.to_wire());
                w.pad(4);
                w.u64(m.generation_id);
            }
            Message::MultipartRequest(body) => {
                type BodyEmitter = Box<dyn FnOnce(&mut Writer)>;
                let (t, emit): (u16, BodyEmitter) = match body {
                    MultipartRequestBody::Flow(f) => {
                        let f = f.clone();
                        (
                            mp_type::FLOW,
                            Box::new(move |w: &mut Writer| {
                                w.u8(f.table_id);
                                w.pad(3);
                                w.u32(f.out_port);
                                w.u32(f.out_group);
                                w.pad(4);
                                w.u64(f.cookie);
                                w.u64(f.cookie_mask);
                                f.match_.encode(w);
                            }),
                        )
                    }
                    MultipartRequestBody::PortStats { port_no } => {
                        let port_no = *port_no;
                        (
                            mp_type::PORT_STATS,
                            Box::new(move |w: &mut Writer| {
                                w.u32(port_no);
                                w.pad(4);
                            }),
                        )
                    }
                    MultipartRequestBody::Table => (mp_type::TABLE, Box::new(|_: &mut Writer| {})),
                    MultipartRequestBody::PortDesc => {
                        (mp_type::PORT_DESC, Box::new(|_: &mut Writer| {}))
                    }
                };
                w.u16(t);
                w.u16(0); // flags: no REQ_MORE
                w.pad(4);
                emit(&mut w);
            }
            Message::MultipartReply(body) | Message::MultipartReplyMore(body) => {
                let t = match body {
                    MultipartReplyBody::Flow(_) => mp_type::FLOW,
                    MultipartReplyBody::PortStats(_) => mp_type::PORT_STATS,
                    MultipartReplyBody::Table(_) => mp_type::TABLE,
                    MultipartReplyBody::PortDesc(_) => mp_type::PORT_DESC,
                };
                w.u16(t);
                let more = matches!(self, Message::MultipartReplyMore(_));
                w.u16(if more { MPF_REPLY_MORE } else { 0 });
                w.pad(4);
                match body {
                    MultipartReplyBody::Flow(entries) => {
                        for e in entries {
                            let start = w.len();
                            let len = e.encoded_len();
                            w.u16(len as u16);
                            w.u8(e.table_id);
                            w.pad(1);
                            w.u32(e.duration_sec);
                            w.u32(e.duration_nsec);
                            w.u16(e.priority);
                            w.u16(e.idle_timeout);
                            w.u16(e.hard_timeout);
                            w.u16(e.flags);
                            w.pad(4);
                            w.u64(e.cookie);
                            w.u64(e.packet_count);
                            w.u64(e.byte_count);
                            e.match_.encode(&mut w);
                            Instruction::encode_list(&e.instructions, &mut w);
                            debug_assert_eq!(w.len() - start, len);
                        }
                    }
                    MultipartReplyBody::PortStats(entries) => {
                        for e in entries {
                            w.u32(e.port_no);
                            w.pad(4);
                            w.u64(e.rx_packets);
                            w.u64(e.tx_packets);
                            w.u64(e.rx_bytes);
                            w.u64(e.tx_bytes);
                            w.u64(e.rx_dropped);
                            w.u64(e.tx_dropped);
                            w.u64(0); // rx_errors
                            w.u64(0); // tx_errors
                            w.u64(0); // rx_frame_err
                            w.u64(0); // rx_over_err
                            w.u64(0); // rx_crc_err
                            w.u64(0); // collisions
                            w.u32(e.duration_sec);
                            w.u32(0); // duration_nsec
                        }
                    }
                    MultipartReplyBody::Table(entries) => {
                        for e in entries {
                            w.u8(e.table_id);
                            w.pad(3);
                            w.u32(e.active_count);
                            w.u64(e.lookup_count);
                            w.u64(e.matched_count);
                        }
                    }
                    MultipartReplyBody::PortDesc(ports) => {
                        for p in ports {
                            p.encode(&mut w);
                        }
                    }
                }
            }
        }
        let mut bytes = w.into_bytes();
        let len = u16::try_from(bytes.len()).map_err(|_| CodecError::TooLong(bytes.len()))?;
        bytes[2..4].copy_from_slice(&len.to_be_bytes());
        Ok(bytes)
    }

    /// Decode exactly one message (the buffer must hold the whole message,
    /// as delimited by the header's length field). Returns `(message, xid)`.
    pub fn decode(data: &[u8]) -> Result<(Message, u32)> {
        let header = Header::decode(data)?;
        let total = usize::from(header.length);
        if data.len() < total {
            return Err(CodecError::Truncated);
        }
        let mut r = Reader::new(&data[HEADER_LEN..total]);
        let msg = match header.msg_type {
            msg_type::HELLO => {
                // Tolerate (and discard) hello elements from other stacks.
                let _ = r.rest();
                Message::Hello
            }
            msg_type::ERROR => {
                let err_type = r.u16()?;
                let code = r.u16()?;
                Message::Error(ErrorMsg {
                    err_type,
                    code,
                    data: r.rest().to_vec(),
                })
            }
            msg_type::ECHO_REQUEST => Message::EchoRequest(EchoData(r.rest().to_vec())),
            msg_type::ECHO_REPLY => Message::EchoReply(EchoData(r.rest().to_vec())),
            msg_type::FEATURES_REQUEST => Message::FeaturesRequest,
            msg_type::FEATURES_REPLY => {
                let datapath_id = r.u64()?;
                let n_buffers = r.u32()?;
                let n_tables = r.u8()?;
                let auxiliary_id = r.u8()?;
                r.skip(2)?;
                let capabilities = r.u32()?;
                r.skip(4)?;
                Message::FeaturesReply(FeaturesReply {
                    datapath_id,
                    n_buffers,
                    n_tables,
                    auxiliary_id,
                    capabilities,
                })
            }
            msg_type::GET_CONFIG_REQUEST => Message::GetConfigRequest,
            msg_type::GET_CONFIG_REPLY => {
                let flags = r.u16()?;
                let miss_send_len = r.u16()?;
                Message::GetConfigReply(SwitchConfig {
                    flags,
                    miss_send_len,
                })
            }
            msg_type::SET_CONFIG => {
                let flags = r.u16()?;
                let miss_send_len = r.u16()?;
                Message::SetConfig(SwitchConfig {
                    flags,
                    miss_send_len,
                })
            }
            msg_type::PACKET_IN => {
                let buffer_id = r.u32()?;
                let total_len = r.u16()?;
                let reason = PacketInReason::from_wire(r.u8()?)?;
                let table_id = r.u8()?;
                let cookie = r.u64()?;
                let match_ = OxmMatch::decode(&mut r)?;
                r.skip(2)?;
                Message::PacketIn(PacketIn {
                    buffer_id,
                    total_len,
                    reason,
                    table_id,
                    cookie,
                    match_,
                    data: r.rest().to_vec(),
                })
            }
            msg_type::FLOW_REMOVED => {
                let cookie = r.u64()?;
                let priority = r.u16()?;
                let reason = FlowRemovedReason::from_wire(r.u8()?)?;
                let table_id = r.u8()?;
                let duration_sec = r.u32()?;
                let duration_nsec = r.u32()?;
                let idle_timeout = r.u16()?;
                let hard_timeout = r.u16()?;
                let packet_count = r.u64()?;
                let byte_count = r.u64()?;
                let match_ = OxmMatch::decode(&mut r)?;
                Message::FlowRemoved(FlowRemoved {
                    cookie,
                    priority,
                    reason,
                    table_id,
                    duration_sec,
                    duration_nsec,
                    idle_timeout,
                    hard_timeout,
                    packet_count,
                    byte_count,
                    match_,
                })
            }
            msg_type::PORT_STATUS => {
                let reason = PortStatusReason::from_wire(r.u8()?)?;
                r.skip(7)?;
                let desc = PortDesc::decode(&mut r)?;
                Message::PortStatus(PortStatus { reason, desc })
            }
            msg_type::PACKET_OUT => {
                let buffer_id = r.u32()?;
                let in_port = r.u32()?;
                let actions_len = usize::from(r.u16()?);
                r.skip(6)?;
                let actions = Action::decode_list(&mut r, actions_len)?;
                Message::PacketOut(PacketOut {
                    buffer_id,
                    in_port,
                    actions,
                    data: r.rest().to_vec(),
                })
            }
            msg_type::FLOW_MOD => {
                let cookie = r.u64()?;
                let cookie_mask = r.u64()?;
                let table_id = r.u8()?;
                let command = FlowModCommand::from_wire(r.u8()?)?;
                let idle_timeout = r.u16()?;
                let hard_timeout = r.u16()?;
                let priority = r.u16()?;
                let buffer_id = r.u32()?;
                let out_port = r.u32()?;
                let out_group = r.u32()?;
                let flags = r.u16()?;
                r.skip(2)?;
                let match_ = OxmMatch::decode(&mut r)?;
                let ilen = r.remaining();
                let instructions = Instruction::decode_list(&mut r, ilen)?;
                Message::FlowMod(FlowMod {
                    cookie,
                    cookie_mask,
                    table_id,
                    command,
                    idle_timeout,
                    hard_timeout,
                    priority,
                    buffer_id,
                    out_port,
                    out_group,
                    flags,
                    match_,
                    instructions,
                })
            }
            msg_type::MULTIPART_REQUEST => {
                let t = r.u16()?;
                let _flags = r.u16()?;
                r.skip(4)?;
                let body = match t {
                    mp_type::FLOW => {
                        let table_id = r.u8()?;
                        r.skip(3)?;
                        let out_port = r.u32()?;
                        let out_group = r.u32()?;
                        r.skip(4)?;
                        let cookie = r.u64()?;
                        let cookie_mask = r.u64()?;
                        let match_ = OxmMatch::decode(&mut r)?;
                        MultipartRequestBody::Flow(FlowStatsRequest {
                            table_id,
                            out_port,
                            out_group,
                            cookie,
                            cookie_mask,
                            match_,
                        })
                    }
                    mp_type::PORT_STATS => {
                        let port_no = r.u32()?;
                        r.skip(4)?;
                        MultipartRequestBody::PortStats { port_no }
                    }
                    mp_type::TABLE => MultipartRequestBody::Table,
                    mp_type::PORT_DESC => MultipartRequestBody::PortDesc,
                    _ => return Err(CodecError::Unsupported),
                };
                Message::MultipartRequest(body)
            }
            msg_type::MULTIPART_REPLY => {
                let t = r.u16()?;
                let more = r.u16()? & MPF_REPLY_MORE != 0;
                r.skip(4)?;
                let body = match t {
                    mp_type::FLOW => {
                        let mut entries = Vec::new();
                        while !r.is_empty() {
                            let len = usize::from(r.u16()?);
                            if len < 48 {
                                return Err(CodecError::BadLength);
                            }
                            let mut e = r.sub(len - 2)?;
                            let table_id = e.u8()?;
                            e.skip(1)?;
                            let duration_sec = e.u32()?;
                            let duration_nsec = e.u32()?;
                            let priority = e.u16()?;
                            let idle_timeout = e.u16()?;
                            let hard_timeout = e.u16()?;
                            let flags = e.u16()?;
                            e.skip(4)?;
                            let cookie = e.u64()?;
                            let packet_count = e.u64()?;
                            let byte_count = e.u64()?;
                            let match_ = OxmMatch::decode(&mut e)?;
                            let ilen = e.remaining();
                            let instructions = Instruction::decode_list(&mut e, ilen)?;
                            entries.push(FlowStatsEntry {
                                table_id,
                                duration_sec,
                                duration_nsec,
                                priority,
                                idle_timeout,
                                hard_timeout,
                                flags,
                                cookie,
                                packet_count,
                                byte_count,
                                match_,
                                instructions,
                            });
                        }
                        MultipartReplyBody::Flow(entries)
                    }
                    mp_type::PORT_STATS => {
                        let mut entries = Vec::new();
                        while !r.is_empty() {
                            let port_no = r.u32()?;
                            r.skip(4)?;
                            let rx_packets = r.u64()?;
                            let tx_packets = r.u64()?;
                            let rx_bytes = r.u64()?;
                            let tx_bytes = r.u64()?;
                            let rx_dropped = r.u64()?;
                            let tx_dropped = r.u64()?;
                            r.skip(48)?; // error counters
                            let duration_sec = r.u32()?;
                            r.skip(4)?;
                            entries.push(PortStats {
                                port_no,
                                rx_packets,
                                tx_packets,
                                rx_bytes,
                                tx_bytes,
                                rx_dropped,
                                tx_dropped,
                                duration_sec,
                            });
                        }
                        MultipartReplyBody::PortStats(entries)
                    }
                    mp_type::TABLE => {
                        let mut entries = Vec::new();
                        while !r.is_empty() {
                            let table_id = r.u8()?;
                            r.skip(3)?;
                            let active_count = r.u32()?;
                            let lookup_count = r.u64()?;
                            let matched_count = r.u64()?;
                            entries.push(TableStats {
                                table_id,
                                active_count,
                                lookup_count,
                                matched_count,
                            });
                        }
                        MultipartReplyBody::Table(entries)
                    }
                    mp_type::PORT_DESC => {
                        let mut ports = Vec::new();
                        while !r.is_empty() {
                            ports.push(PortDesc::decode(&mut r)?);
                        }
                        MultipartReplyBody::PortDesc(ports)
                    }
                    _ => return Err(CodecError::Unsupported),
                };
                if more {
                    Message::MultipartReplyMore(body)
                } else {
                    Message::MultipartReply(body)
                }
            }
            msg_type::BARRIER_REQUEST => Message::BarrierRequest,
            msg_type::BARRIER_REPLY => Message::BarrierReply,
            msg_type::ROLE_REQUEST | msg_type::ROLE_REPLY => {
                let role = ControllerRole::from_wire(r.u32()?)?;
                r.skip(4)?;
                let generation_id = r.u64()?;
                let m = RoleMsg {
                    role,
                    generation_id,
                };
                if header.msg_type == msg_type::ROLE_REQUEST {
                    Message::RoleRequest(m)
                } else {
                    Message::RoleReply(m)
                }
            }
            other => return Err(CodecError::UnknownType(other)),
        };
        Ok((msg, header.xid))
    }
}

// Silence an unused-import warning path for pad8 (used in debug asserts only
// when flow stats entries are encoded).
const _: fn(usize) -> usize = pad8;
const _: u8 = OFP_VERSION;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::port;
    use crate::oxm::OxmField;
    use sav_net::addr::MacAddr;

    fn roundtrip(msg: Message) {
        let bytes = msg.encode(0x11223344);
        let header = Header::decode(&bytes).unwrap();
        assert_eq!(usize::from(header.length), bytes.len(), "length patched");
        let (out, xid) = Message::decode(&bytes).unwrap();
        assert_eq!(xid, 0x11223344);
        assert_eq!(out, msg);
    }

    fn sav_match() -> OxmMatch {
        OxmMatch::new()
            .with(OxmField::InPort(2))
            .with(OxmField::EthType(0x0800))
            .with(OxmField::EthSrc(MacAddr::from_index(7), None))
            .with(OxmField::Ipv4Src("10.0.2.7".parse().unwrap(), None))
    }

    #[test]
    fn hello_is_8_bytes() {
        let bytes = Message::Hello.encode(1);
        assert_eq!(bytes, vec![4, 0, 0, 8, 0, 0, 0, 1]);
        roundtrip(Message::Hello);
    }

    #[test]
    fn simple_messages_roundtrip() {
        roundtrip(Message::FeaturesRequest);
        roundtrip(Message::GetConfigRequest);
        roundtrip(Message::BarrierRequest);
        roundtrip(Message::BarrierReply);
        roundtrip(Message::EchoRequest(EchoData(b"ping".to_vec())));
        roundtrip(Message::EchoReply(EchoData(vec![])));
        roundtrip(Message::Error(ErrorMsg {
            err_type: 5,
            code: 1,
            data: vec![1, 2, 3],
        }));
        roundtrip(Message::SetConfig(SwitchConfig {
            flags: 0,
            miss_send_len: 128,
        }));
        roundtrip(Message::GetConfigReply(SwitchConfig::default()));
    }

    #[test]
    fn features_reply_roundtrip_and_size() {
        let f = FeaturesReply {
            datapath_id: 0x0000_0200_0000_0001,
            n_buffers: 256,
            n_tables: 4,
            auxiliary_id: 0,
            capabilities: 0x47,
        };
        let bytes = Message::FeaturesReply(f).encode(9);
        assert_eq!(bytes.len(), 32); // spec: fixed 32-byte message
        roundtrip(Message::FeaturesReply(f));
    }

    #[test]
    fn flow_mod_roundtrip() {
        let fm = FlowMod {
            cookie: 0xdead,
            idle_timeout: 30,
            hard_timeout: 300,
            priority: 40_000,
            flags: crate::consts::flow_mod_flags::SEND_FLOW_REM,
            instructions: vec![Instruction::GotoTable(1)],
            ..FlowMod::add(sav_match())
        };
        roundtrip(Message::FlowMod(fm));
    }

    #[test]
    fn flow_mod_delete_roundtrip() {
        let fm = FlowMod::delete(0, OxmMatch::new().with(OxmField::InPort(3)));
        assert_eq!(fm.command, FlowModCommand::Delete);
        roundtrip(Message::FlowMod(fm));
    }

    #[test]
    fn packet_in_roundtrip() {
        let pi = PacketIn {
            buffer_id: NO_BUFFER,
            total_len: 60,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: u64::MAX,
            match_: OxmMatch::new().with(OxmField::InPort(5)),
            data: vec![0xaa; 60],
        };
        assert_eq!(pi.in_port(), Some(5));
        roundtrip(Message::PacketIn(pi));
    }

    #[test]
    fn packet_out_roundtrip() {
        let po = PacketOut {
            buffer_id: NO_BUFFER,
            in_port: port::CONTROLLER,
            actions: vec![Action::output(port::FLOOD)],
            data: vec![1, 2, 3, 4],
        };
        roundtrip(Message::PacketOut(po));
        // Buffered variant with no data.
        let po = PacketOut {
            buffer_id: 77,
            in_port: 3,
            actions: vec![Action::output(port::TABLE)],
            data: vec![],
        };
        roundtrip(Message::PacketOut(po));
    }

    #[test]
    fn flow_removed_roundtrip() {
        let fr = FlowRemoved {
            cookie: 42,
            priority: 40_000,
            reason: FlowRemovedReason::IdleTimeout,
            table_id: 0,
            duration_sec: 35,
            duration_nsec: 500_000_000,
            idle_timeout: 30,
            hard_timeout: 0,
            packet_count: 1000,
            byte_count: 64_000,
            match_: sav_match(),
        };
        roundtrip(Message::FlowRemoved(fr));
    }

    #[test]
    fn port_status_roundtrip() {
        let ps = PortStatus {
            reason: PortStatusReason::Modify,
            desc: PortDesc::new(4, MacAddr::from_index(4)),
        };
        roundtrip(Message::PortStatus(ps));
    }

    #[test]
    fn multipart_flow_roundtrip() {
        roundtrip(Message::MultipartRequest(MultipartRequestBody::Flow(
            FlowStatsRequest::default(),
        )));
        let entries = vec![
            FlowStatsEntry {
                table_id: 0,
                duration_sec: 10,
                duration_nsec: 0,
                priority: 40_000,
                idle_timeout: 30,
                hard_timeout: 0,
                flags: 0,
                cookie: 7,
                packet_count: 5,
                byte_count: 320,
                match_: sav_match(),
                instructions: vec![Instruction::GotoTable(1)],
            },
            FlowStatsEntry {
                table_id: 1,
                duration_sec: 10,
                duration_nsec: 0,
                priority: 0,
                idle_timeout: 0,
                hard_timeout: 0,
                flags: 0,
                cookie: 0,
                packet_count: 0,
                byte_count: 0,
                match_: OxmMatch::new(),
                instructions: vec![Instruction::apply_output(port::CONTROLLER)],
            },
        ];
        roundtrip(Message::MultipartReply(MultipartReplyBody::Flow(entries)));
    }

    #[test]
    fn multipart_port_and_table_roundtrip() {
        roundtrip(Message::MultipartRequest(MultipartRequestBody::PortStats {
            port_no: port::ANY,
        }));
        roundtrip(Message::MultipartRequest(MultipartRequestBody::Table));
        roundtrip(Message::MultipartRequest(MultipartRequestBody::PortDesc));
        roundtrip(Message::MultipartReply(MultipartReplyBody::PortStats(
            vec![PortStats {
                port_no: 1,
                rx_packets: 100,
                tx_packets: 200,
                rx_bytes: 6400,
                tx_bytes: 12800,
                rx_dropped: 3,
                tx_dropped: 0,
                duration_sec: 60,
            }],
        )));
        roundtrip(Message::MultipartReply(MultipartReplyBody::Table(vec![
            TableStats {
                table_id: 0,
                active_count: 12,
                lookup_count: 1000,
                matched_count: 900,
            },
            TableStats {
                table_id: 1,
                active_count: 40,
                lookup_count: 900,
                matched_count: 900,
            },
        ])));
        roundtrip(Message::MultipartReply(MultipartReplyBody::PortDesc(vec![
            PortDesc::new(1, MacAddr::from_index(1)),
            PortDesc::new(2, MacAddr::from_index(2)),
        ])));
    }

    /// The stats poller's exact request shape: cookie-scoped to the SAV
    /// rule space so replies exclude foreign apps' flows. The mask and
    /// cookie live in the 40-byte fixed part before the match — an offset
    /// bug there corrupts the filter silently, so pin the wire roundtrip.
    #[test]
    fn multipart_cookie_filtered_flow_request_roundtrip() {
        roundtrip(Message::MultipartRequest(MultipartRequestBody::Flow(
            FlowStatsRequest {
                table_id: 0xff,
                out_port: port::ANY,
                out_group: 0xffff_ffff,
                cookie: 0x5a56_0000_0000_0000,
                cookie_mask: 0xffff_0000_0000_0000,
                match_: OxmMatch::new(),
            },
        )));
        // A narrowed variant: match + exact cookie, as a debugging client
        // would issue for one binding's rule.
        roundtrip(Message::MultipartRequest(MultipartRequestBody::Flow(
            FlowStatsRequest {
                table_id: 0,
                out_port: 3,
                out_group: 7,
                cookie: u64::MAX,
                cookie_mask: u64::MAX,
                match_: sav_match(),
            },
        )));
    }

    /// Multi-entry replies with saturated counters: each 112-byte port
    /// block and each variable-length flow block must re-align after wild
    /// values, and u64 counters must survive untruncated.
    #[test]
    fn multipart_replies_roundtrip_at_edge_values() {
        roundtrip(Message::MultipartReply(MultipartReplyBody::PortStats(
            vec![
                PortStats {
                    port_no: 1,
                    rx_packets: u64::MAX,
                    tx_packets: u64::MAX - 1,
                    rx_bytes: u64::MAX,
                    tx_bytes: 0,
                    rx_dropped: u64::MAX,
                    tx_dropped: u64::MAX,
                    duration_sec: u32::MAX,
                },
                PortStats::default(),
                PortStats {
                    port_no: port::MAX,
                    rx_dropped: 1,
                    ..PortStats::default()
                },
            ],
        )));
        let wild = FlowStatsEntry {
            table_id: u8::MAX,
            duration_sec: u32::MAX,
            duration_nsec: 999_999_999,
            priority: u16::MAX,
            idle_timeout: u16::MAX,
            hard_timeout: u16::MAX,
            flags: u16::MAX,
            cookie: u64::MAX,
            packet_count: u64::MAX,
            byte_count: u64::MAX,
            match_: sav_match(),
            instructions: vec![],
        };
        let empty_match = FlowStatsEntry {
            match_: OxmMatch::new(),
            instructions: vec![Instruction::GotoTable(1)],
            ..wild.clone()
        };
        roundtrip(Message::MultipartReply(MultipartReplyBody::Flow(vec![
            wild,
            empty_match,
        ])));
    }

    /// Zero-entry replies are legal (a cookie filter can match nothing);
    /// they must encode to a bare multipart header and decode back empty.
    #[test]
    fn multipart_empty_replies_roundtrip() {
        roundtrip(Message::MultipartReply(MultipartReplyBody::Flow(vec![])));
        roundtrip(Message::MultipartReply(MultipartReplyBody::PortStats(
            vec![],
        )));
        roundtrip(Message::MultipartReply(MultipartReplyBody::Table(vec![])));
        roundtrip(Message::MultipartReply(MultipartReplyBody::PortDesc(
            vec![],
        )));
    }

    /// ROLE_REQUEST/ROLE_REPLY: 24-byte fixed message, role + 4 pad +
    /// generation_id. Exercised at both role extremes and a wrapping
    /// generation value.
    #[test]
    fn role_messages_roundtrip() {
        for role in [
            ControllerRole::NoChange,
            ControllerRole::Equal,
            ControllerRole::Master,
            ControllerRole::Slave,
        ] {
            for generation_id in [0, 1, u64::MAX - 1, u64::MAX] {
                roundtrip(Message::RoleRequest(RoleMsg {
                    role,
                    generation_id,
                }));
                roundtrip(Message::RoleReply(RoleMsg {
                    role,
                    generation_id,
                }));
            }
        }
        let bytes = Message::RoleRequest(RoleMsg {
            role: ControllerRole::Master,
            generation_id: 7,
        })
        .encode(1);
        assert_eq!(bytes.len(), 24); // spec: fixed 24-byte message
    }

    #[test]
    fn role_decode_rejects_unknown_role() {
        let mut bytes = Message::RoleRequest(RoleMsg {
            role: ControllerRole::Slave,
            generation_id: 0,
        })
        .encode(1);
        bytes[HEADER_LEN + 3] = 9; // role value past OFPCR_ROLE_SLAVE
        assert_eq!(Message::decode(&bytes).err(), Some(CodecError::Unsupported));
    }

    /// OF1.3 §6.3.6 staleness: signed wraparound distance, pinned at
    /// distances up to 64 on both sides of the u64 wrap boundary.
    #[test]
    fn generation_staleness_is_wraparound_safe() {
        // Plain ordering away from the boundary.
        assert!(generation_is_stale(4, 5));
        assert!(!generation_is_stale(5, 5));
        assert!(!generation_is_stale(6, 5));
        for d in 1..=64u64 {
            // Behind by d: stale; ahead by d: fresh — including across wrap.
            assert!(generation_is_stale(100 - d, 100));
            assert!(!generation_is_stale(100 + d, 100));
            assert!(generation_is_stale(u64::MAX - d + 1, 0), "wrap behind {d}");
            assert!(!generation_is_stale(d - 1, u64::MAX), "wrap ahead {d}");
        }
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = Message::Hello.encode(0);
        bytes[1] = 99;
        assert_eq!(
            Message::decode(&bytes).err(),
            Some(CodecError::UnknownType(99))
        );
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let bytes = Message::FeaturesReply(FeaturesReply {
            datapath_id: 1,
            n_buffers: 0,
            n_tables: 2,
            auxiliary_id: 0,
            capabilities: 0,
        })
        .encode(0);
        // Claim the full length but hand decode a shorter buffer.
        assert_eq!(
            Message::decode(&bytes[..16]).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn hello_with_elements_tolerated() {
        // A 1.3 hello carrying a version-bitmap element (8 extra bytes).
        let mut bytes = Message::Hello.encode(5);
        bytes.extend_from_slice(&[0, 1, 0, 8, 0, 0, 0, 0x10]);
        let len = bytes.len() as u16;
        bytes[2..4].copy_from_slice(&len.to_be_bytes());
        let (msg, xid) = Message::decode(&bytes).unwrap();
        assert_eq!(msg, Message::Hello);
        assert_eq!(xid, 5);
    }

    fn stats_entry(i: u32) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            duration_sec: i,
            duration_nsec: 0,
            priority: 100,
            idle_timeout: 0,
            hard_timeout: 600,
            flags: 0,
            cookie: u64::from(i),
            packet_count: 0,
            byte_count: 0,
            match_: OxmMatch::new()
                .with(OxmField::InPort(1))
                .with(OxmField::EthType(0x0800))
                .with(OxmField::Ipv4Src(
                    std::net::Ipv4Addr::from(0x0a00_0000 + i),
                    None,
                )),
            instructions: vec![Instruction::GotoTable(1)],
        }
    }

    #[test]
    fn reply_more_flag_roundtrips() {
        roundtrip(Message::MultipartReplyMore(MultipartReplyBody::Flow(vec![
            stats_entry(1),
        ])));
        let bytes = Message::MultipartReplyMore(MultipartReplyBody::Table(vec![])).encode(3);
        assert_eq!(&bytes[10..12], &[0, 1], "OFPMPF_REPLY_MORE on the wire");
    }

    /// Regression: a flow-stats reply over 64 KiB used to be encoded with
    /// a wrapped length. It must be refused as one message and travel as
    /// REPLY_MORE parts that reassemble to the original body.
    #[test]
    fn oversized_reply_is_refused_whole_and_split_into_parts() {
        let entries: Vec<FlowStatsEntry> = (0..1500).map(stats_entry).collect();
        let body = MultipartReplyBody::Flow(entries);
        assert!(matches!(
            Message::MultipartReply(body.clone()).try_encode(9),
            Err(CodecError::TooLong(n)) if n > MAX_MESSAGE_LEN
        ));

        let parts = body.clone().encode_parts(9);
        assert!(parts.len() >= 2, "1500 entries need several parts");
        let mut merged: Option<MultipartReplyBody> = None;
        for (i, bytes) in parts.iter().enumerate() {
            assert!(bytes.len() <= MAX_MESSAGE_LEN);
            let (msg, xid) = Message::decode(bytes).unwrap();
            assert_eq!(xid, 9);
            let last = i + 1 == parts.len();
            let part = match msg {
                Message::MultipartReplyMore(p) if !last => p,
                Message::MultipartReply(p) if last => p,
                other => panic!("part {i}: unexpected {other:?}"),
            };
            match &mut merged {
                None => merged = Some(part),
                Some(m) => assert!(m.extend(part)),
            }
        }
        assert_eq!(merged, Some(body));

        // A body that fits stays one unflagged message.
        let small = MultipartReplyBody::Flow(vec![stats_entry(1)]);
        let parts = small.clone().encode_parts(2);
        assert_eq!(parts, vec![Message::MultipartReply(small).encode(2)]);
    }

    #[test]
    fn extend_rejects_a_part_of_another_kind() {
        let mut a = MultipartReplyBody::Table(vec![]);
        assert!(!a.extend(MultipartReplyBody::PortDesc(vec![])));
        assert_eq!(a, MultipartReplyBody::Table(vec![]));
    }
}
