//! The emulated network: two `OpenFlowSwitch` cores, their DHCP clients,
//! and the DHCP server, all driven by the bench thread on one `sav-poll`
//! `Poller`.
//!
//! Each switch core talks to the controller over its own nonblocking
//! loopback socket. Controller bytes are deframed here and handed to the
//! core one message at a time, so the instant the core *applies* a
//! binding's allow flow-mod is observable: that instant is enforcement.
//! Frames the cores emit are routed synchronously — trunk to the peer
//! switch, the trusted port to the DHCP server, access ports to the client
//! whose MAC they address.

use crate::sys::TimerFd;
use sav_core::{PRIO_ALLOW, PRIO_DHCP_CLIENT, PRIO_DHCP_TRUST, PRIO_OSAV_DENY, PRIO_TRUNK};
use sav_core::{SAV_COOKIE, SAV_COOKIE_MASK};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig, SwitchOutput};
use sav_net::dhcpv4::{DHCP_CLIENT_PORT, DHCP_SERVER_PORT};
use sav_net::prelude::*;
use sav_openflow::framing::Deframer;
use sav_openflow::messages::{FlowMod, FlowModCommand, Message, MultipartRequestBody};
use sav_openflow::oxm::OxmField;
use sav_openflow::ports::PortDesc;
use sav_poll::{Events, Interest, Outbox, Poller, Token};
use sav_sim::SimTime;
use sav_topo::{SwitchId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TOKEN_TIMER: Token = Token(0);
/// Longest the bench thread blocks when nothing is scheduled.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// Lease the emulated DHCP server grants (long enough that no lease
/// expires during a run).
const LEASE_SECS: u32 = 3600;
/// Inputs kept per kind for the layer replay.
const CAPTURE_MAX: usize = 4096;
const CAPTURE_MAX_BYTES: usize = 4 << 20;

/// (in_port, eth_src, ipv4_src): what one binding's allow rule matches.
pub type AllowKey = (u32, MacAddr, Ipv4Addr);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Idle,
    Discovering,
    Requesting,
    /// The allow rule is applied at the switch.
    Bound,
    /// RELEASE sent; waiting for the allow rule's delete.
    Releasing,
}

pub struct Client {
    pub sw: usize,
    pub port: u32,
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    /// An address no lease ever hands out (the spoofed-source probe).
    pub unbound_ip: Ipv4Addr,
    pub phase: Phase,
    /// The DHCPACK reached the client.
    pub acked: bool,
    xid: u32,
    /// When the DISCOVER was scheduled.
    pub due: Instant,
    /// When the DHCPACK entered the trusted port.
    pub ack_at: Option<Instant>,
    /// When the switch applied the allow rule.
    pub enforced_at: Option<Instant>,
    /// When the client last changed phase.
    pub since: Instant,
}

impl Client {
    /// Some DHCP or rule work for this client is still outstanding.
    pub fn in_flight(&self) -> bool {
        match self.phase {
            Phase::Idle => false,
            Phase::Bound => !self.acked,
            _ => true,
        }
    }
}

struct Conn {
    stream: TcpStream,
    outbox: Outbox,
    want_write: bool,
    deframer: Deframer,
}

pub struct Sw {
    pub core: OpenFlowSwitch,
    conn: Option<Conn>,
    pub trunk: u32,
    /// Access ports that carry emulated clients.
    pub client_ports: Vec<u32>,
    /// SAV edge rules this switch must hold (trunk, deny, DHCP snoop).
    edge_rules: usize,
    /// The switch answered a flow-stats request on its current connection.
    pub stats_answered: bool,
}

/// Inputs captured from a run for the layer replay.
#[derive(Default)]
pub struct Capture {
    /// Encoded PACKET_IN messages the switches sent.
    pub packet_ins: Vec<Vec<u8>>,
    /// Decoded FLOW_MODs the controller sent.
    pub flow_mods: Vec<(Message, u32)>,
    /// Raw controller→switch read chunks with their switch, as the
    /// socket delivered them. An empty chunk marks a new connection.
    pub chunks: Vec<(usize, Vec<u8>)>,
    chunk_bytes: usize,
    /// A chunk did not fit in `CAPTURE_MAX_BYTES`; no later chunk is kept,
    /// so the kept streams have no gaps.
    chunks_full: bool,
    /// Probe frames with their switch and ingress port.
    pub probes: Vec<(usize, u32, Vec<u8>)>,
}

impl Capture {
    fn chunk(&mut self, sw: usize, bytes: &[u8]) {
        if self.chunks_full || self.chunk_bytes + bytes.len() > CAPTURE_MAX_BYTES {
            self.chunks_full = true;
            return;
        }
        self.chunks.push((sw, bytes.to_vec()));
        self.chunk_bytes += bytes.len();
    }
}

/// Verdicts for one binding's three probes.
pub struct ProbeResult {
    pub legit_forwarded: bool,
    pub spoof_ip_forwarded: bool,
    pub spoof_port_forwarded: bool,
}

pub struct Net {
    poller: Poller,
    events: Events,
    timer: TimerFd,
    epoch: Instant,
    pub sw: Vec<Sw>,
    pub clients: Vec<Client>,
    by_ip: HashMap<Ipv4Addr, usize>,
    by_mac: HashMap<MacAddr, usize>,
    srv_sw: usize,
    srv_port: u32,
    srv_mac: MacAddr,
    srv_ip: Ipv4Addr,
    pending: VecDeque<(usize, u32, Vec<u8>)>,
    buf: Vec<u8>,
    next_xid: u32,
    /// Clients whose allow rule was applied since the driver last looked.
    pub enforced: Vec<usize>,
    /// Releasing clients whose allow rule was deleted since then.
    pub retired: Vec<usize>,
    /// Protocol failures seen on the control channels (poisoned streams,
    /// unexpected closes).
    pub channel_errors: u64,
    /// The controller is being shut down: its closing the sockets is
    /// expected.
    closing: bool,
    pub capture: Option<Capture>,
}

fn switch_core(topo: &Topology, sid: SwitchId) -> OpenFlowSwitch {
    let dpid = sid.dpid();
    let ports = (1..=topo.port_count(sid))
        .map(|p| PortDesc::new(p, MacAddr::from_index(dpid * 100 + u64::from(p))))
        .collect();
    OpenFlowSwitch::new(SwitchConfig::new(dpid), ports)
}

/// The binding key of a SAV per-host allow add or strict delete.
fn allow_key(fm: &FlowMod) -> Option<(bool, AllowKey)> {
    if fm.priority != PRIO_ALLOW || fm.table_id != 0 {
        return None;
    }
    let add = match fm.command {
        FlowModCommand::Add => {
            // Per-host allows only: cover rules carry a non-zero kind.
            if fm.cookie & SAV_COOKIE_MASK != SAV_COOKIE || (fm.cookie >> 32) & 0xffff != 0 {
                return None;
            }
            true
        }
        FlowModCommand::DeleteStrict => false,
        _ => return None,
    };
    let (mut port, mut mac, mut ip) = (None, None, None);
    for f in fm.match_.fields() {
        match *f {
            OxmField::InPort(p) => port = Some(p),
            OxmField::EthSrc(m, None) => mac = Some(m),
            OxmField::Ipv4Src(a, None) => ip = Some(a),
            _ => {}
        }
    }
    Some((add, (port?, mac?, ip?)))
}

impl Net {
    /// Build the two switches of `topo` (a two-switch chain whose first
    /// switch hosts the DHCP server on its first host port) with
    /// `per_switch` clients each, spread over the access ports.
    pub fn new(topo: &Topology, per_switch: usize, capture: bool) -> io::Result<Net> {
        let server = &topo.hosts()[0];
        let mut sw = Vec::new();
        let mut clients = Vec::new();
        for (i, node) in topo.switches().iter().enumerate() {
            let trunk = topo.trunk_ports(node.id)[0];
            let client_ports: Vec<u32> = topo
                .host_ports(node.id)
                .into_iter()
                .filter(|&p| !(node.id == server.switch && p == server.port))
                .collect();
            let edge_rules =
                topo.trunk_ports(node.id).len() + 2 + usize::from(node.id == server.switch);
            for k in 0..per_switch {
                let (hi, lo) = ((k / 250) as u8, (k % 250) as u8 + 1);
                clients.push(Client {
                    sw: i,
                    port: client_ports[k % client_ports.len()],
                    mac: MacAddr::from_index(0x0100_0000 + (i as u64) * 0x10_0000 + k as u64),
                    ip: Ipv4Addr::new(10, 100 + i as u8, hi, lo),
                    unbound_ip: Ipv4Addr::new(10, 200 + i as u8, hi, lo),
                    phase: Phase::Idle,
                    acked: false,
                    xid: 0,
                    due: Instant::now(),
                    ack_at: None,
                    enforced_at: None,
                    since: Instant::now(),
                });
            }
            sw.push(Sw {
                core: switch_core(topo, node.id),
                conn: None,
                trunk,
                client_ports,
                edge_rules,
                stats_answered: false,
            });
        }
        let by_ip = clients.iter().enumerate().map(|(i, c)| (c.ip, i)).collect();
        let by_mac = clients
            .iter()
            .enumerate()
            .map(|(i, c)| (c.mac, i))
            .collect();
        let poller = Poller::new(64)?;
        let timer = TimerFd::new()?;
        poller.register(&timer, TOKEN_TIMER, Interest::READABLE)?;
        Ok(Net {
            poller,
            events: Events::with_capacity(64),
            timer,
            epoch: Instant::now(),
            sw,
            clients,
            by_ip,
            by_mac,
            srv_sw: server.switch.0,
            srv_port: server.port,
            srv_mac: server.mac,
            srv_ip: server.ip,
            pending: VecDeque::new(),
            buf: vec![0; 64 * 1024],
            next_xid: 1,
            enforced: Vec::new(),
            retired: Vec::new(),
            channel_errors: 0,
            closing: false,
            capture: capture.then(Capture::default),
        })
    }

    fn sim_now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Replace both switch cores with empty ones (a fresh deployment).
    pub fn reset_switches(&mut self, topo: &Topology) {
        for (i, node) in topo.switches().iter().enumerate() {
            self.sw[i].core = switch_core(topo, node.id);
        }
    }

    /// Dial the controller from both switches and send their HELLOs.
    pub fn connect(&mut self, addr: SocketAddr) -> io::Result<()> {
        for i in 0..self.sw.len() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            self.poller
                .register(&stream, Token(1 + i), Interest::READABLE)?;
            let s = &mut self.sw[i];
            s.stats_answered = false;
            s.conn = Some(Conn {
                stream,
                outbox: Outbox::new(),
                want_write: false,
                deframer: Deframer::new(),
            });
            let hello = s.core.on_control_reconnect();
            self.send_up(i, hello);
            if let Some(cap) = &mut self.capture {
                cap.chunk(i, &[]);
            }
        }
        self.flush();
        Ok(())
    }

    /// After the controller went away: consume what it sent last, then
    /// drop both connections.
    pub fn close_all(&mut self) {
        self.closing = true;
        for i in 0..self.sw.len() {
            self.read_switch(i);
            self.pump();
            self.drop_conn(i);
        }
        self.closing = false;
    }

    /// Block until a socket is ready or `deadline` passes, then process
    /// everything that arrived. Never spins: with no deadline it blocks
    /// up to [`IDLE_WAIT`].
    pub fn poll(&mut self, deadline: Option<Instant>) -> io::Result<()> {
        let timeout = match deadline {
            Some(d) => {
                let now = Instant::now();
                if d <= now {
                    Some(Duration::ZERO)
                } else {
                    self.timer.arm(d - now)?;
                    Some(IDLE_WAIT.max(d - now) + Duration::from_millis(1))
                }
            }
            None => Some(IDLE_WAIT),
        };
        self.poller.wait(&mut self.events, timeout)?;
        let ready: Vec<(Token, bool, bool)> = self
            .events
            .iter()
            .map(|e| (e.token, e.readable || e.hangup || e.error, e.writable))
            .collect();
        for (token, readable, writable) in ready {
            if token == TOKEN_TIMER {
                self.timer.clear();
                continue;
            }
            let i = token.0 - 1;
            if readable {
                self.read_switch(i);
            }
            if writable {
                self.flush_one(i);
            }
        }
        self.pump();
        self.flush();
        Ok(())
    }

    fn read_switch(&mut self, i: usize) {
        loop {
            let Some(conn) = self.sw[i].conn.as_mut() else {
                return;
            };
            let n = match conn.stream.read(&mut self.buf) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                _ => {
                    // End of stream or a reset: expected only while the
                    // controller is being shut down.
                    self.channel_errors += u64::from(!self.closing);
                    self.drop_conn(i);
                    return;
                }
            };
            if let Some(cap) = &mut self.capture {
                cap.chunk(i, &self.buf[..n]);
            }
            if conn.deframer.push(&self.buf[..n]).is_err() {
                self.channel_errors += 1;
                self.drop_conn(i);
                return;
            }
            loop {
                let next = match self.sw[i].conn.as_mut() {
                    Some(c) => c.deframer.next_message(),
                    None => return,
                };
                match next {
                    Ok(Some((msg, xid))) => self.on_message(i, msg, xid),
                    Ok(None) => break,
                    Err(_) => {
                        self.channel_errors += 1;
                        self.drop_conn(i);
                        return;
                    }
                }
            }
            self.pump();
            self.flush_one(i);
            if n < self.buf.len() {
                return;
            }
        }
    }

    fn drop_conn(&mut self, i: usize) {
        if let Some(conn) = self.sw[i].conn.take() {
            let _ = self.poller.deregister(&conn.stream);
        }
    }

    fn on_message(&mut self, i: usize, msg: Message, xid: u32) {
        let key = match &msg {
            Message::FlowMod(fm) => allow_key(fm),
            _ => None,
        };
        let stats_request = matches!(
            msg,
            Message::MultipartRequest(MultipartRequestBody::Flow(_))
        );
        if let (Some(cap), Message::FlowMod(_)) = (&mut self.capture, &msg) {
            if cap.flow_mods.len() < CAPTURE_MAX {
                cap.flow_mods.push((msg.clone(), xid));
            }
        }
        let now = self.sim_now();
        let out = self.sw[i].core.handle_message(now, msg, xid);
        let applied = Instant::now();
        if stats_request {
            self.sw[i].stats_answered = true;
        }
        if let Some((add, (port, mac, ip))) = key {
            if let Some(&c) = self.by_ip.get(&ip) {
                let cl = &mut self.clients[c];
                if cl.sw == i && cl.port == port && cl.mac == mac {
                    if add && matches!(cl.phase, Phase::Discovering | Phase::Requesting) {
                        cl.phase = Phase::Bound;
                        cl.enforced_at = Some(applied);
                        cl.since = applied;
                        self.enforced.push(c);
                    } else if !add && cl.phase == Phase::Releasing {
                        cl.phase = Phase::Idle;
                        self.retired.push(c);
                    }
                }
            }
        }
        self.route(i, out);
    }

    fn route(&mut self, i: usize, out: SwitchOutput) {
        for bytes in out.to_controller {
            self.send_up(i, bytes);
        }
        for (port, frame) in out.tx {
            self.pending.push_back((i, port, frame));
        }
    }

    fn send_up(&mut self, i: usize, bytes: Vec<u8>) {
        if let Some(cap) = &mut self.capture {
            // Byte 1 of an OpenFlow header is the message type; 10 is
            // PACKET_IN.
            if bytes.get(1) == Some(&10) && cap.packet_ins.len() < CAPTURE_MAX {
                cap.packet_ins.push(bytes.clone());
            }
        }
        if let Some(conn) = self.sw[i].conn.as_mut() {
            conn.outbox.push(bytes);
        }
    }

    fn flush(&mut self) {
        for i in 0..self.sw.len() {
            self.flush_one(i);
        }
    }

    fn flush_one(&mut self, i: usize) {
        let Some(conn) = self.sw[i].conn.as_mut() else {
            return;
        };
        if conn.outbox.is_empty() && !conn.want_write {
            return;
        }
        match conn.outbox.drain(&mut conn.stream) {
            Ok(d) => {
                let want = d.blocked;
                if want != conn.want_write {
                    conn.want_write = want;
                    let interest = if want {
                        Interest::BOTH
                    } else {
                        Interest::READABLE
                    };
                    let _ = self.poller.modify(&conn.stream, Token(1 + i), interest);
                }
            }
            Err(_) => self.drop_conn(i),
        }
    }

    /// Deliver every frame the switches emitted, and whatever those
    /// deliveries provoke, until the data plane is quiet.
    fn pump(&mut self) {
        while let Some((i, port, frame)) = self.pending.pop_front() {
            self.deliver(i, port, frame);
        }
    }

    fn inject(&mut self, i: usize, port: u32, frame: Vec<u8>) {
        let now = self.sim_now();
        let out = self.sw[i].core.receive_frame(now, port, frame);
        self.route(i, out);
    }

    fn deliver(&mut self, i: usize, port: u32, frame: Vec<u8>) {
        if port == self.sw[i].trunk {
            let peer = 1 - i;
            let peer_port = self.sw[peer].trunk;
            self.inject(peer, peer_port, frame);
            return;
        }
        if i == self.srv_sw && port == self.srv_port {
            self.serve_dhcp(&frame);
            return;
        }
        let Ok(p) = ParsedPacket::parse(&frame) else {
            return;
        };
        // Floods of other clients' broadcasts are of no interest to anyone.
        let Some(&c) = self.by_mac.get(&p.ethernet.dst) else {
            return;
        };
        if self.clients[c].sw != i || self.clients[c].port != port {
            return;
        }
        let Some(msg) = p.l4_payload(&frame).and_then(|b| DhcpRepr::parse(b).ok()) else {
            return;
        };
        let cl = &mut self.clients[c];
        if msg.xid != cl.xid {
            return;
        }
        match (cl.phase, msg.message_type) {
            (Phase::Discovering, DhcpMessageType::Offer) => {
                cl.phase = Phase::Requesting;
                let mut req = DhcpRepr::client(DhcpMessageType::Request, cl.xid, cl.mac);
                req.requested_ip = Some(msg.your_ip);
                req.server_id = msg.server_id;
                let frame = dhcp_frame(cl.mac, Ipv4Addr::UNSPECIFIED, &req);
                let port = cl.port;
                self.inject(i, port, frame);
            }
            (Phase::Requesting | Phase::Bound, DhcpMessageType::Ack) => cl.acked = true,
            _ => {}
        }
    }

    /// The DHCP server: every client has a fixed reservation (its `ip`).
    fn serve_dhcp(&mut self, frame: &[u8]) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        let Some(msg) = p.l4_payload(frame).and_then(|b| DhcpRepr::parse(b).ok()) else {
            return;
        };
        let reply_type = match msg.message_type {
            DhcpMessageType::Discover => DhcpMessageType::Offer,
            DhcpMessageType::Request => DhcpMessageType::Ack,
            _ => return,
        };
        let Some(&c) = self.by_mac.get(&msg.client_mac) else {
            return;
        };
        let mut r = DhcpRepr::client(DhcpMessageType::Request, msg.xid, msg.client_mac);
        r.message_type = reply_type;
        r.your_ip = self.clients[c].ip;
        r.server_id = Some(self.srv_ip);
        r.lease_secs = Some(LEASE_SECS);
        let payload = r.to_bytes();
        let udp = UdpRepr {
            src_port: DHCP_SERVER_PORT,
            dst_port: DHCP_CLIENT_PORT,
            payload_len: payload.len(),
        };
        let ip = Ipv4Repr::udp(self.srv_ip, Ipv4Addr::BROADCAST, udp.buffer_len());
        let eth = EthernetRepr {
            src: self.srv_mac,
            dst: msg.client_mac,
            ethertype: EtherType::Ipv4,
        };
        let reply = build_ipv4_udp(&eth, &ip, &udp, &payload);
        if reply_type == DhcpMessageType::Ack {
            self.clients[c].ack_at = Some(Instant::now());
        }
        let (sw, port) = (self.srv_sw, self.srv_port);
        self.inject(sw, port, reply);
    }

    /// Client `c` broadcasts a DISCOVER now; `due` is when it was
    /// scheduled to.
    pub fn start_binding(&mut self, c: usize, due: Instant) {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let cl = &mut self.clients[c];
        cl.xid = xid;
        cl.phase = Phase::Discovering;
        cl.acked = false;
        cl.due = due;
        cl.ack_at = None;
        cl.enforced_at = None;
        cl.since = Instant::now();
        let msg = DhcpRepr::client(DhcpMessageType::Discover, xid, cl.mac);
        let frame = dhcp_frame(cl.mac, Ipv4Addr::UNSPECIFIED, &msg);
        let (sw, port) = (cl.sw, cl.port);
        self.inject(sw, port, frame);
    }

    /// Bound client `c` releases its address.
    pub fn release(&mut self, c: usize) {
        let cl = &mut self.clients[c];
        cl.phase = Phase::Releasing;
        cl.since = Instant::now();
        let mut msg = DhcpRepr::client(DhcpMessageType::Release, cl.xid, cl.mac);
        msg.client_ip = cl.ip;
        let frame = dhcp_frame(cl.mac, cl.ip, &msg);
        let (sw, port) = (cl.sw, cl.port);
        self.inject(sw, port, frame);
    }

    /// Settle a batch of injections: route frames and write to sockets.
    pub fn settle(&mut self) {
        self.pump();
        self.flush();
    }

    /// Set `c`'s phase without DHCP: WAL edits made while the controller
    /// was down, or a binding given up on.
    pub fn set_phase(&mut self, c: usize, phase: Phase) {
        let cl = &mut self.clients[c];
        cl.phase = phase;
        cl.acked = phase == Phase::Bound;
        cl.since = Instant::now();
    }

    /// Send the three probes for client `c` through its switch: a legit
    /// frame from its (port, MAC, IP), one from the same port with an
    /// address it does not hold, and one with its address on another port.
    pub fn probe(&mut self, c: usize) -> ProbeResult {
        let cl = &self.clients[c];
        let (i, port, mac, ip, unbound) = (cl.sw, cl.port, cl.mac, cl.ip, cl.unbound_ip);
        let ports = &self.sw[i].client_ports;
        let other = ports[(ports.iter().position(|&p| p == port).unwrap_or(0) + 1) % ports.len()];
        ProbeResult {
            legit_forwarded: self.probe_one(i, port, mac, ip),
            spoof_ip_forwarded: self.probe_one(i, port, mac, unbound),
            spoof_port_forwarded: self.probe_one(i, other, mac, ip),
        }
    }

    /// Whether a frame from (`port`, `mac`, `ip`) towards the server is
    /// forwarded by switch `i`.
    pub fn probe_one(&mut self, i: usize, port: u32, mac: MacAddr, ip: Ipv4Addr) -> bool {
        let udp = UdpRepr {
            src_port: 9,
            dst_port: 9,
            payload_len: 5,
        };
        let ipr = Ipv4Repr::udp(ip, self.srv_ip, udp.buffer_len());
        let eth = EthernetRepr {
            src: mac,
            dst: self.srv_mac,
            ethertype: EtherType::Ipv4,
        };
        let frame = build_ipv4_udp(&eth, &ipr, &udp, b"probe");
        if let Some(cap) = &mut self.capture {
            if cap.probes.len() < CAPTURE_MAX {
                cap.probes.push((i, port, frame.clone()));
            }
        }
        let now = self.sim_now();
        let out = self.sw[i].core.receive_frame(now, port, frame);
        !out.tx.is_empty()
    }

    /// Switch `i` is connected, answered the controller's flow-stats
    /// request, and holds its whole SAV edge rule set.
    pub fn edge_ready(&self, i: usize) -> bool {
        let s = &self.sw[i];
        if s.conn.is_none() || !s.stats_answered {
            return false;
        }
        let edge = [
            PRIO_TRUNK,
            PRIO_OSAV_DENY,
            PRIO_DHCP_CLIENT,
            PRIO_DHCP_TRUST,
        ];
        let held = s.core.table(0).map_or(0, |t| {
            t.entries()
                .filter(|e| e.cookie & SAV_COOKIE_MASK == SAV_COOKIE && edge.contains(&e.priority))
                .count()
        });
        held == s.edge_rules
    }

    /// Switch `i` holds exactly its edge rules plus one allow rule per key
    /// in `desired`, and no other SAV-cookie rule.
    pub fn holds_exactly(&self, i: usize, desired: &HashSet<AllowKey>) -> bool {
        let sav_rules = self.sw[i].core.table(0).map_or(0, |t| {
            t.entries()
                .filter(|e| e.cookie & SAV_COOKIE_MASK == SAV_COOKIE)
                .count()
        });
        self.edge_ready(i)
            && sav_rules == self.sw[i].edge_rules + desired.len()
            && self.allow_set(i) == *desired
    }

    /// The per-host SAV allow rules switch `i` holds.
    pub fn allow_set(&self, i: usize) -> HashSet<AllowKey> {
        let Some(t) = self.sw[i].core.table(0) else {
            return HashSet::new();
        };
        t.entries()
            .filter(|e| e.priority == PRIO_ALLOW && e.cookie & SAV_COOKIE_MASK == SAV_COOKIE)
            .filter_map(|e| {
                let fm = FlowMod {
                    cookie: e.cookie,
                    priority: e.priority,
                    ..FlowMod::add(e.match_.clone())
                };
                allow_key(&fm).map(|(_, k)| k)
            })
            .collect()
    }

    /// The allow rule client `c` is entitled to.
    pub fn key_of(&self, c: usize) -> AllowKey {
        let cl = &self.clients[c];
        (cl.port, cl.mac, cl.ip)
    }
}

fn dhcp_frame(mac: MacAddr, src_ip: Ipv4Addr, msg: &DhcpRepr) -> Vec<u8> {
    let payload = msg.to_bytes();
    let udp = UdpRepr {
        src_port: DHCP_CLIENT_PORT,
        dst_port: DHCP_SERVER_PORT,
        payload_len: payload.len(),
    };
    let ip = Ipv4Repr::udp(src_ip, Ipv4Addr::BROADCAST, udp.buffer_len());
    let eth = EthernetRepr {
        src: mac,
        dst: MacAddr::BROADCAST,
        ethertype: EtherType::Ipv4,
    };
    build_ipv4_udp(&eth, &ip, &udp, &payload)
}
