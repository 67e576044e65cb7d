//! WAL group commit through the controller core.
//!
//! A batch of DHCPACK packet-ins decoded from one read costs one WAL
//! commit (one fsync), and that commit runs before the batch's output is
//! returned: no allow flow-mod and no forwarded ACK leaves the controller
//! before the record of the binding it derives from is durable.

use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig, PRIO_ALLOW};
use sav_dataplane::switch::{OpenFlowSwitch, SwitchConfig};
use sav_net::builder::build_ipv4_udp;
use sav_net::dhcpv4::{DhcpMessageType, DhcpRepr, DHCP_CLIENT_PORT, DHCP_SERVER_PORT};
use sav_net::prelude::*;
use sav_obs::Obs;
use sav_openflow::messages::{FlowModCommand, Message, PacketIn, PacketInReason};
use sav_openflow::oxm::{OxmField, OxmMatch};
use sav_openflow::ports::PortDesc;
use sav_sim::SimTime;
use sav_store::{BindingStore, StoreConfig, WalOp};
use sav_topo::generators;
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

const N: u32 = 24;

/// Records the tap saw: the IPs made durable, in commit order.
type Durable = Arc<Mutex<Vec<Ipv4Addr>>>;

struct Rig {
    topo: Arc<Topology>,
    ctrl: Controller,
    sw: OpenFlowSwitch,
    obs: Obs,
    durable: Durable,
    dir: std::path::PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fsyncs(obs: &Obs) -> u64 {
    obs.tracer.histogram("wal_fsync").map_or(0, |h| h.count())
}

/// A handshaken controller (`SavApp` over a fresh store, then L2 routing)
/// and switch 1 of `linear(2, 2)`, which hosts the DHCP server.
fn rig(tag: &str) -> Rig {
    let dir = std::env::temp_dir().join(format!(
        "sav-group-commit-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Arc::new(generators::linear(2, 2));
    let server = &topo.hosts()[0];
    let config = SavConfig {
        static_plan: false,
        trusted_dhcp_ports: vec![(server.switch.dpid(), server.port)],
        ..SavConfig::default()
    };
    let obs = Obs::with_tracing();
    let mut store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let durable: Durable = Arc::default();
    let sink = durable.clone();
    store.set_tap(Box::new(move |_, op| {
        if let WalOp::Upsert(rec) = op {
            sink.lock().unwrap().push(rec.ip);
        }
    }));
    let app = SavApp::with_store(topo.clone(), config, store).with_obs(obs.clone());
    let routes = Arc::new(Routes::compute(&topo));
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(app),
        Box::new(L2RoutingApp::new(topo.clone(), routes)),
    ];
    let mut ctrl = Controller::new(apps);
    ctrl.set_obs(obs.clone());
    let ports = (1..=3)
        .map(|p| PortDesc::new(p, MacAddr::from_index(100 + u64::from(p))))
        .collect();
    let mut sw = OpenFlowSwitch::new(SwitchConfig::new(server.switch.dpid()), ports);

    // Handshake plus the reconcile round trip that gates rule installs.
    let now = SimTime::ZERO;
    let mut to_sw = vec![ctrl.on_connect(0)];
    let mut to_ctrl = vec![sw.hello()];
    while !to_sw.is_empty() || !to_ctrl.is_empty() {
        for b in to_sw.drain(..) {
            to_ctrl.extend(sw.handle_controller_bytes(now, &b).unwrap().to_controller);
        }
        for b in std::mem::take(&mut to_ctrl) {
            let out = ctrl.on_bytes(now, 0, &b).unwrap();
            to_sw.extend(out.to_switch.into_iter().map(|(_, b)| b));
        }
    }
    Rig {
        topo,
        ctrl,
        sw,
        obs,
        durable,
        dir,
    }
}

fn client_mac(i: u32) -> MacAddr {
    MacAddr::from_index(5000 + u64::from(i))
}

fn lease_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0164 + i)
}

fn dhcp_packet_in(
    in_port: u32,
    eth: (MacAddr, MacAddr),
    ip: (Ipv4Addr, Ipv4Addr),
    ports: (u16, u16),
    msg: &DhcpRepr,
) -> Vec<u8> {
    let payload = msg.to_bytes();
    let udp = UdpRepr {
        src_port: ports.0,
        dst_port: ports.1,
        payload_len: payload.len(),
    };
    let ipr = Ipv4Repr::udp(ip.0, ip.1, udp.buffer_len());
    let ethr = EthernetRepr {
        src: eth.0,
        dst: eth.1,
        ethertype: EtherType::Ipv4,
    };
    let frame = build_ipv4_udp(&ethr, &ipr, &udp, &payload);
    Message::PacketIn(PacketIn {
        buffer_id: sav_openflow::consts::NO_BUFFER,
        total_len: frame.len() as u16,
        reason: PacketInReason::Action,
        table_id: 0,
        cookie: sav_core::SAV_COOKIE,
        match_: OxmMatch::new().with(OxmField::InPort(in_port)),
        data: frame,
    })
    .encode(7)
}

/// One chunk of N DHCPREQUEST packet-ins from the client port.
fn requests(rig: &Rig) -> Vec<u8> {
    let port = rig.topo.hosts()[1].port;
    (0..N)
        .flat_map(|i| {
            let msg = DhcpRepr::client(DhcpMessageType::Request, i, client_mac(i));
            dhcp_packet_in(
                port,
                (client_mac(i), MacAddr::BROADCAST),
                (Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST),
                (DHCP_CLIENT_PORT, DHCP_SERVER_PORT),
                &msg,
            )
        })
        .collect()
}

/// The server's DHCPACK for client `i`, punted from the trusted port.
fn ack(rig: &Rig, i: u32) -> Vec<u8> {
    let server = &rig.topo.hosts()[0];
    let msg = DhcpRepr {
        message_type: DhcpMessageType::Ack,
        xid: i,
        client_mac: client_mac(i),
        client_ip: Ipv4Addr::UNSPECIFIED,
        your_ip: lease_ip(i),
        requested_ip: None,
        server_id: Some(server.ip),
        lease_secs: Some(600),
        subnet_mask: None,
        router: None,
    };
    dhcp_packet_in(
        server.port,
        (server.mac, client_mac(i)),
        (server.ip, lease_ip(i)),
        (DHCP_SERVER_PORT, DHCP_CLIENT_PORT),
        &msg,
    )
}

/// Allow flow-mod adds in a controller output, by the IP they admit.
fn allowed_ips(bytes: &[(usize, Vec<u8>)]) -> Vec<Ipv4Addr> {
    bytes
        .iter()
        .filter_map(|(_, b)| match Message::decode(b).unwrap().0 {
            Message::FlowMod(fm)
                if fm.priority == PRIO_ALLOW && fm.command == FlowModCommand::Add =>
            {
                fm.match_.fields().iter().find_map(|f| match f {
                    OxmField::Ipv4Src(ip, None) => Some(*ip),
                    _ => None,
                })
            }
            _ => None,
        })
        .collect()
}

#[test]
fn one_read_of_n_acks_costs_one_commit_before_the_flow_mods_return() {
    let mut rig = rig("batch");
    let now = SimTime::ZERO;

    // Client requests journal nothing: no commit, no fsync.
    let reqs = requests(&rig);
    rig.ctrl.on_bytes(now, 0, &reqs).unwrap();
    assert_eq!(
        fsyncs(&rig.obs),
        0,
        "an app that never journals never fsyncs"
    );
    assert_eq!(rig.obs.counters.get("sav_wal_commits_total"), 0);

    let chunk: Vec<u8> = (0..N).flat_map(|i| ack(&rig, i)).collect();
    let out = rig.ctrl.on_bytes(now, 0, &chunk).unwrap();
    assert_eq!(
        fsyncs(&rig.obs),
        1,
        "N bindings in one read share one fsync"
    );
    assert_eq!(rig.obs.counters.get("sav_wal_commits_total"), 1);
    let allowed = allowed_ips(&out.to_switch);
    assert_eq!(allowed.len(), N as usize, "one allow rule per binding");
    // The tap fires only for durable records, so by the time on_bytes
    // hands the flow-mods back every binding behind them is on disk.
    assert_eq!(
        *rig.durable.lock().unwrap(),
        (0..N).map(lease_ip).collect::<Vec<_>>(),
        "every record committed, in order, before the output returned"
    );

    // The batch is real output: the switch accepts every rule.
    let before = rig.sw.total_flows();
    for (_, b) in &out.to_switch {
        rig.sw.handle_controller_bytes(now, b).unwrap();
    }
    assert_eq!(rig.sw.total_flows(), before + N as usize);
}

/// Durability order, one binding per read: every allow flow-mod and every
/// forwarded DHCPACK packet-out the controller returns is covered by a
/// commit that already ran.
#[test]
fn no_flow_mod_or_dhcp_packet_out_precedes_its_commit() {
    let mut rig = rig("order");
    let now = SimTime::ZERO;
    let reqs = requests(&rig);
    rig.ctrl.on_bytes(now, 0, &reqs).unwrap();

    for i in 0..N {
        let out = rig.ctrl.on_bytes(now, 0, &ack(&rig, i)).unwrap();
        let durable: HashSet<Ipv4Addr> = rig.durable.lock().unwrap().iter().copied().collect();
        let allowed = allowed_ips(&out.to_switch);
        assert_eq!(allowed, vec![lease_ip(i)]);
        for ip in &allowed {
            assert!(
                durable.contains(ip),
                "flow-mod for {ip} left before its commit"
            );
        }
        let acks_out: Vec<Ipv4Addr> = out
            .to_switch
            .iter()
            .filter_map(|(_, b)| match Message::decode(b).unwrap().0 {
                Message::PacketOut(po) => {
                    let parsed = sav_net::packet::ParsedPacket::parse(&po.data).ok()?;
                    parsed.is_dhcp().then(|| parsed.ipv4_dst()).flatten()
                }
                _ => None,
            })
            .collect();
        assert!(!acks_out.is_empty(), "the ACK is forwarded to the client");
        for ip in &acks_out {
            assert!(
                durable.contains(ip),
                "DHCPACK to {ip} left before its commit"
            );
        }
        assert_eq!(
            rig.obs.counters.get("sav_wal_commits_total"),
            u64::from(i) + 1,
            "one commit per read"
        );
    }
}
