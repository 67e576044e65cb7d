//! Hot-standby controller failover, live over loopback TCP: the
//! `sav-cluster` story end to end.
//!
//! Two controller nodes form a replication group. Node 1 (lowest id) wins
//! the election, takes its durable replica as the active binding store,
//! and every committed append is streamed to node 2's own on-disk replica. Each
//! node exposes a role-aware `/healthz` — exactly what a load balancer
//! would probe. Node 1 is then killed without ceremony: node 2 claims
//! leadership at a strictly higher generation within one liveness lease,
//! promotes its replica (every binding already present, zero re-learning),
//! and its health endpoint flips from `standby` to `master`.
//!
//! ```text
//! cargo run --release -p sav-examples --bin failover
//! ```
//!
//! Exits non-zero if any stage fails, so CI can use it as a smoke test.

use sav_cluster::{ClusterConfig, ClusterEvent, ClusterHandle, ClusterNode, Role};
use sav_net::addr::MacAddr;
use sav_obs::http::http_get;
use sav_obs::{Obs, ObsServer};
use sav_store::{BindingRecord, BindingStore, RecordSource, WalOp};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sav-failover-demo-{tag}-{}", std::process::id()));
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

fn node_config(
    id: u64,
    listen: SocketAddr,
    peers: Vec<(u64, SocketAddr)>,
    obs: Obs,
) -> ClusterConfig {
    let mut c = ClusterConfig::new(id, listen, peers, tmp(&format!("node{id}")));
    c.lease = Duration::from_millis(400);
    c.heartbeat_interval = Duration::from_millis(50);
    c.obs = obs;
    c
}

/// The embedder's promotion step: take the replica and wire the
/// replication tap back in (a real deployment hands this store to
/// `SavApp::with_store` and binds its southbound listener here).
fn promote(h: &ClusterHandle) -> BindingStore {
    let mut store = h.take_store().expect("replica already taken");
    store.set_tap(h.wal_tap());
    store
}

fn healthz(addr: SocketAddr) -> String {
    http_get(addr, "/healthz")
        .map(|(_, body)| body.trim().to_string())
        .unwrap_or_else(|e| format!("unreachable ({e})"))
}

fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn binding(i: u8) -> BindingRecord {
    BindingRecord {
        ip: Ipv4Addr::new(10, 0, 0, i),
        mac: MacAddr::from_index(u64::from(i)),
        dpid: 1,
        port: u32::from(i),
        source: RecordSource::Dhcp,
        expires: None,
    }
}

fn main() {
    println!("=== sav-cluster: hot-standby failover over loopback ===\n");

    let (peer1, peer2) = (free_addr(), free_addr());
    let (obs1, obs2) = (Obs::new(), Obs::new());
    let n1 = ClusterNode::spawn(node_config(1, peer1, vec![(2, peer2)], obs1.clone())).unwrap();
    let n2 = ClusterNode::spawn(node_config(2, peer2, vec![(1, peer1)], obs2.clone())).unwrap();
    let h1 = ObsServer::bind("127.0.0.1:0", obs1.clone()).unwrap();
    let h2 = ObsServer::bind("127.0.0.1:0", obs2.clone()).unwrap();

    let ev = n1
        .events()
        .recv_timeout(Duration::from_secs(10))
        .expect("node 1 must win the initial election");
    assert_eq!(ev, ClusterEvent::BecameLeader { generation: 1 });
    let mut store = promote(&n1);
    println!("node 1 elected leader (generation 1)");
    println!("  node 1 /healthz: {}", healthz(h1.local_addr()));
    println!("  node 2 /healthz: {}\n", healthz(h2.local_addr()));

    println!("leader learns 3 bindings; each committed WAL record streams to the standby:");
    for i in 1..=3u8 {
        store.append(&WalOp::Upsert(binding(i))).unwrap();
    }
    // One group commit makes the three records durable and streams them.
    store.commit().unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || n2.seq() == 3),
        "standby must replicate all records"
    );
    println!(
        "  standby replica: {} bindings at seq {} (lag 0)\n",
        n2.bindings().len(),
        n2.seq()
    );

    println!("killing node 1 (no goodbye) ...");
    let t0 = Instant::now();
    drop(store);
    n1.shutdown();
    h1.shutdown();

    let ev = n2
        .events()
        .recv_timeout(Duration::from_secs(10))
        .expect("node 2 must take over");
    assert_eq!(ev, ClusterEvent::BecameLeader { generation: 2 });
    let replica = promote(&n2);
    assert_eq!(replica.bindings().len(), 3, "zero re-learning");
    n2.report_failover_complete();
    println!(
        "node 2 took over in {:?} (generation 2, {} bindings already on disk)",
        t0.elapsed(),
        replica.bindings().len()
    );
    assert!(
        wait_for(Duration::from_secs(5), || n2.role() == Role::Leader
            && healthz(h2.local_addr()) == "ok role=master"),
        "standby health must flip to master"
    );
    println!("  node 2 /healthz: {}", healthz(h2.local_addr()));
    println!(
        "  sav_failover_total = {}\n",
        obs2.counters.get("sav_failover_total")
    );
    println!("journal tail (node 2):");
    for line in obs2.journal.tail_jsonl(3).lines() {
        println!("  {line}");
    }

    h2.shutdown();
    n2.shutdown();
    println!("\nOK: failover completed with a hot replica and no re-learning.");
}
