//! **Perf trajectory** — the repo's headline numbers, appended run-over-run
//! to `results/trajectory.json` so the performance story is a committed,
//! reviewable artifact rather than folklore:
//!
//! * `rules_per_sec` / `mods_per_op` — incremental compiler throughput and
//!   steady-state churn delta (fig1b's n=2048 cell, budget ∞);
//! * `tte_p50_ms` / `tte_p99_ms` — causal time-to-enforcement quantiles
//!   from live DORA exchanges: packet-in → WAL fsync → compile → send →
//!   barrier ack, measured by the sav-obs trace pipeline itself;
//! * `takeover_ms` — cold standby promotion: WAL replay + hydration +
//!   full rule install for a 4096-binding table.
//!
//! `TRAJECTORY_CHECK=1` runs the *same* measurement (identical sizes, so
//! deterministic metrics stay comparable) and fails when any metric moved
//! more than 20% in its bad direction vs the committed baseline (the tte
//! quantiles also carry an absolute noise floor — see
//! `trajectory::noise_floor`), writing nothing. Without it, the run is
//! appended and the file saved — commit the diff to extend the trajectory.

use sav_baselines::Mechanism;
use sav_bench::{results_dir, ScenarioOpts, Trajectory};
use sav_controller::app::Ctx;
use sav_controller::testbed::TestbedCmd;
use sav_controller::App;
use sav_core::{Binding, BindingSource, SavApp, SavConfig};
use sav_dataplane::host::{DhcpServerState, HostApp};
use sav_net::addr::{Ipv4Cidr, MacAddr};
use sav_obs::Obs;
use sav_openflow::messages::{Message, MultipartReplyBody};
use sav_sim::SimTime;
use sav_store::{BindingRecord, BindingStore, RecordSource, StoreConfig, WalOp};
use sav_topo::generators as topogen;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Same shape as fig1b: bindings per access port of one edge switch,
/// ¾ dense / ¼ sparse.
const COMPILE_BINDINGS: usize = 2048;
const COMPILE_PORTS: u32 = 4;
const CHURN_OPS: usize = 64;
/// DORA exchanges feeding the time-to-enforcement quantiles.
const DORA_CLIENTS: usize = 64;
/// Recovered table size for the takeover measurement.
const TAKEOVER_BINDINGS: u32 = 4096;

fn mk_bindings(n: usize) -> Vec<Binding> {
    (0..n)
        .map(|i| {
            let port = (i as u32 % COMPILE_PORTS) + 1;
            let j = (i / COMPILE_PORTS as usize) as u32;
            let per_port = n as u32 / COMPILE_PORTS;
            let dense_cut = per_port * 3 / 4;
            let offset = if j < dense_cut {
                j
            } else {
                0x8000 + 2 * (j - dense_cut)
            };
            Binding {
                ip: Ipv4Addr::from((10u32 << 24) | (port << 16) | offset),
                mac: MacAddr::from_index(i as u64 + 1),
                dpid: 1,
                port,
                source: BindingSource::Dhcp,
                expires: Some(SimTime::from_secs(3600)),
            }
        })
        .collect()
}

fn flow_mod_count(ctx: Ctx) -> usize {
    ctx.take()
        .iter()
        .filter(|(_, m)| matches!(m, Message::FlowMod(_)))
        .count()
}

/// Compiler throughput: seed n bindings one upsert at a time (rules/sec),
/// then steady-state release+rebind churn (flow-mods per op).
fn measure_compiler() -> (f64, f64) {
    let topo = Arc::new(topogen::linear(2, 2));
    let config = SavConfig {
        static_plan: false,
        dhcp_snooping: false,
        ..SavConfig::default()
    };
    let mut app = SavApp::new(topo, config);
    let bindings = mk_bindings(COMPILE_BINDINGS);

    let t0 = Instant::now();
    for b in &bindings {
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.upsert_binding(&mut ctx, *b);
        drop(ctx.take());
    }
    let rules_per_sec = COMPILE_BINDINGS as f64 / t0.elapsed().as_secs_f64();

    let mut churn_mods = 0;
    for k in 0..CHURN_OPS {
        let b = bindings[(k * 17 + 3) % bindings.len()];
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.release_binding(&mut ctx, b.ip);
        churn_mods += flow_mod_count(ctx);
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.upsert_binding(&mut ctx, b);
        churn_mods += flow_mod_count(ctx);
    }
    let mods_per_op = churn_mods as f64 / (CHURN_OPS as f64 * 2.0);
    (rules_per_sec, mods_per_op)
}

/// Time-to-enforcement: run real DORA exchanges through the testbed with
/// tracing on and read the quantiles the causal trace pipeline recorded.
/// Wall-clock per trace spans packet-in → barrier ack, i.e. exactly the
/// controller work the headline histogram is defined over.
fn measure_tte() -> (f64, f64) {
    let topo = Arc::new(topogen::linear(1, DORA_CLIENTS as u32 + 1));
    let pool: Ipv4Cidr = "10.200.0.0/16".parse().unwrap();
    let server_node = &topo.hosts()[0];
    let trusted = (server_node.switch.dpid(), server_node.port);
    let mut opts = ScenarioOpts {
        seed_arp: false,
        sav_overrides: Box::new(move |cfg| {
            cfg.static_plan = false;
            cfg.trusted_dhcp_ports = vec![trusted];
        }),
        ..Default::default()
    };
    opts.host_app = Box::new(move |h| {
        if h.id.0 == 0 {
            HostApp::DhcpServer(DhcpServerState::new(pool, 100, 3600))
        } else {
            HostApp::Sink
        }
    });

    let obs = Obs::with_tracing();
    let mut tb = sav_bench::scenario::build_testbed(&topo, Mechanism::SdnSav, opts);
    tb.controller_mut().set_obs(obs.clone());
    tb.controller_mut()
        .with_app::<SavApp, _>(|a| a.set_obs(obs.clone()))
        .expect("SdnSav testbed has a SavApp");
    tb.connect_control_plane();
    tb.run_until(SimTime::from_millis(100));

    for i in 1..=DORA_CLIENTS {
        tb.schedule(
            SimTime::from_millis(200 + 50 * i as u64),
            TestbedCmd::DhcpDiscover { host: i },
        );
    }
    tb.run_until(SimTime::from_secs(60));

    let completed = obs.traces.completed();
    assert!(
        completed >= DORA_CLIENTS as u64,
        "every DORA exchange must complete a causal trace \
         ({completed}/{DORA_CLIENTS} completed, {} abandoned)",
        obs.traces.abandoned()
    );
    let h = obs
        .tracer
        .histogram("time_to_enforcement")
        .expect("tracing enabled: tte histogram exists");
    (h.quantile(0.5) * 1e3, h.quantile(0.99) * 1e3)
}

/// Cold takeover: WAL replay + binding hydration + full rule install for
/// a pre-seeded table, the failover path's dominant cost.
fn measure_takeover() -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "sav-trajectory-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Arc::new(topogen::linear(2, 2));
    let dpid = topo.switches()[0].id.dpid();

    let mut store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    for i in 0..TAKEOVER_BINDINGS {
        store
            .append(&WalOp::Upsert(BindingRecord {
                ip: Ipv4Addr::from(0x0a40_0000 + i),
                mac: MacAddr::from_index(u64::from(i) + 1),
                dpid,
                port: (i % 2) + 1,
                source: RecordSource::Dhcp,
                expires: Some(SimTime::from_secs(3600)),
            }))
            .unwrap();
    }
    store.commit().unwrap();
    drop(store);

    let config = SavConfig {
        static_plan: false,
        ..SavConfig::default()
    };
    let t0 = Instant::now();
    let store = BindingStore::open(&dir, StoreConfig::default()).unwrap();
    let mut app = SavApp::with_store(topo, config, store);
    let mut ctx = Ctx::new(SimTime::ZERO);
    app.on_switch_up(&mut ctx, dpid);
    drop(ctx.take()); // reconcile stats request
    let mut ctx = Ctx::new(SimTime::ZERO);
    // An empty switch table (fresh standby hardware) forces a full install.
    app.on_stats_reply(&mut ctx, dpid, &MultipartReplyBody::Flow(vec![]));
    let installed = flow_mod_count(ctx);
    let takeover_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert!(
        installed >= TAKEOVER_BINDINGS as usize,
        "takeover must install the recovered table ({installed} mods)"
    );
    let _ = std::fs::remove_dir_all(&dir);
    takeover_ms
}

/// Repetitions per measurement. Wall-clock noise is one-sided (contention
/// only ever slows a run down), so each metric keeps its best across
/// repetitions — the gate then compares capability, not scheduler luck.
const REPS: usize = 5;

fn best_of<T, F: FnMut() -> T>(mut f: F, better: impl Fn(&T, &T) -> bool) -> T {
    let mut best = f();
    for _ in 1..REPS {
        let next = f();
        if better(&next, &best) {
            best = next;
        }
    }
    best
}

fn main() {
    let check = std::env::var("TRAJECTORY_CHECK").is_ok();
    println!(
        "Perf trajectory: headline numbers (best of {REPS}){}\n",
        if check { " [check mode]" } else { "" }
    );

    // One discarded warm-up pass so the first measured rep doesn't pay
    // for cold page/branch-predictor state on a freshly built binary.
    let _ = measure_compiler();

    // mods_per_op is deterministic (same compiler, same inputs); the
    // throughput half keeps the fastest repetition.
    let (rules_per_sec, mods_per_op) = best_of(measure_compiler, |a, b| a.0 > b.0);
    // Latency quantiles keep the quietest repetition, ranked by the p99.
    let (tte_p50_ms, tte_p99_ms) = best_of(measure_tte, |a, b| a.1 < b.1);
    let takeover_ms = best_of(measure_takeover, |a, b| a < b);

    let current: sav_bench::Metrics = [
        ("rules_per_sec".to_string(), rules_per_sec),
        ("mods_per_op".to_string(), mods_per_op),
        ("tte_p50_ms".to_string(), tte_p50_ms),
        ("tte_p99_ms".to_string(), tte_p99_ms),
        ("takeover_ms".to_string(), takeover_ms),
    ]
    .into_iter()
    .collect();
    for (k, v) in &current {
        println!("  {k:<16} {v:.3}");
    }

    let path = results_dir().join("trajectory.json");
    let mut trajectory = Trajectory::load(&path);
    if check {
        if trajectory.baseline.is_none() {
            println!("\n[no baseline committed; skipping trajectory gate]");
            return;
        }
        let regressions = trajectory.regressions(&current);
        if regressions.is_empty() {
            println!("\n[trajectory gate passed vs committed baseline]");
        } else {
            eprintln!("\ntrajectory gate FAILED:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    } else {
        trajectory.append_run(current);
        trajectory.save(&path).expect("write trajectory.json");
        println!("\n[saved {} — commit the diff]", path.display());
    }
}
