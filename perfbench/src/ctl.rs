//! The system under test: one controller life, exactly as a deployment
//! runs it — `SavApp::with_store` over the default `StoreConfig` (fsync on
//! every append), `L2RoutingApp` behind it, an `Obs` handle wired into the
//! app, the store and the southbound server — bound on loopback.
//!
//! The only bench-side additions sit outside the program: a WAL tap that
//! counts appends, and an `App` wrapper that times `SavApp`'s
//! `on_packet_in` and `on_stats_reply` calls.

use sav_channel::server::{ServerConfig, SouthboundServer};
use sav_controller::app::{App, Ctx, Disposition};
use sav_controller::apps::L2RoutingApp;
use sav_controller::Controller;
use sav_core::{SavApp, SavConfig};
use sav_obs::Obs;
use sav_openflow::messages::{FlowRemoved, MultipartReplyBody, PacketIn, PortStatus};
use sav_store::{BindingStore, StoreConfig};
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall time of `SavApp` callbacks, in nanoseconds per call.
#[derive(Default)]
pub struct AppTimes {
    pub packet_in_ns: Vec<f64>,
    pub stats_reply_ns: Vec<f64>,
}

pub type SharedTimes = Arc<Mutex<AppTimes>>;

/// Delegates every callback to the wrapped `SavApp`, timing two of them
/// when given somewhere to record the times.
struct TimedSav {
    inner: SavApp,
    times: Option<SharedTimes>,
}

impl TimedSav {
    fn start(&self) -> Option<Instant> {
        self.times.as_ref().map(|_| Instant::now())
    }

    fn record(&self, pick: fn(&mut AppTimes) -> &mut Vec<f64>, since: Option<Instant>) {
        if let (Some(times), Some(since)) = (&self.times, since) {
            let ns = since.elapsed().as_nanos() as f64;
            pick(&mut times.lock().expect("app timing lock poisoned")).push(ns);
        }
    }
}

impl App for TimedSav {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_switch_up(&mut self, ctx: &mut Ctx, dpid: u64) {
        self.inner.on_switch_up(ctx, dpid)
    }

    fn on_switch_down(&mut self, ctx: &mut Ctx, dpid: u64) {
        self.inner.on_switch_down(ctx, dpid)
    }

    fn on_packet_in(&mut self, ctx: &mut Ctx, dpid: u64, pi: &PacketIn) -> Disposition {
        let t = self.start();
        let d = self.inner.on_packet_in(ctx, dpid, pi);
        self.record(|a| &mut a.packet_in_ns, t);
        d
    }

    fn on_flow_removed(&mut self, ctx: &mut Ctx, dpid: u64, fr: &FlowRemoved) {
        self.inner.on_flow_removed(ctx, dpid, fr)
    }

    fn on_port_status(&mut self, ctx: &mut Ctx, dpid: u64, ps: &PortStatus) {
        self.inner.on_port_status(ctx, dpid, ps)
    }

    fn on_stats_reply(&mut self, ctx: &mut Ctx, dpid: u64, body: &MultipartReplyBody) {
        let t = self.start();
        self.inner.on_stats_reply(ctx, dpid, body);
        self.record(|a| &mut a.stats_reply_ns, t);
    }

    fn on_poll(&mut self, ctx: &mut Ctx, dpid: u64) {
        self.inner.on_poll(ctx, dpid)
    }
}

/// One running controller.
pub struct Life {
    pub server: SouthboundServer,
    pub obs: Obs,
    /// WAL appends made by this life's store.
    pub appends: Arc<AtomicU64>,
    /// How long `BindingStore::open` took to replay the directory.
    pub replay: Duration,
}

impl Life {
    /// Open the store in `dir` and bind a controller on it. With `times`,
    /// `SavApp`'s `on_packet_in` and `on_stats_reply` calls are timed into
    /// it.
    pub fn start(
        topo: &Arc<Topology>,
        config: &SavConfig,
        dir: &Path,
        traced: bool,
        times: Option<&SharedTimes>,
    ) -> std::io::Result<Life> {
        let obs = if traced {
            Obs::with_tracing()
        } else {
            Obs::new()
        };
        let t = Instant::now();
        let mut store = BindingStore::open(dir, StoreConfig::default())?;
        let replay = t.elapsed();
        let appends = Arc::new(AtomicU64::new(0));
        let tap = appends.clone();
        store.set_tap(Box::new(move |_, _| {
            tap.fetch_add(1, Ordering::Relaxed);
        }));
        let sav = SavApp::with_store(topo.clone(), config.clone(), store).with_obs(obs.clone());
        let routes = Arc::new(Routes::compute(topo));
        let apps: Vec<Box<dyn App>> = vec![
            Box::new(TimedSav {
                inner: sav,
                times: times.cloned(),
            }),
            Box::new(L2RoutingApp::new(topo.clone(), routes)),
        ];
        let server = SouthboundServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                obs: Some(obs.clone()),
                ..ServerConfig::default()
            },
            Controller::new(apps),
        )?;
        Ok(Life {
            server,
            obs,
            appends,
            replay,
        })
    }

    /// PACKET_INs the controller has dispatched to its apps.
    pub fn packet_ins(&self) -> u64 {
        self.server.controller().lock().stats.packet_ins
    }

    /// A counter from this life's `/metrics` registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.obs.counters.get(name)
    }

    /// SAV flow-mods (installs plus deletes) the app has sent.
    pub fn sav_mods(&self) -> u64 {
        self.counter("sav_rules_installed_total") + self.counter("sav_rules_deleted_total")
    }
}
