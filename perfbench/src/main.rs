//! Live time-to-enforcement benchmark for the SDN-SAV controller.
//!
//! One process, two threads: the `SouthboundServer` event loop (the
//! system under test: `SavApp` over a WAL that fsyncs every append, plus
//! `L2RoutingApp`) and this bench thread, which drives two emulated
//! OpenFlow switches, their DHCP clients and the DHCP server over loopback
//! TCP on a `sav-poll` `Poller`. See `perfbench/README.md` for the
//! workloads, the metric definitions and the first measured table.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lease_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are a human-readable table. Exit code 0 only when every correctness
//! check passed.

mod ctl;
mod net;
mod replay;
mod stats;
mod sys;

use ctl::{Life, SharedTimes};
use net::{AllowKey, Net, Phase};
use sav_core::SavConfig;
use sav_dataplane::flow_table::FlowTable;
use sav_obs::CompletedTrace;
use sav_sim::SimTime;
use sav_store::{BindingRecord, BindingStore, RecordSource, StoreConfig, WalOp};
use sav_topo::generators;
use sav_topo::Topology;
use stats::{median, quantile, ratio, Rng, Samples};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run, and the pause between two of them; `setup_s` is their
/// median.
const SETUPS: usize = 31;
const SETUP_GAP: Duration = Duration::from_millis(100);
const SETUP_DEADLINE: Duration = Duration::from_secs(10);
/// A binding (or release) not enforced this long after it started fails.
const ENFORCE_DEADLINE: Duration = Duration::from_secs(2);
const RECOVERY_DEADLINE: Duration = Duration::from_secs(10);
/// A run whose generator ran later than this at the 99th percentile is
/// invalid.
const LATE_LIMIT_MS: f64 = 25.0;
/// Stage self time must account for this share of each trace (ROADMAP 1a).
const COVERAGE_BAR: f64 = 0.9;
/// Length of one steal window (see `Session::close_windows`).
const STEAL_WINDOW: Duration = Duration::from_millis(500);
/// Largest share of CPU time stolen in a window that still counts as calm
/// (see `Results::calm`): about one 10 ms clock tick per window on a
/// two-CPU machine.
const CALM_STEAL: f64 = 0.015;

/// `lease_steady`: offered DHCP arrivals per second (Poisson) and the
/// seeded hold time before RELEASE, in seconds.
const LEASE_RATE: f64 = 100.0;
const LEASE_HOLD: (f64, f64) = (0.4, 1.0);
/// Slack after a hold before the generator may pick the same client again.
const LEASE_REUSE_GAP: f64 = 0.25;
const LEASE_WARMUP: f64 = 1.0;
/// `flash_crowd`: seeded gaps before each burst and each mass release.
const BURST_GAP: (f64, f64) = (0.02, 0.06);
const RELEASE_GAP: (f64, f64) = (0.005, 0.02);
const BURST_DEADLINE: Duration = Duration::from_secs(10);
/// Restart rounds: seeded share of each switch's bindings removed and
/// added in the WAL while the controller is down.
const MUTATE_FRAC: (f64, f64) = (0.02, 0.06);
/// Bindings that survived a restart untouched, probed after each recovery.
const KEPT_PROBES: usize = 16;
/// Share of `--seconds` that `lease_steady` spends on restart rounds after
/// its main phase.
const RESTART_SHARE: f64 = 1.0 / 3.0;
/// `restart_reconcile`: idle clients that DISCOVER together after each
/// recovery.
const RESTART_BURST: usize = 192;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    LeaseSteady,
    FlashCrowd,
    RestartReconcile,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = a.next() {
        let v = a.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match v.as_str() {
                    "lease_steady" => Workload::LeaseSteady,
                    "flash_crowd" => Workload::FlashCrowd,
                    "restart_reconcile" => Workload::RestartReconcile,
                    _ => return Err(format!("unknown workload {v}")),
                })
            }
            "--seed" => seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?,
            "--trace" => trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Clients per switch; bindings the WAL is seeded with per switch; whether
/// restart rounds follow the main phase.
struct Shape {
    per_switch: usize,
    seeded_per_switch: usize,
    end_restarts: bool,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::LeaseSteady => Shape {
            per_switch: 200,
            seeded_per_switch: 0,
            end_restarts: true,
        },
        Workload::FlashCrowd => Shape {
            per_switch: 500,
            seeded_per_switch: 0,
            end_restarts: false,
        },
        Workload::RestartReconcile => Shape {
            per_switch: 700,
            seeded_per_switch: 500,
            end_restarts: false,
        },
    }
}

/// Counters read from outside a controller life.
#[derive(Default, Clone, Copy)]
struct Counts {
    wakeups: u64,
    writev_frames: u64,
    send_spans: u64,
    packet_ins: u64,
    sav_mods: u64,
    appends: u64,
    server_cpu_ns: u64,
}

impl Counts {
    fn read(life: &Life) -> Counts {
        Counts {
            wakeups: life.counter("sav_poll_wakeups_total"),
            writev_frames: life.counter("sav_writev_batched_frames_total"),
            send_spans: life
                .obs
                .tracer
                .histogram("southbound_send")
                .map_or(0, |h| h.count()),
            packet_ins: life.packet_ins(),
            sav_mods: life.sav_mods(),
            appends: life.appends.load(Ordering::Relaxed),
            server_cpu_ns: sys::find_thread("sav-southbound").map_or(0, sys::thread_cpu_ns),
        }
    }

    /// `self += end - start`.
    fn accumulate(&mut self, end: Counts, start: Counts) {
        self.wakeups += end.wakeups - start.wakeups;
        self.writev_frames += end.writev_frames - start.writev_frames;
        self.send_spans += end.send_spans - start.send_spans;
        self.packet_ins += end.packet_ins - start.packet_ins;
        self.sav_mods += end.sav_mods - start.sav_mods;
        self.appends += end.appends - start.appends;
        self.server_cpu_ns += end.server_cpu_ns.saturating_sub(start.server_cpu_ns);
    }
}

/// One completed causal trace: its total and each stage's self time.
struct TraceRec {
    total_ns: f64,
    stages: Vec<(&'static str, f64)>,
}

impl TraceRec {
    fn from(t: &CompletedTrace) -> TraceRec {
        let span = |s: &sav_obs::TraceStage| (s.start_ns, s.end_ns.unwrap_or(s.start_ns));
        let stages = t
            .stages
            .iter()
            .map(|s| {
                let (a, b) = span(s);
                // Self time: the stage minus any other stage nested in it.
                let children: u64 = t
                    .stages
                    .iter()
                    .filter(|o| !std::ptr::eq(*o, s))
                    .map(span)
                    .filter(|&(c, d)| c >= a && d <= b && (c, d) != (a, b))
                    .map(|(c, d)| d - c)
                    .sum();
                (s.stage, (b - a).saturating_sub(children) as f64)
            })
            .collect();
        TraceRec {
            total_ns: t.total_secs * 1e9,
            stages,
        }
    }
}

/// Everything one session measured.
#[derive(Default)]
struct Results {
    setup_s: Vec<f64>,
    tte_ms: Samples,
    bind_ms: Samples,
    late_ms: Vec<f64>,
    recovery_ms: Tagged,
    replay_ms: Vec<f64>,
    reconcile_ms: Vec<f64>,
    /// Measured bindings enforced (`lease_steady`'s window, or the
    /// current `flash_crowd` round).
    rate_bindings: u64,
    /// Enforced bindings per second: one figure for `lease_steady`, one per
    /// round on the other workloads.
    rates: Tagged,
    attempted: u64,
    unenforced: u64,
    false_allow: u64,
    false_deny: u64,
    /// Bindings enforced while counters were being accumulated (the base
    /// of every per-binding ratio).
    accounted_bindings: u64,
    counts: Counts,
    main_wall_s: f64,
    bench_cpu_ns: u64,
    /// Share of all CPU time the hypervisor stole during the main phase.
    steal_frac: f64,
    /// Per steal window: the share of CPU time the hypervisor stole (1
    /// when the window's boundaries were not observed apart).
    steal: Vec<f64>,
    backlog_max: f64,
    /// Peak resident set at the end of the session, read before the
    /// samples are sorted and filtered.
    rss_mb: f64,
    packet_in_ns: Vec<f64>,
    traces: Vec<TraceRec>,
    tables: Vec<FlowTable>,
}

impl Results {
    fn failed(&self) -> u64 {
        self.unenforced + self.false_allow + self.false_deny
    }

    /// The values of `v` taken in calm windows, those where the hypervisor
    /// stole at most `CALM_STEAL` of the CPU time. When fewer than a
    /// quarter of the windows that hold any of them are calm, the calmest
    /// quarter is kept instead: ranked by steal share, ties broken by time.
    fn calm(&self, v: &[(usize, f64)]) -> Vec<f64> {
        let mut held: Vec<usize> = v.iter().map(|&(w, _)| w).filter(|&w| w != ALWAYS).collect();
        held.sort_unstable();
        held.dedup();
        let steal = |w: usize| self.steal.get(w).copied().unwrap_or(1.0);
        held.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)).then(a.cmp(&b)));
        let calm = held.iter().filter(|&&w| steal(w) <= CALM_STEAL).count();
        let keep = calm.max(held.len().div_ceil(4));
        let kept: HashSet<usize> = held.iter().take(keep).copied().collect();
        v.iter()
            .filter(|&&(w, _)| w == ALWAYS || kept.contains(&w))
            .map(|&(_, x)| x)
            .collect()
    }
}

/// Samples tagged with the steal window they were taken in.
type Tagged = Vec<(usize, f64)>;
/// Tag of a figure that covers the whole run and is never filtered.
const ALWAYS: usize = usize::MAX;

struct Session {
    workload: Workload,
    shape: Shape,
    traced: bool,
    seconds: f64,
    topo: Arc<Topology>,
    config: SavConfig,
    dir: PathBuf,
    net: Net,
    life: Option<Life>,
    times: SharedTimes,
    /// `SavApp` callbacks are timed (the per-layer untraced session only,
    /// so measured runs carry no timing in the controller's path).
    timed: bool,
    rng: Rng,
    /// Samples count toward the measured metrics.
    recording: bool,
    /// Counters are being accumulated into `r.counts`.
    accounting: bool,
    mark: Counts,
    bench_cpu_mark: u64,
    ticks_mark: (u64, u64),
    main_started: Instant,
    /// Per client: the binding in flight counts toward the samples.
    measured: Vec<bool>,
    /// Per client: seeded hold before RELEASE (`lease_steady`).
    hold: Vec<f64>,
    releases: BinaryHeap<Reverse<(Instant, usize)>>,
    traces_seen: u64,
    /// Start of the first steal window, and the machine's cumulative
    /// (total, steal) CPU ticks at each window boundary seen so far.
    win_origin: Instant,
    win_ticks: Vec<(u64, u64)>,
    r: Results,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Session {
    fn new(args: &Args, traced: bool, seconds: f64, capture: bool) -> io::Result<Session> {
        let topo = Arc::new(generators::linear(2, 4));
        let server = &topo.hosts()[0];
        let config = SavConfig {
            static_plan: false,
            trusted_dhcp_ports: vec![(server.switch.dpid(), server.port)],
            ..SavConfig::default()
        };
        let shape = shape(args.workload);
        let net = Net::new(&topo, shape.per_switch, capture)?;
        let n = net.clients.len();
        let dir = PathBuf::from(".bench_build").join(format!(
            "perfbench-wal-{}-{}",
            std::process::id(),
            u8::from(traced)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Session {
            workload: args.workload,
            shape,
            traced,
            seconds,
            topo,
            config,
            dir,
            net,
            life: None,
            times: SharedTimes::default(),
            timed: capture,
            rng: Rng::new(args.seed),
            recording: false,
            accounting: false,
            mark: Counts::default(),
            bench_cpu_mark: 0,
            ticks_mark: (0, 0),
            main_started: Instant::now(),
            measured: vec![false; n],
            hold: vec![0.0; n],
            releases: BinaryHeap::new(),
            traces_seen: 0,
            win_origin: Instant::now(),
            win_ticks: Vec::new(),
            r: Results::default(),
        })
    }

    /// Run the whole session: returns its results, the control-channel
    /// errors the switches saw, and the captured inputs (if capturing).
    fn run(mut self) -> io::Result<(Results, u64, Option<net::Capture>)> {
        if self.shape.seeded_per_switch > 0 {
            self.preseed()?;
        }
        self.setups()?;
        match self.workload {
            Workload::LeaseSteady => self.lease_steady()?,
            Workload::FlashCrowd => self.flash_crowd()?,
            Workload::RestartReconcile => self.restart_reconcile()?,
        }
        if self.shape.end_restarts {
            self.recording = true;
            let end = Instant::now() + secs(self.seconds * RESTART_SHARE);
            loop {
                self.restart_round()?;
                if Instant::now() >= end {
                    break;
                }
            }
        }
        self.close_windows();
        self.stop_life();
        self.r.rss_mb = sys::peak_rss_mb();
        Ok((self.r, self.net.channel_errors, self.net.capture.take()))
    }

    // ---- controller lives -----------------------------------------------

    fn start_life(&mut self) -> io::Result<Duration> {
        let life = Life::start(
            &self.topo,
            &self.config,
            &self.dir,
            self.traced,
            self.timed.then_some(&self.times),
        )?;
        let replay = life.replay;
        self.net.connect(life.server.local_addr())?;
        if self.accounting {
            self.mark = Counts::read(&life);
        }
        self.traces_seen = 0;
        self.life = Some(life);
        Ok(replay)
    }

    fn stop_life(&mut self) {
        let Some(life) = self.life.take() else {
            return;
        };
        if self.accounting {
            self.r.counts.accumulate(Counts::read(&life), self.mark);
        }
        life.server.shutdown();
        self.net.close_all();
    }

    /// Length of the main phase: `--seconds`, less the restart rounds that
    /// follow it.
    fn main_seconds(&self) -> f64 {
        if self.shape.end_restarts {
            self.seconds * (1.0 - RESTART_SHARE)
        } else {
            self.seconds
        }
    }

    fn life(&self) -> &Life {
        self.life.as_ref().expect("a controller is running")
    }

    // ---- steal windows ----------------------------------------------------

    /// The current steal window, recording the tick counters at every
    /// boundary crossed since the last call.
    fn window(&mut self) -> usize {
        let w = (self.win_origin.elapsed().as_nanos() / STEAL_WINDOW.as_nanos()) as usize;
        while self.win_ticks.len() <= w {
            self.win_ticks.push(sys::cpu_ticks());
        }
        w
    }

    /// Close the last window and work out every window's steal share.
    fn close_windows(&mut self) {
        self.window();
        self.win_ticks.push(sys::cpu_ticks());
        self.r.steal = self
            .win_ticks
            .windows(2)
            .map(|t| {
                let (total, stolen) = (t[1].0 - t[0].0, t[1].1 - t[0].1);
                if total == 0 {
                    1.0
                } else {
                    stolen as f64 / total as f64
                }
            })
            .collect();
    }

    // ---- the bench thread's loop ------------------------------------------

    /// Block until I/O or `deadline`, then account for what happened.
    fn step(&mut self, deadline: Option<Instant>) -> io::Result<()> {
        self.net.poll(deadline)?;
        if self.recording {
            self.window();
        }
        for c in std::mem::take(&mut self.net.enforced) {
            self.on_enforced(c);
        }
        for c in std::mem::take(&mut self.net.retired) {
            let cl = &self.net.clients[c];
            let (sw, port, mac, ip) = (cl.sw, cl.port, cl.mac, cl.ip);
            // Released: its address must no longer pass on its port.
            if self.net.probe_one(sw, port, mac, ip) {
                self.r.false_allow += 1;
            }
        }
        if self.accounting {
            if let Some(b) = self.life().obs.gauges.get("sav_southbound_backlog_bytes") {
                self.r.backlog_max = self.r.backlog_max.max(b);
            }
        }
        if self.traced {
            self.drain_traces();
        }
        Ok(())
    }

    fn on_enforced(&mut self, c: usize) {
        let cl = &self.net.clients[c];
        let at = cl.enforced_at.expect("enforced clients carry the instant");
        if self.recording && self.measured[c] {
            let (ack, due) = (cl.ack_at, cl.due);
            let w = self.window();
            if let Some(ack) = ack {
                self.r.tte_ms.push(w, ms(at - ack));
            }
            self.r
                .bind_ms
                .push(w, ms(at.saturating_duration_since(due)));
            self.r.rate_bindings += 1;
        }
        if self.accounting {
            self.r.accounted_bindings += 1;
        }
        self.measured[c] = false;
        let p = self.net.probe(c);
        self.r.false_deny += u64::from(!p.legit_forwarded);
        self.r.false_allow += u64::from(p.spoof_ip_forwarded) + u64::from(p.spoof_port_forwarded);
        if self.workload == Workload::LeaseSteady {
            self.releases.push(Reverse((at + secs(self.hold[c]), c)));
        }
    }

    fn drain_traces(&mut self) {
        let Some(life) = &self.life else {
            return;
        };
        let done = life.obs.traces.completed();
        let new = done - self.traces_seen;
        if new == 0 {
            return;
        }
        let fresh = life.obs.traces.tail(new as usize);
        self.traces_seen = done;
        if self.recording {
            self.r.traces.extend(fresh.iter().map(TraceRec::from));
        }
    }

    /// Step until `cond` holds; false if `timeout` passed first.
    fn wait(&mut self, timeout: Duration, cond: impl Fn(&Session) -> bool) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            if cond(self) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            self.step(Some(deadline))?;
        }
    }

    fn wait_until(&mut self, due: Instant) -> io::Result<()> {
        while Instant::now() < due {
            self.step(Some(due))?;
        }
        Ok(())
    }

    /// Count every binding or release stuck longer than the deadline as
    /// failed and stop waiting for it.
    fn expire_stuck(&mut self, older_than: Duration) {
        let now = Instant::now();
        for c in 0..self.net.clients.len() {
            let cl = &self.net.clients[c];
            if cl.in_flight() && now.duration_since(cl.since) >= older_than {
                self.r.unenforced += 1;
                self.net.set_phase(c, Phase::Idle);
            }
        }
    }

    /// Let every binding and release in flight finish.
    fn quiesce(&mut self) -> io::Result<()> {
        let done = self.wait(ENFORCE_DEADLINE, |s| {
            s.net.clients.iter().all(|c| !c.in_flight())
        })?;
        if !done {
            self.expire_stuck(Duration::ZERO);
        }
        Ok(())
    }

    fn begin_main(&mut self) {
        self.recording = true;
        self.accounting = true;
        self.mark = Counts::read(self.life());
        self.bench_cpu_mark = sys::thread_cpu_ns(sys::current_tid());
        self.ticks_mark = sys::cpu_ticks();
        self.main_started = Instant::now();
        self.win_origin = self.main_started;
        self.win_ticks.clear();
        self.times
            .lock()
            .expect("app timing lock poisoned")
            .packet_in_ns
            .clear();
    }

    fn end_main(&mut self) {
        self.r.main_wall_s = self.main_started.elapsed().as_secs_f64();
        self.r.bench_cpu_ns = sys::thread_cpu_ns(sys::current_tid()) - self.bench_cpu_mark;
        let (total, steal) = sys::cpu_ticks();
        self.r.steal_frac = ratio(
            steal.saturating_sub(self.ticks_mark.1) as f64,
            total.saturating_sub(self.ticks_mark.0) as f64,
        );
        self.r
            .counts
            .accumulate(Counts::read(self.life()), self.mark);
        self.accounting = false;
        self.recording = false;
        self.r.packet_in_ns = std::mem::take(
            &mut self
                .times
                .lock()
                .expect("app timing lock poisoned")
                .packet_in_ns,
        );
        self.r.tables = self
            .net
            .sw
            .iter()
            .map(|s| replay::copy_table(s.core.table(0).expect("switches have table 0")))
            .collect();
    }

    // ---- set-up -----------------------------------------------------------

    fn record_of(&self, c: usize) -> BindingRecord {
        let cl = &self.net.clients[c];
        BindingRecord {
            ip: cl.ip,
            mac: cl.mac,
            dpid: self.topo.switches()[cl.sw].id.dpid(),
            port: cl.port,
            source: RecordSource::Dhcp,
            expires: Some(SimTime::from_secs(3600)),
        }
    }

    fn clients_on(&self, sw: usize, phase: Phase) -> Vec<usize> {
        (0..self.net.clients.len())
            .filter(|&c| self.net.clients[c].sw == sw && self.net.clients[c].phase == phase)
            .collect()
    }

    /// Seed the WAL through `BindingStore::append`, as a previous
    /// controller life would have left it.
    fn preseed(&mut self) -> io::Result<()> {
        let mut store = BindingStore::open(&self.dir, StoreConfig::default())?;
        for sw in 0..self.net.sw.len() {
            let mut pool = self.clients_on(sw, Phase::Idle);
            self.rng.shuffle(&mut pool);
            for &c in &pool[..self.shape.seeded_per_switch] {
                store.append(&WalOp::Upsert(self.record_of(c)))?;
                self.net.set_phase(c, Phase::Bound);
            }
        }
        Ok(())
    }

    /// The allow rules each switch should hold: one per bound client.
    fn desired(&self) -> Vec<HashSet<AllowKey>> {
        (0..self.net.sw.len())
            .map(|sw| {
                self.clients_on(sw, Phase::Bound)
                    .into_iter()
                    .map(|c| self.net.key_of(c))
                    .collect()
            })
            .collect()
    }

    fn tables_match(&self, desired: &[HashSet<AllowKey>]) -> bool {
        (0..self.net.sw.len()).all(|i| self.net.holds_exactly(i, &desired[i]))
    }

    /// Stand the deployment up `SETUPS` times, `SETUP_GAP` apart, on empty
    /// switches; each set-up runs from binding the controller until both
    /// switches hold their SAV edge rule set. The gaps spread the set-ups
    /// over a few seconds, so one short burst of host load moves few of
    /// them.
    fn setups(&mut self) -> io::Result<()> {
        for k in 0..SETUPS {
            if k > 0 {
                self.wait_until(Instant::now() + SETUP_GAP)?;
                self.stop_life();
                self.net.reset_switches(&self.topo);
            }
            if self.shape.seeded_per_switch == 0 {
                let _ = std::fs::remove_dir_all(&self.dir);
                std::fs::create_dir_all(&self.dir)?;
            }
            let t0 = Instant::now();
            self.start_life()?;
            let up = self.wait(SETUP_DEADLINE, |s| {
                s.net.edge_ready(0) && s.net.edge_ready(1)
            })?;
            if !up {
                return Err(io::Error::other("switches never held their edge rule set"));
            }
            self.r.setup_s.push(t0.elapsed().as_secs_f64());
        }
        if self.shape.seeded_per_switch > 0 {
            let desired = self.desired();
            if !self.wait(RECOVERY_DEADLINE, |s| s.tables_match(&desired))? {
                return Err(io::Error::other("seeded bindings were never installed"));
            }
        }
        Ok(())
    }

    // ---- workloads --------------------------------------------------------

    /// Open-loop Poisson arrivals; each host holds, then releases.
    fn lease_steady(&mut self) -> io::Result<()> {
        let n = self.net.clients.len();
        let seconds = self.main_seconds();
        let total = LEASE_WARMUP + seconds;
        // The whole schedule comes from the seed: arrival instants, which
        // client, and how long it holds. A client is reused only after its
        // previous hold plus a slack has passed.
        let mut schedule = Vec::new();
        let mut free_at = vec![0.0f64; n];
        let mut t = 0.0;
        loop {
            t += self.rng.exp(1.0 / LEASE_RATE);
            if t >= total {
                break;
            }
            let hold = self.rng.range(LEASE_HOLD.0, LEASE_HOLD.1);
            let c = loop {
                let c = self.rng.below(n);
                if free_at[c] <= t {
                    break c;
                }
            };
            free_at[c] = t + hold + LEASE_REUSE_GAP;
            schedule.push((t, c, hold));
        }
        let t0 = Instant::now() + Duration::from_millis(5);
        let window = t0 + secs(LEASE_WARMUP);
        self.begin_main();
        let mut next = 0;
        let mut last_sweep = Instant::now();
        while next < schedule.len() {
            let now = Instant::now();
            while next < schedule.len() {
                let (off, c, hold) = schedule[next];
                let due = t0 + secs(off);
                if due > now {
                    break;
                }
                next += 1;
                self.r.attempted += 1;
                if self.net.clients[c].phase != Phase::Idle {
                    // The previous binding of this client is still alive
                    // past its hold: the system fell behind the schedule.
                    self.r.unenforced += 1;
                    continue;
                }
                let counted = due >= window;
                if counted {
                    self.r.late_ms.push(ms(now - due));
                }
                self.measured[c] = counted;
                self.hold[c] = hold;
                self.net.start_binding(c, due);
                self.net.settle();
            }
            while let Some(&Reverse((due, c))) = self.releases.peek() {
                if due > now {
                    break;
                }
                self.releases.pop();
                let cl = &self.net.clients[c];
                if cl.phase == Phase::Bound && cl.acked {
                    self.net.release(c);
                    self.net.settle();
                } else if cl.phase == Phase::Bound {
                    self.releases
                        .push(Reverse((now + Duration::from_millis(1), c)));
                }
            }
            if now.duration_since(last_sweep) > Duration::from_millis(100) {
                self.expire_stuck(ENFORCE_DEADLINE);
                last_sweep = now;
            }
            let mut deadline = schedule.get(next).map(|&(off, _, _)| t0 + secs(off));
            if let Some(&Reverse((d, _))) = self.releases.peek() {
                deadline = Some(deadline.map_or(d, |x| x.min(d)));
            }
            self.step(deadline)?;
        }
        self.quiesce()?;
        self.releases.clear();
        self.r
            .rates
            .push((ALWAYS, self.r.rate_bindings as f64 / seconds));
        self.end_main();
        Ok(())
    }

    /// Every client DISCOVERs at one instant; rounds separated by a mass
    /// release. The first round (every MAC new to the controller) is
    /// warm-up. While the crowd holds its bindings, the controller is
    /// restarted once per round, so `recovery_ms` samples come from the
    /// whole run; the restart's own work stays out of the per-binding
    /// counters.
    fn flash_crowd(&mut self) -> io::Result<()> {
        let mut all: Vec<usize> = (0..self.net.clients.len()).collect();
        self.begin_main();
        let end = Instant::now() + secs(self.seconds);
        let mut round = 0;
        loop {
            self.burst(&mut all, round > 0)?;
            round += 1;
            if round >= 2 && Instant::now() >= end {
                break;
            }
            self.r
                .counts
                .accumulate(Counts::read(self.life()), self.mark);
            self.accounting = false;
            self.restart_round()?;
            self.mark = Counts::read(self.life());
            self.accounting = true;
            self.release(&mut all)?;
        }
        self.end_main();
        Ok(())
    }

    /// Restart rounds over a seeded WAL, each followed by a burst of DHCP
    /// bindings on the recovered controller that are released again.
    fn restart_reconcile(&mut self) -> io::Result<()> {
        self.begin_main();
        let end = Instant::now() + secs(self.seconds);
        while Instant::now() < end {
            self.restart_round()?;
            let mut idle: Vec<usize> = (0..self.net.sw.len())
                .flat_map(|sw| self.clients_on(sw, Phase::Idle))
                .collect();
            self.rng.shuffle(&mut idle);
            idle.truncate(RESTART_BURST);
            self.burst(&mut idle, true)?;
            self.release(&mut idle)?;
        }
        self.end_main();
        Ok(())
    }

    /// Every client in `set` (all idle) DISCOVERs at one seeded instant, in
    /// a seeded order; returns once all of them are bound. `counted` bursts
    /// give `tte` and `bind` samples, and on `flash_crowd` one
    /// `bindings_per_s` figure.
    fn burst(&mut self, set: &mut [usize], counted: bool) -> io::Result<()> {
        let due = Instant::now() + secs(self.rng.range(BURST_GAP.0, BURST_GAP.1));
        self.rng.shuffle(set);
        self.wait_until(due)?;
        if counted {
            self.r.late_ms.push(ms(Instant::now() - due));
        }
        for &c in set.iter() {
            self.r.attempted += 1;
            self.measured[c] = counted;
            self.net.start_binding(c, due);
            self.net.settle();
        }
        let all_bound = |s: &Session| {
            set.iter().all(|&c| {
                let cl = &s.net.clients[c];
                cl.phase == Phase::Bound && cl.acked
            })
        };
        if !self.wait(BURST_DEADLINE, all_bound)? {
            self.expire_stuck(Duration::ZERO);
        }
        if counted && self.workload == Workload::FlashCrowd {
            let last = set
                .iter()
                .filter_map(|&c| self.net.clients[c].enforced_at)
                .max();
            if let Some(last) = last {
                let wall = last.saturating_duration_since(due).as_secs_f64();
                let w = self.window();
                self.r.rates.push((w, self.r.rate_bindings as f64 / wall));
            }
        }
        self.r.rate_bindings = 0;
        Ok(())
    }

    /// Every bound client in `set` releases at one seeded instant, in a
    /// seeded order; returns once all of them are idle.
    fn release(&mut self, set: &mut [usize]) -> io::Result<()> {
        let due = Instant::now() + secs(self.rng.range(RELEASE_GAP.0, RELEASE_GAP.1));
        self.rng.shuffle(set);
        self.wait_until(due)?;
        for &c in set.iter() {
            if self.net.clients[c].phase == Phase::Bound {
                self.net.release(c);
                self.net.settle();
            }
        }
        let all_idle = |s: &Session| set.iter().all(|&c| s.net.clients[c].phase == Phase::Idle);
        if !self.wait(BURST_DEADLINE, all_idle)? {
            self.expire_stuck(Duration::ZERO);
        }
        Ok(())
    }

    /// Shut the controller down, edit the WAL while it is down, bind a
    /// fresh controller on the same directory and time until every
    /// switch's SAV allow rules equal the desired set.
    fn restart_round(&mut self) -> io::Result<()> {
        self.quiesce()?;
        self.stop_life();
        let frac = self.rng.range(MUTATE_FRAC.0, MUTATE_FRAC.1);
        let k = ((frac * self.shape.per_switch as f64).round() as usize).max(1);
        let mut ops = Vec::new();
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for sw in 0..self.net.sw.len() {
            let mut bound = self.clients_on(sw, Phase::Bound);
            let mut idle = self.clients_on(sw, Phase::Idle);
            self.rng.shuffle(&mut bound);
            self.rng.shuffle(&mut idle);
            for &c in bound.iter().take(k) {
                ops.push(WalOp::Remove(self.net.clients[c].ip));
                removed.push(c);
            }
            for &c in idle.iter().take(k) {
                ops.push(WalOp::Upsert(self.record_of(c)));
                added.push(c);
            }
        }
        {
            let mut store = BindingStore::open(&self.dir, StoreConfig::default())?;
            for op in &ops {
                store.append(op)?;
            }
        }
        for &c in &removed {
            self.net.set_phase(c, Phase::Idle);
        }
        for &c in &added {
            self.net.set_phase(c, Phase::Bound);
        }
        let desired = self.desired();
        let expected: usize = desired.iter().map(HashSet::len).sum();
        self.times
            .lock()
            .expect("app timing lock poisoned")
            .stats_reply_ns
            .clear();
        let t0 = Instant::now();
        let replay = self.start_life()?;
        let recovered = self.wait(RECOVERY_DEADLINE, |s| s.tables_match(&desired))?;
        let took = t0.elapsed();
        if !recovered {
            let off: usize = (0..self.net.sw.len())
                .map(|i| {
                    self.net
                        .allow_set(i)
                        .symmetric_difference(&desired[i])
                        .count()
                })
                .sum();
            // Later rounds would each wait out the same deadline: stop here
            // so a broken recovery path still ends the run promptly.
            return Err(io::Error::other(format!(
                "{off} SAV allow rules stale or missing {}s after a restart",
                RECOVERY_DEADLINE.as_secs()
            )));
        }
        let mut kept: Vec<usize> = (0..self.net.sw.len())
            .flat_map(|sw| self.clients_on(sw, Phase::Bound))
            .filter(|c| !added.contains(c))
            .collect();
        self.rng.shuffle(&mut kept);
        for &c in added.iter().chain(kept.iter().take(KEPT_PROBES)) {
            let p = self.net.probe(c);
            self.r.false_deny += u64::from(!p.legit_forwarded);
            self.r.false_allow +=
                u64::from(p.spoof_ip_forwarded) + u64::from(p.spoof_port_forwarded);
        }
        for &c in &removed {
            let cl = &self.net.clients[c];
            let (sw, port, mac, ip) = (cl.sw, cl.port, cl.mac, cl.ip);
            self.r.false_allow += u64::from(self.net.probe_one(sw, port, mac, ip));
        }
        self.r.attempted += expected as u64;
        if self.accounting {
            self.r.accounted_bindings += expected as u64;
        }
        if self.recording {
            let w = self.window();
            self.r.recovery_ms.push((w, ms(took)));
            self.r.replay_ms.push(ms(replay));
            let reconcile: f64 = self
                .times
                .lock()
                .expect("app timing lock poisoned")
                .stats_reply_ns
                .iter()
                .sum();
            self.r.reconcile_ms.push(reconcile / 1e6);
            if self.workload == Workload::RestartReconcile {
                self.r.rates.push((w, expected as f64 / took.as_secs_f64()));
            }
        }
        Ok(())
    }
}

// ---- report ---------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn p99(v: &[f64]) -> f64 {
    quantile(v, 0.99)
}

fn end_to_end(r: &Results) -> Vec<Metric> {
    vec![
        m("setup_s", median(&r.setup_s), "s"),
        m("tte_p50_ms", median(&r.calm(r.tte_ms.kept())), "ms"),
        m("bind_p50_ms", median(&r.calm(r.bind_ms.kept())), "ms"),
        m("bindings_per_s", median(&r.calm(&r.rates)), "1/s"),
        m("recovery_ms", median(&r.calm(&r.recovery_ms)), "ms"),
        m("rss_mb", r.rss_mb, "MB"),
    ]
}

fn stage_p(traces: &[TraceRec], stage: &str, q: f64) -> f64 {
    let v: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.stages.iter().filter(|s| s.0 == stage).map(|s| s.1 / 1e3))
        .collect();
    quantile(&v, q)
}

/// Per-layer rows: counters and app timings from the untraced session
/// `a`, span-tree stages from the traced session `b`, codec and table
/// costs from replaying `a`'s captured inputs.
fn per_layer(a: &Results, b: &Results, layers: &replay::LayerTimes) -> Vec<Metric> {
    let per = |x: u64| ratio(x as f64, a.accounted_bindings as f64);
    let covered: f64 = b
        .traces
        .iter()
        .flat_map(|t| t.stages.iter().map(|s| s.1))
        .sum();
    let total: f64 = b.traces.iter().map(|t| t.total_ns).sum();
    let untraced = median(&a.calm(a.tte_ms.kept()));
    let fail_frac = ratio(
        (a.failed() + b.failed()) as f64,
        (a.attempted + b.attempted) as f64,
    );
    vec![
        m("tte_p99_ms", p99(&a.calm(a.tte_ms.kept())), "ms"),
        m("bind_p99_ms", p99(&a.calm(a.bind_ms.kept())), "ms"),
        m(
            "store.wal_fsync_us_p50",
            stage_p(&b.traces, "wal_fsync", 0.5),
            "us",
        ),
        m(
            "store.wal_fsync_us_p99",
            stage_p(&b.traces, "wal_fsync", 0.99),
            "us",
        ),
        m("store.appends_per_binding", per(a.counts.appends), "count"),
        m("store.replay_ms", median(&a.replay_ms), "ms"),
        m(
            "core.compile_us_p50",
            stage_p(&b.traces, "compile", 0.5),
            "us",
        ),
        m("core.packet_in_us_p50", median(&a.packet_in_ns) / 1e3, "us"),
        m("core.mods_per_binding", per(a.counts.sav_mods), "count"),
        m("core.reconcile_ms", median(&a.reconcile_ms), "ms"),
        m(
            "controller.pktin_per_binding",
            per(a.counts.packet_ins),
            "count",
        ),
        m(
            "controller.barrier_ack_us_p50",
            stage_p(&b.traces, "barrier_ack", 0.5),
            "us",
        ),
        m("channel.send_us_p50", stage_p(&b.traces, "send", 0.5), "us"),
        m(
            "channel.wakeups_per_binding",
            per(a.counts.wakeups),
            "count",
        ),
        m(
            "channel.frames_per_writev",
            ratio(b.counts.writev_frames as f64, b.counts.send_spans as f64),
            "count",
        ),
        m("channel.backlog_bytes_max", a.backlog_max, "bytes"),
        m(
            "channel.server_busy_frac",
            ratio(a.counts.server_cpu_ns as f64 / 1e9, a.main_wall_s),
            "fraction",
        ),
        m(
            "layer.packet_in_decode_ns",
            layers.packet_in_decode_ns,
            "ns",
        ),
        m("layer.flow_mod_encode_ns", layers.flow_mod_encode_ns, "ns"),
        m("layer.deframe_ns_per_msg", layers.deframe_ns_per_msg, "ns"),
        m(
            "layer.flow_table_lookup_ns",
            layers.flow_table_lookup_ns,
            "ns",
        ),
        m("obs.stage_coverage", ratio(covered, total), "fraction"),
        m(
            "obs.trace_overhead_frac",
            ratio(median(&b.calm(b.tte_ms.kept())) - untraced, untraced),
            "fraction",
        ),
        m("bench.gen_late_p99_ms", p99(&a.late_ms), "ms"),
        m(
            "bench.emu_busy_frac",
            ratio(a.bench_cpu_ns as f64 / 1e9, a.main_wall_s),
            "fraction",
        ),
        m("bench.tte_samples", a.tte_ms.seen() as f64, "count"),
        m("bench.cpu_steal_frac", a.steal_frac, "fraction"),
        m("fail_frac", fail_frac, "fraction"),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, v, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<34} {:>14.4} {}", x.name, x.value, x.unit);
    }
}

/// Validity and correctness lines shared by both modes; returns whether
/// the run is valid and correct.
fn check(r: &Results, channel_errors: u64, label: &str) -> bool {
    let late = p99(&r.late_ms);
    println!(
        "{label}: attempted {} failed {} (unenforced {}, false allows {}, false denies {}), \
         channel errors {channel_errors}",
        r.attempted,
        r.failed(),
        r.unenforced,
        r.false_allow,
        r.false_deny,
    );
    println!(
        "{label}: samples tte {} bind {} recovery {} setup {}; generator late p99 {late:.4} ms; \
         server busy {:.3}, bench busy {:.3}, CPU steal {:.3}",
        r.tte_ms.seen(),
        r.bind_ms.seen(),
        r.recovery_ms.len(),
        r.setup_s.len(),
        ratio(r.counts.server_cpu_ns as f64 / 1e9, r.main_wall_s),
        ratio(r.bench_cpu_ns as f64 / 1e9, r.main_wall_s),
        r.steal_frac,
    );
    let mut ok = r.failed() == 0 && channel_errors == 0;
    if late > LATE_LIMIT_MS {
        println!("{label}: INVALID: the generator ran {late:.3} ms late at p99 (limit {LATE_LIMIT_MS} ms)");
        ok = false;
    }
    if r.false_allow > 0 {
        println!(
            "{label}: FAILED: {} spoofed probes were forwarded",
            r.false_allow
        );
    }
    ok
}

fn run_session(
    args: &Args,
    traced: bool,
    seconds: f64,
    capture: bool,
) -> io::Result<(Results, u64, Option<net::Capture>)> {
    let s = Session::new(args, traced, seconds, capture)?;
    let dir = s.dir.clone();
    let out = s.run();
    // Remove the WAL directory whether the session finished or failed.
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", json(correct, attempted, failed, &metrics));
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

type Outcome = io::Result<(bool, u64, u64, Vec<Metric>)>;

/// Tracing off: the end-to-end metrics.
fn measured_run(args: &Args) -> Outcome {
    let (r, errors, _) = run_session(args, false, args.seconds, false)?;
    let ok = check(&r, errors, "run");
    let metrics = end_to_end(&r);
    print_table("end-to-end", &metrics);
    Ok((ok, r.attempted, r.failed(), metrics))
}

/// Tracing on: an untraced session (counters, app timings, captured
/// inputs), then a traced one (span trees), each over half the time.
fn traced_run(args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    let (mut a, errors_a, cap) = run_session(args, false, half, true)?;
    let (b, errors_b, _) = run_session(args, true, half, false)?;
    let ok_a = check(&a, errors_a, "untraced");
    let ok_b = check(&b, errors_b, "traced");
    let layers = replay::replay(&cap.expect("the untraced session captures"), &mut a.tables);
    let metrics = per_layer(&a, &b, &layers);
    let coverage = metrics
        .iter()
        .find(|x| x.name == "obs.stage_coverage")
        .map_or(0.0, |x| x.value);
    print_table("per-layer", &metrics);
    println!(
        "traced session sends one fencing barrier per binding that the untraced session does not"
    );
    let covered = coverage >= COVERAGE_BAR;
    if !covered {
        println!("FAILED: stage coverage {coverage:.4} is below {COVERAGE_BAR}");
    }
    Ok((
        ok_a && ok_b && covered,
        a.attempted + b.attempted,
        a.failed() + b.failed(),
        metrics,
    ))
}
