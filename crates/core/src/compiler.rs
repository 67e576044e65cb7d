//! The incremental rule compiler: a per-`(switch, port)` compiled-state
//! cache that turns binding changes into **minimal flow-mod deltas**. It is
//! the only place proactive allow rules are decided.
//!
//! [`crate::rules`] maps one binding to one rule; this module owns the next
//! layer up — *which* rules each port should hold right now, and what must
//! change on the switch to get there. Every `(dpid, port)` carries a mirror
//! of its bindings plus the rule set the switch is believed to hold; a
//! binding change re-derives the port's **desired** rule set as a pure
//! function of the mirror and emits only the difference, adds before
//! deletes, so a legitimately bound source is never without a matching rule
//! mid-transition.
//!
//! The port's shape comes from its [`CoverPolicy`]
//! ([`crate::SavConfig::cover`]) through [`aggregate::desired_cover`]:
//! per-host rules, the minimal exact CIDR cover once the port holds more
//! than a budget of bindings, or one rule per topology subnet. A release
//! or migration re-derives the covers, splitting them back toward host
//! rules or retiring a subnet rule with its port's last binding.
//! Because the desired set is **pure** — no hysteresis, no dependence on
//! the order changes arrived in — the incremental output always converges
//! to exactly what a from-scratch compile ([`RuleCompiler::compile_port`])
//! of the final binding table would produce. That equivalence is the
//! contract the differential suite in `tests/proptests.rs` enforces.
//!
//! Cookie attribution is preserved across both shapes: host rules keep the
//! kind-0 `SAV_COOKIE | ip` cookie (readable by `on_flow_removed` and the
//! stats poller), covers carry the kind-`0xffff` prefix cookie that both
//! consumers already ignore.

use crate::aggregate::{self, CoverPolicy};
use crate::binding::{Binding, BindingSource};
use crate::rules;
use sav_net::addr::{Ipv4Cidr, MacAddr};
use sav_openflow::messages::FlowMod;
use sav_sim::SimTime;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identity of one compiler-owned allow rule within a `(dpid, port)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Per-host allow for this bound source address.
    Host(Ipv4Addr),
    /// Exact-cover prefix allow for this block.
    Cover(Ipv4Cidr),
}

/// The shape the switch holds for a rule — everything whose change requires
/// touching the switch. Host lifecycles are captured as the **absolute**
/// lease expiry, not the encoded `hard_timeout`: re-deriving the same lease
/// at a later `now` yields a smaller countdown but identical switch state,
/// and must not read as a change (a no-op refresh emits nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleSpec {
    /// A per-host allow and the fields its match/timeouts derive from.
    /// `mac` is `None` when MAC matching is off — the rule's shape is then
    /// independent of the binding's MAC, and a takeover must not churn it.
    Host {
        mac: Option<MacAddr>,
        source: BindingSource,
        expires: Option<SimTime>,
    },
    /// A prefix cover; its whole shape is in the [`RuleId`].
    Cover,
}

#[derive(Debug, Default)]
struct PortState {
    /// Mirror of the binding table restricted to this port.
    bindings: BTreeMap<Ipv4Addr, Binding>,
    /// What the switch is believed to hold for this port.
    installed: BTreeMap<RuleId, RuleSpec>,
}

/// Timeouts for a binding's host rule: static never expires, DHCP carries
/// the remaining lease as a hard timeout, FCFS idles out.
pub fn lifecycle_timeouts(b: &Binding, dynamic_idle_timeout: u16, now: SimTime) -> (u16, u16) {
    match b.source {
        BindingSource::Static => (0, 0),
        BindingSource::Dhcp => {
            let remaining = b
                .expires
                .map(|t| t.saturating_since(now).as_secs_f64().ceil() as u64)
                .unwrap_or(0);
            (0, remaining.min(u64::from(u16::MAX)) as u16)
        }
        BindingSource::Fcfs => (dynamic_idle_timeout, 0),
    }
}

/// The per-binding allow rule with lifecycle timeouts — the single shape
/// both the incremental and the wholesale compile produce for a host.
pub fn host_flow(b: &Binding, match_mac: bool, dynamic_idle_timeout: u16, now: SimTime) -> FlowMod {
    let (idle, hard) = lifecycle_timeouts(b, dynamic_idle_timeout, now);
    rules::binding_allow(b, match_mac, idle, hard)
}

/// The desired rule set of one port as identity → shape, derived purely
/// from the binding mirror and the cover policy.
fn desired_specs(
    bindings: &BTreeMap<Ipv4Addr, Binding>,
    cover: CoverPolicy,
    subnets: &[Ipv4Cidr],
    match_mac: bool,
) -> BTreeMap<RuleId, RuleSpec> {
    let ips: Vec<Ipv4Addr> = bindings.keys().copied().collect();
    match aggregate::desired_cover(&ips, cover, subnets) {
        Some(covers) => covers
            .into_iter()
            .map(|c| (RuleId::Cover(c), RuleSpec::Cover))
            .collect(),
        None => bindings
            .values()
            .map(|b| {
                (
                    RuleId::Host(b.ip),
                    RuleSpec::Host {
                        mac: match_mac.then_some(b.mac),
                        source: b.source,
                        expires: b.expires,
                    },
                )
            })
            .collect(),
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct RuleCompiler {
    match_mac: bool,
    dynamic_idle_timeout: u16,
    cover: CoverPolicy,
    /// The topology's subnets, which [`CoverPolicy::Subnet`] maps to.
    subnets: Vec<Ipv4Cidr>,
    ports: BTreeMap<(u64, u32), PortState>,
}

impl RuleCompiler {
    /// A compiler with no cached state.
    pub fn new(
        match_mac: bool,
        dynamic_idle_timeout: u16,
        cover: CoverPolicy,
        subnets: Vec<Ipv4Cidr>,
    ) -> RuleCompiler {
        RuleCompiler {
            match_mac,
            dynamic_idle_timeout,
            cover,
            subnets,
            ports: BTreeMap::new(),
        }
    }

    /// From-scratch compile of one port's bindings, ignoring the cache: the
    /// wholesale semantics the incremental path must agree with.
    /// [`crate::SavApp`] uses it to build the reconciliation target set;
    /// the differential suite compares the incremental compiler's net
    /// effect against exactly this output.
    pub fn compile_port(
        &self,
        bindings: &BTreeMap<Ipv4Addr, Binding>,
        now: SimTime,
    ) -> Vec<FlowMod> {
        let Some(first) = bindings.values().next() else {
            return Vec::new();
        };
        let port = first.port;
        let ips: Vec<Ipv4Addr> = bindings.keys().copied().collect();
        match aggregate::desired_cover(&ips, self.cover, &self.subnets) {
            Some(covers) => covers
                .into_iter()
                .map(|c| rules::cover_allow(port, c))
                .collect(),
            None => bindings
                .values()
                .map(|b| host_flow(b, self.match_mac, self.dynamic_idle_timeout, now))
                .collect(),
        }
    }

    /// Mirror-only upsert: record the binding without computing a delta.
    fn stage(&mut self, b: &Binding) {
        self.ports
            .entry((b.dpid, b.port))
            .or_default()
            .bindings
            .insert(b.ip, *b);
    }

    /// Upsert `b` and return the flow-mod delta for its port. Unchanged
    /// shape (a no-op refresh) returns an empty delta.
    pub fn bind(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        self.stage(b);
        self.sync_port(b.dpid, b.port, now)
    }

    /// Remove `b` and return the delta — the host-rule delete, or the
    /// cover split/re-derivation when the port is aggregated.
    pub fn unbind(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        if let Some(state) = self.ports.get_mut(&(b.dpid, b.port)) {
            state.bindings.remove(&b.ip);
        }
        self.sync_port(b.dpid, b.port, now)
    }

    /// The switch itself already removed `b`'s host rule (idle or hard
    /// timeout): evict it from the mirror *and* the installed cache, so no
    /// delete is emitted for a rule that is already gone.
    pub fn rule_expired(&mut self, b: &Binding, now: SimTime) -> Vec<FlowMod> {
        if let Some(state) = self.ports.get_mut(&(b.dpid, b.port)) {
            state.bindings.remove(&b.ip);
            state.installed.remove(&RuleId::Host(b.ip));
        }
        self.sync_port(b.dpid, b.port, now)
    }

    /// Adopt `bindings` as `dpid`'s whole mirror, dropping everything the
    /// cache held for the switch: it (re)connected, and its table is
    /// rebuilt or reconciled from scratch.
    fn restage<'a>(&mut self, dpid: u64, bindings: impl IntoIterator<Item = &'a Binding>) {
        self.ports.retain(|(d, _), _| *d != dpid);
        for b in bindings {
            self.stage(b);
        }
    }

    /// Rebuild `dpid`'s mirror from `bindings` and return the delta that
    /// takes a switch holding no allows to the desired state: the one
    /// switch-up batch.
    pub fn rebuild_switch<'a>(
        &mut self,
        dpid: u64,
        bindings: impl IntoIterator<Item = &'a Binding>,
        now: SimTime,
    ) -> Vec<FlowMod> {
        self.restage(dpid, bindings);
        let ports: Vec<u32> = self
            .ports
            .range((dpid, 0)..=(dpid, u32::MAX))
            .map(|((_, p), _)| *p)
            .collect();
        ports
            .into_iter()
            .flat_map(|p| self.sync_port(dpid, p, now))
            .collect()
    }

    /// Adopt `bindings` as `dpid`'s mirror and mark the derived rule set as
    /// already installed, emitting nothing: the post-reconciliation
    /// handoff, where the flow-stats diff just brought the switch to
    /// exactly the desired state.
    pub fn prime_switch<'a>(&mut self, dpid: u64, bindings: impl IntoIterator<Item = &'a Binding>) {
        self.restage(dpid, bindings);
        for (_, state) in self.ports.range_mut((dpid, 0)..=(dpid, u32::MAX)) {
            state.installed =
                desired_specs(&state.bindings, self.cover, &self.subnets, self.match_mac);
        }
    }

    /// Number of allow rules the cache believes `dpid` holds.
    pub fn installed_on(&self, dpid: u64) -> usize {
        self.ports
            .range((dpid, 0)..=(dpid, u32::MAX))
            .map(|(_, s)| s.installed.len())
            .sum()
    }

    /// Total allow rules believed installed across all switches.
    pub fn installed_total(&self) -> usize {
        self.ports.values().map(|s| s.installed.len()).sum()
    }

    fn add_for(&self, state: &PortState, port: u32, id: &RuleId, now: SimTime) -> FlowMod {
        match id {
            RuleId::Host(ip) => {
                let b = state.bindings.get(ip).expect("desired host has a binding");
                host_flow(b, self.match_mac, self.dynamic_idle_timeout, now)
            }
            RuleId::Cover(c) => rules::cover_allow(port, *c),
        }
    }

    fn delete_for(&self, port: u32, id: &RuleId, old: &RuleSpec) -> FlowMod {
        match (id, old) {
            (RuleId::Host(ip), RuleSpec::Host { mac, .. }) => {
                // Only the match fields matter to a strict delete; the rest
                // of the binding is a placeholder (and the MAC too, when
                // MAC matching is off).
                let ghost = Binding {
                    ip: *ip,
                    mac: mac.unwrap_or(MacAddr::ZERO),
                    dpid: 0,
                    port,
                    source: BindingSource::Fcfs,
                    expires: None,
                };
                let mut fm = rules::binding_delete(&ghost, self.match_mac);
                fm.cookie = rules::allow_cookie(&ghost);
                fm
            }
            (RuleId::Cover(c), _) => rules::cover_delete(port, *c),
            (RuleId::Host(_), RuleSpec::Cover) => unreachable!("host id never holds a cover spec"),
        }
    }

    /// Diff one port's desired rules against the cache and emit the delta.
    fn sync_port(&mut self, dpid: u64, port: u32, now: SimTime) -> Vec<FlowMod> {
        let Some(state) = self.ports.get(&(dpid, port)) else {
            return Vec::new();
        };
        let desired = desired_specs(&state.bindings, self.cover, &self.subnets, self.match_mac);
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        for (id, spec) in &desired {
            match state.installed.get(id) {
                Some(old) if old == spec => {}
                Some(old) => {
                    // Same identity, new shape. A MAC change under eth_src
                    // matching alters the *match*, so the old rule must be
                    // strict-deleted; lease/source changes keep the match,
                    // and the Add alone replaces the entry (resetting its
                    // timers, which is exactly what a renewed lease wants).
                    if let (RuleId::Host(_), RuleSpec::Host { mac: old_mac, .. }) = (id, old) {
                        let RuleSpec::Host { mac, .. } = spec else {
                            unreachable!("host id never holds a cover spec");
                        };
                        if old_mac != mac {
                            dels.push(self.delete_for(port, id, old));
                        }
                    }
                    adds.push(self.add_for(state, port, id, now));
                }
                None => adds.push(self.add_for(state, port, id, now)),
            }
        }
        for (id, old) in &state.installed {
            if !desired.contains_key(id) {
                dels.push(self.delete_for(port, id, old));
            }
        }
        // Adds before deletes: a host→cover or cover→host transition never
        // opens a window in which a bound source has no matching rule.
        let mut out = adds;
        out.append(&mut dels);
        let state = self
            .ports
            .get_mut(&(dpid, port))
            .expect("port state exists");
        state.installed = desired;
        if state.bindings.is_empty() && state.installed.is_empty() {
            self.ports.remove(&(dpid, port));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SAV_COOKIE;
    use sav_openflow::messages::FlowModCommand;

    fn b(ip: &str, mac: u64, port: u32) -> Binding {
        Binding {
            ip: ip.parse().unwrap(),
            mac: MacAddr::from_index(mac),
            dpid: 1,
            port,
            source: BindingSource::Static,
            expires: None,
        }
    }

    fn adds(delta: &[FlowMod]) -> usize {
        delta
            .iter()
            .filter(|fm| fm.command == FlowModCommand::Add)
            .count()
    }

    fn dels(delta: &[FlowMod]) -> usize {
        delta
            .iter()
            .filter(|fm| fm.command == FlowModCommand::DeleteStrict)
            .count()
    }

    #[test]
    fn bind_emits_one_add_and_noop_rebind_emits_nothing() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Host, vec![]);
        let x = b("10.0.0.1", 1, 7);
        let d = c.bind(&x, SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0));
        assert_eq!(d[0].cookie, SAV_COOKIE | u64::from(u32::from(x.ip)));
        // Identical shape at a later instant: nothing to do.
        let d = c.bind(&x, SimTime::from_secs(30));
        assert!(d.is_empty(), "no-op rebind must ship nothing");
    }

    #[test]
    fn mac_takeover_strict_deletes_the_old_match() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Host, vec![]);
        let x = b("10.0.0.1", 1, 7);
        c.bind(&x, SimTime::ZERO);
        let mut y = x;
        y.mac = MacAddr::from_index(2);
        let d = c.bind(&y, SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 1));
        // Without MAC matching the match is unchanged — Add alone replaces.
        let mut c = RuleCompiler::new(false, 60, CoverPolicy::Host, vec![]);
        c.bind(&x, SimTime::ZERO);
        let d = c.bind(&y, SimTime::ZERO);
        assert!(
            d.is_empty(),
            "mac is not in the match nor the spec-relevant timeouts"
        );
    }

    #[test]
    fn lease_renewal_re_adds_without_delete() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Host, vec![]);
        let mut x = b("10.0.0.1", 1, 7);
        x.source = BindingSource::Dhcp;
        x.expires = Some(SimTime::from_secs(100));
        c.bind(&x, SimTime::ZERO);
        // Same lease, later now: the countdown differs but the switch state
        // doesn't — no delta.
        assert!(c.bind(&x, SimTime::from_secs(40)).is_empty());
        // Renewed lease: one Add, no delete (same match replaces).
        x.expires = Some(SimTime::from_secs(500));
        let d = c.bind(&x, SimTime::from_secs(40));
        assert_eq!((adds(&d), dels(&d)), (1, 0));
        assert_eq!(d[0].hard_timeout, 460);
    }

    #[test]
    fn crossing_the_budget_swaps_hosts_for_covers_adds_first() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Budget(2), vec![]);
        c.bind(&b("10.0.0.0", 1, 7), SimTime::ZERO);
        let d = c.bind(&b("10.0.0.1", 2, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0), "at the budget: still hosts");
        // One past the budget: the exact cover replaces the host rules.
        let d = c.bind(&b("10.0.0.2", 3, 7), SimTime::ZERO);
        assert_eq!(adds(&d), 2, "10.0.0.0/31 + 10.0.0.2/32");
        assert_eq!(dels(&d), 2, "both host rules retired");
        // Make-before-break: every add precedes every delete.
        let first_del = d
            .iter()
            .position(|f| f.command == FlowModCommand::DeleteStrict);
        let last_add = d.iter().rposition(|f| f.command == FlowModCommand::Add);
        assert!(last_add < first_del, "adds ship before deletes");
        assert_eq!(c.installed_on(1), 2);
    }

    #[test]
    fn release_inside_a_cover_splits_it() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Budget(2), vec![]);
        for (i, ip) in ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]
            .iter()
            .enumerate()
        {
            c.bind(&b(ip, i as u64, 7), SimTime::ZERO);
        }
        assert_eq!(c.installed_on(1), 1, "four dense hosts → one /30 cover");
        // Releasing an interior address forces the split: the /30 is
        // replaced by the exact cover of the three survivors.
        let d = c.unbind(&b("10.0.0.1", 1, 7), SimTime::ZERO);
        assert_eq!(adds(&d), 2, "10.0.0.0/32 + 10.0.0.2/31");
        assert_eq!(dels(&d), 1, "the /30 cover");
        assert_eq!(c.installed_on(1), 2);
        // Cover cookies carry the network address for attribution and the
        // 0xffff kind so binding-expiry logic ignores them.
        for fm in d.iter().filter(|f| f.command == FlowModCommand::Add) {
            assert_eq!((fm.cookie >> 32) & 0xffff, 0xffff);
        }
    }

    #[test]
    fn subnet_rule_ships_once_and_retires_with_the_last_binding() {
        let subnets = vec!["10.0.0.0/24".parse().unwrap()];
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Subnet, subnets);
        let d = c.bind(&b("10.0.0.1", 1, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (1, 0), "the port's subnet rule");
        assert!(c.bind(&b("10.0.0.2", 2, 7), SimTime::ZERO).is_empty());
        // Outside every subnet: no rule at all.
        assert!(c.bind(&b("192.168.0.1", 3, 7), SimTime::ZERO).is_empty());
        assert!(c.unbind(&b("10.0.0.1", 1, 7), SimTime::ZERO).is_empty());
        let d = c.unbind(&b("10.0.0.2", 2, 7), SimTime::ZERO);
        assert_eq!((adds(&d), dels(&d)), (0, 1), "last binding retires it");
        assert_eq!(c.installed_total(), 0);
    }

    #[test]
    fn rule_expired_evicts_silently() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Host, vec![]);
        let x = b("10.0.0.1", 1, 7);
        c.bind(&x, SimTime::ZERO);
        let d = c.rule_expired(&x, SimTime::ZERO);
        assert!(d.is_empty(), "the switch already dropped the rule");
        assert_eq!(c.installed_total(), 0);
    }

    #[test]
    fn prime_switch_adopts_without_emitting() {
        let mut c = RuleCompiler::new(true, 60, CoverPolicy::Budget(1), vec![]);
        let bs = vec![b("10.0.0.0", 1, 7), b("10.0.0.1", 2, 7)];
        c.prime_switch(1, &bs);
        assert_eq!(c.installed_on(1), 1, "two hosts over budget → one /31");
        // Syncing right after priming finds nothing to do.
        assert!(c.sync_port(1, 7, SimTime::ZERO).is_empty());
    }
}
