//! [`Mechanism`] — the single switchboard the evaluation harness sweeps.
//!
//! A mechanism names one complete validation configuration; `build_apps`
//! turns it into the controller app chain (validation app first, then L2
//! forwarding), identically wired for every mechanism so comparisons are
//! apples-to-apples.

use crate::{FeasibleUrpfApp, NoSavApp, StaticAclApp, StrictUrpfApp};
use sav_border::BorderGuardApp;
use sav_controller::app::App;
use sav_controller::apps::L2RoutingApp;
use sav_core::{CoverPolicy, SavApp, SavConfig, SavMode, StatsPollerApp};
use sav_topo::routes::Routes;
use sav_topo::Topology;
use std::sync::Arc;

/// Every mechanism under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// No source validation.
    NoSav,
    /// Static per-prefix ingress ACLs.
    StaticAcl,
    /// Strict reverse-path forwarding.
    StrictUrpf,
    /// Feasible-path reverse-path forwarding.
    FeasibleUrpf,
    /// SDN-SAV, proactive per-host binding rules (the paper's design).
    SdnSav,
    /// SDN-SAV without MAC matching (IP+port binding only).
    SdnSavNoMac,
    /// SDN-SAV with per-port subnet rules (coarse mode,
    /// [`CoverPolicy::Subnet`]).
    SdnSavAggregate,
    /// SDN-SAV with per-port *exact-cover* aggregation: minimal CIDR set
    /// admitting precisely the bound addresses ([`CoverPolicy::Budget`]`(0)`).
    SdnSavAggregateExact,
    /// SDN-SAV in reactive (per-packet controller validation) mode.
    SdnSavReactive,
    /// SDN-SAV with FCFS data-plane learning instead of a static plan.
    SdnSavFcfs,
    /// SDN-SAV with a per-port TCAM budget ([`CoverPolicy::Budget`]): host
    /// rules until the count exceeds the budget, exact-cover compression
    /// beyond it. Parameterised,
    /// so it is not part of [`Mechanism::ALL`] — scenarios opt in with a
    /// concrete budget (Figure 1b sweeps it).
    SdnSavBudgeted(usize),
}

impl Mechanism {
    /// All mechanisms, in the order the paper's comparison table lists them.
    pub const ALL: [Mechanism; 10] = [
        Mechanism::NoSav,
        Mechanism::StaticAcl,
        Mechanism::StrictUrpf,
        Mechanism::FeasibleUrpf,
        Mechanism::SdnSav,
        Mechanism::SdnSavNoMac,
        Mechanism::SdnSavAggregate,
        Mechanism::SdnSavAggregateExact,
        Mechanism::SdnSavReactive,
        Mechanism::SdnSavFcfs,
    ];

    /// Human-readable name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::NoSav => "no-SAV",
            Mechanism::StaticAcl => "static ACL",
            Mechanism::StrictUrpf => "strict uRPF",
            Mechanism::FeasibleUrpf => "feasible uRPF",
            Mechanism::SdnSav => "SDN-SAV",
            Mechanism::SdnSavNoMac => "SDN-SAV (no MAC)",
            Mechanism::SdnSavAggregate => "SDN-SAV (aggregated)",
            Mechanism::SdnSavAggregateExact => "SDN-SAV (exact-agg)",
            Mechanism::SdnSavReactive => "SDN-SAV (reactive)",
            Mechanism::SdnSavFcfs => "SDN-SAV (FCFS)",
            Mechanism::SdnSavBudgeted(_) => "SDN-SAV (budgeted)",
        }
    }

    /// The SAV configuration for the SDN-SAV variants (None for baselines).
    pub fn sav_config(self) -> Option<SavConfig> {
        let base = SavConfig::default();
        match self {
            Mechanism::SdnSav => Some(base),
            Mechanism::SdnSavNoMac => Some(SavConfig {
                match_mac: false,
                ..base
            }),
            Mechanism::SdnSavAggregate => Some(SavConfig {
                cover: CoverPolicy::Subnet,
                ..base
            }),
            Mechanism::SdnSavAggregateExact => Some(SavConfig {
                cover: CoverPolicy::Budget(0),
                ..base
            }),
            Mechanism::SdnSavReactive => Some(SavConfig {
                mode: SavMode::Reactive,
                ..base
            }),
            Mechanism::SdnSavFcfs => Some(SavConfig {
                static_plan: false,
                fcfs: true,
                ..base
            }),
            Mechanism::SdnSavBudgeted(budget) => Some(SavConfig {
                cover: CoverPolicy::Budget(budget),
                ..base
            }),
            _ => None,
        }
    }

    /// Build the full controller app chain for this mechanism.
    /// `sav_overrides` lets scenarios adjust the SAV config (trusted DHCP
    /// ports, iSAV toggles) after the mechanism defaults are applied.
    pub fn build_apps(
        self,
        topo: &Arc<Topology>,
        routes: &Arc<Routes>,
        sav_overrides: impl FnOnce(&mut SavConfig),
    ) -> Vec<Box<dyn App>> {
        let l2: Box<dyn App> = Box::new(L2RoutingApp::new(topo.clone(), routes.clone()));
        let mut border = None;
        let validation: Box<dyn App> = match self {
            Mechanism::NoSav => Box::new(NoSavApp),
            Mechanism::StaticAcl => Box::new(StaticAclApp::new(topo.clone())),
            Mechanism::StrictUrpf => Box::new(StrictUrpfApp::new(topo.clone(), routes.clone())),
            Mechanism::FeasibleUrpf => Box::new(FeasibleUrpfApp::new(topo.clone())),
            _ => {
                let mut cfg = self.sav_config().expect("SDN-SAV variant");
                sav_overrides(&mut cfg);
                border = cfg.border.clone();
                Box::new(SavApp::new(topo.clone(), cfg))
            }
        };
        let mut apps = vec![validation];
        if let Some(bc) = border {
            // The guard is fed by the stats poller's flow-stats replies, so
            // enabling it pulls the poller into the chain with it. Both sit
            // before L2 so the guard's sample punts are consumed rather
            // than unicast-learned.
            let obs = bc.obs.clone().unwrap_or_default();
            apps.push(Box::new(
                StatsPollerApp::new(obs).with_per_binding_gauges(false),
            ));
            apps.push(Box::new(BorderGuardApp::new(topo.clone(), bc)));
        }
        apps.push(l2);
        apps
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sav_topo::generators;

    #[test]
    fn every_mechanism_builds_a_chain() {
        let topo = Arc::new(generators::campus(2, 2));
        let routes = Arc::new(Routes::compute(&topo));
        for m in Mechanism::ALL {
            let apps = m.build_apps(&topo, &routes, |_| {});
            assert_eq!(apps.len(), 2, "{m}: validation + forwarding");
            assert_eq!(apps[1].name(), "l2-routing");
        }
    }

    #[test]
    fn sav_configs_differ_as_advertised() {
        assert!(Mechanism::NoSav.sav_config().is_none());
        assert!(Mechanism::SdnSav.sav_config().unwrap().match_mac);
        assert!(!Mechanism::SdnSavNoMac.sav_config().unwrap().match_mac);
        assert_eq!(
            Mechanism::SdnSavAggregate.sav_config().unwrap().cover,
            CoverPolicy::Subnet
        );
        assert_eq!(
            Mechanism::SdnSavAggregateExact.sav_config().unwrap().cover,
            CoverPolicy::Budget(0)
        );
        assert_eq!(
            Mechanism::SdnSavReactive.sav_config().unwrap().mode,
            SavMode::Reactive
        );
        let fcfs = Mechanism::SdnSavFcfs.sav_config().unwrap();
        assert!(fcfs.fcfs && !fcfs.static_plan);
        let budgeted = Mechanism::SdnSavBudgeted(64).sav_config().unwrap();
        assert_eq!(budgeted.cover, CoverPolicy::Budget(64));
    }

    #[test]
    fn budgeted_variant_builds_a_chain_too() {
        let topo = Arc::new(generators::campus(2, 2));
        let routes = Arc::new(Routes::compute(&topo));
        let apps = Mechanism::SdnSavBudgeted(128).build_apps(&topo, &routes, |_| {});
        assert_eq!(apps[0].name(), "sdn-sav");
        assert_eq!(apps.len(), 2);
    }

    #[test]
    fn enabling_the_border_guard_pulls_in_the_poller() {
        let topo = Arc::new(generators::multi_as(2, 2).topo);
        let routes = Arc::new(Routes::compute(&topo));
        let apps = Mechanism::SdnSav.build_apps(&topo, &routes, |cfg| {
            cfg.border = Some(sav_core::BorderConfig::default());
        });
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "sdn-sav",
                "sav-stats-poller",
                "sav-border-guard",
                "l2-routing"
            ],
            "guard consumes its sample punts before L2 sees them"
        );
    }

    #[test]
    fn overrides_are_applied() {
        let topo = Arc::new(generators::campus(2, 2));
        let routes = Arc::new(Routes::compute(&topo));
        let apps = Mechanism::SdnSav.build_apps(&topo, &routes, |cfg| {
            cfg.trusted_dhcp_ports.push((1, 9));
        });
        assert_eq!(apps[0].name(), "sdn-sav");
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            Mechanism::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Mechanism::ALL.len());
    }
}
