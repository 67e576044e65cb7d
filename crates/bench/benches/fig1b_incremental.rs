//! **Figure 1b (companion)** — the incremental rule compiler under TCAM
//! budgets: table occupancy and recompile latency vs binding count at
//! budgets `{∞ (CoverPolicy::Host), 256, 64}` (`CoverPolicy::Budget(n)`).
//!
//! Each access port fronts a ¾-dense / ¼-sparse address mix (dense blocks
//! compress well, sparse tails don't), so the budgeted modes show the
//! precision/state tradeoff honestly. Two things are measured per
//! (bindings, budget) cell:
//!
//! * **seed** — incremental compilation of the whole table from empty, one
//!   `upsert_binding` at a time (the DHCP-churn worst case, not the batched
//!   switch-up path);
//! * **churn** — steady-state release+rebind cycles. The flow-mods per
//!   operation must stay O(delta): bounded by the local cover perturbation,
//!   independent of the table size.
//!
//! `FIG1B_CHECK=1` runs a shrunken sweep, asserts the O(delta) bound and
//! budget behaviour, and writes nothing — the CI regression gate.

use sav_bench::{write_json, write_result};
use sav_controller::app::Ctx;
use sav_core::{Binding, BindingSource, CoverPolicy, SavApp, SavConfig};
use sav_metrics::Table;
use sav_net::addr::MacAddr;
use sav_openflow::messages::Message;
use sav_sim::SimTime;
use sav_topo::generators;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

const PORTS: u32 = 4;
const CHURN_OPS: usize = 64;

/// `n` bindings spread over `PORTS` access ports of one edge switch: per
/// port, the first ¾ are a dense sequential block (compresses to a handful
/// of prefixes), the last ¼ sit at every other address (incompressible).
fn mk_bindings(n: usize) -> Vec<Binding> {
    (0..n)
        .map(|i| {
            let port = (i as u32 % PORTS) + 1;
            let j = (i / PORTS as usize) as u32;
            let per_port = n as u32 / PORTS;
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

struct Cell {
    rules: usize,
    seed_ms: f64,
    seed_mods: usize,
    churn_mods: usize,
    churn_us_per_op: f64,
}

fn run_cell(bindings: &[Binding], budget: Option<usize>) -> Cell {
    let topo = Arc::new(generators::linear(2, 2));
    let config = SavConfig {
        static_plan: false,
        dhcp_snooping: false,
        cover: budget.map_or(CoverPolicy::Host, CoverPolicy::Budget),
        ..SavConfig::default()
    };
    let mut app = SavApp::new(topo, config);

    let t0 = Instant::now();
    let mut seed_mods = 0;
    for b in bindings {
        let mut ctx = Ctx::new(SimTime::ZERO);
        app.upsert_binding(&mut ctx, *b);
        seed_mods += flow_mod_count(ctx);
    }
    let seed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rules = app.compiled_rule_count();

    // Steady state: release + rebind, striding across the table so dense
    // blocks and sparse tails both get perturbed.
    let t0 = Instant::now();
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
    let churn_us_per_op = t0.elapsed().as_secs_f64() * 1e6 / CHURN_OPS as f64;
    Cell {
        rules,
        seed_ms,
        seed_mods,
        churn_mods,
        churn_us_per_op,
    }
}

fn budget_name(b: Option<usize>) -> String {
    b.map(|v| v.to_string()).unwrap_or_else(|| "inf".into())
}

fn main() {
    let check = std::env::var("FIG1B_CHECK").is_ok();
    // Check mode still crosses the budget-64 threshold (512/4 = 128 per
    // port) so the compression invariant is exercised, just at small n.
    let sizes: &[usize] = if check { &[64, 512] } else { &[128, 512, 2048] };
    let budgets = [None, Some(256), Some(64)];

    println!(
        "Figure 1b: incremental compiler — rules & recompile latency vs bindings \
         ({PORTS} ports, budgets inf/256/64){}\n",
        if check { " [check mode]" } else { "" }
    );
    let mut table = Table::new(
        "Figure 1b — incremental compilation under TCAM budgets",
        &[
            "bindings",
            "budget",
            "rules",
            "seed flow-mods",
            "seed ms",
            "churn flow-mods",
            "churn mods/op",
            "churn us/op",
        ],
    );
    for &n in sizes {
        for budget in budgets {
            let bindings = mk_bindings(n);
            let cell = run_cell(&bindings, budget);
            let mods_per_op = cell.churn_mods as f64 / (CHURN_OPS as f64 * 2.0);
            table.row(&[
                n.to_string(),
                budget_name(budget),
                cell.rules.to_string(),
                cell.seed_mods.to_string(),
                format!("{:.2}", cell.seed_ms),
                cell.churn_mods.to_string(),
                format!("{mods_per_op:.2}"),
                format!("{:.1}", cell.churn_us_per_op),
            ]);

            // Invariants, asserted in every mode so a local run fails fast.
            // Without a budget every binding is one rule; with one, dense
            // ports compress below the host count.
            match budget {
                None => assert_eq!(cell.rules, n, "budget off: one rule per binding"),
                Some(b) => {
                    let per_port = n / PORTS as usize;
                    if per_port > b {
                        assert!(
                            cell.rules < n,
                            "over-budget ports must compress ({} rules for {n} bindings)",
                            cell.rules
                        );
                    } else {
                        assert_eq!(cell.rules, n, "under-budget ports stay host rules");
                    }
                }
            }
            // O(delta) steady state: the per-op delta is bounded by the
            // local cover perturbation, never the table size.
            assert!(
                mods_per_op <= 12.0,
                "steady-state churn must be O(delta), got {mods_per_op:.2} mods/op at n={n}"
            );
            eprintln!("  done: {n} bindings, budget {}", budget_name(budget));
        }
    }
    print!("{}", table.to_ascii());
    if check {
        println!("\n[check mode: invariants hold, results not written]");
    } else {
        write_result("fig1b_incremental.csv", &table.to_csv());
        write_json("fig1b_incremental", &table);
        println!(
            "\nShape check: budget off ⇒ rules == bindings; budget 64 compresses dense\n\
             ports ~4x; churn mods/op flat in table size (O(delta), not O(n))."
        );
    }
}
