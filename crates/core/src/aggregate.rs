//! Rule-shape policies and exact prefix compression: the optimization pass
//! for the precision/state tradeoff of a port's allow rules.
//!
//! [`CoverPolicy`] decides, per port, whether the compiler keeps one rule
//! per bound host or replaces them with prefix *covers*.
//! [`desired_cover`] is the one place that decision is made; both the
//! incremental and the wholesale compile call it. The exact covers come
//! from [`exact_cover`]: the smallest list of prefixes whose union is
//! exactly the bound set, so no unassigned address passes while dense
//! ranges still merge (a port fronting `10.0.1.64/26` worth of hosts costs
//! 1 rule instead of 64).
//!
//! Algorithm: sort, fold complete sibling pairs bottom-up — the classic
//! CIDR aggregation, O(n log n).

use sav_net::addr::Ipv4Cidr;
use std::net::Ipv4Addr;

/// Compute the minimal exact CIDR cover of `addrs` (duplicates welcome).
///
/// Properties (see the property tests):
/// * the union of the result equals the input set exactly;
/// * no two output prefixes are siblings (no further merge possible);
/// * output prefixes are disjoint and sorted.
pub fn exact_cover(addrs: &[Ipv4Addr]) -> Vec<Ipv4Cidr> {
    let mut prefixes: Vec<Ipv4Cidr> = addrs.iter().map(|&a| Ipv4Cidr::host(a)).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    // Repeatedly merge adjacent complete sibling pairs. One left-to-right
    // pass per level is enough because merging produces a parent that can
    // only merge with a *later* sibling after re-examination; loop until a
    // fixed point (at most 32 passes).
    loop {
        let mut merged = Vec::with_capacity(prefixes.len());
        let mut changed = false;
        let mut i = 0;
        while i < prefixes.len() {
            if i + 1 < prefixes.len() && prefixes[i].is_sibling(&prefixes[i + 1]) {
                merged.push(prefixes[i].parent().expect("sibling implies parent"));
                changed = true;
                i += 2;
            } else {
                merged.push(prefixes[i]);
                i += 1;
            }
        }
        prefixes = merged;
        if !changed {
            return prefixes;
        }
    }
}

/// How the compiler shapes one port's allow rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverPolicy {
    /// One per-host rule per binding: the paper's exact design.
    #[default]
    Host,
    /// Per-host rules while the port holds at most `n` bindings, the
    /// minimal exact cover of its addresses beyond that. `Budget(0)` is
    /// always the exact cover.
    Budget(usize),
    /// One rule per topology subnet holding a bound address on the port:
    /// fewest rules, but a same-subnet spoof on that port passes.
    Subnet,
}

/// The prefix covers a port bound to `ips` compiles to under `policy`, or
/// `None` for per-host rules. `Subnet` maps each address to the first of
/// `subnets` containing it; an address outside every subnet gets no rule.
///
/// The result is a pure function of the *current* set (no hysteresis):
/// the incremental compiler and a from-scratch compile always agree on a
/// port's shape, which the differential suite relies on. A budgeted cover
/// is exact, so a sparse set may still exceed the budget — the budget
/// triggers compression, it never trades precision for space.
pub fn desired_cover(
    ips: &[Ipv4Addr],
    policy: CoverPolicy,
    subnets: &[Ipv4Cidr],
) -> Option<Vec<Ipv4Cidr>> {
    match policy {
        CoverPolicy::Host => None,
        CoverPolicy::Budget(n) => (ips.len() > n).then(|| exact_cover(ips)),
        CoverPolicy::Subnet => {
            let mut covers: Vec<Ipv4Cidr> = ips
                .iter()
                .filter_map(|&ip| subnets.iter().find(|s| s.contains(ip)).copied())
                .collect();
            covers.sort_unstable();
            covers.dedup();
            Some(covers)
        }
    }
}

/// Number of addresses covered by a prefix list (assumes disjoint).
pub fn covered(prefixes: &[Ipv4Cidr]) -> u64 {
    prefixes.iter().map(|p| p.size()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips(specs: &[&str]) -> Vec<Ipv4Addr> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn empty_and_single() {
        assert!(exact_cover(&[]).is_empty());
        let c = exact_cover(&ips(&["10.0.0.5"]));
        assert_eq!(c, vec!["10.0.0.5/32".parse().unwrap()]);
    }

    #[test]
    fn complete_block_merges_fully() {
        let addrs: Vec<Ipv4Addr> = (0..64u32)
            .map(|i| Ipv4Addr::from(0x0a000140 + i)) // 10.0.1.64/26
            .collect();
        let c = exact_cover(&addrs);
        assert_eq!(c, vec!["10.0.1.64/26".parse().unwrap()]);
    }

    #[test]
    fn sparse_addresses_stay_host_routes() {
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.3", "10.0.0.5"]));
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }

    #[test]
    fn partial_merge() {
        // .0 and .1 merge to /31; .3 stays alone.
        let c = exact_cover(&ips(&["10.0.0.0", "10.0.0.1", "10.0.0.3"]));
        assert_eq!(
            c,
            vec![
                "10.0.0.0/31".parse().unwrap(),
                "10.0.0.3/32".parse().unwrap()
            ]
        );
    }

    #[test]
    fn duplicates_are_harmless() {
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.1", "10.0.0.0"]));
        assert_eq!(c, vec!["10.0.0.0/31".parse().unwrap()]);
        assert_eq!(covered(&c), 2);
    }

    #[test]
    fn multi_level_merge() {
        // Two /31 blocks that together form a /30.
        let c = exact_cover(&ips(&["10.0.0.4", "10.0.0.5", "10.0.0.6", "10.0.0.7"]));
        assert_eq!(c, vec!["10.0.0.4/30".parse().unwrap()]);
    }

    #[test]
    fn adjacent_pair_merges_to_slash31() {
        // Aligned neighbours merge; an unaligned pair (odd/even boundary)
        // does not — .1/.2 are adjacent but not siblings.
        let c = exact_cover(&ips(&["10.0.0.8", "10.0.0.9"]));
        assert_eq!(c, vec!["10.0.0.8/31".parse().unwrap()]);
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.2"]));
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }

    #[test]
    fn full_slash24_collapses_to_one_prefix() {
        let addrs: Vec<Ipv4Addr> = (0..256u32)
            .map(|i| Ipv4Addr::from(0x0a000200 + i))
            .collect();
        let c = exact_cover(&addrs);
        assert_eq!(c, vec!["10.0.2.0/24".parse().unwrap()]);
        assert_eq!(covered(&c), 256);
        // Knock one address out and the cover fragments exactly.
        let holed: Vec<Ipv4Addr> = addrs
            .iter()
            .copied()
            .filter(|a| *a != "10.0.2.77".parse::<Ipv4Addr>().unwrap())
            .collect();
        let c = exact_cover(&holed);
        assert_eq!(covered(&c), 255);
        assert!(!c.iter().any(|p| p.contains("10.0.2.77".parse().unwrap())));
    }

    #[test]
    fn budget_threshold_is_strictly_greater() {
        let addrs: Vec<Ipv4Addr> = (0..8u32).map(|i| Ipv4Addr::from(0x0a000000 + i)).collect();
        let cover = |p| desired_cover(&addrs, p, &[]);
        // One below and exactly at the budget: host rules stay.
        assert_eq!(cover(CoverPolicy::Budget(9)), None);
        assert_eq!(cover(CoverPolicy::Budget(8)), None);
        // One past the budget: compress to the exact cover.
        let c = cover(CoverPolicy::Budget(7)).expect("over budget must compress");
        assert_eq!(c, vec!["10.0.0.0/29".parse().unwrap()]);
        // Budget 0 is the plain exact cover; Host never compresses.
        assert_eq!(cover(CoverPolicy::Budget(0)), Some(exact_cover(&addrs)));
        assert_eq!(cover(CoverPolicy::Host), None);
    }

    #[test]
    fn budgeted_cover_of_sparse_set_may_exceed_budget() {
        // The cover is exact, never lossy: 4 isolated hosts over budget 3
        // still cost 4 prefixes. The budget triggers compression, it does
        // not cap the result.
        let addrs = ips(&["10.0.0.1", "10.0.0.3", "10.0.0.5", "10.0.0.7"]);
        let c = desired_cover(&addrs, CoverPolicy::Budget(3), &[]).expect("over budget");
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }

    #[test]
    fn subnet_policy_maps_each_address_to_its_subnet() {
        let subnets: Vec<Ipv4Cidr> = vec![
            "10.0.0.0/24".parse().unwrap(),
            "10.0.1.0/24".parse().unwrap(),
        ];
        let addrs = ips(&["10.0.1.9", "10.0.0.1", "10.0.1.3", "192.168.0.1"]);
        // Two subnets, each once; the address outside both gets no rule.
        assert_eq!(
            desired_cover(&addrs, CoverPolicy::Subnet, &subnets),
            Some(subnets.clone())
        );
        assert_eq!(
            desired_cover(&ips(&["192.168.0.1"]), CoverPolicy::Subnet, &subnets),
            Some(vec![])
        );
    }
}
