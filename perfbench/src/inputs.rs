//! Workload inputs, built from `--seed` with the public `coord-gen`
//! generators. The same seed always gives the same inputs.

use coord_core::consistent::{ConsistentConfig, ConsistentQuery};
use coord_core::EntangledQuery;
use coord_db::Database;
use coord_gen::networks::barabasi_albert;
use coord_gen::workloads::{fig5_queries, fig7_instance, partner_query};
use coord_graph::NodeId;
use rand::prelude::*;

/// Members per keystone group; the keystone is the last one.
pub const GROUP: usize = 16;

/// A seed for part `i` of a workload, decorrelated from its neighbours.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// `groups` disjoint BA(16, 2) keystone groups, keystone last in each.
/// Member partners are BA successors, and the BA seed members (which
/// have none) require the keystone, so no member's closure is
/// satisfiable before its keystone arrives. The keystone requires its BA successors plus every
/// member no other member requires, so its closure is the whole group
/// and its arrival releases all 16. (With BA successors alone, as in the
/// `online_throughput` bench, a keystone releases only the members it
/// reaches and the rest stay pending for good.)
pub fn keystone_groups(groups: usize, seed: u64) -> Vec<Vec<EntangledQuery>> {
    let keystone = GROUP - 1;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0));
    (0..groups)
        .map(|g| {
            let graph = barabasi_albert(GROUP, 2, &mut rng);
            let mut partners: Vec<Vec<usize>> = (0..GROUP)
                .map(|i| graph.successors(NodeId(i)).map(NodeId::index).collect())
                .collect();
            for p in &mut partners[..keystone] {
                if p.is_empty() {
                    p.push(keystone);
                }
            }
            let mut required = [false; GROUP];
            for &p in partners[..keystone].iter().flatten() {
                required[p] = true;
            }
            let unrequired = (0..keystone).filter(|&m| !required[m]);
            partners[keystone].extend(unrequired);
            let offset = g * GROUP;
            partners
                .into_iter()
                .enumerate()
                .map(|(i, mut p)| {
                    p.sort_unstable();
                    p.dedup();
                    let p: Vec<usize> = p.iter().map(|&m| m + offset).collect();
                    partner_query(i + offset, &p)
                })
                .collect()
        })
        .collect()
}

/// Arrival order as `(group, member)`: the members of all groups
/// round-robin across groups, then the keystones, which release each
/// group.
pub fn keystone_arrivals(groups: usize) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(groups * GROUP);
    for i in 0..GROUP {
        order.extend((0..groups).map(|g| (g, i)));
    }
    order
}

/// `sets` seeded query sets of the Figure 5/6 shape: BA(n, 2) partner
/// queries over the tuple pool.
pub fn scale_free_sets(sets: usize, n: usize, seed: u64) -> Vec<Vec<EntangledQuery>> {
    (0..sets)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2 + i as u64));
            fig5_queries(n, 2, &mut rng)
        })
        .collect()
}

/// The Figure 7 worst case: `n` any-friend queries, complete
/// friendships, `rows` distinct (destination, day) values, and the
/// queries in `sets` orders fixed by the seed.
pub fn consistent_instance(
    n: usize,
    rows: usize,
    sets: usize,
    seed: u64,
) -> (Database, ConsistentConfig, Vec<Vec<ConsistentQuery>>) {
    let (db, config, queries) = fig7_instance(n, rows);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1_000_000));
    let orders = (0..sets)
        .map(|_| {
            let mut order = queries.clone();
            order.shuffle(&mut rng);
            order
        })
        .collect();
    (db, config, orders)
}
