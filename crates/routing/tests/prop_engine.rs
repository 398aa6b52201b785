//! Property-based parity tests for the parallel + incremental engine.
//!
//! Two oracles, both the sequential from-scratch build:
//!
//! * [`all_pairs_parallel_with`] over any worker count must return a table
//!   observationally identical to [`all_pairs`] (QoS *and* paths — the
//!   work-stealing fan-out must not perturb tie-breaks, because each source
//!   tree is computed by the same deterministic code);
//! * [`AllPairs::patched_with`] after a random batch of edge-QoS mutations
//!   must yield a table QoS-identical to rebuilding from scratch on the
//!   mutated graph, and every path it reports must still be valid.
//!
//! Plus two structural properties of the compact core:
//!
//! * [`AllPairs::patched_with`] must share every clean tree with its
//!   predecessor by `Arc` pointer (no whole-table clone) while still
//!   matching a from-scratch rebuild;
//! * the tightened dirty rules (loss floors + gain gates) must never
//!   recompute more trees than the coarse traverses-any / reach-the-tail
//!   rules they replaced.

use std::collections::VecDeque;

use proptest::prelude::*;
use sflow_graph::DiGraph;
use sflow_routing::{
    all_pairs, all_pairs_parallel_with, shortest_widest, AllPairs, Bandwidth, EdgeChange, Latency,
    Qos,
};

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

/// Same shape as `prop_routing::graph_strategy`: small graphs, small
/// bandwidth domain so bottleneck ties (the hard case) are common.
fn graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    (3usize..8).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n, 0..n, 1u64..6, 0u64..10), 1..(n * (n - 1)).max(2));
        edges.prop_map(move |es| {
            let mut g = DiGraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in es {
                if a != b {
                    g.add_edge(ids[a], ids[b], q(bw, lat));
                }
            }
            g
        })
    })
}

/// A batch of edge-QoS mutations: per mutation an edge index (reduced
/// modulo the edge count), a new bandwidth and a new latency.
type MutationBatch = Vec<(usize, u64, u64)>;

/// A graph plus a mutation batch over its edge set — covering
/// degradations, improvements and mixed changes alike.
fn mutated_graph_strategy() -> impl Strategy<Value = (DiGraph<(), Qos>, MutationBatch)> {
    (
        graph_strategy(),
        proptest::collection::vec((0usize..64, 1u64..6, 0u64..10), 1..4),
    )
}

/// The dirty rules the engine used before the tightened plan: any changed
/// edge that is a pure degradation dirties every tree traversing it at any
/// level; everything else dirties every source that can reach the edge's
/// tail. Kept here as the upper-bound oracle for the tightened rules.
fn coarse_rule_dirty_count(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    changes: &[EdgeChange],
) -> usize {
    let n = g.node_count();
    let mut dirty = vec![false; n];
    let mut degraded = vec![false; g.edge_count()];
    let mut any_degraded = false;
    for c in changes.iter().filter(|c| !c.is_noop()) {
        if c.is_degradation() {
            degraded[c.edge.index()] = true;
            any_degraded = true;
        } else {
            let (tail, _, _) = g.edge_parts(c.edge);
            let mut seen = vec![false; n];
            let mut queue = VecDeque::new();
            seen[tail.index()] = true;
            dirty[tail.index()] = true;
            queue.push_back(tail);
            while let Some(v) = queue.pop_front() {
                for &eid in g.in_edge_ids(v) {
                    let (from, _, w) = g.edge_parts(eid);
                    if w.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                        continue;
                    }
                    seen[from.index()] = true;
                    dirty[from.index()] = true;
                    queue.push_back(from);
                }
            }
        }
    }
    if any_degraded {
        for (i, node) in g.node_ids().enumerate() {
            if !dirty[i] && table.tree(node).traverses_any(&degraded) {
                dirty[i] = true;
            }
        }
    }
    dirty.iter().filter(|&&d| d).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_table_is_identical_to_sequential(
        g in graph_strategy(),
        workers in 0usize..5,
    ) {
        let seq = all_pairs(&g);
        let par = all_pairs_parallel_with(&g, workers);
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(seq.qos(u, v), par.qos(u, v), "qos {:?}->{:?}", u, v);
                prop_assert_eq!(seq.path(u, v), par.path(u, v), "path {:?}->{:?}", u, v);
            }
        }
    }

    #[test]
    fn patch_matches_from_scratch_rebuild(
        seed in mutated_graph_strategy(),
        workers in 0usize..3,
    ) {
        let (mut g, mutations) = seed;
        let before = all_pairs(&g);
        let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
        // Every generated tuple can be a self-loop, leaving no edges to
        // mutate; nothing to check then.
        if edge_ids.is_empty() {
            return Ok(());
        }

        // Apply the batch to the graph, collecting the change records the
        // same way `OverlayGraph::update_link_qos` would produce them.
        let mut changes = Vec::new();
        for (raw, bw, lat) in mutations {
            let edge = edge_ids[raw % edge_ids.len()];
            let (_, _, old) = g.edge_parts(edge);
            let old = *old;
            let new = q(bw, lat);
            *g.edge_mut(edge) = new;
            changes.push(EdgeChange { edge, old, new });
        }

        let (table, stats) = before.patched_with(&g, &changes, workers);
        prop_assert!(stats.trees_recomputed <= stats.trees_total);

        // Oracle: rebuild from scratch on the mutated graph.
        let rebuilt = shortest_widest::all_pairs(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(
                    table.qos(u, v), rebuilt.qos(u, v),
                    "qos {:?}->{:?} after {} changes (recomputed {}/{})",
                    u, v, changes.len(), stats.trees_recomputed, stats.trees_total
                );
                // Paths may differ between a kept tree and a rebuilt one only
                // when ties allow it; what the patched table reports must at
                // least be a real path of the mutated graph with the claimed
                // endpoints.
                if let Some(path) = table.path(u, v) {
                    prop_assert_eq!(path[0], u);
                    prop_assert_eq!(*path.last().unwrap(), v);
                    for w in path.windows(2) {
                        prop_assert!(
                            g.out_edges(w[0]).any(|e| e.to == w[1]),
                            "patched path uses a non-edge {:?}->{:?}", w[0], w[1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patched_shares_clean_trees_and_dirties_no_more_than_coarse_rules(
        seed in mutated_graph_strategy(),
        workers in 0usize..3,
    ) {
        let (mut g, mutations) = seed;
        let before = all_pairs(&g);
        let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
        if edge_ids.is_empty() {
            return Ok(());
        }

        let mut changes = Vec::new();
        for (raw, bw, lat) in mutations {
            let edge = edge_ids[raw % edge_ids.len()];
            let (_, _, old) = g.edge_parts(edge);
            let old = *old;
            let new = q(bw, lat);
            *g.edge_mut(edge) = new;
            changes.push(EdgeChange { edge, old, new });
        }

        let (next, stats) = before.patched_with(&g, &changes, workers);
        prop_assert!(!stats.full_rebuild);

        // Every clean tree is shared by pointer with the predecessor —
        // deriving an epoch never clones the table.
        prop_assert_eq!(
            before.shared_trees(&next),
            stats.trees_total - stats.trees_recomputed
        );

        // The tightened rules are a refinement: never dirtier than the
        // coarse traverses-any / reach-the-tail rules they replaced.
        let coarse = coarse_rule_dirty_count(&before, &g, &changes);
        prop_assert!(
            stats.trees_recomputed <= coarse,
            "tightened rule recomputed {} trees, coarse rule {}",
            stats.trees_recomputed, coarse
        );

        // And still exact: the successor matches a from-scratch rebuild.
        let rebuilt = all_pairs(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(
                    next.qos(u, v), rebuilt.qos(u, v),
                    "qos {:?}->{:?} (recomputed {}/{}, coarse {})",
                    u, v, stats.trees_recomputed, stats.trees_total, coarse
                );
            }
        }
    }
}
