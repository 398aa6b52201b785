//! Pricing node pairs without a full tree per node, held to the full tree.
//!
//! Two properties. The level sweep told to settle any subset of nodes,
//! each at its widest bandwidth, answers exactly what the full tree's
//! `qos_to` says for that subset, and nothing for the others. On a
//! symmetric graph, the maximum spanning forest's bottleneck from a
//! source is the full tree's bandwidth to every node.
//!
//! The graphs are tie-heavy, as in `prop_sweep.rs`: bandwidths and
//! latencies from tiny ranges, zero-bandwidth links, identity links,
//! parallel links, nodes nothing reaches.
//!
//! Case count: `PROPTEST_CASES` (default 64).

use proptest::prelude::*;
use sflow_graph::{DiGraph, NodeIx};
use sflow_routing::shortest_widest::{settle_csr, single_source_csr};
use sflow_routing::{Bandwidth, DijkstraScratch, Latency, Qos, QosCsr, WidestForest};

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

/// `n` nodes and up to `n²` links drawn as `(from, to, bandwidth, latency)`;
/// bandwidth draw 5 stands for an identity link.
type Draw = (usize, Vec<(usize, usize, u64, u64)>);

fn draw() -> impl Strategy<Value = Draw> {
    (2usize..12).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0u64..6, 0u64..3), 0..n * n)
            .prop_map(move |links| (n, links))
    })
}

/// The drawn graph, each link one way, or both ways with one weight if
/// `symmetric`.
fn graph((n, links): &Draw, symmetric: bool) -> DiGraph<(), Qos> {
    let mut g = DiGraph::new();
    let ids: Vec<NodeIx> = (0..*n).map(|_| g.add_node(())).collect();
    for &(a, b, bw, lat) in links {
        if a != b {
            let w = if bw == 5 { Qos::IDENTITY } else { q(bw, lat) };
            if symmetric {
                g.add_edge_undirected(ids[a], ids[b], w);
            } else {
                g.add_edge(ids[a], ids[b], w);
            }
        }
    }
    g
}

proptest! {
    #[test]
    fn settling_a_subset_at_its_widest_is_the_full_tree(
        drawn in draw(),
        subset in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let g = graph(&drawn, false);
        let csr = QosCsr::new(&g);
        // One scratch for trees and bounded sweeps alike: neither may
        // leave the other anything it reads.
        let mut scratch = DijkstraScratch::new();
        for s in g.node_ids() {
            let tree = single_source_csr(&csr, s, &mut scratch);
            let want: Vec<Option<Bandwidth>> = g
                .node_ids()
                .map(|x| {
                    let named = subset[x.index()] && x != s;
                    tree.qos_to(x).filter(|_| named).map(|qos| qos.bandwidth)
                })
                .collect();
            let settled = settle_csr(&csr, s, &want, &mut scratch).to_vec();
            for x in g.node_ids() {
                let expected = if x == s {
                    Some(Qos::IDENTITY)
                } else if want[x.index()].is_some() {
                    tree.qos_to(x)
                } else {
                    None
                };
                prop_assert_eq!(settled[x.index()], expected, "{:?} -> {:?}", s, x);
            }
        }
    }

    #[test]
    fn a_forest_bottleneck_is_the_widest_path(drawn in draw()) {
        let g = graph(&drawn, true);
        let csr = QosCsr::new(&g);
        let forest = WidestForest::new(&csr);
        let mut scratch = DijkstraScratch::new();
        let mut widest = Vec::new();
        for s in g.node_ids() {
            let tree = single_source_csr(&csr, s, &mut scratch);
            forest.bottlenecks_from(s, &mut widest);
            for x in g.node_ids() {
                prop_assert_eq!(
                    widest[x.index()],
                    tree.qos_to(x).map(|qos| qos.bandwidth),
                    "{:?} -> {:?}",
                    s,
                    x
                );
            }
        }
    }
}
