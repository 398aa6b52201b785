//! Differential test of the descending sweep against the definition it
//! implements.
//!
//! The reference below is the exact algorithm the way the definition reads:
//! a widest-path fixpoint, then for every bottleneck level a **fresh**
//! latency Dijkstra over the links of at least that bandwidth, run to
//! exhaustion, with the canonical tie rule of `shortest_widest`'s module
//! docs — labels are `(latency, trailing zero-latency links)`, nodes settle
//! in (label, node index) order, a node's predecessor is the first-settled
//! tail to offer its final label, then the earliest out-edge of that tail.
//! It shares no code with the kernel (adjacency lists, no CSR, no carried
//! state, no early stop), and the kernel must agree with it in `qos_to`,
//! `path_to` and `hops_to` from every source — and, through
//! `traverses_any`, in which of several parallel links a path runs over.
//! Each node's level is checked against a recompute from the widest
//! labels.
//!
//! The graphs are tie-heavy on purpose: latencies from `{0, 1, 2}`, so equal
//! sums and zero-latency links (cycles of them included) are everywhere;
//! `Qos::IDENTITY` links, as between co-located instances; zero-bandwidth
//! links; parallel links in both slot orders; nodes nothing reaches.
//!
//! Case count: `PROPTEST_CASES` (default 64); CI runs 20 000 in release.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sflow_graph::{DiGraph, EdgeIx, NodeIx};
use sflow_routing::{shortest_widest, Bandwidth, Latency, Qos};

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

fn graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    (2usize..10).prop_flat_map(|n| {
        // Bandwidth draw 5 stands for an identity link.
        let edges = proptest::collection::vec((0..n, 0..n, 0u64..6, 0u64..3), 0..n * n);
        edges.prop_map(move |es| {
            let mut g = DiGraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in es {
                if a != b {
                    let w = if bw == 5 { Qos::IDENTITY } else { q(bw, lat) };
                    g.add_edge(ids[a], ids[b], w);
                }
            }
            g
        })
    })
}

/// `(latency, trailing zero-latency links)`, compared in that order.
type Label = (Latency, u32);

/// The reference's answer for one source: per node, QoS, path and the links
/// the path runs over.
type Answers = Vec<Option<(Qos, Vec<NodeIx>, Vec<EdgeIx>)>>;

/// Max–min bottleneck from `source` to every node by relaxing to a fixpoint.
fn widest_fixpoint(g: &DiGraph<(), Qos>, source: NodeIx) -> Vec<Bandwidth> {
    let mut widest = vec![Bandwidth::ZERO; g.node_count()];
    widest[source.index()] = Bandwidth::INFINITE;
    loop {
        let mut moved = false;
        for e in g.edges() {
            let cand = widest[e.from.index()].bottleneck(e.weight.bandwidth);
            if cand > widest[e.to.index()] {
                widest[e.to.index()] = cand;
                moved = true;
            }
        }
        if !moved {
            return widest;
        }
    }
}

/// One level of the definition: a fresh Dijkstra from `source` over the
/// links of bandwidth `≥ floor`, to exhaustion. Returns each node's final
/// label, predecessor and the link from it.
fn fresh_level(
    g: &DiGraph<(), Qos>,
    source: NodeIx,
    floor: Bandwidth,
) -> Vec<Option<(Label, NodeIx, EdgeIx)>> {
    let n = g.node_count();
    let mut held: Vec<Option<(Label, NodeIx, EdgeIx)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    // The source's label cannot be beaten; its predecessor is never read.
    held[source.index()] = Some(((Latency::ZERO, 0), source, EdgeIx::from_index(0)));
    heap.push(Reverse(((Latency::ZERO, 0), source)));
    while let Some(Reverse((label, node))) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        // Out-edges come in insertion order, which is CSR slot order; only a
        // strictly better label replaces, so the first offer of the final
        // label — first-settled tail, earliest slot — is the one that stays.
        for e in g.out_edges(node) {
            if e.weight.bandwidth < floor {
                continue;
            }
            let lat = e.weight.latency;
            let cand = (
                label.0 + lat,
                if lat == Latency::ZERO { label.1 + 1 } else { 0 },
            );
            if held[e.to.index()].is_none_or(|(l, ..)| cand < l) {
                held[e.to.index()] = Some((cand, node, e.id));
                heap.push(Reverse((cand, e.to)));
            }
        }
    }
    held
}

fn per_level_reference(g: &DiGraph<(), Qos>, source: NodeIx) -> Answers {
    let widest = widest_fixpoint(g, source);
    g.node_ids()
        .map(|v| {
            if v == source {
                return Some((Qos::IDENTITY, vec![source], Vec::new()));
            }
            let b = widest[v.index()];
            if b == Bandwidth::ZERO {
                return None;
            }
            let level = fresh_level(g, source, b);
            let (label, ..) = level[v.index()].expect("pinned node is labelled at its level");
            let mut path = vec![v];
            let mut links = Vec::new();
            let mut cur = v;
            while cur != source {
                let (_, pred, link) = level[cur.index()].expect("chain is labelled");
                links.push(link);
                path.push(pred);
                cur = pred;
            }
            path.reverse();
            Some((Qos::new(b, label.0), path, links))
        })
        .collect()
}

fn assert_agrees(g: &DiGraph<(), Qos>) -> Result<(), TestCaseError> {
    for s in g.node_ids() {
        let tree = shortest_widest::single_source(g, s);
        let reference = per_level_reference(g, s);
        for v in g.node_ids() {
            let want = &reference[v.index()];
            prop_assert_eq!(
                tree.qos_to(v),
                want.as_ref().map(|w| w.0),
                "{:?} -> {:?}",
                s,
                v
            );
            prop_assert_eq!(
                tree.path_to(v),
                want.as_ref().map(|w| w.1.clone()),
                "{:?} -> {:?}",
                s,
                v
            );
            prop_assert_eq!(
                tree.hops_to(v),
                want.as_ref().map(|w| w.1.len() - 1),
                "{:?} -> {:?}",
                s,
                v
            );
        }
        // The levels are the distinct bottlenecks of the reachable nodes,
        // widest first, and every node is pinned at its own.
        let widest = widest_fixpoint(g, s);
        let mut widths: Vec<Bandwidth> = g
            .node_ids()
            .filter(|&v| v != s && widest[v.index()] > Bandwidth::ZERO)
            .map(|v| widest[v.index()])
            .collect();
        widths.sort_unstable_by(|a, b| b.cmp(a));
        widths.dedup();
        prop_assert_eq!(tree.level_count(), widths.len());
        for v in g.node_ids() {
            let level = (v != s).then(|| widths.iter().position(|&w| w == widest[v.index()]));
            prop_assert_eq!(tree.level_of(v), level.flatten(), "{:?} -> {:?}", s, v);
        }
        for e in g.edges() {
            let mut marked = vec![false; g.edge_count()];
            marked[e.id.index()] = true;
            let on_a_path = reference.iter().flatten().any(|w| w.2.contains(&e.id));
            prop_assert_eq!(
                tree.traverses_any(&marked),
                on_a_path,
                "{:?} over {:?}",
                s,
                e.id
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn sweep_matches_a_fresh_dijkstra_per_level(g in graph_strategy()) {
        assert_agrees(&g)?;
    }
}

/// A later level admits a narrower parallel link in an *earlier* slot that
/// ties the wide one: from that level down the earlier slot is the
/// predecessor — the node path cannot tell, the links traversed can.
#[test]
fn a_narrower_parallel_link_in_an_earlier_slot_takes_over_at_its_level() {
    let mut g: DiGraph<(), Qos> = DiGraph::new();
    let n: Vec<NodeIx> = (0..4).map(|_| g.add_node(())).collect();
    let narrow = g.add_edge(n[0], n[1], q(2, 1)); // earlier slot, joins at level 2
    g.add_edge(n[0], n[1], q(9, 1));
    g.add_edge(n[1], n[2], q(9, 1));
    g.add_edge(n[1], n[3], q(2, 1));
    assert_agrees(&g).unwrap();
    let mut marked = vec![false; g.edge_count()];
    marked[narrow.index()] = true;
    assert!(shortest_widest::single_source(&g, n[0]).traverses_any(&marked));
}

/// Zero-latency links in a cycle, entered from a node that settles later
/// than its index suggests: the trailing-zero count keeps predecessors
/// acyclic and the order static.
#[test]
fn zero_latency_cycles_settle_in_a_static_order() {
    let mut g: DiGraph<(), Qos> = DiGraph::new();
    let n: Vec<NodeIx> = (0..5).map(|_| g.add_node(())).collect();
    g.add_edge(n[4], n[3], q(3, 2)); // source → a
    g.add_edge(n[3], n[1], q(3, 0)); // a → b
    g.add_edge(n[1], n[0], q(3, 0)); // b → c
    g.add_edge(n[0], n[1], q(3, 0)); // c → b, lower index than a
    g.add_edge(n[4], n[2], q(3, 2)); // source → w, ties with a
    g.add_edge(n[2], n[0], q(3, 0)); // w → c: one zero hop beats two
    g.add_edge(n[0], n[3], Qos::IDENTITY);
    assert_agrees(&g).unwrap();
    let tree = shortest_widest::single_source(&g, n[4]);
    assert_eq!(tree.path_to(n[0]), Some(vec![n[4], n[2], n[0]]));
}

/// A tie offer that arrives levels after the label: co-located instances
/// `u`, `u2` (identity link between them) both feed `v`; `u2`'s direct link
/// from the source is narrower than `u`'s.
#[test]
fn a_late_tie_moves_the_predecessor_but_not_the_label() {
    let mut g: DiGraph<(), Qos> = DiGraph::new();
    let n: Vec<NodeIx> = (0..5).map(|_| g.add_node(())).collect();
    let (s, u2, u, v, far) = (n[0], n[1], n[2], n[3], n[4]);
    g.add_edge(s, u, q(8, 3));
    g.add_edge(u, u2, Qos::IDENTITY);
    g.add_edge(s, u2, q(4, 3)); // joins at level 4: u2 settles before u there
    g.add_edge(u, v, q(8, 1));
    g.add_edge(u2, v, q(8, 1));
    g.add_edge(v, far, q(4, 1));
    assert_agrees(&g).unwrap();
    let tree = shortest_widest::single_source(&g, s);
    assert_eq!(tree.path_to(v), Some(vec![s, u, v]));
    assert_eq!(tree.path_to(far), Some(vec![s, u2, v, far]));
}
