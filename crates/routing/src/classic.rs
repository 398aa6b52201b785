//! Classic single-metric routing policies, used as ablation baselines.
//!
//! The paper adopts shortest-widest routing; the `ablation_routing` benchmark
//! compares it against the two pure policies implemented here:
//!
//! * [`widest`] — maximise bottleneck bandwidth, ignore latency;
//! * [`shortest`] — minimise latency, ignore bandwidth.
//!
//! Both return a [`crate::PathTree`]-like structure whose reported [`Qos`] is the
//! *true* QoS of the chosen path (so results stay comparable across policies).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sflow_graph::{DiGraph, EdgeIx, NodeIx};

use crate::{Bandwidth, Qos};

/// A routing tree produced by one of the classic policies.
#[derive(Clone, Debug)]
pub struct ClassicTree {
    source: NodeIx,
    qos: Vec<Option<Qos>>,
    pred: Vec<Option<(NodeIx, EdgeIx)>>,
}

impl ClassicTree {
    /// The source of this tree.
    pub fn source(&self) -> NodeIx {
        self.source
    }

    /// The true QoS of the chosen path to `node` (`None` if unreachable).
    pub fn qos_to(&self, node: NodeIx) -> Option<Qos> {
        self.qos[node.index()]
    }

    /// The chosen path to `node`, inclusive of both endpoints.
    pub fn path_to(&self, node: NodeIx) -> Option<Vec<NodeIx>> {
        self.qos[node.index()]?;
        let mut path = vec![node];
        let mut cur = node;
        while cur != self.source {
            #[expect(
                clippy::expect_used,
                reason = "a node with a label has a predecessor unless it is the source"
            )]
            let (prev, _) =
                self.pred[cur.index()].expect("reachable non-source node must have a predecessor");
            path.push(prev);
            cur = prev;
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq, Eq)]
struct Entry {
    key: u64, // larger pops first
    node: NodeIx,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn dijkstra<N>(
    g: &DiGraph<N, Qos>,
    source: NodeIx,
    // Maps the tentative QoS of a candidate path to a max-heap key.
    key_of: impl Fn(Qos) -> u64,
) -> ClassicTree {
    let mut qos: Vec<Option<Qos>> = vec![None; g.node_count()];
    let mut pred: Vec<Option<(NodeIx, EdgeIx)>> = vec![None; g.node_count()];
    let mut done = vec![false; g.node_count()];
    qos[source.index()] = Some(Qos::IDENTITY);
    let mut heap = BinaryHeap::new();
    heap.push(Entry {
        key: key_of(Qos::IDENTITY),
        node: source,
    });
    while let Some(Entry { node, .. }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        #[expect(clippy::expect_used, reason = "a node is pushed only with its label")]
        let cur = qos[node.index()].expect("popped node has a label");
        for e in g.out_edges(node) {
            if e.weight.bandwidth == Bandwidth::ZERO {
                continue;
            }
            let cand = cur.then(*e.weight);
            let slot = &mut qos[e.to.index()];
            if slot.is_none_or(|q| key_of(cand) > key_of(q)) {
                *slot = Some(cand);
                pred[e.to.index()] = Some((node, e.id));
                heap.push(Entry {
                    key: key_of(cand),
                    node: e.to,
                });
            }
        }
    }
    ClassicTree { source, qos, pred }
}

/// Pure widest-path routing: maximise the bottleneck bandwidth; latency falls
/// where it may. Exact (max–min composition is isotone).
pub fn widest<N>(g: &DiGraph<N, Qos>, source: NodeIx) -> ClassicTree {
    dijkstra(g, source, |q| q.bandwidth.as_kbps())
}

/// Pure shortest-path routing on latency: minimise total delay; bandwidth
/// falls where it may. Exact (plain Dijkstra).
pub fn shortest<N>(g: &DiGraph<N, Qos>, source: NodeIx) -> ClassicTree {
    dijkstra(g, source, |q| u64::MAX - q.latency.as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Latency;

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    /// a→c: narrow/fast. a→b→c: wide/slow.
    fn two_route() -> (DiGraph<(), Qos>, NodeIx, NodeIx) {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, q(1, 1));
        g.add_edge(a, b, q(10, 50));
        g.add_edge(b, c, q(10, 50));
        (g, a, c)
    }

    #[test]
    fn widest_prefers_wide_route() {
        let (g, a, c) = two_route();
        let t = widest(&g, a);
        assert_eq!(t.qos_to(c).unwrap(), q(10, 100));
        assert_eq!(t.path_to(c).unwrap().len(), 3);
        assert_eq!(t.source(), a);
    }

    #[test]
    fn shortest_prefers_fast_route() {
        let (g, a, c) = two_route();
        let t = shortest(&g, a);
        assert_eq!(t.qos_to(c).unwrap(), q(1, 1));
        assert_eq!(t.path_to(c).unwrap(), vec![a, c]);
    }

    #[test]
    fn unreachable_is_none_for_both() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let _ = b;
        assert_eq!(widest(&g, a).qos_to(b), None);
        assert_eq!(shortest(&g, a).qos_to(b), None);
        assert_eq!(shortest(&g, a).path_to(b), None);
    }

    #[test]
    fn source_label_is_identity() {
        let (g, a, _) = two_route();
        assert_eq!(widest(&g, a).qos_to(a), Some(Qos::IDENTITY));
        assert_eq!(shortest(&g, a).path_to(a), Some(vec![a]));
    }
}
