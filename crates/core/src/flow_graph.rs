//! The service flow graph — the result of federation.
//!
//! A *service flow graph* `G'(V', E')` (Sec. 3.1 of the paper) is a subgraph
//! of the overlay containing **exactly one instance of each required
//! service**, with one service stream per requirement edge. Its quality is a
//! [`FlowQuality`]: the bottleneck bandwidth over all streams and the
//! end-to-end latency, i.e. the *longest* source→sink latency (a federated
//! service is only complete once its slowest branch has delivered).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;
use sflow_graph::{algo, NodeIx};
use sflow_net::{ServiceId, ServiceInstance};
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::{FederationContext, FederationError, ServiceRequirement};

/// One selected service stream: a requirement edge bound to concrete
/// instances and an overlay path between them.
///
/// Serializable (but not deserializable: flow graphs are only constructed
/// through [`FlowGraph::assemble`], which enforces the invariants).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FlowEdge {
    /// Upstream required service.
    pub from: ServiceId,
    /// Downstream required service.
    pub to: ServiceId,
    /// Selected upstream instance (overlay node).
    pub from_node: NodeIx,
    /// Selected downstream instance (overlay node).
    pub to_node: NodeIx,
    /// Shortest-widest QoS of the stream.
    pub qos: Qos,
    /// The overlay path realising the stream (instance nodes, inclusive).
    pub overlay_path: Vec<NodeIx>,
}

/// The quality of a flow graph: bottleneck bandwidth and end-to-end latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct FlowQuality {
    /// Minimum bandwidth over all service streams — the throughput the
    /// federated service can sustain.
    pub bandwidth: Bandwidth,
    /// Longest source→sink latency through the requirement DAG.
    pub latency: Latency,
}

impl FlowQuality {
    /// The shortest-widest quality order (wider better, then faster).
    /// `Ordering::Greater` means `self` is better.
    pub fn cmp_shortest_widest(&self, other: &FlowQuality) -> Ordering {
        self.bandwidth
            .cmp(&other.bandwidth)
            .then_with(|| other.latency.cmp(&self.latency))
    }

    /// `true` if strictly better than `other`.
    pub fn is_better_than(&self, other: &FlowQuality) -> bool {
        self.cmp_shortest_widest(other) == Ordering::Greater
    }
}

impl fmt::Display for FlowQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(bw {}, e2e {})", self.bandwidth, self.latency)
    }
}

/// A fully assembled service flow graph.
///
/// Serializable for result export; construct via [`FlowGraph::assemble`].
#[derive(Clone, Debug, Serialize)]
pub struct FlowGraph {
    source: ServiceId,
    selection: BTreeMap<ServiceId, NodeIx>,
    instances: BTreeMap<ServiceId, ServiceInstance>,
    edges: Vec<FlowEdge>,
    quality: FlowQuality,
}

impl FlowGraph {
    /// Binds `selection` (required service → overlay instance node) to `req`,
    /// expands every requirement edge into its shortest-widest overlay path
    /// and computes the quality.
    ///
    /// # Errors
    ///
    /// * [`FederationError::NoInstances`] if the selection misses a required
    ///   service;
    /// * [`FederationError::SelectionUnreachable`] if a selected pair has no
    ///   connecting overlay path.
    pub fn assemble(
        ctx: &FederationContext<'_>,
        req: &ServiceRequirement,
        selection: &BTreeMap<ServiceId, NodeIx>,
    ) -> Result<Self, FederationError> {
        // Callers (the solver's split/merge path, repair) may hand in a
        // wider map than the requirement needs; the flow graph keeps exactly
        // one instance per *required* service — no more, no less.
        let mut selection: BTreeMap<ServiceId, NodeIx> = selection.clone();
        let required: Vec<ServiceId> = req.services();
        for &sid in &required {
            if !selection.contains_key(&sid) {
                return Err(FederationError::NoInstances(sid));
            }
        }
        selection.retain(|sid, _| required.contains(sid));
        let mut edges = Vec::with_capacity(req.edge_count());
        let mut bandwidth = Bandwidth::INFINITE;
        for (from, to) in req.edge_pairs() {
            let (fa, ta) = (selection[&from], selection[&to]);
            let qos = ctx
                .qos(fa, ta)
                .ok_or(FederationError::SelectionUnreachable { from, to })?;
            let overlay_path = if fa == ta {
                vec![fa]
            } else {
                ctx.all_pairs()
                    .path(fa, ta)
                    .expect("qos implies a path exists")
            };
            bandwidth = bandwidth.bottleneck(qos.bandwidth);
            edges.push(FlowEdge {
                from,
                to,
                from_node: fa,
                to_node: ta,
                qos,
                overlay_path,
            });
        }

        // End-to-end latency: the longest path over the requirement DAG with
        // per-edge stream latencies.
        let latency_of = |a: ServiceId, b: ServiceId| {
            edges
                .iter()
                .find(|e| e.from == a && e.to == b)
                .map(|e| e.qos.latency.as_micros())
                .expect("every requirement edge has a stream")
        };
        let g = req.graph();
        let src_node = req
            .node_of(req.source())
            .expect("source is part of the requirement");
        let dist =
            algo::dag_longest_paths(g, src_node, |e| latency_of(*g.node(e.from), *g.node(e.to)))
                .expect("validated requirement is acyclic");
        let latency = req
            .sinks()
            .iter()
            .filter_map(|s| dist[req.node_of(*s).expect("sink is required").index()])
            .max()
            .map(Latency::from_micros)
            .unwrap_or(Latency::ZERO);

        let instances = selection
            .iter()
            .map(|(&sid, &n)| (sid, ctx.overlay().instance(n)))
            .collect();

        let flow = FlowGraph {
            source: req.source(),
            selection,
            instances,
            edges,
            quality: FlowQuality { bandwidth, latency },
        };

        // In a debug build every assembled flow graph is re-derived from raw
        // overlay links and cross-checked against the paper's model before
        // anyone sees it (see `validate`); release builds compile it out.
        #[cfg(debug_assertions)]
        {
            let report = crate::validate::FlowGraphAuditor::new(ctx, req).audit(&flow);
            assert!(
                report.is_clean(),
                "assembled flow graph violates the model\n{report}\n{flow}"
            );
        }

        Ok(flow)
    }

    /// The requirement's source service.
    pub fn source(&self) -> ServiceId {
        self.source
    }

    /// The selected overlay node for `service`, if required.
    pub fn instance_for(&self, service: ServiceId) -> Option<NodeIx> {
        self.selection.get(&service).copied()
    }

    /// The full selection map (service → overlay node), ordered by service.
    pub fn selection(&self) -> &BTreeMap<ServiceId, NodeIx> {
        &self.selection
    }

    /// The selected (service, host) pairs, ordered by service.
    pub fn instances(&self) -> &BTreeMap<ServiceId, ServiceInstance> {
        &self.instances
    }

    /// The service streams, in requirement edge order.
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// The flow graph's quality.
    pub fn quality(&self) -> FlowQuality {
        self.quality
    }

    /// Bottleneck bandwidth (shorthand for `quality().bandwidth`).
    pub fn bandwidth(&self) -> Bandwidth {
        self.quality.bandwidth
    }

    /// End-to-end latency (shorthand for `quality().latency`).
    pub fn latency(&self) -> Latency {
        self.quality.latency
    }

    /// Renders the flow graph as Graphviz DOT: one box per selected
    /// instance, streams labelled with their QoS.
    pub fn to_dot(&self) -> String {
        use sflow_graph::DiGraph;
        let mut g: DiGraph<String, Qos> = DiGraph::new();
        let mut node_of = std::collections::BTreeMap::new();
        for (sid, inst) in &self.instances {
            node_of.insert(*sid, g.add_node(format!("{sid} ← {inst}")));
        }
        for e in &self.edges {
            g.add_edge(node_of[&e.from], node_of[&e.to], e.qos);
        }
        sflow_graph::dot::to_dot(
            &g,
            &sflow_graph::dot::DotOptions {
                name: "flow".into(),
                ..Default::default()
            },
            |_, label| label.clone(),
            |e| e.weight.to_string(),
        )
    }

    /// Total number of overlay hops across all streams — a resource-usage
    /// measure (how much of the overlay the federation occupies).
    pub fn total_overlay_hops(&self) -> usize {
        self.edges
            .iter()
            .map(|e| e.overlay_path.len().saturating_sub(1))
            .sum()
    }

    /// The bandwidth this federation reserves on each overlay link it
    /// traverses: the flow's bottleneck bandwidth per stream crossing the
    /// link, keyed by the link's `(from, to)` overlay nodes.
    ///
    /// Several streams routed over the same link each count — the link
    /// carries that many copies of the flow's traffic — which is exactly
    /// the accounting the server's load plane needs when a session opens
    /// or closes.
    pub fn link_loads(&self) -> BTreeMap<(NodeIx, NodeIx), Bandwidth> {
        let per_stream = self.quality.bandwidth;
        let mut loads: BTreeMap<(NodeIx, NodeIx), Bandwidth> = BTreeMap::new();
        for e in &self.edges {
            for hop in e.overlay_path.windows(2) {
                let slot = loads.entry((hop[0], hop[1])).or_insert(Bandwidth::ZERO);
                *slot = Bandwidth::kbps(slot.as_kbps().saturating_add(per_stream.as_kbps()));
            }
        }
        loads
    }
}

impl fmt::Display for FlowGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service flow graph {}:", self.quality)?;
        for (sid, inst) in &self.instances {
            writeln!(f, "  {sid} ← {inst}")?;
        }
        for e in &self.edges {
            writeln!(f, "  {} → {}  {}", e.from, e.to, e.qos)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{diamond_fixture, diamond_requirement, line_fixture};

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn assemble_line_selection() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        // Select the h1 instance of s1.
        let near = fx
            .overlay
            .instances_of(s(1))
            .iter()
            .copied()
            .find(|&n| fx.overlay.instance(n).host.as_u32() == 1)
            .unwrap();
        let sel: BTreeMap<_, _> = [
            (s(0), fx.source),
            (s(1), near),
            (s(2), fx.overlay.instances_of(s(2))[0]),
        ]
        .into_iter()
        .collect();
        let flow = FlowGraph::assemble(&ctx, &req, &sel).unwrap();
        // Streams: s0→s1 (bw 10, lat 1) and s1→s2 (bw 6, lat 2).
        assert_eq!(flow.bandwidth(), Bandwidth::kbps(6));
        assert_eq!(flow.latency(), Latency::from_micros(3));
        assert_eq!(flow.edges().len(), 2);
        assert_eq!(flow.total_overlay_hops(), 2);
        assert_eq!(flow.source(), s(0));
        assert_eq!(flow.instance_for(s(1)), Some(near));
        assert_eq!(flow.instance_for(s(9)), None);
        let shown = flow.to_string();
        assert!(shown.contains("s0 → s1"));
        assert!(shown.contains("bw 6 kbps"));
    }

    #[test]
    fn latency_is_longest_branch() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        // North route for both intermediates: s1@h1, s2@h2, sink@h3.
        let by_host = |sid: u32, host: u32| {
            fx.overlay
                .instances_of(s(sid))
                .iter()
                .copied()
                .find(|&n| fx.overlay.instance(n).host.as_u32() == host)
                .unwrap()
        };
        let sel: BTreeMap<_, _> = [
            (s(0), fx.source),
            (s(1), by_host(1, 1)),
            (s(2), by_host(2, 2)),
            (s(3), by_host(3, 3)),
        ]
        .into_iter()
        .collect();
        let flow = FlowGraph::assemble(&ctx, &req, &sel).unwrap();
        // Branch latencies: s0→s1 (10) + s1→s3 (20) = 30;
        //                   s0→s2 (20) + s2→s3 (10) = 30.
        assert_eq!(flow.latency(), Latency::from_micros(30));
        // Bottleneck is the narrowest of the four streams (80 on s2→s3 / s0→s2 legs).
        assert_eq!(flow.bandwidth(), Bandwidth::kbps(80));
    }

    #[test]
    fn link_loads_reserve_the_bottleneck_per_stream_hop() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let near = fx
            .overlay
            .instances_of(s(1))
            .iter()
            .copied()
            .find(|&n| fx.overlay.instance(n).host.as_u32() == 1)
            .unwrap();
        let sel: BTreeMap<_, _> = [
            (s(0), fx.source),
            (s(1), near),
            (s(2), fx.overlay.instances_of(s(2))[0]),
        ]
        .into_iter()
        .collect();
        let flow = FlowGraph::assemble(&ctx, &req, &sel).unwrap();
        let loads = flow.link_loads();
        // One overlay hop per stream, each reserving the flow bottleneck.
        assert_eq!(loads.len(), flow.total_overlay_hops());
        for (&(from, to), &bw) in &loads {
            assert_ne!(from, to);
            assert_eq!(bw, flow.bandwidth());
        }
        // Conservation: the per-link sum is bottleneck × total hops (no
        // stream in the line flow shares a link with another).
        let total: u64 = loads.values().map(|b| b.as_kbps()).sum();
        assert_eq!(
            total,
            flow.bandwidth().as_kbps() * flow.total_overlay_hops() as u64
        );
    }

    #[test]
    fn incomplete_selection_is_rejected() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let sel: BTreeMap<_, _> = [(s(0), fx.source)].into_iter().collect();
        assert_eq!(
            FlowGraph::assemble(&ctx, &req, &sel).unwrap_err(),
            FederationError::NoInstances(s(1))
        );
    }

    /// A stale routing cache: a table built over every finite link widened
    /// ×10 promises streams the real overlay cannot carry. A debug build's
    /// `assemble` audits the answer against the real links and panics.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    #[should_panic(expected = "violates the model")]
    fn a_flow_routed_over_a_stale_table_panics() {
        use crate::algorithms::{FederationAlgorithm, SflowAlgorithm};

        let fx = diamond_fixture();
        let mut wider = fx.overlay.clone();
        let links: Vec<_> = fx
            .overlay
            .graph()
            .edges()
            .filter(|e| e.weight.bandwidth != Bandwidth::INFINITE)
            .map(|e| (e.from, e.to, *e.weight))
            .collect();
        for (from, to, qos) in links {
            let widened = Qos::new(Bandwidth::kbps(qos.bandwidth.as_kbps() * 10), qos.latency);
            wider.update_link_qos(from, to, widened).unwrap();
        }
        let stale_table = wider.all_pairs();
        let ctx = FederationContext::new(&fx.overlay, &stale_table, fx.source);
        let _ = SflowAlgorithm::default().federate(&ctx, &diamond_requirement());
    }

    #[test]
    fn quality_ordering() {
        let a = FlowQuality {
            bandwidth: Bandwidth::kbps(10),
            latency: Latency::from_micros(100),
        };
        let b = FlowQuality {
            bandwidth: Bandwidth::kbps(10),
            latency: Latency::from_micros(50),
        };
        let c = FlowQuality {
            bandwidth: Bandwidth::kbps(20),
            latency: Latency::from_micros(500),
        };
        assert!(b.is_better_than(&a));
        assert!(c.is_better_than(&b));
        assert!(!a.is_better_than(&a));
        assert!(a.to_string().contains("10 kbps"));
    }
}
