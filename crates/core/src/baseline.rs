//! The baseline algorithm (Table 1 of the paper): optimal service flow
//! graphs for **single-path** service requirements.
//!
//! Given a chain of services `s₀ → s₁ → … → sₖ`, the paper's recipe is:
//!
//! 1. compute all-pairs shortest-widest paths over the overlay (available
//!    from the [`FederationContext`]);
//! 2. construct the service abstract graph for the chain — a layered graph
//!    with one layer of instances per service;
//! 3. compute the shortest-widest abstract path from the source to the sink;
//! 4. expand each abstract edge into its overlay path.
//!
//! Step 3 is implemented as a **Pareto-label dynamic program** over the
//! layers: each instance keeps the set of non-dominated `(bandwidth,
//! latency)` labels of partial chains ending there. This is exact — a plain
//! lexicographic DP can mis-rank latency because the shortest-widest order is
//! not isotone (see `sflow_routing::shortest_widest`), while dominated labels
//! can never turn into the optimum. Layer widths are the instances-per-
//! service counts (2–4 in the paper's experiments), so frontier sizes stay
//! tiny.
//!
//! [`ChainSolver`] also carries the two knobs the distributed algorithm
//! needs: a *hop horizon* (a node may only hand off to instances within `h`
//! overlay hops, mirroring the paper's two-hop local views) and *virtual
//! edges* (collapsed split-and-merge blocks, Sec. 3.4.2).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

use sflow_graph::NodeIx;
use sflow_net::ServiceId;
use sflow_routing::Qos;

use crate::{FederationContext, FederationError};

/// QoS overrides for collapsed sub-requirements: for the requirement edge
/// `(split, merge)`, maps a concrete instance pair to the quality achieved by
/// the solved inner block.
pub type VirtualEdges = HashMap<(ServiceId, ServiceId), HashMap<(NodeIx, NodeIx), Qos>>;

/// Undirected hop distances between overlay instances, used to model the
/// limited local views of the distributed algorithm.
///
/// Stored as a flat row-major `n × n` array (`u32::MAX` = disconnected), so
/// the hot `hops`/`within` lookups the [`ChainSolver`] horizon makes per
/// candidate edge are a single indexed load instead of a hash probe, and the
/// whole matrix is one allocation. Overlay graphs are instance-sized
/// (hundreds of nodes), so the `O(V²)` footprint is a few hundred KiB at
/// most.
#[derive(Clone, Debug)]
pub struct HopMatrix {
    n: usize,
    dist: Vec<u32>,
}

const UNREACHED: u32 = u32::MAX;

impl HopMatrix {
    /// Computes hop distances over the given overlay graph (`O(V·(V+E))`),
    /// between live instances and through live instances only: a failed
    /// instance ([`OverlayGraph::is_live`](sflow_net::OverlayGraph::is_live))
    /// is neither an endpoint nor a relay.
    pub fn new(overlay: &sflow_net::OverlayGraph) -> Self {
        let g = overlay.graph();
        let n = g.node_count();
        let live: Vec<bool> = g.node_ids().map(|v| overlay.is_live(v)).collect();
        let mut dist = vec![UNREACHED; n * n];
        let mut queue = VecDeque::new();
        for source in g.node_ids().filter(|v| live[v.index()]) {
            let row = &mut dist[source.index() * n..(source.index() + 1) * n];
            row[source.index()] = 0;
            queue.clear();
            queue.push_back(source);
            while let Some(v) = queue.pop_front() {
                let d = row[v.index()];
                for &eid in g.out_edge_ids(v).iter().chain(g.in_edge_ids(v)) {
                    let (from, to, _) = g.edge_parts(eid);
                    let next = if from == v { to } else { from };
                    if live[next.index()] && row[next.index()] == UNREACHED {
                        row[next.index()] = d + 1;
                        queue.push_back(next);
                    }
                }
            }
        }
        HopMatrix { n, dist }
    }

    /// Hop distance between two instances (`None` if disconnected).
    pub fn hops(&self, a: NodeIx, b: NodeIx) -> Option<usize> {
        let d = self.dist[a.index() * self.n + b.index()];
        (d != UNREACHED).then_some(d as usize)
    }

    /// `true` if `b` lies within `limit` hops of `a`.
    pub fn within(&self, a: NodeIx, b: NodeIx, limit: usize) -> bool {
        self.hops(a, b).is_some_and(|d| d <= limit)
    }
}

/// The result of solving one chain.
#[derive(Clone, Debug)]
pub struct ChainSolution {
    /// Selected overlay instance per chain service.
    pub selection: BTreeMap<ServiceId, NodeIx>,
    /// End-to-end QoS of the chain (bottleneck bandwidth, summed latency).
    pub qos: Qos,
}

/// One non-dominated partial-chain label: accumulated QoS plus a back-pointer
/// `(candidate index in previous layer, label index there)`.
#[derive(Clone, Copy, Debug)]
struct Label {
    qos: Qos,
    back: Option<(usize, usize)>,
}

/// Inserts `cand` into a Pareto frontier, dropping labels it dominates and
/// dropping `cand` itself when an existing label dominates it. Equal-QoS
/// duplicates keep the incumbent (first writer wins, deterministic).
fn insert_pareto(frontier: &mut Vec<Label>, cand: Label) {
    if frontier.iter().any(|f| f.qos.dominates(&cand.qos)) {
        return;
    }
    frontier.retain(|f| !cand.qos.dominates(&f.qos));
    frontier.push(cand);
}

fn empty_pins() -> &'static BTreeMap<ServiceId, NodeIx> {
    static EMPTY: OnceLock<BTreeMap<ServiceId, NodeIx>> = OnceLock::new();
    EMPTY.get_or_init(BTreeMap::new)
}

fn empty_virtual() -> &'static VirtualEdges {
    static EMPTY: OnceLock<VirtualEdges> = OnceLock::new();
    EMPTY.get_or_init(VirtualEdges::new)
}

/// Solves single-path requirements optimally (the paper's baseline
/// algorithm), with optional pinning, hop horizon and virtual edges.
///
/// # Example
///
/// ```
/// use sflow_core::baseline::ChainSolver;
/// use sflow_core::fixtures::line_fixture;
/// use sflow_net::ServiceId;
/// use sflow_routing::Bandwidth;
///
/// let fx = line_fixture();
/// let ctx = fx.context();
/// let chain: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
/// let sol = ChainSolver::new(&ctx).solve(&chain)?;
/// assert_eq!(sol.qos.bandwidth, Bandwidth::kbps(6));
/// # Ok::<(), sflow_core::FederationError>(())
/// ```
pub struct ChainSolver<'a> {
    ctx: &'a FederationContext<'a>,
    pinned: &'a BTreeMap<ServiceId, NodeIx>,
    hop_limit: Option<(usize, &'a HopMatrix)>,
    virtual_edges: &'a VirtualEdges,
}

impl<'a> ChainSolver<'a> {
    /// Creates a solver with no pins, no horizon and no virtual edges.
    pub fn new(ctx: &'a FederationContext<'a>) -> Self {
        ChainSolver {
            ctx,
            pinned: empty_pins(),
            hop_limit: None,
            virtual_edges: empty_virtual(),
        }
    }

    /// Pins specific services to specific instances (e.g. the source, or
    /// services already committed by an earlier chain).
    pub fn with_pins(mut self, pinned: &'a BTreeMap<ServiceId, NodeIx>) -> Self {
        self.pinned = pinned;
        self
    }

    /// Restricts hand-offs to instances within `limit` overlay hops of the
    /// upstream instance, as in the distributed algorithm's local views.
    pub fn with_hop_limit(mut self, limit: usize, matrix: &'a HopMatrix) -> Self {
        self.hop_limit = Some((limit, matrix));
        self
    }

    /// Installs virtual-edge QoS overrides for collapsed split-and-merge
    /// blocks.
    pub fn with_virtual_edges(mut self, virtual_edges: &'a VirtualEdges) -> Self {
        self.virtual_edges = virtual_edges;
        self
    }

    fn candidates(&self, sid: ServiceId) -> Result<Vec<NodeIx>, FederationError> {
        if let Some(&n) = self.pinned.get(&sid) {
            return Ok(vec![n]);
        }
        let cands = self.ctx.overlay().instances_of(sid);
        if cands.is_empty() {
            return Err(FederationError::NoInstances(sid));
        }
        Ok(cands.to_vec())
    }

    fn edge_qos(
        &self,
        from_s: ServiceId,
        from: NodeIx,
        to_s: ServiceId,
        to: NodeIx,
    ) -> Option<Qos> {
        if let Some(table) = self.virtual_edges.get(&(from_s, to_s)) {
            // A collapsed block: only the solved instance pairs exist.
            return table.get(&(from, to)).copied();
        }
        if let Some((limit, matrix)) = self.hop_limit {
            if !matrix.within(from, to, limit) {
                return None;
            }
        }
        self.ctx.qos(from, to)
    }

    /// Solves the chain exactly under the shortest-widest order.
    ///
    /// # Errors
    ///
    /// * [`FederationError::NoInstances`] — a chain service has no instance;
    /// * [`FederationError::NoFeasibleSelection`] — no instance sequence is
    ///   connected under the pins/horizon/virtual edges.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty or repeats a service.
    pub fn solve(&self, chain: &[ServiceId]) -> Result<ChainSolution, FederationError> {
        assert!(!chain.is_empty(), "chain must not be empty");
        {
            let mut seen = HashSet::new();
            assert!(
                chain.iter().all(|s| seen.insert(*s)),
                "chain must not repeat services"
            );
        }

        let mut layers: Vec<Vec<NodeIx>> = Vec::with_capacity(chain.len());
        let mut labels: Vec<Vec<Vec<Label>>> = Vec::with_capacity(chain.len());

        let first = self.candidates(chain[0])?;
        labels.push(
            first
                .iter()
                .map(|_| {
                    vec![Label {
                        qos: Qos::IDENTITY,
                        back: None,
                    }]
                })
                .collect(),
        );
        layers.push(first);

        for (li, &sid) in chain.iter().enumerate().skip(1) {
            let cands = self.candidates(sid)?;
            let prev_sid = chain[li - 1];
            let mut layer_labels: Vec<Vec<Label>> = Vec::with_capacity(cands.len());
            for &b in &cands {
                let mut frontier: Vec<Label> = Vec::new();
                for (ai, &a) in layers[li - 1].iter().enumerate() {
                    let Some(link) = self.edge_qos(prev_sid, a, sid, b) else {
                        continue;
                    };
                    for (xi, lab) in labels[li - 1][ai].iter().enumerate() {
                        insert_pareto(
                            &mut frontier,
                            Label {
                                qos: lab.qos.then(link),
                                back: Some((ai, xi)),
                            },
                        );
                    }
                }
                layer_labels.push(frontier);
            }
            layers.push(cands);
            labels.push(layer_labels);
        }

        // Pick the best final label under the shortest-widest order.
        let last = labels.last().expect("at least one layer");
        let mut best: Option<(usize, usize, Qos)> = None;
        for (ci, frontier) in last.iter().enumerate() {
            for (xi, lab) in frontier.iter().enumerate() {
                if best.is_none_or(|(_, _, q)| lab.qos.is_better_than(&q)) {
                    best = Some((ci, xi, lab.qos));
                }
            }
        }
        let Some((mut ci, mut xi, qos)) = best else {
            return Err(FederationError::NoFeasibleSelection);
        };

        // Backtrack through the layers.
        let mut selection = BTreeMap::new();
        for li in (0..chain.len()).rev() {
            selection.insert(chain[li], layers[li][ci]);
            if let Some((pci, pxi)) = labels[li][ci][xi].back {
                ci = pci;
                xi = pxi;
            }
        }
        Ok(ChainSolution { selection, qos })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{diamond_fixture, line_fixture};
    use sflow_routing::{Bandwidth, Latency};

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn picks_the_wider_instance() {
        let fx = line_fixture();
        let ctx = fx.context();
        let sol = ChainSolver::new(&ctx).solve(&[s(0), s(1), s(2)]).unwrap();
        // Both s1 instances yield (bw 6, lat 3); the tie is broken
        // deterministically in favour of the first-listed instance (h1).
        assert_eq!(sol.qos.bandwidth, Bandwidth::kbps(6));
        assert_eq!(sol.qos.latency, Latency::from_micros(3));
        let s1_host = ctx.overlay().instance(sol.selection[&s(1)]).host;
        assert_eq!(s1_host.as_u32(), 1);
    }

    #[test]
    fn respects_pins() {
        let fx = line_fixture();
        let ctx = fx.context();
        let near = fx
            .overlay
            .instances_of(s(1))
            .iter()
            .copied()
            .find(|&n| fx.overlay.instance(n).host.as_u32() == 1)
            .unwrap();
        let pins: BTreeMap<_, _> = [(s(1), near)].into_iter().collect();
        let sol = ChainSolver::new(&ctx)
            .with_pins(&pins)
            .solve(&[s(0), s(1), s(2)])
            .unwrap();
        assert_eq!(sol.selection[&s(1)], near);
        assert_eq!(sol.qos.latency, Latency::from_micros(3)); // 1 + 2
    }

    #[test]
    fn hop_limit_restricts_handoffs() {
        let fx = line_fixture();
        let ctx = fx.context();
        let matrix = HopMatrix::new(&fx.overlay);
        // Overlay links: s0→{s1@h1, s1@h2}, s1*→s2. Every hand-off is one
        // overlay hop, so a 1-hop horizon must still succeed…
        let sol = ChainSolver::new(&ctx)
            .with_hop_limit(1, &matrix)
            .solve(&[s(0), s(1), s(2)])
            .unwrap();
        assert_eq!(sol.qos.bandwidth, Bandwidth::kbps(6));
        // …and a direct s0 → s2 chain needs 2 overlay hops, so a 1-hop
        // horizon makes it infeasible (no compat link s0→s2 exists).
        let err = ChainSolver::new(&ctx)
            .with_hop_limit(1, &matrix)
            .solve(&[s(0), s(2)])
            .unwrap_err();
        assert_eq!(err, FederationError::NoFeasibleSelection);
    }

    #[test]
    fn virtual_edges_override_routing() {
        let fx = line_fixture();
        let ctx = fx.context();
        let s1_near = fx.overlay.instances_of(s(1))[0];
        let mut virt = VirtualEdges::new();
        virt.entry((s(0), s(1))).or_default().insert(
            (fx.source, s1_near),
            Qos::new(Bandwidth::kbps(999), Latency::from_micros(1)),
        );
        let sol = ChainSolver::new(&ctx)
            .with_virtual_edges(&virt)
            .solve(&[s(0), s(1)])
            .unwrap();
        // Only the virtual pair exists for (s0, s1); it must be chosen.
        assert_eq!(sol.selection[&s(1)], s1_near);
        assert_eq!(sol.qos.bandwidth, Bandwidth::kbps(999));
    }

    #[test]
    fn missing_service_errors() {
        let fx = line_fixture();
        let ctx = fx.context();
        assert_eq!(
            ChainSolver::new(&ctx).solve(&[s(0), s(9)]).unwrap_err(),
            FederationError::NoInstances(s(9))
        );
    }

    #[test]
    fn pareto_frontier_keeps_incomparable_labels() {
        let mut f = Vec::new();
        let l = |bw: u64, lat: u64| Label {
            qos: Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat)),
            back: None,
        };
        insert_pareto(&mut f, l(10, 10));
        insert_pareto(&mut f, l(5, 5)); // incomparable: kept
        assert_eq!(f.len(), 2);
        insert_pareto(&mut f, l(10, 12)); // dominated: dropped
        assert_eq!(f.len(), 2);
        insert_pareto(&mut f, l(10, 4)); // dominates both: replaces them
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].qos.bandwidth, Bandwidth::kbps(10));
        assert_eq!(f[0].qos.latency, Latency::from_micros(4));
    }

    #[test]
    fn pareto_dp_beats_greedy_on_diamond() {
        // Regression-style check on a world where the widest first hop is the
        // wrong prefix for the best overall chain.
        let fx = diamond_fixture();
        let ctx = fx.context();
        let sol = ChainSolver::new(&ctx)
            .solve(&[s(0), s(1), s(2), s(3)])
            .unwrap();
        // North chain h0→h1→h2→h3: bottleneck 80.
        assert_eq!(sol.qos.bandwidth, Bandwidth::kbps(80));
    }

    #[test]
    #[should_panic(expected = "must not repeat")]
    fn repeated_service_panics() {
        let fx = line_fixture();
        let ctx = fx.context();
        let _ = ChainSolver::new(&ctx).solve(&[s(0), s(1), s(0)]);
    }
}
