//! The service overlay graph (layer 2 of the paper's Fig. 4).
//!
//! Nodes of the overlay are [`ServiceInstance`]s; a directed *service link*
//! connects instance `a` to instance `b` whenever service `a.service` is
//! compatible with (can feed) service `b.service` and a path between their
//! hosts exists in the underlying network. Each service link is labelled with
//! the QoS of the shortest-widest underlying path.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sflow_graph::{algo, DiGraph, NodeIx};
use sflow_routing::{shortest_widest, AllPairs, Bandwidth, EdgeChange, Qos};

use crate::{HostId, OverlayBuildError, ServiceId, ServiceInstance, UnderlyingNetwork};

/// The service compatibility relation: `allows(a, b)` means the output of
/// service `a` matches the input requirements of service `b` (Sec. 2.2).
///
/// [`Compatibility::universal`] makes every ordered pair of distinct services
/// compatible; [`Compatibility::from_pairs`] restricts to an explicit set
/// (typically the edge set of the requirement at hand, which is how the
/// evaluation keeps overlays sparse and local views meaningful).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Compatibility {
    universal: bool,
    pairs: HashSet<(ServiceId, ServiceId)>,
}

impl Compatibility {
    /// Every ordered pair of distinct services is compatible.
    pub fn universal() -> Self {
        Compatibility {
            universal: true,
            pairs: HashSet::new(),
        }
    }

    /// Only the listed ordered pairs are compatible.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ServiceId, ServiceId)>) -> Self {
        Compatibility {
            universal: false,
            pairs: pairs.into_iter().collect(),
        }
    }

    /// Adds one compatible pair.
    pub fn allow(&mut self, from: ServiceId, to: ServiceId) {
        self.pairs.insert((from, to));
    }

    /// Returns `true` if service `from` may feed service `to`.
    pub fn allows(&self, from: ServiceId, to: ServiceId) -> bool {
        if from == to {
            return false;
        }
        self.universal || self.pairs.contains(&(from, to))
    }
}

/// Where service instances live: the set of (service, host) pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    instances: Vec<ServiceInstance>,
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one instance. Duplicates are detected at overlay build time.
    pub fn add(&mut self, instance: ServiceInstance) -> &mut Self {
        self.instances.push(instance);
        self
    }

    /// The placed instances, in insertion order.
    pub fn instances(&self) -> &[ServiceInstance] {
        &self.instances
    }

    /// Number of placed instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` if nothing has been placed.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Places `per_service` instances of each service on hosts drawn without
    /// replacement per service (a host never runs two instances of the *same*
    /// service, but may run several different services).
    ///
    /// # Panics
    ///
    /// Panics if `per_service` exceeds the number of hosts.
    pub fn random(
        net: &UnderlyingNetwork,
        services: &[ServiceId],
        per_service: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let hosts: Vec<HostId> = net.hosts().collect();
        assert!(
            per_service <= hosts.len(),
            "cannot place {per_service} instances on {} hosts",
            hosts.len()
        );
        let mut p = Placement::new();
        for &sid in services {
            let mut pool = hosts.clone();
            pool.shuffle(rng);
            for &host in pool.iter().take(per_service) {
                p.add(ServiceInstance::new(sid, host));
            }
        }
        p
    }
}

impl FromIterator<ServiceInstance> for Placement {
    fn from_iter<T: IntoIterator<Item = ServiceInstance>>(iter: T) -> Self {
        Placement {
            instances: iter.into_iter().collect(),
        }
    }
}

/// Options controlling overlay construction.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlayOptions {
    /// If set, each instance keeps only its best `k` outgoing service links
    /// *per downstream service* (ranked shortest-widest). This models the
    /// cost-effective sparse service meshes of Xu et al. that the paper cites,
    /// and is what makes the 2-hop local views of the distributed algorithm
    /// meaningfully partial. `None` keeps the full mesh.
    pub max_links_per_service: Option<usize>,
}

/// The service overlay graph.
///
/// A failed instance is a *tombstone* ([`OverlayGraph::with_failed`]): its
/// node stays, so every node and edge keeps its number across a failure,
/// but no lookup offers it ([`OverlayGraph::is_live`]) and every link at
/// it carries zero bandwidth.
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    graph: DiGraph<ServiceInstance, Qos>,
    /// The live nodes of each service, in node order.
    by_service: HashMap<ServiceId, Vec<NodeIx>>,
    /// The tombstoned nodes, in failure order.
    failed: Vec<NodeIx>,
}

impl OverlayGraph {
    /// Builds the overlay over `net` with the full service mesh (every
    /// compatible, connected instance pair gets a link).
    ///
    /// # Errors
    ///
    /// See [`OverlayGraph::build_with`].
    pub fn build(
        net: &UnderlyingNetwork,
        placement: &Placement,
        compat: &Compatibility,
    ) -> Result<Self, OverlayBuildError> {
        Self::build_with(net, placement, compat, &OverlayOptions::default())
    }

    /// Builds the overlay with explicit [`OverlayOptions`].
    ///
    /// Service-link QoS is the shortest-widest path QoS between the two hosts
    /// in the underlying network; co-located instances get [`Qos::IDENTITY`]
    /// links (no network traversal). Only the hosts that carry an instance
    /// are priced, each pair once, by [`UnderlyingNetwork::pair_qos`] — the
    /// entries of [`UnderlyingNetwork::all_pairs`] a service link can read.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayBuildError::UnknownHost`] if an instance is placed on
    /// a host outside `net`, and [`OverlayBuildError::DuplicateInstance`] if
    /// the same (service, host) pair is placed twice.
    pub fn build_with(
        net: &UnderlyingNetwork,
        placement: &Placement,
        compat: &Compatibility,
        options: &OverlayOptions,
    ) -> Result<Self, OverlayBuildError> {
        let mut seen = HashSet::new();
        for &inst in placement.instances() {
            if !net.contains_host(inst.host) {
                return Err(OverlayBuildError::UnknownHost(inst));
            }
            if !seen.insert(inst) {
                return Err(OverlayBuildError::DuplicateInstance(inst));
            }
        }

        let mut hosts: Vec<HostId> = placement.instances().iter().map(|i| i.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        let prices = net.pair_qos(&hosts);
        let at = |host| {
            hosts
                .binary_search(&host)
                .expect("every instance's host was priced")
        };
        Ok(Self::assemble(placement, compat, options, |from, to| {
            prices.qos(at(from), at(to))
        }))
    }

    /// Links the (validated) placement, pricing a service link between two
    /// *distinct* hosts with `host_qos`.
    fn assemble(
        placement: &Placement,
        compat: &Compatibility,
        options: &OverlayOptions,
        host_qos: impl Fn(HostId, HostId) -> Option<Qos>,
    ) -> Self {
        let mut graph = DiGraph::with_capacity(placement.len(), 0);
        for &inst in placement.instances() {
            graph.add_node(inst);
        }

        let ids: Vec<NodeIx> = graph.node_ids().collect();
        for &from in &ids {
            let fi = *graph.node(from);
            // Candidate links grouped by downstream service so the optional
            // per-service cap can rank within each group.
            let mut per_service: HashMap<ServiceId, Vec<(NodeIx, Qos)>> = HashMap::new();
            for &to in &ids {
                let ti = *graph.node(to);
                if from == to || !compat.allows(fi.service, ti.service) {
                    continue;
                }
                let qos = if fi.host == ti.host {
                    Some(Qos::IDENTITY)
                } else {
                    host_qos(fi.host, ti.host)
                };
                if let Some(qos) = qos {
                    per_service.entry(ti.service).or_default().push((to, qos));
                }
            }
            let mut services: Vec<ServiceId> = per_service.keys().copied().collect();
            services.sort(); // deterministic edge order
            for sid in services {
                let mut cands = per_service.remove(&sid).expect("key from map");
                cands.sort_by(|a, b| b.1.cmp_shortest_widest(&a.1).then_with(|| a.0.cmp(&b.0)));
                let keep = options.max_links_per_service.unwrap_or(usize::MAX);
                for (to, qos) in cands.into_iter().take(keep) {
                    graph.add_edge(from, to, qos);
                }
            }
        }
        Self::all_live(graph)
    }

    /// The overlay over `graph` with every node live.
    fn all_live(graph: DiGraph<ServiceInstance, Qos>) -> Self {
        let mut by_service: HashMap<ServiceId, Vec<NodeIx>> = HashMap::new();
        for (n, inst) in graph.nodes() {
            by_service.entry(inst.service).or_default().push(n);
        }
        OverlayGraph {
            graph,
            by_service,
            failed: Vec::new(),
        }
    }

    /// The overlay graph itself: instances on nodes, service-link QoS on
    /// edges. Tombstoned nodes are in it, with every link at them cut to
    /// zero bandwidth: a walk over its raw nodes must ask
    /// [`OverlayGraph::is_live`].
    pub fn graph(&self) -> &DiGraph<ServiceInstance, Qos> {
        &self.graph
    }

    /// Number of live service instances.
    pub fn instance_count(&self) -> usize {
        self.graph.node_count() - self.failed.len()
    }

    /// Number of service links, the cut links of failed instances included.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// `false` if `node`'s instance has failed: the one liveness rule.
    /// [`OverlayGraph::node_of`], [`OverlayGraph::instances_of`] and
    /// [`OverlayGraph::services`] see live nodes only.
    pub fn is_live(&self, node: NodeIx) -> bool {
        !self.failed.contains(&node)
    }

    /// The instance at overlay node `node`.
    pub fn instance(&self, node: NodeIx) -> ServiceInstance {
        *self.graph.node(node)
    }

    /// The live overlay nodes carrying instances of `service`, in node
    /// order (possibly empty).
    pub fn instances_of(&self, service: ServiceId) -> &[NodeIx] {
        self.by_service
            .get(&service)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The overlay node of a specific instance, if placed and live.
    pub fn node_of(&self, instance: ServiceInstance) -> Option<NodeIx> {
        self.instances_of(instance.service)
            .iter()
            .copied()
            .find(|&n| self.instance(n) == instance)
    }

    /// All distinct services with a live instance, sorted.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut s: Vec<ServiceId> = self.by_service.keys().copied().collect();
        s.sort();
        s
    }

    /// Exact all-pairs shortest-widest paths *over the overlay* (between
    /// service instances, through service links).
    pub fn all_pairs(&self) -> AllPairs {
        shortest_widest::all_pairs(&self.graph)
    }

    /// Renders the overlay as Graphviz DOT: instances as `SID/NID` boxes,
    /// service links labelled with their QoS.
    pub fn to_dot(&self) -> String {
        sflow_graph::dot::to_dot(
            &self.graph,
            &sflow_graph::dot::DotOptions {
                name: "overlay".into(),
                ..Default::default()
            },
            |_, inst| inst.to_string(),
            |e| e.weight.to_string(),
        )
    }

    /// Updates the QoS of the service link `from → to` in place and returns
    /// the [`EdgeChange`] describing the update — the input the incremental
    /// [`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with) path
    /// needs to derive the routing table instead of rebuilding it. `None` if
    /// no such service link exists. This is the substrate for online QoS
    /// drift (congestion, re-provisioning) in a long-lived overlay; callers
    /// holding derived routing artifacts (`AllPairs`, hop matrices) must
    /// patch or recompute them afterwards.
    pub fn update_link_qos(&mut self, from: NodeIx, to: NodeIx, qos: Qos) -> Option<EdgeChange> {
        let e = self.graph.find_edge(from, to)?;
        let old = *self.graph.edge(e);
        *self.graph.edge_mut(e) = qos;
        Some(EdgeChange {
            edge: e,
            old,
            new: qos,
        })
    }

    /// Copy-on-write form of [`OverlayGraph::update_link_qos`]: leaves
    /// `self` untouched and returns a fresh overlay carrying the new QoS —
    /// its weights copied, its topology shared with `self` — plus the
    /// [`EdgeChange`] that
    /// [`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with) needs to
    /// derive a fresh routing table from a predecessor. `None` if no such
    /// service link exists.
    ///
    /// This is the mutation entry point of an epoch-published world: the
    /// current overlay stays immutable (readers keep solving against it)
    /// while the successor is assembled off to the side.
    pub fn with_link_qos(
        &self,
        from: NodeIx,
        to: NodeIx,
        qos: Qos,
    ) -> Option<(OverlayGraph, EdgeChange)> {
        self.graph.find_edge(from, to)?;
        let mut next = self.clone();
        let change = next
            .update_link_qos(from, to, qos)
            .expect("edge existence checked above");
        Some((next, change))
    }

    /// Copy-on-write failure of `failed`: a fresh overlay — its weights
    /// copied, its topology shared with `self` — in which each of them
    /// that is live is a tombstone — gone from every lookup, its node
    /// kept so no node or edge is renumbered — and every link into or out
    /// of it is cut to zero bandwidth at its latency, plus one
    /// [`EdgeChange`] per link cut. The shortest-widest kernel never
    /// crosses a zero-bandwidth link, so the changes are a pure cut, which
    /// [`AllPairs::patched_with`] plans like any other: the predecessor's
    /// table becomes the successor's without a rebuild. Unknown or already
    /// failed instances are ignored. `self` is untouched.
    pub fn with_failed(&self, failed: &[ServiceInstance]) -> (OverlayGraph, Vec<EdgeChange>) {
        let mut next = self.clone();
        let mut changes = Vec::new();
        for &instance in failed {
            let Some(node) = next.node_of(instance) else {
                continue;
            };
            next.failed.push(node);
            let live = next
                .by_service
                .get_mut(&instance.service)
                .expect("a live node is listed under its service");
            live.retain(|&n| n != node);
            if live.is_empty() {
                next.by_service.remove(&instance.service);
            }
            let links = self.graph.out_edge_ids(node).iter();
            for &edge in links.chain(self.graph.in_edge_ids(node)) {
                let old = *next.graph.edge(edge);
                if old.bandwidth == Bandwidth::ZERO {
                    continue;
                }
                let new = Qos::new(Bandwidth::ZERO, old.latency);
                *next.graph.edge_mut(edge) = new;
                changes.push(EdgeChange { edge, old, new });
            }
        }
        (next, changes)
    }

    /// Rebuilds the overlay from its live instances minus `failed`,
    /// renumbering every node and edge; service links between survivors
    /// keep their QoS. The reference a tombstone failure
    /// ([`OverlayGraph::with_failed`]) is checked and timed against, in
    /// tests and benches: every answer over the two is the same, node ids
    /// mapped across.
    pub fn without_instances(&self, failed: &[ServiceInstance]) -> OverlayGraph {
        let keep: HashSet<NodeIx> = self
            .graph
            .node_ids()
            .filter(|&n| self.is_live(n) && !failed.contains(&self.instance(n)))
            .collect();
        Self::all_live(algo::induced_subgraph(&self.graph, &keep).0)
    }

    /// Extracts the local view a service node operates on: the sub-overlay
    /// induced by all live instances within `hops` overlay hops of `center`
    /// (ignoring link direction, relaying through live instances only), as
    /// in the paper's "two-hop vicinity" assumption (Sec. 4).
    pub fn local_view(&self, center: NodeIx, hops: usize) -> LocalView {
        let mut within = HashMap::from([(center, 0)]);
        let mut queue = VecDeque::from([center]);
        while let Some(n) = queue.pop_front() {
            let d = within[&n];
            if d == hops {
                continue;
            }
            let g = &self.graph;
            for next in g.successors(n).chain(g.predecessors(n)) {
                if self.is_live(next) && !within.contains_key(&next) {
                    within.insert(next, d + 1);
                    queue.push_back(next);
                }
            }
        }
        let keep: HashSet<NodeIx> = within.into_keys().collect();
        let (graph, to_parent) = algo::induced_subgraph(&self.graph, &keep);
        let from_parent: HashMap<NodeIx, NodeIx> = (to_parent.iter().enumerate())
            .map(|(new, &old)| (old, NodeIx::from_index(new)))
            .collect();
        let center_local = from_parent[&center];
        LocalView {
            overlay: Self::all_live(graph),
            center: center_local,
            to_parent,
            from_parent,
        }
    }
}

/// A service node's partial knowledge of the overlay: the induced sub-overlay
/// within a hop radius, plus the mappings to and from the full overlay.
#[derive(Clone, Debug)]
pub struct LocalView {
    /// The sub-overlay (a fully functional [`OverlayGraph`]).
    pub overlay: OverlayGraph,
    /// The view's centre, as a node of the sub-overlay.
    pub center: NodeIx,
    /// Maps sub-overlay node index → full-overlay node.
    pub to_parent: Vec<NodeIx>,
    /// Maps full-overlay node → sub-overlay node (only for visible nodes).
    pub from_parent: HashMap<NodeIx, NodeIx>,
}

impl LocalView {
    /// Translates a sub-overlay node to the full overlay.
    pub fn to_parent(&self, local: NodeIx) -> NodeIx {
        self.to_parent[local.index()]
    }

    /// Translates a full-overlay node into this view, if visible.
    pub fn from_parent(&self, parent: NodeIx) -> Option<NodeIx> {
        self.from_parent.get(&parent).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sflow_routing::{Bandwidth, Latency};

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    fn sid(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    /// 4 hosts in a line; service 0 on h0, service 1 on h1 and h2,
    /// service 2 on h3.
    fn line_world() -> (UnderlyingNetwork, Placement, Compatibility) {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(4);
        b.link(h[0], h[1], q(10, 1))
            .link(h[1], h[2], q(8, 1))
            .link(h[2], h[3], q(6, 1));
        let net = b.build();
        let mut p = Placement::new();
        p.add(ServiceInstance::new(sid(0), h[0]));
        p.add(ServiceInstance::new(sid(1), h[1]));
        p.add(ServiceInstance::new(sid(1), h[2]));
        p.add(ServiceInstance::new(sid(2), h[3]));
        let compat = Compatibility::from_pairs([(sid(0), sid(1)), (sid(1), sid(2))]);
        (net, p, compat)
    }

    #[test]
    fn build_creates_expected_links() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        assert_eq!(ov.instance_count(), 4);
        // s0→s1 (two instances) + s1→s2 (two instances) = 4 links.
        assert_eq!(ov.link_count(), 4);
        assert_eq!(ov.services(), vec![sid(0), sid(1), sid(2)]);
        assert_eq!(ov.instances_of(sid(1)).len(), 2);
        assert!(ov.instances_of(sid(9)).is_empty());
    }

    #[test]
    fn link_qos_is_shortest_widest_of_underlay() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let s0 = ov.instances_of(sid(0))[0];
        // s0/h0 → s1/h2 crosses two links: bottleneck 8, latency 2.
        let far = ov
            .instances_of(sid(1))
            .iter()
            .copied()
            .find(|&n| ov.instance(n).host == HostId::new(2))
            .unwrap();
        let e = ov.graph().find_edge(s0, far).unwrap();
        assert_eq!(*ov.graph().edge(e), q(8, 2));
    }

    #[test]
    fn colocated_instances_get_identity_link() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(1);
        let net = b.build();
        let mut p = Placement::new();
        p.add(ServiceInstance::new(sid(0), h[0]));
        p.add(ServiceInstance::new(sid(1), h[0]));
        let ov =
            OverlayGraph::build(&net, &p, &Compatibility::from_pairs([(sid(0), sid(1))])).unwrap();
        assert_eq!(ov.link_count(), 1);
        let e = ov.graph().edges().next().unwrap();
        assert_eq!(*e.weight, Qos::IDENTITY);
    }

    #[test]
    fn incompatible_or_same_service_pairs_get_no_link() {
        let (net, p, _) = line_world();
        let ov = OverlayGraph::build(&net, &p, &Compatibility::from_pairs([])).unwrap();
        assert_eq!(ov.link_count(), 0);
        // Universal compatibility never links two instances of the same SID.
        let ov = OverlayGraph::build(&net, &p, &Compatibility::universal()).unwrap();
        for e in ov.graph().edges() {
            assert_ne!(ov.instance(e.from).service, ov.instance(e.to).service);
        }
    }

    #[test]
    fn duplicate_instance_is_rejected() {
        let (net, mut p, compat) = line_world();
        let dup = p.instances()[0];
        p.add(dup);
        assert_eq!(
            OverlayGraph::build(&net, &p, &compat).unwrap_err(),
            OverlayBuildError::DuplicateInstance(dup)
        );
    }

    /// Checked before any host is routed from: `node_of` on the bogus host
    /// would panic, not return.
    #[test]
    fn unknown_host_is_rejected() {
        let (net, mut p, compat) = line_world();
        let bogus = ServiceInstance::new(sid(0), HostId::new(42));
        p.add(bogus);
        assert_eq!(
            OverlayGraph::build(&net, &p, &compat).unwrap_err(),
            OverlayBuildError::UnknownHost(bogus)
        );
    }

    #[test]
    fn max_links_per_service_keeps_the_best() {
        let (net, p, compat) = line_world();
        let opts = OverlayOptions {
            max_links_per_service: Some(1),
        };
        let ov = OverlayGraph::build_with(&net, &p, &compat, &opts).unwrap();
        // s0 keeps only its best s1 link (the closer instance on h1: bw 10).
        let s0 = ov.instances_of(sid(0))[0];
        let out: Vec<_> = ov.graph().out_edges(s0).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(*out[0].weight, q(10, 1));
    }

    /// `nets` side by side, host numbers offset so each keeps its own
    /// component, plus `extra` links between hosts of the result.
    fn side_by_side(nets: &[UnderlyingNetwork], extra: &[(u32, u32, Qos)]) -> UnderlyingNetwork {
        let mut b = UnderlyingNetwork::builder();
        for net in nets {
            let hosts = b.add_hosts(net.host_count());
            for e in net.graph().edges().filter(|e| e.from < e.to) {
                b.link(hosts[e.from.index()], hosts[e.to.index()], *e.weight);
            }
        }
        for &(a, c, qos) in extra {
            b.link(HostId::new(a), HostId::new(c), qos);
        }
        b.build()
    }

    /// Up to `per_service` instances of each of `services` services on
    /// hosts drawn from `spots`, so several services share a host.
    fn crowded(
        spots: &[HostId],
        services: u32,
        per_service: usize,
        rng: &mut impl Rng,
    ) -> Placement {
        let mut seen = HashSet::new();
        (0..services)
            .flat_map(|s| (0..per_service).map(move |_| s))
            .map(|s| ServiceInstance::new(sid(s), spots[rng.gen_range(0..spots.len())]))
            .filter(|&inst| seen.insert(inst))
            .collect()
    }

    proptest::proptest! {
        /// The oracle for every overlay: pricing only the pairs of hosts
        /// that carry an instance links exactly what the full link-state
        /// table would — same edges, same order, same QoS — with the
        /// per-service cap off, at 1 and at 2. The networks are Waxman or
        /// uniform with two bandwidths and three latencies, so widest
        /// values and forest links tie everywhere; half are two
        /// components; every one carries a zero-bandwidth link (across
        /// the components, if two) and a doubled link between one host
        /// pair. Instances crowd onto a few hosts, so co-located ones are
        /// common.
        #[test]
        fn build_prices_every_link_as_the_full_table_does(
            shape in 0u32..4,
            hosts in 2usize..24,
            seed in proptest::prelude::any::<u64>(),
            spots in 1usize..9,
        ) {
            use crate::topology::{random_connected, waxman, LinkProfile};
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let narrow = LinkProfile::new(1..=2, 1..=3);
            let part = |rng: &mut StdRng| {
                if shape % 2 == 0 {
                    waxman(hosts, 0.3, 0.3, &narrow, rng)
                } else {
                    random_connected(hosts, 3.0, &narrow, rng)
                }
            };
            // Shapes 2 and 3 are two components.
            let mut parts = vec![part(&mut rng)];
            if shape >= 2 {
                parts.push(part(&mut rng));
            }
            let n = (hosts * parts.len()) as u32;
            let pick = |rng: &mut StdRng| {
                let a = rng.gen_range(0..hosts as u32);
                (a, (a + 1 + rng.gen_range(0..hosts as u32 - 1)) % hosts as u32)
            };
            // The zero-bandwidth link joins the two components, if there
            // are two: it must not join them for routing.
            let (za, zb) = pick(&mut rng);
            let zb = zb + n - hosts as u32;
            let (da, db) = pick(&mut rng);
            let net = side_by_side(
                &parts,
                &[(za, zb, q(0, 1)), (da, db, q(2, 5)), (da, db, q(1, 1))],
            );
            let spots: Vec<HostId> = (0..spots).map(|_| HostId::new(rng.gen_range(0..n))).collect();
            let placement = crowded(&spots, 5, 3, &mut rng);
            let compat = Compatibility::universal();

            let table = net.all_pairs();
            for cap in [None, Some(1), Some(2)] {
                let options = OverlayOptions {
                    max_links_per_service: cap,
                };
                let built = OverlayGraph::build_with(&net, &placement, &compat, &options).unwrap();
                let reference = OverlayGraph::assemble(&placement, &compat, &options, |a, b| {
                    table.qos(net.node_of(a), net.node_of(b))
                });
                let links = |ov: &OverlayGraph| -> Vec<(NodeIx, NodeIx, Qos)> {
                    ov.graph()
                        .edges()
                        .map(|e| (e.from, e.to, *e.weight))
                        .collect()
                };
                proptest::prop_assert_eq!(links(&built), links(&reference), "cap {:?}", cap);
            }
        }
    }

    /// The oracle's helpers build the worlds it claims: co-located
    /// instances get an identity link, and two components bridged by a
    /// zero-bandwidth link stay apart.
    #[test]
    fn the_oracle_meets_colocation_and_components() {
        use crate::topology::{waxman, LinkProfile};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let parts = [
            waxman(12, 0.3, 0.3, &LinkProfile::new(1..=2, 1..=3), &mut rng),
            waxman(12, 0.3, 0.3, &LinkProfile::new(1..=2, 1..=3), &mut rng),
        ];
        let net = side_by_side(&parts, &[(0, 12, q(0, 1))]);
        let spots = [HostId::new(0), HostId::new(3), HostId::new(13)];
        let placement = crowded(&spots, 5, 3, &mut rng);
        let built = OverlayGraph::build(&net, &placement, &Compatibility::universal()).unwrap();
        assert!(built.graph().edges().any(|e| *e.weight == Qos::IDENTITY));
        let n = built.instance_count();
        assert!(
            built.link_count() < n * (n - 1),
            "no instance pair across components is linked"
        );
        assert_eq!(net.qos_between(HostId::new(0), HostId::new(13)), None);
    }

    #[test]
    fn node_of_round_trips() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        for &inst in p.instances() {
            let n = ov.node_of(inst).unwrap();
            assert_eq!(ov.instance(n), inst);
        }
        assert_eq!(
            ov.node_of(ServiceInstance::new(sid(5), HostId::new(0))),
            None
        );
    }

    #[test]
    fn local_view_restricts_and_translates() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let s0 = ov.instances_of(sid(0))[0];
        let view = ov.local_view(s0, 1);
        // Within 1 overlay hop of s0: s0 itself plus both s1 instances.
        assert_eq!(view.overlay.instance_count(), 3);
        assert_eq!(view.to_parent(view.center), s0);
        for local in view.overlay.graph().node_ids() {
            let parent = view.to_parent(local);
            assert_eq!(view.from_parent(parent), Some(local));
            assert_eq!(view.overlay.instance(local), ov.instance(parent));
        }
        // The s2 instance is 2 hops away and must be invisible.
        let s2 = ov.instances_of(sid(2))[0];
        assert_eq!(view.from_parent(s2), None);
        // A 2-hop view sees everything in this small overlay.
        assert_eq!(ov.local_view(s0, 2).overlay.instance_count(), 4);
    }

    #[test]
    fn random_placement_respects_per_service_distinct_hosts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let net = crate::topology::ring(6, q(5, 1));
        let services = [sid(0), sid(1), sid(2)];
        let mut rng = StdRng::seed_from_u64(11);
        let p = Placement::random(&net, &services, 3, &mut rng);
        assert_eq!(p.len(), 9);
        for &s in &services {
            let hosts: HashSet<HostId> = p
                .instances()
                .iter()
                .filter(|i| i.service == s)
                .map(|i| i.host)
                .collect();
            assert_eq!(hosts.len(), 3, "hosts must be distinct per service");
        }
    }

    #[test]
    fn to_dot_renders_instances_and_links() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let dot = ov.to_dot();
        assert!(dot.contains("digraph overlay"));
        assert!(dot.contains("s0/h0"));
        assert!(dot.contains("kbps"));
    }

    #[test]
    fn without_instances_removes_nodes_and_links() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let failed = ServiceInstance::new(sid(1), HostId::new(1));
        let degraded = ov.without_instances(&[failed]);
        assert_eq!(degraded.instance_count(), 3);
        assert_eq!(degraded.instances_of(sid(1)).len(), 1);
        assert!(degraded.node_of(failed).is_none());
        // s0→s1@h2 and s1@h2→s2 survive.
        assert_eq!(degraded.link_count(), 2);
        // Removing nothing is the identity on counts.
        let same = ov.without_instances(&[]);
        assert_eq!(same.instance_count(), ov.instance_count());
        assert_eq!(same.link_count(), ov.link_count());
    }

    /// `true` if `a` and `b` read their adjacency from the same memory: a
    /// graph's clones share its topology, and only a copy has its own.
    fn shares_topology(a: &OverlayGraph, b: &OverlayGraph) -> bool {
        let (a, b) = (a.graph(), b.graph());
        a.edge_count() > 0
            && a.node_ids().all(|n| {
                std::ptr::eq(a.out_edge_ids(n), b.out_edge_ids(n))
                    && std::ptr::eq(a.in_edge_ids(n), b.in_edge_ids(n))
            })
    }

    #[test]
    fn with_failed_tombstones_the_instance_and_cuts_its_links() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let failed = ServiceInstance::new(sid(1), HostId::new(1));
        let dead = ov.node_of(failed).unwrap();
        let (next, cut) = ov.with_failed(&[failed]);
        // A tombstone is a weight change: the adjacency is the predecessor's.
        assert!(shares_topology(&ov, &next));
        assert!(!shares_topology(&ov, &ov.without_instances(&[])));
        assert_eq!(next.instance_count(), 3);
        assert_eq!(next.instances_of(sid(1)).len(), 1);
        assert_eq!(next.node_of(failed), None);
        assert!(!next.is_live(dead) && ov.is_live(dead));
        // Nothing is renumbered: every survivor keeps its node.
        for &inst in p.instances().iter().filter(|&&i| i != failed) {
            assert_eq!(next.node_of(inst), ov.node_of(inst));
        }
        // s0→s1@h1 and s1@h1→s2 drop to zero bandwidth at their latency;
        // the predecessor keeps them.
        assert_eq!(cut.len(), 2);
        for c in &cut {
            let (from, to) = next.graph().edge_endpoints(c.edge);
            assert!(from == dead || to == dead);
            assert_eq!(c.new, Qos::new(Bandwidth::ZERO, c.old.latency));
            assert_eq!(*next.graph().edge(c.edge), c.new);
            assert_eq!(*ov.graph().edge(c.edge), c.old);
        }
        // Failing it again changes nothing; failing the service's last
        // instance takes the service away.
        let (again, none) = next.with_failed(&[failed]);
        assert!(none.is_empty());
        assert_eq!(again.instance_count(), 3);
        let other = ServiceInstance::new(sid(1), HostId::new(2));
        let (gone, _) = next.with_failed(&[other]);
        assert_eq!(gone.services(), vec![sid(0), sid(2)]);
        assert!(gone.instances_of(sid(1)).is_empty());
    }

    /// A local view over a tombstone is the view over the rebuild: the
    /// failed instance is neither offered nor relayed through.
    #[test]
    fn local_view_neither_offers_nor_relays_through_a_tombstone() {
        let (net, p, compat) = line_world();
        let failed = ServiceInstance::new(sid(1), HostId::new(1));
        let seen = |ov: &OverlayGraph, view: &LocalView| -> Vec<ServiceInstance> {
            let g = view.overlay.graph();
            g.node_ids()
                .map(|n| ov.instance(view.to_parent(n)))
                .collect()
        };
        for cap in [None, Some(1)] {
            let options = OverlayOptions {
                max_links_per_service: cap,
            };
            let ov = OverlayGraph::build_with(&net, &p, &compat, &options).unwrap();
            let (tomb, _) = ov.with_failed(&[failed]);
            let rebuilt = ov.without_instances(&[failed]);
            for &centre in p.instances().iter().filter(|&&i| i != failed) {
                for hops in 0..4 {
                    let t = tomb.local_view(tomb.node_of(centre).unwrap(), hops);
                    let r = rebuilt.local_view(rebuilt.node_of(centre).unwrap(), hops);
                    let at = format!("cap {cap:?}: {centre}, {hops} hops");
                    assert_eq!(seen(&tomb, &t), seen(&rebuilt, &r), "{at}");
                    assert_eq!(t.overlay.link_count(), r.overlay.link_count(), "{at}");
                    assert_eq!(t.overlay.services(), r.overlay.services(), "{at}");
                }
            }
        }
        // Capped at one link per service, s0 links only to the failed s1:
        // two hops from s2 reached s0 through it, and no longer do.
        let options = OverlayOptions {
            max_links_per_service: Some(1),
        };
        let ov = OverlayGraph::build_with(&net, &p, &compat, &options).unwrap();
        let s2 = ov
            .node_of(ServiceInstance::new(sid(2), HostId::new(3)))
            .unwrap();
        let (tomb, _) = ov.with_failed(&[failed]);
        assert_eq!(ov.local_view(s2, 2).overlay.instance_count(), 4);
        assert_eq!(tomb.local_view(s2, 2).overlay.instance_count(), 2);
    }

    #[test]
    fn update_link_qos_reports_the_change_and_feeds_patch() {
        let (net, p, compat) = line_world();
        let mut ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let before = ov.all_pairs();
        let s0 = ov.instances_of(sid(0))[0];
        let near = ov
            .instances_of(sid(1))
            .iter()
            .copied()
            .find(|&n| ov.instance(n).host == HostId::new(1))
            .unwrap();
        let change = ov.update_link_qos(s0, near, q(3, 7)).unwrap();
        assert_eq!(change.old, q(10, 1));
        assert_eq!(change.new, q(3, 7));
        assert_eq!(*ov.graph().edge(change.edge), q(3, 7));
        let (ap, stats) = before.patched_with(ov.graph(), &[change], 0);
        assert!(stats.trees_recomputed < stats.trees_total);
        let rebuilt = ov.all_pairs();
        for u in ov.graph().node_ids() {
            for v in ov.graph().node_ids() {
                assert_eq!(ap.qos(u, v), rebuilt.qos(u, v));
            }
        }
        assert_eq!(ov.update_link_qos(near, s0, q(1, 1)), None);
    }

    #[test]
    fn with_link_qos_leaves_the_predecessor_untouched() {
        let (net, p, compat) = line_world();
        let ov = OverlayGraph::build(&net, &p, &compat).unwrap();
        let s0 = ov.instances_of(sid(0))[0];
        let near = ov
            .instances_of(sid(1))
            .iter()
            .copied()
            .find(|&n| ov.instance(n).host == HostId::new(1))
            .unwrap();
        let (next, change) = ov.with_link_qos(s0, near, q(3, 7)).unwrap();
        assert_eq!(change.old, q(10, 1));
        assert_eq!(change.new, q(3, 7));
        // The successor copies weights, not the adjacency.
        assert!(shares_topology(&ov, &next));
        // The predecessor still carries the old weight, the successor the new.
        let e_old = ov.graph().find_edge(s0, near).unwrap();
        assert_eq!(*ov.graph().edge(e_old), q(10, 1));
        let e_new = next.graph().find_edge(s0, near).unwrap();
        assert_eq!(*next.graph().edge(e_new), q(3, 7));
        // No reverse link: the copy-on-write entry point reports it without
        // allocating a successor.
        assert!(ov.with_link_qos(near, s0, q(1, 1)).is_none());
    }

    #[test]
    fn compatibility_semantics() {
        let c = Compatibility::universal();
        assert!(c.allows(sid(0), sid(1)));
        assert!(!c.allows(sid(1), sid(1)));
        let mut c = Compatibility::from_pairs([(sid(0), sid(1))]);
        assert!(c.allows(sid(0), sid(1)));
        assert!(!c.allows(sid(1), sid(0)));
        c.allow(sid(1), sid(0));
        assert!(c.allows(sid(1), sid(0)));
    }

    #[test]
    fn placement_collects_from_iterator() {
        let p: Placement = [
            ServiceInstance::new(sid(0), HostId::new(0)),
            ServiceInstance::new(sid(1), HostId::new(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Placement::new().is_empty());
    }
}
