//! The underlying (physical) network.

use sflow_graph::{algo, DiGraph, EdgeIx, NodeIx};
use sflow_routing::shortest_widest::{self, settle_csr};
use sflow_routing::{AllPairs, DijkstraScratch, Qos, QosCsr, WidestForest};

use crate::HostId;

/// The physical network the service overlay is layered on: an undirected
/// graph of hosts whose links carry [`Qos`] weights.
///
/// Internally each undirected link is a pair of antiparallel directed edges
/// with identical QoS, so all the directed routing machinery applies
/// unchanged. Host `h` maps to graph node index `h` (a dense identity
/// mapping maintained by the builder).
///
/// That symmetry is an invariant: the graph is private, only the builder's
/// [`UnderlyingNetworkBuilder::link`] adds to it, and debug builds check it
/// in [`UnderlyingNetworkBuilder::build`]. [`UnderlyingNetwork::pair_qos`]
/// stands on it twice: a widest bandwidth is read off one maximum spanning
/// forest, and the answer from `a` to `b` is the answer from `b` to `a`.
#[derive(Clone, Debug)]
pub struct UnderlyingNetwork {
    graph: DiGraph<HostId, Qos>,
    links: usize,
}

impl UnderlyingNetwork {
    /// Starts building a network.
    pub fn builder() -> UnderlyingNetworkBuilder {
        UnderlyingNetworkBuilder::new()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// The graph node backing `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` was not created by this network's builder.
    pub fn node_of(&self, host: HostId) -> NodeIx {
        let n = NodeIx::from_index(host.as_u32() as usize);
        assert!(self.graph.contains_node(n), "unknown host {host}");
        n
    }

    /// The host backing graph node `node`.
    pub fn host_of(&self, node: NodeIx) -> HostId {
        *self.graph.node(node)
    }

    /// Iterates over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.graph.nodes().map(|(_, &h)| h)
    }

    /// Returns `true` if `host` is part of this network.
    pub fn contains_host(&self, host: HostId) -> bool {
        (host.as_u32() as usize) < self.graph.node_count()
    }

    /// The underlying directed graph (two antiparallel edges per link).
    pub fn graph(&self) -> &DiGraph<HostId, Qos> {
        &self.graph
    }

    /// `true` if every host can reach every other host.
    pub fn is_connected(&self) -> bool {
        match self.graph.node_ids().next() {
            None => true,
            Some(first) => algo::descendants(&self.graph, first).len() == self.graph.node_count(),
        }
    }

    /// Exact all-pairs shortest-widest paths between hosts — the link-state
    /// table every service node is assumed to have ("based on link states" —
    /// Sec. 2.2).
    pub fn all_pairs(&self) -> AllPairs {
        shortest_widest::all_pairs(&self.graph)
    }

    /// The shortest-widest QoS between two hosts (`None` if disconnected):
    /// [`UnderlyingNetwork::pair_qos`] of the two.
    pub fn qos_between(&self, a: HostId, b: HostId) -> Option<Qos> {
        self.pair_qos(&[a, b]).qos(0, 1)
    }

    /// The shortest-widest QoS between every two of `hosts` — what the
    /// rows of [`UnderlyingNetwork::all_pairs`] say about them, without
    /// the rows.
    ///
    /// One maximum spanning forest ([`WidestForest`]) gives every pair's
    /// widest bandwidth, one `O(V)` walk per host. Then host `i` runs one
    /// sweep ([`settle_csr`]) that settles only the hosts after it, each at
    /// its widest bandwidth, and stops when the last of them settles; its
    /// answer to `j` is also `j`'s to `i`, the network being symmetric.
    ///
    /// # Panics
    ///
    /// Panics if a host is not part of this network.
    pub fn pair_qos(&self, hosts: &[HostId]) -> PairQos {
        let nodes: Vec<NodeIx> = hosts.iter().map(|&h| self.node_of(h)).collect();
        let k = nodes.len();
        let mut qos = vec![None; k * k];
        let csr = QosCsr::new(&self.graph);
        let forest = WidestForest::new(&csr);
        let mut widest = Vec::new();
        let mut want = vec![None; self.host_count()];
        let mut scratch = DijkstraScratch::new();
        for (i, &from) in nodes.iter().enumerate() {
            qos[i * k + i] = Some(Qos::IDENTITY);
            let after = &nodes[i + 1..];
            if after.is_empty() {
                break;
            }
            forest.bottlenecks_from(from, &mut widest);
            for &to in after {
                if to != from {
                    want[to.index()] = widest[to.index()];
                }
            }
            let settled = settle_csr(&csr, from, &want, &mut scratch);
            for (j, &to) in (i + 1..).zip(after) {
                want[to.index()] = None;
                let answer = settled[to.index()];
                qos[i * k + j] = answer;
                qos[j * k + i] = answer;
            }
        }
        PairQos { hosts: k, qos }
    }
}

/// The shortest-widest QoS between every two hosts of a list, from
/// [`UnderlyingNetwork::pair_qos`]: a `k × k` table indexed by position in
/// that list. A host's QoS to itself is [`Qos::IDENTITY`].
#[derive(Clone, Debug)]
pub struct PairQos {
    hosts: usize,
    qos: Vec<Option<Qos>>,
}

impl PairQos {
    /// The QoS from the `i`-th host of the list to the `j`-th, `None` if
    /// no path joins them.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below the list's length.
    pub fn qos(&self, i: usize, j: usize) -> Option<Qos> {
        assert!(
            i < self.hosts && j < self.hosts,
            "host {i} or {j} not in the list"
        );
        self.qos[i * self.hosts + j]
    }
}

/// Incremental builder for [`UnderlyingNetwork`].
///
/// # Example
///
/// ```
/// use sflow_net::UnderlyingNetwork;
/// use sflow_routing::{Bandwidth, Latency, Qos};
///
/// let mut b = UnderlyingNetwork::builder();
/// let hosts = b.add_hosts(3);
/// let q = Qos::new(Bandwidth::kbps(10), Latency::from_micros(1));
/// b.link(hosts[0], hosts[1], q).link(hosts[1], hosts[2], q);
/// let net = b.build();
/// assert!(net.is_connected());
/// assert_eq!(net.link_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct UnderlyingNetworkBuilder {
    graph: DiGraph<HostId, Qos>,
    links: usize,
}

impl UnderlyingNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one host and returns its identifier.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId::new(self.graph.node_count() as u32);
        self.graph.add_node(id);
        id
    }

    /// Adds `n` hosts and returns their identifiers.
    pub fn add_hosts(&mut self, n: usize) -> Vec<HostId> {
        (0..n).map(|_| self.add_host()).collect()
    }

    /// Number of hosts added so far.
    pub fn host_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Adds an undirected link between `a` and `b` with QoS `qos`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`a == b`) or unknown hosts.
    pub fn link(&mut self, a: HostId, b: HostId, qos: Qos) -> &mut Self {
        assert_ne!(a, b, "self-loop link on {a}");
        let na = NodeIx::from_index(a.as_u32() as usize);
        let nb = NodeIx::from_index(b.as_u32() as usize);
        self.graph.add_edge_undirected(na, nb, qos);
        self.links += 1;
        self
    }

    /// Returns `true` if a link between `a` and `b` already exists.
    pub fn has_link(&self, a: HostId, b: HostId) -> bool {
        let na = NodeIx::from_index(a.as_u32() as usize);
        let nb = NodeIx::from_index(b.as_u32() as usize);
        self.graph.contains_edge(na, nb)
    }

    /// Finalises the network.
    pub fn build(self) -> UnderlyingNetwork {
        debug_assert!(
            (0..self.links).all(|link| {
                let (a, b, q) = self.graph.edge_parts(EdgeIx::from_index(2 * link));
                let (c, d, r) = self.graph.edge_parts(EdgeIx::from_index(2 * link + 1));
                (a, b, q) == (d, c, r)
            }) && self.graph.edge_count() == 2 * self.links,
            "every link is a pair of antiparallel edges with one QoS"
        );
        UnderlyingNetwork {
            graph: self.graph,
            links: self.links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_routing::{Bandwidth, Latency};

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    #[test]
    fn builder_produces_symmetric_links() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(2);
        b.link(h[0], h[1], q(10, 5));
        let net = b.build();
        assert_eq!(net.host_count(), 2);
        assert_eq!(net.link_count(), 1);
        assert_eq!(net.graph().edge_count(), 2);
        assert_eq!(net.qos_between(h[0], h[1]), Some(q(10, 5)));
        assert_eq!(net.qos_between(h[1], h[0]), Some(q(10, 5)));
    }

    #[test]
    fn disconnected_network_is_detected() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(3);
        b.link(h[0], h[1], q(1, 1));
        let net = b.build();
        assert!(!net.is_connected());
        assert_eq!(net.qos_between(h[0], h[2]), None);
    }

    #[test]
    fn empty_and_singleton_networks_are_connected() {
        assert!(UnderlyingNetwork::builder().build().is_connected());
        let mut b = UnderlyingNetwork::builder();
        b.add_host();
        assert!(b.build().is_connected());
    }

    #[test]
    fn multi_hop_qos_composes() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(3);
        b.link(h[0], h[1], q(10, 5)).link(h[1], h[2], q(4, 7));
        let net = b.build();
        assert_eq!(net.qos_between(h[0], h[2]), Some(q(4, 12)));
    }

    #[test]
    fn host_node_round_trip() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(4);
        b.link(h[0], h[3], q(1, 1));
        let net = b.build();
        for host in net.hosts() {
            assert_eq!(net.host_of(net.node_of(host)), host);
            assert!(net.contains_host(host));
        }
        assert!(!net.contains_host(HostId::new(99)));
    }

    #[test]
    fn has_link_sees_both_orientations() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(2);
        assert!(!b.has_link(h[0], h[1]));
        b.link(h[0], h[1], q(1, 1));
        assert!(b.has_link(h[0], h[1]));
        assert!(b.has_link(h[1], h[0]));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_host();
        b.link(h, h, q(1, 1));
    }
}
