//! The core adjacency-list directed multigraph.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Handle to a node stored in a [`DiGraph`].
///
/// Handles are plain indices: they are `Copy`, cheap to store in other data
/// structures and remain valid for the lifetime of the graph they came from.
/// Using a handle from one graph to index a different graph is a logic error
/// and may panic or return unrelated data.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeIx(pub(crate) u32);

/// Handle to an edge stored in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeIx(pub(crate) u32);

impl NodeIx {
    /// Returns the raw index of this node within its graph's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a handle from a raw index.
    ///
    /// Prefer the handles returned by [`DiGraph::add_node`]; this constructor
    /// exists for compact serialisation and for tests.
    pub fn from_index(index: usize) -> Self {
        NodeIx(index as u32)
    }
}

impl EdgeIx {
    /// Returns the raw index of this edge within its graph's edge arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a handle from a raw index.
    pub fn from_index(index: usize) -> Self {
        EdgeIx(index as u32)
    }
}

impl fmt::Debug for NodeIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Who is joined to whom: what every clone of a graph shares.
#[derive(Clone, Debug, Default)]
struct Topology {
    /// Per node, its outgoing edge handles in insertion order.
    out: Vec<Vec<EdgeIx>>,
    /// Per node, its incoming edge handles in insertion order.
    inc: Vec<Vec<EdgeIx>>,
    /// Per edge, its `(from, to)` endpoints.
    ends: Vec<(NodeIx, NodeIx)>,
}

/// A borrowed view of one edge: endpoints, handle and weight.
#[derive(Debug, PartialEq, Eq)]
pub struct EdgeRef<'a, E> {
    /// Handle of the edge.
    pub id: EdgeIx,
    /// Tail (origin) of the edge.
    pub from: NodeIx,
    /// Head (target) of the edge.
    pub to: NodeIx,
    /// The edge weight.
    pub weight: &'a E,
}

// Manual impls: `EdgeRef` only holds a shared reference, so it is `Copy`
// regardless of whether `E` itself is.
impl<E> Clone for EdgeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for EdgeRef<'_, E> {}

/// An index-based adjacency-list directed multigraph.
///
/// `N` is the node weight type and `E` the edge weight type. Parallel edges
/// and self-loops are permitted at this layer; higher layers (e.g. service
/// requirements) impose their own structural validation.
///
/// The topology — each node's out- and in-edge lists and each edge's
/// endpoints — sits behind one `Arc`, and the node and edge weights are
/// the graph's own. So a clone copies the weights and bumps a refcount,
/// [`DiGraph::edge_mut`] and [`DiGraph::node_mut`] touch weights only, and
/// [`DiGraph::add_node`] and [`DiGraph::add_edge`] copy the topology
/// first if a clone still shares it: a graph whose weights change from
/// epoch to epoch costs its weights per epoch, not its adjacency.
///
/// # Example
///
/// ```
/// use sflow_graph::DiGraph;
///
/// let mut g: DiGraph<(), f64> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let e = g.add_edge(a, b, 2.5);
/// assert_eq!(g.edge_endpoints(e), (a, b));
/// assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Clone)]
pub struct DiGraph<N, E> {
    topology: Arc<Topology>,
    nodes: Vec<N>,
    edges: Vec<E>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: fmt::Debug, E: fmt::Debug> fmt::Debug for DiGraph<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("DiGraph");
        s.field("nodes", &self.node_count());
        s.field("edges", &self.edge_count());
        s.finish()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            topology: Arc::default(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            topology: Arc::new(Topology {
                out: Vec::with_capacity(nodes),
                inc: Vec::with_capacity(nodes),
                ends: Vec::with_capacity(edges),
            }),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node carrying `weight` and returns its handle.
    pub fn add_node(&mut self, weight: N) -> NodeIx {
        let ix = NodeIx(self.nodes.len() as u32);
        let topology = Arc::make_mut(&mut self.topology);
        topology.out.push(Vec::new());
        topology.inc.push(Vec::new());
        self.nodes.push(weight);
        ix
    }

    /// Adds a directed edge `from → to` carrying `weight` and returns its
    /// handle. Parallel edges are allowed.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, from: NodeIx, to: NodeIx, weight: E) -> EdgeIx {
        assert!(
            from.index() < self.nodes.len() && to.index() < self.nodes.len(),
            "edge endpoints must be nodes of this graph"
        );
        let ix = EdgeIx(self.edges.len() as u32);
        let topology = Arc::make_mut(&mut self.topology);
        topology.ends.push((from, to));
        topology.out[from.index()].push(ix);
        topology.inc[to.index()].push(ix);
        self.edges.push(weight);
        ix
    }

    /// Returns the weight of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn node(&self, node: NodeIx) -> &N {
        &self.nodes[node.index()]
    }

    /// Returns a mutable reference to the weight of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn node_mut(&mut self, node: NodeIx) -> &mut N {
        &mut self.nodes[node.index()]
    }

    /// Returns the weight of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn edge(&self, edge: EdgeIx) -> &E {
        &self.edges[edge.index()]
    }

    /// Returns a mutable reference to the weight of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn edge_mut(&mut self, edge: EdgeIx) -> &mut E {
        &mut self.edges[edge.index()]
    }

    /// Returns the `(from, to)` endpoints of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn edge_endpoints(&self, edge: EdgeIx) -> (NodeIx, NodeIx) {
        self.topology.ends[edge.index()]
    }

    /// Iterates over all node handles in insertion order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeIx> + Clone + '_ {
        (0..self.nodes.len() as u32).map(NodeIx)
    }

    /// Iterates over `(handle, weight)` pairs for all nodes.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = (NodeIx, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeIx(i as u32), w))
    }

    /// Iterates over all edges as [`EdgeRef`]s in insertion order.
    pub fn edges(&self) -> impl DoubleEndedIterator<Item = EdgeRef<'_, E>> + '_ {
        (self.topology.ends.iter().zip(&self.edges))
            .enumerate()
            .map(|(i, (&(from, to), weight))| EdgeRef {
                id: EdgeIx(i as u32),
                from,
                to,
                weight,
            })
    }

    /// The [`EdgeRef`] of `edge`.
    fn edge_ref(&self, edge: EdgeIx) -> EdgeRef<'_, E> {
        let (from, to, weight) = self.edge_parts(edge);
        EdgeRef {
            id: edge,
            from,
            to,
            weight,
        }
    }

    /// Iterates over the outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeIx) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.out_edge_ids(node).iter().map(|&e| self.edge_ref(e))
    }

    /// The outgoing edge handles of `node`, as a slice.
    ///
    /// This is the scratch-friendly form of [`DiGraph::out_edges`] for hot
    /// loops: the borrow of the adjacency list is independent of the edge
    /// arena, so a caller can hold the slice while resolving each handle
    /// with [`DiGraph::edge_parts`] without building an iterator adaptor
    /// per visit.
    pub fn out_edge_ids(&self, node: NodeIx) -> &[EdgeIx] {
        &self.topology.out[node.index()]
    }

    /// The incoming edge handles of `node`, as a slice (see
    /// [`DiGraph::out_edge_ids`]).
    pub fn in_edge_ids(&self, node: NodeIx) -> &[EdgeIx] {
        &self.topology.inc[node.index()]
    }

    /// Destructures `edge` into `(from, to, &weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of bounds.
    pub fn edge_parts(&self, edge: EdgeIx) -> (NodeIx, NodeIx, &E) {
        let (from, to) = self.topology.ends[edge.index()];
        (from, to, &self.edges[edge.index()])
    }

    /// Iterates over the incoming edges of `node`.
    pub fn in_edges(&self, node: NodeIx) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.in_edge_ids(node).iter().map(|&e| self.edge_ref(e))
    }

    /// Iterates over the direct successors of `node` (heads of its outgoing
    /// edges). A node reached by parallel edges is yielded once per edge.
    pub fn successors(&self, node: NodeIx) -> impl Iterator<Item = NodeIx> + '_ {
        self.out_edges(node).map(|e| e.to)
    }

    /// Iterates over the direct predecessors of `node` (tails of its incoming
    /// edges).
    pub fn predecessors(&self, node: NodeIx) -> impl Iterator<Item = NodeIx> + '_ {
        self.in_edges(node).map(|e| e.from)
    }

    /// Number of outgoing edges of `node`.
    pub fn out_degree(&self, node: NodeIx) -> usize {
        self.out_edge_ids(node).len()
    }

    /// Number of incoming edges of `node`.
    pub fn in_degree(&self, node: NodeIx) -> usize {
        self.in_edge_ids(node).len()
    }

    /// Returns the handle of the first edge `from → to`, if any.
    pub fn find_edge(&self, from: NodeIx, to: NodeIx) -> Option<EdgeIx> {
        self.out_edge_ids(from)
            .iter()
            .copied()
            .find(|&e| self.topology.ends[e.index()].1 == to)
    }

    /// Returns `true` if at least one edge `from → to` exists.
    pub fn contains_edge(&self, from: NodeIx, to: NodeIx) -> bool {
        self.find_edge(from, to).is_some()
    }

    /// Returns `true` if `node` is a valid handle for this graph.
    pub fn contains_node(&self, node: NodeIx) -> bool {
        node.index() < self.nodes.len()
    }

    /// Builds a new graph with the same topology — shared, not copied — but
    /// with every node and edge weight transformed by the given closures.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeIx, &N) -> N2,
        mut edge_map: impl FnMut(EdgeIx, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            topology: Arc::clone(&self.topology),
            nodes: self.nodes().map(|(i, w)| node_map(i, w)).collect(),
            edges: self.edges().map(|e| edge_map(e.id, e.weight)).collect(),
        }
    }
}

impl<N, E: Clone> DiGraph<N, E> {
    /// Adds a pair of antiparallel edges carrying the same weight, returning
    /// both handles as `(forward, backward)`.
    ///
    /// This is how the underlying (physical) network — an undirected graph —
    /// is represented on top of the directed substrate.
    pub fn add_edge_undirected(&mut self, a: NodeIx, b: NodeIx, weight: E) -> (EdgeIx, EdgeIx) {
        let fwd = self.add_edge(a, b, weight.clone());
        let bwd = self.add_edge(b, a, weight);
        (fwd, bwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeIx; 4]) {
        let mut g = DiGraph::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(s, a, 1);
        g.add_edge(s, b, 2);
        g.add_edge(a, t, 3);
        g.add_edge(b, t, 4);
        (g, [s, a, b, t])
    }

    #[test]
    fn counts_and_weights() {
        let (g, [s, _, _, t]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(s), "s");
        assert_eq!(*g.node(t), "t");
        assert!(!g.is_empty());
        assert!(DiGraph::<(), ()>::new().is_empty());
    }

    #[test]
    fn adjacency_is_ordered_by_insertion() {
        let (g, [s, a, b, t]) = diamond();
        assert_eq!(g.successors(s).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(g.predecessors(t).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.in_degree(s), 0);
        assert_eq!(g.in_degree(t), 2);
    }

    #[test]
    fn find_edge_returns_first_parallel_edge() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 1);
        let _e2 = g.add_edge(a, b, 2);
        assert_eq!(g.find_edge(a, b), Some(e1));
        assert_eq!(g.find_edge(b, a), None);
        assert!(g.contains_edge(a, b));
        assert!(!g.contains_edge(b, a));
    }

    #[test]
    fn slice_adjacency_matches_iterators() {
        let (g, [s, a, b, t]) = diamond();
        for n in [s, a, b, t] {
            let via_iter: Vec<EdgeIx> = g.out_edges(n).map(|e| e.id).collect();
            assert_eq!(g.out_edge_ids(n), via_iter.as_slice());
            let via_iter: Vec<EdgeIx> = g.in_edges(n).map(|e| e.id).collect();
            assert_eq!(g.in_edge_ids(n), via_iter.as_slice());
        }
        let e = g.find_edge(s, a).unwrap();
        let (from, to, w) = g.edge_parts(e);
        assert_eq!((from, to), (s, a));
        assert_eq!(*w, 1);
    }

    #[test]
    fn edge_endpoints_and_refs() {
        let (g, [s, a, ..]) = diamond();
        let e = g.find_edge(s, a).unwrap();
        assert_eq!(g.edge_endpoints(e), (s, a));
        assert_eq!(*g.edge(e), 1);
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].from, s);
        assert_eq!(all[0].to, a);
        assert_eq!(*all[0].weight, 1);
    }

    #[test]
    fn node_mut_and_edge_mut() {
        let (mut g, [s, ..]) = diamond();
        *g.node_mut(s) = "source";
        assert_eq!(*g.node(s), "source");
        let e = g.edges().next().unwrap().id;
        *g.edge_mut(e) = 99;
        assert_eq!(*g.edge(e), 99);
    }

    #[test]
    fn a_clone_shares_the_topology_until_it_grows() {
        let (g, [s, a, b, t]) = diamond();
        let mut c = g.clone();
        assert!(Arc::ptr_eq(&g.topology, &c.topology));
        // Weights are each graph's own.
        let e = g.find_edge(s, a).unwrap();
        *c.edge_mut(e) = 99;
        *c.node_mut(s) = "source";
        assert_eq!((*g.edge(e), *g.node(s)), (1, "s"));
        assert_eq!((*c.edge(e), *c.node(s)), (99, "source"));
        assert!(Arc::ptr_eq(&g.topology, &c.topology));
        // Growing a clone copies the topology and leaves the original's.
        let u = c.add_node("u");
        c.add_edge(t, u, 5);
        c.add_edge(s, u, 6);
        assert!(!Arc::ptr_eq(&g.topology, &c.topology));
        assert_eq!((g.node_count(), g.edge_count()), (4, 4));
        assert_eq!((c.node_count(), c.edge_count()), (5, 6));
        assert_eq!(g.successors(s).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(c.successors(s).collect::<Vec<_>>(), vec![a, b, u]);
        assert_eq!(g.out_degree(t), 0);
        assert_eq!(c.predecessors(u).collect::<Vec<_>>(), vec![t, s]);
        // An unshared graph grows in place.
        let before = Arc::as_ptr(&c.topology);
        c.add_edge(u, s, 7);
        assert_eq!(Arc::as_ptr(&c.topology), before);
    }

    #[test]
    fn map_preserves_topology() {
        let (g, [s, _, _, t]) = diamond();
        let g2 = g.map(|_, n| n.len(), |_, e| *e as f64 * 2.0);
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(*g2.node(s), 1);
        let e = g2.find_edge(s, NodeIx::from_index(1)).unwrap();
        assert_eq!(*g2.edge(e), 2.0);
        assert_eq!(g2.successors(t).count(), 0);
        assert!(Arc::ptr_eq(&g.topology, &g2.topology));
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let (f, r) = g.add_edge_undirected(a, b, 7);
        assert_eq!(g.edge_endpoints(f), (a, b));
        assert_eq!(g.edge_endpoints(r), (b, a));
        assert_eq!(*g.edge(f), 7);
        assert_eq!(*g.edge(r), 7);
    }

    #[test]
    #[should_panic(expected = "endpoints must be nodes")]
    fn add_edge_panics_on_foreign_node() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeIx::from_index(5), ());
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let (g, [s, ..]) = diamond();
        assert!(!format!("{g:?}").is_empty());
        assert_eq!(format!("{s:?}"), "n0");
        assert_eq!(format!("{:?}", EdgeIx::from_index(3)), "e3");
    }
}
