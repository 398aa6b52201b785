//! Widest bottlenecks on a symmetric graph, from one maximum spanning
//! forest.
//!
//! On an undirected graph the widest-path bandwidth between two nodes is
//! the narrowest link on their path in a maximum spanning tree (Hu, "The
//! maximum capacity route problem", 1961). A wider path would cross the
//! cut that the tree path's narrowest link defines over a wider link, and
//! a maximum spanning tree keeps a widest link of every cut. So one forest
//! answers every pair's bandwidth, where a widest Dijkstra answers one
//! source's. The forest is built by Kruskal over a
//! [`QosCsr`]'s own widest-first order, which needs no sort of its own;
//! zero-bandwidth links are unusable, as they are to the sweep, and join
//! no component.

use sflow_graph::NodeIx;

use crate::{Bandwidth, QosCsr};

/// A maximum spanning forest of a symmetric graph's usable links.
///
/// Its bottlenecks are widest-path bandwidths only if every link `u → v`
/// of the graph has a twin `v → u` of the same bandwidth, as every link of
/// an undirected network does.
#[derive(Clone, Debug)]
pub struct WidestForest {
    /// `links[first[x]..first[x + 1]]` are node `x`'s forest links, as
    /// `(neighbour, bandwidth)`.
    first: Vec<u32>,
    links: Vec<(NodeIx, Bandwidth)>,
}

impl WidestForest {
    /// Kruskal over `csr`'s links, widest first, with a union-find:
    /// `O(E α(V))`, and it stops once the forest spans.
    pub fn new(csr: &QosCsr) -> Self {
        let n = csr.node_count();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut tree: Vec<(NodeIx, NodeIx, Bandwidth)> = Vec::with_capacity(n.saturating_sub(1));
        for (tail, head, bandwidth) in csr.widest_links() {
            if bandwidth == Bandwidth::ZERO || tree.len() + 1 >= n {
                break; // the rest is unusable, or the forest spans
            }
            let (a, b) = (root(&mut parent, tail), root(&mut parent, head));
            if a != b {
                parent[a as usize] = b;
                tree.push((tail, head, bandwidth));
            }
        }
        let mut first = vec![0u32; n + 1];
        for &(a, b, _) in &tree {
            first[a.index() + 1] += 1;
            first[b.index() + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut links = vec![(NodeIx::from_index(0), Bandwidth::ZERO); 2 * tree.len()];
        let mut at = first.clone();
        for &(a, b, bandwidth) in &tree {
            for (from, to) in [(a, b), (b, a)] {
                links[at[from.index()] as usize] = (to, bandwidth);
                at[from.index()] += 1;
            }
        }
        WidestForest { first, links }
    }

    /// The widest bottleneck from `source` to every node, into `widest`:
    /// [`Bandwidth::INFINITE`] for the source itself, `None` outside its
    /// component. One walk of the source's tree, `O(V)`.
    pub fn bottlenecks_from(&self, source: NodeIx, widest: &mut Vec<Option<Bandwidth>>) {
        widest.clear();
        widest.resize(self.first.len() - 1, None);
        widest[source.index()] = Some(Bandwidth::INFINITE);
        let mut stack = vec![(source, Bandwidth::INFINITE)];
        while let Some((node, reach)) = stack.pop() {
            let links = &self.links
                [self.first[node.index()] as usize..self.first[node.index() + 1] as usize];
            for &(to, bandwidth) in links {
                if widest[to.index()].is_none() {
                    let via = reach.bottleneck(bandwidth);
                    widest[to.index()] = Some(via);
                    stack.push((to, via));
                }
            }
        }
    }
}

/// `x`'s component: the root of its union-find tree, halving the path on
/// the way.
fn root(parent: &mut [u32], x: NodeIx) -> u32 {
    let mut x = x.index() as u32;
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}
