//! QoS metrics and shortest-widest path routing for the `sflow` workspace.
//!
//! The sFlow paper (Wang, Li & Li, ICDCS 2004) evaluates service links and
//! service flow graphs by two resource metrics — **bandwidth** (maximise the
//! bottleneck) and **latency** (minimise the end-to-end sum) — and adopts the
//! *shortest-widest* path semantics of Wang & Crowcroft (JSAC 1996): among all
//! paths, prefer the one with the highest bottleneck bandwidth; break ties by
//! the lowest total latency.
//!
//! This crate provides:
//!
//! * the metric newtypes [`Bandwidth`] (kbit/s) and [`Latency`] (µs) and the
//!   combined [`Qos`] pair with the shortest-widest ordering;
//! * [`shortest_widest`]: an **exact** shortest-widest single-source algorithm
//!   (a widest Dijkstra, then one descending sweep over the bandwidth levels
//!   that carries the latency labels from level to level) and
//!   the classic single-pass **lexicographic** Dijkstra of Wang–Crowcroft,
//!   which is exact in bandwidth but may over-estimate latency on adversarial
//!   topologies (the two are compared by property tests and an ablation
//!   benchmark);
//! * [`classic`]: plain widest and shortest (latency) Dijkstra variants used
//!   as ablation baselines;
//! * [`AllPairs`]: the all-pairs table the sFlow baseline algorithm (Table 1
//!   of the paper) starts from;
//! * [`engine`]: incremental maintenance of an all-pairs table after
//!   edge-QoS changes ([`AllPairs::patched_with`]). Every table is built
//!   one way, [`AllPairs::lazy`], which sweeps no row until a read needs
//!   it ([`all_pairs`] reads every row, on the caller's thread), and is
//!   swept by one concrete kernel
//!   ([`shortest_widest::single_source_csr`], a widest pass and then the
//!   level sweep, which [`shortest_widest::single_source_moved_csr`] cuts
//!   short for a row a degradation shadowed) over one layout, [`QosCsr`] —
//!   a compressed-sparse-row flattening of the graph's adjacency with the
//!   edge weights in slot-parallel arrays — and holds its trees behind
//!   `Arc`s so an incrementally patched successor shares every clean tree
//!   with its predecessor by pointer, and its CSR, which the successor
//!   reweights instead of deriving its own. Routing against anything other than
//!   raw capacity (the server's load plane routes against
//!   `capacity − reserved`) means writing those weights into a graph and
//!   patching the table for the edges that moved;
//! * [`WidestForest`]: every pair's widest bandwidth on a symmetric graph,
//!   from one maximum spanning forest. With
//!   [`shortest_widest::settle_csr`] — the same level sweep, told which
//!   nodes to settle at which bandwidth, stopping at the last — it prices
//!   a set of node pairs without a full tree per node (an overlay's
//!   service links read only the pairs of hosts that carry an instance).
//!
//! # Example
//!
//! ```
//! use sflow_graph::DiGraph;
//! use sflow_routing::{shortest_widest, Bandwidth, Latency, Qos};
//!
//! let mut g: DiGraph<(), Qos> = DiGraph::new();
//! let a = g.add_node(());
//! let b = g.add_node(());
//! let c = g.add_node(());
//! // a→b→c is wide but slow; a→c is fast but narrow.
//! g.add_edge(a, b, Qos::new(Bandwidth::kbps(100), Latency::from_micros(5)));
//! g.add_edge(b, c, Qos::new(Bandwidth::kbps(80), Latency::from_micros(5)));
//! g.add_edge(a, c, Qos::new(Bandwidth::kbps(10), Latency::from_micros(1)));
//!
//! let tree = shortest_widest::single_source(&g, a);
//! let qos = tree.qos_to(c).unwrap();
//! assert_eq!(qos.bandwidth, Bandwidth::kbps(80)); // widest wins
//! assert_eq!(tree.path_to(c).unwrap(), vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panics, and none of `clippy.toml`'s `disallowed-methods` (the clock
// above all) in the kernels; what they allocate is `kernel_alloc.rs`'s.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_methods)]

pub mod classic;
pub mod engine;
mod forest;
mod metrics;
pub mod pareto;
pub mod shortest_widest;

pub use engine::{EdgeChange, PatchStats};
pub use forest::WidestForest;
pub use metrics::{Bandwidth, Latency, Qos};
pub use shortest_widest::{
    all_pairs, AllPairs, DijkstraScratch, PathTree, QosCsr, TraversalScratch,
};
