//! Shortest-widest path computation (Wang & Crowcroft, JSAC 1996).
//!
//! The *shortest-widest* path from `s` to `v` is, among all paths maximising
//! the bottleneck bandwidth, one minimising the total latency.
//!
//! Two algorithms are provided:
//!
//! * [`single_source`] — **exact**: first a widest-path Dijkstra fixes the
//!   optimal bottleneck `B*(v)` for every node (max–min composition *is*
//!   isotone, so Dijkstra is exact there). The distinct values of `B*` are
//!   the *levels*; the nodes with `B*(v) = b` are *pinned* at `b`, and their
//!   answer is the latency distance in the subgraph of links with bandwidth
//!   `≥ b`. Those subgraphs only grow as `b` falls, so the levels are
//!   visited widest first in **one descending sweep** that carries the
//!   latency labels and the heap from level to level: entering a level
//!   admits the links whose bandwidth lies between it and the level before
//!   (one cursor over the links sorted by bandwidth, once per [`QosCsr`]),
//!   offers each from its tail's standing label, and propagates
//!   decrease-only until the last node pinned at the level is settled.
//!   Whatever is still on the heap then waits for the next level.
//! * [`single_source_lexicographic`] — the classic single-pass Dijkstra with
//!   the lexicographic (bandwidth ↓, latency ↑) key, as commonly implemented
//!   from the Wang–Crowcroft description. The lexicographic key is *monotone*
//!   (extending a path never improves it) but not *isotone* (a better prefix
//!   does not guarantee a better extension), so this variant is exact in
//!   bandwidth but may return a path whose latency is not minimal. The
//!   property tests in this crate exercise exactly that gap, and the
//!   `ablation_routing` benchmark quantifies it.
//!
//! # Which path, when several tie
//!
//! A level's labels are `(latency, zero-hops)` pairs, compared in that
//! order: *zero-hops* counts the zero-latency links at the end of the path
//! (co-located service instances are joined by [`Qos::IDENTITY`] links), so
//! a label strictly grows along every link, zero-latency cycles included,
//! and the order nodes settle in at a level is a function of the level's
//! final labels alone — label, then node index — not of how the heap came
//! by them. Among the links that offer a node its final label, its
//! predecessor is the one whose tail **settles first**, and among parallel
//! links from that tail the one in the **earliest CSR slot** (insertion
//! order). The sweep applies the rule to every offer that ties the standing
//! label, so it builds the tree a fresh Dijkstra of each level would; the
//! differential test `tests/prop_sweep.rs` holds it to that definition.
//!
//! # What a tree stores
//!
//! Per node its QoS and the level it is pinned at, and — instead of one
//! predecessor array per level — only the `(label, predecessor)` entries
//! that *changed* at a level, as one flat array grouped by node and ordered
//! by level. A node's entry "at level `b`" is its newest one from `b` or a
//! wider level; a path is rebuilt by reading every node on it at the level
//! its destination is pinned at.
//!
//! The exact kernel is one concrete function over one layout:
//! [`single_source_csr`] sweeps a [`QosCsr`] — a compressed-sparse-row
//! flattening of the graph with the edge weights in slot-parallel arrays — so
//! the inner loops march forward through flat arrays instead of chasing
//! `Vec<EdgeIx>` indirections per visited edge. [`all_pairs`] derives the
//! CSR once per graph and calls the kernel per source, and the incremental
//! patcher in [`crate::engine`] reweights it; the one-shot
//! [`single_source`] derives a CSR for its single sweep. The kernel is two
//! passes: the widest pass names every reachable node's level, and one
//! level sweep settles the nodes it is told to, each at the bandwidth named
//! for it, stopping when the last one settles. A tree names every node;
//! [`settle_csr`] names only the few a caller reads and skips the widest
//! pass when the caller already knows their bandwidths (on a symmetric
//! graph, from a [`WidestForest`](crate::WidestForest)).
//! [`single_source_moved_csr`] names every node too, but is told which
//! ones a run of pure bandwidth cuts moved since an older tree of the row:
//! the widest pass stops once those have popped, the others keep the old
//! tree's bandwidths, and the level sweep stops once the last of them has
//! settled. The sweep is not generic and never inlined, so it is compiled
//! exactly once, in this crate, whoever calls it.
//! A caller that wants to route against different weights (the server's load
//! plane routes against `capacity − reserved`) writes them into a graph and
//! runs the same kernel over that graph's CSR.
//!
//! Complexities, with `V` nodes, `E` edges, `L ≤ V` distinct bottleneck
//! levels and `U` label decreases over the whole sweep (`V ≤ U ≤ L · V`;
//! `bench_routing` reports it — about 7 per node on a 400-host Waxman
//! underlay with 61 levels): exact is `O((E + U · deg) log V)` time and
//! `O(V + U)` memory per tree, lexicographic `O(E log V)`. The CSR
//! derivation is `O(V + E log E)` once per graph, amortised to nothing over
//! a sweep of many sources. A patch ([`AllPairs::patched_with`]) is a
//! plan and derives no CSR: it reweights its predecessor's from the change
//! list (two weight arrays copied, `O(k log E)` for the `k` changed
//! slots), plans a degradation in `O(changes × chain)` per materialised
//! or shadowed tree — a degraded head's chain, a few entries — plus `O(V)`
//! and a walk of the levels that matter for the trees whose chains name a
//! degraded edge, and sweeps nothing. (A net change with a gain costs one
//! reverse pass over the graph from the gained tails, `O(V + E)` once per
//! distinct net change, and a walk of its degradations for the trees that
//! cannot reach them.) The sweep a dirty tree costs is paid on the first
//! read of its row that needs it, against the table the reader holds, and
//! not at all for a row nobody reads there. After a degradation a read of
//! a destination it moved
//! pays only the sweep up to the row's last moved destination
//! ([`single_source_moved_csr`]); only a read of the whole tree, or a
//! cut-short sweep whose last moved destination is pinned at the last
//! level, pays it all. A shadow costs its tree, which the predecessor
//! holds anyway, and its crossings; a read from it, `O(hops × crossings)`,
//! and the first moved read marks the row's moved destinations,
//! `O(V × hops × crossings)`. Each tree and shadow also carries its net
//! change since its sweep, one list shared by the trees swept together; a
//! patch folds its batch into each distinct list once, a merge of two
//! sorted lists, and a tree or shadow that change leaves on its sweep graph
//! costs the patch a refcount bump, with no walk. A list
//! grows by every edge changed and not put back since its trees' sweep, so
//! a lineage that never undoes itself pays its length on every patch.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sflow_graph::{Csr, DiGraph, EdgeIx, NodeIx};

use crate::engine::EdgeChange;
use crate::{Bandwidth, Latency, Qos};

/// One entry of a node's chain: the predecessor it held from `level` (an
/// index into the tree's levels, widest first) until its next entry.
#[derive(Clone, Copy, Debug)]
struct Version {
    level: u32,
    pred: NodeIx,
    edge: EdgeIx,
}

/// The result of a single-source shortest-widest computation: per-node QoS
/// plus enough predecessor state to reconstruct one optimal path per node.
#[derive(Clone, Debug)]
pub struct PathTree {
    source: NodeIx,
    dist: Vec<Option<Qos>>,
    /// For each node, the level it is pinned at.
    node_level: Vec<u32>,
    /// Number of bandwidth levels (one for the lexicographic variant, none
    /// for a tree that reaches nothing).
    levels: u32,
    /// `versions[first[x]..first[x + 1]]` is node `x`'s chain, widest level
    /// first.
    first: Vec<u32>,
    versions: Vec<Version>,
}

impl PathTree {
    /// Groups a sweep's log — one `(node, version)` per entry, in the order
    /// its `levels` were visited — by node.
    fn new(
        source: NodeIx,
        dist: Vec<Option<Qos>>,
        node_level: Vec<u32>,
        levels: u32,
        log: &[(NodeIx, Version)],
    ) -> Self {
        let n = dist.len();
        let mut first = vec![0u32; n + 1];
        for (node, _) in log {
            first[node.index() + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut versions = Vec::new();
        if let Some(&(_, any)) = log.first() {
            versions.resize(log.len(), any);
            // `first[x]` doubles as node `x`'s fill cursor and ends up at
            // the next node's start; shifting the array by one restores it.
            for &(node, version) in log {
                let at = &mut first[node.index()];
                versions[*at as usize] = version;
                *at += 1;
            }
            first.rotate_right(1);
            first[0] = 0;
        }
        PathTree {
            source,
            dist,
            node_level,
            levels,
            first,
            versions,
        }
    }

    /// The source this tree was computed from.
    pub fn source(&self) -> NodeIx {
        self.source
    }

    /// The shortest-widest QoS from the source to `node`, or `None` if the
    /// node is unreachable. The source itself has [`Qos::IDENTITY`].
    pub fn qos_to(&self, node: NodeIx) -> Option<Qos> {
        self.dist[node.index()]
    }

    /// Number of distinct bottleneck levels the tree was swept over.
    pub fn level_count(&self) -> usize {
        self.levels as usize
    }

    /// The level `node` is pinned at — an index into the tree's levels,
    /// widest first — or `None` for the source and an unreachable node.
    pub fn level_of(&self, node: NodeIx) -> Option<usize> {
        self.dist[node.index()]?;
        (node != self.source).then(|| self.node_level[node.index()] as usize)
    }

    /// Number of `(label, predecessor)` entries the tree stores — what it
    /// costs in memory beyond two per-node arrays, against the
    /// `level_count() × node count` slots of one predecessor array per
    /// level.
    pub fn stored_entries(&self) -> usize {
        self.versions.len()
    }

    /// `node`'s entry at level `li`: its newest from `li` or a wider level.
    fn version_at(&self, node: NodeIx, li: u32) -> Option<&Version> {
        let i = node.index();
        self.versions[self.first[i] as usize..self.first[i + 1] as usize]
            .iter()
            .rev()
            .find(|v| v.level <= li)
    }

    /// The nodes from `node` back to (excluding) the source along the path
    /// the tree reports, or `None` if unreachable.
    #[expect(
        clippy::expect_used,
        reason = "a node with a label has a predecessor unless it is the source"
    )]
    fn preds_from(&self, node: NodeIx) -> Option<impl Iterator<Item = NodeIx> + '_> {
        self.dist[node.index()]?;
        let li = self.node_level[node.index()];
        let mut cur = node;
        Some(std::iter::from_fn(move || {
            if cur == self.source {
                return None;
            }
            cur = self
                .version_at(cur, li)
                .expect("reachable non-source node must have a predecessor")
                .pred;
            Some(cur)
        }))
    }

    /// One shortest-widest path from the source to `node` (inclusive of both
    /// endpoints), or `None` if unreachable. `path_to(source)` is `[source]`.
    pub fn path_to(&self, node: NodeIx) -> Option<Vec<NodeIx>> {
        let mut path = vec![node];
        path.extend(self.preds_from(node)?);
        path.reverse();
        Some(path)
    }

    /// The number of links on the reconstructed path to `node` (0 for the
    /// source), or `None` if unreachable.
    ///
    /// Counts by walking the predecessor chain — no path `Vec` is
    /// materialised, so hot-loop callers (session accounting, hop-horizon
    /// checks) cost zero allocations.
    pub fn hops_to(&self, node: NodeIx) -> Option<usize> {
        Some(self.preds_from(node)?.count())
    }

    /// Returns `true` if any path this tree can reconstruct traverses an
    /// edge `e` *at a bandwidth level strictly above* `floors[e.index()]`
    /// (indices beyond `floors` count as unmarked, i.e.
    /// [`Bandwidth::INFINITE`]).
    ///
    /// This is the loss-side dirtiness test of the incremental all-pairs
    /// engine, in its per-level form. A tree that never crosses a *cut*
    /// edge is provably unaffected by the cut (every path avoiding the edge
    /// kept its exact QoS, and no path through a narrowed edge can newly
    /// beat them). The floor sharpens that rule (`bw0 → bw1 < bw0`): the
    /// per-level subgraphs at levels `b ≤ bw1` still contain the edge with
    /// identical weight, so paths pinned at those levels are untouched —
    /// only paths whose bottleneck level exceeds the surviving bandwidth
    /// `bw1` can lose the edge. An edge that got slower is a cut with a
    /// [`Bandwidth::ZERO`] floor: a path over it at any level reports a
    /// latency the edge no longer gives.
    ///
    /// This is the full walk: every level, from every node pinned there
    /// (found through a per-level index), visiting each node at most once
    /// per level — `O(V · L)` worst case, `O(V)` typically. It allocates
    /// nothing: the caller
    /// supplies a [`TraversalScratch`] reused across trees. The patcher
    /// answers the same question for its cut edges from their heads first
    /// and walks only the levels that can matter.
    pub fn traverses_above(&self, floors: &[Bandwidth], scratch: &mut TraversalScratch) -> bool {
        let floor_of = |edge: EdgeIx| {
            floors
                .get(edge.index())
                .copied()
                .unwrap_or(Bandwidth::INFINITE)
        };
        self.index_levels(scratch);
        (0..self.levels).any(|li| self.walk_level(li, floor_of, scratch))
    }

    /// Where a batch of cuts, each given as `(edge, head, floor)`, can move
    /// this tree's destinations, into `crossings`: per cut, each entry of
    /// the head's chain over the edge, with the levels it stands at from
    /// the head's own level on. A destination is *moved* if its reported
    /// path crosses a cut edge at the destination's own level, above the
    /// edge's floor, and such a path steps into `v` over `e = u → v` at
    /// level `b` only if `v`'s own entry at `b` names `e`, and only if `v`
    /// lies on a path pinned at `b`, i.e. `b ≤ B(s,v)`. So a crossing's
    /// head, levels and floor are all [`PathTree::moved_by`] needs to tell
    /// a moved destination.
    pub(crate) fn crossings(
        &self,
        cuts: &[(EdgeIx, NodeIx, Bandwidth)],
        crossings: &mut Vec<Crossing>,
    ) {
        crossings.clear();
        for &(edge, head, floor) in cuts {
            let Some(to_head) = self.dist[head.index()] else {
                continue;
            };
            if to_head.bandwidth <= floor {
                continue; // every level `head` can be on a path of is kept
            }
            let pinned_at = self.node_level[head.index()];
            for (at, until) in self.chain(head) {
                let from = at.level.max(pinned_at);
                if at.edge == edge && from < until {
                    crossings.push(Crossing {
                        head,
                        from,
                        until,
                        floor,
                    });
                }
            }
        }
    }

    /// [`PathTree::traverses_above`] for a batch of cuts, each given as
    /// `(edge, head, floor)` and sorted by edge, with the floors of the
    /// other edges infinite — same answer, less work. It leaves the tree's
    /// [`PathTree::crossings`] in `scratch`.
    ///
    /// Only the levels of a crossing can matter. A tree with no crossing is
    /// clean without a walk, and one with a crossing at its head's own
    /// level is dirty without one (the head's own path crosses the edge
    /// there, above the floor); otherwise only the crossings' levels are
    /// walked, and a walk is exact, so the answer is the full walk's.
    pub(crate) fn crosses_cuts(
        &self,
        cuts: &[(EdgeIx, NodeIx, Bandwidth)],
        scratch: &mut TraversalScratch,
    ) -> bool {
        self.crossings(cuts, &mut scratch.crossings);
        if scratch
            .crossings
            .iter()
            .any(|c| c.from == self.node_level[c.head.index()])
        {
            return true;
        }
        if scratch.crossings.is_empty() {
            return false;
        }
        let floor_of = |edge: EdgeIx| {
            cuts.binary_search_by_key(&edge, |&(cut, ..)| cut)
                .map_or(Bandwidth::INFINITE, |i| cuts[i].2)
        };
        self.index_levels(scratch);
        for i in 0..scratch.crossings.len() {
            let Crossing {
                from, until, floor, ..
            } = scratch.crossings[i];
            for li in from..until {
                // Levels run widest first: once one is at or below the
                // floor, so are the rest.
                let first = scratch.pinned[scratch.level_start[li as usize] as usize];
                if self.dist[first as usize].is_none_or(|q| q.bandwidth <= floor) {
                    break;
                }
                if self.walk_level(li, floor_of, scratch) {
                    return true;
                }
            }
        }
        false
    }

    /// `true` if the cuts behind `crossings` (this tree's, gathered by
    /// [`PathTree::crossings`] over any number of batches) moved `node`:
    /// its reported path, read at its own level, passes through a
    /// crossing's head at one of the crossing's levels, above its floor.
    /// `O(hops × crossings)`.
    pub(crate) fn moved_by(&self, crossings: &[Crossing], node: NodeIx) -> bool {
        let Some(qos) = self.dist[node.index()] else {
            return false;
        };
        let li = self.node_level[node.index()];
        let mut cur = node;
        while cur != self.source {
            let crossed = |c: &Crossing| {
                c.head == cur && c.from <= li && li < c.until && c.floor < qos.bandwidth
            };
            if crossings.iter().any(crossed) {
                return true;
            }
            let Some(at) = self.version_at(cur, li) else {
                break;
            };
            cur = at.pred;
        }
        false
    }

    /// `node`'s chain as `(entry, until)`: each entry with the level its
    /// successor takes over at (the tree's level count for the last).
    fn chain(&self, node: NodeIx) -> impl Iterator<Item = (&Version, u32)> + '_ {
        let chain = &self.versions
            [self.first[node.index()] as usize..self.first[node.index() + 1] as usize];
        chain
            .iter()
            .enumerate()
            .map(move |(i, at)| (at, chain.get(i + 1).map_or(self.levels, |next| next.level)))
    }

    /// Groups the nodes pinned at each level (every reachable node but the
    /// source) into `scratch`'s per-level index, by counting sort:
    /// `O(V + L)`.
    fn index_levels(&self, scratch: &mut TraversalScratch) {
        let levels = self.levels as usize;
        let source = self.source.index();
        let pinned_nodes =
            || (0..self.dist.len()).filter(move |&x| x != source && self.dist[x].is_some());
        let starts = &mut scratch.level_start;
        starts.clear();
        starts.resize(levels + 1, 0);
        for x in pinned_nodes() {
            starts[self.node_level[x] as usize] += 1;
        }
        // Each level's end, then filled backwards so it ends at its start.
        let mut end = 0;
        for at in &mut starts[..levels] {
            end += *at;
            *at = end;
        }
        starts[levels] = end;
        scratch.pinned.clear();
        scratch.pinned.resize(end as usize, 0);
        for x in pinned_nodes() {
            let at = &mut starts[self.node_level[x] as usize];
            *at -= 1;
            scratch.pinned[*at as usize] = x as u32;
        }
    }

    /// Walks the paths reported at level `li` back from the nodes pinned
    /// there (through the index [`PathTree::index_levels`] left in
    /// `scratch`), each node once: `true` at the first edge crossed above
    /// its floor (`floor_of` an edge, infinite for an edge not cut).
    fn walk_level(
        &self,
        li: u32,
        floor_of: impl Fn(EdgeIx) -> Bandwidth,
        scratch: &mut TraversalScratch,
    ) -> bool {
        let source = self.source.index();
        let tag = scratch.tag_for(self.dist.len());
        let nodes = scratch.level_start[li as usize] as usize
            ..scratch.level_start[li as usize + 1] as usize;
        for start in nodes.map(|i| scratch.pinned[i] as usize) {
            let Some(level) = self.dist[start] else {
                continue;
            };
            let mut cur = start;
            while cur != source && scratch.stamp[cur] != tag {
                scratch.stamp[cur] = tag;
                let Some(at) = self.version_at(NodeIx::from_index(cur), li) else {
                    break;
                };
                if floor_of(at.edge) < level.bandwidth {
                    return true;
                }
                cur = at.pred.index();
            }
        }
        false
    }

    /// Returns `true` if any path this tree can reconstruct traverses an
    /// edge `e` with `marked[e.index()]` set (indices beyond `marked` count
    /// as unmarked).
    ///
    /// Convenience form of [`PathTree::traverses_above`] with a
    /// [`Bandwidth::ZERO`] floor on every marked edge (any traversal at any
    /// level counts) and a locally allocated scratch.
    pub fn traverses_any(&self, marked: &[bool]) -> bool {
        let floors: Vec<Bandwidth> = marked
            .iter()
            .map(|&m| {
                if m {
                    Bandwidth::ZERO
                } else {
                    Bandwidth::INFINITE
                }
            })
            .collect();
        self.traverses_above(&floors, &mut TraversalScratch::new())
    }
}

/// Reusable storage for [`PathTree::traverses_above`] and the patcher's cut
/// walk.
///
/// Generation stamps instead of per-level bitmaps: each level of each tree
/// claims a fresh tag, so one allocation serves every level of every tree a
/// patch sweep inspects — the sweep performs no per-tree (let alone
/// per-level) allocations. The per-level index of the tree being walked
/// and the crossings a cut walk visits live here for the same reason.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    stamp: Vec<u32>,
    next_tag: u32,
    /// The tree's pinned nodes grouped by level:
    /// `pinned[level_start[li]..level_start[li + 1]]` are pinned at `li`.
    pinned: Vec<u32>,
    level_start: Vec<u32>,
    /// What the last [`PathTree::crosses_cuts`] found.
    pub(crate) crossings: Vec<Crossing>,
}

/// Where a cut can move a tree's destinations (see
/// [`PathTree::crossings`]): a path pinned at a level in `from..until`,
/// above `floor`, that passes through `head` steps into it over the cut
/// edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crossing {
    head: NodeIx,
    from: u32,
    until: u32,
    floor: Bandwidth,
}

impl TraversalScratch {
    /// An empty scratch; storage grows to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out the next unused tag, growing (and, on the one-in-4-billion
    /// wraparound, clearing) the stamp array to cover `n` nodes.
    fn tag_for(&mut self, n: usize) -> u32 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.next_tag == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.next_tag = 0;
        }
        self.next_tag += 1;
        self.next_tag
    }
}

/// A latency label of the descending sweep: total latency, then the number
/// of zero-latency links the path ends in. Compared in that order, so a
/// label strictly grows along every link (see "Which path, when several
/// tie" in the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Label {
    latency: Latency,
    zero_hops: u32,
}

impl Label {
    const SOURCE: Label = Label {
        latency: Latency::ZERO,
        zero_hops: 0,
    };
    /// No label yet; every real label compares below it.
    const NONE: Label = Label {
        latency: Latency::INFINITE,
        zero_hops: u32::MAX,
    };

    /// The label this one offers across a link of latency `link`.
    fn across(self, link: Latency) -> Label {
        Label {
            latency: self.latency + link,
            zero_hops: if link == Latency::ZERO {
                self.zero_hops + 1
            } else {
                0
            },
        }
    }
}

/// What the sweep holds per node: its standing label, the CSR slot of the
/// link it came over, and where the node's newest log entry sits.
#[derive(Clone, Copy, Debug)]
struct Standing {
    label: Label,
    via: u32,
    logged: u32,
}

/// Reusable buffers for repeated single-source computations.
///
/// The kernel needs per-node bottleneck, label and heap storage and a log of
/// the entries the tree will keep; a scratch keeps those allocations alive
/// across calls so a worker sweeping many sources — the all-pairs engine,
/// the incremental patcher — touches the allocator only for the arrays that
/// end up owned by the resulting [`PathTree`].
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    widest: Vec<Option<Bandwidth>>,
    done: Vec<bool>,
    widest_heap: BinaryHeap<WidestEntry>,
    /// The bottlenecks of the reachable nodes, widest first: each run of
    /// equal values is a level and its length the number pinned there.
    pinned: Vec<Bandwidth>,
    standing: Vec<Standing>,
    heap: BinaryHeap<SweepEntry>,
    log: Vec<(NodeIx, Version)>,
    /// What [`settle_csr`] answers in, and its levels.
    settled: Vec<Option<Qos>>,
    settled_levels: Vec<u32>,
    /// Where an [`AllPairs`] read marks a shadowed row's moved
    /// destinations for [`single_source_moved_csr`].
    moved: Vec<bool>,
    label_updates: u64,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label decreases (== heap pushes) over every sweep this scratch has
    /// served: the kernel's unit of work, and a count that repeats exactly
    /// from run to run.
    pub fn label_updates(&self) -> u64 {
        self.label_updates
    }
}

/// A [`Qos`]-weighted compressed-sparse-row view of a graph's out-adjacency.
///
/// [`Csr::forward`] flattens the topology; the bandwidth and latency of each
/// edge are copied into slot-parallel arrays, so the Dijkstra kernels read a
/// neighbour, its edge handle and its weight from four flat arrays marching
/// forward together — no detour through the edge arena per visited edge —
/// and the slots are listed once more sorted by bandwidth, the order the
/// descending sweep admits them in. Derive one per graph
/// (`O(V + E log E)`) and share it read-only across however many readers
/// sweep it; once the weights move, [`QosCsr::reweighted`] derives the
/// next one from the list of changed edges — two weight arrays copied and
/// the changed slots written — and shares the topology with this one.
#[derive(Clone, Debug)]
pub struct QosCsr {
    adj: Arc<Csr>,
    bandwidth: Vec<Bandwidth>,
    latency: Vec<Latency>,
    /// The tail of each slot's edge.
    tails: Arc<[NodeIx]>,
    /// The slot of each edge, by edge index.
    slot_of: Arc<[u32]>,
    /// Every slot, widest edge first. Among equal bandwidths the order is
    /// unspecified: they are admitted at the same level, and the tie rule
    /// in the module docs makes the tree independent of it.
    widest_first: Vec<u32>,
}

impl QosCsr {
    /// Flattens `g`'s out-adjacency and edge weights and sorts the slots by
    /// bandwidth. `O(V + E log E)`.
    pub fn new<N>(g: &DiGraph<N, Qos>) -> Self {
        let adj = Csr::forward(g);
        let bandwidth: Vec<Bandwidth> = adj.edges().iter().map(|&e| g.edge(e).bandwidth).collect();
        let latency = adj.edges().iter().map(|&e| g.edge(e).latency).collect();
        let tails = g
            .node_ids()
            .flat_map(|u| adj.range(u).map(move |_| u))
            .collect();
        let mut slot_of = vec![0u32; adj.edge_count()];
        for (s, &e) in adj.edges().iter().enumerate() {
            slot_of[e.index()] = s as u32;
        }
        let mut widest_first: Vec<u32> = (0..bandwidth.len() as u32).collect();
        widest_first.sort_unstable_by_key(|&s| Reverse(bandwidth[s as usize]));
        QosCsr {
            adj: Arc::new(adj),
            bandwidth,
            latency,
            tails,
            slot_of: slot_of.into(),
            widest_first,
        }
    }

    /// The CSR of this one's graph after `changes`: one record per edge,
    /// its `new` weight the one the graph carries now — a batch as
    /// [`AllPairs::patched_with`] folds it. The topology, tails and
    /// edge → slot index are shared with `self`; the two weight arrays are
    /// copied and the changed slots written through the index. Only the
    /// slots whose bandwidth moved are re-placed in the bandwidth order —
    /// each goes in front of the first slot its old place in the order
    /// found no wider, and the others keep their order. `O(E)` copying
    /// plus `O(k log E)` for `k` changed slots (and a scan of each moved
    /// slot's old run of equal bandwidths), where [`QosCsr::new`] reads
    /// every edge of a graph and sorts every slot.
    ///
    /// # Panics
    ///
    /// If a record names an edge this CSR does not have: a patch changes
    /// weights, never counts.
    pub fn reweighted(&self, changes: &[EdgeChange]) -> Self {
        let mut bandwidth = self.bandwidth.clone();
        let mut latency = self.latency.clone();
        let mut arrivals = Vec::with_capacity(changes.len());
        for c in changes {
            let slot = self.slot_of[c.edge.index()];
            bandwidth[slot as usize] = c.new.bandwidth;
            latency[slot as usize] = c.new.latency;
            arrivals.push(slot);
        }
        // In slot order, so where equal bandwidths land below depends on
        // the moved slots alone, not on the order the batch named them in.
        arrivals.sort_unstable();
        arrivals.dedup();
        arrivals.retain(|&s| bandwidth[s as usize] != self.bandwidth[s as usize]);
        let mut gone: Vec<usize> = arrivals.iter().map(|&s| self.place(s)).collect();
        gone.sort_unstable();
        arrivals.sort_unstable_by_key(|&s| Reverse(bandwidth[s as usize]));
        let mut widest_first = Vec::with_capacity(self.widest_first.len());
        let mut gone = &gone[..];
        let mut from = 0;
        for a in arrivals {
            let to = self
                .widest_first
                .partition_point(|&s| self.bandwidth[s as usize] > bandwidth[a as usize]);
            self.keep(&mut widest_first, from..to, &mut gone);
            widest_first.push(a);
            from = to;
        }
        self.keep(&mut widest_first, from..self.widest_first.len(), &mut gone);
        QosCsr {
            adj: Arc::clone(&self.adj),
            bandwidth,
            latency,
            tails: Arc::clone(&self.tails),
            slot_of: Arc::clone(&self.slot_of),
            widest_first,
        }
    }

    /// Where `slot` stands in `widest_first`: in the run of its bandwidth.
    #[expect(
        clippy::expect_used,
        reason = "widest_first lists every slot, in its bandwidth's run"
    )]
    fn place(&self, slot: u32) -> usize {
        let bandwidth = self.bandwidth[slot as usize];
        let run = self
            .widest_first
            .partition_point(|&s| self.bandwidth[s as usize] > bandwidth);
        let within = self.widest_first[run..].iter().position(|&s| s == slot);
        run + within.expect("every slot is in the order")
    }

    /// Appends `widest_first[range]` to `out` but for the places in `gone`
    /// (ascending), consuming those that fall in `range`.
    fn keep(&self, out: &mut Vec<u32>, range: Range<usize>, gone: &mut &[usize]) {
        let mut from = range.start;
        while let Some((&at, rest)) = gone.split_first() {
            if at >= range.end {
                break;
            }
            out.extend_from_slice(&self.widest_first[from..at]);
            from = at + 1;
            *gone = rest;
        }
        out.extend_from_slice(&self.widest_first[from..range.end]);
    }

    /// Number of nodes in the viewed graph.
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }

    /// Number of edges (== slots) in the viewed graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.bandwidth.len()
    }

    /// Every link as `(tail, head, bandwidth)`, widest first — the order
    /// [`WidestForest::new`](crate::WidestForest::new) takes them in.
    pub(crate) fn widest_links(&self) -> impl Iterator<Item = (NodeIx, NodeIx, Bandwidth)> + '_ {
        let targets = self.adj.targets();
        self.widest_first.iter().map(move |&slot| {
            let slot = slot as usize;
            (self.tails[slot], targets[slot], self.bandwidth[slot])
        })
    }

    /// The outgoing edges of `node` as `(head, bandwidth)`, in insertion
    /// order. The slot-parallel arrays are sliced once, so the widest
    /// pass's inner loop carries no per-edge bounds check.
    #[inline(always)]
    fn out_edges(&self, node: NodeIx) -> impl Iterator<Item = (NodeIx, Bandwidth)> + '_ {
        let range = self.adj.range(node);
        let targets = &self.adj.targets()[range.clone()];
        let bandwidth = &self.bandwidth[range];
        targets.iter().zip(bandwidth).map(|(&to, &bw)| (to, bw))
    }
}

#[derive(Debug, PartialEq, Eq)]
struct WidestEntry {
    bandwidth: Bandwidth,
    node: NodeIx,
}

impl Ord for WidestEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bandwidth
            .cmp(&other.bandwidth)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for WidestEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Widest-path (max–min bandwidth) Dijkstra into `scratch.widest`; the
/// source gets [`Bandwidth::INFINITE`]. With a `need` mask (one flag per
/// node; empty for none) it stops once every node the mask marks has
/// popped: their bandwidths are final then, and the rest are not read. A
/// marked node no path reaches never pops, so the pass runs to the end.
fn widest_bandwidths_into(
    csr: &QosCsr,
    source: NodeIx,
    need: &[bool],
    scratch: &mut DijkstraScratch,
) {
    let n = csr.node_count();
    let mut needed = need.iter().filter(|&&m| m).count();
    scratch.widest.clear();
    scratch.widest.resize(n, None);
    scratch.done.clear();
    scratch.done.resize(n, false);
    let best = &mut scratch.widest;
    let done = &mut scratch.done;
    let heap = &mut scratch.widest_heap;
    heap.clear();
    best[source.index()] = Some(Bandwidth::INFINITE);
    heap.push(WidestEntry {
        bandwidth: Bandwidth::INFINITE,
        node: source,
    });
    while let Some(WidestEntry { bandwidth, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if need.get(node.index()) == Some(&true) {
            needed -= 1;
            if needed == 0 {
                break;
            }
        }
        for (to, bw) in csr.out_edges(node) {
            // A settled head can never improve; skipping it here (rather
            // than relying on the pop-time check) keeps the entry out of
            // the heap entirely.
            if done[to.index()] {
                continue;
            }
            let cand = bandwidth.bottleneck(bw);
            if cand == Bandwidth::ZERO {
                continue;
            }
            let slot = &mut best[to.index()];
            if slot.is_none_or(|b| cand > b) {
                *slot = Some(cand);
                heap.push(WidestEntry {
                    bandwidth: cand,
                    node: to,
                });
            }
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct SweepEntry {
    label: Label,
    node: NodeIx,
}

impl Ord for SweepEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest label.
        (other.label, other.node).cmp(&(self.label, self.node))
    }
}

impl PartialOrd for SweepEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl DijkstraScratch {
    /// Offers the head of `csr`'s edge in `slot` the label `from` its tail
    /// stands at across it, at level `li`. A strictly better label is taken
    /// and the head queued; an equal one only moves the predecessor, and
    /// only to a tail that settles before the standing one (or an earlier
    /// slot of the same tail) — the head's own place in the order does not
    /// move, so nothing downstream has to hear of it.
    #[inline(always)]
    fn offer(&mut self, csr: &QosCsr, li: u32, tail: NodeIx, from: Label, slot: usize) {
        let label = from.across(csr.latency[slot]);
        let head = csr.adj.targets()[slot];
        let held = self.standing[head.index()];
        match label.cmp(&held.label) {
            Ordering::Greater => return,
            Ordering::Less => {
                self.label_updates += 1;
                self.heap.push(SweepEntry { label, node: head });
            }
            Ordering::Equal => {
                let rival = csr.tails[held.via as usize];
                let first = if rival == tail {
                    slot < held.via as usize
                } else {
                    (from, tail) < (self.standing[rival.index()].label, rival)
                };
                if !first {
                    return;
                }
            }
        }
        let version = Version {
            level: li,
            pred: tail,
            edge: csr.adj.edges()[slot],
        };
        // One entry per node per level: a second change overwrites.
        let mut logged = held.logged;
        match self.log.get_mut(logged as usize) {
            Some((_, at)) if at.level == li => *at = version,
            _ => {
                logged = self.log.len() as u32;
                self.log.push((head, version));
            }
        }
        self.standing[head.index()] = Standing {
            label,
            via: slot as u32,
            logged,
        };
    }
}

/// Exact single-source shortest-widest paths over a graph whose edges carry
/// [`Qos`] weights.
///
/// The source's QoS is [`Qos::IDENTITY`]; unreachable nodes have `None`.
/// Links with zero bandwidth are treated as unusable.
///
/// # Example
///
/// ```
/// use sflow_graph::DiGraph;
/// use sflow_routing::{shortest_widest, Bandwidth, Latency, Qos};
/// let mut g: DiGraph<(), Qos> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, Qos::new(Bandwidth::kbps(5), Latency::from_micros(2)));
/// let tree = shortest_widest::single_source(&g, a);
/// assert_eq!(tree.qos_to(b).unwrap().bandwidth, Bandwidth::kbps(5));
/// assert_eq!(tree.qos_to(a), Some(Qos::IDENTITY));
/// ```
pub fn single_source<N>(g: &DiGraph<N, Qos>, source: NodeIx) -> PathTree {
    single_source_csr(&QosCsr::new(g), source, &mut DijkstraScratch::new())
}

/// The exact algorithm over a pre-derived [`QosCsr`] — the one kernel every
/// shortest-widest table in the workspace comes from.
///
/// The all-pairs builders and the incremental patcher derive the CSR once
/// per graph and sweep it with one [`DijkstraScratch`] per worker, so the
/// inner loops read topology and weights from flat slot-parallel arrays and
/// allocate only the arrays the resulting [`PathTree`] keeps. The widest
/// pass names every reachable node's level, and the level sweep settles
/// them all.
pub fn single_source_csr(csr: &QosCsr, source: NodeIx, scratch: &mut DijkstraScratch) -> PathTree {
    let n = csr.node_count();
    widest_bandwidths_into(csr, source, &[], scratch);
    let widest = std::mem::take(&mut scratch.widest);
    let mut dist: Vec<Option<Qos>> = vec![None; n];
    let mut node_level = vec![0u32; n];
    let (levels, _) = level_sweep(
        csr,
        source,
        &widest,
        &[],
        scratch,
        &mut dist,
        &mut node_level,
    );
    scratch.widest = widest; // hand the buffer back for the next sweep
    PathTree::new(source, dist, node_level, levels, &scratch.log)
}

/// [`single_source_csr`] cut short, for a row whose tree `shadow` was
/// swept before a run of degradations: `moved` (one flag per node) must
/// mark at least every node whose widest bandwidth from the source those
/// lowered — every destination they moved marks them all.
///
/// The widest pass stops once every marked node has popped, and an
/// unmarked node takes its bandwidth from `shadow`: across a degradation
/// that does not move it, it keeps it. The level sweep then runs the full sweep's operations, in the
/// full sweep's order, and stops right after the last marked node settles,
/// unless that is at the last level, where it finishes the level. So the
/// tree answers every node it settled — every marked node a path reaches
/// among them — with the full tree's QoS, level and path: a settled node's
/// path is read through nodes that popped before it at its level, whose
/// entries are final once they pop. Returns `true` with the tree if the
/// sweep reached the end, when the tree is [`single_source_csr`]'s.
#[inline(never)]
pub fn single_source_moved_csr(
    csr: &QosCsr,
    shadow: &PathTree,
    moved: &[bool],
    scratch: &mut DijkstraScratch,
) -> (PathTree, bool) {
    let n = csr.node_count();
    debug_assert!(moved.len() == n && shadow.dist.len() == n);
    let source = shadow.source;
    widest_bandwidths_into(csr, source, moved, scratch);
    let mut want = std::mem::take(&mut scratch.widest);
    for ((bandwidth, &marked), kept) in want.iter_mut().zip(moved).zip(&shadow.dist) {
        if !marked {
            *bandwidth = kept.map(|q| q.bandwidth);
        }
    }
    let mut dist: Vec<Option<Qos>> = vec![None; n];
    let mut node_level = vec![0u32; n];
    let (levels, complete) = level_sweep(
        csr,
        source,
        &want,
        moved,
        scratch,
        &mut dist,
        &mut node_level,
    );
    scratch.widest = want;
    let tree = PathTree::new(source, dist, node_level, levels, &scratch.log);
    (tree, complete)
}

/// The exact answers for only the nodes `want` names: `want[x] = Some(b)`
/// settles `x` at level `b`, and the sweep stops as soon as the last named
/// node is settled. Returns per node its QoS — `Some` exactly for the named
/// nodes a path reaches, and [`Qos::IDENTITY`] for the source — in a
/// buffer of `scratch`.
///
/// Each named bandwidth must be the node's widest bottleneck from `source`
/// — what a widest pass, or on a symmetric graph a
/// [`WidestForest`](crate::WidestForest), gives it. Then every answer is the
/// one [`single_source_csr`] reports for that node: the latency distance
/// over the links of at least that bandwidth, which does not depend on the
/// levels a sweep stopped at on the way. No widest pass and no tree: a
/// warmed scratch makes no allocator call.
pub fn settle_csr<'s>(
    csr: &QosCsr,
    source: NodeIx,
    want: &[Option<Bandwidth>],
    scratch: &'s mut DijkstraScratch,
) -> &'s [Option<Qos>] {
    let n = csr.node_count();
    let mut dist = std::mem::take(&mut scratch.settled);
    let mut node_level = std::mem::take(&mut scratch.settled_levels);
    dist.clear();
    dist.resize(n, None);
    node_level.clear();
    node_level.resize(n, 0);
    level_sweep(csr, source, want, &[], scratch, &mut dist, &mut node_level);
    scratch.settled = dist;
    scratch.settled_levels = node_level;
    &scratch.settled
}

/// The descending sweep: settles the nodes `want` names, each at the
/// bandwidth named for it, into `dist` and `node_level` (one entry per
/// node, all `None` / 0 on entry), logging the tree's entries in
/// `scratch.log`. It visits only the named bandwidths, widest first, and
/// stops when the last named node settles. A `need` mask (one flag per
/// node; empty for none) stops it sooner: right after the last named node
/// the mask marks settles, if a level is left after that one. Returns how
/// many levels it visited, and `true` if it swept every level in full.
///
/// Not generic and never inlined: [`single_source_csr`],
/// [`single_source_moved_csr`] and [`settle_csr`] run this one compiled
/// copy.
#[inline(never)]
fn level_sweep(
    csr: &QosCsr,
    source: NodeIx,
    want: &[Option<Bandwidth>],
    need: &[bool],
    scratch: &mut DijkstraScratch,
    dist: &mut [Option<Qos>],
    node_level: &mut [u32],
) -> (u32, bool) {
    let n = csr.node_count();
    let mut needed = (0..need.len())
        .filter(|&x| need[x] && x != source.index() && want[x].is_some())
        .count();
    let mut pinned = std::mem::take(&mut scratch.pinned);
    pinned.clear();
    pinned.extend(
        want.iter()
            .enumerate()
            .filter(|(i, _)| *i != source.index())
            .filter_map(|(_, b)| *b),
    );
    pinned.sort_unstable_by(|a, b| b.cmp(a));

    scratch.standing.clear();
    scratch.standing.resize(
        n,
        Standing {
            label: Label::NONE,
            via: u32::MAX,
            logged: u32::MAX,
        },
    );
    scratch.standing[source.index()].label = Label::SOURCE;
    scratch.heap.clear();
    scratch.log.clear();

    dist[source.index()] = Some(Qos::IDENTITY);
    let mut admitted = 0;
    let mut li = 0u32;
    let mut rest = &pinned[..];
    let mut complete = true;
    'levels: while let Some(&b) = rest.first() {
        if !need.is_empty() && needed == 0 {
            complete = false; // no marked node is reachable
            break;
        }
        let mut unsettled = rest.iter().take_while(|&&p| p == b).count();
        rest = &rest[unsettled..];

        // The links this level admits, offered from the label their tail
        // stands at — the source's own links included, so it is never
        // queued.
        while let Some(&slot) = csr.widest_first.get(admitted) {
            let slot = slot as usize;
            if csr.bandwidth[slot] < b {
                break;
            }
            admitted += 1;
            let tail = csr.tails[slot];
            let from = scratch.standing[tail.index()].label;
            if from != Label::NONE {
                scratch.offer(csr, li, tail, from, slot);
            }
        }

        // Decrease-only propagation until the last node pinned here pops.
        // Pops within a level come in label order, so a fresh entry's label
        // is final for the level.
        while let Some(SweepEntry { label, node }) = scratch.heap.pop() {
            if scratch.standing[node.index()].label != label {
                continue; // superseded by a better label
            }
            if want[node.index()] == Some(b) {
                dist[node.index()] = Some(Qos::new(b, label.latency));
                node_level[node.index()] = li;
                unsettled -= 1;
                if need.get(node.index()) == Some(&true) {
                    needed -= 1;
                    if needed == 0 && !rest.is_empty() {
                        li += 1;
                        complete = false;
                        break 'levels;
                    }
                }
                if unsettled == 0 {
                    // Its own links can wait: back on the heap, it is
                    // scanned at the next level, over that level's links.
                    scratch.heap.push(SweepEntry { label, node });
                    break;
                }
            }
            for slot in csr.adj.range(node) {
                if csr.bandwidth[slot] >= b {
                    scratch.offer(csr, li, node, label, slot);
                }
            }
        }
        li += 1;
    }

    scratch.pinned = pinned; // hand the buffer back for the next sweep
    (li, complete)
}

#[derive(PartialEq, Eq)]
struct LexEntry {
    qos: Qos,
    node: NodeIx,
}

impl Ord for LexEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.qos
            .cmp_shortest_widest(&other.qos)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for LexEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-pass Dijkstra with the lexicographic (bandwidth ↓, latency ↑) key.
///
/// Exact in bandwidth; latency may be over-estimated on topologies where the
/// lowest-latency widest path to a destination runs through a node whose own
/// lexicographically-best label is wider but slower (the key is monotone but
/// not isotone). See the module docs and `tests/prop_routing.rs`.
pub fn single_source_lexicographic<N>(g: &DiGraph<N, Qos>, source: NodeIx) -> PathTree {
    let mut dist: Vec<Option<Qos>> = vec![None; g.node_count()];
    let mut pred: Vec<Option<(NodeIx, EdgeIx)>> = vec![None; g.node_count()];
    let mut done = vec![false; g.node_count()];
    dist[source.index()] = Some(Qos::IDENTITY);
    let mut heap = BinaryHeap::new();
    heap.push(LexEntry {
        qos: Qos::IDENTITY,
        node: source,
    });
    while let Some(LexEntry { qos, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        for e in g.out_edges(node) {
            if e.weight.bandwidth == Bandwidth::ZERO {
                continue;
            }
            let cand = qos.then(*e.weight);
            let slot = &mut dist[e.to.index()];
            if slot.is_none_or(|q| cand.is_better_than(&q)) {
                *slot = Some(cand);
                pred[e.to.index()] = Some((node, e.id));
                heap.push(LexEntry {
                    qos: cand,
                    node: e.to,
                });
            }
        }
    }
    // One level, one entry per labelled node.
    let log: Vec<(NodeIx, Version)> = g
        .node_ids()
        .filter_map(|x| {
            let (pred, edge) = pred[x.index()]?;
            Some((
                x,
                Version {
                    level: 0,
                    pred,
                    edge,
                },
            ))
        })
        .collect();
    // One level if anything is reached.
    let levels = u32::from(!log.is_empty());
    PathTree::new(source, dist, vec![0; g.node_count()], levels, &log)
}

/// All-pairs shortest-widest paths: one exact [`PathTree`] per node.
///
/// This is step 1 of the paper's baseline algorithm (Table 1): "Compute the
/// all-pairs shortest-widest path … using the Wang-Crowcroft algorithm."
///
/// Trees are held behind `Arc`s so an incremental successor table
/// ([`AllPairs::patched_with`]) shares every clean tree with its
/// predecessor by pointer — deriving an epoch costs allocations proportional
/// to the *dirty* set, never a copy of the world. A table carries the
/// [`QosCsr`] of the graph it routes, so a successor reweights it instead of
/// deriving its own.
///
/// A slot is in one of three states. *Materialised*, it holds its tree.
/// *Shadowed* — what a degradation leaves of a tree it invalidated, and
/// what a later gain leaves of a tree or shadow whose source cannot reach
/// it — it holds the slot's last tree and where the degradations since can
/// have moved its destinations, and [`AllPairs::qos`] and
/// [`AllPairs::path`] answer every destination they did not move from that
/// tree; a patch that undoes them makes the tree the slot's own again.
/// *Stale* — what a gain leaves of a tree or shadow whose source reaches
/// it — it holds nothing. A read of a stale slot and every
/// [`AllPairs::tree`] read of a slot that is not materialised sweep it
/// from the table's own CSR. The first read of a moved destination sweeps
/// the row only until every moved destination has settled
/// ([`single_source_moved_csr`]), and that cut-short tree answers the
/// row's moved destinations from then on; a cut-short sweep that reached
/// the last level is the slot's tree.
/// Concurrent first readers of one slot sweep it once and share the
/// result; a row nobody reads, or reads only where no cut moved it, is
/// never routed.
#[derive(Clone, Debug)]
pub struct AllPairs {
    pub(crate) trees: Vec<Slot>,
    pub(crate) csr: Arc<QosCsr>,
}

/// One source's slot of an [`AllPairs`] table: its tree once materialised,
/// and until then, if a degradation left one, the shadow answering for the
/// destinations it did not move, and once one of those was read, the
/// cut-short tree answering for the ones it did. A patch builds fresh
/// slots, so a cut-short tree never outlives the CSR it was swept on; it
/// is never planned against or counted as materialised. A read that sweeps
/// a shadowed row's tree leaves the shadow in place, answering nothing,
/// and the next patch drops it.
///
/// `since` is the net change from the graph the slot's tree was swept on
/// to the table's graph (coalesced: sorted by edge, one record per edge,
/// an edge back at its sweep-time weight dropped). It is empty for a tree
/// swept on the table's own graph — by a build, a read, or a cut-short
/// sweep that reached the last level — so it describes `tree` only when a
/// patch put the tree there, and a tree a read sweeps later inherits the
/// empty list of a slot the patch left without one.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slot {
    pub(crate) tree: OnceLock<Arc<PathTree>>,
    pub(crate) since: Arc<[EdgeChange]>,
    pub(crate) shadow: Option<Shadow>,
    cut_short: OnceLock<Arc<PathTree>>,
}

/// A shadowed slot's last tree, the crossings of every degradation since
/// it was swept, and its tree's `since` (see [`Slot`]): a destination is
/// moved if its reported path passes a crossing ([`PathTree::moved_by`]).
/// Kept as crossings, not as the moved set itself: a patch finds them from
/// the degraded heads' chains alone, where the set would take a walk of
/// every level they cover.
#[derive(Clone, Debug)]
pub(crate) struct Shadow {
    pub(crate) tree: Arc<PathTree>,
    pub(crate) crossings: Arc<[Crossing]>,
    pub(crate) since: Arc<[EdgeChange]>,
}

impl Slot {
    /// A slot holding `tree`, which was swept on the graph that `since`
    /// turns into the table's.
    pub(crate) fn holding(tree: Arc<PathTree>, since: Arc<[EdgeChange]>) -> Self {
        Slot {
            tree: OnceLock::from(tree),
            since,
            ..Slot::default()
        }
    }

    pub(crate) fn shadowed(shadow: Shadow) -> Self {
        Slot {
            shadow: Some(shadow),
            ..Slot::default()
        }
    }

    /// The shadow, unless the slot holds its tree.
    fn live_shadow(&self) -> Option<&Shadow> {
        self.shadow.as_ref().filter(|_| self.tree.get().is_none())
    }
}

thread_local! {
    /// What a slot is swept with on first read: reads take `&self`, so the
    /// scratch is the reading thread's, reused across its sweeps.
    pub(crate) static SWEEP_SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new());
}

impl AllPairs {
    /// A table whose every slot holds its tree.
    pub(crate) fn swept(trees: Vec<Arc<PathTree>>, csr: Arc<QosCsr>) -> Self {
        AllPairs {
            trees: trees
                .into_iter()
                .map(|tree| Slot::holding(tree, Arc::default()))
                .collect(),
            csr,
        }
    }

    /// `from`'s tree, swept first if the slot does not hold it.
    fn swept_tree(&self, from: NodeIx) -> &Arc<PathTree> {
        self.trees[from.index()].tree.get_or_init(|| {
            SWEEP_SCRATCH
                .with_borrow_mut(|scratch| Arc::new(single_source_csr(&self.csr, from, scratch)))
        })
    }

    /// The tree that answers for `to` in `from`'s row: the slot's own, its
    /// shadow's if no cut since moved `to`, its cut-short tree if one did,
    /// or else the slot swept.
    fn answering(&self, from: NodeIx, to: NodeIx) -> &PathTree {
        let slot = &self.trees[from.index()];
        if let Some(tree) = slot.tree.get() {
            return tree;
        }
        match &slot.shadow {
            Some(shadow) if !shadow.tree.moved_by(&shadow.crossings, to) => &shadow.tree,
            Some(shadow) => slot
                .cut_short
                .get_or_init(|| self.swept_short(slot, shadow)),
            None => self.swept_tree(from),
        }
    }

    /// `slot`'s row swept only until every destination the cuts behind
    /// `shadow` moved has settled. A sweep that reached the last level is
    /// the row's tree, and the slot holds it from then on.
    fn swept_short(&self, slot: &Slot, shadow: &Shadow) -> Arc<PathTree> {
        let (tree, complete) = SWEEP_SCRATCH.with_borrow_mut(|scratch| {
            let mut moved = std::mem::take(&mut scratch.moved);
            moved.clear();
            moved.extend((0..self.len()).map(|x| {
                shadow
                    .tree
                    .moved_by(&shadow.crossings, NodeIx::from_index(x))
            }));
            let swept = single_source_moved_csr(&self.csr, &shadow.tree, &moved, scratch);
            scratch.moved = moved;
            swept
        });
        let tree = Arc::new(tree);
        if complete {
            // A concurrent `tree` read may have swept the row first; its
            // tree is this one.
            let _ = slot.tree.set(Arc::clone(&tree));
        }
        tree
    }

    /// The shortest-widest QoS from `from` to `to`. `None` if unreachable.
    pub fn qos(&self, from: NodeIx, to: NodeIx) -> Option<Qos> {
        self.answering(from, to).qos_to(to)
    }

    /// One shortest-widest path from `from` to `to`. `None` if unreachable.
    pub fn path(&self, from: NodeIx, to: NodeIx) -> Option<Vec<NodeIx>> {
        self.answering(from, to).path_to(to)
    }

    /// The tree rooted at `from`.
    pub fn tree(&self, from: NodeIx) -> &PathTree {
        self.swept_tree(from)
    }

    /// How many slots hold their tree; the rest are shadowed or stale
    /// until read.
    pub fn materialised(&self) -> usize {
        self.trees
            .iter()
            .filter(|slot| slot.tree.get().is_some())
            .count()
    }

    /// For a shadowed slot, how many destinations the cuts since its tree
    /// was swept have moved — the ones its cut-short tree answers for;
    /// `None` if the slot holds its tree or is stale. `O(V × hops)`.
    pub fn moved(&self, from: NodeIx) -> Option<usize> {
        self.trees[from.index()].live_shadow()?;
        let moved = (0..self.len())
            .filter(|&x| self.is_moved(from, NodeIx::from_index(x)))
            .count();
        Some(moved)
    }

    /// `true` if `from`'s slot is shadowed and a cut since its tree was
    /// swept moved `to`: a read of `to` is answered by the row's cut-short
    /// tree. `O(hops × crossings)`.
    pub fn is_moved(&self, from: NodeIx, to: NodeIx) -> bool {
        self.trees[from.index()]
            .live_shadow()
            .is_some_and(|shadow| shadow.tree.moved_by(&shadow.crossings, to))
    }

    /// Number of sources (== number of nodes in the routed graph).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// `true` if the routed graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// How many source trees this table shares *by pointer* with `other`
    /// (same `Arc`, zero copies; a shadowed or stale slot shares nothing).
    /// A table patched from a predecessor shares exactly the predecessor's
    /// materialised trees the patch kept; a from-scratch rebuild shares
    /// none.
    pub fn shared_trees(&self, other: &AllPairs) -> usize {
        self.trees
            .iter()
            .zip(&other.trees)
            .filter(|(a, b)| {
                matches!((a.tree.get(), b.tree.get()), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
            })
            .count()
    }
}

/// Computes exact all-pairs shortest-widest paths (`O(V · L · E log V)`)
/// sequentially, over a [`QosCsr`] derived once with one reused scratch.
pub fn all_pairs<N>(g: &DiGraph<N, Qos>) -> AllPairs {
    let csr = QosCsr::new(g);
    let mut scratch = DijkstraScratch::new();
    let trees = g
        .node_ids()
        .map(|n| Arc::new(single_source_csr(&csr, n, &mut scratch)))
        .collect();
    AllPairs::swept(trees, Arc::new(csr))
}

/// All-pairs variant built from the single-pass lexicographic Dijkstra —
/// exact in bandwidth, possibly over-estimating latency. Used by the
/// routing-policy ablation. Every slot holds its tree from the start; such
/// a table is never patched, so none goes stale.
pub fn all_pairs_lexicographic<N>(g: &DiGraph<N, Qos>) -> AllPairs {
    let trees = g
        .node_ids()
        .map(|n| Arc::new(single_source_lexicographic(g, n)))
        .collect();
    AllPairs::swept(trees, Arc::new(QosCsr::new(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::coalesce;

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    /// The classic counter-example where the lexicographic Dijkstra is
    /// suboptimal in latency:
    ///
    /// s → m (bw 10, lat 1)  and  s → m (bw 3, lat 0 via n)
    /// m → t (bw 3, lat 0)
    ///
    /// Widest to t is 3. Exact shortest-widest to t goes s→n→m→t with
    /// latency 0; lexicographic settles m with the (10, 1) label and yields
    /// latency 1.
    fn trap() -> (DiGraph<(), Qos>, NodeIx, NodeIx) {
        let mut g = DiGraph::new();
        let s = g.add_node(());
        let n = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, m, q(10, 1));
        g.add_edge(s, n, q(3, 0));
        g.add_edge(n, m, q(3, 0));
        g.add_edge(m, t, q(3, 0));
        (g, s, t)
    }

    #[test]
    fn exact_beats_lexicographic_on_trap() {
        let (g, s, t) = trap();
        let exact = single_source(&g, s);
        let lex = single_source_lexicographic(&g, s);
        assert_eq!(exact.qos_to(t).unwrap(), q(3, 0));
        assert_eq!(lex.qos_to(t).unwrap(), q(3, 1));
        // Bandwidth must agree — the lexicographic variant is widest-exact.
        assert_eq!(
            exact.qos_to(t).unwrap().bandwidth,
            lex.qos_to(t).unwrap().bandwidth
        );
    }

    #[test]
    fn source_has_identity_and_trivial_path() {
        let (g, s, _) = trap();
        let tree = single_source(&g, s);
        assert_eq!(tree.qos_to(s), Some(Qos::IDENTITY));
        assert_eq!(tree.path_to(s), Some(vec![s]));
        assert_eq!(tree.hops_to(s), Some(0));
        assert_eq!(tree.source(), s);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, q(1, 1));
        g.add_edge(c, a, q(1, 1)); // c reaches a, but a does not reach c
        let tree = single_source(&g, a);
        assert_eq!(tree.qos_to(c), None);
        assert_eq!(tree.path_to(c), None);
        assert_eq!(tree.hops_to(c), None);
    }

    #[test]
    fn zero_bandwidth_links_are_unusable() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, q(0, 1));
        let tree = single_source(&g, a);
        assert_eq!(tree.qos_to(b), None);
        let lex = single_source_lexicographic(&g, a);
        assert_eq!(lex.qos_to(b), None);
    }

    #[test]
    fn widest_wins_over_shorter() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, q(1, 1)); // direct but narrow
        g.add_edge(a, b, q(10, 5));
        g.add_edge(b, c, q(10, 5));
        let tree = single_source(&g, a);
        assert_eq!(tree.qos_to(c).unwrap(), q(10, 10));
        assert_eq!(tree.path_to(c).unwrap(), vec![a, b, c]);
        assert_eq!(tree.hops_to(c), Some(2));
    }

    #[test]
    fn hops_count_without_materialising_the_path() {
        let (g, s, _) = trap();
        let tree = single_source(&g, s);
        for n in g.node_ids() {
            assert_eq!(
                tree.hops_to(n),
                tree.path_to(n).map(|p| p.len() - 1),
                "node {n:?}"
            );
        }
    }

    #[test]
    fn tie_on_bandwidth_breaks_by_latency() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, q(5, 3)); // same bw, faster
        g.add_edge(a, b, q(5, 5));
        g.add_edge(b, c, q(5, 5));
        let tree = single_source(&g, a);
        assert_eq!(tree.qos_to(c).unwrap(), q(5, 3));
        assert_eq!(tree.path_to(c).unwrap(), vec![a, c]);
    }

    #[test]
    fn path_metrics_match_reported_qos() {
        let (g, s, t) = trap();
        let tree = single_source(&g, s);
        for n in g.node_ids() {
            let Some(reported) = tree.qos_to(n) else {
                continue;
            };
            let path = tree.path_to(n).unwrap();
            let mut acc = Qos::IDENTITY;
            for w in path.windows(2) {
                let e = g.find_edge(w[0], w[1]).unwrap();
                acc = acc.then(*g.edge(e));
            }
            if n != s {
                assert_eq!(acc, reported, "node {n:?}");
            }
        }
        let _ = t;
    }

    #[test]
    fn all_pairs_agrees_with_single_source() {
        let (g, s, t) = trap();
        let ap = all_pairs(&g);
        assert_eq!(ap.len(), 4);
        assert!(!ap.is_empty());
        assert_eq!(ap.qos(s, t), single_source(&g, s).qos_to(t));
        assert_eq!(ap.path(s, t), single_source(&g, s).path_to(t));
        assert_eq!(ap.tree(s).source(), s);
    }

    #[test]
    fn empty_graph_all_pairs() {
        let g: DiGraph<(), Qos> = DiGraph::new();
        let ap = all_pairs(&g);
        assert!(ap.is_empty());
    }

    #[test]
    fn scratch_reuse_is_observationally_identical() {
        let (g, s, _) = trap();
        let csr = QosCsr::new(&g);
        let mut scratch = DijkstraScratch::new();
        for n in g.node_ids() {
            let fresh = single_source(&g, n);
            let reused = single_source_csr(&csr, n, &mut scratch);
            for m in g.node_ids() {
                assert_eq!(fresh.qos_to(m), reused.qos_to(m));
                assert_eq!(fresh.path_to(m), reused.path_to(m));
            }
        }
        let _ = s;
    }

    #[test]
    fn shared_trees_counts_pointer_identity() {
        let (g, ..) = trap();
        let a = all_pairs(&g);
        let b = a.clone(); // clones the Arcs, not the trees
        assert_eq!(a.shared_trees(&b), a.len());
        let rebuilt = all_pairs(&g);
        assert_eq!(a.shared_trees(&rebuilt), 0);
    }

    #[test]
    fn traverses_any_sees_exactly_the_tree_edges() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let wide = g.add_edge(a, b, q(10, 1));
        let narrow = g.add_edge(a, b, q(1, 0)); // loses on bandwidth: unused
        let tree = single_source(&g, a);
        let mut marked = vec![false; g.edge_count()];
        marked[narrow.index()] = true;
        assert!(!tree.traverses_any(&marked));
        marked[wide.index()] = true;
        assert!(tree.traverses_any(&marked));
        assert!(!tree.traverses_any(&[]));
    }

    #[test]
    fn traversal_floor_screens_lower_levels() {
        // a→b is used at level 10 (b's bottleneck). A floor at or above the
        // level must report clean; below the level, dirty.
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e = g.add_edge(a, b, q(10, 1));
        let tree = single_source(&g, a);
        let mut scratch = TraversalScratch::new();
        let mut floors = vec![Bandwidth::INFINITE; g.edge_count()];
        floors[e.index()] = Bandwidth::kbps(10); // edge survives at its level
        assert!(!tree.traverses_above(&floors, &mut scratch));
        floors[e.index()] = Bandwidth::kbps(9); // level 10 > floor 9: dirty
        assert!(tree.traverses_above(&floors, &mut scratch));
        floors[e.index()] = Bandwidth::ZERO;
        assert!(tree.traverses_above(&floors, &mut scratch));
    }

    /// `reweighted` is `fresh` in everything but the order of equal
    /// bandwidths in `widest_first`, which only has to descend.
    fn same_csr(reweighted: &QosCsr, fresh: &QosCsr) -> bool {
        let mut nodes = (0..fresh.node_count()).map(NodeIx::from_index);
        let mut slots = reweighted.widest_first.clone();
        slots.sort_unstable();
        reweighted.bandwidth == fresh.bandwidth
            && reweighted.latency == fresh.latency
            && reweighted.tails == fresh.tails
            && reweighted.slot_of == fresh.slot_of
            && reweighted.adj.targets() == fresh.adj.targets()
            && reweighted.adj.edges() == fresh.adj.edges()
            && nodes.all(|x| reweighted.adj.range(x) == fresh.adj.range(x))
            && slots.iter().copied().eq(0..fresh.widest_first.len() as u32)
            && reweighted
                .widest_first
                .windows(2)
                .all(|w| reweighted.bandwidth[w[0] as usize] >= reweighted.bandwidth[w[1] as usize])
    }

    proptest::proptest! {
        /// Twenty reweights in a row, each checked against a fresh build of
        /// the graph of the day — as a layout and by the trees the kernel
        /// sweeps from every source over it. Tiny domains make parallel
        /// links, equal bandwidths and zero-bandwidth links common.
        #[test]
        fn a_reweighted_csr_is_the_fresh_one(
            nodes in 2usize..7,
            edges in proptest::collection::vec((0usize..7, 0usize..7, 0u64..6, 0u64..4), 1..30),
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..6),
                20,
            ),
        ) {
            let mut g: DiGraph<(), Qos> = DiGraph::new();
            let ids: Vec<NodeIx> = (0..nodes).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in edges {
                if a % nodes != b % nodes {
                    g.add_edge(ids[a % nodes], ids[b % nodes], q(bw, lat));
                }
            }
            if g.edge_count() == 0 {
                return Ok(());
            }
            let mut csr = QosCsr::new(&g);
            let mut scratch = DijkstraScratch::new();
            for batch in batches {
                let mut changes = Vec::new();
                for (raw, bw, lat) in batch {
                    let edge = EdgeIx::from_index(raw % g.edge_count());
                    let old = std::mem::replace(g.edge_mut(edge), q(bw, lat));
                    changes.push(EdgeChange { edge, old, new: q(bw, lat) });
                }
                csr = csr.reweighted(&coalesce(&g, &changes));
                let fresh = QosCsr::new(&g);
                proptest::prop_assert!(same_csr(&csr, &fresh));
                for s in g.node_ids() {
                    let mine = single_source_csr(&csr, s, &mut scratch);
                    let theirs = single_source_csr(&fresh, s, &mut scratch);
                    for x in g.node_ids() {
                        proptest::prop_assert_eq!(mine.qos_to(x), theirs.qos_to(x));
                        proptest::prop_assert_eq!(mine.path_to(x), theirs.path_to(x));
                        proptest::prop_assert_eq!(mine.hops_to(x), theirs.hops_to(x));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_edges_pick_the_better() {
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, q(2, 10));
        g.add_edge(a, b, q(9, 10));
        g.add_edge(a, b, q(9, 3));
        let tree = single_source(&g, a);
        assert_eq!(tree.qos_to(b).unwrap(), q(9, 3));
    }
}
