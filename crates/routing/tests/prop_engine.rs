//! Property-based parity tests for the incremental engine.
//!
//! One oracle, the from-scratch build, compared in QoS *and* path — a
//! patched table must be the table a rebuild would produce, down to the
//! tie-breaks, because a kept tree stands in for a recomputed one:
//!
//! * [`AllPairs::patched_with`] after a random batch of 1–8 edge-QoS
//!   mutations — degradations, improvements, mixed, unusable (zero
//!   bandwidth) and zero-latency links, duplicates for one edge — and after
//!   a *sequence* of such batches, each patched from the last patched table,
//!   independent or aimed at the edges the batch before hit;
//! * cutting k links in one batch and restoring them in the next returns the
//!   original table;
//! * a lineage whose tables are read only in part between batches, so
//!   patches plan over partly stale tables: every row read, and every row
//!   once all are forced, is the rebuild's (QoS, path and hop count), and
//!   each patch invalidates exactly what it would on the eagerly swept
//!   twin of the same table, restricted to the slots it had materialised;
//! * a lineage of mostly degradations with random `(row, destination)`
//!   reads in between: every read is the rebuild's, and it materialises
//!   its row exactly when a gain its source reaches left the row stale,
//!   or a degradation since the row's tree moved the destination read (its
//!   path crosses a link now narrower than the path or slower than at the
//!   sweep) and the row's cut-short sweep reaches its last level;
//! * on the same lineages, a cut-short sweep answers every node it settled
//!   as the full sweep does, in QoS, path and level, and settles every
//!   moved node a path reaches.
//!
//! Plus three structural properties: a patch shares every materialised tree
//! it keeps with its predecessor by `Arc` pointer
//! (`shared_trees(next) == materialised(pred) − trees_recomputed`), the
//! dirty rules never recompute more
//! trees than the coarse rules they refine (a bandwidth cut dirties every
//! tree traversing the edge, anything else every source reaching its tail),
//! and a pure cut — planned from the cut edges' heads, walked only at the
//! levels they stand at — recomputes exactly the trees the public full walk
//! (`PathTree::traverses_above`) finds, on trees kept through earlier
//! patches too.
//!
//! Case count: `PROPTEST_CASES` (default 64); CI runs 20 000 in release.

use std::collections::VecDeque;

use proptest::prelude::*;
use sflow_graph::{DiGraph, NodeIx};
use sflow_routing::shortest_widest::{single_source_csr, single_source_moved_csr};
use sflow_routing::{
    all_pairs, AllPairs, Bandwidth, DijkstraScratch, EdgeChange, Latency, PathTree, Qos, QosCsr,
    TraversalScratch,
};

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

/// Small graphs over tiny bandwidth and latency domains, so bottleneck
/// ties, latency ties, zero-latency links and unusable links — the hard
/// cases for a rule that must reproduce tie-breaks — are all common.
fn graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    (3usize..10).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n, 0..n, 0u64..6, 0u64..4), 1..(n * (n - 1)).max(2));
        edges.prop_map(move |es| {
            let mut g = DiGraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in es {
                if a != b {
                    g.add_edge(ids[a], ids[b], q(bw, lat));
                }
            }
            g
        })
    })
}

/// A batch of edge-QoS mutations: per mutation an edge index (reduced
/// modulo the edge count, so one edge can be hit twice), a new bandwidth
/// and a new latency.
type MutationBatch = Vec<(usize, u64, u64)>;

fn batch_strategy() -> impl Strategy<Value = MutationBatch> {
    proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..9)
}

/// Writes `batch` into `g`, returning the change records the way
/// `OverlayGraph::update_link_qos` would produce them.
fn apply(g: &mut DiGraph<(), Qos>, batch: &MutationBatch) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    batch
        .iter()
        .map(|&(raw, bw, lat)| {
            let edge = edge_ids[raw % edge_ids.len()];
            let old = *g.edge(edge);
            let new = q(bw, lat);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// A follow-up mutation aimed at what the batch before it changed: `(aim,
/// raw, bandwidth, latency)`. A kept tree is re-read by later patches, so
/// the lineages that matter re-hit the same few edges — narrow and speed up
/// an edge, then widen another edge into the same head — and independent
/// random batches almost never draw them.
type FollowUp = Vec<(usize, usize, u64, u64)>;

fn follow_up_strategy() -> impl Strategy<Value = FollowUp> {
    proptest::collection::vec((0usize..4, 0usize..64, 0u64..6, 0u64..4), 1..4)
}

/// Writes `follow_up` into `g`. Per mutation, `aim` picks the edge: `0` one
/// the previous batch changed, `1` one the previous batch changed, put back
/// to the weight it had before that batch, `2` an in-edge of the head of
/// one the previous batch changed, `3` any edge.
fn apply_follow_up(
    g: &mut DiGraph<(), Qos>,
    previous: &[EdgeChange],
    follow_up: &FollowUp,
) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    follow_up
        .iter()
        .map(|&(aim, raw, bw, lat)| {
            let hit = previous[raw % previous.len()];
            let (edge, new) = match aim {
                0 => (hit.edge, q(bw, lat)),
                1 => (hit.edge, hit.old),
                2 => {
                    let (_, head, _) = g.edge_parts(hit.edge);
                    let into = g.in_edge_ids(head);
                    (into[raw / previous.len() % into.len()], q(bw, lat))
                }
                _ => (edge_ids[raw % edge_ids.len()], q(bw, lat)),
            };
            let old = *g.edge(edge);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// `table` is the table a from-scratch build of `g` produces, in QoS, path
/// and hop count. The message carries the whole case: the shim does not
/// shrink.
fn assert_is_rebuild(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    changes: &[EdgeChange],
) -> Result<(), TestCaseError> {
    assert_rows_are_rebuild(table, g, |_| true, changes)
}

/// [`assert_is_rebuild`] for the rows `read` picks; the rest are not read,
/// so a shadowed or stale one stays so.
fn assert_rows_are_rebuild(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    read: impl Fn(NodeIx) -> bool,
    changes: &[EdgeChange],
) -> Result<(), TestCaseError> {
    let rebuilt = all_pairs(g);
    let case = |u: NodeIx, v: NodeIx| {
        let edges: Vec<_> = g.edges().map(|e| (e.from, e.to, *e.weight)).collect();
        format!("{u:?}->{v:?}, graph now {edges:?}, after {changes:?}")
    };
    for u in g.node_ids().filter(|&u| read(u)) {
        // Every `qos` and `path` read before `tree`, which sweeps the row:
        // a shadowed row answers its unmoved destinations from its shadow.
        for v in g.node_ids() {
            prop_assert_eq!(table.qos(u, v), rebuilt.qos(u, v), "qos {}", case(u, v));
            prop_assert_eq!(table.path(u, v), rebuilt.path(u, v), "path {}", case(u, v));
        }
        for v in g.node_ids() {
            prop_assert_eq!(
                table.tree(u).hops_to(v),
                rebuilt.tree(u).hops_to(v),
                "hops {}",
                case(u, v)
            );
        }
    }
    Ok(())
}

/// Cuts each drawn link to at most the drawn bandwidth, latency untouched
/// (a link already that narrow is left as it is), returning the change
/// records.
fn cut(g: &mut DiGraph<(), Qos>, cuts: &[(usize, u64)]) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    cuts.iter()
        .map(|&(raw, left)| {
            let edge = edge_ids[raw % edge_ids.len()];
            let old = *g.edge(edge);
            let new = Qos::new(old.bandwidth.min(Bandwidth::kbps(left)), old.latency);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// [`graph_strategy`] with one link per ordered pair at most: a path names
/// its links by their endpoints, so a test that checks a reported path
/// link by link needs no parallel links.
fn simple_graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    graph_strategy().prop_map(|g| {
        let mut simple = DiGraph::new();
        for _ in g.node_ids() {
            simple.add_node(());
        }
        for e in g.edges() {
            if simple.find_edge(e.from, e.to).is_none() {
                simple.add_edge(e.from, e.to, *e.weight);
            }
        }
        simple
    })
}

/// `true` if the path `table` reports from `u` to `x` has a link `g` now
/// carries narrower than the path's bandwidth: the destinations a pure cut
/// moves, read off the predecessor's answers.
fn crosses_a_cut(table: &AllPairs, g: &DiGraph<(), Qos>, u: NodeIx, x: NodeIx) -> bool {
    narrowed(g, table.qos(u, x), table.path(u, x))
}

/// [`crosses_a_cut`] for one tree: `true` if the path `tree` reports to
/// `x` has a link `g` now carries narrower than the path's bandwidth.
fn tree_crosses_a_cut(tree: &PathTree, g: &DiGraph<(), Qos>, x: NodeIx) -> bool {
    narrowed(g, tree.qos_to(x), tree.path_to(x))
}

/// `true` if a reported `path` at `qos` has a link `g` now carries
/// narrower than the path's bandwidth.
fn narrowed(g: &DiGraph<(), Qos>, qos: Option<Qos>, path: Option<Vec<NodeIx>>) -> bool {
    let (Some(qos), Some(path)) = (qos, path) else {
        return false;
    };
    path.windows(2).any(|hop| {
        let link = g.find_edge(hop[0], hop[1]).expect("a reported link exists");
        g.edge(link).bandwidth < qos.bandwidth
    })
}

/// What a row of a table holds, as far as the test can tell from outside,
/// with the edge weights of the graph each of its trees was swept on.
#[derive(Clone, Debug)]
enum Row {
    /// Its tree, swept on `swept`: no read sweeps it, and a patch judges
    /// that tree alone, whatever the row held before a read swept it.
    Materialised { swept: Vec<Qos> },
    /// A shadow: a read of a destination its `moved` marks sweeps the row
    /// cut short (in full only if that reaches the row's last level), a
    /// read of any other does not.
    Shadowed(Shade),
    /// Nothing: the next read sweeps it.
    Stale,
}

/// A shadow's tree as the model knows it: the weights it was swept on,
/// what it reports to each destination, and which of those the cuts
/// since have moved.
#[derive(Clone, Debug)]
struct Shade {
    swept: Vec<Qos>,
    answers: Vec<(Option<Qos>, Option<Vec<NodeIx>>)>,
    moved: Vec<bool>,
}

/// The weight of every edge of `g`, in edge order.
fn weights(g: &DiGraph<(), Qos>) -> Vec<Qos> {
    g.edges().map(|e| *e.weight).collect()
}

/// `true` if a reported `path` at `qos`, swept on `swept`, has a link `g`
/// now carries narrower than the path's bandwidth or slower than at the
/// sweep: a destination the net change's degradations move.
fn degraded(
    swept: &[Qos],
    g: &DiGraph<(), Qos>,
    qos: Option<Qos>,
    path: Option<Vec<NodeIx>>,
) -> bool {
    let (Some(qos), Some(path)) = (qos, path) else {
        return false;
    };
    path.windows(2).any(|hop| {
        let link = g.find_edge(hop[0], hop[1]).expect("a reported link exists");
        let now = g.edge(link);
        now.bandwidth < qos.bandwidth || now.latency > swept[link.index()].latency
    })
}

/// `true` if `u` reaches, over links `g` carries with positive bandwidth,
/// the tail of a link now wider or faster than on `swept`.
fn reaches_a_gain(swept: &[Qos], g: &DiGraph<(), Qos>, u: NodeIx) -> bool {
    let mut seen = vec![false; g.node_count()];
    let mut queue: VecDeque<NodeIx> = g
        .edges()
        .filter(|e| {
            let was = swept[e.id.index()];
            e.weight.bandwidth > was.bandwidth || e.weight.latency < was.latency
        })
        .map(|e| e.from)
        .collect();
    while let Some(v) = queue.pop_front() {
        if std::mem::replace(&mut seen[v.index()], true) {
            continue;
        }
        for &eid in g.in_edge_ids(v) {
            let (from, _, w) = g.edge_parts(eid);
            if w.bandwidth > Bandwidth::ZERO {
                queue.push_back(from);
            }
        }
    }
    seen[u.index()]
}

/// A shadow judged on its own net change, whose gains, if any, its
/// source does not reach: it moves the destinations whose reported path
/// crosses a link the change degraded, and is the row's tree again
/// (`true`) if that moves none.
fn revive(mut shade: Shade, g: &DiGraph<(), Qos>) -> (Row, bool) {
    shade.moved = shade
        .answers
        .iter()
        .map(|(qos, path)| degraded(&shade.swept, g, *qos, path.clone()))
        .collect();
    if shade.moved.contains(&true) {
        (Row::Shadowed(shade), false)
    } else {
        (Row::Materialised { swept: shade.swept }, true)
    }
}

/// The coarse rules the engine's dirty plan refines: a pure bandwidth cut
/// dirties every tree traversing the edge at any level; everything else
/// dirties every source that can reach the edge's tail. Kept here as the
/// upper-bound oracle.
fn coarse_rule_dirty_count(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    changes: &[EdgeChange],
) -> usize {
    let n = g.node_count();
    let mut dirty = vec![false; n];
    let mut cut = vec![false; g.edge_count()];
    let mut any_cut = false;
    for c in changes.iter().filter(|c| !c.is_noop()) {
        if c.is_degradation() && c.new.latency == c.old.latency {
            cut[c.edge.index()] = true;
            any_cut = true;
        } else {
            let (tail, _, _) = g.edge_parts(c.edge);
            let mut seen = vec![false; n];
            let mut queue = VecDeque::new();
            seen[tail.index()] = true;
            dirty[tail.index()] = true;
            queue.push_back(tail);
            while let Some(v) = queue.pop_front() {
                for &eid in g.in_edge_ids(v) {
                    let (from, _, w) = g.edge_parts(eid);
                    if w.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                        continue;
                    }
                    seen[from.index()] = true;
                    dirty[from.index()] = true;
                    queue.push_back(from);
                }
            }
        }
    }
    if any_cut {
        for (i, node) in g.node_ids().enumerate() {
            if !dirty[i] && table.tree(node).traverses_any(&cut) {
                dirty[i] = true;
            }
        }
    }
    dirty.iter().filter(|&&d| d).count()
}

proptest! {
    #[test]
    fn patch_matches_from_scratch_rebuild(
        g in graph_strategy(),
        batch in batch_strategy(),
    ) {
        let mut g = g;
        // Every generated tuple can be a self-loop, leaving no edges to
        // mutate; nothing to check then.
        if g.edge_count() == 0 {
            return Ok(());
        }
        let before = all_pairs(&g);
        let changes = apply(&mut g, &batch);
        let (table, _) = before.patched_with(&g, &changes, 1);
        assert_is_rebuild(&table, &g, &changes)?;
    }

    #[test]
    fn successive_patches_compose(
        g in graph_strategy(),
        batches in proptest::collection::vec(batch_strategy(), 2..5),
    ) {
        // A kept tree is patched again and again in a server's life; what a
        // later rule reads off it must still hold after earlier batches.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for batch in &batches {
            let changes = apply(&mut g, batch);
            table = table.patched_with(&g, &changes, 1).0;
            assert_is_rebuild(&table, &g, &changes)?;
        }
    }

    #[test]
    fn follow_ups_on_the_same_edges_compose(
        g in graph_strategy(),
        first in batch_strategy(),
        follow_ups in proptest::collection::vec(follow_up_strategy(), 1..5),
    ) {
        // The labels a kept tree records but no reported path reads are the
        // ones a later patch can find stale: keep hitting the edges the last
        // batch hit, and the in-edges of their heads.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        let mut changes = apply(&mut g, &first);
        table = table.patched_with(&g, &changes, 1).0;
        assert_is_rebuild(&table, &g, &changes)?;
        for follow_up in &follow_ups {
            changes = apply_follow_up(&mut g, &changes, follow_up);
            table = table.patched_with(&g, &changes, 1).0;
            assert_is_rebuild(&table, &g, &changes)?;
        }
    }

    #[test]
    fn cutting_links_then_restoring_them_returns_the_original_table(
        g in graph_strategy(),
        cuts in proptest::collection::vec((0usize..64, 0u64..6), 1..9),
    ) {
        // The shape of a forest's life: k links lose bandwidth in one batch
        // and get it back in another.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let original = all_pairs(&g);
        let cut = cut(&mut g, &cuts);
        let (clamped, cut_stats) = original.patched_with(&g, &cut, 1);
        // Read in full through a clone: a cloned slot's `OnceLock` is its
        // own, so `clamped` stays as the cut left it.
        let read = clamped.clone();
        assert_is_rebuild(&read, &g, &cut)?;

        let mut restore = Vec::new();
        for c in cut.iter().rev() {
            let old = *g.edge(c.edge);
            *g.edge_mut(c.edge) = c.old;
            restore.push(EdgeChange { edge: c.edge, old, new: c.old });
        }
        let (restored, restore_stats) = clamped.patched_with(&g, &restore, 1);
        // The restore undoes the cut: every row holds its original tree
        // again, each one the cut shadowed restored, and no tree is
        // invalidated.
        prop_assert_eq!(original.shared_trees(&restored), original.len());
        prop_assert_eq!(restore_stats.trees_recomputed, 0);
        prop_assert_eq!(restore_stats.trees_restored, cut_stats.trees_recomputed);
        assert_is_rebuild(&restored, &g, &restore)?;
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(restored.qos(u, v), original.qos(u, v));
                prop_assert_eq!(restored.path(u, v), original.path(u, v));
            }
        }
        // On the copy read in full, each row the cut shadowed holds a tree
        // swept since, and the restore judges that tree alone: no shadow
        // is restored, and only the rows the cut kept share the original's.
        let (reread, reread_stats) = read.patched_with(&g, &restore, 1);
        prop_assert_eq!(reread_stats.trees_restored, 0);
        prop_assert_eq!(
            original.shared_trees(&reread),
            original.len() - cut_stats.trees_recomputed
        );
        assert_is_rebuild(&reread, &g, &restore)?;
    }

    #[test]
    fn an_undone_cut_hands_every_row_back_its_tree(
        g in graph_strategy(),
        lineage in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u64..6), 1..5),
            1..4,
        ),
        reads in proptest::collection::vec((0usize..16, 0usize..16, 0u8..4), 0..16),
        inverse in (
            proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 0..4),
            0usize..64,
            1usize..4,
        ),
    ) {
        // A lineage of pure cuts from a fresh table, then reads in part —
        // `qos` and `path` of random pairs, answered from the shadows or
        // by cut-short sweeps, and now and then a row's whole tree — then
        // the exact inverse, nobody reading, in one to three patches: its
        // records in any order across edges, each edge's in one patch, and
        // some edges taken through a detour weight first (two records,
        // folded by the patch). Every row no read materialised holds the
        // tree it held before the first cut: a kept tree as it is, a shadow
        // restored. A row a read materialised is judged by the tree that
        // read swept, alone: its shadow is dropped, and the inverse is a
        // gain on that tree's graph, so the row is left stale if its source
        // reaches a link the inverse widens, and is held otherwise.
        let (detours, order, patches) = inverse;
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let n = g.node_count();
        let node = NodeIx::from_index;
        let first = weights(&g);
        let original = all_pairs(&g);
        let mut table = original.clone();
        let mut cuts_made = Vec::new();
        for cuts in &lineage {
            let changes = cut(&mut g, cuts);
            table = table.patched_with(&g, &changes, 1).0;
            cuts_made.extend(changes);
        }
        let rebuilt = all_pairs(&g);
        for &(u, x, whole) in &reads {
            let (u, x) = (node(u % n), node(x % n));
            if whole == 0 {
                prop_assert_eq!(table.tree(u).qos_to(x), rebuilt.qos(u, x));
            }
            prop_assert_eq!(table.qos(u, x), rebuilt.qos(u, x));
            prop_assert_eq!(table.path(u, x), rebuilt.path(u, x));
        }
        let kept = original.shared_trees(&table);
        let swept = table.materialised() - kept;
        let at_cut = weights(&g);
        let swept_rows: Vec<NodeIx> = {
            // Which rows hold a tree a read swept, asked of a clone read in
            // full: a cloned slot's `OnceLock` is its own.
            let read = table.clone();
            g.node_ids()
                .filter(|&u| {
                    table.moved(u).is_none() && !std::ptr::eq(read.tree(u), original.tree(u))
                })
                .collect()
        };
        prop_assert_eq!(swept_rows.len(), swept);

        let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
        let mut h = g.clone();
        let mut inverse = Vec::new();
        for &(raw, bw, lat) in &detours {
            let edge = edge_ids[raw % edge_ids.len()];
            let old = std::mem::replace(h.edge_mut(edge), q(bw, lat));
            inverse.push(EdgeChange { edge, old, new: q(bw, lat) });
        }
        for &edge in &edge_ids {
            let new = first[edge.index()];
            let old = std::mem::replace(h.edge_mut(edge), new);
            if old != new {
                inverse.push(EdgeChange { edge, old, new });
            }
        }
        // Any order across edges; one edge's records stay in order, and in
        // one patch.
        inverse.sort_by_key(|c| (c.edge.index() * 7 + order) % 11);
        let mut restored = table;
        let (mut recomputed, mut brought_back) = (0, 0);
        for part in 0..patches {
            let batch: Vec<EdgeChange> = inverse
                .iter()
                .filter(|c| (c.edge.index() * 5 + order) % patches == part)
                .copied()
                .collect();
            for c in &batch {
                *g.edge_mut(c.edge) = c.new;
            }
            let (next, stats) = restored.patched_with(&g, &batch, 1);
            recomputed += stats.trees_recomputed;
            brought_back += stats.trees_restored;
            restored = next;
        }
        let at = format!("cuts {cuts_made:?}, inverse {inverse:?} in {patches}");
        let stale = swept_rows
            .iter()
            .filter(|&&u| reaches_a_gain(&at_cut, &g, u))
            .count();
        prop_assert_eq!(recomputed, stale, "{}", at);
        prop_assert_eq!(brought_back, n - kept - swept, "{}", at);
        prop_assert_eq!(original.shared_trees(&restored), n - swept, "{}", at);
        prop_assert_eq!(restored.materialised(), n - stale, "{}", at);
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(restored.qos(u, v), original.qos(u, v));
                prop_assert_eq!(restored.path(u, v), original.path(u, v));
            }
        }
    }

    #[test]
    fn a_gain_that_undoes_some_cuts_moves_what_the_rest_of_the_net_cut_crosses(
        g in simple_graph_strategy(),
        lineage in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u64..6), 1..5),
            1..4,
        ),
        undo in proptest::collection::vec((0usize..64, 0u64..7), 1..5),
    ) {
        // A lineage of pure cuts from a fresh table, nobody reading, then
        // one batch that widens some cut links back to their first weight
        // or part of the way. Against the first graph, which every
        // shadow's tree was swept on, the net change is still a pure cut
        // (or nothing): each shadowed row stays shadowed, moving exactly
        // the destinations whose first path crosses a link now narrower
        // than the path, or holds its first tree again if that moves none.
        // Every read is the rebuild's.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let n = g.node_count();
        let node = NodeIx::from_index;
        let first = weights(&g);
        let original = all_pairs(&g);
        let mut table = original.clone();
        let mut cut_edges = Vec::new();
        for cuts in &lineage {
            let changes = cut(&mut g, cuts);
            table = table.patched_with(&g, &changes, 1).0;
            cut_edges.extend(changes.iter().map(|c| c.edge));
        }
        let shadowed: Vec<bool> = (0..n).map(|u| table.moved(node(u)).is_some()).collect();

        let changes: Vec<EdgeChange> = undo
            .iter()
            .map(|&(raw, bw)| {
                let edge = cut_edges[raw % cut_edges.len()];
                let (now, was) = (*g.edge(edge), first[edge.index()]);
                let widened = now.bandwidth.max(Bandwidth::kbps(bw)).min(was.bandwidth);
                let new = Qos::new(widened, now.latency);
                *g.edge_mut(edge) = new;
                EdgeChange { edge, old: now, new }
            })
            .collect();
        let (next, stats) = table.patched_with(&g, &changes, 1);
        let mut restored = 0;
        for u in (0..n).filter(|&u| shadowed[u]) {
            let moved: Vec<bool> =
                (0..n).map(|x| crosses_a_cut(&original, &g, node(u), node(x))).collect();
            let count = moved.iter().filter(|&&m| m).count();
            if count == 0 {
                restored += 1;
                prop_assert_eq!(next.moved(node(u)), None, "row {} after {:?}", u, changes);
                prop_assert!(std::ptr::eq(next.tree(node(u)), original.tree(node(u))));
            } else {
                prop_assert_eq!(next.moved(node(u)), Some(count), "row {} after {:?}", u, changes);
                for (x, &m) in moved.iter().enumerate() {
                    prop_assert_eq!(next.is_moved(node(u), node(x)), m);
                }
            }
        }
        prop_assert_eq!(stats.trees_restored, restored, "after {:?}", changes);
        assert_is_rebuild(&next, &g, &changes)?;
    }

    #[test]
    fn a_cut_recomputes_exactly_the_trees_the_full_walk_finds(
        g in graph_strategy(),
        lineage in proptest::collection::vec(batch_strategy(), 0..3),
        cuts in proptest::collection::vec((0usize..64, 0u64..6), 1..9),
    ) {
        // The plan answers a cut from the cut edges' heads and walks only
        // the levels they stand at; it must dirty exactly the trees the
        // public full walk does — on trees kept through earlier patches too.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for batch in &lineage {
            let changes = apply(&mut g, batch);
            table = table.patched_with(&g, &changes, 1).0;
        }
        let before = g.clone();
        let cut = cut(&mut g, &cuts);
        let floors: Vec<Bandwidth> = before
            .edges()
            .zip(g.edges())
            .map(|(was, now)| {
                if now.weight.bandwidth < was.weight.bandwidth {
                    now.weight.bandwidth
                } else {
                    Bandwidth::INFINITE
                }
            })
            .collect();
        let mut scratch = TraversalScratch::new();
        let walked = g
            .node_ids()
            .filter(|&s| table.tree(s).traverses_above(&floors, &mut scratch))
            .count();
        let (next, stats) = table.patched_with(&g, &cut, 1);
        prop_assert_eq!(stats.trees_recomputed, walked, "after {:?}", cut);
        assert_is_rebuild(&next, &g, &cut)?;
    }

    #[test]
    fn a_table_read_in_part_is_the_eager_table(
        g in graph_strategy(),
        batches in proptest::collection::vec((batch_strategy(), 0u16..1024, 0u16..1024), 1..6),
    ) {
        // A patch leaves every slot it invalidates stale, a stale slot stays
        // stale with no plan, and the first read sweeps it. Between batches
        // only the rows the two masks (ANDed: about a quarter) pick are
        // read, so lineages cut, widen and re-time tables whose slots are
        // partly stale. Against an eager twin — the same table with every
        // slot forced, so it holds the very same `Arc`s wherever this one
        // is materialised — each patch must invalidate exactly the eager
        // dirty set restricted to the materialised slots, and every row
        // read, and at the end every row, must be the rebuild's.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for (batch, reads, also) in &batches {
            let changes = apply(&mut g, batch);
            let eager = table.clone();
            for s in g.node_ids() {
                eager.tree(s);
            }
            let materialised = table.materialised();
            let (next, stats) = table.patched_with(&g, &changes, 1);
            let (eager_next, eager_stats) = eager.patched_with(&g, &changes, 1);
            prop_assert!(stats.trees_recomputed <= eager_stats.trees_recomputed);
            prop_assert_eq!(
                table.shared_trees(&next),
                materialised - stats.trees_recomputed
            );
            prop_assert_eq!(
                next.materialised(),
                materialised - stats.trees_recomputed + stats.trees_restored
            );
            // Forcing the predecessor now gives its stale slots fresh
            // `Arc`s: only the slots it had materialised match the twin's.
            let invalidated = g
                .node_ids()
                .filter(|&s| {
                    std::ptr::eq(table.tree(s), eager.tree(s))
                        && !std::ptr::eq(eager.tree(s), eager_next.tree(s))
                })
                .count();
            prop_assert_eq!(stats.trees_recomputed, invalidated, "after {:?}", changes);
            table = next;
            let read = |s: NodeIx| ((reads & also) >> s.index()) & 1 == 1;
            assert_rows_are_rebuild(&table, &g, read, &changes)?;
        }
        assert_is_rebuild(&table, &g, &[])?;
        prop_assert_eq!(table.materialised(), table.len());
    }

    #[test]
    fn a_cut_moves_only_the_destinations_it_crosses(
        g in simple_graph_strategy(),
        lineage in proptest::collection::vec(
            (
                0u8..5,
                proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..5),
                proptest::collection::vec((0usize..16, 0usize..16), 0..12),
            ),
            1..7,
        ),
    ) {
        // Mostly degradations (kind 1–3: each drawn link cut to at most the
        // drawn bandwidth and slowed to at least the drawn latency), some
        // mixed batches (kind 0) and some undos (kind 4: each drawn link
        // put back to its first weight), random `(row, destination)` reads
        // through `qos` / `path` only in between. A model of every row,
        // kept from the predecessor's answers and the weights each tree was
        // swept on, predicts what every patch does to it from the net
        // change since that sweep alone, for the one tree the row holds:
        // the tree a read swept if it has one, else its shadow's. Back at
        // the sweep weights, that tree is held as the row's. Otherwise, if
        // the row's source reaches the tail of a link the net change
        // widened or sped up, the row goes stale; if not, it moves exactly
        // the destinations whose reported path crosses a link now narrower
        // than the path or slower than at the sweep, and is held as a tree
        // if none. Each patch's counts must be the model's.
        // Every read must be the rebuild's, and materialise its row (raise
        // `materialised()` by one) exactly when the model says it does:
        // any read of a stale row, and a read of a moved destination of a
        // shadowed row only if the row's cut-short sweep reaches the last
        // level — the last moved destination a path reaches is pinned
        // there, or none is and the row reaches nothing.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let n = g.node_count();
        let node = NodeIx::from_index;
        let first = weights(&g);
        let mut table = all_pairs(&g);
        let mut rows = vec![Row::Materialised { swept: first.clone() }; n];
        for (kind, batch, reads) in &lineage {
            let was = weights(&g);
            let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
            let changes = match kind {
                0 => apply(&mut g, batch),
                4 => batch
                    .iter()
                    .map(|&(raw, ..)| {
                        let edge = edge_ids[raw % edge_ids.len()];
                        let new = first[edge.index()];
                        let old = std::mem::replace(g.edge_mut(edge), new);
                        EdgeChange { edge, old, new }
                    })
                    .collect(),
                _ => batch
                    .iter()
                    .map(|&(raw, bw, lat)| {
                        let edge = edge_ids[raw % edge_ids.len()];
                        let old = *g.edge(edge);
                        let new = Qos::new(
                            old.bandwidth.min(Bandwidth::kbps(bw)),
                            old.latency.max(Latency::from_micros(lat)),
                        );
                        *g.edge_mut(edge) = new;
                        EdgeChange { edge, old, new }
                    })
                    .collect(),
            };
            let now = weights(&g);
            let materialised = table.materialised();
            let (next, stats) = table.patched_with(&g, &changes, 1);
            prop_assert_eq!(
                table.shared_trees(&next),
                materialised - stats.trees_recomputed
            );
            prop_assert_eq!(
                next.materialised(),
                materialised - stats.trees_recomputed + stats.trees_restored
            );

            let answers = |u: usize| -> Vec<_> {
                (0..n).map(|x| (table.qos(node(u), node(x)), table.path(node(u), node(x)))).collect()
            };
            let (mut invalidated, mut restored) = (0, 0);
            // A batch that nets out to nothing hands the table on as it is.
            for (u, row) in rows.iter_mut().enumerate().filter(|_| was != now) {
                let successor = match std::mem::replace(row, Row::Stale) {
                    Row::Stale => Row::Stale,
                    Row::Shadowed(shade) if shade.swept == now => {
                        restored += 1;
                        Row::Materialised { swept: shade.swept }
                    }
                    Row::Shadowed(shade) if reaches_a_gain(&shade.swept, &g, node(u)) => Row::Stale,
                    Row::Shadowed(shade) => {
                        let (row, back) = revive(shade, &g);
                        restored += usize::from(back);
                        row
                    }
                    Row::Materialised { swept } => {
                        // The tree is held, left stale (no moved set), or
                        // shadowed with the destinations its answers cross.
                        let crossed: Option<Vec<bool>> = if swept == now {
                            None
                        } else if reaches_a_gain(&swept, &g, node(u)) {
                            Some(Vec::new())
                        } else {
                            let moved: Vec<bool> = answers(u)
                                .into_iter()
                                .map(|(qos, path)| degraded(&swept, &g, qos, path))
                                .collect();
                            moved.contains(&true).then_some(moved)
                        };
                        match crossed {
                            None => Row::Materialised { swept },
                            Some(moved) if moved.is_empty() => {
                                invalidated += 1;
                                Row::Stale
                            }
                            Some(moved) => {
                                invalidated += 1;
                                Row::Shadowed(Shade { swept, answers: answers(u), moved })
                            }
                        }
                    }
                };
                *row = successor;
            }
            prop_assert_eq!(stats.trees_recomputed, invalidated, "after {:?}", changes);
            prop_assert_eq!(stats.trees_restored, restored, "after {:?}", changes);
            table = next;
            for (u, row) in rows.iter().enumerate() {
                let want = match row {
                    Row::Shadowed(shade) => Some(shade.moved.iter().filter(|&&m| m).count()),
                    _ => None,
                };
                prop_assert_eq!(table.moved(node(u)), want, "row {} after {:?}", u, changes);
            }

            let rebuilt = all_pairs(&g);
            for &(u, x) in reads {
                let (u, x) = (u % n, x % n);
                let before = table.materialised();
                prop_assert_eq!(table.qos(node(u), node(x)), rebuilt.qos(node(u), node(x)));
                prop_assert_eq!(table.path(node(u), node(x)), rebuilt.path(node(u), node(x)));
                let swept = table.materialised() - before;
                let expected = match &rows[u] {
                    Row::Materialised { .. } => 0,
                    Row::Shadowed(shade) => {
                        let full = rebuilt.tree(node(u));
                        let last_moved = (0..n)
                            .filter(|&y| shade.moved[y])
                            .filter_map(|y| full.level_of(node(y)))
                            .max();
                        let reaches_last = last_moved == full.level_count().checked_sub(1);
                        usize::from(shade.moved[x] && reaches_last)
                    }
                    Row::Stale => 1,
                };
                prop_assert_eq!(
                    swept, expected,
                    "read {}->{} of {:?} after {:?}", u, x, rows[u], changes
                );
                if swept == 1 {
                    rows[u] = Row::Materialised { swept: now.clone() };
                }
            }
        }
        assert_is_rebuild(&table, &g, &[])?;
        prop_assert_eq!(table.materialised(), table.len());
    }

    #[test]
    fn a_cut_short_sweep_is_the_full_sweep_where_it_settled(
        g in simple_graph_strategy(),
        lineage in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u64..6), 1..5),
            1..5,
        ),
    ) {
        // Every row's tree is swept on the first graph and kept as the
        // shadow of a lineage of pure cuts (zero bandwidth included, so
        // some destinations become unreachable). Its moved destinations
        // are the ones whose reported path crosses a link now narrower
        // than the path. The cut-short sweep over the last graph must
        // answer every node it settled as the full sweep does — QoS,
        // path and level — and settle every moved node a path reaches;
        // one that says it reached the end must be the full tree.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let shadows: Vec<PathTree> = {
            let csr = QosCsr::new(&g);
            let mut scratch = DijkstraScratch::new();
            g.node_ids().map(|s| single_source_csr(&csr, s, &mut scratch)).collect()
        };
        let mut changes = Vec::new();
        for cuts in &lineage {
            changes.extend(cut(&mut g, cuts));
        }
        let csr = QosCsr::new(&g);
        let (mut short_scratch, mut full_scratch) = (DijkstraScratch::new(), DijkstraScratch::new());
        for shadow in &shadows {
            let s = shadow.source();
            let moved: Vec<bool> = g.node_ids().map(|x| tree_crosses_a_cut(shadow, &g, x)).collect();
            let (short, complete) =
                single_source_moved_csr(&csr, shadow, &moved, &mut short_scratch);
            let full = single_source_csr(&csr, s, &mut full_scratch);
            if complete {
                // The slot holds it as its tree, which later patches walk.
                prop_assert_eq!(short.stored_entries(), full.stored_entries());
                prop_assert_eq!(short.level_count(), full.level_count());
            }
            for x in g.node_ids() {
                let settled = short.qos_to(x).is_some();
                if settled || complete {
                    let at = format!("{s:?}->{x:?} after {changes:?}");
                    prop_assert_eq!(short.qos_to(x), full.qos_to(x), "qos {}", at);
                    prop_assert_eq!(short.path_to(x), full.path_to(x), "path {}", at);
                    prop_assert_eq!(short.level_of(x), full.level_of(x), "level {}", at);
                }
                if moved[x.index()] {
                    prop_assert_eq!(
                        settled,
                        full.qos_to(x).is_some(),
                        "moved {:?}->{:?} after {:?}", s, x, changes
                    );
                }
            }
        }
    }

    #[test]
    fn patched_shares_clean_trees_and_dirties_no_more_than_coarse_rules(
        g in graph_strategy(),
        batch in batch_strategy(),
    ) {
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let before = all_pairs(&g);
        let changes = apply(&mut g, &batch);
        let (next, stats) = before.patched_with(&g, &changes, 1);

        // Every clean tree is shared by pointer with the predecessor —
        // deriving an epoch never clones the table.
        prop_assert_eq!(
            before.shared_trees(&next),
            before.materialised() - stats.trees_recomputed
        );

        // The dirty rules are a refinement of the coarse ones.
        let coarse = coarse_rule_dirty_count(&before, &g, &changes);
        prop_assert!(
            stats.trees_recomputed <= coarse,
            "dirty plan recomputed {} trees, coarse rule {}",
            stats.trees_recomputed, coarse
        );
    }
}
