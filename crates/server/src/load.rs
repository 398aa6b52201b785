//! The load plane: per-link reservation accounting and the residual-capacity
//! routing view the server federates against.
//!
//! Three pieces; the second carries the snapshot world ([`crate::snapshot`])
//! it indexes, so the third publishes both as the server's one world:
//!
//! * [`LoadMap`] — per-link **reserved** bandwidth derived exactly from the
//!   live session table (a session opening adds its bottleneck bandwidth to
//!   every overlay link each of its streams crosses; closing subtracts it).
//!   It is the only load the server keeps: the residual view clamps with
//!   it, admission and the rebalancer read it, and whenever the sessions
//!   lock is free it equals `Σ bookings.links` over the links the epoch
//!   still has.
//! * [`LoadPlane`] — one immutable publication of the load state for an
//!   epoch: the map and the [`WorldSnapshot`] it indexes into (raw overlay,
//!   table, source, epoch). Deriving a successor
//!   ([`LoadPlane::with_changes`]) moves the ledger only: it copies no
//!   graph and runs no routing code. The **residual view** — the overlay
//!   with every booked link's bandwidth clamped to `capacity − reserved`,
//!   and the routing table over those weights — is a **derived, on-demand
//!   value**: the first [`LoadPlane::context`] asked of a plane — a cold
//!   solve against a booked ledger, off every lock — takes the last view
//!   anyone in the epoch materialised, re-clamps the links whose
//!   reservation differs between that view's ledger and the plane's, and
//!   patches the view's table over exactly those edges, like a QoS
//!   mutation. The patch is a plan: the trees it invalidates are swept by
//!   whichever solve first reads their rows. Bookings no cold solve ever
//!   looks at (a found and its dissolve, a burst of opens) are never
//!   clamped or routed, and nor are rows no solve reads. The patch judges
//!   each tree by the net change since it was swept, so a release that
//!   undoes the bookings since a row's tree was swept hands that tree
//!   back, a shadow's included, and one that undoes only some of them
//!   keeps a shadow whose net change is still a pure cut.
//! * [`LoadCell`](crate::LoadCell) — the publication cell, and the server's
//!   only one: readers clone an `Arc` and get the ledger together with the
//!   snapshot it indexes, writers swap a pointer. It lives with its only
//!   writer, the session table, so every plane publication in the server —
//!   a mutation's new epoch included — happens under the sessions lock and
//!   the map can never drift from the table it mirrors (the server's
//!   conservation property test pins that down).
//!
//! Capacities of [`Bandwidth::INFINITE`] (co-location identity links) are
//! never clamped and report zero utilization — booking traffic onto a host's
//! own loopback is free by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use sflow_core::{FederationContext, FlowGraph, OwnedFederationContext};
use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceInstance};
use sflow_routing::{AllPairs, Bandwidth, EdgeChange, PatchStats, Qos};

use crate::lock::Lock;
use crate::snapshot::WorldSnapshot;

/// A service link, addressed by its stable endpoint identities: what a
/// ledger entry names, resolved against each epoch's overlay, where a
/// failed endpoint no longer resolves.
pub type LinkId = (ServiceInstance, ServiceInstance);

/// Per-link load ledger: the bandwidth live sessions reserve on each link.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadMap {
    /// Reserved bandwidth per link, kbit/s. An entry exists iff some live
    /// session reserves on the link.
    reserved: BTreeMap<LinkId, u64>,
}

impl LoadMap {
    /// A ledger recomputed from scratch out of a session table's recorded
    /// reservations.
    pub fn from_reservations<I: IntoIterator<Item = (LinkId, u64)>>(iter: I) -> LoadMap {
        let mut map = LoadMap::default();
        for (link, kbps) in iter {
            map.open(link, kbps);
        }
        map
    }

    /// Books `kbps` on `link` (a session opening or migrating in).
    pub fn open(&mut self, link: LinkId, kbps: u64) {
        if kbps > 0 {
            *self.reserved.entry(link).or_insert(0) += kbps;
        }
    }

    /// Releases `kbps` on `link` (a session closing or migrating out).
    /// Saturating: releasing more than is booked clears the entry rather
    /// than underflowing — the conservation test proves this never happens
    /// through the server paths.
    pub fn release(&mut self, link: LinkId, kbps: u64) {
        if let Some(slot) = self.reserved.get_mut(&link) {
            *slot = slot.saturating_sub(kbps);
            if *slot == 0 {
                self.reserved.remove(&link);
            }
        }
    }

    /// Reserved bandwidth on `link`, kbit/s (0 when no session crosses it).
    pub fn reserved_kbps(&self, link: LinkId) -> u64 {
        self.reserved.get(&link).copied().unwrap_or(0)
    }

    /// Total reserved bandwidth across all links — the conservation
    /// invariant compares this against the session table.
    pub fn total_reserved_kbps(&self) -> u64 {
        self.reserved.values().sum()
    }

    /// Iterates `(link, reserved kbps)` over every booked link.
    pub fn iter_reserved(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.reserved.iter().map(|(&l, &k)| (l, k))
    }

    /// `true` when no session reserves anything.
    pub fn is_empty(&self) -> bool {
        self.reserved.is_empty()
    }
}

/// The per-link reservations of one flow, in stable link identities: the
/// flow's bottleneck bandwidth for every stream crossing the link. This is
/// what a session records when it opens and releases when it closes.
pub fn links_of(flow: &FlowGraph, overlay: &OverlayGraph) -> Vec<(LinkId, u64)> {
    flow.link_loads()
        .into_iter()
        .map(|((from, to), bw)| ((overlay.instance(from), overlay.instance(to)), bw.as_kbps()))
        .collect()
}

/// A plane's residual view: the snapshot's overlay with every booked link's
/// bandwidth clamped to `capacity − reserved`, and the shortest-widest
/// table over those weights.
#[derive(Clone, Debug)]
struct View {
    graph: Arc<OverlayGraph>,
    table: Arc<AllPairs>,
}

impl View {
    /// The view of an empty ledger: the snapshot's own overlay and table.
    fn raw(snapshot: &WorldSnapshot) -> View {
        View {
            graph: snapshot.overlay_arc(),
            table: snapshot.all_pairs_arc(),
        }
    }
}

/// The last residual view anyone materialised in an epoch, and the
/// reservations its graph was clamped from. Every plane of the epoch shares
/// one of these (seeded with the snapshot's view and an empty ledger): a
/// plane asked for its view re-clamps this one over the links whose
/// reservation its own ledger differs on and patches the table over those
/// edges, so the work done for one plane version is never redone for the
/// next, and bookings that cancel out before anyone asks cost nothing.
#[derive(Debug)]
struct Materialised {
    view: View,
    reserved: LoadMap,
}

impl Materialised {
    /// An epoch's seed: the snapshot's view, clamped from nothing.
    fn seed(snapshot: &WorldSnapshot) -> Materialised {
        Materialised {
            view: View::raw(snapshot),
            reserved: LoadMap::default(),
        }
    }
}

/// One immutable publication of the load state for a topology epoch: the
/// ledger and the snapshot it indexes. The residual view over the ledger is
/// derived when a solve first asks for it ([`LoadPlane::context`]), not
/// when the plane is published.
#[derive(Debug)]
pub struct LoadPlane {
    /// The world the plane indexes into: its epoch, its raw overlay
    /// (uncapped capacities; a link resolves to nodes only while both its
    /// endpoints are live) and its source. A reader that loads the plane has
    /// the snapshot to solve against with it.
    snapshot: Arc<WorldSnapshot>,
    /// Monotonic per-epoch publication counter, for observability.
    version: u64,
    map: LoadMap,
    /// The residual view, built by the first [`LoadPlane::context`] that
    /// asks. Successors whose clamp is unchanged share the slot, whichever
    /// of them is asked first; a plane that clamps nothing holds the
    /// snapshot's view from the start.
    view: Arc<OnceLock<View>>,
    /// What `view` is derived from. A leaf lock: held across the re-clamp
    /// and the patch's plan (concurrent cold solves want nearly the same
    /// view), never taken under the sessions lock. Sweeps run outside it,
    /// on read.
    last: Arc<Lock<Materialised>>,
}

impl LoadPlane {
    /// The empty plane for a fresh epoch: nothing reserved, so the residual
    /// view *is* the raw overlay and its table, shared with the snapshot by
    /// pointer — publishing a new epoch costs a few `Arc` clones.
    pub fn fresh(snapshot: &Arc<WorldSnapshot>) -> Self {
        LoadPlane::rebased(snapshot, LoadMap::default(), 1)
    }

    /// Rebuilds the plane for `snapshot` from a ledger recomputed out of
    /// the (already repaired) session table — the epoch-crossing path.
    /// One pass over the ledger drops the links whose endpoints no longer
    /// exist and finds whether any surviving reservation clamps a link; if
    /// none does, the plane holds the snapshot's view. The epoch's view
    /// lineage starts at the snapshot's own overlay and table. `_workers`
    /// is read by nothing (no table is built on a worker pool); it stays
    /// for the callers that pass it.
    pub fn rebased(snapshot: &Arc<WorldSnapshot>, mut map: LoadMap, _workers: usize) -> Self {
        let raw = snapshot.overlay();
        let mut clamps = false;
        map.reserved.retain(|&link, &mut kbps| {
            // A link that died with the mutation (its sessions were dropped
            // or rerouted) leaves an orphaned entry to forget.
            let Some((_, _, qos)) = resolve(raw, link) else {
                return false;
            };
            clamps |= clamp(qos, kbps) != qos;
            true
        });
        let view = if clamps {
            OnceLock::new()
        } else {
            OnceLock::from(View::raw(snapshot))
        };
        LoadPlane {
            snapshot: Arc::clone(snapshot),
            version: 0,
            map,
            view: Arc::new(view),
            last: Arc::new(Lock::new(Materialised::seed(snapshot))),
        }
    }

    /// Derives the successor plane after `opens` and `releases` (each a
    /// `(link, kbps)` list): the ledger moves, and that is all. If no
    /// touched link's clamp moved — each is absent from this epoch, of
    /// infinite capacity, or floored at zero before and after — the
    /// successor shares this plane's view slot. No graph is copied and no
    /// routing code runs here — this is what the server pays under the
    /// sessions lock. `_workers` is read by nothing, as in
    /// [`LoadPlane::rebased`].
    #[must_use]
    pub fn with_changes(
        &self,
        opens: &[(LinkId, u64)],
        releases: &[(LinkId, u64)],
        _workers: usize,
    ) -> LoadPlane {
        let mut map = self.map.clone();
        for &(link, kbps) in opens {
            map.open(link, kbps);
        }
        for &(link, kbps) in releases {
            map.release(link, kbps);
        }
        let raw = self.snapshot.overlay();
        let moved = opens.iter().chain(releases).any(|&(link, _)| {
            let (before, after) = (self.map.reserved_kbps(link), map.reserved_kbps(link));
            clamp_move(raw, link, before, after).is_some()
        });
        let view = if moved {
            Arc::default()
        } else {
            Arc::clone(&self.view)
        };
        LoadPlane {
            snapshot: Arc::clone(&self.snapshot),
            version: self.version + 1,
            map,
            view,
            last: Arc::clone(&self.last),
        }
    }

    /// The world this plane indexes into: what a reader of the published
    /// plane solves against.
    pub fn snapshot(&self) -> &Arc<WorldSnapshot> {
        &self.snapshot
    }

    /// The topology epoch this plane indexes into — its snapshot's.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The publication counter within this epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The reservation ledger.
    pub fn map(&self) -> &LoadMap {
        &self.map
    }

    /// A context that federates against residual capacity: the clamped
    /// overlay and its table, pinned to this plane's epoch. The first ask
    /// materialises the view (see [`LoadPlane::flushed_context`]); call it
    /// off-lock.
    pub fn context(&self) -> OwnedFederationContext {
        self.flushed_context().0
    }

    /// [`LoadPlane::context`], plus what this call paid for it: the stats
    /// of the patch it ran if the view was not there yet, `None` if it
    /// was. The first ask takes the epoch cell's view, re-clamps the links
    /// whose reservation differs between the cell's ledger and this
    /// plane's, and hands exactly those edges to [`AllPairs::patched_with`]
    /// as one batch — `old` being the weight the cell's table was computed
    /// from — then moves the cell forward. The patch plans only the rows
    /// the cell's table has materialised and leaves the ones it
    /// invalidates stale: the caller's solve sweeps the rows it reads,
    /// after the cell's lock is released. Planes are served in whatever
    /// order they are asked: an older plane still held by an in-flight
    /// solver is re-clamped from a newer view just as well.
    pub fn flushed_context(&self) -> (OwnedFederationContext, Option<PatchStats>) {
        let mut flushed = None;
        let view = self.view.get_or_init(|| {
            let (view, stats) = self.flush();
            flushed = Some(stats);
            view
        });
        let ctx = FederationContext::from_arcs(
            Arc::clone(&view.graph),
            Arc::clone(&view.table),
            self.snapshot.source_node(),
        );
        (ctx, flushed)
    }

    /// Derives this plane's view from the epoch's cell and leaves it there.
    fn flush(&self) -> (View, PatchStats) {
        let mut last = self.last.lock();
        // The view is taken out of the cell, so a graph no older plane
        // still holds is re-clamped in place. Meanwhile the cell holds the
        // epoch's seed, which is consistent should the patch unwind.
        let Materialised { view, reserved } =
            std::mem::replace(&mut *last, Materialised::seed(&self.snapshot));
        let mut graph = view.graph;
        let changes = self.reclamp(&mut graph, &reserved);
        let (table, stats) = view.table.patched_with(graph.graph(), &changes, 1);
        let view = View {
            graph,
            table: Arc::new(table),
        };
        *last = Materialised {
            view: view.clone(),
            reserved: self.map.clone(),
        };
        (view, stats)
    }

    /// Re-clamps `graph`, the view graph of the reservations `from`, to
    /// this plane's ledger: only the links whose reservation differs are
    /// looked at, and the edges whose weight moved are returned. If a
    /// weight moves while someone else holds `graph`, its weights are
    /// copied first; the topology stays shared.
    fn reclamp(&self, graph: &mut Arc<OverlayGraph>, from: &LoadMap) -> Vec<EdgeChange> {
        let raw = self.snapshot.overlay();
        let to = &self.map.reserved;
        let gone = from.reserved.keys().filter(|link| !to.contains_key(link));
        gone.chain(to.keys())
            .filter_map(|&link| {
                let before = from.reserved_kbps(link);
                let after = self.map.reserved_kbps(link);
                let (tail, head, qos) = clamp_move(raw, link, before, after)?;
                Arc::make_mut(graph).update_link_qos(tail, head, qos)
            })
            .collect()
    }

    /// Test probe: has anyone materialised this plane's view yet?
    #[cfg(test)]
    pub(crate) fn is_materialised(&self) -> bool {
        self.view.get().is_some()
    }

    /// `link`'s raw capacity, if it exists in this epoch.
    pub fn capacity(&self, link: LinkId) -> Option<Bandwidth> {
        resolve(self.snapshot.overlay(), link).map(|(_, _, qos)| qos.bandwidth)
    }

    /// What is still free on `link`: `capacity − reserved`, floored at zero.
    pub fn residual_kbps(&self, link: LinkId) -> u64 {
        let Some(capacity) = self.capacity(link) else {
            return 0;
        };
        capacity
            .saturating_sub(Bandwidth::kbps(self.map.reserved_kbps(link)))
            .as_kbps()
    }

    /// `true` if `links` — a flow's per-link reservations, as produced by
    /// [`links_of`] — still fit into residual capacity link by link. This
    /// is the cheap feasibility check behind solve-cache revalidation: a
    /// cached flow may only be served if every link it would reserve on has
    /// at least its demand still free. Links absent from this epoch's
    /// overlay fail the check (their residual reads zero).
    pub fn fits(&self, links: &[(LinkId, u64)]) -> bool {
        links
            .iter()
            .all(|&(link, need)| self.residual_kbps(link) >= need)
    }

    /// `link`'s utilization in permille (`reserved · 1000 / capacity`).
    /// Infinite capacity is always 0‰; an over-booked link reads over
    /// 1000‰; a reservation on a zero-capacity link saturates.
    pub fn utilization_permille(&self, link: LinkId) -> u64 {
        let reserved = self.map.reserved_kbps(link);
        if reserved == 0 {
            return 0;
        }
        match self.capacity(link) {
            None => 0,
            Some(Bandwidth::INFINITE) => 0,
            Some(c) if c == Bandwidth::ZERO => u64::MAX,
            Some(c) => reserved.saturating_mul(1000) / c.as_kbps(),
        }
    }

    /// The worst utilization across every booked link — the headline load
    /// statistic and the rebalancer's convergence measure.
    pub fn max_utilization_permille(&self) -> u64 {
        self.map
            .iter_reserved()
            .map(|(link, _)| self.utilization_permille(link))
            .max()
            .unwrap_or(0)
    }

    /// Every booked link whose utilization exceeds `threshold_permille` —
    /// the rebalancer's work list.
    pub fn hot_links(&self, threshold_permille: u64) -> BTreeSet<LinkId> {
        self.map
            .iter_reserved()
            .filter(|&(link, _)| self.utilization_permille(link) > threshold_permille)
            .map(|(link, _)| link)
            .collect()
    }
}

/// `link`'s endpoints in `raw` and its raw QoS; `None` when the link does
/// not exist in this epoch.
fn resolve(raw: &OverlayGraph, link: LinkId) -> Option<(NodeIx, NodeIx, Qos)> {
    let from = raw.node_of(link.0)?;
    let to = raw.node_of(link.1)?;
    let e = raw.graph().find_edge(from, to)?;
    Some((from, to, *raw.graph().edge(e)))
}

/// A link's residual QoS with `reserved_kbps` booked on it: `capacity −
/// reserved`, floored at zero, at the raw latency. Infinite capacity is
/// never clamped.
fn clamp(raw: Qos, reserved_kbps: u64) -> Qos {
    Qos::new(
        raw.bandwidth.saturating_sub(Bandwidth::kbps(reserved_kbps)),
        raw.latency,
    )
}

/// What moving `link`'s reservation from `before` to `after` kbit/s asks of
/// a residual view: the link's endpoints and its new clamped QoS. `None`
/// when the clamp does not move — the link is absent from this epoch, its
/// capacity is infinite, or both reservations floor it at zero.
fn clamp_move(
    raw: &OverlayGraph,
    link: LinkId,
    before: u64,
    after: u64,
) -> Option<(NodeIx, NodeIx, Qos)> {
    if before == after {
        return None;
    }
    let (from, to, qos) = resolve(raw, link)?;
    let next = clamp(qos, after);
    (clamp(qos, before) != next).then_some((from, to, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
    use sflow_core::Solver;
    use sflow_graph::NodeIx;
    use std::sync::Arc;

    fn snapshot() -> Arc<WorldSnapshot> {
        let fx = diamond_fixture();
        let snapshot =
            WorldSnapshot::new(Arc::new(fx.overlay), Arc::new(fx.all_pairs), fx.source, 0);
        Arc::new(snapshot)
    }

    fn solve_on(plane: &LoadPlane) -> FlowGraph {
        Solver::new(&plane.context())
            .solve(&diamond_requirement())
            .unwrap()
    }

    #[test]
    fn a_fresh_plane_shares_the_snapshot_by_pointer() {
        let snap = snapshot();
        let plane = LoadPlane::fresh(&snap);
        assert_eq!(plane.epoch(), 0);
        assert!(plane.map().is_empty());
        assert_eq!(plane.max_utilization_permille(), 0);
        // Nothing booked: the view is the snapshot's own, from the start.
        let view = plane.view.get().expect("an empty ledger's view is there");
        assert!(Arc::ptr_eq(&snap.overlay_arc(), &view.graph));
        assert!(Arc::ptr_eq(&snap.all_pairs_arc(), &view.table));
        assert!(Arc::ptr_eq(plane.snapshot(), &snap));
    }

    #[test]
    fn opening_a_session_clamps_exactly_its_links() {
        let snap = snapshot();
        let plane = LoadPlane::fresh(&snap);
        let flow = solve_on(&plane);
        let links = links_of(&flow, snap.overlay());
        assert!(!links.is_empty());

        let booked = plane.with_changes(&links, &[], 1);
        assert_eq!(booked.version(), 1);
        let per_link: BTreeMap<LinkId, u64> = sum_links(&links);
        for (&link, &kbps) in &per_link {
            assert_eq!(booked.map().reserved_kbps(link), kbps);
            let capacity = booked.capacity(link).unwrap();
            if capacity == Bandwidth::INFINITE {
                assert_eq!(booked.utilization_permille(link), 0);
            } else {
                assert_eq!(
                    booked.residual_kbps(link),
                    capacity.as_kbps().saturating_sub(kbps)
                );
            }
        }
        assert_eq!(
            booked.map().total_reserved_kbps(),
            links.iter().map(|&(_, k)| k).sum::<u64>()
        );

        // Release closes the loop: the ledger returns to empty and the
        // residual view returns to raw capacities.
        let released = booked.with_changes(&[], &links, 1);
        assert!(released.map().is_empty());
        assert_eq!(released.max_utilization_permille(), 0);
        for &link in per_link.keys() {
            assert_eq!(
                released.residual_kbps(link),
                released.capacity(link).unwrap().as_kbps()
            );
        }
    }

    #[test]
    fn a_release_takes_back_exactly_what_was_booked() {
        let mut map = LoadMap::default();
        let link = {
            let snap = snapshot();
            let overlay = snap.overlay();
            let n: Vec<_> = overlay.graph().node_ids().collect();
            (overlay.instance(n[0]), overlay.instance(n[1]))
        };
        map.open(link, 100);
        map.open(link, 0);
        assert_eq!(map.reserved_kbps(link), 100, "reservations are exact");
        assert_eq!(map, LoadMap::from_reservations([(link, 100), (link, 0)]));
        // Release clears the reservation and leaves no entry behind.
        map.release(link, 100);
        assert_eq!(map.reserved_kbps(link), 0);
        assert!(map.is_empty());
        assert_eq!(map, LoadMap::default());
    }

    #[test]
    fn hot_links_and_max_utilization_track_the_threshold() {
        let snap = snapshot();
        let plane = LoadPlane::fresh(&snap);
        let flow = solve_on(&plane);
        let links = links_of(&flow, snap.overlay());
        // Book the flow ten times over: every finite-capacity link it
        // crosses goes hot.
        let mut booked = plane;
        for _ in 0..10 {
            booked = booked.with_changes(&links, &[], 1);
        }
        let hot = booked.hot_links(900);
        assert!(!hot.is_empty());
        assert!(booked.max_utilization_permille() > 1000, "over-booked");
        for link in &hot {
            assert_ne!(booked.capacity(*link), Some(Bandwidth::INFINITE));
        }
    }

    #[test]
    fn residual_routing_steers_away_from_booked_links() {
        // The diamond has two disjoint intermediate routes; booking the
        // preferred one must flip the solver to the other.
        let snap = snapshot();
        let plane = LoadPlane::fresh(&snap);
        let first = solve_on(&plane);
        let links = links_of(&first, snap.overlay());
        let booked = plane.with_changes(&links, &[], 1);
        let second = solve_on(&booked);
        assert_ne!(
            first.selection(),
            second.selection(),
            "with the first route booked, the solver must pick new instances"
        );
        // And the rerouted flow still has real bandwidth.
        assert!(second.quality().bandwidth > Bandwidth::ZERO);
    }

    #[test]
    fn rebased_planes_drop_orphaned_links_and_keep_live_ones() {
        let snap = snapshot();
        let plane = LoadPlane::fresh(&snap);
        let flow = solve_on(&plane);
        let links = links_of(&flow, snap.overlay());
        let booked = plane.with_changes(&links, &[], 1);

        // Rebase onto the same epoch: everything survives, and the clamp
        // is identical.
        let rebased = LoadPlane::rebased(&snap, booked.map().clone(), 1);
        assert_eq!(
            rebased.map().total_reserved_kbps(),
            booked.map().total_reserved_kbps()
        );
        for (link, _) in booked.map().iter_reserved() {
            assert_eq!(rebased.residual_kbps(link), booked.residual_kbps(link));
        }

        // A ledger mentioning a link that does not exist is scrubbed.
        let mut orphaned = booked.map().clone();
        let bogus = (
            ServiceInstance::new(sflow_net::ServiceId::new(7), sflow_net::HostId::new(9)),
            ServiceInstance::new(sflow_net::ServiceId::new(8), sflow_net::HostId::new(9)),
        );
        orphaned.open(bogus, 5_000);
        let scrubbed = LoadPlane::rebased(&snap, orphaned, 1);
        assert_eq!(scrubbed.map().reserved_kbps(bogus), 0);
        assert_eq!(
            scrubbed.map().total_reserved_kbps(),
            booked.map().total_reserved_kbps()
        );
    }

    /// The rule flushes followed while every plane carried its own clamped
    /// graph, kept as the oracle: clamp the snapshot's overlay from scratch
    /// to `plane`'s ledger — every link `capacity − reserved`, infinite
    /// capacity untouched, at the raw latency — and diff it against
    /// `graph` edge by edge.
    fn edge_diff(plane: &LoadPlane, graph: &OverlayGraph) -> Vec<EdgeChange> {
        let raw = plane.snapshot().overlay();
        raw.graph()
            .edges()
            .zip(graph.graph().edges())
            .filter_map(|(e, theirs)| {
                let capacity = e.weight.bandwidth;
                let want = if capacity == Bandwidth::INFINITE {
                    *e.weight
                } else {
                    let link = (raw.instance(e.from), raw.instance(e.to));
                    let reserved = plane.map().reserved_kbps(link);
                    let residual = Bandwidth::kbps(capacity.as_kbps().saturating_sub(reserved));
                    Qos::new(residual, e.weight.latency)
                };
                (want != *theirs.weight).then_some(EdgeChange {
                    edge: e.id,
                    old: *theirs.weight,
                    new: want,
                })
            })
            .collect()
    }

    /// What every ask promises about the graph `context()` hands out: it
    /// is the from-scratch clamp of the plane's ledger.
    fn assert_clamp_matches_the_ledger(plane: &LoadPlane, step: &str) {
        let ctx = plane.context();
        assert_eq!(edge_diff(plane, ctx.overlay()), [], "{step}: a stale clamp");
    }

    /// The changes a flush of `plane` would hand the patch right now are
    /// the edge diff of its from-scratch clamp against the cell's graph —
    /// so no absent link and no infinite-capacity link is among them.
    fn assert_flush_changes_are_the_edge_diff(plane: &LoadPlane, step: &str) {
        let (graph, reserved) = {
            let cell = plane.last.lock();
            (Arc::clone(&cell.view.graph), cell.reserved.clone())
        };
        let mut changes = plane.reclamp(&mut Arc::clone(&graph), &reserved);
        changes.sort_by_key(|c| c.edge);
        assert_eq!(changes, edge_diff(plane, &graph), "{step}: flush changes");
    }

    /// What the plane promises the solver: the table `context()` hands out
    /// is the table of the plane's own clamped graph — same QoS and same
    /// path as a from-scratch build, for every node pair — whatever was
    /// materialised before it.
    fn assert_table_matches_a_rebuild(plane: &LoadPlane, step: &str) {
        let ctx = plane.context();
        let clamped = ctx.overlay().graph();
        let rebuilt = ctx.overlay().all_pairs();
        for u in clamped.node_ids() {
            for v in clamped.node_ids() {
                assert_eq!(
                    ctx.all_pairs().qos(u, v),
                    rebuilt.qos(u, v),
                    "{step}: qos {u:?}->{v:?}"
                );
                assert_eq!(
                    ctx.all_pairs().path(u, v),
                    rebuilt.path(u, v),
                    "{step}: path {u:?}->{v:?}"
                );
            }
        }
    }

    fn random_snapshot(seed: u64) -> Arc<WorldSnapshot> {
        // 15 instances on 8 hosts: co-located pairs give infinite-capacity
        // links, the rest carry 10..=1000 kbit/s.
        let services: Vec<_> = (0..5).map(sflow_net::ServiceId::new).collect();
        let fx = sflow_core::fixtures::random_fixture(8, &services, 3, None, seed);
        let snapshot =
            WorldSnapshot::new(Arc::new(fx.overlay), Arc::new(fx.all_pairs), fx.source, 0);
        Arc::new(snapshot)
    }

    #[test]
    fn the_patched_table_is_the_table_of_the_clamped_graph() {
        // How the asks went, over all seeds: each shape must occur.
        let (mut alone, mut older_after_newer, mut racing, mut across_rebase) = (0, 0, 0, 0);
        let mut neutral_moves = 0;
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let source = snap.source_node();
            let mut raw = snap.overlay_arc();
            // Every link a move may book, the most one booking puts on it,
            // and whether booking it leaves every clamp where it was: links
            // absent from the epoch (a booking of an older epoch releasing
            // mid-sweep) and infinite co-location links do.
            let first = raw.graph().node_ids().next().unwrap();
            let absent = [
                (raw.instance(first), raw.instance(first)),
                (
                    ServiceInstance::new(sflow_net::ServiceId::new(7), sflow_net::HostId::new(9)),
                    ServiceInstance::new(sflow_net::ServiceId::new(8), sflow_net::HostId::new(9)),
                ),
            ];
            let mut pool: Vec<(LinkId, u64, bool)> = raw
                .graph()
                .edges()
                .map(|e| {
                    let link = (raw.instance(e.from), raw.instance(e.to));
                    match e.weight.bandwidth {
                        Bandwidth::INFINITE => (link, 500, true),
                        capacity => (link, capacity.as_kbps() * 5 / 4, false),
                    }
                })
                .collect();
            assert!(pool.iter().any(|&(_, _, neutral)| neutral));
            pool.extend(absent.map(|link| (link, 500, true)));
            let neutral: BTreeSet<LinkId> = pool
                .iter()
                .filter(|&&(_, _, neutral)| neutral)
                .map(|&(link, _, _)| link)
                .collect();

            // The crate has no dev-dependency on `rand`; an LCG is enough.
            let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut draw = move |below: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % below
            };

            let mut plane = LoadPlane::fresh(&snap);
            let mut booked: Vec<(LinkId, u64)> = Vec::new();
            // A plane from earlier in the lineage nobody has asked yet — the
            // solver still in flight when newer planes were published.
            let mut older: Option<LoadPlane> = None;
            // The table is asked for only now and then: 0..=8 ledger moves
            // pass unrouted in between, the epoch crossing among them.
            let mut next_ask = draw(9);
            let mut rebase_unasked = false;
            for step in 0..60 {
                let at = format!("seed {seed} step {step}");
                let next = if step == 30 {
                    // One epoch crossing: a finite link's raw capacity
                    // halves and the ledger is rebased onto the successor
                    // snapshot, which forgets the absent links' bookings.
                    let finite: Vec<LinkId> = pool
                        .iter()
                        .filter(|&&(_, _, neutral)| !neutral)
                        .map(|&(link, _, _)| link)
                        .collect();
                    let link = finite[draw(finite.len() as u64) as usize];
                    let (from, to, qos) = resolve(&raw, link).unwrap();
                    let halved =
                        Qos::new(Bandwidth::kbps(qos.bandwidth.as_kbps() / 2), qos.latency);
                    let (overlay, change) = raw.with_link_qos(from, to, halved).unwrap();
                    let (table, _) = snap.all_pairs().patched_with(overlay.graph(), &[change], 1);
                    let next = WorldSnapshot::new(Arc::new(overlay), Arc::new(table), source, 1);
                    let next = Arc::new(next);
                    raw = next.overlay_arc();
                    rebase_unasked = true;
                    booked.retain(|&(link, _)| resolve(&raw, link).is_some());
                    LoadPlane::rebased(&next, plane.map().clone(), 1)
                } else {
                    // Opens (amounts reach past capacity, so fully booked
                    // links occur), releases of earlier bookings, or both at
                    // once — the rebalancer's make-before-break shape. One
                    // move in six books and releases only links that leave
                    // every clamp where it was, and shares the view slot.
                    let neutral_move = draw(6) == 0;
                    let eligible: Vec<usize> = (0..pool.len())
                        .filter(|&i| !neutral_move || pool[i].2)
                        .collect();
                    let mut opens = Vec::new();
                    let mut releases = Vec::new();
                    let kind = draw(5);
                    if kind != 0 {
                        for _ in 0..=draw(3) {
                            let pick = eligible[draw(eligible.len() as u64) as usize];
                            let (link, ceiling, _) = pool[pick];
                            opens.push((link, 1 + draw(ceiling)));
                        }
                    }
                    if kind <= 1 {
                        for _ in 0..=draw(3) {
                            let held: Vec<usize> = (0..booked.len())
                                .filter(|&i| !neutral_move || neutral.contains(&booked[i].0))
                                .collect();
                            if !held.is_empty() {
                                let pick = held[draw(held.len() as u64) as usize];
                                releases.push(booked.swap_remove(pick));
                            }
                        }
                    }
                    let next = plane.with_changes(&opens, &releases, 1);
                    if neutral_move {
                        assert!(
                            Arc::ptr_eq(&next.view, &plane.view),
                            "{at}: {opens:?} / {releases:?} unshared the view"
                        );
                        neutral_moves += 1;
                    }
                    booked.extend(opens);
                    next
                };
                let prev = std::mem::replace(&mut plane, next);
                assert_eq!(
                    plane.map().total_reserved_kbps(),
                    booked.iter().map(|&(_, k)| k).sum::<u64>()
                );
                if step != 30 && !prev.is_materialised() && draw(3) == 0 {
                    older = Some(prev);
                }
                if step < next_ask {
                    continue;
                }
                next_ask = step + 1 + draw(9);
                if std::mem::take(&mut rebase_unasked) && step > 30 {
                    across_rebase += 1;
                }
                match (older.take(), draw(2)) {
                    (Some(older), 0) => {
                        // Newest first, then the plane it superseded: that
                        // one is served from the newer view.
                        assert_asked(&plane, &at);
                        assert_asked(&older, &format!("{at}, older"));
                        older_after_newer += 1;
                    }
                    (Some(older), _) if !plane.is_materialised() => {
                        // Two solvers at once on different versions; the
                        // barrier lets neither start before the other can.
                        let gate = std::sync::Barrier::new(2);
                        std::thread::scope(|scope| {
                            for (plane, who) in [(&plane, "newest"), (&older, "older")] {
                                let (gate, at) = (&gate, &at);
                                scope.spawn(move || {
                                    gate.wait();
                                    let at = format!("{at}, racing {who}");
                                    assert_table_matches_a_rebuild(plane, &at);
                                    assert_clamp_matches_the_ledger(plane, &at);
                                });
                            }
                        });
                        racing += 1;
                    }
                    _ => {
                        assert_asked(&plane, &at);
                        alone += 1;
                    }
                }
            }
        }
        assert!(
            alone > 0 && older_after_newer > 0 && racing > 0 && across_rebase > 0,
            "asks: {alone} alone, {older_after_newer} older-after-newer, {racing} racing, \
             {across_rebase} first asked a few moves after the rebase"
        );
        assert!(neutral_moves > 0, "no move left every clamp alone");
    }

    /// One ask from a single solver, checked three ways: the flush's
    /// changes are the edge diff, the table is its graph's, and the graph
    /// is the clamp of the ledger.
    fn assert_asked(plane: &LoadPlane, step: &str) {
        assert_flush_changes_are_the_edge_diff(plane, step);
        assert_table_matches_a_rebuild(plane, step);
        assert_clamp_matches_the_ledger(plane, step);
    }

    #[test]
    fn an_open_and_its_release_hand_the_snapshot_table_back() {
        // A forest's life: several links lose bandwidth in one batch and get
        // it back in another, a cold solve reading the table after each. The
        // table after the release is the snapshot's for every pair, and
        // every tree neither patch dirtied is still the snapshot's own
        // allocation.
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let raw = snap.overlay_arc();
            let booking = a_booking(&raw, seed);

            let fresh = LoadPlane::fresh(&snap);
            let open = fresh.with_changes(&booking, &[], 1);
            assert_clamp_matches_the_ledger(&open, &format!("seed {seed} open"));
            assert_table_matches_a_rebuild(&open, &format!("seed {seed} open"));
            let released = open.with_changes(&[], &booking, 1);
            assert_clamp_matches_the_ledger(&released, &format!("seed {seed} release"));
            assert_table_matches_a_rebuild(&released, &format!("seed {seed} release"));

            let (open, released) = (open.context(), released.context());
            let (open, released) = (open.all_pairs(), released.all_pairs());
            let n = snap.all_pairs().len();
            for u in raw.graph().node_ids() {
                for v in raw.graph().node_ids() {
                    assert_eq!(released.qos(u, v), snap.all_pairs().qos(u, v));
                    assert_eq!(released.path(u, v), snap.all_pairs().path(u, v));
                }
            }
            let cut = n - snap.all_pairs().shared_trees(open);
            let restored = n - open.shared_trees(released);
            assert!(
                cut > 0 && restored > 0,
                "seed {seed}: the booking moved no tree"
            );
            assert!(
                restored < n,
                "seed {seed}: the release recomputed every tree"
            );
            assert!(
                snap.all_pairs().shared_trees(released) + cut + restored >= n,
                "seed {seed}: cut {cut}, restored {restored} of {n}"
            );
        }
    }

    #[test]
    fn a_found_and_its_dissolve_nobody_read_route_nothing() {
        // The same forest's life with no cold solve in between: the booking
        // and its release cancel out before anyone asks, so the one ask
        // afterwards finds no differing edge, recomputes no tree and hands
        // back the snapshot's own trees.
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let raw = snap.overlay_arc();
            let booking = a_booking(&raw, seed);

            let open = LoadPlane::fresh(&snap).with_changes(&booking, &[], 1);
            let released = open.with_changes(&[], &booking, 1);
            assert!(released.map().is_empty());
            let (ctx, flushed) = released.flushed_context();
            let stats = flushed.expect("nobody asked this plane before");
            assert_eq!(stats.trees_recomputed, 0, "seed {seed}");
            let n = snap.all_pairs().len();
            assert_eq!(snap.all_pairs().shared_trees(ctx.all_pairs()), n);
            assert!(!open.is_materialised(), "the booked plane was never asked");
            // A second ask pays nothing and says so.
            assert!(released.flushed_context().1.is_none());

            // Whereas a cold solve in between pays for the cut, and the
            // release, which undoes it, hands every shadow's tree back:
            // the restore recomputes nothing and routes on the snapshot's
            // own trees again.
            let (_, cut) = open.flushed_context();
            let cut = cut.expect("first ask");
            assert!(cut.trees_recomputed > 0, "seed {seed}");
            let again = open.with_changes(&[], &booking, 1);
            let (restored, restore) = again.flushed_context();
            let restore = restore.expect("first ask");
            assert_eq!(restore.trees_recomputed, 0, "seed {seed}");
            assert_eq!(restore.trees_restored, cut.trees_recomputed, "seed {seed}");
            assert_eq!(snap.all_pairs().shared_trees(restored.all_pairs()), n);
            assert_table_matches_a_rebuild(&again, &format!("seed {seed} restored"));
        }
    }

    #[test]
    fn a_flush_sweeps_only_the_rows_a_solve_reads() {
        // Booking every link out of service 4's instances dirties their own
        // trees; a solve of the diamond requirement (services 0–3) never
        // reads those rows, so they stay shadowed. The release undoes the
        // booking: every shadow's tree is the snapshot's again, a row the
        // solve swept since gives its tree up for its shadow's, and every
        // kept tree is held as it is, so the released table holds the
        // snapshot's trees in every row and is still the rebuild's.
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let raw = snap.overlay_arc();
            let booking = links_out_of(&raw, 4, seed);
            let n = snap.all_pairs().len();

            let open = LoadPlane::fresh(&snap).with_changes(&booking, &[], 1);
            let (ctx, cut) = open.flushed_context();
            let cut = cut.expect("first ask");
            assert!(cut.trees_recomputed > 0, "seed {seed}");
            Solver::new(&ctx)
                .solve(&diamond_requirement())
                .expect("the diamond fits the booked plane");
            let materialised = ctx.all_pairs().materialised();
            assert!(materialised < n, "seed {seed}: every row is materialised");

            let released = open.with_changes(&[], &booking, 1);
            let (next, restore) = released.flushed_context();
            let restore = restore.expect("first ask");
            assert_eq!(restore.trees_restored, cut.trees_recomputed, "seed {seed}");
            // The dropped trees are the shadowed rows the solve swept.
            let swept = materialised - (n - cut.trees_recomputed);
            assert_eq!(restore.trees_recomputed, swept, "seed {seed}");
            let kept = materialised - restore.trees_recomputed;
            assert_eq!(ctx.all_pairs().shared_trees(next.all_pairs()), kept);
            assert_eq!(
                next.all_pairs().materialised(),
                kept + restore.trees_restored,
                "seed {seed}"
            );
            assert_eq!(snap.all_pairs().shared_trees(next.all_pairs()), n);
            assert_table_matches_a_rebuild(&open, &format!("seed {seed} open"));
            assert_table_matches_a_rebuild(&released, &format!("seed {seed} released"));
        }
    }

    #[test]
    fn founding_flushes_shadow_what_they_cut_and_a_release_keeps_the_shadows_of_the_net_cut() {
        // Two foundings in a row, each asked for its table: every tree a
        // flush invalidates is shadowed, and a read of a destination whose
        // snapshot path still fits the clamped graph — one no cut moved —
        // is answered from the shadow without a sweep. Then a release and a
        // founding, asked once: that flush restores bandwidth, but against
        // the snapshot's graph, which every shadow's tree was swept on, the
        // net change is still a pure cut (the second and third foundings'
        // links booked). So every shadow stays one, moving exactly the
        // destinations whose snapshot path no longer fits, and a read of
        // any other sweeps nothing. Each plane's table is its clamped
        // graph's, read in full once the lineage is done.
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let raw = snap.overlay_arc();
            let nodes: Vec<NodeIx> = raw.graph().node_ids().collect();
            let fits = |clamped: &OverlayGraph, u: NodeIx, v: NodeIx| {
                let (Some(qos), Some(path)) =
                    (snap.all_pairs().qos(u, v), snap.all_pairs().path(u, v))
                else {
                    return true;
                };
                let clamped = clamped.graph();
                path.windows(2).all(|hop| {
                    let link = clamped.find_edge(hop[0], hop[1]).expect("a reported link");
                    clamped.edge(link).bandwidth >= qos.bandwidth
                })
            };

            let mut planes = vec![LoadPlane::fresh(&snap)];
            for (step, booking) in [links_out_of(&raw, 4, seed), a_booking(&raw, seed)]
                .iter()
                .enumerate()
            {
                let plane = planes[step].with_changes(booking, &[], 1);
                let (ctx, flushed) = plane.flushed_context();
                let at = format!("seed {seed} founding {step}");
                assert!(flushed.expect("first ask").trees_recomputed > 0, "{at}");
                let (table, rebuilt) = (ctx.all_pairs(), ctx.overlay().all_pairs());
                let materialised = table.materialised();
                assert!(materialised < nodes.len(), "{at}: nothing shadowed");
                for &u in &nodes {
                    for &v in nodes.iter().filter(|&&v| fits(ctx.overlay(), u, v)) {
                        assert_eq!(table.qos(u, v), rebuilt.qos(u, v), "{at}: {u:?}->{v:?}");
                        assert_eq!(table.path(u, v), rebuilt.path(u, v), "{at}: {u:?}->{v:?}");
                    }
                }
                assert_eq!(
                    table.materialised(),
                    materialised,
                    "{at}: an unmoved read swept"
                );
                planes.push(plane);
            }

            let released = planes[2].with_changes(&[], &links_out_of(&raw, 4, seed), 1);
            let plane = released.with_changes(&links_out_of(&raw, 3, seed), &[], 1);
            let (ctx, flushed) = plane.flushed_context();
            flushed.expect("first ask");
            let (table, rebuilt) = (ctx.all_pairs(), ctx.overlay().all_pairs());
            let materialised = table.materialised();
            let shadowed: Vec<NodeIx> = nodes
                .iter()
                .copied()
                .filter(|&u| table.moved(u).is_some())
                .collect();
            assert!(!shadowed.is_empty(), "seed {seed}: no shadow survived");
            for &u in &shadowed {
                for &v in &nodes {
                    let moved = !fits(ctx.overlay(), u, v);
                    assert_eq!(table.is_moved(u, v), moved, "seed {seed}: {u:?}->{v:?}");
                    if !moved {
                        assert_eq!(table.qos(u, v), rebuilt.qos(u, v));
                    }
                }
            }
            assert_eq!(
                table.materialised(),
                materialised,
                "seed {seed}: an unmoved read swept"
            );
            planes.push(plane);
            for (step, plane) in planes.iter().enumerate() {
                assert_table_matches_a_rebuild(plane, &format!("seed {seed} plane {step}"));
            }
        }
    }

    #[test]
    fn a_ledger_move_leaves_the_table_to_whoever_asks() {
        let snap = random_snapshot(0);
        let raw = snap.overlay_arc();
        let booking = a_booking(&raw, 0);
        let infinite: Vec<(LinkId, u64)> = raw
            .graph()
            .edges()
            .filter(|e| e.weight.bandwidth == Bandwidth::INFINITE)
            .map(|e| ((raw.instance(e.from), raw.instance(e.to)), 100))
            .collect();
        assert!(!infinite.is_empty());

        // Nothing booked: the snapshot's table, there from the start.
        let fresh = LoadPlane::fresh(&snap);
        assert!(fresh.is_materialised());
        assert!(LoadPlane::rebased(&snap, LoadMap::default(), 1).is_materialised());

        // A net change — by booking or by rebase — routes nothing.
        let booked = fresh.with_changes(&booking, &[], 1);
        assert!(!booked.is_materialised());
        let rebased = LoadPlane::rebased(&snap, booked.map().clone(), 1);
        assert!(!rebased.is_materialised());
        assert!(
            !Arc::ptr_eq(&booked.last, &rebased.last),
            "one cell per epoch"
        );
        assert!(Arc::ptr_eq(&fresh.last, &booked.last));

        // Moves that leave every clamp where it was share the view and the
        // table slot, so one ask serves the whole run of them.
        let unmoved = booked.with_changes(&[], &[], 1);
        let idle = unmoved.with_changes(&[], &[], 1);
        let loopback = idle.with_changes(&infinite, &[], 1);
        let round_trip = loopback.with_changes(&booking, &booking, 1);
        for same in [&unmoved, &idle, &loopback, &round_trip] {
            assert!(Arc::ptr_eq(&same.view, &booked.view));
            assert!(!same.is_materialised());
        }
        assert!(idle.flushed_context().1.is_some());
        for same in [&booked, &unmoved, &loopback, &round_trip] {
            assert!(same.is_materialised());
            assert!(same.flushed_context().1.is_none());
        }
        assert!(!rebased.is_materialised(), "another epoch, another lineage");
        assert_table_matches_a_rebuild(&rebased, "rebased");
    }

    #[test]
    fn a_ledger_move_copies_no_graph() {
        for seed in 0..4u64 {
            let snap = random_snapshot(seed);
            let raw = snap.overlay_arc();
            let booking = a_booking(&raw, seed);
            let cell_graph = |plane: &LoadPlane| Arc::as_ptr(&plane.last.lock().view.graph);
            let at = |what: &str| format!("seed {seed}: {what}");

            // Ledger moves leave the cell's graph where it is and build no
            // view: the epoch's only graph is still the snapshot's.
            let fresh = LoadPlane::fresh(&snap);
            let booked = fresh.with_changes(&booking, &[], 1);
            let unmoved = booked.with_changes(&[], &[], 1);
            let rebased = LoadPlane::rebased(&snap, unmoved.map().clone(), 1);
            for (plane, what) in [
                (&booked, "booked"),
                (&unmoved, "unmoved"),
                (&rebased, "rebased"),
            ] {
                assert_eq!(cell_graph(plane), Arc::as_ptr(&raw), "{}", at(what));
                assert!(!plane.is_materialised(), "{}", at(what));
            }

            // The epoch's first flush clones: its graph is the snapshot's.
            assert_flush_changes_are_the_edge_diff(&booked, &at("cut"));
            drop(booked.context());
            let cut = cell_graph(&booked);
            assert_ne!(cut, Arc::as_ptr(&raw), "{}", at("the snapshot was clamped"));

            // A flush whose predecessors are gone re-clamps that graph in
            // place.
            let released = booked.with_changes(&[], &booking, 1);
            drop((booked, unmoved));
            assert_flush_changes_are_the_edge_diff(&released, &at("restore"));
            drop(released.context());
            assert_eq!(cell_graph(&released), cut, "{}", at("the restore cloned"));

            // While an older plane still holds the graph, a flush clones it
            // and leaves that plane's view as it was.
            let again = released.with_changes(&booking[..2], &[], 1);
            assert_flush_changes_are_the_edge_diff(&again, &at("re-cut"));
            drop(again.context());
            assert_ne!(cell_graph(&again), cut, "{}", at("a held graph moved"));
            assert_clamp_matches_the_ledger(&released, &at("the held view"));
            assert_clamp_matches_the_ledger(&again, &at("the re-cut"));
        }
    }

    /// Five finite links, each booked past half its capacity.
    fn a_booking(raw: &OverlayGraph, seed: u64) -> Vec<(LinkId, u64)> {
        let booking: Vec<(LinkId, u64)> = raw
            .graph()
            .edges()
            .filter(|e| e.weight.bandwidth != Bandwidth::INFINITE)
            .step_by(7)
            .take(5)
            .map(|e| {
                let link = (raw.instance(e.from), raw.instance(e.to));
                (link, e.weight.bandwidth.as_kbps() / 2 + 1)
            })
            .collect();
        assert_eq!(booking.len(), 5, "seed {seed}");
        booking
    }

    /// Every finite link out of `service`'s instances, each booked past
    /// half its capacity.
    fn links_out_of(raw: &OverlayGraph, service: u32, seed: u64) -> Vec<(LinkId, u64)> {
        let service = sflow_net::ServiceId::new(service);
        let booking: Vec<(LinkId, u64)> = raw
            .graph()
            .edges()
            .filter(|e| raw.instance(e.from).service == service)
            .filter(|e| e.weight.bandwidth != Bandwidth::INFINITE)
            .map(|e| {
                let link = (raw.instance(e.from), raw.instance(e.to));
                (link, e.weight.bandwidth.as_kbps() / 2 + 1)
            })
            .collect();
        assert!(!booking.is_empty(), "seed {seed}");
        booking
    }

    fn sum_links(links: &[(LinkId, u64)]) -> BTreeMap<LinkId, u64> {
        let mut out = BTreeMap::new();
        for &(link, kbps) in links {
            *out.entry(link).or_insert(0) += kbps;
        }
        out
    }
}
