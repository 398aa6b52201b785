//! The session table — tenants → bookings — and the load plane's
//! publication cell, whose only writer it is.
//!
//! A [`Booking`] owns one reservation: the flow, the links it books and the
//! [`Ask`] it answers. A session is a tenant id on exactly one booking —
//! same-key federates attach to the key's booking (a shared service forest),
//! everything else founds its own — so `LoadMap = Σ bookings.links` holds by
//! construction. This module is the table's only owner: [`Table`]'s lock
//! and [`LoadCell`] are private fields and `LoadCell::publish` is private,
//! so nothing outside it compiles that locks the table, reads a booking or
//! moves the ledger. Each function here is one lock hold, each ledger move
//! in it one publication. The published plane is the server's one view of
//! the world: it carries the snapshot it indexes, and a mutation's new
//! epoch reaches readers only as the plane [`plan_repairs`] rebases onto
//! it, so the plane's epoch is the epoch. The two sweeps that re-solve
//! bookings — a mutation's repairs and the rebalancer's migrations — copy
//! [`Work`] out, re-solve off-lock (the caller's part: nothing here solves)
//! and commit in place, skipping bookings that dissolved meanwhile; the
//! table is never taken out of its lock, so a `Release` or a `Federate`
//! mid-sweep is served as ever, against the new epoch's plane.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sflow_core::{FlowGraph, ServiceRequirement};

use crate::load::{links_of, LinkId, LoadMap, LoadPlane};
use crate::lock::{assert_unlocked, Held, Lock};
use crate::rebalance::{improves, migration_cost};
use crate::server::Shared;
use crate::snapshot::{same_flow, SolveKey, WorldSnapshot};
use crate::stats::Metrics;
use crate::{Algorithm, FlowSummary, Response};

/// What one federate asked for: everything needed to solve it, and to
/// re-solve its booking the same way. Shared by pointer between a booking
/// and the work a sweep copies out of it.
pub(crate) struct Ask {
    pub(crate) requirement: ServiceRequirement,
    pub(crate) algorithm: Algorithm,
    pub(crate) hop_limit: Option<usize>,
    /// What makes a booking a forest later federates can attach to; `None`
    /// under `--no-solve-cache`, a private booking of one tenant.
    pub(crate) key: Option<SolveKey>,
}

/// One reservation and everyone federated onto it. A tenant is a session id
/// in `tenants` and nothing more, so N same-key tenants reserve their shared
/// links once (the `max`, not the `sum`, of identical streams).
pub(crate) struct Booking {
    pub(crate) ask: Arc<Ask>,
    /// The epoch `flow` was solved (or last repaired) against: a repair
    /// sweep carries over exactly the bookings at the epoch its mutation
    /// replaced and drops whatever else is not current.
    pub(crate) epoch: u64,
    /// While the booking holds its key's `by_key` slot, the key's cached
    /// solve, the same `Arc` ([`Sessions::rebook`]).
    pub(crate) flow: Arc<FlowGraph>,
    /// Exactly what `flow` books in the load plane.
    pub(crate) links: Vec<(LinkId, u64)>,
    /// Session ids in attach order; never empty (last-out unbooks).
    pub(crate) tenants: Vec<u64>,
}

#[derive(Default)]
pub(crate) struct Sessions {
    pub(crate) next_id: u64,
    /// Session id → its booking's id, which is its founder's session id.
    pub(crate) tenants: BTreeMap<u64, u64>,
    pub(crate) bookings: BTreeMap<u64, Booking>,
    /// The booking accepting tenants for a key. A federate at a new epoch
    /// that finds it not yet repaired founds and takes the slot; the
    /// superseded booking keeps its tenants but accepts no new ones.
    pub(crate) by_key: BTreeMap<SolveKey, u64>,
}

impl Sessions {
    /// Removes a booking whole: its tenants leave the index with it, and
    /// its `by_key` slot goes unless a superseding booking has taken it.
    fn unbook(&mut self, id: u64) -> Option<Booking> {
        let gone = self.bookings.remove(&id)?;
        for tenant in &gone.tenants {
            self.tenants.remove(tenant);
        }
        if let Some(key) = &gone.ask.key {
            if self.by_key.get(key) == Some(&id) {
                self.by_key.remove(key);
            }
        }
        Some(gone)
    }

    /// Moves booking `id` onto `flow`, booked as `links`, at `snapshot`'s
    /// epoch — a repair's or a migration's commit. A slot holder files the
    /// flow under its key ([`WorldSnapshot::file_solve`]) and takes the
    /// cached `Arc`, so the key's next tenant hits and attaches by pointer.
    /// `None` if the booking is gone.
    fn rebook(
        &mut self,
        id: u64,
        snapshot: &WorldSnapshot,
        flow: FlowGraph,
        links: Vec<(LinkId, u64)>,
    ) -> Option<&Booking> {
        let booking = self.bookings.get_mut(&id)?;
        let flow = Arc::new(flow);
        booking.flow = match booking.ask.key.as_ref() {
            Some(key) if self.by_key.get(key) == Some(&id) => snapshot.file_solve(key, flow),
            _ => flow,
        };
        booking.links = links;
        booking.epoch = snapshot.epoch();
        Some(booking)
    }

    /// Publishes the table's census — sessions, forests (keyed bookings)
    /// and their tenants — as the `Stats` gauges. Called wherever the table
    /// changes shape, so the reactor answers `Stats` without this lock.
    fn publish_census(&self, metrics: &Metrics) {
        let (mut forests, mut tenants) = (0, 0);
        for booking in self.bookings.values().filter(|b| b.ask.key.is_some()) {
            forests += 1;
            tenants += booking.tenants.len() as u64;
        }
        metrics.sessions().set(self.tenants.len() as u64);
        metrics.forests().set(forests);
        metrics.forest_tenants().set(tenants);
    }

    /// Every booking at `epoch`, each with its [`Work`] copied out.
    fn work_at(&self, epoch: u64) -> impl Iterator<Item = (&Booking, Work)> {
        self.bookings
            .iter()
            .filter(move |(_, booking)| booking.epoch == epoch)
            .map(|(&id, booking)| {
                let work = Work {
                    booking: id,
                    ask: Arc::clone(&booking.ask),
                    flow: Arc::clone(&booking.flow),
                };
                (booking, work)
            })
    }
}

/// One booking copied out for an off-lock re-solve, so the table is
/// untouched until the commit.
pub(crate) struct Work {
    pub(crate) booking: u64,
    pub(crate) ask: Arc<Ask>,
    /// What a repair is pinned to.
    pub(crate) flow: Arc<FlowGraph>,
}

/// The session table and the load plane it alone publishes. Both fields are
/// private: only this module's functions lock the one or publish the other.
pub(crate) struct Table {
    sessions: Lock<Sessions>,
    load: LoadCell,
}

impl Table {
    /// An empty table and ledger over `snapshot`'s world.
    pub(crate) fn new(snapshot: &Arc<WorldSnapshot>) -> Self {
        Table {
            sessions: Lock::default(),
            load: LoadCell::new(Arc::new(LoadPlane::fresh(snapshot))),
        }
    }

    /// The published load plane, and with it the snapshot every request
    /// solves against: one `Arc` clone, never the sessions lock.
    pub(crate) fn plane(&self) -> Arc<LoadPlane> {
        self.load.load()
    }

    /// The table, locked: the one way this module's functions take it.
    /// It is the outermost lock, so no other server lock may be held here.
    fn locked(&self) -> Held<'_, Sessions> {
        assert_unlocked("the session table");
        self.sessions.lock()
    }

    /// The table itself, locked: the one way tests read or reshape it.
    #[cfg(test)]
    pub(crate) fn lock(&self) -> Held<'_, Sessions> {
        self.locked()
    }
}

/// Opens one session for `flow`: the epoch and capacity checks, then an
/// attach to the key's booking or a founding. The warm and the cold path
/// both open here, so their admission rules cannot drift apart. With
/// `revalidate` under residual admission, a founding's whole reservation
/// must fit the live plane; `None` if it does not — the cached flow is
/// evicted and the caller solves cold. An attach books nothing new.
pub(crate) fn open_session(
    shared: &Shared,
    snapshot: &WorldSnapshot,
    ask: &Arc<Ask>,
    flow: &Arc<FlowGraph>,
    revalidate: bool,
) -> Option<Response> {
    let table = &shared.table;
    let mut sessions = table.locked();
    // Under the lock a mutation's copy-out moves the plane to its epoch:
    // this decides atomically whether every future sweep covers the
    // session. If a mutation overtook the solve, the answer describes a
    // world that no longer exists.
    let plane = table.load.load();
    let current_epoch = plane.epoch();
    if current_epoch != snapshot.epoch() {
        shared.metrics.stale().inc();
        return Some(Response::Stale {
            solved_epoch: snapshot.epoch(),
            current_epoch,
        });
    }
    if sessions.tenants.len() >= shared.config.max_sessions {
        shared.metrics.failed().inc();
        return Some(Response::Error("session table full".into()));
    }
    // Attach only to a booking at this epoch with this flow (the very `Arc`
    // the cache handed out, unless a racer refiled the key); one whose
    // repair has not committed yet is superseded below.
    let attach = ask.key.as_ref().and_then(|key| {
        let id = *sessions.by_key.get(key)?;
        let booking = sessions.bookings.get(&id)?;
        (booking.epoch == snapshot.epoch()
            && (Arc::ptr_eq(&booking.flow, flow) || same_flow(&booking.flow, flow)))
        .then_some(id)
    });
    let session = sessions.next_id;
    if let Some(booking) = attach.and_then(|id| sessions.bookings.get_mut(&id)) {
        booking.tenants.push(session);
    } else {
        let links = links_of(flow, snapshot.overlay());
        if revalidate && shared.config.residual && !plane.fits(&links) {
            // Evicted so the cold solve can file its load-aware answer
            // (`cache_solve` is first-writer-wins); only if still this flow,
            // which no slot holder's can be.
            if let Some(key) = &ask.key {
                snapshot.evict_refused(key, flow);
            }
            return None;
        }
        // The ledger moves; clamping these links and routing over the
        // clamp wait for the next cold solve.
        if !links.is_empty() {
            let booked = plane.with_changes(&links, &[], 1);
            table.load.publish(&sessions, booked);
        }
        // Take the key's slot and file the flow under the key — normally
        // filed already, unless a racing federate replaced or evicted it.
        let flow = match &ask.key {
            Some(key) => {
                sessions.by_key.insert(key.clone(), session);
                snapshot.file_solve(key, Arc::clone(flow))
            }
            None => Arc::clone(flow),
        };
        let booking = Booking {
            ask: Arc::clone(ask),
            epoch: snapshot.epoch(),
            flow,
            links,
            tenants: vec![session],
        };
        sessions.bookings.insert(session, booking);
    }
    sessions.next_id += 1;
    sessions.tenants.insert(session, attach.unwrap_or(session));
    sessions.publish_census(&shared.metrics);
    shared.metrics.served().inc();
    Some(Response::Federated(FlowSummary {
        session,
        epoch: snapshot.epoch(),
        bandwidth_kbps: flow.quality().bandwidth.as_kbps(),
        latency_us: flow.quality().latency.as_micros(),
        instances: flow.instances().clone(),
    }))
}

/// Closes one session. Co-tenants left behind keep the booking and the
/// ledger does not move; the last tenant out unbooks.
pub(crate) fn release_session(shared: &Shared, session: u64) -> Response {
    let table = &shared.table;
    let mut sessions = table.locked();
    let Some(id) = sessions.tenants.remove(&session) else {
        shared.metrics.failed().inc();
        return Response::Error(format!("no such session {session}"));
    };
    let last_out = sessions.bookings.get_mut(&id).is_some_and(|booking| {
        booking.tenants.retain(|&tenant| tenant != session);
        booking.tenants.is_empty()
    });
    if let Some(gone) = last_out.then(|| sessions.unbook(id)).flatten() {
        // Mid-sweep the booking may still be at the epoch the plane was
        // rebased from: a link the mutation removed is gone from the plane
        // as well, and releasing it moves nothing.
        if !gone.links.is_empty() {
            let plane = table.load.load();
            let released = plane.with_changes(&[], &gone.links, 1);
            table.load.publish(&sessions, released);
        }
    }
    sessions.publish_census(&shared.metrics);
    Response::Released { session }
}

/// A repair sweep's copy-out, which publishes the mutation: every booking
/// at the plane's epoch — the one `snapshot` replaced — copied out, and the
/// ledger rebased onto `snapshot` in the same hold. From here on federates
/// solve, revalidate and book at the new epoch, and a solve still in flight
/// at the old one answers `Stale`.
pub(crate) fn plan_repairs(shared: &Shared, snapshot: &Arc<WorldSnapshot>) -> Vec<Work> {
    let table = &shared.table;
    let sessions = table.locked();
    let plane = table.load.load();
    let work = sessions
        .work_at(plane.epoch())
        .map(|(_, work)| work)
        .collect();
    // The ledger is `Σ bookings.links` already: it crosses whole, estimates
    // included, less the links the mutation removed.
    let map = plane.map().clone();
    let rebased = LoadPlane::rebased(snapshot, map, 1);
    table.load.publish(&sessions, rebased);
    work
}

/// A repair sweep's commit: writes each `(booking, repaired flow)` in place
/// and rebases the ledger onto `snapshot`. A booking gone meanwhile stays
/// gone, one founded at the new epoch is untouched, and any other left
/// behind — its repair failed — is dropped with all its tenants.
/// `Mutated.repaired` / `dropped` count the tenants there at commit time.
pub(crate) fn commit_repairs(
    shared: &Shared,
    snapshot: &Arc<WorldSnapshot>,
    repaired: Vec<(u64, FlowGraph)>,
) -> Response {
    // Links over the *new* overlay, derived before the lock.
    let overlay = snapshot.overlay();
    let repaired: Vec<_> = repaired
        .into_iter()
        .map(|(id, flow)| (id, links_of(&flow, overlay), flow))
        .collect();
    let table = &shared.table;
    let mut sessions = table.locked();
    let mut kept = 0;
    for (id, links, flow) in repaired {
        if let Some(booking) = sessions.rebook(id, snapshot, flow, links) {
            kept += booking.tenants.len();
        }
    }
    let lost: Vec<u64> = sessions
        .bookings
        .iter()
        .filter(|(_, booking)| booking.epoch != snapshot.epoch())
        .map(|(&id, _)| id)
        .collect();
    let dropped = lost
        .into_iter()
        .filter_map(|id| sessions.unbook(id))
        .map(|gone| gone.tenants.len())
        .sum();
    sessions.publish_census(&shared.metrics);
    // Rebuilt from what is live now, founders at the new epoch included;
    // the estimates are memory and carry over.
    let live = sessions
        .bookings
        .values()
        .flat_map(|booking| booking.links.iter().copied());
    let mut map = LoadMap::from_reservations(live);
    map.adopt_estimates(table.load.load().map());
    let rebased = LoadPlane::rebased(snapshot, map, 1);
    table.load.publish(&sessions, rebased);
    Response::Mutated {
        epoch: snapshot.epoch(),
        repaired: kept,
        dropped,
    }
}

/// One DRE tick of the ledger's estimates.
pub(crate) fn tick_estimates(shared: &Shared) {
    let table = &shared.table;
    let sessions = table.locked();
    table.load.publish(&sessions, table.load.load().decayed());
}

/// A rebalancer sweep's copy-out: every booking at the plane's epoch that
/// crosses a `hot` link, with its [`migration_cost`].
pub(crate) fn plan_migrations(shared: &Shared, hot: &BTreeSet<LinkId>) -> Vec<(u64, Work)> {
    let sessions = shared.table.locked();
    sessions
        .work_at(shared.table.load.load().epoch())
        .filter_map(|(booking, work)| {
            Some((migration_cost(hot, &booking.flow, &booking.links)?, work))
        })
        .collect()
}

/// Moves booking `id` onto `moved`, solved against `snapshot`, if the move
/// [`improves`] the plane; `false` if not, or if the booking is gone or a
/// mutation overtook the re-solve. The booking changes in place, so a
/// reader of the table sees every tenant at every instant, and the preview
/// — the new links booked and the old released — is published as one
/// pointer store: make-before-break for readers off the lock.
pub(crate) fn commit_migration(
    shared: &Shared,
    snapshot: &WorldSnapshot,
    id: u64,
    moved: FlowGraph,
) -> bool {
    let new_links = links_of(&moved, snapshot.overlay());
    let table = &shared.table;
    let mut sessions = table.locked();
    let plane = table.load.load();
    let Some(booking) = sessions.bookings.get(&id) else {
        return false;
    };
    if plane.epoch() != snapshot.epoch() || booking.epoch != snapshot.epoch() {
        return false;
    }
    let preview = plane.with_changes(&new_links, &booking.links, 1);
    if !improves(&plane, &preview, &booking.links, &new_links) {
        return false;
    }
    table.load.publish(&sessions, preview);
    sessions.rebook(id, snapshot, moved, new_links).is_some()
}

/// The load plane's publication cell, the server's one published world: a
/// load is one `Arc` clone — the ledger and the snapshot it indexes — and a
/// publish one pointer store.
///
/// **Only the session table publishes.** `publish` is private to its module
/// and wants a `&Sessions`, which a function there has to show only while
/// it holds the table's lock: publications are ordered by it, and the
/// ledger cannot drift from `Σ bookings.links` — what residual admission's
/// "no link over capacity" rests on. A new epoch is a publication too, so
/// epochs advance only under that lock. From outside the module a cell can
/// only be read.
///
/// ```
/// use std::sync::Arc;
/// use sflow_core::fixtures::diamond_fixture;
/// use sflow_server::{LoadCell, LoadPlane, World};
///
/// let plane = Arc::new(LoadPlane::fresh(&World::new(diamond_fixture()).snapshot()));
/// let cell = LoadCell::new(Arc::clone(&plane));
/// assert_eq!(cell.load().version(), plane.version());
/// ```
///
/// ```compile_fail,E0624
/// use std::sync::Arc;
/// use sflow_core::fixtures::diamond_fixture;
/// use sflow_server::{LoadCell, LoadPlane, World};
///
/// let plane = Arc::new(LoadPlane::fresh(&World::new(diamond_fixture()).snapshot()));
/// let cell = LoadCell::new(Arc::clone(&plane));
/// // error[E0624]: `publish` is private — and inside its module it is an
/// // E0061 until the caller shows the `&Sessions` it holds the lock for.
/// cell.publish(plane);
/// ```
///
/// Versions restart at every rebase; epochs never go back, and a publish
/// debug-asserts it.
#[derive(Debug)]
pub struct LoadCell {
    current: Lock<Arc<LoadPlane>>,
}

impl LoadCell {
    /// A cell publishing `plane` as the current load state.
    pub fn new(plane: Arc<LoadPlane>) -> Self {
        LoadCell {
            current: Lock::new(plane),
        }
    }

    /// The current plane. Constant-time: the lock only ever guards a pointer
    /// copy or store.
    pub fn load(&self) -> Arc<LoadPlane> {
        Arc::clone(&self.current.lock())
    }

    /// Publishes `next` as the current plane. `_held` is the witness: a
    /// borrow of the session table, which only its lock's holder has.
    /// Debug-asserts that epochs only move forward — a regressing publish
    /// is a mutator serialization bug.
    fn publish(&self, _held: &Sessions, next: LoadPlane) {
        let mut current = self.current.lock();
        debug_assert!(
            next.epoch() >= current.epoch(),
            "plane epochs must be monotonic: {} -> {}",
            current.epoch(),
            next.epoch()
        );
        *current = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use sflow_core::fixtures::diamond_fixture;

    #[test]
    fn the_cell_publishes_in_epoch_order() {
        let mut world = World::new(diamond_fixture());
        let cell = LoadCell::new(Arc::new(LoadPlane::fresh(&world.snapshot())));
        assert_eq!(cell.load().version(), 0);
        let next = cell.load().decayed();
        // A test may forge the witness; the server's only table is locked.
        cell.publish(&Sessions::default(), next);
        assert_eq!(cell.load().version(), 1);
        // A new epoch restarts the versions.
        let link = first_link(&world);
        world.apply(&link).unwrap();
        cell.publish(&Sessions::default(), LoadPlane::fresh(&world.snapshot()));
        assert_eq!((cell.load().epoch(), cell.load().version()), (1, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotonic")]
    fn a_publish_may_not_take_the_epoch_back() {
        let mut world = World::new(diamond_fixture());
        let first = LoadPlane::fresh(&world.snapshot());
        let link = first_link(&world);
        world.apply(&link).unwrap();
        let cell = LoadCell::new(Arc::new(LoadPlane::fresh(&world.snapshot())));
        cell.publish(&Sessions::default(), first); // 1 -> 0 regresses
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    #[should_panic(expected = "the session table under a server lock")]
    fn the_table_lock_under_another_lock_panics() {
        let table = Table::new(&World::new(diamond_fixture()).snapshot());
        let _cell = table.load.current.lock();
        drop(table.lock());
    }

    /// A QoS change on the source's first out-link.
    fn first_link(world: &World) -> crate::Mutation {
        let snapshot = world.snapshot();
        let overlay = snapshot.overlay();
        let link = overlay
            .graph()
            .out_edges(snapshot.source_node())
            .next()
            .unwrap();
        crate::Mutation::SetLinkQos {
            from: overlay.instance(link.from),
            to: overlay.instance(link.to),
            bandwidth_kbps: 1,
            latency_us: 99,
        }
    }
}
