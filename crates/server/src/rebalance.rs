//! The rebalancer: sweep hot links, migrate the cheapest crossing bookings
//! onto residual capacity, make-before-break.
//!
//! Each sweep (triggered by [`Request::Rebalance`](crate::Request::Rebalance)
//! or the background thread `serve --rebalance-interval-ms` starts):
//!
//! 1. ticks the load plane's discounted estimator;
//! 2. finds every link above the configured utilization threshold;
//! 3. ranks the bookings crossing those links by **migration cost** — flow
//!    bandwidth × how many hot links its paths overlap — and takes the
//!    cheapest few;
//! 4. re-solves each mover against the residual view, under the algorithm
//!    and hop horizon it was federated with (its own booking still counted,
//!    which is exactly what steers the new path off the links it is
//!    congesting);
//! 5. commits each improving move make-before-break.
//!
//! What migrates is a booking, whole: the flow and the links live there, so
//! every tenant moves with it and none can be stranded. When the booking
//! holds its key's `by_key` slot the commit files the moved flow under the
//! key (`Sessions::rebook`, as a repair does), so later same-key tenants
//! attach instead of superseding.
//!
//! Invariants, each pinned by a test or the lint engine:
//!
//! * **No lock guard is live across a re-solve.** The candidate list is
//!   copied out under the sessions lock, the guard is dropped, and every
//!   mover re-solves off-lock — the `guard-across-solve` audit rule names
//!   [`resolve_mover`] a solve, so a regression here fails CI.
//! * **Make-before-break.** A migration mutates the booking in place under
//!   one sessions-lock hold — no tenant is ever absent from the table — and
//!   the plane opens the new reservation *before* releasing the old, so
//!   claimed capacity is never unaccounted in between.
//! * **Failures change nothing.** A mover that cannot re-solve, or whose
//!   new path would not improve the world, is left byte-for-byte as it was
//!   (the cached solve included) and counted in `migration_failures`.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sflow_core::{FederationError, FlowGraph, ServiceRequirement};

use crate::load::links_of;
use crate::server::{cold_solve, residual_context, Shared};
use crate::snapshot::WorldSnapshot;
use crate::Algorithm;

/// At most this many bookings migrate per sweep: every migration derives
/// three planes under the sessions lock (preview, book, release — ledger
/// and clamp only; the routing patch they imply is paid off-lock, by the
/// next mover's re-solve), and a bounded sweep keeps the lock holds short.
/// Convergence comes from repeated sweeps, not from one big one.
const MAX_MOVERS_PER_SWEEP: usize = 8;

/// How often the background loop polls the shutdown flag while waiting out
/// the sweep interval.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// What one sweep did.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepOutcome {
    /// Bookings moved to cheaper paths.
    pub migrations: usize,
    /// Movers that failed to re-solve or did not improve the world.
    pub migration_failures: usize,
    /// The worst per-link utilization after the sweep, permille.
    pub max_utilization_permille: u64,
}

/// One mover copied out of the session table: everything the off-lock
/// re-solve needs, so the table is untouched until the commit.
struct Candidate {
    booking: u64,
    requirement: ServiceRequirement,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
    /// Migration cost: flow bandwidth × hot-link overlap. Cheap movers
    /// first — they free capacity with the least disruption.
    cost: u64,
}

/// Re-solves one mover against the residual view, by the algorithm and hop
/// horizon its booking was federated under. A named entry point — not an
/// inlined solve — so the `guard-across-solve` audit rule can police
/// rebalancer solves by token: no lock guard may be live on any line
/// spanning a `resolve_mover(` call.
fn resolve_mover(
    shared: &Shared,
    snapshot: &WorldSnapshot,
    mover: &Candidate,
) -> Result<FlowGraph, FederationError> {
    // Against the *current* plane (it moves as earlier movers in this very
    // sweep commit). The mover's own booking is still counted — that is
    // what pushes the new path off its hot links.
    let ctx = residual_context(shared, &shared.load.load());
    cold_solve(
        shared,
        snapshot,
        &ctx,
        &mover.requirement,
        mover.algorithm,
        mover.hop_limit,
    )
}

/// One rebalancer sweep. Returns what it did; also publishes the
/// post-sweep worst-link utilization into the server metrics.
pub(crate) fn sweep(shared: &Shared) -> SweepOutcome {
    let workers = shared.config.route_workers;
    let snapshot = shared.snap.load();
    let mut outcome = SweepOutcome::default();

    // One DRE tick per sweep. Plane publications happen under the sessions
    // lock, like every open and release, so they cannot interleave with a
    // session mutating the ledger.
    let ticked = shared.sessions.lock();
    let plane = shared.load.load();
    shared.load.publish(&ticked, Arc::new(plane.decayed()));
    drop(ticked);

    let plane = shared.load.load();
    outcome.max_utilization_permille = plane.max_utilization_permille();
    if plane.epoch() != snapshot.epoch() {
        // Mid-rebase: a mutation is republishing the ledger for a new
        // epoch; there is nothing coherent to balance against.
        shared
            .metrics
            .max_link_utilization_permille()
            .set(outcome.max_utilization_permille);
        return outcome;
    }
    let hot = plane.hot_links(shared.config.utilization_threshold_permille);
    if hot.is_empty() {
        shared
            .metrics
            .max_link_utilization_permille()
            .set(outcome.max_utilization_permille);
        return outcome;
    }

    // Copy the candidates out under the sessions lock, then drop it — the
    // re-solves below run with no guard live.
    let sessions = shared.sessions.lock();
    let mut candidates: Vec<Candidate> = sessions
        .bookings
        .iter()
        .filter(|(_, booking)| booking.epoch == snapshot.epoch())
        .filter_map(|(&id, booking)| {
            let overlap = booking
                .links
                .iter()
                .filter(|(link, _)| hot.contains(link))
                .count() as u64;
            (overlap > 0).then(|| Candidate {
                booking: id,
                requirement: booking.requirement.clone(),
                algorithm: booking.algorithm,
                hop_limit: booking.hop_limit,
                cost: booking
                    .flow
                    .quality()
                    .bandwidth
                    .as_kbps()
                    .saturating_mul(overlap),
            })
        })
        .collect();
    drop(sessions);
    candidates.sort_by_key(|c| (c.cost, c.booking));
    candidates.truncate(MAX_MOVERS_PER_SWEEP);

    for candidate in candidates {
        let Ok(moved) = resolve_mover(shared, &snapshot, &candidate) else {
            outcome.migration_failures += 1;
            shared.metrics.migration_failures().inc();
            continue;
        };

        // Commit under one sessions-lock hold. The booking is mutated in
        // place — a concurrent reader locking the table sees every tenant
        // at every instant, old path or new, never absent.
        let mut sessions = shared.sessions.lock();
        let plane = shared.load.load();
        let committed = (|| {
            let booking = sessions.bookings.get(&candidate.booking)?;
            if plane.epoch() != snapshot.epoch() || booking.epoch != snapshot.epoch() {
                // The last tenant left, or a mutation overtook the sweep:
                // this answer describes a world that is gone.
                return None;
            }
            let new_links = links_of(&moved, snapshot.overlay());
            // Accept only improvements: the swap must not raise the global
            // worst link, and must strictly lower the worst utilization
            // among the links this booking touches (old or new) — the
            // local progress that lets several equally-hot links drain one
            // at a time.
            let preview = plane.with_changes(&new_links, &booking.links, workers);
            if preview.max_utilization_permille() > plane.max_utilization_permille() {
                return None;
            }
            let local_before = booking
                .links
                .iter()
                .map(|&(link, _)| plane.utilization_permille(link))
                .max()
                .unwrap_or(0);
            let local_after = booking
                .links
                .iter()
                .chain(new_links.iter())
                .map(|&(link, _)| preview.utilization_permille(link))
                .max()
                .unwrap_or(0);
            if local_after >= local_before {
                return None;
            }
            // Make-before-break: whoever reads the plane off-lock sees the
            // new path booked before the old one is released. The booking
            // itself is only ever read under this lock, so it is swapped
            // in place once both planes are out.
            let booked = plane.with_changes(&new_links, &[], workers);
            let broken = booked.with_changes(&[], &booking.links, workers);
            shared.load.publish(&sessions, Arc::new(booked));
            shared.load.publish(&sessions, Arc::new(broken));
            // The key's cached solve is the hot path the booking just left:
            // a slot holder files the moved flow in its place, in this same
            // hold, so later same-key tenants attach to the moved booking.
            sessions.rebook(candidate.booking, &snapshot, moved, new_links)?;
            Some(())
        })();
        drop(sessions);
        if committed.is_some() {
            outcome.migrations += 1;
            shared.metrics.migrations().inc();
        } else {
            outcome.migration_failures += 1;
            shared.metrics.migration_failures().inc();
        }
    }

    outcome.max_utilization_permille = shared.load.load().max_utilization_permille();
    shared
        .metrics
        .max_link_utilization_permille()
        .set(outcome.max_utilization_permille);
    outcome
}

/// The background sweep loop `serve --rebalance-interval-ms` starts: sweep
/// every `interval`, polling the shutdown flag often enough that `Shutdown`
/// is honoured promptly.
pub(crate) fn run(shared: &Arc<Shared>, interval: Duration) {
    let mut last = Instant::now();
    while !shared.shutting_down() {
        thread::sleep(SHUTDOWN_POLL.min(interval));
        if last.elapsed() >= interval {
            sweep(shared);
            last = Instant::now();
        }
    }
}
