//! The session rebalancer: sweep hot links, migrate the cheapest crossing
//! sessions onto residual capacity, make-before-break.
//!
//! Each sweep (triggered by [`Request::Rebalance`](crate::Request::Rebalance)
//! or the background thread `serve --rebalance-interval-ms` starts):
//!
//! 1. ticks the load plane's discounted estimator;
//! 2. finds every link above the configured utilization threshold;
//! 3. ranks the sessions crossing those links by **migration cost** —
//!    session bandwidth × how many hot links its paths overlap — and takes
//!    the cheapest few;
//! 4. re-solves each mover against the residual view (its own booking still
//!    counted, which is exactly what steers the new path off the links it
//!    is congesting);
//! 5. commits each improving move make-before-break.
//!
//! Invariants, each pinned by a test or the lint engine:
//!
//! * **No lock guard is live across a re-solve.** The candidate list is
//!   copied out under the sessions lock, the guard is dropped, and every
//!   mover re-solves off-lock — the `guard-across-solve` audit rule names
//!   [`resolve_mover`] a solve, so a regression here fails CI.
//! * **Make-before-break.** A migration mutates the session entry in place
//!   under one sessions-lock hold — the session is never absent from the
//!   table — and the plane opens the new reservation *before* releasing
//!   the old, so claimed capacity is never unaccounted in between.
//! * **Failures change nothing.** A mover that cannot re-solve, or whose
//!   new path would not improve the world, is left byte-for-byte as it was
//!   and counted in `migration_failures`.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sflow_core::{FederationContext, FederationError, FlowGraph, ServiceRequirement, Solver};

use crate::load::links_of;
use crate::server::{residual_context, Shared};

/// At most this many sessions migrate per sweep: every migration derives
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
    /// Sessions moved to cheaper paths.
    pub migrations: usize,
    /// Movers that failed to re-solve or did not improve the world.
    pub migration_failures: usize,
    /// The worst per-link utilization after the sweep, permille.
    pub max_utilization_permille: u64,
}

/// One mover copied out of the session table: everything the off-lock
/// re-solve needs, so the table is untouched until the commit.
struct Candidate {
    id: u64,
    requirement: ServiceRequirement,
    /// Migration cost: session bandwidth × hot-link overlap. Cheap movers
    /// first — they free capacity with the least disruption.
    cost: u64,
}

/// Re-solves one mover against the residual view. A named entry point —
/// not an inlined `Solver` call — so the `guard-across-solve` audit rule
/// can police rebalancer solves by token: no lock guard may be live on any
/// line spanning a `resolve_mover(` call.
fn resolve_mover(
    ctx: &FederationContext<'_>,
    requirement: &ServiceRequirement,
) -> Result<FlowGraph, FederationError> {
    Solver::new(ctx).solve(requirement)
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
    shared.load.publish(Arc::new(plane.decayed()));
    drop(ticked);

    let plane = shared.load.load();
    outcome.max_utilization_permille = plane.max_utilization_permille();
    if plane.epoch() != snapshot.epoch() {
        // Mid-rebase: a mutation is republishing the ledger for a new
        // epoch; there is nothing coherent to balance against.
        shared
            .metrics
            .set_max_link_utilization(outcome.max_utilization_permille);
        return outcome;
    }
    let hot = plane.hot_links(shared.config.utilization_threshold_permille);
    if hot.is_empty() {
        shared
            .metrics
            .set_max_link_utilization(outcome.max_utilization_permille);
        return outcome;
    }

    // Copy the candidates out under the sessions lock, then drop it — the
    // re-solves below run with no guard live.
    let sessions = shared.sessions.lock();
    let mut candidates: Vec<Candidate> = sessions
        .live
        .iter()
        .filter_map(|(&id, session)| {
            if session.solved_epoch != snapshot.epoch() {
                return None;
            }
            // Forest members never migrate individually: the holder's
            // reservation carries every tenant of the shared instance set,
            // so moving one member would strand the others on a booking
            // their flow no longer matches. (Non-holders carry no links and
            // would never rank anyway; this also pins the holder.)
            if session.forest.is_some() {
                return None;
            }
            let overlap = session
                .links
                .iter()
                .filter(|(link, _)| hot.contains(link))
                .count() as u64;
            if overlap == 0 {
                return None;
            }
            Some(Candidate {
                id,
                requirement: session.requirement.clone(),
                cost: session
                    .flow
                    .quality()
                    .bandwidth
                    .as_kbps()
                    .saturating_mul(overlap),
            })
        })
        .collect();
    drop(sessions);
    candidates.sort_by_key(|c| (c.cost, c.id));
    candidates.truncate(MAX_MOVERS_PER_SWEEP);

    for candidate in candidates {
        // Solve against the *current* plane (it moves as earlier movers in
        // this very sweep commit). The mover's own booking is still
        // counted — that is what pushes the new path off its hot links.
        let ctx = residual_context(shared, &shared.load.load());
        let moved = match resolve_mover(&ctx, &candidate.requirement) {
            Ok(flow) => flow,
            Err(_) => {
                outcome.migration_failures += 1;
                shared.metrics.migration_failure();
                continue;
            }
        };

        // Commit under one sessions-lock hold. The entry is mutated in
        // place — a concurrent reader locking the table sees the session
        // at every instant, old path or new, never absent.
        let mut sessions = shared.sessions.lock();
        let plane = shared.load.load();
        let committed = (|| {
            let session = sessions.live.get_mut(&candidate.id)?;
            if plane.epoch() != snapshot.epoch() || session.solved_epoch != snapshot.epoch() {
                // The session closed, or a mutation overtook the sweep:
                // this answer describes a world that is gone.
                return None;
            }
            let new_links = links_of(&moved, snapshot.overlay());
            // Accept only improvements: the swap must not raise the global
            // worst link, and must strictly lower the worst utilization
            // among the links this session touches (old or new) — the
            // local progress that lets several equally-hot links drain one
            // at a time.
            let preview = plane.with_changes(&new_links, &session.links, workers);
            if preview.max_utilization_permille() > plane.max_utilization_permille() {
                return None;
            }
            let local_before = session
                .links
                .iter()
                .map(|&(link, _)| plane.utilization_permille(link))
                .max()
                .unwrap_or(0);
            let local_after = session
                .links
                .iter()
                .chain(new_links.iter())
                .map(|&(link, _)| preview.utilization_permille(link))
                .max()
                .unwrap_or(0);
            if local_after >= local_before {
                return None;
            }
            // Make-before-break: book the new path, swap the session in
            // place, only then release the old path.
            shared
                .load
                .publish(Arc::new(plane.with_changes(&new_links, &[], workers)));
            let old_links = std::mem::replace(&mut session.links, new_links);
            session.flow = moved;
            let broken = shared.load.load().with_changes(&[], &old_links, workers);
            shared.load.publish(Arc::new(broken));
            Some(())
        })();
        drop(sessions);
        match committed {
            Some(()) => {
                outcome.migrations += 1;
                shared.metrics.migration();
            }
            None => {
                outcome.migration_failures += 1;
                shared.metrics.migration_failure();
            }
        }
    }

    outcome.max_utilization_permille = shared.load.load().max_utilization_permille();
    shared
        .metrics
        .set_max_link_utilization(outcome.max_utilization_permille);
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
