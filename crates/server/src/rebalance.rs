//! The rebalancer: sweep hot links, migrate the cheapest crossing bookings
//! onto residual capacity, make-before-break.
//!
//! Each sweep (triggered by [`Request::Rebalance`](crate::Request::Rebalance)
//! or the background thread `serve --rebalance-interval-ms` starts):
//!
//! 1. finds every link above the configured utilization threshold;
//! 2. ranks the bookings crossing those links by **migration cost** — flow
//!    bandwidth × how many hot links its paths overlap — and takes the
//!    cheapest few;
//! 3. re-solves each mover against the residual view, under the algorithm
//!    and hop horizon it was federated with (its own booking still counted,
//!    which is exactly what steers the new path off the links it is
//!    congesting);
//! 4. commits each improving move make-before-break.
//!
//! What migrates is a booking, whole: the flow and the links live there, so
//! every tenant moves with it and none can be stranded. When the booking
//! holds its key's `by_key` slot the commit files the moved flow under the
//! key (`Sessions::rebook`, as a repair does), so later same-key tenants
//! attach instead of superseding.
//!
//! This module is policy: which links are hot, how movers rank
//! ([`migration_cost`]) and what counts as progress ([`improves`]). The
//! session table (`crate::sessions`) copies the candidates out and commits
//! each move; a sweep publishes one ledger move per migration and nothing
//! else.
//!
//! Invariants, each pinned by a test:
//!
//! * **No lock guard is live across a re-solve.** The candidate list is
//!   copied out under the sessions lock, the guard is dropped, and every
//!   mover re-solves off-lock — [`resolve_mover`] goes through
//!   `residual_context` and `cold_solve`, which debug-assert that this
//!   thread holds no server lock, so a regression here fails the
//!   rebalancer tests.
//! * **Make-before-break.** A migration mutates the booking in place under
//!   one sessions-lock hold — no tenant is ever absent from the table — and
//!   moves the ledger in one publication that books the new reservation and
//!   releases the old, so a reader off the lock sees one or the other and
//!   claimed capacity is never unaccounted.
//! * **Failures change nothing.** A mover that cannot re-solve, or whose
//!   new path would not improve the world, is left byte-for-byte as it was
//!   (the cached solve included) and counted in `migration_failures`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sflow_core::{FederationError, FlowGraph};

use crate::load::{LinkId, LoadPlane};
use crate::server::{cold_solve, residual_context, Shared};
use crate::sessions::{commit_migration, plan_migrations, Ask};
use crate::snapshot::WorldSnapshot;

/// At most this many bookings migrate per sweep: every migration derives a
/// preview plane under the sessions lock (the ledger only; the clamp and the
/// routing patch it implies are paid off-lock, by the next mover's
/// re-solve), and a
/// bounded sweep keeps the lock holds short. Convergence comes from repeated
/// sweeps, not from one big one.
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

/// Re-solves one mover against the residual view, by the algorithm and hop
/// horizon its booking was federated under; the flow comes back with the
/// snapshot it was solved against. Runs under no server lock: the context
/// and the solve it calls assert as much.
fn resolve_mover(
    shared: &Shared,
    ask: &Ask,
) -> Result<(Arc<WorldSnapshot>, FlowGraph), FederationError> {
    // Against the *current* plane (it moves as earlier movers in this very
    // sweep commit), whose context and hop matrix come from one snapshot.
    // The mover's own booking is still counted — that is what pushes the
    // new path off its hot links.
    let plane = shared.table.plane();
    let ctx = residual_context(shared, &plane);
    let moved = cold_solve(shared, plane.snapshot(), &ctx, ask)?;
    Ok((Arc::clone(plane.snapshot()), moved))
}

/// Migration cost: flow bandwidth × how many hot links the booking's paths
/// overlap; `None` for a booking that crosses none. Cheap movers first —
/// they free capacity with the least disruption.
pub(crate) fn migration_cost(
    hot: &BTreeSet<LinkId>,
    flow: &FlowGraph,
    links: &[(LinkId, u64)],
) -> Option<u64> {
    let overlap = links.iter().filter(|(link, _)| hot.contains(link)).count() as u64;
    (overlap > 0).then(|| flow.quality().bandwidth.as_kbps().saturating_mul(overlap))
}

/// The improvement test a move must pass, on the `preview` plane that books
/// the `new` links and releases the `old`: it must not raise the global
/// worst link, and must strictly lower the worst utilization among the
/// links the booking touches (old or new) — the local progress that lets
/// several equally-hot links drain one at a time.
pub(crate) fn improves(
    plane: &LoadPlane,
    preview: &LoadPlane,
    old: &[(LinkId, u64)],
    new: &[(LinkId, u64)],
) -> bool {
    if preview.max_utilization_permille() > plane.max_utilization_permille() {
        return false;
    }
    let worst = |plane: &LoadPlane, links: &[(LinkId, u64)]| {
        links
            .iter()
            .map(|&(link, _)| plane.utilization_permille(link))
            .max()
            .unwrap_or(0)
    };
    worst(preview, old).max(worst(preview, new)) < worst(plane, old)
}

/// One rebalancer sweep. Returns what it did; also publishes the
/// post-sweep worst-link utilization into the server metrics.
pub(crate) fn sweep(shared: &Shared) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();

    let plane = shared.table.plane();
    outcome.max_utilization_permille = plane.max_utilization_permille();
    // With no hot link there is nothing to do.
    let hot = plane.hot_links(shared.config.utilization_threshold_permille);
    drop(plane);
    if hot.is_empty() {
        shared
            .metrics
            .max_link_utilization_permille()
            .set(outcome.max_utilization_permille);
        return outcome;
    }

    // The candidates are copied out under the sessions lock; the re-solves
    // below run with no guard live.
    let mut candidates = plan_migrations(shared, &hot);
    candidates.sort_by_key(|(cost, mover)| (*cost, mover.booking));
    candidates.truncate(MAX_MOVERS_PER_SWEEP);

    for (_, mover) in candidates {
        let migrated = resolve_mover(shared, &mover.ask).is_ok_and(|(snapshot, moved)| {
            commit_migration(shared, &snapshot, mover.booking, moved)
        });
        if migrated {
            outcome.migrations += 1;
            shared.metrics.migrations().inc();
        } else {
            outcome.migration_failures += 1;
            shared.metrics.migration_failures().inc();
        }
    }

    outcome.max_utilization_permille = shared.table.plane().max_utilization_permille();
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
