//! Server counters and request-latency percentiles.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// How many recent request latencies the percentile window keeps. Old
/// samples are overwritten ring-buffer style, so percentiles track recent
/// behaviour on a long-lived server instead of averaging over its lifetime.
const LATENCY_WINDOW: usize = 4096;

/// A point-in-time copy of the server's counters, as carried on the wire:
/// its record is these fields in this order, expanded for encode and decode
/// from the one `struct_record!` list in `wire.rs` — which does not compile
/// until a field added here has joined it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Federate requests answered with a flow.
    pub served: u64,
    /// Requests shed by admission control (`Overloaded`).
    pub shed: u64,
    /// Admitted requests that failed (parse error, unsatisfiable, …).
    pub failed: u64,
    /// Federates served straight from the snapshot's requirement-keyed
    /// solve cache (after load revalidation on the residual path) — no
    /// solver ran.
    pub cache_hits: u64,
    /// Federates that found no cached solve for their key and ran cold.
    pub cache_misses: u64,
    /// Cached solves found but rejected because the flow no longer fit
    /// residual capacity under the live load plane; the request fell
    /// through to a cold solve. Disjoint from both hits and misses.
    pub cache_revalidation_fails: u64,
    /// Live shared service forests (gauge: tenant groups attached to one
    /// shared instance set).
    pub forests: u64,
    /// Live sessions attached to some forest (gauge; `sessions -
    /// forest_tenants` federated privately).
    pub forest_tenants: u64,
    /// Solves that reused the snapshot's already-built `HopMatrix` (its own
    /// first touch, or one carried forward from a QoS-only predecessor).
    pub hop_cache_hits: u64,
    /// Solves that performed an epoch's first-touch `HopMatrix` build.
    pub hop_cache_misses: u64,
    /// Federate answers discarded as `Stale`: the solve raced a mutation
    /// and its snapshot epoch was no longer current at session-open time.
    pub stale: u64,
    /// Current topology epoch.
    pub epoch: u64,
    /// Live sessions held by the server.
    pub sessions: u64,
    /// Median request latency over the recent window, microseconds.
    pub latency_p50_us: u64,
    /// 90th-percentile request latency, microseconds.
    pub latency_p90_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub latency_p99_us: u64,
    /// Routing-table rebuilds/patches triggered by mutations.
    pub rebuilds: u64,
    /// Total wall-clock spent in those rebuilds, microseconds.
    pub rebuild_us_total: u64,
    /// Source trees recomputed across all rebuilds (incremental patches
    /// recompute far fewer than `rebuilds * instances`).
    pub trees_recomputed: u64,
    /// Residual routing tables materialised on demand: a cold solve (or a
    /// rebalancer mover) asked a booked load plane for its table and none
    /// had been patched for that plane yet. Bookings move the ledger only;
    /// this is where their routing cost lands.
    pub plane_flushes: u64,
    /// Total wall-clock those requests spent obtaining the table (the
    /// patch, plus any wait behind a concurrent flush), microseconds.
    pub plane_flush_us_total: u64,
    /// Source trees recomputed across all plane flushes.
    pub plane_trees_recomputed: u64,
    /// Malformed frames answered and degraded (oversized prefix, torn
    /// frame, a body that is not one well-formed record). A peer problem,
    /// never a worker problem.
    pub wire_errors: u64,
    /// Model-invariant violations found by the flow-graph auditor
    /// (`serve --audit`); 0 when auditing is off or every answer checked out.
    pub audit_violations: u64,
    /// Sessions migrated to cheaper paths by rebalancer sweeps.
    pub migrations: u64,
    /// Rebalancer movers that failed to re-solve or did not improve the
    /// world and were left on their original paths.
    pub migration_failures: u64,
    /// The worst per-link utilization at the last reading, permille
    /// (1000 = a link exactly at capacity).
    pub max_link_utilization_permille: u64,
    /// Federates that failed against the residual view — the demand did not
    /// fit into what live sessions left free (`serve` without
    /// `--no-residual`).
    pub residual_rejects: u64,
    /// Open client connections (gauge).
    pub connections_open: u64,
    /// Request frames admitted to the worker pool whose responses have not
    /// yet been handed back (gauge). Pipelining makes this exceed the
    /// connection count; inline control requests never appear here.
    pub frames_in_flight: u64,
    /// Times a reactor thread woke from its poll wait (readiness, a worker
    /// completion, or an idle tick).
    pub reactor_wakeups: u64,
    /// Times a connection crossed its write high-water mark and had its
    /// read interest parked until the buffer drained.
    pub backpressure_pauses: u64,
    /// Bytes currently staged in per-connection write buffers (gauge).
    /// Backpressure bounds this per connection at roughly the high-water
    /// mark plus one frame.
    pub write_buffered_bytes: u64,
}

/// Shared, interior-mutable counters. Workers and reactors record; any
/// reactor snapshots.
#[derive(Debug, Default)]
pub struct Metrics {
    served: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_revalidation_fails: AtomicU64,
    sessions: AtomicU64,
    forests: AtomicU64,
    forest_tenants: AtomicU64,
    hop_cache_hits: AtomicU64,
    hop_cache_misses: AtomicU64,
    stale: AtomicU64,
    rebuilds: AtomicU64,
    rebuild_us_total: AtomicU64,
    trees_recomputed: AtomicU64,
    plane_flushes: AtomicU64,
    plane_flush_us_total: AtomicU64,
    plane_trees_recomputed: AtomicU64,
    wire_errors: AtomicU64,
    audit_violations: AtomicU64,
    migrations: AtomicU64,
    migration_failures: AtomicU64,
    max_link_utilization_permille: AtomicU64,
    residual_rejects: AtomicU64,
    connections_open: AtomicU64,
    frames_in_flight: AtomicU64,
    reactor_wakeups: AtomicU64,
    backpressure_pauses: AtomicU64,
    write_buffered_bytes: AtomicU64,
    latencies_us: Mutex<LatencyWindow>,
}

#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    next: usize,
}

impl Metrics {
    /// One request served successfully.
    pub fn served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// One request shed by admission control.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One admitted request failed.
    pub fn failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One federate served from the requirement-keyed solve cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One federate found no cached solve and ran cold.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One cached solve failed load revalidation and fell through cold.
    pub fn cache_revalidation_fail(&self) {
        self.cache_revalidation_fails
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the session table's census — live sessions, keyed bookings
    /// (forests) and the tenants attached to them. Gauges: each reading
    /// replaces the last. Stored by whoever holds the sessions lock, so
    /// `Stats` can be answered without it.
    pub fn set_census(&self, sessions: u64, forests: u64, tenants: u64) {
        self.sessions.store(sessions, Ordering::Relaxed);
        self.forests.store(forests, Ordering::Relaxed);
        self.forest_tenants.store(tenants, Ordering::Relaxed);
    }

    /// One solve reused the shared hop matrix.
    pub fn hop_cache_hit(&self) {
        self.hop_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One solve had to build the hop matrix.
    pub fn hop_cache_miss(&self) {
        self.hop_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One federate answer was discarded because a mutation raced the solve.
    pub fn stale(&self) {
        self.stale.fetch_add(1, Ordering::Relaxed);
    }

    /// One routing-table rebuild or patch: its wall-clock cost and how many
    /// source trees it actually recomputed.
    pub fn rebuild(&self, us: u64, trees: u64) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.rebuild_us_total.fetch_add(us, Ordering::Relaxed);
        self.trees_recomputed.fetch_add(trees, Ordering::Relaxed);
    }

    /// One residual table materialised for a load plane on demand: what the
    /// asking request waited for it and how many source trees the patch
    /// recomputed.
    pub fn plane_flush(&self, us: u64, trees: u64) {
        self.plane_flushes.fetch_add(1, Ordering::Relaxed);
        self.plane_flush_us_total.fetch_add(us, Ordering::Relaxed);
        self.plane_trees_recomputed
            .fetch_add(trees, Ordering::Relaxed);
    }

    /// One malformed frame was answered and its connection degraded.
    pub fn wire_error(&self) {
        self.wire_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The auditor found `count` invariant violations in one answer.
    pub fn audit_violations(&self, count: u64) {
        self.audit_violations.fetch_add(count, Ordering::Relaxed);
    }

    /// One session migrated by a rebalancer sweep.
    pub fn migration(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// One mover failed to re-solve (or did not improve the world).
    pub fn migration_failure(&self) {
        self.migration_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the latest worst-link utilization reading (a gauge, not a
    /// counter: each reading replaces the last).
    pub fn set_max_link_utilization(&self, permille: u64) {
        self.max_link_utilization_permille
            .store(permille, Ordering::Relaxed);
    }

    /// One federate failed against the residual view.
    pub fn residual_reject(&self) {
        self.residual_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// The current open-connection gauge, for cap checks on the accept path
    /// (a full [`Metrics::snapshot`] sorts the latency window — too heavy
    /// per accept).
    pub(crate) fn connections_open_now(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// One client connection opened (gauge up).
    pub fn conn_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// One client connection closed (gauge down).
    pub fn conn_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// One request frame is being handed to the worker pool (gauge up;
    /// called before the hand-off so a fast worker's
    /// [`Metrics::frame_completed`] can never run first).
    pub fn frame_dispatched(&self) {
        self.frames_in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// One counted frame's response came back, or the queue refused it
    /// (gauge down).
    pub fn frame_completed(&self) {
        self.frames_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// One reactor poll wait returned.
    pub fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection crossed its write high-water mark and parked reads.
    pub fn backpressure_pause(&self) {
        self.backpressure_pauses.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` bytes were staged into a connection's write buffer (gauge up).
    pub fn write_buffered(&self, n: u64) {
        self.write_buffered_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` staged bytes were flushed to (or died with) a socket (gauge down).
    pub fn write_drained(&self, n: u64) {
        self.write_buffered_bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records one request's end-to-end service latency.
    pub fn record_latency_us(&self, us: u64) {
        let mut w = self.latencies_us.lock();
        if w.samples.len() < LATENCY_WINDOW {
            w.samples.push(us);
        } else {
            let i = w.next;
            w.samples[i] = us;
        }
        w.next = (w.next + 1) % LATENCY_WINDOW;
    }

    /// Snapshots every counter; `epoch` comes from the world the caller
    /// holds.
    pub fn snapshot(&self, epoch: u64) -> StatsSnapshot {
        let mut sorted = self.latencies_us.lock().samples.clone();
        sorted.sort_unstable();
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_revalidation_fails: self.cache_revalidation_fails.load(Ordering::Relaxed),
            forests: self.forests.load(Ordering::Relaxed),
            forest_tenants: self.forest_tenants.load(Ordering::Relaxed),
            hop_cache_hits: self.hop_cache_hits.load(Ordering::Relaxed),
            hop_cache_misses: self.hop_cache_misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            epoch,
            sessions: self.sessions.load(Ordering::Relaxed),
            latency_p50_us: percentile(&sorted, 50),
            latency_p90_us: percentile(&sorted, 90),
            latency_p99_us: percentile(&sorted, 99),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            rebuild_us_total: self.rebuild_us_total.load(Ordering::Relaxed),
            trees_recomputed: self.trees_recomputed.load(Ordering::Relaxed),
            plane_flushes: self.plane_flushes.load(Ordering::Relaxed),
            plane_flush_us_total: self.plane_flush_us_total.load(Ordering::Relaxed),
            plane_trees_recomputed: self.plane_trees_recomputed.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            audit_violations: self.audit_violations.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            migration_failures: self.migration_failures.load(Ordering::Relaxed),
            max_link_utilization_permille: self
                .max_link_utilization_permille
                .load(Ordering::Relaxed),
            residual_rejects: self.residual_rejects.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            frames_in_flight: self.frames_in_flight.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Ordering::Relaxed),
            write_buffered_bytes: self.write_buffered_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Nearest-rank percentile over an already sorted slice; 0 when empty.
fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct as usize * (sorted.len() - 1) + 50) / 100;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_the_window() {
        let m = Metrics::default();
        for us in 1..=100 {
            m.record_latency_us(us);
        }
        m.rebuild(120, 3);
        m.rebuild(80, 1);
        m.plane_flush(900, 4);
        m.plane_flush(100, 0);
        m.migration();
        m.migration();
        m.migration_failure();
        m.residual_reject();
        m.set_max_link_utilization(1400);
        m.set_max_link_utilization(450); // a gauge: each reading replaces
        m.cache_hit();
        m.cache_hit();
        m.cache_miss();
        m.cache_revalidation_fail();
        m.hop_cache_hit();
        m.hop_cache_miss();
        m.set_census(99, 9, 90);
        m.set_census(7, 2, 5); // gauges replace, never accumulate
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.frame_dispatched();
        m.frame_dispatched();
        m.frame_completed();
        m.reactor_wakeup();
        m.backpressure_pause();
        m.write_buffered(100);
        m.write_drained(60);
        let s = m.snapshot(3);
        assert_eq!(s.connections_open, 1);
        assert_eq!(s.frames_in_flight, 1);
        assert_eq!(s.reactor_wakeups, 1);
        assert_eq!(s.backpressure_pauses, 1);
        assert_eq!(s.write_buffered_bytes, 40);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_revalidation_fails, 1);
        assert_eq!(s.hop_cache_hits, 1);
        assert_eq!(s.hop_cache_misses, 1);
        assert_eq!(s.forests, 2);
        assert_eq!(s.forest_tenants, 5);
        assert_eq!(s.migrations, 2);
        assert_eq!(s.migration_failures, 1);
        assert_eq!(s.residual_rejects, 1);
        assert_eq!(s.max_link_utilization_permille, 450);
        assert_eq!(s.epoch, 3);
        assert_eq!(s.sessions, 7);
        assert_eq!(s.rebuilds, 2);
        assert_eq!(s.rebuild_us_total, 200);
        assert_eq!(s.trees_recomputed, 4);
        assert_eq!(s.plane_flushes, 2);
        assert_eq!(s.plane_flush_us_total, 1000);
        assert_eq!(s.plane_trees_recomputed, 4);
        assert_eq!(s.latency_p50_us, 51); // round-half-up nearest rank
        assert_eq!(s.latency_p90_us, 90);
        assert_eq!(s.latency_p99_us, 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[42], 99), 42);
    }

    #[test]
    fn window_overwrites_oldest_samples() {
        let m = Metrics::default();
        for _ in 0..LATENCY_WINDOW {
            m.record_latency_us(1_000_000);
        }
        // A full window of fast requests displaces the slow prefix.
        for _ in 0..LATENCY_WINDOW {
            m.record_latency_us(10);
        }
        let s = m.snapshot(0);
        assert_eq!(s.latency_p99_us, 10);
    }
}
