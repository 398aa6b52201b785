//! Server counters and request-latency percentiles: one table of rows (the
//! `stats_table!` invocation below) and everything else derived from it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::lock::Lock;

/// How many recent request latencies the percentile window keeps. Old
/// samples are overwritten ring-buffer style, so percentiles track recent
/// behaviour on a long-lived server instead of averaging over its lifetime.
const LATENCY_WINDOW: usize = 4096;

/// A monotone count: it only ever goes up.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds an elapsed time, in whole microseconds.
    pub(crate) fn add_us(&self, elapsed: Duration) {
        self.add(micros(elapsed));
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level: each `set` replaces the last reading; `add` / `sub` move it by
/// what one owner of the quantity took or gave back.
#[derive(Debug, Default)]
pub(crate) struct Gauge(AtomicU64);

impl Gauge {
    pub(crate) fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The level now — for a cap check that cannot afford a whole
    /// [`Metrics::snapshot`] (it sorts the latency window).
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a derived row is computed from when a snapshot is taken.
struct Reading {
    epoch: u64,
    /// The latency window, sorted.
    latencies_us: Vec<u64>,
}

/// Evaluates a derived row; the bound is what gives the row's `|at| …` its
/// argument type.
fn derived(at: &Reading, row: impl Fn(&Reading) -> u64) -> u64 {
    row(at)
}

/// The one list of what the server counts. A row is a doc, a name and a
/// kind — `: Counter`, `: Gauge`, or `= |at| …` for a value derived from the
/// [`Reading`] when a snapshot is taken — and from the rows, in this order,
/// come [`StatsSnapshot`] (and through [`StatsSnapshot::to_fields`] its wire
/// record), the cells of [`Metrics`], one accessor per cell and
/// [`Metrics::snapshot`]. The compiler keeps the legs together: an accessor
/// nobody calls is `dead_code` (a counter nobody bumps), and `sflow request
/// --stats` binds the snapshot without `..`, so a row it does not print is
/// an unused variable there.
macro_rules! stats_table {
    ($( $(#[$doc:meta])* $name:ident $(: $cell:ident)? $(= $derive:expr)? ),* $(,)?) => {
        /// A point-in-time copy of the server's counters, as carried on the
        /// wire: its record is these fields in this order.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// How many rows the table has.
            pub(crate) const FIELDS: usize = [$(stringify!($name)),*].len();

            /// The fields in table order — the wire record.
            pub(crate) fn to_fields(self) -> [u64; Self::FIELDS] {
                let StatsSnapshot { $($name),* } = self;
                [$($name),*]
            }

            /// The inverse of [`StatsSnapshot::to_fields`].
            pub(crate) fn from_fields(fields: [u64; Self::FIELDS]) -> Self {
                let [$($name),*] = fields;
                StatsSnapshot { $($name),* }
            }
        }

        /// Shared, interior-mutable counters. Workers and the event loop
        /// record through the per-row accessors; the loop snapshots.
        #[derive(Debug, Default)]
        pub(crate) struct Metrics {
            $($( $name: $cell, )?)*
            latencies_us: Lock<LatencyWindow>,
        }

        impl Metrics {
            $($(
                pub(crate) fn $name(&self) -> &$cell {
                    &self.$name
                }
            )?)*

            /// Snapshots every row; `epoch` comes from the world the caller
            /// holds.
            pub(crate) fn snapshot(&self, epoch: u64) -> StatsSnapshot {
                let mut latencies_us = self.latencies_us.lock().samples.clone();
                latencies_us.sort_unstable();
                let at = Reading { epoch, latencies_us };
                StatsSnapshot {
                    $( $name: $(<$cell>::get(&self.$name))? $(derived(&at, $derive))?, )*
                }
            }
        }
    };
}

stats_table! {
    /// Federate requests answered with a flow.
    served: Counter,
    /// Requests shed by admission control (`Overloaded`).
    shed: Counter,
    /// Admitted requests that failed (parse error, unsatisfiable, …).
    failed: Counter,
    /// Federates served straight from the snapshot's requirement-keyed
    /// solve cache (after load revalidation on the residual path) — no
    /// solver ran.
    cache_hits: Counter,
    /// Federates that found no cached solve for their key and ran cold.
    cache_misses: Counter,
    /// Cached solves found but rejected because the flow no longer fit
    /// residual capacity under the live load plane; the request fell
    /// through to a cold solve. Disjoint from both hits and misses.
    cache_revalidation_fails: Counter,
    /// Live shared service forests: keyed bookings in the session table.
    /// Stored with `sessions` and `forest_tenants` by whoever holds the
    /// sessions lock, so `Stats` is answered without it.
    forests: Gauge,
    /// Live sessions attached to some forest (`sessions -
    /// forest_tenants` federated privately).
    forest_tenants: Gauge,
    /// Solves that reused the snapshot's already-built `HopMatrix` (its own
    /// first touch, or one carried forward from a QoS-only predecessor).
    hop_cache_hits: Counter,
    /// Solves that performed an epoch's first-touch `HopMatrix` build.
    hop_cache_misses: Counter,
    /// Federate answers discarded as `Stale`: the solve raced a mutation
    /// and its snapshot epoch was no longer current at session-open time.
    stale: Counter,
    /// Current topology epoch.
    epoch = |at| at.epoch,
    /// Live sessions held by the server.
    sessions: Gauge,
    /// Median request latency over the recent window, microseconds.
    latency_p50_us = |at| percentile(&at.latencies_us, 50),
    /// 90th-percentile request latency, microseconds.
    latency_p90_us = |at| percentile(&at.latencies_us, 90),
    /// 99th-percentile request latency, microseconds.
    latency_p99_us = |at| percentile(&at.latencies_us, 99),
    /// Routing-table patches triggered by mutations, one per mutation.
    rebuilds: Counter,
    /// Total wall-clock spent planning those patches, microseconds.
    rebuild_us_total: Counter,
    /// Materialised source trees invalidated across all mutation patches,
    /// swept again on their first read — by the repair sweep or a later
    /// solve. A QoS change invalidates far fewer than `rebuilds *
    /// instances`; a failure shadows every tree that reaches the failed
    /// instance, and a read sweeps only the rows whose answer the cut
    /// moved.
    trees_recomputed: Counter,
    /// Residual views materialised on demand: a cold solve (or a
    /// rebalancer mover) asked a booked load plane for its table and none
    /// had been built for that plane yet. Bookings move the ledger only;
    /// this is where their clamping and routing cost lands.
    plane_flushes: Counter,
    /// Total wall-clock those requests spent obtaining the table (the
    /// re-clamp of the links whose reservation moved since the epoch's
    /// last flush, the patch's plan, plus any wait behind a concurrent
    /// flush; the rows a solve reads are swept inside the solve),
    /// microseconds.
    plane_flush_us_total: Counter,
    /// Materialised source trees invalidated across all plane flushes; a
    /// solve sweeps only the invalidated rows it reads.
    plane_trees_recomputed: Counter,
    /// Malformed frames answered and degraded (oversized prefix, torn
    /// frame, a body that is not one well-formed record). A peer problem,
    /// never a worker problem.
    wire_errors: Counter,
    /// Requests answered "the request panicked", also counted in `failed`;
    /// in a debug build, a flow graph that failed its audit at assembly.
    panics: Counter,
    /// Sessions migrated to cheaper paths by rebalancer sweeps.
    migrations: Counter,
    /// Rebalancer movers that failed to re-solve or did not improve the
    /// world and were left on their original paths.
    migration_failures: Counter,
    /// The worst per-link utilization at the last reading, permille
    /// (1000 = a link exactly at capacity).
    max_link_utilization_permille: Gauge,
    /// Federates that failed against the residual view — the demand did not
    /// fit into what live sessions left free (`serve` without
    /// `--no-residual`).
    residual_rejects: Counter,
    /// Open client connections.
    connections_open: Gauge,
    /// Request frames admitted to the worker pool whose responses have not
    /// yet been handed back: up *before* the hand-off, so a fast worker's
    /// completion can never run first; down when the response comes back or
    /// the queue refuses the frame. Pipelining makes this exceed the
    /// connection count; inline control requests never appear here.
    frames_in_flight: Gauge,
    /// Times the event loop woke from its poll wait (readiness, a worker
    /// completion, or an idle tick).
    reactor_wakeups: Counter,
    /// Times a connection crossed its write high-water mark and had its
    /// read interest parked until the buffer drained.
    backpressure_pauses: Counter,
    /// Bytes currently staged in per-connection write buffers: up when
    /// staged, down when flushed to (or dying with) a socket. Backpressure
    /// bounds this per connection at roughly the high-water mark plus one
    /// frame.
    write_buffered_bytes: Gauge,
    /// Total wall-clock spent in mutations' repair sweeps — every
    /// booking's repair and the commit that rebases the ledger —
    /// microseconds. `rebuild_us_total` times the routing patch before it.
    repair_us_total: Counter,
    /// Bookings a repair sweep could not re-price — a selected instance
    /// failed, or a pinned stream lost its path — and re-solved around the
    /// survivors, re-federated, or dropped instead.
    repairs_resolved: Counter,
}

#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    next: usize,
}

/// `d` in whole microseconds, saturating at `u64::MAX`.
fn micros(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

impl Metrics {
    /// Records one request's end-to-end service latency.
    pub(crate) fn record_latency(&self, elapsed: Duration) {
        let us = micros(elapsed);
        let mut w = self.latencies_us.lock();
        if w.samples.len() < LATENCY_WINDOW {
            w.samples.push(us);
        } else {
            let i = w.next;
            w.samples[i] = us;
        }
        w.next = (w.next + 1) % LATENCY_WINDOW;
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
    fn a_snapshot_reads_every_kind_of_row() {
        let m = Metrics::default();
        for us in 1..=100 {
            m.record_latency(Duration::from_micros(us));
        }
        m.rebuilds().inc();
        m.rebuilds().inc();
        m.rebuild_us_total().add(120);
        m.rebuild_us_total().add(80);
        m.max_link_utilization_permille().set(1400);
        m.max_link_utilization_permille().set(450); // a gauge: each reading replaces
        m.write_buffered_bytes().add(100);
        m.write_buffered_bytes().sub(60);
        assert_eq!(m.write_buffered_bytes().get(), 40);
        let s = m.snapshot(3);
        assert_eq!(
            s,
            StatsSnapshot {
                rebuilds: 2,
                rebuild_us_total: 200,
                max_link_utilization_permille: 450,
                write_buffered_bytes: 40,
                epoch: 3,
                latency_p50_us: 51, // round-half-up nearest rank
                latency_p90_us: 90,
                latency_p99_us: 99,
                ..StatsSnapshot::default()
            }
        );
        assert_eq!(StatsSnapshot::from_fields(s.to_fields()), s);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[42], 99), 42);
    }

    #[test]
    fn window_overwrites_oldest_samples() {
        let m = Metrics::default();
        for _ in 0..LATENCY_WINDOW {
            m.record_latency(Duration::from_secs(1));
        }
        // A full window of fast requests displaces the slow prefix.
        for _ in 0..LATENCY_WINDOW {
            m.record_latency(Duration::from_micros(10));
        }
        let s = m.snapshot(0);
        assert_eq!(s.latency_p99_us, 10);
    }
}
