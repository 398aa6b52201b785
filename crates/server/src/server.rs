//! The federation server: reactor connection plane, worker pool, admission
//! queue.
//!
//! Threading model. The **connection plane** — who turns sockets into
//! [`Request`]s and [`Response`]s into bytes — is the epoll reactor in
//! [`crate::reactor`]: one event loop drives a non-blocking listener and
//! every connection; per-connection state machines parse pipelined frames
//! incrementally and stage responses in write buffers. One loop serves tens
//! of thousands of connections.
//!
//! A fixed pool of **worker** threads drains a *bounded* crossbeam job queue
//! and runs solves/mutations against the published world snapshot. Requests
//! arrive in [`RequestFrame`](crate::RequestFrame) envelopes and responses
//! leave tagged with the same `request_id`; many frames from one connection
//! may be in flight at once and responses return in completion order, not
//! arrival order.
//!
//! Admission control happens where the reactor hands a job to the pool: a
//! `try_send` into the bounded queue either enqueues or fails immediately,
//! and a failure is answered with [`Response::Overloaded`] — the request is
//! shed, never buffered. `Stats`, `LoadMap` and `Shutdown` are handled
//! inline on the reactor (`control_response`) so observability and
//! operability survive overload.
//!
//! Locking: there is none on the solve path. `Federate` loads the published
//! load plane (an `Arc` clone), which carries the [`WorldSnapshot`] it
//! indexes, and solves against that immutable epoch with zero shared locks
//! held; the per-epoch hop matrix lives inside the snapshot and is built at
//! most once however many solvers race on it. `Mutate` serializes against
//! other mutations on the world mutex, assembles the successor snapshot off
//! to the side, publishes it as the ledger rebased onto it in the repair
//! copy-out, and then repairs the bookings. A solve overtaken by a mutation
//! is answered [`Response::Stale`] instead of opening a session solved
//! against a world that no longer exists.
//!
//! Sessions live in the tenants → bookings table (`crate::sessions`), the
//! one owner of its lock and of the load plane's publications. This module
//! solves — federates, repairs, the rebalancer's re-solves through
//! `cold_solve` — off every lock, and hands the table what to commit. Each
//! solve entry point debug-asserts that its thread holds no server lock
//! (`crate::lock`); only the world mutex may be held across a repair sweep.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use sflow_core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, ServicePathAlgorithm,
};
use sflow_core::repair::{repair_with, RepairOutcome};
use sflow_core::{
    FederationContext, FederationError, FlowGraph, OwnedFederationContext, ServiceRequirement,
    Solver,
};
use sflow_routing::Bandwidth;

use crate::load::LoadPlane;
use crate::lock::assert_unlocked;
use crate::reactor::{self, Dispatch, Inbox, Reply};
use crate::rebalance;
use crate::sessions::{
    commit_repairs, open_session, plan_repairs, release_session, Ask, Table, Work,
};
use crate::snapshot::{SolveKey, WorldSnapshot};
use crate::stats::Metrics;
use crate::world::World;
use crate::{Algorithm, LinkLoad, LoadMapSummary, Request, Response};

/// How a [`serve`] instance is sized.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue (min 1).
    pub workers: usize,
    /// Capacity of the bounded admission queue; a full queue sheds.
    pub queue_depth: usize,
    /// Hard cap on live sessions; `Federate` beyond it is answered with an
    /// error rather than growing without bound.
    pub max_sessions: usize,
    /// Read by nothing: no routing table is built on a worker pool (a
    /// mutation's patch and a ledger flush only plan, on the caller's
    /// thread). Kept so that configurations which still set it build.
    pub route_workers: usize,
    /// Federate against **residual** capacity (`capacity − reserved`)
    /// instead of raw link capacity. On by default; `serve --no-residual`
    /// turns it off — the load ledger still tracks every session, but the
    /// solver goes back to being blind to live load.
    pub residual: bool,
    /// Serve repeated requirements from the per-snapshot solve cache and
    /// attach same-key tenants to shared service forests. On by default;
    /// `serve --no-solve-cache` turns it off — every federate then runs a
    /// cold solve and opens a private session.
    pub solve_cache: bool,
    /// Run a background rebalancer sweep this often. `None` (the default)
    /// starts no thread; [`Request::Rebalance`] still sweeps on demand.
    pub rebalance_interval: Option<Duration>,
    /// A link is *hot* — a rebalancer target — above this utilization, in
    /// permille of raw capacity (900 = 90%).
    pub utilization_threshold_permille: u64,
    /// Read by nothing: one epoll event loop serves every connection. Kept
    /// so that configurations which still set it build.
    pub reactor_threads: usize,
    /// Slow-reader backpressure: a connection whose staged response bytes
    /// exceed this mark stops being polled for read until the buffer fully
    /// drains. Bytes; the default is 256 KiB.
    pub write_high_water: usize,
    /// Hard cap on concurrently open connections; the acceptor drops
    /// streams beyond it. `0` auto-sizes to 65536 (bounded only by fds).
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_sessions: 16_384,
            route_workers: 0,
            residual: true,
            solve_cache: true,
            rebalance_interval: None,
            utilization_threshold_permille: 900,
            reactor_threads: 1,
            write_high_water: 256 * 1024,
            max_connections: 0,
        }
    }
}

impl ServerConfig {
    /// Resolves [`ServerConfig::max_connections`]' auto value.
    pub(crate) fn effective_max_connections(&self) -> usize {
        if self.max_connections != 0 {
            self.max_connections
        } else {
            65_536
        }
    }
}

/// State shared by every thread of one server instance.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    /// The mutator. Only `Mutate` jobs take this lock; the read path never
    /// touches it, so mutations serialize exclusively against each other.
    /// The one lock a solve may run under, so not a `Lock`:
    /// a mutation's repair sweep runs under it.
    #[expect(
        clippy::disallowed_types,
        reason = "mutations serialize across their repair sweep, which solves"
    )]
    pub(crate) world: parking_lot::Mutex<World>,
    /// The session table and the load plane it alone publishes — the one
    /// view of the world every reader loads.
    pub(crate) table: Table,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    /// The one event loop's poller and the queue workers answer into:
    /// a finished job or a shutdown wakes the loop here.
    pub(crate) inbox: Inbox,
}

impl Shared {
    /// One server's state over `world`, sized by `config`. Fails only if
    /// the event loop's poller cannot be created.
    fn new(world: World, config: &ServerConfig) -> io::Result<Self> {
        Ok(Shared {
            config: *config,
            table: Table::new(&world.snapshot()),
            world: world.into(),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            inbox: Inbox::new()?,
        })
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins every server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops on its own — i.e. until some client
    /// sends [`Request::Shutdown`]. This is what `sflow serve` does.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the event loop out of its poll wait ahead of the next tick.
        self.shared.inbox.wake();
        let _ = acceptor.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One admitted unit of work plus the route its answer goes back on.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) reply: Reply,
}

/// Binds a loopback port and starts serving `world`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(world: World, config: &ServerConfig) -> io::Result<ServerHandle> {
    serve_on("127.0.0.1:0", world, config)
}

/// [`serve`] on an explicit address (`"127.0.0.1:0"` picks a free port).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_on(addr: &str, world: World, config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(world, config)?);
    let (job_tx, job_rx) = bounded::<Job>(config.queue_depth.max(1));

    let mut workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let jobs = job_rx.clone();
            thread::spawn(move || worker_loop(&shared, &jobs))
        })
        .collect();
    drop(job_rx);

    // The rebalancer thread, if configured: sweeps on its interval, exits
    // with the shutdown flag, joined with the workers.
    if let Some(interval) = config.rebalance_interval {
        let shared = Arc::clone(&shared);
        workers.push(thread::spawn(move || rebalance::run(&shared, interval)));
    }

    let acceptor = reactor::spawn(Arc::clone(&shared), listener, job_tx, workers)?;
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

/// Answers the control-plane requests inline — never a queue slot, so
/// observability (`Stats`, `LoadMap`) and operability (`Shutdown`) survive
/// overload. Returns `None` for data-plane requests, which must go through
/// admission. This runs on the event loop itself, so nothing here may block
/// (the session census is a gauge published wherever the table changes, not
/// a lock taken here).
pub(crate) fn control_response(shared: &Shared, request: &Request) -> Option<Response> {
    match request {
        Request::Stats => {
            // Refresh the utilization gauge so Stats is current even when
            // no sweep has run since the load last moved.
            let plane = shared.table.plane();
            shared
                .metrics
                .max_link_utilization_permille()
                .set(plane.max_utilization_permille());
            Some(Response::Stats(shared.metrics.snapshot(plane.epoch())))
        }
        // Like Stats: a read of the published plane, answerable under
        // overload without a queue slot.
        Request::LoadMap => Some(Response::LoadMap(load_map_summary(shared))),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // This runs on the event loop; the wake returns its next poll
            // wait at once, so it sees the flag without waiting a tick.
            shared.inbox.wake();
            Some(Response::ShuttingDown)
        }
        // Named, not `_`: a new request must be placed in one plane or
        // the other before it compiles.
        Request::Federate { .. }
        | Request::Mutate(_)
        | Request::Release { .. }
        | Request::Rebalance => None,
    }
}

/// The server's one admission decision: `try_send` into the bounded queue
/// or shed. The frame joins the `frames_in_flight` gauge *before* the
/// hand-off — a worker can finish the job (and take it back off the gauge)
/// before `try_send` even returns — and leaves it again if the queue refuses.
pub(crate) fn admit(metrics: &Metrics, job_tx: &Sender<Job>, job: Job) -> Dispatch {
    metrics.frames_in_flight().add(1);
    let refused = match job_tx.try_send(job) {
        Ok(()) => return Dispatch::Admitted,
        Err(TrySendError::Full(_)) => {
            metrics.shed().inc();
            Response::Overloaded
        }
        Err(TrySendError::Disconnected(_)) => Response::Error("server shutting down".into()),
    };
    metrics.frames_in_flight().sub(1);
    Dispatch::Inline(Box::new(refused))
}

/// Drains the admission queue until shutdown.
fn worker_loop(shared: &Shared, jobs: &Receiver<Job>) {
    loop {
        match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                // A panicking request (in a debug build, a flow graph that
                // fails its audit too) costs that request, not the worker:
                // the reply still goes out, `panics` counts it and the
                // thread keeps draining. The locks it held do not poison.
                let response = catch_unwind(AssertUnwindSafe(|| execute(shared, job.request)))
                    .unwrap_or_else(|_| {
                        shared.metrics.panics().inc();
                        shared.metrics.failed().inc();
                        Response::Error("internal error: the request panicked".into())
                    });
                job.reply.send(&shared.metrics, &shared.inbox, response);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Fault hook: a federate for this requirement panics inside [`execute`].
#[cfg(test)]
const PANICKING_REQUIREMENT: &str = "panic!";

/// Runs one admitted job and accounts its latency.
fn execute(shared: &Shared, request: Request) -> Response {
    let start = Instant::now();
    let response = match request {
        Request::Federate {
            requirement,
            algorithm,
            hop_limit,
        } => {
            #[cfg(test)]
            assert_ne!(requirement, PANICKING_REQUIREMENT, "fault hook");
            federate(shared, &requirement, algorithm, hop_limit)
        }
        Request::Mutate(mutation) => mutate(shared, &mutation),
        Request::Release { session } => release_session(shared, session),
        Request::Rebalance => {
            let outcome = rebalance::sweep(shared);
            Response::Rebalanced {
                migrations: outcome.migrations,
                migration_failures: outcome.migration_failures,
                max_utilization_permille: outcome.max_utilization_permille,
            }
        }
        // Handled inline by the reactor; an admitted copy is a bug in its
        // dispatcher, answered defensively rather than panicking a worker.
        Request::Stats | Request::LoadMap | Request::Shutdown => {
            Response::Error("control request in queue".into())
        }
    };
    shared.metrics.record_latency(start.elapsed());
    response
}

/// Solves one requirement against the published plane's snapshot — no
/// shared lock is held anywhere in the solve — and opens a session.
fn federate(
    shared: &Shared,
    spec: &str,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
) -> Response {
    let requirement: ServiceRequirement = match spec.parse() {
        Ok(requirement) => requirement,
        Err(e) => {
            shared.metrics.failed().inc();
            return Response::Error(format!("bad requirement {spec:?}: {e}"));
        }
    };
    // One Arc clone; everything below runs against this immutable epoch,
    // concurrent mutations notwithstanding.
    let plane = shared.table.plane();
    federate_against(shared, plane, requirement, algorithm, hop_limit)
}

/// The epoch-pinned half of [`federate`]: serves the requirement from the
/// solve cache of `plane`'s snapshot when possible (revalidating the cached
/// flow against the live load plane), falls through to a cold solve
/// against `plane` otherwise, then opens a session — unless a mutation
/// overtook it, in which case the answer is [`Response::Stale`]. Split out
/// so the race window is testable with a plane held across a mutation.
fn federate_against(
    shared: &Shared,
    plane: Arc<LoadPlane>,
    requirement: ServiceRequirement,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
) -> Response {
    let snapshot = Arc::clone(plane.snapshot());
    let key = shared.config.solve_cache.then(|| SolveKey {
        requirement: requirement.canonical_key(),
        algorithm,
        hop_limit,
    });
    let ask = Arc::new(Ask {
        requirement,
        algorithm,
        hop_limit,
        key,
    });
    // Warm path: this snapshot holds a flow for the same key — a cold solve
    // against it, or the flow a repair or migration filed for a booking. A
    // filed entry outlives its booking until the next mutation, so a later
    // founder may take a repaired flow rather than a fresh solve. The
    // cached flow is exact w.r.t. topology and QoS (it lives inside the
    // epoch) but blind to load, so under residual admission the table
    // revalidates it against the live plane and, if the capacity is gone,
    // evicts it and refuses — the request then falls through to the cold
    // path below.
    if let Some(key) = &ask.key {
        if let Some(flow) = snapshot.cached_solve(key) {
            match open_session(shared, &snapshot, &ask, &flow, true) {
                Some(response) => {
                    if matches!(response, Response::Federated(_)) {
                        shared.metrics.cache_hits().inc();
                    }
                    return response;
                }
                None => shared.metrics.cache_revalidation_fails().inc(),
            }
        } else {
            shared.metrics.cache_misses().inc();
        }
    }
    // Residual routing: solve against what live sessions left free — the
    // clamped overlay and its table, which this is the moment to build if
    // no earlier cold solve asked this plane for it. Under the
    // `--no-residual` knob, or on an empty ledger, the snapshot's raw
    // capacity serves. Either context is an immutable `Arc` bundle; no lock
    // is held across the solve.
    let residual = shared.config.residual && !plane.map().is_empty();
    let ctx = if residual {
        residual_context(shared, &plane)
    } else {
        snapshot.context()
    };
    drop(plane);
    let flow = match cold_solve(shared, &snapshot, &ctx, &ask) {
        Ok(flow) => flow,
        Err(e) => {
            if residual {
                // The demand did not fit into residual capacity. Counted
                // separately from plain failures: on a loaded server this
                // is admission control doing its job, not a bad request.
                shared.metrics.residual_rejects().inc();
            }
            shared.metrics.failed().inc();
            return Response::Error(e.to_string());
        }
    };
    // File the answer under its key. `cache_solve` is first-writer-wins, so
    // racing cold solves of one key converge on a single canonical flow —
    // the one `Arc` the key's booking and every later tenant share.
    let flow = match &ask.key {
        Some(key) => snapshot.cache_solve(key.clone(), flow),
        None => Arc::new(flow),
    };
    // A cold solve against the residual context already proved it fits;
    // no revalidation, so this open cannot be refused.
    open_session(shared, &snapshot, &ask, &flow, false)
        .unwrap_or_else(|| Response::Error("cold open refused".into()))
}

/// The one cold solve: an ask's requirement under its algorithm and hop
/// limit against `ctx`, for a federate and for a rebalancer mover alike — a
/// booking is re-solved by the rules it was federated under. Takes no
/// server lock; must not be called under one.
pub(crate) fn cold_solve(
    shared: &Shared,
    snapshot: &WorldSnapshot,
    ctx: &FederationContext<'_>,
    ask: &Ask,
) -> Result<FlowGraph, FederationError> {
    assert_unlocked("a cold solve");
    let requirement = &ask.requirement;
    match ask.algorithm {
        Algorithm::Sflow => {
            let solver = match ask.hop_limit {
                Some(limit) => {
                    let (matrix, built) = snapshot.hop_matrix_tracked();
                    if built {
                        shared.metrics.hop_cache_misses().inc();
                    } else {
                        shared.metrics.hop_cache_hits().inc();
                    }
                    Solver::new(ctx).with_hop_matrix(limit, matrix)
                }
                None => Solver::new(ctx),
            };
            solver.solve(requirement)
        }
        Algorithm::Global => GlobalOptimalAlgorithm.federate(ctx, requirement),
        Algorithm::Fixed => FixedAlgorithm.federate(ctx, requirement),
        Algorithm::ServicePath => ServicePathAlgorithm.federate(ctx, requirement),
    }
}

/// `plane`'s residual context for a cold solve or a rebalancer mover. Ledger
/// moves defer their routing work to the first such ask, so this is where it
/// is paid and accounted (`plane_flushes` and friends in `Stats`). Takes no
/// server lock; must not be called under one.
pub(crate) fn residual_context(shared: &Shared, plane: &LoadPlane) -> OwnedFederationContext {
    assert_unlocked("a residual context");
    let start = Instant::now();
    let (ctx, flushed) = plane.flushed_context();
    if let Some(stats) = flushed {
        let metrics = &shared.metrics;
        metrics.plane_flushes().inc();
        metrics.plane_flush_us_total().add_us(start.elapsed());
        metrics
            .plane_trees_recomputed()
            .add(stats.trees_recomputed as u64);
    }
    ctx
}

/// Flattens the published load plane for the wire.
fn load_map_summary(shared: &Shared) -> LoadMapSummary {
    let plane = shared.table.plane();
    let links = plane
        .map()
        .iter_reserved()
        .map(|(link, reserved_kbps)| LinkLoad {
            from: link.0,
            to: link.1,
            capacity_kbps: plane.capacity(link).map_or(0, Bandwidth::as_kbps),
            reserved_kbps,
            estimate_kbps: plane.map().estimate_kbps(link),
            residual_kbps: plane.residual_kbps(link),
            utilization_permille: plane.utilization_permille(link),
        })
        .collect();
    LoadMapSummary {
        epoch: plane.epoch(),
        version: plane.version(),
        max_utilization_permille: plane.max_utilization_permille(),
        links,
    }
}

/// Applies one mutation and repairs every booking against the new epoch —
/// sFlow's agility as a server operation.
///
/// The world mutex serializes mutations *against each other only*; readers
/// load snapshots and never block here. The guard intentionally spans the
/// repair sweep so sweeps from back-to-back mutations cannot interleave —
/// the one lock a solve may run under, which is why it is a raw mutex and
/// not a `Lock`, whose guards the sweep asserts away.
fn mutate(shared: &Shared, mutation: &crate::Mutation) -> Response {
    let mut world = shared.world.lock();
    let rebuild = match world.apply(mutation) {
        Ok(rebuild) => rebuild,
        Err(e) => {
            shared.metrics.failed().inc();
            return Response::Error(e.to_string());
        }
    };
    let metrics = &shared.metrics;
    metrics.rebuilds().inc();
    metrics.rebuild_us_total().add_us(rebuild.duration);
    metrics.trees_recomputed().add(rebuild.trees_recomputed);
    // The copy-out publishes the successor: federates from here on solve at
    // its epoch, and any solve still in flight at the old one will answer
    // `Stale` rather than slip into the session table behind us.
    let snapshot = world.snapshot();
    let plan = plan_repairs(shared, &snapshot);
    repair_bookings(shared, &snapshot, plan)
}

/// Repairs each booking a repair sweep copied out once against `snapshot`,
/// with no lock held, then has the table commit the survivors and rebase
/// the ledger. A booking whose selection survived whole is re-priced on the
/// new table; one that lost an instance or a stream is re-solved around its
/// survivors; if that fails it is re-federated by the rules it was booked
/// under — its [`Ask`]'s algorithm and hop limit, through [`cold_solve`] —
/// so the flow `rebook` files under the booking's key is one that key's
/// cold solve could have given. Times the sweep (`repair_us_total`) and
/// counts the bookings it could not re-price (`repairs_resolved`).
fn repair_bookings(shared: &Shared, snapshot: &Arc<WorldSnapshot>, plan: Vec<Work>) -> Response {
    assert_unlocked("a repair sweep");
    let start = Instant::now();
    let metrics = &shared.metrics;
    let ctx = snapshot.context();
    let repaired = plan
        .into_iter()
        .filter_map(|work| {
            let ask = &work.ask;
            let outcome = repair_with(&ctx, &ask.requirement, &work.flow, || {
                cold_solve(shared, snapshot, &ctx, ask)
            });
            if !outcome.as_ref().is_ok_and(RepairOutcome::repriced) {
                metrics.repairs_resolved().inc();
            }
            Some((work.booking, outcome.ok()?.flow))
        })
        .collect();
    let response = commit_repairs(shared, snapshot, repaired);
    metrics.repair_us_total().add_us(start.elapsed());
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{LinkId, LoadMap};
    use crate::sessions::{Booking, Sessions};
    use crate::snapshot::same_flow;
    use crate::Mutation;
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement, Fixture};
    use sflow_core::repair::repair;
    use sflow_core::validate::FlowGraphAuditor;
    use sflow_net::{Compatibility, Placement, ServiceId, ServiceInstance, UnderlyingNetwork};
    use sflow_routing::{Latency, Qos};
    use std::collections::BTreeMap;

    /// A `Shared` with no listener behind it: enough to drive the worker
    /// entry points (`federate_against`, `mutate`) directly.
    fn shared_over(fixture: Fixture, config: ServerConfig) -> Shared {
        Shared::new(World::new(fixture), &config).unwrap()
    }

    fn shared_over_diamond() -> Shared {
        shared_over(diamond_fixture(), ServerConfig::default())
    }

    /// The snapshot of the published plane.
    fn snapshot_of(shared: &Shared) -> Arc<WorldSnapshot> {
        Arc::clone(shared.table.plane().snapshot())
    }

    /// Federates `requirement` against the published plane; the session id.
    fn open(shared: &Shared, requirement: &ServiceRequirement, hop_limit: Option<usize>) -> u64 {
        match federate_against(
            shared,
            shared.table.plane(),
            requirement.clone(),
            Algorithm::Sflow,
            hop_limit,
        ) {
            Response::Federated(summary) => summary.session,
            other => panic!("expected Federated, got {other:?}"),
        }
    }

    /// The first live instance that is not the pinned source.
    fn a_victim(shared: &Shared) -> ServiceInstance {
        let snapshot = snapshot_of(shared);
        let overlay = snapshot.overlay();
        let live = overlay.graph().node_ids().filter(|&n| overlay.is_live(n));
        let mut instances = live.map(|n| overlay.instance(n));
        let victim = instances.find(|i| *i != snapshot.source());
        victim.unwrap()
    }

    /// The first half of `mutate`, stopped where a test can interleave:
    /// applies `mutation` and plans the repairs, which publishes the
    /// successor epoch. `repair_bookings` on the returned pair finishes it.
    fn begin_sweep(shared: &Shared, mutation: &Mutation) -> (Arc<WorldSnapshot>, Vec<Work>) {
        let mut world = shared.world.lock();
        world.apply(mutation).unwrap();
        let snapshot = world.snapshot();
        let plan = plan_repairs(shared, &snapshot);
        (snapshot, plan)
    }

    /// A QoS wobble on the first link some booking reserves.
    fn wobble_a_booked_link(shared: &Shared) -> Mutation {
        let plane = shared.table.plane();
        let (link, _) = plane.map().iter_reserved().next().expect("a booked link");
        Mutation::SetLinkQos {
            from: link.0,
            to: link.1,
            bandwidth_kbps: plane.capacity(link).unwrap().as_kbps() + 1,
            latency_us: 11,
        }
    }

    /// Satellite regression: a solve that a mutation overtakes is answered
    /// with the typed `Stale` response — carrying both epochs — instead of
    /// opening a session priced and booked on an epoch that is gone.
    #[test]
    fn a_solve_overtaken_by_a_mutation_is_answered_stale() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        // The solver's plane load...
        let stale_plane = shared.table.plane();
        // ...raced by an instance failure, which may fail an instance the
        // answer selects.
        let victim = a_victim(&shared);
        match mutate(&shared, &Mutation::FailInstance { instance: victim }) {
            Response::Mutated { epoch: 1, .. } => {}
            other => panic!("expected Mutated at epoch 1, got {other:?}"),
        }

        match federate_against(
            &shared,
            stale_plane,
            requirement.clone(),
            Algorithm::Sflow,
            Some(2),
        ) {
            Response::Stale {
                solved_epoch,
                current_epoch,
            } => {
                assert_eq!(solved_epoch, 0);
                assert_eq!(current_epoch, 1);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        // No session opened; the stale counter moved; nothing was "served".
        assert_eq!(shared.table.lock().tenants.len(), 0);
        let stats = shared.metrics.snapshot(shared.table.plane().epoch());
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.served, 0);

        // A fresh load federates normally at the new epoch.
        let fresh = shared.table.plane();
        match federate_against(&shared, fresh, requirement, Algorithm::Sflow, Some(2)) {
            Response::Federated(s) => assert_eq!(s.epoch, 1),
            other => panic!("expected Federated, got {other:?}"),
        }
        assert_conserved(&shared);
        assert_eq!(shared.metrics.snapshot(1).sessions, 1);
    }

    /// A federate can load the successor plane (published by the sweep's
    /// copy-out) and found a booking at the new epoch while the repairs
    /// solve. The commit must leave it exactly as it is — neither repaired
    /// nor dropped as "left behind".
    #[test]
    fn a_booking_founded_at_the_successor_epoch_survives_the_sweep() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        // A booking legitimately founded at epoch 0 — the sweep's real work.
        open(&shared, &requirement, None);
        let victim = a_victim(&shared);
        let (snapshot, plan) = begin_sweep(&shared, &Mutation::FailInstance { instance: victim });
        assert_eq!(plan.len(), 1);
        assert_eq!(
            shared.table.plane().epoch(),
            1,
            "the copy-out moved the plane"
        );
        assert_ledger_conserved(&shared);

        // Mid-sweep, another key founds at epoch 1 and books on the new
        // epoch's plane, next to the old booking's surviving links.
        let late = open(&shared, &requirement, Some(3));
        let founded = Arc::clone(&shared.table.lock().bookings[&late].flow);
        assert_ledger_conserved(&shared);
        match repair_bookings(&shared, &snapshot, plan) {
            Response::Mutated {
                epoch: 1,
                repaired,
                dropped,
            } => assert_eq!(repaired + dropped, 1, "only the epoch-0 booking was swept"),
            other => panic!("expected Mutated at epoch 1, got {other:?}"),
        }
        let sessions = shared.table.lock();
        let survivor = &sessions.bookings[&late];
        assert_eq!(survivor.epoch, 1);
        assert!(Arc::ptr_eq(&survivor.flow, &founded), "not re-solved");
        assert!(!survivor.links.is_empty());
        drop(sessions);
        assert_conserved(&shared);
    }

    /// While a repair sweep is between its halves the table is where it
    /// always is: the session cap keeps counting every tenant, and `Stats`
    /// reports them.
    #[test]
    fn admission_and_stats_count_sessions_while_a_sweep_is_in_flight() {
        let config = ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        };
        let shared = shared_over(diamond_fixture(), config);
        let requirement = diamond_requirement();
        open(&shared, &requirement, None);
        open(&shared, &requirement, None);
        let mutation = wobble_a_booked_link(&shared);
        let (snapshot, plan) = begin_sweep(&shared, &mutation);
        assert_eq!(plan.len(), 1, "two tenants, one booking to repair");
        assert_ledger_conserved(&shared);

        assert_eq!(shared.metrics.snapshot(1).sessions, 2);
        let successor = shared.table.plane();
        match federate_against(&shared, successor, requirement, Algorithm::Sflow, None) {
            Response::Error(e) => assert!(e.contains("session table full"), "got {e:?}"),
            other => panic!("expected the session cap to hold mid-sweep, got {other:?}"),
        }
        match repair_bookings(&shared, &snapshot, plan) {
            Response::Mutated {
                repaired: 2,
                dropped: 0,
                ..
            } => {}
            other => panic!("expected both tenants repaired, got {other:?}"),
        }
        assert_eq!(shared.metrics.snapshot(1).sessions, 2);
        assert_conserved(&shared);
    }

    /// The fix for releases lost to a sweep: between plan and commit a
    /// `Release` finds its session (the table was never taken away), a
    /// tenant leaving co-tenants behind is simply not counted, and a booking
    /// whose last tenant left is not resurrected by the commit.
    #[test]
    fn a_release_racing_a_repair_sweep_is_answered_and_not_resurrected() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        let shared_key: Vec<u64> = (0..3).map(|_| open(&shared, &requirement, None)).collect();
        let alone = open(&shared, &requirement, Some(3));
        let mutation = wobble_a_booked_link(&shared);
        let (snapshot, plan) = begin_sweep(&shared, &mutation);
        assert_eq!(plan.len(), 2);

        // One of three co-tenants leaves; the other key's only tenant
        // leaves and its booking, still at the old epoch, dissolves — off
        // the new epoch's plane.
        for session in [shared_key[1], alone] {
            match release_session(&shared, session) {
                Response::Released { session: closed } => assert_eq!(closed, session),
                other => panic!("expected Released mid-sweep, got {other:?}"),
            }
            assert_ledger_conserved(&shared);
        }
        // And a tenant arrives at the successor epoch.
        let late = open(&shared, &requirement, Some(2));
        assert_ledger_conserved(&shared);

        match repair_bookings(&shared, &snapshot, plan) {
            Response::Mutated {
                epoch: 1,
                repaired: 2,
                dropped: 0,
            } => {}
            other => panic!("expected the two tenants still there repaired, got {other:?}"),
        }
        assert_conserved(&shared);
        let stats = shared.metrics.snapshot(1);
        assert_eq!((stats.sessions, stats.forests, stats.failed), (3, 2, 0));
        assert!(!shared.table.lock().bookings.contains_key(&alone));
        for session in [shared_key[0], shared_key[2], late] {
            assert!(matches!(
                release_session(&shared, session),
                Response::Released { .. }
            ));
        }
        assert!(
            shared.table.plane().map().is_empty(),
            "no leaked reservation"
        );
        assert_conserved(&shared);
    }

    /// No blind admission mid-sweep: a federate between a mutation's
    /// copy-out and its commit solves against the new epoch's residual
    /// plane, which already carries every live booking. One booking fills
    /// a route of the twin-route world; a QoS change on the other route
    /// (slower, not narrower) is mid-sweep when a second key founds. It
    /// must take the free route — a blind solve prefers the full, faster
    /// one and the commit would book it twice, 2000‰.
    #[test]
    fn a_federate_mid_sweep_is_admitted_against_the_new_epochs_plane() {
        let (mut shared, requirement) = shared_over_twin_routes();
        shared.config.residual = true;
        shared.config.solve_cache = true;
        let first = open(&shared, &requirement, None);
        let plane = shared.table.plane();
        assert_eq!(plane.max_utilization_permille(), 1000);
        let full = plane.hot_links(999);
        let links = shared.table.lock().bookings[&first].links.clone();
        let snapshot = plane.snapshot();
        let overlay = snapshot.overlay();
        let unrelated = overlay
            .graph()
            .node_ids()
            .flat_map(|n| overlay.graph().out_edges(n))
            .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
            .find(|link| links.iter().all(|(booked, _)| booked != link))
            .expect("a link the booking does not cross");
        let mutation = Mutation::SetLinkQos {
            from: unrelated.0,
            to: unrelated.1,
            bandwidth_kbps: plane.capacity(unrelated).unwrap().as_kbps(),
            latency_us: 500,
        };
        drop(plane);

        let (snapshot, plan) = begin_sweep(&shared, &mutation);
        assert_eq!(plan.len(), 1);
        let second = open(&shared, &requirement, Some(3));
        assert_ledger_conserved(&shared);
        match repair_bookings(&shared, &snapshot, plan) {
            Response::Mutated {
                epoch: 1,
                repaired: 1,
                dropped: 0,
            } => {}
            other => panic!("expected the first booking repaired, got {other:?}"),
        }
        let plane = shared.table.plane();
        assert!(
            plane.max_utilization_permille() <= 1000,
            "a finite link is overbooked: {}‰",
            plane.max_utilization_permille()
        );
        let sessions = shared.table.lock();
        let booked = &sessions.bookings[&second].links;
        assert!(
            booked.iter().all(|(link, _)| !full.contains(link)),
            "the mid-sweep founding crosses the full route"
        );
        drop(sessions);
        assert_conserved(&shared);
    }

    /// A repair sweep re-solves once per booking, however many tenants each
    /// carries: 3 keys × 4 tenants, one QoS change on a link all three
    /// reserve — three work items, twelve sessions repaired.
    #[test]
    fn a_repair_sweep_solves_once_per_booking() {
        let mut shared = shared_over_diamond();
        shared.config.residual = false; // blind: all three keys take the wide route
        let requirement = diamond_requirement();
        for hop_limit in [None, Some(2), Some(3)] {
            for _ in 0..4 {
                open(&shared, &requirement, hop_limit);
            }
        }
        let plane = shared.table.plane();
        let (link, reserved) = plane.map().iter_reserved().next().unwrap();
        let once = shared.table.lock().bookings[&0].links[0].1;
        assert_eq!(reserved, 3 * once, "every key books this link, once each");
        drop(plane);
        let mutation = Mutation::SetLinkQos {
            from: link.0,
            to: link.1,
            bandwidth_kbps: 70,
            latency_us: 12,
        };
        let (snapshot, plan) = begin_sweep(&shared, &mutation);
        assert_eq!(plan.len(), 3, "one repair per booking, not per session");
        match repair_bookings(&shared, &snapshot, plan) {
            Response::Mutated {
                epoch: 1,
                repaired: 12,
                dropped: 0,
            } => {}
            other => panic!("expected twelve sessions repaired, got {other:?}"),
        }
        assert_conserved(&shared);
    }

    /// A random world with five bookings, each of a different key.
    fn booked_random_world() -> Shared {
        let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
        let fixture = sflow_core::fixtures::random_fixture(24, &services, 3, None, 1);
        let shared = shared_over(fixture, ServerConfig::default());
        for spec in ["0>1>2", "0>2>3", "0>1>3>4", "0>3>4", "0>2>4"] {
            open(&shared, &spec.parse().unwrap(), None);
        }
        shared
    }

    /// A QoS change kills no instance, so every booking survives it whole
    /// and is re-priced: halving the most-reserved link and restoring it
    /// re-solves nothing.
    #[test]
    fn a_halve_and_restore_re_solves_no_booking() {
        let shared = booked_random_world();
        let plane = shared.table.plane();
        let (link, _) = plane
            .map()
            .iter_reserved()
            .max_by_key(|&(_, reserved)| reserved)
            .expect("a booked link");
        let capacity = plane.capacity(link).unwrap().as_kbps();
        drop(plane);
        for bandwidth_kbps in [capacity / 2, capacity] {
            let mutation = Mutation::SetLinkQos {
                from: link.0,
                to: link.1,
                bandwidth_kbps,
                latency_us: 100,
            };
            match mutate(&shared, &mutation) {
                Response::Mutated {
                    repaired: 5,
                    dropped: 0,
                    ..
                } => {}
                other => panic!("expected five sessions repaired, got {other:?}"),
            }
            assert_conserved(&shared);
        }
        assert_eq!(shared.metrics.snapshot(2).repairs_resolved, 0);
    }

    /// An instance failure re-solves exactly the bookings that selected
    /// the failed instance; every other booking is re-priced.
    #[test]
    fn a_failure_re_solves_exactly_the_bookings_that_use_the_instance() {
        let shared = booked_random_world();
        let flows: Vec<Arc<FlowGraph>> = shared
            .table
            .lock()
            .bookings
            .values()
            .map(|booking| Arc::clone(&booking.flow))
            .collect();
        let users = |instance: &ServiceInstance| {
            let uses = |flow: &&Arc<FlowGraph>| flow.instances().values().any(|i| i == instance);
            flows.iter().filter(uses).count()
        };
        let source = snapshot_of(&shared).source();
        let victim = flows
            .iter()
            .flat_map(|flow| flow.instances().values().copied())
            .filter(|&i| i != source)
            .find(|i| users(i) < flows.len())
            .expect("an instance some bookings use and others do not");
        match mutate(&shared, &Mutation::FailInstance { instance: victim }) {
            Response::Mutated { epoch: 1, .. } => {}
            other => panic!("expected the failure applied, got {other:?}"),
        }
        assert_conserved(&shared);
        let resolved = shared.metrics.snapshot(1).repairs_resolved;
        assert_eq!(resolved, users(&victim) as u64);
        assert!(resolved > 0);
    }

    /// A booking the pinned re-solve cannot repair is re-federated under
    /// the rules it was booked by, not by a horizon-less sFlow solve: the
    /// flow filed under its key is that ask's cold solve at the new epoch.
    /// In both worlds the failed instance corners the pinned re-solve, and
    /// a horizon-less sFlow solve answers differently.
    #[test]
    fn a_re_federated_booking_keeps_its_algorithm_and_hop_limit() {
        let cases = [
            // hosts, instances per service, seed, requirement, algorithm,
            // hop limit, failed (service, host)
            (14, 3, 113, "0>1>3, 0>2>3", Algorithm::Global, None, (1, 2)),
            (
                19,
                3,
                571,
                "0>1>2>3, 0>3",
                Algorithm::Sflow,
                Some(2),
                (2, 8),
            ),
        ];
        for (hosts, per_service, seed, spec, algorithm, hop_limit, (service, host)) in cases {
            let requirement: ServiceRequirement = spec.parse().unwrap();
            let services: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
            let fixture = sflow_core::fixtures::random_fixture_with(
                hosts,
                &services,
                per_service,
                Some(&requirement.edges()),
                seed,
                Some(2),
            );
            let shared = shared_over(fixture, ServerConfig::default());
            let plane = shared.table.plane();
            let federated =
                federate_against(&shared, plane, requirement.clone(), algorithm, hop_limit);
            assert!(matches!(federated, Response::Federated(_)), "{spec}");
            let booked = Arc::clone(&shared.table.lock().bookings[&0].flow);
            let victim = ServiceInstance::new(ServiceId::new(service), host.into());
            assert_eq!(booked.instances()[&ServiceId::new(service)], victim);

            match mutate(&shared, &Mutation::FailInstance { instance: victim }) {
                Response::Mutated {
                    repaired: 1,
                    dropped: 0,
                    ..
                } => {}
                other => panic!("{spec}: expected the booking repaired, got {other:?}"),
            }
            let snapshot = snapshot_of(&shared);
            let ctx = snapshot.context();
            let plain = repair(&ctx, &requirement, &booked).unwrap();
            assert!(plain.full_refederation, "{spec}: the pinned step fails");
            let ask = &shared.table.lock().bookings[&0].ask.clone();
            let cold = cold_solve(&shared, &snapshot, &ctx, ask).unwrap();
            assert!(
                !same_flow(&plain.flow, &cold),
                "{spec}: sFlow without a horizon must answer differently here"
            );
            let filed = snapshot.cached_solve(ask.key.as_ref().unwrap()).unwrap();
            assert!(
                same_flow(&filed, &cold),
                "{spec}: the repair is the ask's cold solve"
            );
            assert_eq!(shared.metrics.snapshot(1).repairs_resolved, 1);
            assert_conserved(&shared);
        }
    }

    /// The ledger clause of [`assert_conserved`], which holds at every
    /// release of the sessions lock, mid-sweep included: the published
    /// ledger is exactly the sum of the bookings' links (per link, no leak
    /// and no double-count) over the links the plane's overlay has.
    fn assert_ledger_conserved(shared: &Shared) {
        assert_ledger_matches(&shared.table.lock(), &shared.table.plane());
    }

    fn assert_ledger_matches(sessions: &Sessions, plane: &LoadPlane) {
        let expected = LoadMap::from_reservations(
            sessions
                .bookings
                .values()
                .flat_map(|booking| booking.links.iter().copied())
                .filter(|&(link, _)| plane.capacity(link).is_some()),
        );
        let got: Vec<(LinkId, u64)> = plane.map().iter_reserved().collect();
        let want: Vec<(LinkId, u64)> = expected.iter_reserved().collect();
        assert_eq!(got, want, "ledger drifted from the bookings");
        assert_eq!(
            plane.map().total_reserved_kbps(),
            expected.total_reserved_kbps()
        );
    }

    /// The session table's invariants, as they must read between any two
    /// operations: the ledger clause ([`assert_ledger_matches`]); `tenants`
    /// and the bookings' tenant lists are one bijection and no booking is
    /// empty; every `by_key` slot names a live booking of that key, whose
    /// flow is the key's cached solve in the current snapshot, as the same
    /// `Arc`; no booking is left at an epoch the world has moved past; and
    /// the published gauges are the table's census.
    fn assert_conserved(shared: &Shared) {
        let sessions = shared.table.lock();
        let plane = shared.table.plane();
        assert_ledger_matches(&sessions, &plane);

        let mut listed: Vec<(u64, u64)> = sessions
            .bookings
            .iter()
            .flat_map(|(&id, booking)| booking.tenants.iter().map(move |&tenant| (tenant, id)))
            .collect();
        listed.sort_unstable();
        let indexed: Vec<(u64, u64)> = sessions.tenants.iter().map(|(&t, &id)| (t, id)).collect();
        assert_eq!(listed, indexed, "tenant index and tenant lists disagree");
        let epoch = plane.epoch();
        for (id, booking) in &sessions.bookings {
            assert!(!booking.tenants.is_empty(), "booking {id} has no tenant");
            assert_eq!(booking.epoch, epoch, "booking {id} was left behind");
        }
        let snapshot = plane.snapshot();
        for (key, id) in &sessions.by_key {
            let owner = sessions.bookings.get(id).map(|booking| &booking.ask.key);
            assert_eq!(owner, Some(&Some(key.clone())), "by_key slot → {id}");
            let cached = snapshot.cached_solve(key);
            assert!(
                cached.is_some_and(|flow| Arc::ptr_eq(&flow, &sessions.bookings[id].flow)),
                "booking {id} holds its key's slot, but the key's cached solve is not its flow"
            );
        }
        let forests = || sessions.bookings.values().filter(|b| b.ask.key.is_some());
        let stats = shared.metrics.snapshot(epoch);
        assert_eq!(
            (stats.sessions, stats.forests, stats.forest_tenants),
            (
                indexed.len() as u64,
                forests().count() as u64,
                forests().map(|b| b.tenants.len() as u64).sum()
            ),
            "published census"
        );
    }

    /// Satellite property test: under a random interleaving of session
    /// opens over three keys (so bookings are founded, attached to,
    /// superseded and dissolved side by side), closes, rebalancer sweeps and
    /// QoS mutations (each a repair sweep and a ledger rebase), every table
    /// invariant of [`assert_conserved`] holds after every step. No leaked
    /// reservation on a failed open, a failed migration, or a repair drop.
    #[test]
    fn the_ledger_conserves_reservations_under_random_interleavings() {
        let shared = shared_over_diamond(); // residual routing on (default)
        let requirement = diamond_requirement();
        // The workspace has no RNG dependency here; a 64-bit LCG
        // (Knuth's MMIX constants) is plenty for op-sequence shuffling.
        let mut state: u64 = 0x5eed_cafe;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // Every directed overlay link, in stable identities, for QoS wobble.
        let links: Vec<(ServiceInstance, ServiceInstance)> = {
            let snapshot = snapshot_of(&shared);
            let overlay = snapshot.overlay();
            overlay
                .graph()
                .node_ids()
                .flat_map(|n| overlay.graph().out_edges(n))
                .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
                .collect()
        };
        let (mut side_by_side, mut shared_bookings) = (0, 0);
        for _ in 0..200 {
            match next() % 6 {
                0 | 1 => {
                    // Open under one of three keys — may be rejected by
                    // residual admission; that must leave the ledger
                    // untouched.
                    let hop_limit = [None, Some(2), Some(3)][(next() % 3) as usize];
                    let _ = federate_against(
                        &shared,
                        shared.table.plane(),
                        requirement.clone(),
                        Algorithm::Sflow,
                        hop_limit,
                    );
                }
                2 => {
                    // Close a random session (sometimes a bogus id).
                    let id = {
                        let sessions = shared.table.lock();
                        let n = sessions.tenants.len();
                        if n == 0 || next() % 8 == 0 {
                            u64::MAX
                        } else {
                            let skip = (next() as usize) % n;
                            *sessions.tenants.keys().nth(skip).unwrap()
                        }
                    };
                    let _ = release_session(&shared, id);
                }
                3 => {
                    let _ = rebalance::sweep(&shared);
                }
                _ => {
                    // Congestion wobble: repair-sweeps every booking and
                    // rebases the ledger onto the new epoch.
                    let (from, to) = links[(next() as usize) % links.len()];
                    let _ = mutate(
                        &shared,
                        &Mutation::SetLinkQos {
                            from,
                            to,
                            bandwidth_kbps: 40 + next() % 80,
                            latency_us: 10,
                        },
                    );
                }
            }
            assert_conserved(&shared);
            let sessions = shared.table.lock();
            side_by_side += usize::from(sessions.bookings.len() > 1);
            shared_bookings += sessions
                .bookings
                .values()
                .filter(|booking| booking.tenants.len() > 1)
                .count();
        }
        assert!(
            side_by_side > 20 && shared_bookings > 20,
            "the mix must exercise forests: {side_by_side} steps with several bookings, \
             {shared_bookings} shared bookings seen"
        );
        // Failures at the end. Failing one instance of a service cuts its
        // links and moves the bookings routed through it;
        // failing the service's last instance leaves the requirement
        // infeasible, and every booking is dropped with all its tenants —
        // the rebase must scrub exactly the dead reservations, the index
        // exactly the dead sessions.
        let live = shared.table.lock().tenants.len();
        assert!(live > 0, "the mix must leave sessions for the failures");
        let victim = a_victim(&shared);
        let _ = mutate(&shared, &Mutation::FailInstance { instance: victim });
        assert_conserved(&shared);
        let last = a_victim(&shared);
        assert_eq!(last.service, victim.service);
        match mutate(&shared, &Mutation::FailInstance { instance: last }) {
            Response::Mutated {
                repaired: 0,
                dropped,
                ..
            } => assert_eq!(dropped, live),
            other => panic!("expected every session dropped, got {other:?}"),
        }
        assert_conserved(&shared);
        assert!(shared.table.plane().map().is_empty());
    }

    /// Two equal-width disjoint routes `h0 → {h1, h2} → h3`: migration is
    /// purely a matter of load, never of topology preference. Served blind
    /// so same-requirement bookings pile onto one route and hand the
    /// rebalancer real work; without the solve cache, so every session is a
    /// private booking (tests that want forests switch it back on).
    fn shared_over_twin_routes() -> (Shared, ServiceRequirement) {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(4);
        let q = |bw| Qos::new(Bandwidth::kbps(bw), Latency::from_micros(10));
        b.link(h[0], h[1], q(100))
            .link(h[1], h[3], q(100))
            .link(h[0], h[2], q(100))
            .link(h[2], h[3], q(100));
        let net = b.build();
        let s: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
        let mut p = Placement::new();
        p.add(ServiceInstance::new(s[0], h[0]));
        p.add(ServiceInstance::new(s[1], h[1]));
        p.add(ServiceInstance::new(s[1], h[2]));
        p.add(ServiceInstance::new(s[2], h[3]));
        let compat = Compatibility::from_pairs([(s[0], s[1]), (s[1], s[2])]);
        let overlay = sflow_net::OverlayGraph::build(&net, &p, &compat).unwrap();
        let fixture = Fixture::new(net, overlay, s[0]);
        let requirement = ServiceRequirement::from_edges([(s[0], s[1]), (s[1], s[2])]).unwrap();

        let config = ServerConfig {
            residual: false, // blind opens; the *rebalancer* is under test
            solve_cache: false,
            utilization_threshold_permille: 900,
            ..ServerConfig::default()
        };
        (shared_over(fixture, config), requirement)
    }

    /// Every booking's links, for byte-for-byte before/after comparisons.
    fn booked_links(shared: &Shared) -> BTreeMap<u64, Vec<(LinkId, u64)>> {
        let sessions = shared.table.lock();
        let links = |(&id, booking): (&u64, &Booking)| (id, booking.links.clone());
        sessions.bookings.iter().map(links).collect()
    }

    /// Runs one rebalancer sweep while a poller thread hammers the sessions
    /// lock, proving no tenant is ever absent from the table mid-migration
    /// and the table conserves at every instant the poller sees. The
    /// published plane moves one version for the sweep's DRE tick and one
    /// per migration: each migration is a single ledger publication.
    fn sweep_under_a_poller(shared: &Shared, tenants: usize) -> rebalance::SweepOutcome {
        let version = shared.table.plane().version();
        let stop = AtomicBool::new(false);
        let outcome = thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let sessions = shared.table.lock();
                    let attached: usize = sessions.bookings.values().map(|b| b.tenants.len()).sum();
                    assert_eq!(
                        (sessions.tenants.len(), attached),
                        (tenants, tenants),
                        "a migrating tenant must never be absent from the table"
                    );
                    drop(sessions);
                    assert_conserved(shared);
                    std::hint::spin_loop();
                }
            });
            let outcome = rebalance::sweep(shared);
            stop.store(true, Ordering::SeqCst);
            outcome
        });
        assert_eq!(
            shared.table.plane().version(),
            version + 1 + outcome.migrations as u64,
            "one publication for the tick and one per migration"
        );
        assert_conserved(shared);
        outcome
    }

    /// Satellite regression, the make-before-break contract: a sweep
    /// migrates the booking off the doubly-booked route, its tenant is
    /// never absent from the table at any instant, and a sweep with nothing
    /// to gain changes nothing — failed movers keep their flows and links
    /// byte-for-byte.
    #[test]
    fn rebalancer_migrates_make_before_break_and_failures_change_nothing() {
        let (shared, requirement) = shared_over_twin_routes();
        let ids = [
            open(&shared, &requirement, None),
            open(&shared, &requirement, None),
        ];
        // Blind routing put both bookings on one route: one link pair is
        // double-booked at 2000‰, the other untouched.
        assert_eq!(shared.table.plane().max_utilization_permille(), 2000);
        let selections = |shared: &Shared| -> Vec<_> {
            let sessions = shared.table.lock();
            let selection = |b: &Booking| b.flow.selection().clone();
            sessions.bookings.values().map(selection).collect()
        };
        let stacked = selections(&shared);
        assert_eq!(stacked[0], stacked[1], "blind opens stack up");
        assert_conserved(&shared);

        let outcome = sweep_under_a_poller(&shared, 2);
        assert_eq!(outcome.migrations, 1, "one mover drains the hot route");
        assert_eq!(
            outcome.max_utilization_permille, 1000,
            "one booking per route after the sweep"
        );
        assert_conserved(&shared);
        let spread = selections(&shared);
        assert_ne!(spread[0], spread[1], "the mover changed route");
        let stats = shared.metrics.snapshot(0);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.max_link_utilization_permille, 1000);

        // Both routes now sit at 1000‰ — still above the threshold, but no
        // move can improve the world. The sweep must fail every mover and
        // leave both bookings untouched.
        let before = booked_links(&shared);
        let outcome = sweep_under_a_poller(&shared, 2);
        assert_eq!(outcome.migrations, 0);
        assert!(
            outcome.migration_failures >= 1,
            "hot but unimprovable movers are counted as failures"
        );
        assert_eq!(
            before,
            booked_links(&shared),
            "a failed migration changes nothing"
        );
        assert_conserved(&shared);

        // Releasing the migrated sessions drains the ledger completely.
        for id in ids {
            match release_session(&shared, id) {
                Response::Released { session } => assert_eq!(session, id),
                other => panic!("expected Released, got {other:?}"),
            }
        }
        assert!(
            shared.table.plane().map().is_empty(),
            "no leaked reservation"
        );
        assert_conserved(&shared);
    }

    /// The rebalancer under the default `solve_cache: true`, where every
    /// session is a tenant of a keyed booking: a booking migrates whole,
    /// all its tenants with it, re-solved under its own hop horizon, and
    /// the key's cached solve follows it so the next same-key tenant
    /// attaches to the moved booking instead of superseding it.
    #[test]
    fn rebalancer_migrates_a_shared_booking_with_all_its_tenants() {
        let (mut shared, requirement) = shared_over_twin_routes();
        shared.config.solve_cache = true;
        // Two keys × two tenants, blind: both bookings stack on one route.
        let tenants: Vec<u64> = [None, None, Some(3), Some(3)]
            .into_iter()
            .map(|hop_limit| open(&shared, &requirement, hop_limit))
            .collect();
        assert_eq!(shared.table.plane().max_utilization_permille(), 2000);
        let selection_of = |session: u64| {
            let sessions = shared.table.lock();
            let booking = &sessions.bookings[&sessions.tenants[&session]];
            (booking.flow.selection().clone(), booking.ask.hop_limit)
        };
        let stacked = selection_of(tenants[0]).0;
        assert_eq!(selection_of(tenants[2]).0, stacked);

        let outcome = sweep_under_a_poller(&shared, 4);
        assert_eq!(
            (outcome.migrations, outcome.max_utilization_permille),
            (1, 1000)
        );
        assert_eq!(shared.metrics.snapshot(0).migrations, 1);
        // The cheaper-ranked booking (equal cost, lower id) moved — both
        // its tenants report the new selection; the other key stayed put.
        let moved = selection_of(tenants[0]);
        assert_eq!(selection_of(tenants[1]), moved);
        assert_ne!(moved.0, stacked, "the booking changed route");
        assert_eq!(selection_of(tenants[2]), (stacked.clone(), Some(3)));
        assert_eq!(selection_of(tenants[3]), (stacked, Some(3)));
        assert_conserved(&shared);
        let stats = shared.metrics.snapshot(0);
        assert_eq!((stats.forests, stats.forest_tenants), (2, 4));

        // A fifth federate of the moved key is a cache hit on the moved
        // flow and attaches: no new booking, the ledger does not move.
        let ledger = booked_links(&shared);
        let hits = stats.cache_hits;
        let fifth = open(&shared, &requirement, None);
        assert_eq!(selection_of(fifth), moved);
        let stats = shared.metrics.snapshot(0);
        assert_eq!(stats.cache_hits, hits + 1);
        assert_eq!((stats.forests, stats.forest_tenants), (2, 5));
        assert_eq!(booked_links(&shared), ledger);

        // Both routes sit at 1000‰: a second sweep can improve nothing and
        // changes nothing, byte for byte — bookings and cached solves.
        let cached = |hop_limit| {
            let key = SolveKey {
                requirement: requirement.canonical_key(),
                algorithm: Algorithm::Sflow,
                hop_limit,
            };
            snapshot_of(&shared).cached_solve(&key).unwrap()
        };
        let before = (cached(None), cached(Some(3)));
        let outcome = rebalance::sweep(&shared);
        assert_eq!(outcome.migrations, 0);
        assert!(outcome.migration_failures >= 1);
        assert_eq!(booked_links(&shared), ledger);
        assert!(Arc::ptr_eq(&before.0, &cached(None)));
        assert!(Arc::ptr_eq(&before.1, &cached(Some(3))));
        assert_conserved(&shared);
    }

    /// Tentpole: repeated same-requirement federates hit the per-snapshot
    /// solve cache, attach to one shared forest, and reserve the shared
    /// links once (`max`, not `sum`) — and the warm answer is byte-identical
    /// to the cold one and audits clean.
    #[test]
    fn repeated_federates_share_a_forest_one_booking_and_identical_flows() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        // The reference answer at this epoch+load: the cold path below sees
        // an empty ledger, so it solves against this same raw context.
        let snapshot = snapshot_of(&shared);
        let reference = Solver::new(&snapshot.context())
            .solve(&requirement)
            .unwrap();

        for _ in 0..3 {
            match federate_against(
                &shared,
                shared.table.plane(),
                requirement.clone(),
                Algorithm::Sflow,
                None,
            ) {
                Response::Federated(_) => {}
                other => panic!("expected Federated, got {other:?}"),
            }
        }
        let stats = shared.metrics.snapshot(0);
        assert_eq!(stats.cache_misses, 1, "only the first solve is cold");
        assert_eq!(stats.cache_hits, 2, "repeats are served warm");
        assert_eq!(stats.cache_revalidation_fails, 0);
        assert_eq!(snapshot.cached_solve_count(), 1);
        assert_eq!(
            (stats.sessions, stats.forests, stats.forest_tenants),
            (3, 1, 3),
            "one forest, three tenants"
        );

        let sessions = shared.table.lock();
        // One booking carries the reservation for all three; the ledger
        // reserves the shared links once, not three times.
        assert_eq!(sessions.bookings.len(), 1, "one booking for the forest");
        assert!(sessions.tenants.values().all(|&booking| booking == 0));
        let booking = &sessions.bookings[&0];
        assert_eq!(booking.tenants, [0, 1, 2]);
        // Byte-identical satellite: the flow every tenant is served by
        // serializes to the same bytes as an independent cold solve at the
        // same epoch+load, and the shared flow audits clean.
        assert_eq!(
            serde_json::to_string(booking.flow.as_ref()).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "a cache hit must be byte-identical to the cold solve"
        );
        let cached = snapshot
            .cached_solve(&SolveKey {
                requirement: requirement.canonical_key(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            })
            .expect("the cold solve filled the cache");
        // Not three copies of it: the tenants' flow is the cache entry's
        // own `Arc`.
        assert!(Arc::ptr_eq(&booking.flow, &cached), "attach clones nothing");
        let ctx = snapshot.context();
        let report = FlowGraphAuditor::new(&ctx, &requirement).audit(&cached);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        drop(sessions);
        assert_conserved(&shared);
    }

    /// A new epoch's solve cache starts empty and only live bookings refile
    /// it. After a QoS patch off the cached flow's paths the key holds the
    /// booking's repair (the same flow, but no `Arc` carried across the
    /// epoch); after a patch on its paths, the repaired flow; and once the
    /// last tenant is gone, a patch the flow avoids leaves the key absent.
    #[test]
    fn qos_patches_start_the_cache_empty_and_live_bookings_refile_their_keys() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        let session = open(&shared, &requirement, None);
        let snapshot = snapshot_of(&shared);
        assert_eq!(snapshot.cached_solve_count(), 1);
        let key = SolveKey {
            requirement: requirement.canonical_key(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        let cached = snapshot.cached_solve(&key).unwrap();
        // A directed overlay link on and one off `flow`'s paths, in the
        // current epoch (instance identities survive QoS epochs).
        type Link = (ServiceInstance, ServiceInstance);
        let on_and_off = |flow: &FlowGraph| -> (Link, Link) {
            let snapshot = snapshot_of(&shared);
            let overlay = snapshot.overlay();
            let used: Vec<Link> = flow
                .edges()
                .iter()
                .flat_map(|e| e.overlay_path.windows(2))
                .map(|w| (overlay.instance(w[0]), overlay.instance(w[1])))
                .collect();
            let all: Vec<Link> = overlay
                .graph()
                .node_ids()
                .flat_map(|n| overlay.graph().out_edges(n))
                .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
                .collect();
            let on = all.iter().find(|pair| used.contains(pair)).unwrap();
            let off = all.iter().find(|pair| !used.contains(pair)).unwrap();
            (*on, *off)
        };
        let wobble = |(from, to): Link, bandwidth_kbps: u64, epoch: u64| {
            let mutation = Mutation::SetLinkQos {
                from,
                to,
                bandwidth_kbps,
                latency_us: 2_345,
            };
            match mutate(&shared, &mutation) {
                Response::Mutated { epoch: e, .. } if e == epoch => {}
                other => panic!("expected Mutated at epoch {epoch}, got {other:?}"),
            }
        };
        let filed = || snapshot_of(&shared).cached_solve(&key);
        let booked = || Arc::clone(&shared.table.lock().bookings[&session].flow);
        let (on, off) = on_and_off(&cached);

        // Off the flow's paths: nothing is carried, and the live booking's
        // repair, which reproduces the flow, files it.
        wobble(off, 77, 1);
        let refiled = filed().expect("the live booking refiles its key");
        assert!(!Arc::ptr_eq(&refiled, &cached), "no entry crosses an epoch");
        assert!(
            same_flow(&refiled, &cached),
            "an untouched path repairs to itself"
        );
        assert!(Arc::ptr_eq(&refiled, &booked()));
        assert_conserved(&shared);

        // On the flow's paths: the key holds the repaired flow.
        wobble(on, 66, 2);
        let repaired = filed().expect("the live booking refiles its key");
        assert!(
            Arc::ptr_eq(&repaired, &booked()),
            "the key holds the repair"
        );
        assert_conserved(&shared);

        // With the tenant gone no booking refiles, and a patch the flow
        // avoids carries nothing either: the key is absent.
        assert!(matches!(
            release_session(&shared, session),
            Response::Released { .. }
        ));
        let (_, off) = on_and_off(&repaired);
        wobble(off, 55, 3);
        assert!(filed().is_none(), "a released key starts the epoch cold");
    }

    /// Warm = cold across a QoS gain: a key solved and released, then a gain
    /// on a link its flow does not use, big enough that a cold solve at the
    /// new epoch picks another instance. The next federate of the key is
    /// that cold solve, byte for byte — the released flow, still exact on
    /// its own untouched paths, must not be served in its place.
    #[test]
    fn a_released_key_is_solved_cold_after_a_gain_it_does_not_cross() {
        let shared = shared_over_diamond();
        let requirement: ServiceRequirement = "0>1>3".parse().unwrap();
        let key = SolveKey {
            requirement: requirement.canonical_key(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        let session = open(&shared, &requirement, None);
        let before = snapshot_of(&shared).cached_solve(&key).unwrap();
        assert!(matches!(
            release_session(&shared, session),
            Response::Released { .. }
        ));

        // Widen the link from the flow's service-1 instance to the
        // service-3 instance it does not use.
        let s1 = before.instances()[&ServiceId::new(1)];
        let s3 = before.instances()[&ServiceId::new(3)];
        let snapshot = snapshot_of(&shared);
        let overlay = snapshot.overlay();
        let other = overlay
            .graph()
            .node_ids()
            .map(|n| overlay.instance(n))
            .find(|i| i.service == s3.service && *i != s3)
            .expect("a second service-3 instance");
        let gain = Mutation::SetLinkQos {
            from: s1,
            to: other,
            bandwidth_kbps: 1_000,
            latency_us: 1,
        };
        assert!(matches!(
            mutate(&shared, &gain),
            Response::Mutated { epoch: 1, .. }
        ));
        let snapshot = snapshot_of(&shared);
        let cold = Solver::new(&snapshot.context())
            .solve(&requirement)
            .unwrap();
        assert_ne!(
            cold.instances(),
            before.instances(),
            "the gain moved the answer"
        );

        let hits = shared.metrics.snapshot(1).cache_hits;
        match federate_against(
            &shared,
            shared.table.plane(),
            requirement,
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(summary) => assert_eq!(&summary.instances, cold.instances()),
            other => panic!("expected Federated, got {other:?}"),
        }
        assert_eq!(shared.metrics.snapshot(1).cache_hits, hits, "a miss");
        let served = snapshot.cached_solve(&key).unwrap();
        assert_eq!(
            serde_json::to_string(served.as_ref()).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "warm = cold: the key's entry is the cold solve at the new epoch"
        );
        assert_conserved(&shared);
    }

    /// Forest lifecycle: three tenants leave in all six orders. Whoever
    /// goes first — the founder included — the ledger moves only at
    /// last-out, and the `by_key` slot dies with the booking.
    #[test]
    fn tenants_leave_in_any_order_and_only_the_last_out_unbooks() {
        let orders = [
            [0u64, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let shared = shared_over_diamond();
            let requirement = diamond_requirement();
            for _ in 0..3 {
                open(&shared, &requirement, None);
            }
            let booked: Vec<(LinkId, u64)> = shared.table.plane().map().iter_reserved().collect();
            assert!(!booked.is_empty(), "the founding booked the shared links");

            for leaving in &order[..2] {
                match release_session(&shared, *leaving) {
                    Response::Released { session } => assert_eq!(session, *leaving),
                    other => panic!("expected Released, got {other:?}"),
                }
                let ledger: Vec<(LinkId, u64)> =
                    shared.table.plane().map().iter_reserved().collect();
                assert_eq!(ledger, booked, "{order:?}: co-tenants keep the one booking");
                assert_eq!(shared.table.lock().by_key.len(), 1);
                assert_conserved(&shared);
            }
            match release_session(&shared, order[2]) {
                Response::Released { session } => assert_eq!(session, order[2]),
                other => panic!("expected Released, got {other:?}"),
            }
            assert!(shared.table.plane().map().is_empty(), "last out unbooks");
            assert_conserved(&shared);
            let sessions = shared.table.lock();
            assert!(sessions.bookings.is_empty() && sessions.tenants.is_empty());
            assert!(
                sessions.by_key.is_empty(),
                "the key slot dies with the booking"
            );
        }
    }

    /// A warm hit whose capacity was consumed in the meantime fails
    /// revalidation, evicts the stale entry, and is re-solved cold against
    /// residual capacity — landing on the free route.
    #[test]
    fn a_warm_hit_that_no_longer_fits_is_re_solved_cold() {
        let (mut shared, requirement) = shared_over_twin_routes();
        shared.config.residual = true;
        shared.config.solve_cache = true;
        // Cold open saturates one route (each session's flow fills a full
        // 100 kbps route in this fixture).
        match federate_against(
            &shared,
            shared.table.plane(),
            requirement.clone(),
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        assert_eq!(shared.table.plane().max_utilization_permille(), 1000);
        // Take the key's slot away while keeping the booking: this is the
        // superseded-booking shape — the cached flow is still filed, but a
        // new tenant can no longer attach and must justify a reservation of
        // its own.
        shared.table.lock().by_key.clear();
        let first_selection = shared.table.lock().bookings[&0].flow.selection().clone();

        match federate_against(
            &shared,
            shared.table.plane(),
            requirement,
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        let stats = shared.metrics.snapshot(0);
        assert_eq!(
            stats.cache_revalidation_fails, 1,
            "the warm hit no longer fits the residual plane"
        );
        assert_eq!(stats.cache_misses, 1, "only the first open was a miss");
        assert_eq!(stats.cache_hits, 0, "a refused hit is not a hit");
        assert_ne!(
            *shared.table.lock().bookings[&1].flow.selection(),
            first_selection,
            "the cold re-solve steered onto the free route"
        );
        assert_conserved(&shared);
        // The re-solve replaced the evicted entry with the load-aware flow.
        assert_eq!(snapshot_of(&shared).cached_solve_count(), 1);
    }

    /// Bookings move the ledger under the sessions lock and route nothing;
    /// the residual table is patched by the cold solve that needs it, and
    /// `Stats` says when that happened. Over loopback against a real
    /// four-worker server: only foundings on a booked plane flush, once
    /// each; attaches, releases and a `Mutate`'s rebase never do.
    #[test]
    fn only_a_cold_solve_on_a_booked_plane_pays_for_the_residual_table() {
        // 15 instances over 24 hosts: every founding below crosses real
        // links (one wholly on a host's loopback books infinite capacity,
        // which is never clamped, and would leave the view as it was).
        let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
        let fixture = sflow_core::fixtures::random_fixture(24, &services, 3, None, 1);
        let instances = fixture.overlay.instance_count() as u64;
        let config = ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        };
        let handle = serve(World::new(fixture), &config).unwrap();
        let shared = Arc::clone(&handle.shared);
        let mut client = crate::Client::connect(handle.addr()).unwrap();
        let found = |client: &mut crate::Client, spec: &str| match client
            .federate(spec, Algorithm::Sflow, None)
            .unwrap()
        {
            Response::Federated(summary) => summary.session,
            other => panic!("{spec}: expected Federated, got {other:?}"),
        };
        let flushes = |client: &mut crate::Client| {
            let s = client.stats().unwrap();
            (s.plane_flushes, s.plane_trees_recomputed)
        };

        // Key A founds on an empty ledger: the snapshot's own table serves.
        let a = found(&mut client, "0>1>2");
        assert_eq!(flushes(&mut client), (0, 0));
        assert!(
            !shared.table.plane().is_materialised(),
            "A's booking routed nothing"
        );
        // Key B solves cold against A's booking: the one flush so far.
        let b = found(&mut client, "0>2>3");
        let (count, trees) = flushes(&mut client);
        assert_eq!(count, 1);
        assert!(
            trees <= instances,
            "a patch, not {trees} of {instances} trees"
        );
        assert!(!shared.table.plane().is_materialised(), "nor did B's");

        // Tenants come and go on both forests: no ledger move, no flush.
        let mut tenants = Vec::new();
        for _ in 0..16 {
            tenants.push(found(&mut client, "0>1>2"));
            tenants.push(found(&mut client, "0>2>3"));
        }
        for session in tenants {
            assert!(matches!(
                client.release(session).unwrap(),
                Response::Released { .. }
            ));
        }
        assert_eq!(flushes(&mut client), (1, trees));
        assert_eq!(client.stats().unwrap().forests, 2);

        // A QoS mutation on a booked link rebases the ledger onto the new
        // epoch — and leaves the new epoch's residual table to whoever asks.
        let booked = client.load_map().unwrap().links[0];
        match client
            .mutate(Mutation::SetLinkQos {
                from: booked.from,
                to: booked.to,
                bandwidth_kbps: booked.capacity_kbps + 1,
                latency_us: 1_500,
            })
            .unwrap()
        {
            Response::Mutated {
                epoch: 1,
                repaired: 2,
                dropped: 0,
            } => {}
            other => panic!("expected both forests repaired at epoch 1, got {other:?}"),
        }
        assert_eq!(flushes(&mut client), (1, trees));
        let plane = shared.table.plane();
        assert_eq!(plane.epoch(), 1);
        assert!(!plane.map().is_empty() && !plane.is_materialised());
        drop(plane);

        // Key C solves cold at the new epoch: exactly one more flush.
        let c = found(&mut client, "0>3>4");
        assert_eq!(flushes(&mut client).0, 2);
        let stats = client.stats().unwrap();
        assert_eq!((stats.forests, stats.sessions), (3, 3));
        assert_eq!(stats.residual_rejects, 0);
        assert_conserved(&shared);
        let ledger = client.load_map().unwrap();
        assert_eq!(
            ledger.links.iter().map(|l| l.reserved_kbps).sum::<u64>(),
            shared.table.plane().map().total_reserved_kbps()
        );
        for session in [a, b, c] {
            client.release(session).unwrap();
        }
        assert!(client.load_map().unwrap().links.is_empty());
        handle.shutdown();
    }

    /// Pins a defect (ROADMAP item 16): residual admission books a link past
    /// its capacity. A cold founding opens without a `fits` check, because
    /// its solve saw the residual view, but each stream was routed on its
    /// own and the booking counts the flow's bandwidth once per stream that
    /// crosses a link. Here `0>1, 0>2` is founded on an empty ledger; the
    /// wide route to `s2` relays through `s1`'s instance rather than take
    /// the narrow direct link, so both streams cross `s0→s1` and book twice
    /// its capacity: 2000‰. A fix must flip this test to pin that no link
    /// reads above 1000‰.
    #[test]
    fn a_cold_founding_books_a_link_two_streams_cross_at_twice_its_capacity() {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(3);
        let q = |bw, us| Qos::new(Bandwidth::kbps(bw), Latency::from_micros(us));
        b.link(h[0], h[1], q(1000, 10))
            .link(h[1], h[2], q(1000, 10));
        let net = b.build();
        let s: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
        let instance = |i: usize| ServiceInstance::new(s[i], h[i]);
        let mut p = Placement::new();
        for i in 0..3 {
            p.add(instance(i));
        }
        let compat = Compatibility::from_pairs([(s[0], s[1]), (s[0], s[2]), (s[1], s[2])]);
        let mut overlay = sflow_net::OverlayGraph::build(&net, &p, &compat).unwrap();
        // By hand: the direct service link is far narrower than the relay.
        let node = |overlay: &sflow_net::OverlayGraph, i| overlay.node_of(instance(i)).unwrap();
        let (n0, n2) = (node(&overlay, 0), node(&overlay, 2));
        overlay.update_link_qos(n0, n2, q(100, 1)).unwrap();
        let shared = shared_over(Fixture::new(net, overlay, s[0]), ServerConfig::default());
        let requirement = ServiceRequirement::from_edges([(s[0], s[1]), (s[0], s[2])]).unwrap();

        let summary = match federate_against(
            &shared,
            shared.table.plane(),
            requirement,
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(summary) => summary,
            other => panic!("expected Federated, got {other:?}"),
        };
        assert_eq!(
            summary.bandwidth_kbps, 1000,
            "the relay, not the direct link"
        );
        assert_conserved(&shared);
        let plane = shared.table.plane();
        let shared_hop = (instance(0), instance(1));
        assert_eq!(plane.capacity(shared_hop), Some(Bandwidth::kbps(1000)));
        assert_eq!(plane.map().reserved_kbps(shared_hop), 2 * 1000);
        assert_eq!(plane.utilization_permille(shared_hop), 2000);
        assert_eq!(plane.utilization_permille((instance(1), instance(2))), 1000);
        assert_eq!(plane.max_utilization_permille(), 2000);
    }

    /// A request that panics inside `execute` is answered `Error` and the
    /// pool keeps its size: at `workers: 1` the next request is served and
    /// no frame stays on the in-flight gauge. Without the `catch_unwind` the
    /// only worker dies with the reply unsent, which the read timeout turns
    /// from a hang into a failure.
    #[test]
    fn a_panicking_request_is_answered_and_the_worker_survives() {
        use crate::wire::{encode_frame, read_frame};
        use crate::{RequestFrame, ResponseFrame};
        use std::io::Write;
        use std::net::TcpStream;

        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = serve(World::new(diamond_fixture()), &config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut ask = |request_id: u64, requirement: &str| {
            let frame = RequestFrame {
                request_id,
                request: Request::Federate {
                    requirement: requirement.to_owned(),
                    algorithm: Algorithm::Sflow,
                    hop_limit: None,
                },
            };
            stream.write_all(&encode_frame(&frame).unwrap()).unwrap();
            let reply: ResponseFrame = read_frame(&mut stream)
                .expect("an answer within the timeout")
                .expect("an answer, not a hang-up");
            assert_eq!(reply.request_id, request_id);
            reply.response
        };

        match ask(1, PANICKING_REQUIREMENT) {
            Response::Error(message) => assert!(message.contains("panicked"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        match ask(2, "0>1>3, 0>2>3") {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        let stats = handle.shared.metrics.snapshot(0);
        assert_eq!(
            (stats.failed, stats.served, stats.frames_in_flight),
            (1, 1, 0)
        );
        assert_eq!(stats.panics, 1, "the panic is counted apart from failures");
        handle.shutdown();
    }

    // A solve entry point under a live `Lock` guard fails its debug
    // assertion; release builds compile the tally out.

    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    #[should_panic(expected = "a cold solve under a server lock")]
    fn a_cold_solve_under_the_table_lock_panics() {
        let shared = shared_over_diamond();
        let snapshot = snapshot_of(&shared);
        let ask = Ask {
            requirement: diamond_requirement(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
            key: None,
        };
        let _table = shared.table.lock();
        let _ = cold_solve(&shared, &snapshot, &snapshot.context(), &ask);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    #[should_panic(expected = "a residual context under a server lock")]
    fn a_residual_context_under_the_table_lock_panics() {
        let shared = shared_over_diamond();
        let plane = shared.table.plane();
        let _table = shared.table.lock();
        let _ = residual_context(&shared, &plane);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    #[should_panic(expected = "a repair sweep under a server lock")]
    fn a_repair_sweep_under_the_table_lock_panics() {
        let shared = shared_over_diamond();
        let snapshot = snapshot_of(&shared);
        let _table = shared.table.lock();
        let _ = repair_bookings(&shared, &snapshot, Vec::new());
    }
}
