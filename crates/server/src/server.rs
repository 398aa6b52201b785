//! The federation server: reactor connection plane, worker pool, admission
//! queue.
//!
//! Threading model. The **connection plane** — who turns sockets into
//! [`Request`]s and [`Response`]s into bytes — is the epoll reactor in
//! [`crate::reactor`]: [`ServerConfig::reactor_threads`] event loops drive a
//! non-blocking listener and every connection; per-connection state machines
//! parse pipelined frames incrementally and stage responses in write
//! buffers. One loop serves tens of thousands of connections.
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
//! Locking: there is none on the solve path. `Federate` loads the current
//! [`WorldSnapshot`] from the [`Snap`] cell
//! (an `Arc` clone) and solves against that immutable epoch with zero shared
//! locks held; the per-epoch hop matrix lives inside the snapshot and is
//! built at most once however many solvers race on it. `Mutate` serializes
//! against other mutations on the world mutex, assembles the successor
//! snapshot off to the side, publishes it with one pointer swap and then
//! repairs sessions. A solve overtaken by a mutation is answered
//! [`Response::Stale`] instead of opening a session solved against a world
//! that no longer exists.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use sflow_core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, ServicePathAlgorithm,
};
use sflow_core::repair::repair;
use sflow_core::validate::FlowGraphAuditor;
use sflow_core::{
    FederationContext, FlowGraph, OwnedFederationContext, ServiceRequirement, Solver,
};
use sflow_routing::Bandwidth;
use sflow_runtime::duration_us;

use crate::load::{links_of, LinkId, LoadCell, LoadMap, LoadPlane};
use crate::reactor::{self, Dispatch, Reply};
use crate::rebalance;
use crate::snapshot::{Snap, SolveKey, WorldSnapshot};
use crate::stats::Metrics;
use crate::world::World;
use crate::{Algorithm, FlowSummary, LinkLoad, LoadMapSummary, Request, Response};

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
    /// Worker threads for routing-table rebuilds and patches after
    /// mutations; `0` auto-sizes from `available_parallelism`.
    pub route_workers: usize,
    /// Audit every solved or repaired flow graph with
    /// [`FlowGraphAuditor`] and count violations in the server stats
    /// (`serve --audit`). Non-fatal: a violating answer is still served,
    /// but the counter makes it visible.
    pub audit: bool,
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
    /// Reactor (event-loop) threads for the connection plane (min 1). The
    /// default, `1`, serves every connection from a single epoll loop;
    /// larger values shard connections round-robin across loops.
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
            audit: false,
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

/// A live federation kept by the server for repair after mutations.
pub(crate) struct Session {
    pub(crate) requirement: ServiceRequirement,
    pub(crate) flow: FlowGraph,
    /// The snapshot epoch `flow` was solved (or last repaired) against.
    /// Repair sweeps re-resolve a session against exactly the epoch it was
    /// solved under — a session somehow left behind by an earlier sweep is
    /// dropped rather than silently repaired across a renumbering.
    pub(crate) solved_epoch: u64,
    /// The per-link bandwidth this session reserves in the load plane —
    /// exactly what was booked when it opened (or last repaired/migrated),
    /// so closing it releases exactly what it holds. For a forest tenant
    /// that is the *marginal* reservation: the forest's holder carries the
    /// shared instance set's full booking, every other member carries none
    /// (shared links reserve the `max`, not the `sum`, of the common
    /// streams — and for an exact-key forest every stream is common).
    pub(crate) links: Vec<(LinkId, u64)>,
    /// The shared service forest this session is attached to, if any.
    pub(crate) forest: Option<u64>,
}

/// One shared service forest: N same-key tenants attached to a single
/// shared instance set. Exactly one member — the *holder*, the member
/// whose `Session::links` is non-empty — carries the forest's reservation
/// in the load plane; releasing the holder hands the booking to a
/// surviving member, so the conservation invariant (ledger == Σ session
/// links) holds at every instant without special-casing forests.
pub(crate) struct Forest {
    /// The solve key every member federated under.
    pub(crate) key: SolveKey,
    /// The epoch the shared flow is currently valid at (moves forward when
    /// a mutation's repair sweep carries the forest over).
    pub(crate) epoch: u64,
    /// The shared flow every member is attached to.
    pub(crate) flow: FlowGraph,
    /// Member session ids, in attach order.
    pub(crate) members: Vec<u64>,
}

#[derive(Default)]
pub(crate) struct Sessions {
    pub(crate) next_id: u64,
    pub(crate) live: BTreeMap<u64, Session>,
    pub(crate) next_forest: u64,
    pub(crate) forests: BTreeMap<u64, Forest>,
    /// The live forest currently accepting tenants for a key. An entry can
    /// be superseded (a new forest takes the key after a mutation moved
    /// the old one); superseded forests keep serving their members but
    /// accept no new ones.
    pub(crate) by_key: BTreeMap<SolveKey, u64>,
}

impl Sessions {
    /// Live forest census: `(forests, tenants)` — the `--stats` gauges.
    pub(crate) fn forest_census(&self) -> (u64, u64) {
        let tenants: usize = self.forests.values().map(|f| f.members.len()).sum();
        (self.forests.len() as u64, tenants as u64)
    }
}

/// State shared by every thread of one server instance.
pub(crate) struct Shared {
    pub(crate) addr: SocketAddr,
    pub(crate) config: ServerConfig,
    /// The publication cell readers load snapshots from. Never held — a
    /// load is one `Arc` clone and the solve runs against the clone.
    pub(crate) snap: Arc<Snap>,
    /// The mutator. Only `Mutate` jobs take this lock; the read path never
    /// touches it, so mutations serialize exclusively against each other.
    pub(crate) world: Mutex<World>,
    pub(crate) sessions: Mutex<Sessions>,
    /// The load plane's publication cell — reservations and the residual
    /// overlay (its routing table is derived off-lock, on demand). Published
    /// only under the sessions lock, so the ledger can never drift from the
    /// session table.
    pub(crate) load: LoadCell,
    /// Live sessions, counted separately from `sessions.live` because a
    /// repair sweep takes the map out of the lock while it re-resolves —
    /// during that window `live.len()` reads 0 even though every swept-out
    /// session is still live from the clients' point of view. Incremented
    /// under the sessions lock when a session opens; decremented only when
    /// a session is truly dropped. Admission and `Stats` read this, never
    /// `live.len()`.
    pub(crate) live_sessions: AtomicUsize,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
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
        // The listener's reactor sits in its poll wait; a throwaway
        // connection wakes it ahead of the next tick.
        let _ = TcpStream::connect(self.shared.addr);
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
pub fn serve_on(addr: &str, mut world: World, config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    world.set_route_workers(config.route_workers);
    let load = LoadCell::new(Arc::new(LoadPlane::fresh(&world.snapshot())));
    let shared = Arc::new(Shared {
        addr: listener.local_addr()?,
        config: *config,
        snap: world.handle(),
        world: Mutex::new(world),
        sessions: Mutex::new(Sessions::default()),
        load,
        live_sessions: AtomicUsize::new(0),
        metrics: Metrics::default(),
        shutdown: AtomicBool::new(false),
    });
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
        shared,
        acceptor: Some(acceptor),
    })
}

/// Answers the control-plane requests inline — never a queue slot, so
/// observability (`Stats`, `LoadMap`) and operability (`Shutdown`) survive
/// overload. Returns `None` for data-plane requests, which must go through
/// admission. This runs on the event loop itself, so nothing here may block
/// (the forest census is a gauge maintained at session open/close, not a
/// lock taken here).
pub(crate) fn control_response(shared: &Shared, request: &Request) -> Option<Response> {
    match request {
        Request::Stats => {
            let epoch = shared.snap.epoch();
            // The counter, not `live.len()`: a repair sweep in flight has
            // the map taken out, but its sessions are still live.
            let sessions = shared.live_sessions.load(Ordering::SeqCst) as u64;
            // Refresh the utilization gauge so Stats is current even when
            // no sweep has run since the load last moved.
            shared
                .metrics
                .set_max_link_utilization(shared.load.load().max_utilization_permille());
            Some(Response::Stats(shared.metrics.snapshot(epoch, sessions)))
        }
        // Like Stats: a read of the published plane, answerable under
        // overload without a queue slot.
        Request::LoadMap => Some(Response::LoadMap(load_map_summary(shared))),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the listener's reactor so it notices the flag without a
            // new client.
            let _ = TcpStream::connect(shared.addr);
            Some(Response::ShuttingDown)
        }
        _ => None,
    }
}

/// The server's one admission decision: `try_send` into the bounded queue
/// or shed. The frame joins the `frames_in_flight` gauge *before* the
/// hand-off — a worker can finish the job (and take it back off the gauge)
/// before `try_send` even returns — and leaves it again if the queue refuses.
pub(crate) fn admit(metrics: &Metrics, job_tx: &Sender<Job>, job: Job) -> Dispatch {
    metrics.frame_dispatched();
    let refused = match job_tx.try_send(job) {
        Ok(()) => return Dispatch::Admitted,
        Err(TrySendError::Full(_)) => {
            metrics.shed();
            Response::Overloaded
        }
        Err(TrySendError::Disconnected(_)) => Response::Error("server shutting down".into()),
    };
    metrics.frame_completed();
    Dispatch::Inline(Box::new(refused))
}

/// Drains the admission queue until shutdown.
fn worker_loop(shared: &Shared, jobs: &Receiver<Job>) {
    loop {
        match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                let response = execute(shared, job.request);
                job.reply.send(&shared.metrics, response);
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

/// Runs one admitted job and accounts its latency.
fn execute(shared: &Shared, request: Request) -> Response {
    let start = Instant::now();
    let response = match request {
        Request::Federate {
            requirement,
            algorithm,
            hop_limit,
        } => federate(shared, &requirement, algorithm, hop_limit),
        Request::Mutate(mutation) => mutate(shared, &mutation),
        Request::Release { session } => release(shared, session),
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
    shared
        .metrics
        .record_latency_us(duration_us(start.elapsed()));
    response
}

/// Solves one requirement against the current snapshot — no shared lock is
/// held anywhere in the solve — and opens a session.
fn federate(
    shared: &Shared,
    spec: &str,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
) -> Response {
    let requirement: ServiceRequirement = match spec.parse() {
        Ok(requirement) => requirement,
        Err(e) => {
            shared.metrics.failed();
            return Response::Error(format!("bad requirement {spec:?}: {e}"));
        }
    };
    // One Arc clone; everything below runs against this immutable epoch,
    // concurrent mutations notwithstanding.
    let snapshot = shared.snap.load();
    federate_against(shared, snapshot, requirement, algorithm, hop_limit)
}

/// The epoch-pinned half of [`federate`]: serves the requirement from the
/// snapshot's solve cache when possible (revalidating the cached flow
/// against the live load plane), falls through to a cold solve otherwise,
/// then opens a session — unless a mutation overtook it, in which case the
/// answer is [`Response::Stale`]. Split out so the race window is testable
/// with a deliberately outdated snapshot.
fn federate_against(
    shared: &Shared,
    snapshot: Arc<WorldSnapshot>,
    requirement: ServiceRequirement,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
) -> Response {
    let key = shared.config.solve_cache.then(|| SolveKey {
        requirement: requirement.canonical_key(),
        algorithm,
        hop_limit,
    });
    // Warm path: an earlier federate against this very snapshot solved the
    // same key. The cached flow is exact w.r.t. topology and QoS (it lives
    // inside the epoch) but blind to load, so `open_session` revalidates it
    // against the live plane and refuses if the capacity is gone — the
    // request then falls through to the cold path below.
    if let Some(key) = &key {
        if let Some(flow) = snapshot.cached_solve(key) {
            match open_session(shared, &snapshot, &requirement, &flow, Some(key), true) {
                OpenOutcome::Answered(response) => {
                    if matches!(*response, Response::Federated(_)) {
                        shared.metrics.cache_hit();
                    }
                    return *response;
                }
                OpenOutcome::Refused => {
                    shared.metrics.cache_revalidation_fail();
                    // Evict the no-longer-feasible entry so the cold solve
                    // below can file its load-aware answer (`cache_solve`
                    // is first-writer-wins and would keep the stale flow).
                    snapshot.evict_solve(key);
                }
            }
        } else {
            shared.metrics.cache_miss();
        }
    }
    // Residual routing: when the load plane tracks this snapshot's epoch,
    // solve against what live sessions left free — the clamped overlay and
    // its table, which this is the moment to patch if no earlier cold solve
    // asked this plane for it. Otherwise (the `--no-residual` knob, a plane
    // mid-rebase after a mutation, or an empty ledger) fall back to raw
    // capacity. Either context is an immutable `Arc` bundle; no lock is
    // held across the solve.
    let plane = shared.load.load();
    let residual =
        shared.config.residual && plane.epoch() == snapshot.epoch() && !plane.map().is_empty();
    let ctx = if residual {
        residual_context(shared, &plane)
    } else {
        snapshot.context()
    };
    drop(plane);
    let solved = match algorithm {
        Algorithm::Sflow => {
            let solver = match hop_limit {
                Some(limit) => {
                    let (matrix, built) = snapshot.hop_matrix_tracked();
                    if built {
                        shared.metrics.hop_cache_miss();
                    } else {
                        shared.metrics.hop_cache_hit();
                    }
                    Solver::new(&ctx).with_hop_matrix(limit, matrix)
                }
                None => Solver::new(&ctx),
            };
            solver.solve(&requirement)
        }
        Algorithm::Global => GlobalOptimalAlgorithm.federate(&ctx, &requirement),
        Algorithm::Fixed => FixedAlgorithm.federate(&ctx, &requirement),
        Algorithm::ServicePath => ServicePathAlgorithm.federate(&ctx, &requirement),
    };
    let flow = match solved {
        Ok(flow) => flow,
        Err(e) => {
            if residual {
                // The demand did not fit into residual capacity. Counted
                // separately from plain failures: on a loaded server this
                // is admission control doing its job, not a bad request.
                shared.metrics.residual_reject();
            }
            shared.metrics.failed();
            return Response::Error(e.to_string());
        }
    };
    audit_flow(shared, &ctx, &requirement, &flow);
    // File the answer under its key. `cache_solve` is first-writer-wins, so
    // racing cold solves of one key converge on a single canonical flow —
    // the instance set later tenants' forests share.
    let flow = match &key {
        Some(key) => snapshot.cache_solve(key.clone(), flow),
        None => Arc::new(flow),
    };
    // A cold solve against the residual context already proved it fits;
    // no revalidation, so this open cannot be refused.
    match open_session(shared, &snapshot, &requirement, &flow, key.as_ref(), false) {
        OpenOutcome::Answered(response) => *response,
        OpenOutcome::Refused => Response::Error("cold open refused".into()),
    }
}

/// `plane`'s residual context for a cold solve or a rebalancer mover. Ledger
/// moves defer their routing work to the first such ask, so this is where it
/// is paid and accounted (`plane_flushes` and friends in `Stats`). Takes no
/// server lock; must not be called under one.
pub(crate) fn residual_context(shared: &Shared, plane: &LoadPlane) -> OwnedFederationContext {
    let start = Instant::now();
    let (ctx, flushed) = plane.flushed_context();
    if let Some(stats) = flushed {
        shared
            .metrics
            .plane_flush(duration_us(start.elapsed()), stats.trees_recomputed as u64);
    }
    ctx
}

/// What [`open_session`] did with a candidate flow.
enum OpenOutcome {
    /// A definitive answer: the session opened (`Federated`), or the open
    /// is impossible at this epoch (`Stale`, table full). Boxed so the
    /// `Refused` arm doesn't pay `Response`'s footprint.
    Answered(Box<Response>),
    /// The cached flow failed load revalidation; the caller should fall
    /// through to a cold solve.
    Refused,
}

/// `true` if two flows describe the same federation: same instance
/// selection, same streams over the same overlay paths, same quality.
fn same_flow(a: &FlowGraph, b: &FlowGraph) -> bool {
    a.selection() == b.selection() && a.quality() == b.quality() && a.edges() == b.edges()
}

/// Opens one session for `flow` under a single sessions-lock hold: epoch
/// and capacity checks, forest attach-or-found, reservation booking. The
/// one entry point both the warm (cached) and cold (fresh solve) paths
/// funnel through, so the admission rules cannot drift apart.
///
/// With `revalidate`, the flow's full reservation must fit the live
/// residual plane or the open is [`OpenOutcome::Refused`] — unless the
/// tenant attaches to a live forest, whose shared links are already booked
/// (the marginal demand of an exact-key tenant is zero, the `max` of
/// identical streams being the holder's existing reservation).
fn open_session(
    shared: &Shared,
    snapshot: &WorldSnapshot,
    requirement: &ServiceRequirement,
    flow: &Arc<FlowGraph>,
    key: Option<&SolveKey>,
    revalidate: bool,
) -> OpenOutcome {
    let mut sessions = shared.sessions.lock();
    // Epoch check under the sessions lock: repair sweeps also take it, so
    // this decides atomically whether the session will be covered by every
    // future sweep. If a mutation overtook the solve, the answer describes
    // a world that no longer exists — say so instead of storing it.
    let current_epoch = shared.snap.epoch();
    if current_epoch != snapshot.epoch() {
        drop(sessions);
        shared.metrics.stale();
        return OpenOutcome::Answered(Box::new(Response::Stale {
            solved_epoch: snapshot.epoch(),
            current_epoch,
        }));
    }
    // The counter, not `live.len()`: a concurrent repair sweep empties the
    // map while it re-resolves, and the cap must keep counting those
    // sessions or a long sweep admits up to a full extra table. Opens all
    // hold the sessions lock, so check-then-increment cannot over-admit;
    // sweep decrements can only make this check conservative.
    if shared.live_sessions.load(Ordering::SeqCst) >= shared.config.max_sessions {
        shared.metrics.failed();
        return OpenOutcome::Answered(Box::new(Response::Error("session table full".into())));
    }
    // Attach to the key's live forest if it matches exactly — same epoch,
    // same flow. A forest left at another epoch (or moved to a different
    // instance set by a repair) does not match and is superseded below.
    let attach = key.and_then(|key| {
        let fid = *sessions.by_key.get(key)?;
        let forest = sessions.forests.get(&fid)?;
        (forest.epoch == snapshot.epoch() && same_flow(&forest.flow, flow)).then_some(fid)
    });
    let links = match attach {
        Some(_) => Vec::new(),
        None => links_of(flow, snapshot.overlay()),
    };
    if revalidate && attach.is_none() {
        // The cached flow must fit residual capacity in full (it founds a
        // new forest, so its whole reservation is marginal). Skipped when
        // residual admission is off or the plane is mid-rebase — the cold
        // path would be equally blind there.
        let plane = shared.load.load();
        if shared.config.residual && plane.epoch() == snapshot.epoch() && !plane.fits(&links) {
            return OpenOutcome::Refused;
        }
    }
    let session = sessions.next_id;
    sessions.next_id += 1;
    let forest = match (key, attach) {
        (_, Some(fid)) => {
            if let Some(forest) = sessions.forests.get_mut(&fid) {
                forest.members.push(session);
            }
            Some(fid)
        }
        (Some(key), None) => {
            // Found a forest for this key (superseding any stale holder of
            // the `by_key` slot — its members keep being served, it just
            // accepts no new tenants).
            let fid = sessions.next_forest;
            sessions.next_forest += 1;
            sessions.forests.insert(
                fid,
                Forest {
                    key: key.clone(),
                    epoch: snapshot.epoch(),
                    flow: flow.as_ref().clone(),
                    members: vec![session],
                },
            );
            sessions.by_key.insert(key.clone(), fid);
            Some(fid)
        }
        (None, None) => None,
    };
    let summary = FlowSummary {
        session,
        epoch: snapshot.epoch(),
        bandwidth_kbps: flow.quality().bandwidth.as_kbps(),
        latency_us: flow.quality().latency.as_micros(),
        instances: flow.instances().clone(),
    };
    sessions.live.insert(
        session,
        Session {
            requirement: requirement.clone(),
            flow: flow.as_ref().clone(),
            solved_epoch: snapshot.epoch(),
            links: links.clone(),
            forest,
        },
    );
    shared.live_sessions.fetch_add(1, Ordering::SeqCst);
    // Keep the forest census current at its mutation points, so `Stats`
    // never takes the sessions lock (the reactor answers it inline and must
    // not wait behind a mutation's rebase).
    let (forests, tenants) = sessions.forest_census();
    shared.metrics.set_forests(forests, tenants);
    // Book the reservations, still under the sessions lock, re-loading the
    // plane because other opens may have published since our solve-time
    // load. Booking moves the ledger and re-clamps these links; the routing
    // table over the clamp is left to whichever cold solve next asks for
    // it. A plane at another epoch means a mutation's rebase is imminent
    // and will account this session from the table itself. A forest tenant
    // books nothing — the holder's reservation already carries the shared
    // streams.
    if !links.is_empty() {
        let plane = shared.load.load();
        if plane.epoch() == snapshot.epoch() {
            shared.load.publish(Arc::new(plane.with_changes(
                &links,
                &[],
                shared.config.route_workers,
            )));
        }
    }
    shared.metrics.served();
    OpenOutcome::Answered(Box::new(Response::Federated(summary)))
}

/// Closes one session and releases exactly the reservations it holds — the
/// other half of the session lifecycle, and the only way load leaves the
/// plane without a migration or a repair drop.
///
/// Forest members complicate this in one way: the *holder* carries the
/// whole forest's reservation. A holder leaving survivors hands its links
/// to the next member under the same lock hold — the ledger never moves —
/// and only the last member out actually releases the booking.
fn release(shared: &Shared, session: u64) -> Response {
    let mut sessions = shared.sessions.lock();
    let Some(mut closed) = sessions.live.remove(&session) else {
        shared.metrics.failed();
        return Response::Error(format!("no such session {session}"));
    };
    shared.live_sessions.fetch_sub(1, Ordering::SeqCst);
    if let Some(fid) = closed.forest {
        if let Some(forest) = sessions.forests.get_mut(&fid) {
            forest.members.retain(|&m| m != session);
            let heir = forest.members.first().copied();
            match heir {
                Some(heir) => {
                    if !closed.links.is_empty() {
                        // The holder leaves; a survivor inherits the
                        // booking in place. Nothing is published: the
                        // ledger still equals the sum of session links.
                        if let Some(survivor) = sessions.live.get_mut(&heir) {
                            survivor.links = std::mem::take(&mut closed.links);
                        }
                    }
                }
                None => {
                    // Last member out: the forest dissolves and `closed`
                    // (the holder by construction) releases below. The
                    // `by_key` slot is dropped only if this forest still
                    // owns it — a superseding forest may have taken it.
                    if let Some(gone) = sessions.forests.remove(&fid) {
                        if sessions.by_key.get(&gone.key) == Some(&fid) {
                            sessions.by_key.remove(&gone.key);
                        }
                    }
                }
            }
        }
    }
    let (forests, tenants) = sessions.forest_census();
    shared.metrics.set_forests(forests, tenants);
    let plane = shared.load.load();
    // Release against the epoch the links were booked under; across a
    // rebase the ledger is rebuilt from the table (which no longer holds
    // this session), so there is nothing to subtract.
    if !closed.links.is_empty() && plane.epoch() == closed.solved_epoch {
        shared.load.publish(Arc::new(plane.with_changes(
            &[],
            &closed.links,
            shared.config.route_workers,
        )));
    }
    Response::Released { session }
}

/// Flattens the published load plane for the wire.
fn load_map_summary(shared: &Shared) -> LoadMapSummary {
    let plane = shared.load.load();
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

/// Under `--audit`, re-derives every answer's invariants from raw overlay
/// links ([`FlowGraphAuditor`]) and counts violations in the server stats.
/// Counting, not fatal: operators watch `audit_violations`, answers still
/// flow.
fn audit_flow(
    shared: &Shared,
    ctx: &FederationContext<'_>,
    requirement: &ServiceRequirement,
    flow: &FlowGraph,
) {
    if !shared.config.audit {
        return;
    }
    let report = FlowGraphAuditor::new(ctx, requirement).audit(flow);
    if !report.is_clean() {
        shared
            .metrics
            .audit_violations(report.violations.len() as u64);
    }
}

/// Applies one mutation and repairs every session against the new epoch —
/// sFlow's agility as a server operation.
///
/// The world mutex serializes mutations *against each other only*; readers
/// load snapshots and never block here. The guard intentionally spans the
/// repair sweep so sweeps from back-to-back mutations cannot interleave —
/// the one sanctioned exception to the no-guard-across-solve invariant,
/// which is why the binding carries an audit allow.
fn mutate(shared: &Shared, mutation: &crate::Mutation) -> Response {
    let mut world = shared.world.lock(); // audit:allow(guard-across-solve): sanctioned mutator, see fn docs
    let from_epoch = world.epoch();
    let rebuild = match world.apply(mutation) {
        Ok(rebuild) => rebuild,
        Err(e) => {
            shared.metrics.failed();
            return Response::Error(e.to_string());
        }
    };
    shared
        .metrics
        .rebuild(duration_us(rebuild.duration), rebuild.trees_recomputed);
    // `apply` has already published the successor: federates from here on
    // solve at `epoch`, and any solve still in flight at `from_epoch` will
    // answer `Stale` rather than slip into the session table behind us.
    let snapshot = world.snapshot();
    let epoch = snapshot.epoch();
    let ctx = snapshot.context();

    // Sweep the sessions through repair. The map is *taken* out of the
    // sessions lock so the lock itself is never held across a repair solve;
    // federates landing mid-sweep open sessions at the new epoch and merge
    // back untouched (ids stay unique — `next_id` is monotonic and stays in
    // place).
    let taken = std::mem::take(&mut shared.sessions.lock().live);
    let mut kept = BTreeMap::new();
    let mut repaired = 0usize;
    let mut dropped = 0usize;
    for (id, mut session) in taken {
        if session.solved_epoch == epoch {
            // Opened by a federate that loaded the successor snapshot after
            // `apply` published it but before this sweep took the map — it
            // is already current; merge it back untouched.
            kept.insert(id, session);
            continue;
        }
        if session.solved_epoch != from_epoch {
            // Defensive: every sweep repairs sessions solved at exactly the
            // epoch this mutation replaced. A session left behind at some
            // older epoch has already been renumbered past — drop it rather
            // than repair it against a world it was never solved in.
            dropped += 1;
            shared.live_sessions.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        match repair(&ctx, &session.requirement, &session.flow) {
            Ok(outcome) => {
                audit_flow(shared, &ctx, &session.requirement, &outcome.flow);
                // Re-derive the reservations from the repaired flow over the
                // *new* overlay — repair may have moved the session, and the
                // old node indices no longer mean anything.
                session.links = links_of(&outcome.flow, snapshot.overlay());
                session.flow = outcome.flow;
                session.solved_epoch = epoch;
                kept.insert(id, session);
                repaired += 1;
            }
            Err(_) => {
                dropped += 1;
                shared.live_sessions.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    // Merge the survivors back and rebase the load plane onto the new epoch
    // in one sessions-lock hold: the ledger is recomputed from the full
    // merged table (survivors plus any sessions opened at the new epoch
    // mid-sweep), so it cannot drift from what is actually live. The
    // estimator history is carried over — reservations are exact, estimates
    // are memory.
    let mut sessions = shared.sessions.lock();
    sessions.live.extend(kept);
    // Carry the forests across the epoch. Repair is deterministic over
    // identical inputs, so every surviving member of a forest was repaired
    // onto the same new flow — but the per-session sweep above gave each of
    // them the flow's *full* links. Re-pin the holder role: the first
    // survivor keeps the reservation, every other member's links clear, so
    // the rebase below books each shared instance set exactly once (`max`,
    // not `sum`, of the common streams). Forests with no survivors (or
    // already created at the new epoch mid-sweep) dissolve or pass through.
    {
        let Sessions {
            live,
            forests,
            by_key,
            ..
        } = &mut *sessions;
        forests.retain(|fid, forest| {
            if forest.epoch == epoch {
                return true; // opened mid-sweep, already current
            }
            forest
                .members
                .retain(|m| live.get(m).is_some_and(|s| s.solved_epoch == epoch));
            let Some(&holder) = forest.members.first() else {
                if by_key.get(&forest.key) == Some(fid) {
                    by_key.remove(&forest.key);
                }
                return false;
            };
            if let Some(held) = live.get(&holder) {
                forest.flow = held.flow.clone();
            }
            forest.epoch = epoch;
            for member in forest.members.iter().skip(1) {
                if let Some(tenant) = live.get_mut(member) {
                    tenant.links = Vec::new();
                }
            }
            true
        });
    }
    let (forests, tenants) = sessions.forest_census();
    shared.metrics.set_forests(forests, tenants);
    let mut map = LoadMap::from_reservations(
        sessions
            .live
            .values()
            .flat_map(|session| session.links.iter().copied()),
    );
    map.adopt_estimates(shared.load.load().map());
    shared.load.publish(Arc::new(LoadPlane::rebased(
        &snapshot,
        map,
        shared.config.route_workers,
    )));
    drop(sessions);
    Response::Mutated {
        epoch,
        repaired,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mutation;
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement, Fixture};
    use sflow_net::{Compatibility, Placement, ServiceId, ServiceInstance, UnderlyingNetwork};
    use sflow_routing::{Latency, Qos};

    /// A `Shared` with no listener behind it: enough to drive the worker
    /// entry points (`federate_against`, `mutate`) directly.
    fn shared_over_diamond() -> Shared {
        let mut world = World::new(diamond_fixture());
        world.set_route_workers(1);
        let load = LoadCell::new(Arc::new(LoadPlane::fresh(&world.snapshot())));
        Shared {
            addr: "127.0.0.1:0".parse().unwrap(),
            config: ServerConfig::default(),
            snap: world.handle(),
            world: Mutex::new(world),
            sessions: Mutex::new(Sessions::default()),
            load,
            live_sessions: AtomicUsize::new(0),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Satellite regression: a solve that a mutation overtakes is answered
    /// with the typed `Stale` response — carrying both epochs — instead of
    /// opening a session solved against a renumbered world.
    #[test]
    fn a_solve_overtaken_by_a_mutation_is_answered_stale() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        // The solver's snapshot load...
        let stale_snapshot = shared.snap.load();
        // ...raced by an instance failure, which renumbers the overlay.
        let victim = stale_snapshot
            .overlay()
            .graph()
            .node_ids()
            .map(|n| stale_snapshot.overlay().instance(n))
            .find(|i| *i != stale_snapshot.source())
            .unwrap();
        match mutate(&shared, &Mutation::FailInstance { instance: victim }) {
            Response::Mutated { epoch: 1, .. } => {}
            other => panic!("expected Mutated at epoch 1, got {other:?}"),
        }

        match federate_against(
            &shared,
            stale_snapshot,
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
        assert_eq!(shared.sessions.lock().live.len(), 0);
        let stats = shared.metrics.snapshot(shared.snap.epoch(), 0);
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.served, 0);

        // A fresh load federates normally at the new epoch.
        let fresh = shared.snap.load();
        match federate_against(&shared, fresh, requirement, Algorithm::Sflow, Some(2)) {
            Response::Federated(s) => assert_eq!(s.epoch, 1),
            other => panic!("expected Federated, got {other:?}"),
        }
        assert_eq!(shared.sessions.lock().live.len(), 1);
        assert_eq!(shared.live_sessions.load(Ordering::SeqCst), 1);
    }

    /// Regression: a federate can load the successor snapshot (published by
    /// `World::apply` *before* the sweep takes the sessions map) and open a
    /// session at the new epoch mid-sweep. The sweep must merge it back
    /// untouched — not drop it as "left behind at some older epoch".
    #[test]
    fn a_session_opened_at_the_successor_epoch_survives_the_sweep() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        // A session legitimately opened at epoch 0 — the sweep's real work.
        let fresh = shared.snap.load();
        match federate_against(&shared, fresh, requirement.clone(), Algorithm::Sflow, None) {
            Response::Federated(s) => assert_eq!(s.epoch, 0),
            other => panic!("expected Federated, got {other:?}"),
        }
        // Emulate the publish-to-sweep race: a session already recorded at
        // the epoch the mutation is about to land on (the federate passed
        // the epoch check because `apply` had published the successor).
        let snapshot = shared.snap.load();
        let flow = Solver::new(&snapshot.context())
            .solve(&requirement)
            .unwrap();
        let links = links_of(&flow, snapshot.overlay());
        shared.sessions.lock().live.insert(
            99,
            Session {
                requirement: requirement.clone(),
                flow,
                solved_epoch: 1,
                links,
                forest: None,
            },
        );
        shared.live_sessions.fetch_add(1, Ordering::SeqCst);

        let snapshot = shared.snap.load();
        let victim = snapshot
            .overlay()
            .graph()
            .node_ids()
            .map(|n| snapshot.overlay().instance(n))
            .find(|i| *i != snapshot.source())
            .unwrap();
        let (repaired, dropped) =
            match mutate(&shared, &Mutation::FailInstance { instance: victim }) {
                Response::Mutated {
                    epoch: 1,
                    repaired,
                    dropped,
                } => (repaired, dropped),
                other => panic!("expected Mutated at epoch 1, got {other:?}"),
            };
        // Only the epoch-0 session was swept; the epoch-1 session is
        // neither repaired nor dropped.
        assert_eq!(repaired + dropped, 1);
        let sessions = shared.sessions.lock();
        let survivor = sessions.live.get(&99).expect("epoch-1 session survives");
        assert_eq!(survivor.solved_epoch, 1);
        assert_eq!(
            shared.live_sessions.load(Ordering::SeqCst),
            sessions.live.len(),
            "counter tracks the table once the sweep is done"
        );
    }

    /// Regression: while a repair sweep has the map taken out, admission and
    /// the stats count must still see the swept-out sessions — otherwise a
    /// long sweep admits up to a full extra table and Stats reports ~0.
    #[test]
    fn admission_and_stats_count_sessions_swept_out_for_repair() {
        let mut shared = shared_over_diamond();
        shared.config.max_sessions = 1;
        let requirement = diamond_requirement();
        match federate_against(
            &shared,
            shared.snap.load(),
            requirement.clone(),
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        // Simulate a sweep in progress: the map is taken out of the lock,
        // but its session is still live from the clients' point of view.
        let taken = std::mem::take(&mut shared.sessions.lock().live);
        assert_eq!(shared.live_sessions.load(Ordering::SeqCst), 1);
        match federate_against(
            &shared,
            shared.snap.load(),
            requirement,
            Algorithm::Sflow,
            None,
        ) {
            Response::Error(e) => assert!(e.contains("session table full"), "got {e:?}"),
            other => panic!("expected the session cap to hold mid-sweep, got {other:?}"),
        }
        shared.sessions.lock().live.extend(taken);
        assert_eq!(shared.sessions.lock().live.len(), 1);
    }

    /// The conservation invariant: the published ledger is exactly the sum
    /// of the live sessions' recorded reservations — per link, both
    /// directions, no leak and no double-count.
    fn assert_conserved(shared: &Shared) {
        let sessions = shared.sessions.lock();
        let expected = LoadMap::from_reservations(
            sessions
                .live
                .values()
                .flat_map(|session| session.links.iter().copied()),
        );
        let plane = shared.load.load();
        let got: Vec<(LinkId, u64)> = plane.map().iter_reserved().collect();
        let want: Vec<(LinkId, u64)> = expected.iter_reserved().collect();
        assert_eq!(got, want, "ledger drifted from the session table");
        assert_eq!(
            plane.map().total_reserved_kbps(),
            expected.total_reserved_kbps()
        );
    }

    /// Satellite property test: under a random interleaving of session
    /// opens, closes, rebalancer sweeps and QoS mutations (each of which
    /// triggers a repair sweep and a ledger rebase), the sum of per-link
    /// reserved bandwidth in the published `LoadMap` always equals the sum
    /// over live sessions of their paths' reservations. No leaked
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
            let snapshot = shared.snap.load();
            let overlay = snapshot.overlay();
            overlay
                .graph()
                .node_ids()
                .flat_map(|n| overlay.graph().out_edges(n))
                .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
                .collect()
        };
        for _ in 0..200 {
            match next() % 6 {
                0 | 1 => {
                    // Open — may be rejected by residual admission; that
                    // must leave the ledger untouched.
                    let _ = federate_against(
                        &shared,
                        shared.snap.load(),
                        requirement.clone(),
                        Algorithm::Sflow,
                        None,
                    );
                }
                2 => {
                    // Close a random session (sometimes a bogus id).
                    let id = {
                        let sessions = shared.sessions.lock();
                        let n = sessions.live.len();
                        if n == 0 || next() % 8 == 0 {
                            u64::MAX
                        } else {
                            let skip = (next() as usize) % n;
                            *sessions.live.keys().nth(skip).unwrap()
                        }
                    };
                    let _ = release(&shared, id);
                }
                3 => {
                    let _ = rebalance::sweep(&shared);
                }
                _ => {
                    // Congestion wobble: repair-sweeps every session and
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
            let sessions = shared.sessions.lock().live.len();
            assert_eq!(
                shared.live_sessions.load(Ordering::SeqCst),
                sessions,
                "the live counter tracks the table between operations"
            );
        }
        // A structural mutation at the end: instance failure renumbers the
        // overlay and drops routed-through sessions; the rebase must scrub
        // exactly the dead reservations.
        let snapshot = shared.snap.load();
        let victim = snapshot
            .overlay()
            .graph()
            .node_ids()
            .map(|n| snapshot.overlay().instance(n))
            .find(|i| *i != snapshot.source())
            .unwrap();
        let _ = mutate(&shared, &Mutation::FailInstance { instance: victim });
        assert_conserved(&shared);
    }

    /// Two equal-width disjoint routes `h0 → {h1, h2} → h3`: migration is
    /// purely a matter of load, never of topology preference. Served blind
    /// so both sessions pile onto the same route and hand the rebalancer
    /// real work.
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

        let mut world = World::new(fixture);
        world.set_route_workers(1);
        let load = LoadCell::new(Arc::new(LoadPlane::fresh(&world.snapshot())));
        let shared = Shared {
            addr: "127.0.0.1:0".parse().unwrap(),
            config: ServerConfig {
                residual: false, // blind opens; the *rebalancer* is under test
                // Cached repeats would share one forest (one booking, no
                // movable second session); this test needs two independent
                // bookings on the same route.
                solve_cache: false,
                utilization_threshold_permille: 900,
                route_workers: 1,
                ..ServerConfig::default()
            },
            snap: world.handle(),
            world: Mutex::new(world),
            sessions: Mutex::new(Sessions::default()),
            load,
            live_sessions: AtomicUsize::new(0),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
        };
        (shared, requirement)
    }

    /// Satellite regression, the make-before-break contract: a sweep
    /// migrates the session off the doubly-booked route, the session is
    /// never absent from the table at any instant (a poller thread hammers
    /// the lock while sweeps run), and a sweep with nothing to gain changes
    /// nothing — failed movers keep their flows and links byte-for-byte.
    #[test]
    fn rebalancer_migrates_make_before_break_and_failures_change_nothing() {
        let (shared, requirement) = shared_over_twin_routes();
        for _ in 0..2 {
            match federate_against(
                &shared,
                shared.snap.load(),
                requirement.clone(),
                Algorithm::Sflow,
                None,
            ) {
                Response::Federated(_) => {}
                other => panic!("expected Federated, got {other:?}"),
            }
        }
        // Blind routing put both sessions on one route: one link pair is
        // double-booked at 2000‰, the other untouched.
        assert_eq!(shared.load.load().max_utilization_permille(), 2000);
        {
            let sessions = shared.sessions.lock();
            let selections: Vec<_> = sessions.live.values().map(|s| s.flow.selection()).collect();
            assert_eq!(selections[0], selections[1], "blind opens stack up");
        }
        assert_conserved(&shared);

        // Sweep with a poller thread proving the sessions never vanish.
        let stop = AtomicBool::new(false);
        let outcome = thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let sessions = shared.sessions.lock();
                    assert_eq!(
                        sessions.live.len(),
                        2,
                        "a migrating session must never be absent from the table"
                    );
                    drop(sessions);
                    std::hint::spin_loop();
                }
            });
            let outcome = rebalance::sweep(&shared);
            stop.store(true, Ordering::SeqCst);
            outcome
        });
        assert_eq!(outcome.migrations, 1, "one mover drains the hot route");
        assert_eq!(
            outcome.max_utilization_permille, 1000,
            "one session per route after the sweep"
        );
        assert_conserved(&shared);
        {
            let sessions = shared.sessions.lock();
            let selections: Vec<_> = sessions.live.values().map(|s| s.flow.selection()).collect();
            assert_ne!(selections[0], selections[1], "the mover changed route");
        }
        let stats = shared.metrics.snapshot(0, 2);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.max_link_utilization_permille, 1000);

        // Both routes now sit at 1000‰ — still above the threshold, but no
        // move can improve the world. The sweep must fail every mover and
        // leave both sessions untouched.
        let before: BTreeMap<u64, Vec<(LinkId, u64)>> = shared
            .sessions
            .lock()
            .live
            .iter()
            .map(|(&id, s)| (id, s.links.clone()))
            .collect();
        let outcome = rebalance::sweep(&shared);
        assert_eq!(outcome.migrations, 0);
        assert!(
            outcome.migration_failures >= 1,
            "hot but unimprovable movers are counted as failures"
        );
        let after: BTreeMap<u64, Vec<(LinkId, u64)>> = shared
            .sessions
            .lock()
            .live
            .iter()
            .map(|(&id, s)| (id, s.links.clone()))
            .collect();
        assert_eq!(before, after, "a failed migration changes nothing");
        assert_conserved(&shared);

        // Releasing the migrated sessions drains the ledger completely.
        let ids: Vec<u64> = before.keys().copied().collect();
        for id in ids {
            match release(&shared, id) {
                Response::Released { session } => assert_eq!(session, id),
                other => panic!("expected Released, got {other:?}"),
            }
        }
        assert!(shared.load.load().map().is_empty(), "no leaked reservation");
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
        let snapshot = shared.snap.load();
        let reference = Solver::new(&snapshot.context())
            .solve(&requirement)
            .unwrap();

        for _ in 0..3 {
            match federate_against(
                &shared,
                shared.snap.load(),
                requirement.clone(),
                Algorithm::Sflow,
                None,
            ) {
                Response::Federated(_) => {}
                other => panic!("expected Federated, got {other:?}"),
            }
        }
        let stats = shared.metrics.snapshot(0, 3);
        assert_eq!(stats.cache_misses, 1, "only the first solve is cold");
        assert_eq!(stats.cache_hits, 2, "repeats are served warm");
        assert_eq!(stats.cache_revalidation_fails, 0);
        assert_eq!(snapshot.cached_solve_count(), 1);

        let sessions = shared.sessions.lock();
        assert_eq!(
            sessions.forest_census(),
            (1, 3),
            "one forest, three tenants"
        );
        // Exactly one member — the holder — carries the reservation; the
        // ledger reserves the shared links once, not three times.
        let holders = sessions
            .live
            .values()
            .filter(|s| !s.links.is_empty())
            .count();
        assert_eq!(holders, 1, "one holder books for the whole forest");
        assert!(sessions.live.values().all(|s| s.forest == Some(0)));
        // Byte-identical satellite: every tenant's flow serializes to the
        // same bytes as an independent cold solve at the same epoch+load,
        // and the shared flow audits clean.
        let want = serde_json::to_string(&reference).unwrap();
        for session in sessions.live.values() {
            assert_eq!(
                serde_json::to_string(&session.flow).unwrap(),
                want,
                "a cache hit must be byte-identical to the cold solve"
            );
        }
        let cached = snapshot
            .cached_solve(&SolveKey {
                requirement: requirement.canonical_key(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            })
            .expect("the cold solve filled the cache");
        let ctx = snapshot.context();
        let report = FlowGraphAuditor::new(&ctx, &requirement).audit(&cached);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        drop(sessions);
        assert_conserved(&shared);
    }

    /// Satellite: a cached solve never survives an epoch whose patch
    /// dirties one of its links — and survives (same arc, no re-solve) an
    /// epoch that patches only links it avoids.
    #[test]
    fn qos_patches_invalidate_dirtied_cache_entries_and_keep_clean_ones() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        match federate_against(
            &shared,
            shared.snap.load(),
            requirement.clone(),
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        let snapshot = shared.snap.load();
        assert_eq!(snapshot.cached_solve_count(), 1);
        // Classify every directed overlay link as on or off the cached
        // flow's paths (instance identities survive QoS epochs).
        let key = SolveKey {
            requirement: requirement.canonical_key(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        let cached = snapshot.cached_solve(&key).unwrap();
        let overlay = snapshot.overlay();
        let used: Vec<(ServiceInstance, ServiceInstance)> = cached
            .edges()
            .iter()
            .flat_map(|e| e.overlay_path.windows(2))
            .map(|w| (overlay.instance(w[0]), overlay.instance(w[1])))
            .collect();
        let all: Vec<(ServiceInstance, ServiceInstance)> = overlay
            .graph()
            .node_ids()
            .flat_map(|n| overlay.graph().out_edges(n))
            .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
            .collect();
        let &(cf, ct) = all.iter().find(|pair| !used.contains(pair)).unwrap();
        let &(df, dt) = all.iter().find(|pair| used.contains(pair)).unwrap();

        // An off-path wobble: the entry is adopted across the epoch.
        match mutate(
            &shared,
            &Mutation::SetLinkQos {
                from: cf,
                to: ct,
                bandwidth_kbps: 77,
                latency_us: 1_234,
            },
        ) {
            Response::Mutated { epoch: 1, .. } => {}
            other => panic!("expected Mutated, got {other:?}"),
        }
        let clean = shared.snap.load();
        let carried = clean
            .cached_solve(&key)
            .expect("a clean patch keeps the entry");
        assert!(Arc::ptr_eq(&carried, &cached), "adoption shares the arc");

        // A patch on a link the flow traverses: the entry must not survive.
        match mutate(
            &shared,
            &Mutation::SetLinkQos {
                from: df,
                to: dt,
                bandwidth_kbps: 66,
                latency_us: 2_345,
            },
        ) {
            Response::Mutated { epoch: 2, .. } => {}
            other => panic!("expected Mutated, got {other:?}"),
        }
        assert!(
            shared.snap.load().cached_solve(&key).is_none(),
            "a dirtied path drops the cached solve"
        );
    }

    /// Forest lifecycle: releasing the holder hands the booking to a
    /// survivor in place (the ledger never moves), and only the last member
    /// out releases it.
    #[test]
    fn releasing_the_holder_hands_the_booking_over_and_the_last_out_releases() {
        let shared = shared_over_diamond();
        let requirement = diamond_requirement();
        for _ in 0..3 {
            match federate_against(
                &shared,
                shared.snap.load(),
                requirement.clone(),
                Algorithm::Sflow,
                None,
            ) {
                Response::Federated(_) => {}
                other => panic!("expected Federated, got {other:?}"),
            }
        }
        let booked = shared.load.load().map().total_reserved_kbps();
        assert!(booked > 0, "the holder booked the shared links");

        // The holder (session 0) leaves first: session 1 inherits the links,
        // the ledger does not move, conservation holds throughout.
        for (leaving, heir) in [(0u64, 1u64), (1, 2)] {
            match release(&shared, leaving) {
                Response::Released { session } => assert_eq!(session, leaving),
                other => panic!("expected Released, got {other:?}"),
            }
            assert_eq!(
                shared.load.load().map().total_reserved_kbps(),
                booked,
                "survivors keep the forest's one booking"
            );
            let sessions = shared.sessions.lock();
            assert!(
                !sessions.live.get(&heir).unwrap().links.is_empty(),
                "the next member inherits the holder's links"
            );
            drop(sessions);
            assert_conserved(&shared);
        }
        match release(&shared, 2) {
            Response::Released { session } => assert_eq!(session, 2),
            other => panic!("expected Released, got {other:?}"),
        }
        assert!(shared.load.load().map().is_empty(), "last out releases");
        let sessions = shared.sessions.lock();
        assert_eq!(sessions.forest_census(), (0, 0));
        assert!(
            sessions.by_key.is_empty(),
            "the key slot dies with the forest"
        );
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
            shared.snap.load(),
            requirement.clone(),
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        assert_eq!(shared.load.load().max_utilization_permille(), 1000);
        // Tear the forest down while keeping the booking: this is the
        // superseded-forest shape — the cached flow is still filed, but a
        // new tenant can no longer attach and must justify a reservation of
        // its own.
        {
            let mut sessions = shared.sessions.lock();
            sessions.forests.clear();
            sessions.by_key.clear();
            for session in sessions.live.values_mut() {
                session.forest = None;
            }
        }
        let first_selection = shared
            .sessions
            .lock()
            .live
            .values()
            .next()
            .unwrap()
            .flow
            .selection()
            .clone();

        match federate_against(
            &shared,
            shared.snap.load(),
            requirement,
            Algorithm::Sflow,
            None,
        ) {
            Response::Federated(_) => {}
            other => panic!("expected Federated, got {other:?}"),
        }
        let stats = shared.metrics.snapshot(0, 2);
        assert_eq!(
            stats.cache_revalidation_fails, 1,
            "the warm hit no longer fits the residual plane"
        );
        assert_eq!(stats.cache_misses, 1, "only the first open was a miss");
        assert_eq!(stats.cache_hits, 0, "a refused hit is not a hit");
        let sessions = shared.sessions.lock();
        let second = sessions.live.values().nth(1).unwrap();
        assert_ne!(
            *second.flow.selection(),
            first_selection,
            "the cold re-solve steered onto the free route"
        );
        drop(sessions);
        assert_conserved(&shared);
        // The re-solve replaced the evicted entry with the load-aware flow.
        assert_eq!(shared.snap.load().cached_solve_count(), 1);
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
            route_workers: 1,
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
            !shared.load.load().is_materialised(),
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
        assert!(!shared.load.load().is_materialised(), "nor did B's");

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
        let plane = shared.load.load();
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
            shared.load.load().map().total_reserved_kbps()
        );
        for session in [a, b, c] {
            client.release(session).unwrap();
        }
        assert!(client.load_map().unwrap().links.is_empty());
        handle.shutdown();
    }
}
