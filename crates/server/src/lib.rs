//! A long-lived federation service for service overlay networks.
//!
//! Everything else in this workspace solves one federation at a time and
//! throws the world away; this crate is the shape the ROADMAP north star
//! ("heavy traffic from millions of users") demands — a resident server that
//! *owns* a world and amortises its expensive routing artifacts across
//! requests:
//!
//! * **Snapshot world** — the overlay, [`AllPairs`] table and topology epoch
//!   live in an immutable [`WorldSnapshot`] ([`snapshot`]). The server
//!   publishes one world: the load plane, which carries the snapshot it
//!   indexes. `Federate` requests load it and solve with **no shared lock
//!   held**; mutations build the successor copy-on-write off to the side
//!   ([`world`]) and publish it as the ledger rebased onto it, under the
//!   session table's lock, so the ledger and the world change epoch
//!   together. Mutations serialize only against each other.
//! * **Shared routing caches** — the [`HopMatrix`] the sFlow horizon needs
//!   lives *inside* each snapshot (built lazily, at most once per epoch) and
//!   is handed to every solver as an `Arc` (via [`Solver::with_hop_matrix`]);
//!   QoS-only mutations carry it forward to the successor epoch.
//! * **Admission control** — a crossbeam worker pool drains a *bounded* job
//!   queue; when the queue is full, requests are shed immediately with
//!   [`Response::Overloaded`] so overload degrades gracefully instead of
//!   ballooning latency ([`server`]).
//! * **Agility** — [`Request::Mutate`] applies a link-QoS update or an
//!   instance failure, publishes the next epoch and re-federates every live
//!   session via [`sflow_core::repair`] — the paper's headline claim made
//!   operational. Both mutations are one routing-table patch: a failed
//!   instance is a tombstone whose links are cut, so nothing is renumbered.
//!   A solve that a mutation overtakes is answered with the typed
//!   [`Response::Stale`] rather than booked on an epoch that is gone.
//! * **Load plane** — a [`LoadMap`] derives per-link reserved bandwidth
//!   from the live session table and is published as an immutable
//!   [`LoadPlane`] through a [`LoadCell`], the server's one publication
//!   cell, which only the session table can publish to, under its lock.
//!   Federates solve against a
//!   **residual** overlay whose link bandwidths are clamped to `capacity −
//!   reserved` (disable with [`ServerConfig::residual`] = `false`), and a
//!   background rebalancer sweep migrates sessions off links above a
//!   utilization threshold — make-before-break, cheapest movers first
//!   ([`load`]).
//! * **Wire protocol** — length-prefixed binary records (tagged enums,
//!   varint integers; the byte layout is [`wire`]'s module doc) over
//!   `std::net` TCP, served by one epoll [`reactor`]; [`client`] has the
//!   pipelined [`PipelinedClient`] and [`Client`], a one-frame-in-flight
//!   wrapper over it.
//!
//! [`AllPairs`]: sflow_routing::AllPairs
//! [`HopMatrix`]: sflow_core::baseline::HopMatrix
//! [`Solver::with_hop_matrix`]: sflow_core::Solver::with_hop_matrix
//!
//! # Quickstart
//!
//! ```
//! use sflow_core::fixtures::diamond_fixture;
//! use sflow_server::{serve, Algorithm, Client, Request, Response, ServerConfig, World};
//!
//! let handle = serve(World::new(diamond_fixture()), &ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! match client.federate("0>1>3, 0>2>3", Algorithm::Sflow, Some(2))? {
//!     Response::Federated(s) => println!("federated at {} kbit/s", s.bandwidth_kbps),
//!     other => panic!("unexpected {other:?}"),
//! }
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A panic kills a worker or poisons a shared table: each known-good
// `expect` carries an `#[expect(clippy::expect_used, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use sflow_net::{ServiceId, ServiceInstance};

pub mod client;
pub mod load;
mod lock;
pub mod reactor;
mod rebalance;
pub mod server;
mod sessions;
pub mod snapshot;
pub mod stats;
pub mod wire;
pub mod world;

pub use client::{Client, PipelinedClient};
pub use load::{LinkId, LoadMap, LoadPlane};
pub use server::{serve, serve_on, ServerConfig, ServerHandle};
pub use sessions::LoadCell;
pub use snapshot::{SolveKey, WorldSnapshot};
pub use stats::StatsSnapshot;
pub use wire::WireError;
pub use world::World;

/// Which federation algorithm a [`Request::Federate`] should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    /// The paper's sFlow algorithm (horizon from the request's `hop_limit`).
    #[default]
    Sflow,
    /// Exhaustive global optimum (exponential; small worlds only).
    Global,
    /// The greedy "fixed" baseline.
    Fixed,
    /// The service-path (chain-serialising) baseline.
    ServicePath,
}

/// A topology mutation applied by [`Request::Mutate`].
///
/// Instances are addressed by their stable `(service, host)` identity rather
/// than by overlay node index: the identity is what a client knows, and it
/// is what the server resolves against the current epoch, where a failed
/// instance no longer resolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Overwrites the QoS of the service link `from → to` (congestion,
    /// re-provisioning).
    SetLinkQos {
        /// Upstream endpoint of the service link.
        from: ServiceInstance,
        /// Downstream endpoint of the service link.
        to: ServiceInstance,
        /// New bottleneck bandwidth, kbit/s.
        bandwidth_kbps: u64,
        /// New latency, microseconds.
        latency_us: u64,
    },
    /// Fails an instance (node crash, service withdrawal): it is tombstoned
    /// — no lookup offers it again — and every link at it is cut to zero
    /// bandwidth. Nothing is renumbered; failing it twice is refused.
    FailInstance {
        /// The instance that failed.
        instance: ServiceInstance,
    },
}

/// One client request, as carried on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Federate a service requirement and keep it as a live session.
    Federate {
        /// The requirement as a chain expression, e.g. `"0>1>3, 0>2>3"`
        /// (parsed by `ServiceRequirement::from_str`).
        requirement: String,
        /// Which algorithm to run.
        algorithm: Algorithm,
        /// Overlay-hop horizon for [`Algorithm::Sflow`] (`None` = full view).
        hop_limit: Option<usize>,
    },
    /// Mutate the world: bump the epoch, invalidate caches, repair sessions.
    Mutate(Mutation),
    /// Close a live session, releasing its bandwidth reservations.
    Release {
        /// The session id from the opening [`Response::Federated`].
        session: u64,
    },
    /// Run one rebalancer sweep now (the background thread, if enabled,
    /// runs the same sweep on its interval).
    Rebalance,
    /// Fetch the per-link load ledger: capacities, reservations, residuals.
    LoadMap,
    /// Fetch server counters and latency percentiles.
    Stats,
    /// Ask the server to stop accepting work and exit its loops.
    Shutdown,
}

/// The result of a successful federation, flattened for the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSummary {
    /// Server-assigned session id (stable across repairs).
    pub session: u64,
    /// Topology epoch the flow was solved against.
    pub epoch: u64,
    /// Bottleneck bandwidth of the flow, kbit/s.
    pub bandwidth_kbps: u64,
    /// End-to-end latency of the flow, microseconds.
    pub latency_us: u64,
    /// The selected instance for every required service.
    pub instances: BTreeMap<ServiceId, ServiceInstance>,
}

/// One link's row in the load ledger, as carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkLoad {
    /// Upstream endpoint of the service link.
    pub from: ServiceInstance,
    /// Downstream endpoint of the service link.
    pub to: ServiceInstance,
    /// Raw link capacity, kbit/s (`u64::MAX` = unconstrained).
    pub capacity_kbps: u64,
    /// Bandwidth reserved by live sessions, kbit/s.
    pub reserved_kbps: u64,
    /// What remains free: `capacity − reserved`, floored at zero.
    pub residual_kbps: u64,
    /// `reserved · 1000 / capacity` (0 for unconstrained links).
    pub utilization_permille: u64,
}

/// The load plane's state, flattened for the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadMapSummary {
    /// The topology epoch the ledger indexes into.
    pub epoch: u64,
    /// Publication counter within the epoch.
    pub version: u64,
    /// The worst per-link utilization, permille.
    pub max_utilization_permille: u64,
    /// Every link with a live reservation, in stable link-id order.
    pub links: Vec<LinkLoad>,
}

/// The envelope every request travels in: a client-assigned id plus the
/// request itself.
///
/// One connection may carry many requests in flight at once (pipelining);
/// responses come back tagged with the same id and **may arrive out of
/// order** — a fast `Stats` behind a slow `Federate` overtakes it. Ids are
/// chosen by the client and only need to be unique among that connection's
/// in-flight requests; the server echoes them without interpretation.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// Client-assigned correlation id, echoed on the response.
    pub request_id: u64,
    /// The request itself.
    pub request: Request,
}

/// The envelope every response travels in: the originating request's id plus
/// the response itself. See [`RequestFrame`] for the ordering contract.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseFrame {
    /// The `request_id` of the [`RequestFrame`] this answers.
    pub request_id: u64,
    /// The response itself.
    pub response: Response,
}

/// One server response, as carried on the wire.
// `Stats` outgrows the other variants by a counter row at a time. Clients
// (the benchmark package among them) match it by value, and a response is
// moved a few times per request, never stored in bulk: boxing it would buy
// nothing and break every one of those matches.
#[expect(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The federation succeeded.
    Federated(FlowSummary),
    /// The mutation was applied; sessions were repaired or dropped.
    Mutated {
        /// The new topology epoch.
        epoch: u64,
        /// Sessions successfully re-federated over the mutated world.
        repaired: usize,
        /// Sessions that no longer fit and were closed.
        dropped: usize,
    },
    /// The solve completed, but a mutation published a newer epoch before
    /// the session could be opened. The answer's quality and bookings were
    /// priced on an epoch that is gone (a link it uses may have changed, an
    /// instance it selects may have failed); the client should re-issue the
    /// federate against the current epoch.
    Stale {
        /// The epoch the discarded answer was solved against.
        solved_epoch: u64,
        /// The epoch published by the time the session would have opened.
        current_epoch: u64,
    },
    /// The session was closed and its reservations released.
    Released {
        /// The closed session's id.
        session: u64,
    },
    /// One rebalancer sweep completed.
    Rebalanced {
        /// Sessions migrated to cheaper paths this sweep.
        migrations: usize,
        /// Movers that failed to re-solve or did not improve the world.
        migration_failures: usize,
        /// The worst per-link utilization after the sweep, permille.
        max_utilization_permille: u64,
    },
    /// The per-link load ledger.
    LoadMap(LoadMapSummary),
    /// Server counters.
    Stats(StatsSnapshot),
    /// The admission queue was full; the request was shed, not queued.
    Overloaded,
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
    /// The request was admitted but could not be served (parse error,
    /// unsatisfiable requirement, unknown instance, …).
    Error(String),
}
