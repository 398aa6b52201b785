//! Threaded actor deployment of the distributed sFlow protocol.
//!
//! Where `sflow-sim` drives the `sfederate` state machine under a
//! deterministic discrete-event clock, this crate runs the *same*
//! [`sflow_sim::protocol::ProtocolNode`] under real concurrency: one actor
//! thread per overlay service instance, exchanging messages over crossbeam
//! channels through a router that performs termination detection by message
//! counting. This is the shape a production deployment of the algorithm
//! takes (an actor per service node), and it demonstrates that the protocol
//! logic is transport-independent.
//!
//! Actor results can differ from the simulator only in tie-breaking at
//! merging services (arrival order is scheduler-dependent); the assembled
//! flow graph is always a valid federation of the requirement.
//!
//! # Example
//!
//! ```
//! use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
//! use sflow_runtime::{run_actors, RuntimeConfig};
//!
//! let fx = diamond_fixture();
//! let ctx = fx.context();
//! let outcome = run_actors(&ctx, &diamond_requirement(), &RuntimeConfig::default())?;
//! assert_eq!(outcome.flow.selection().len(), 4);
//! # Ok::<(), sflow_core::FederationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use sflow_core::baseline::HopMatrix;
use sflow_core::{FederationContext, FederationError, FlowGraph, Selection, ServiceRequirement};
use sflow_graph::NodeIx;
use sflow_sim::protocol::{NodeCounters, Outbound, ProtocolNode, SfederateMessage, ViewModel};

/// Configuration for the actor runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Local-view horizon in overlay hops (`None` = full knowledge).
    pub hop_limit: Option<usize>,
    /// How limited knowledge is modelled (see [`ViewModel`]).
    pub view_model: ViewModel,
}

impl Default for RuntimeConfig {
    /// The paper's two-hop local views, under the hop-filter model.
    fn default() -> Self {
        RuntimeConfig {
            hop_limit: Some(2),
            view_model: ViewModel::HopFilter,
        }
    }
}

/// Counters for one actor-runtime federation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// `sfederate` messages routed between actors.
    pub messages: usize,
    /// Actors that participated (received at least one message).
    pub actors: usize,
    /// Total sFlow computations across actors.
    pub computations: usize,
    /// Selection conflicts observed at merging actors.
    pub conflicts: usize,
    /// Sink completions collected by the router.
    pub completed_sinks: usize,
    /// Wall-clock duration of the run, in microseconds.
    pub wall_us: u64,
}

/// The result of an actor-runtime federation.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// The assembled service flow graph.
    pub flow: FlowGraph,
    /// Runtime counters.
    pub stats: RuntimeStats,
}

/// Converts a [`Duration`] to whole microseconds, saturating at `u64::MAX`
/// (≈ 584 000 years — only reachable through clock pathology).
///
/// Shared by the actor runtime's wall-clock accounting and the federation
/// server's request-latency accounting.
pub fn duration_us(d: Duration) -> u64 {
    d.as_micros().try_into().unwrap_or(u64::MAX)
}

enum ToActor {
    Sfederate(SfederateMessage),
    Stop,
}

enum ToRouter {
    /// An actor finished processing one message: its outbound actions (or
    /// the error its local computation hit).
    Done {
        result: Result<Vec<Outbound>, FederationError>,
    },
    /// Final counters plus a participation flag, sent by each actor as it
    /// stops.
    Counters(NodeCounters, bool),
}

/// Runs the distributed protocol with one actor thread per overlay instance.
///
/// The initial `sfederate` is injected at the context's source instance; the
/// router performs termination detection by counting in-flight messages and
/// then assembles the flow graph from the sink fragments.
///
/// # Errors
///
/// Propagates the first [`FederationError`] raised by any actor's local
/// computation, or from final assembly.
pub fn run_actors(
    ctx: &FederationContext<'_>,
    req: &ServiceRequirement,
    config: &RuntimeConfig,
) -> Result<RuntimeOutcome, FederationError> {
    let start = Instant::now();
    let hop_matrix = config
        .hop_limit
        .map(|_| Arc::new(HopMatrix::new(ctx.overlay())));

    let overlay = ctx.overlay();
    let overlay_nodes: Vec<NodeIx> = overlay
        .graph()
        .node_ids()
        .filter(|&n| overlay.is_live(n))
        .collect();
    let (to_router, router_rx): (Sender<ToRouter>, Receiver<ToRouter>) = unbounded();

    let mut stats = RuntimeStats::default();
    let mut final_selection: Selection = BTreeMap::new();
    let mut first_error: Option<FederationError> = None;

    thread::scope(|scope| {
        // Spawn one actor per live overlay instance.
        let mut senders: HashMap<NodeIx, Sender<ToActor>> = HashMap::new();
        for &n in &overlay_nodes {
            let (tx, rx): (Sender<ToActor>, Receiver<ToActor>) = unbounded();
            senders.insert(n, tx);
            let to_router = to_router.clone();
            let hop_matrix = hop_matrix.clone();
            let hop_limit = config.hop_limit;
            let view_model = config.view_model;
            scope.spawn(move || {
                let mut node = ProtocolNode::with_view_model(n, hop_limit, hop_matrix, view_model);
                let mut participated = false;
                for cmd in rx {
                    match cmd {
                        ToActor::Sfederate(msg) => {
                            participated = true;
                            let result = node.on_sfederate(ctx, &msg);
                            if to_router.send(ToRouter::Done { result }).is_err() {
                                break;
                            }
                        }
                        ToActor::Stop => break,
                    }
                }
                let _ = to_router.send(ToRouter::Counters(node.counters(), participated));
            });
        }
        drop(to_router);

        // Inject the initial sfederate.
        let mut pending = 1usize;
        senders[&ctx.source_instance()]
            .send(ToActor::Sfederate(SfederateMessage {
                residual: Some(req.clone()),
                selection: BTreeMap::new(),
                hop: 0,
            }))
            .expect("source actor is alive");
        stats.messages += 1;

        // Route until quiescent.
        let mut stopping = false;
        let mut counters_pending = overlay_nodes.len();
        while counters_pending > 0 {
            let Ok(event) = router_rx.recv() else { break };
            match event {
                ToRouter::Done { result } => {
                    pending -= 1;
                    match result {
                        Ok(outputs) => {
                            for out in outputs {
                                match out {
                                    Outbound::Forward { to, msg } => {
                                        if !stopping {
                                            pending += 1;
                                            stats.messages += 1;
                                            let _ = senders[&to].send(ToActor::Sfederate(msg));
                                        }
                                    }
                                    Outbound::SinkCompleted { selection } => {
                                        stats.completed_sinks += 1;
                                        for (sid, n) in selection {
                                            final_selection.entry(sid).or_insert(n);
                                        }
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            if first_error.is_none() {
                                first_error = Some(e);
                            }
                            stopping = true;
                        }
                    }
                    if pending == 0 && !stopping {
                        stopping = true;
                    }
                    if stopping && pending == 0 {
                        for tx in senders.values() {
                            let _ = tx.send(ToActor::Stop);
                        }
                    }
                }
                ToRouter::Counters(c, participated) => {
                    counters_pending -= 1;
                    stats.computations += c.computations;
                    stats.conflicts += c.conflicts;
                    if participated {
                        stats.actors += 1;
                    }
                }
            }
            // If an error stopped us while messages were still in flight,
            // drain: tell everyone to stop once in-flight work is accounted.
            if stopping && pending == 0 && counters_pending > 0 {
                for tx in senders.values() {
                    let _ = tx.send(ToActor::Stop);
                }
            }
        }
    });

    stats.wall_us = duration_us(Instant::now().saturating_duration_since(start));

    if let Some(e) = first_error {
        return Err(e);
    }
    let flow = FlowGraph::assemble(ctx, req, &final_selection)?;
    Ok(RuntimeOutcome { flow, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
    use sflow_core::fixtures::{
        diamond_fixture, diamond_requirement, line_fixture, random_fixture,
    };
    use sflow_net::ServiceId;

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn line_requirement_completes() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let out = run_actors(&ctx, &req, &RuntimeConfig::default()).unwrap();
        assert_eq!(out.flow.selection().len(), 3);
        assert_eq!(out.stats.completed_sinks, 1);
        assert!(out.stats.actors >= 3);
        assert!(out.stats.messages >= 3);
    }

    #[test]
    fn diamond_matches_centralized_bandwidth() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let central = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let out = run_actors(&ctx, &req, &RuntimeConfig::default()).unwrap();
        assert_eq!(out.flow.bandwidth(), central.bandwidth());
        assert_eq!(out.stats.completed_sinks, 2);
    }

    #[test]
    fn agrees_with_event_simulation_on_random_worlds() {
        let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
        let req = ServiceRequirement::from_edges([
            (s(0), s(1)),
            (s(0), s(2)),
            (s(1), s(3)),
            (s(2), s(3)),
            (s(3), s(4)),
        ])
        .unwrap();
        for seed in [21u64, 34, 55] {
            let fx = random_fixture(20, &services, 3, None, seed);
            let ctx = fx.context();
            let sim =
                sflow_sim::run_distributed(&ctx, &req, &sflow_sim::SimConfig::default()).unwrap();
            let act = run_actors(&ctx, &req, &RuntimeConfig::default()).unwrap();
            // Arrival order can differ, but both must produce complete, valid
            // federations of equal bottleneck bandwidth (the deterministic
            // solver makes the same per-node choices).
            assert_eq!(act.flow.selection().len(), req.len());
            assert_eq!(act.flow.bandwidth(), sim.flow.bandwidth(), "seed {seed}");
        }
    }

    #[test]
    fn propagates_local_errors() {
        let fx = line_fixture();
        let ctx = fx.context();
        // s9 has no instances: the source actor's computation must fail and
        // the error must surface.
        let req = ServiceRequirement::path(&[s(0), s(9)]).unwrap();
        assert_eq!(
            run_actors(&ctx, &req, &RuntimeConfig::default()).unwrap_err(),
            FederationError::NoInstances(s(9))
        );
    }
}
