//! A failure is a cut: the tombstone lineage against the renumbering
//! rebuild.
//!
//! The server fails an instance by tombstoning it
//! ([`OverlayGraph::with_failed`]: the node stays, its links drop to zero
//! bandwidth) and patching the predecessor's routing table for that cut,
//! as it patches a link-QoS change. The reference is the rebuild it
//! replaced: [`OverlayGraph::without_instances`], which renumbers every
//! node and edge, and a fresh table. On random Waxman worlds — every
//! requirement kind, overlay caps none/1/2 — one to three failures are
//! interleaved with link-QoS changes on live links, and after every step
//! the two lineages must agree, node ids mapped across by instance
//! identity, on the QoS and path of every live pair, on every served
//! algorithm's answer (sFlow with no hop limit and limits 1 and 2, Global,
//! Fixed, ServicePath), on the repair of the flow booked so far and on
//! every hop distance. No answer may select a failed instance, and every
//! answer over the tombstone lineage audits clean.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, ServicePathAlgorithm,
};
use sflow_core::baseline::HopMatrix;
use sflow_core::fixtures::random_fixture_with;
use sflow_core::repair::{repair, RepairOutcome};
use sflow_core::{
    FederationContext, FederationError, FlowGraph, FlowGraphAuditor, FlowQuality,
    ServiceRequirement, Solver,
};
use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceId, ServiceInstance};
use sflow_routing::{AllPairs, Bandwidth, Latency, Qos};
use sflow_workload::generator::{random_requirement, RequirementKind};

const KINDS: [RequirementKind; 4] = [
    RequirementKind::Path,
    RequirementKind::DisjointPaths,
    RequirementKind::Tree,
    RequirementKind::Dag,
];

/// One epoch of a lineage: an overlay and the table that routes it.
struct Epoch {
    overlay: OverlayGraph,
    table: AllPairs,
}

impl Epoch {
    fn context(&self, source: ServiceInstance) -> FederationContext<'_> {
        let source = self.overlay.node_of(source).expect("the source is live");
        FederationContext::new(&self.overlay, &self.table, source)
    }

    /// The live nodes, in node order.
    fn live(&self) -> Vec<NodeIx> {
        let g = self.overlay.graph();
        g.node_ids().filter(|&n| self.overlay.is_live(n)).collect()
    }
}

/// A stream with its path spelled in instances, so two numberings compare.
type Stream = (ServiceId, ServiceId, Vec<ServiceInstance>, Qos);

/// A flow in instance identities: selection, streams, quality.
type Answer = (
    BTreeMap<ServiceId, ServiceInstance>,
    Vec<Stream>,
    FlowQuality,
);

fn answer(flow: &FlowGraph, overlay: &OverlayGraph) -> Answer {
    let streams = flow
        .edges()
        .iter()
        .map(|e| {
            let path = e.overlay_path.iter().map(|&n| overlay.instance(n));
            (e.from, e.to, path.collect(), e.qos)
        })
        .collect();
    (flow.instances().clone(), streams, flow.quality())
}

/// Every algorithm the server serves, each with the hop limits it reads.
fn solves(
    epoch: &Epoch,
    source: ServiceInstance,
    req: &ServiceRequirement,
) -> Vec<(String, Result<FlowGraph, FederationError>)> {
    let ctx = epoch.context(source);
    let matrix = Arc::new(HopMatrix::new(&epoch.overlay));
    let mut out = vec![("sflow".to_string(), Solver::new(&ctx).solve(req))];
    for limit in [1, 2] {
        let solver = Solver::new(&ctx).with_hop_matrix(limit, Arc::clone(&matrix));
        out.push((format!("sflow/{limit}"), solver.solve(req)));
    }
    out.push(("global".into(), GlobalOptimalAlgorithm.federate(&ctx, req)));
    out.push(("fixed".into(), FixedAlgorithm.federate(&ctx, req)));
    out.push((
        "service-path".into(),
        ServicePathAlgorithm.federate(&ctx, req),
    ));
    out
}

/// A repair's outcome in instance identities.
fn outcome(
    got: Result<RepairOutcome, FederationError>,
    overlay: &OverlayGraph,
) -> Option<(Answer, Vec<ServiceId>, Vec<ServiceId>, bool)> {
    got.ok().map(|o| {
        let flow = answer(&o.flow, overlay);
        (flow, o.reselected, o.preserved, o.full_refederation)
    })
}

/// Requires the tombstone lineage `tomb` to equal the rebuilt `rebuilt`,
/// node ids mapped by instance identity.
fn assert_lineages_agree(
    tomb: &Epoch,
    rebuilt: &Epoch,
    source: ServiceInstance,
    req: &ServiceRequirement,
    booked: &mut Option<(FlowGraph, FlowGraph)>,
    what: &str,
) {
    let (t, r) = (&tomb.overlay, &rebuilt.overlay);
    let to_rebuilt = |n: NodeIx| r.node_of(t.instance(n)).expect("a live node is rebuilt");
    let live = tomb.live();
    assert_eq!(live.len(), r.instance_count(), "{what}: live instances");
    assert_eq!(
        t.instance_count(),
        r.instance_count(),
        "{what}: instance_count"
    );
    assert_eq!(t.services(), r.services(), "{what}: services");

    // Every served algorithm, and no failed instance in any answer.
    let pairs = solves(tomb, source, req)
        .into_iter()
        .zip(solves(rebuilt, source, req));
    for ((name, got), (_, want)) in pairs {
        match (&got, &want) {
            (Err(_), Err(_)) => {}
            (Ok(g), Ok(w)) => {
                assert!(
                    g.selection().values().all(|&n| t.is_live(n)),
                    "{what}: {name} selected a failed instance"
                );
                let ctx = tomb.context(source);
                let report = FlowGraphAuditor::new(&ctx, req).audit(g);
                assert!(report.is_clean(), "{what}: {name}: {report}");
                assert_eq!(answer(g, t), answer(w, r), "{what}: {name}");
            }
            _ => panic!(
                "{what}: {name}: tombstone ok {}, rebuild ok {}",
                got.is_ok(),
                want.is_ok()
            ),
        }
    }

    // The repair of what was booked so far; each side keeps its own.
    if let Some((on_tomb, on_rebuilt)) = booked {
        let (ctx_t, ctx_r) = (tomb.context(source), rebuilt.context(source));
        let got = repair(&ctx_t, req, on_tomb);
        let want = repair(&ctx_r, req, on_rebuilt);
        if let (Ok(g), Ok(w)) = (&got, &want) {
            assert!(g.flow.selection().values().all(|&n| t.is_live(n)));
            *on_tomb = g.flow.clone();
            *on_rebuilt = w.flow.clone();
        }
        assert_eq!(outcome(got, t), outcome(want, r), "{what}: repair");
    }

    // Every live pair's QoS and path, and every hop distance.
    let (hops_t, hops_r) = (HopMatrix::new(t), HopMatrix::new(r));
    for n in t.graph().node_ids().filter(|&n| !t.is_live(n)) {
        for m in t.graph().node_ids() {
            assert_eq!(hops_t.hops(n, m), None, "{what}: a failed node has hops");
            assert_eq!(hops_t.hops(m, n), None, "{what}: a failed node has hops");
        }
    }
    for &u in &live {
        for &v in &live {
            let (ru, rv) = (to_rebuilt(u), to_rebuilt(v));
            let pair = format!("{what}: {} -> {}", t.instance(u), t.instance(v));
            assert_eq!(tomb.table.qos(u, v), rebuilt.table.qos(ru, rv), "{pair}");
            let path = tomb
                .table
                .path(u, v)
                .map(|p| p.into_iter().map(to_rebuilt).collect());
            assert_eq!(path, rebuilt.table.path(ru, rv), "{pair}");
            assert_eq!(hops_t.hops(u, v), hops_r.hops(ru, rv), "{pair}: hops");
        }
    }
}

/// A link's QoS cut to zero, halved, widened or re-timed.
fn changed(qos: Qos, rng: &mut StdRng) -> Qos {
    let (bw, lat) = (qos.bandwidth.as_kbps(), qos.latency.as_micros());
    let (bw, lat) = match rng.gen_range(0..4) {
        0 => (0, lat),
        1 => (bw / 2, lat),
        2 => (bw.saturating_mul(2), lat),
        _ => (bw, lat.saturating_mul(3).saturating_add(1)),
    };
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

proptest! {
    #[test]
    fn a_tombstone_failure_answers_as_the_rebuild(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let services: Vec<ServiceId> = (0..rng.gen_range(4..=6)).map(ServiceId::new).collect();
        let req = random_requirement(&services, KINDS[rng.gen_range(0..4)], &mut rng);
        let pairs = req.edges();
        let (hosts, per_service) = (rng.gen_range(12..=30), rng.gen_range(2..=3));
        let cap = [None, Some(1), Some(2)][rng.gen_range(0..3)];
        let fx = random_fixture_with(hosts, &services, per_service, Some(&pairs), seed, cap);
        let source = fx.overlay.instance(fx.source);
        let flow = Solver::new(&fx.context()).solve(&req).ok();
        let mut booked = flow.map(|flow| (flow.clone(), flow));
        let mut tomb = Epoch {
            overlay: fx.overlay.clone(),
            table: fx.all_pairs.clone(),
        };
        let mut rebuilt = Epoch {
            table: fx.overlay.all_pairs(),
            overlay: fx.overlay,
        };

        // One to three failures, each after zero to two QoS changes.
        for failure in 0..rng.gen_range(1..=3) {
            for _ in 0..rng.gen_range(0..=2) {
                let t = &tomb.overlay;
                let links: Vec<(NodeIx, NodeIx, Qos)> = t
                    .graph()
                    .edges()
                    .filter(|e| t.is_live(e.from) && t.is_live(e.to))
                    .map(|e| (e.from, e.to, *e.weight))
                    .collect();
                let Some(&(from, to, qos)) = links.get(rng.gen_range(0..links.len().max(1)))
                else {
                    continue;
                };
                let qos = changed(qos, &mut rng);
                let (a, b) = (t.instance(from), t.instance(to));
                let (overlay, change) = t.with_link_qos(from, to, qos).unwrap();
                let (table, _) = tomb.table.patched_with(overlay.graph(), &[change], 1);
                tomb = Epoch { overlay, table };
                let r = &rebuilt.overlay;
                let (from, to) = (r.node_of(a).unwrap(), r.node_of(b).unwrap());
                let (overlay, _) = r.with_link_qos(from, to, qos).unwrap();
                rebuilt = Epoch { table: overlay.all_pairs(), overlay };
                let what = format!("seed {seed}: {a}>{b} set to {qos}");
                assert_lineages_agree(&tomb, &rebuilt, source, &req, &mut booked, &what);
            }

            // Half the time the booked flow, if any, loses an instance.
            let t = &tomb.overlay;
            let selected: Vec<ServiceInstance> = booked
                .iter()
                .flat_map(|(flow, _)| flow.instances().values().copied())
                .collect();
            let everyone: Vec<ServiceInstance> =
                tomb.live().into_iter().map(|n| t.instance(n)).collect();
            let pool = if rng.gen_bool(0.5) { &selected } else { &everyone };
            let pool: Vec<ServiceInstance> = pool.iter().copied().filter(|&i| i != source).collect();
            let Some(&victim) = pool.get(rng.gen_range(0..pool.len().max(1))) else {
                continue;
            };
            let (overlay, cut) = t.with_failed(&[victim]);
            let (table, _) = tomb.table.patched_with(overlay.graph(), &cut, 1);
            tomb = Epoch { overlay, table };
            let overlay = rebuilt.overlay.without_instances(&[victim]);
            rebuilt = Epoch { table: overlay.all_pairs(), overlay };
            let what = format!("seed {seed}: failure {failure} of {victim}");
            assert_lineages_agree(&tomb, &rebuilt, source, &req, &mut booked, &what);
        }
    }
}
