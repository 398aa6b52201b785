//! The re-pricing repair against the repair it replaced.
//!
//! `sflow_core::repair` assembles a selection that survived a change whole
//! on the new routing table instead of re-solving it. [`reference`] is the
//! repair without that step: pin every survivor and re-solve, else solve
//! from scratch. On random Waxman worlds — every requirement kind, overlay
//! caps none/1/2 — and random changes — a used or an unused link cut to
//! zero, halved, widened or re-timed, a selected or an unselected instance
//! failed (a tombstone, its table patched for the cut as the server does)
//! — both must fail together or agree on every outcome field.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_core::fixtures::random_fixture_with;
use sflow_core::repair::{repair, RepairOutcome};
use sflow_core::{
    FederationContext, FederationError, FlowGraph, Selection, ServiceRequirement, Solver,
};
use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceId};
use sflow_routing::{AllPairs, Bandwidth, Latency, Qos};
use sflow_workload::generator::{random_requirement, RequirementKind};

const KINDS: [RequirementKind; 4] = [
    RequirementKind::Path,
    RequirementKind::DisjointPaths,
    RequirementKind::Tree,
    RequirementKind::Dag,
];

/// The repair before re-pricing: every surviving selection pinned and
/// re-solved, a full solve if that fails.
fn reference(
    ctx: &FederationContext<'_>,
    req: &ServiceRequirement,
    previous: &FlowGraph,
) -> Result<RepairOutcome, FederationError> {
    let overlay = ctx.overlay();
    let mut pins: Selection = BTreeMap::new();
    pins.insert(req.source(), ctx.source_instance());
    for (&sid, &inst) in previous.instances() {
        if sid == req.source() {
            continue;
        }
        if let Some(node) = overlay.node_of(inst) {
            pins.insert(sid, node);
        }
    }
    let solver = Solver::new(ctx);
    let (flow, full_refederation) = match solver.solve_pinned(req, &pins) {
        Ok(flow) => (flow, false),
        Err(_) => (solver.solve(req)?, true),
    };
    let mut reselected = Vec::new();
    let mut preserved = Vec::new();
    for (&sid, &inst) in flow.instances() {
        if previous.instances().get(&sid) == Some(&inst) {
            preserved.push(sid);
        } else {
            reselected.push(sid);
        }
    }
    Ok(RepairOutcome {
        flow,
        reselected,
        preserved,
        full_refederation,
    })
}

/// Repairs `previous` over `overlay` routed by `table` both ways and
/// requires the same answer.
fn assert_repairs_agree(
    overlay: &OverlayGraph,
    table: &AllPairs,
    source: NodeIx,
    req: &ServiceRequirement,
    previous: &FlowGraph,
    what: &str,
) {
    let ctx = FederationContext::new(overlay, table, source);
    match (repair(&ctx, req, previous), reference(&ctx, req, previous)) {
        (Err(_), Err(_)) => {}
        (Ok(got), Ok(want)) => {
            let flows = [&got.flow, &want.flow];
            let [g, w] = flows.map(|f| (f.selection(), f.instances(), f.edges(), f.quality()));
            assert_eq!(g, w, "{what}: the repaired flows differ");
            assert_eq!(got.reselected, want.reselected, "{what}: reselected");
            assert_eq!(got.preserved, want.preserved, "{what}: preserved");
            assert_eq!(
                got.full_refederation, want.full_refederation,
                "{what}: full_refederation"
            );
        }
        (got, want) => panic!(
            "{what}: one side failed — re-pricing ok: {}, reference ok: {}",
            got.is_ok(),
            want.is_ok()
        ),
    }
}

/// The four QoS changes a link sees: cut, halved, widened, re-timed.
fn changes(qos: Qos) -> [(&'static str, Qos); 4] {
    let (bw, lat) = (qos.bandwidth.as_kbps(), qos.latency.as_micros());
    let with = |bw: u64, lat: u64| Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat));
    [
        ("cut", with(0, lat)),
        ("halved", with(bw / 2, lat)),
        ("widened", with(bw.saturating_mul(2), lat)),
        (
            "re-timed",
            with(bw, lat.saturating_mul(3).saturating_add(1)),
        ),
    ]
}

/// A uniformly drawn item, `None` if there is none.
fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> Option<&'a T> {
    items.get(rng.gen_range(0..items.len().max(1)))
}

proptest! {
    #[test]
    fn repair_equals_the_pinned_resolve_it_replaced(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let services: Vec<ServiceId> = (0..rng.gen_range(4..=6)).map(ServiceId::new).collect();
        let req = random_requirement(&services, KINDS[rng.gen_range(0..4)], &mut rng);
        let pairs = req.edges();
        let (hosts, per_service) = (rng.gen_range(12..=40), rng.gen_range(2..=3));
        let cap = [None, Some(1), Some(2)][rng.gen_range(0..3)];
        let fx = random_fixture_with(hosts, &services, per_service, Some(&pairs), seed, cap);
        let ctx = fx.context();
        let Ok(flow) = Solver::new(&ctx).solve(&req) else {
            return Ok(());
        };
        let graph = fx.overlay.graph();

        // One used and one unused link, each under every change.
        let used: Vec<(NodeIx, NodeIx)> = flow
            .edges()
            .iter()
            .flat_map(|e| e.overlay_path.windows(2).map(|w| (w[0], w[1])))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let unused: Vec<(NodeIx, NodeIx)> = graph
            .edges()
            .map(|e| (e.from, e.to))
            .filter(|l| !used.contains(l))
            .collect();
        let picks = [("used", pick(&mut rng, &used)), ("unused", pick(&mut rng, &unused))];
        for (role, link) in picks {
            let Some(&(from, to)) = link else { continue };
            let qos = *graph.edge(graph.find_edge(from, to).unwrap());
            for (change, new) in changes(qos) {
                let (overlay, _) = fx.overlay.with_link_qos(from, to, new).unwrap();
                let what = format!("seed {seed}: {change} {role} link {from:?}>{to:?}");
                let table = overlay.all_pairs();
                assert_repairs_agree(&overlay, &table, fx.source, &req, &flow, &what);
            }
        }

        // One selected and one unselected instance failed.
        let (selected, others): (Vec<NodeIx>, Vec<NodeIx>) = graph
            .node_ids()
            .filter(|&n| n != fx.source)
            .partition(|n| flow.selection().values().any(|s| s == n));
        let victims = [
            ("selected", pick(&mut rng, &selected)),
            ("unselected", pick(&mut rng, &others)),
        ];
        for (role, victim) in victims {
            let Some(&victim) = victim else { continue };
            let (overlay, cut) = fx.overlay.with_failed(&[fx.overlay.instance(victim)]);
            let (table, _) = fx.all_pairs.patched_with(overlay.graph(), &cut, 1);
            let what = format!("seed {seed}: failed {role} instance {victim:?}");
            assert_repairs_agree(&overlay, &table, fx.source, &req, &flow, &what);
        }
    }
}
