//! `bench_load` — evidence emitter for the load plane.
//!
//! Replays a **hotspot trace** — a burst of identical `0>1>2` sessions over
//! a ladder world with `k` disjoint source→middle→sink routes of strictly
//! descending capacity — against two live servers. A hotspot means
//! *independent* sessions that happen to want the same thing, so both
//! servers run with `solve_cache: false`: with it on, identical requirements
//! attach to one shared forest and book its links once (max, not sum), and
//! there would be no hotspot to measure.
//!
//! * **blind** (`residual: false`): the pre-load-plane behaviour. Every
//!   solve sees raw capacities, so every session piles onto the widest
//!   route, oversubscribing it `n×` while the other routes idle.
//! * **residual** (`residual: true`, the default): each solve sees
//!   `capacity − reserved`, so sessions spread across the ladder in
//!   capacity order and the server starts rejecting (`residual_rejects`)
//!   exactly when nothing is free — admission control by routing.
//!
//! For each mode the report records the **aggregate realized bandwidth**
//! (each session's reservation scaled by its most oversubscribed link —
//! what the network can actually carry, which is where blind placement
//! loses) and the **max link utilization** from the server's own load
//! ledger. The acceptance gates assert the residual server is strictly
//! better on both columns.
//!
//! The blind server is then driven through on-demand rebalancer sweeps
//! until a sweep migrates nothing. The gates assert the sweep-to-sweep
//! max-utilization trajectory is non-increasing, that no session is ever
//! dropped, and that the wire-visible ledger stays conserved (reserved
//! totals match what the replayed sessions booked).
//!
//! Writes `BENCH_load.json` at the repository root. Pass `--max-nodes N`
//! to skip scenarios with more hosts than `N` (CI uses `--max-nodes 500`).

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout)]

use std::collections::BTreeMap;
use std::time::Instant;

use sflow_bench::{usize_flag, write_report};
use sflow_core::fixtures::Fixture;
use sflow_net::{
    Compatibility, HostId, OverlayGraph, Placement, ServiceId, ServiceInstance, UnderlyingNetwork,
};
use sflow_routing::{Bandwidth, Latency, Qos};
use sflow_server::{serve, Algorithm, Client, Response, ServerConfig, World};

/// The hotspot requirement: one chain through the ladder.
const SPEC: &str = "0>1>2";

/// Capacity of the widest rung, kbit/s; each next rung is `STEP` narrower.
const TOP_KBPS: u64 = 100;
const STEP_KBPS: u64 = 10;

/// A ladder world: `s0@h0 → s1@{h1..hk} → s2@h(k+1)`, route `i` carried by
/// two links of equal capacity `TOP − i·STEP`. Migration and placement are
/// purely about load — every route has the same shape.
fn ladder(routes: usize) -> (Fixture, BTreeMap<HostId, u64>) {
    assert!(routes >= 1 && (routes as u64) * STEP_KBPS < TOP_KBPS + STEP_KBPS);
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(routes + 2);
    let sink = h[routes + 1];
    let mut capacity = BTreeMap::new();
    for i in 0..routes {
        let kbps = TOP_KBPS - i as u64 * STEP_KBPS;
        let q = Qos::new(Bandwidth::kbps(kbps), Latency::from_micros(10));
        b.link(h[0], h[i + 1], q).link(h[i + 1], sink, q);
        capacity.insert(h[i + 1], kbps);
    }
    let net = b.build();
    let s: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
    let mut p = Placement::new();
    p.add(ServiceInstance::new(s[0], h[0]));
    for i in 0..routes {
        p.add(ServiceInstance::new(s[1], h[i + 1]));
    }
    p.add(ServiceInstance::new(s[2], sink));
    let compat = Compatibility::from_pairs([(s[0], s[1]), (s[1], s[2])]);
    let overlay = OverlayGraph::build(&net, &p, &compat).unwrap();
    (Fixture::new(net, overlay, s[0]), capacity)
}

/// One admitted session of the replay: which rung it landed on, at what
/// reservation.
struct Landed {
    middle: HostId,
    kbps: u64,
}

/// One mode's row of the report.
struct ModeReport {
    admitted: usize,
    rejected: usize,
    reserved_kbps_total: u64,
    realized_kbps: f64,
    max_utilization_permille: u64,
    replay_us: u128,
}

/// Replays `sessions` identical federates and reads the server's own load
/// ledger back. The ledger is cross-checked against the client-side replay
/// record — conservation, proved over the wire.
fn replay(
    fixture: Fixture,
    capacity: &BTreeMap<HostId, u64>,
    sessions: usize,
    residual: bool,
) -> ModeReport {
    let config = ServerConfig {
        residual,
        solve_cache: false, // independent sessions, see the module docs
        ..ServerConfig::default()
    };
    let handle = serve(World::new(fixture), &config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut landed: Vec<Landed> = Vec::new();
    let mut rejected = 0usize;
    let started = Instant::now();
    for _ in 0..sessions {
        match client.federate(SPEC, Algorithm::Sflow, None).unwrap() {
            Response::Federated(summary) => {
                let middle = summary.instances[&ServiceId::new(1)].host;
                landed.push(Landed {
                    middle,
                    kbps: summary.bandwidth_kbps,
                });
            }
            Response::Error(_) => rejected += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    let replay_us = started.elapsed().as_micros();

    // Aggregate realized bandwidth: each session delivers its reservation
    // scaled by its most oversubscribed link. Both links of a rung share
    // one capacity, so the rung total is the scale.
    let mut per_rung: BTreeMap<HostId, u64> = BTreeMap::new();
    for session in &landed {
        *per_rung.entry(session.middle).or_insert(0) += session.kbps;
    }
    let realized_kbps: f64 = landed
        .iter()
        .map(|s| {
            let total = per_rung[&s.middle];
            let cap = capacity[&s.middle];
            s.kbps as f64 * (cap as f64 / total as f64).min(1.0)
        })
        .sum();

    // The server's own ledger agrees with the replay record: every rung's
    // reserved bandwidth is exactly what its sessions booked (×2 links).
    let ledger = client.load_map().unwrap();
    let reserved_kbps_total: u64 = ledger.links.iter().map(|l| l.reserved_kbps).sum();
    assert_eq!(
        reserved_kbps_total,
        2 * landed.iter().map(|s| s.kbps).sum::<u64>(),
        "wire-visible ledger must conserve the replayed reservations"
    );
    for l in &ledger.links {
        let rung = if l.from.service == ServiceId::new(1) {
            l.from.host
        } else {
            l.to.host
        };
        assert_eq!(l.reserved_kbps, per_rung[&rung], "per-link conservation");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions as usize, landed.len());
    if residual {
        assert_eq!(stats.residual_rejects as usize, rejected);
    }

    let report = ModeReport {
        admitted: landed.len(),
        rejected,
        reserved_kbps_total,
        realized_kbps,
        max_utilization_permille: ledger.max_utilization_permille,
        replay_us,
    };
    handle.shutdown();
    report
}

/// Replays blind, then drives rebalancer sweeps to a fixed point. Returns
/// the blind row plus the sweep trajectory.
fn replay_blind_and_rebalance(
    fixture: Fixture,
    capacity: &BTreeMap<HostId, u64>,
    sessions: usize,
) -> (ModeReport, Vec<u64>, usize) {
    let config = ServerConfig {
        residual: false,
        solve_cache: false, // independent sessions, see the module docs
        ..ServerConfig::default()
    };
    let handle = serve(World::new(fixture), &config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..sessions {
        match client.federate(SPEC, Algorithm::Sflow, None).unwrap() {
            Response::Federated(_) => {}
            other => panic!("blind server must admit everything, got {other:?}"),
        }
    }
    let before = client.load_map().unwrap();
    let sessions_before = client.stats().unwrap().sessions;

    // Sweep to a fixed point: the trajectory starts at the pre-sweep
    // reading and must never climb.
    let mut trajectory = vec![before.max_utilization_permille];
    let mut migrations_total = 0usize;
    for _ in 0..32 {
        match client.rebalance().unwrap() {
            Response::Rebalanced {
                migrations,
                max_utilization_permille,
                ..
            } => {
                trajectory.push(max_utilization_permille);
                migrations_total += migrations;
                if migrations == 0 {
                    break;
                }
            }
            other => panic!("expected Rebalanced, got {other:?}"),
        }
    }
    for pair in trajectory.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "rebalancer must never raise the worst link: {trajectory:?}"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.sessions, sessions_before,
        "rebalancing must not drop a single session"
    );

    // A mover re-solves against residual capacity, so migrating onto a
    // narrower rung can shrink its reservation — but make-before-break must
    // never leave both the old and new booking behind. A double-counted
    // session would push the ledger total *above* the pre-sweep booking.
    let after = client.load_map().unwrap();
    assert!(
        after.links.iter().map(|l| l.reserved_kbps).sum::<u64>()
            <= before.links.iter().map(|l| l.reserved_kbps).sum::<u64>(),
        "a migration may shrink a reservation, never double-count one"
    );

    // The blind row reports the pre-sweep hotspot (that is the baseline);
    // realized bandwidth comes from the pre-sweep ledger.
    let realized_kbps: f64 = before
        .links
        .iter()
        .filter(|l| l.from.service == ServiceId::new(0)) // one link per rung
        .map(|l| {
            let cap = capacity[&l.to.host] as f64;
            (l.reserved_kbps as f64).min(cap)
        })
        .sum();
    let report = ModeReport {
        admitted: sessions,
        rejected: 0,
        reserved_kbps_total: before.links.iter().map(|l| l.reserved_kbps).sum(),
        realized_kbps,
        max_utilization_permille: before.max_utilization_permille,
        replay_us: 0,
    };
    handle.shutdown();
    (report, trajectory, migrations_total)
}

struct Scenario {
    name: &'static str,
    routes: usize,
    sessions: usize,
    blind: ModeReport,
    residual: ModeReport,
    trajectory: Vec<u64>,
    migrations_total: usize,
}

fn mode_json(m: &ModeReport) -> String {
    format!(
        "{{\"admitted\": {}, \"rejected\": {}, \"reserved_kbps_total\": {}, \
         \"aggregate_bandwidth_kbps\": {:.1}, \"max_utilization_permille\": {}, \
         \"replay_us\": {}}}",
        m.admitted,
        m.rejected,
        m.reserved_kbps_total,
        m.realized_kbps,
        m.max_utilization_permille,
        m.replay_us,
    )
}

fn scenario_json(s: &Scenario) -> String {
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"routes\": {},\n      \"hosts\": {},\n      \
         \"sessions\": {},\n      \"blind\": {},\n      \"residual\": {},\n      \
         \"rebalancer\": {{\"sweeps\": {}, \"migrations\": {}, \
         \"utilization_trajectory_permille\": {:?}, \"dropped_sessions\": 0}}\n    }}",
        s.name,
        s.routes,
        s.routes + 2,
        s.sessions,
        mode_json(&s.blind),
        mode_json(&s.residual),
        s.trajectory.len() - 1,
        s.migrations_total,
        s.trajectory,
    )
}

fn run(name: &'static str, routes: usize, sessions: usize) -> Scenario {
    let (fixture, capacity) = ladder(routes);
    let residual = replay(fixture.clone(), &capacity, sessions, true);
    let (blind, trajectory, migrations_total) =
        replay_blind_and_rebalance(fixture, &capacity, sessions);

    // The acceptance gates: residual-aware placement beats blind placement
    // on both headline columns, strictly.
    assert!(
        residual.realized_kbps > blind.realized_kbps,
        "{name}: residual must carry strictly more ({} vs {})",
        residual.realized_kbps,
        blind.realized_kbps,
    );
    assert!(
        residual.max_utilization_permille < blind.max_utilization_permille,
        "{name}: residual must keep the worst link strictly cooler ({} vs {})",
        residual.max_utilization_permille,
        blind.max_utilization_permille,
    );
    assert!(
        residual.max_utilization_permille <= 1000,
        "{name}: residual admission must never oversubscribe a link"
    );
    assert!(
        migrations_total > 0,
        "{name}: the hotspot must cause migrations"
    );

    Scenario {
        name,
        routes,
        sessions,
        blind,
        residual,
        trajectory,
        migrations_total,
    }
}

fn main() {
    let max_nodes = usize_flag("--max-nodes", usize::MAX);
    let mut scenarios = Vec::new();
    if max_nodes >= 6 {
        scenarios.push(run("ladder-4", 4, 6));
    }
    if max_nodes >= 10 {
        scenarios.push(run("ladder-8", 8, 10));
    }

    for s in &scenarios {
        println!(
            "{}: {} sessions over {} routes — blind {:.0} kbit/s realized at {}‰ worst link, \
             residual {:.0} kbit/s at {}‰ ({} rejected); rebalancer: {} migration(s), \
             trajectory {:?}",
            s.name,
            s.sessions,
            s.routes,
            s.blind.realized_kbps,
            s.blind.max_utilization_permille,
            s.residual.realized_kbps,
            s.residual.max_utilization_permille,
            s.residual.rejected,
            s.migrations_total,
            s.trajectory,
        );
    }

    let rows: Vec<String> = scenarios.iter().map(scenario_json).collect();
    let json = format!(
        "{{\n  \"generated_by\": \"bench_load\",\n  \"spec\": \"{SPEC}\",\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    println!("wrote {}", write_report("BENCH_load.json", &json));
}
