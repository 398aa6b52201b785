//! Loopback integration tests: the acceptance criteria of the server
//! subsystem, exercised over real TCP.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow_core::fixtures::{diamond_fixture, diamond_requirement, random_fixture};
use sflow_core::{FlowGraph, Selection, ServiceRequirement};
use sflow_net::ServiceId;
use sflow_server::load::links_of;
use sflow_server::wire::{encode_frame, read_frame};
use sflow_server::{
    serve, Algorithm, Client, FlowSummary, LinkId, LinkLoad, LoadMap, Mutation, PipelinedClient,
    Request, RequestFrame, Response, ServerConfig, WireError, World,
};

const DIAMOND_SPEC: &str = "0>1>3, 0>2>3";
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 30; // 4 × 30 = 120 ≥ 100

/// ≥ 100 federations from ≥ 4 concurrent clients, every response equal to
/// the centralized result; solve-cache hits accumulate and every tenant
/// shares one forest (so 120 identical sessions fit residual capacity as a
/// single booking); a mutation bumps the epoch and invalidates the cache.
#[test]
fn concurrent_clients_match_the_centralized_result() {
    let fixture = diamond_fixture();
    let expected = SflowAlgorithm::default()
        .federate(&fixture.context(), &diamond_requirement())
        .unwrap();
    let expected_kbps = expected.quality().bandwidth.as_kbps();
    assert_eq!(expected_kbps, 80, "diamond fixture sanity");

    // Residual routing ON (the default): forest sharing reserves the
    // shared links once, however many tenants attach, so the whole herd
    // fits capacity that a booking per session would blow through.
    let config = ServerConfig::default();
    let handle = serve(World::new(fixture), &config).unwrap();
    let addr = handle.addr();

    // Pre-warm: one cold solve fills the requirement-keyed cache and
    // founds the forest; every concurrent request below is then a
    // deterministic warm hit on the same shared flow.
    let mut warmer = Client::connect(addr).unwrap();
    match warmer
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, expected_kbps),
        other => panic!("expected Federated, got {other:?}"),
    }

    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..REQUESTS_PER_CLIENT {
                    match client
                        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
                        .unwrap()
                    {
                        Response::Federated(summary) => {
                            assert_eq!(summary.bandwidth_kbps, expected_kbps);
                            assert_eq!(summary.epoch, 0);
                            assert_eq!(summary.instances.len(), 4);
                        }
                        other => panic!("expected Federated, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let total = (CLIENTS * REQUESTS_PER_CLIENT + 1) as u64; // + the pre-warm
    assert_eq!(stats.served, total);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.epoch, 0);
    assert_eq!(stats.sessions, total);
    assert_eq!(
        stats.cache_misses, 1,
        "only the pre-warm solve is cold: {stats:?}"
    );
    assert_eq!(stats.cache_hits, total - 1, "every repeat is a warm hit");
    assert_eq!(stats.cache_revalidation_fails, 0);
    // The hop matrix was consulted exactly once — warm hits never solve.
    assert_eq!(stats.hop_cache_misses, 1, "{stats:?}");
    assert_eq!(stats.hop_cache_hits, 0, "{stats:?}");
    // Every tenant shares the one forest (and the one booking).
    assert_eq!(stats.forests, 1, "{stats:?}");
    assert_eq!(stats.forest_tenants, total, "{stats:?}");
    assert!(stats.latency_p50_us <= stats.latency_p99_us);

    // Solve a second key at epoch 0 and release it, so no booking holds it
    // when the mutation lands and the repair has nothing to file for it.
    let released_key = match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(3))
        .unwrap()
    {
        Response::Federated(summary) => summary.session,
        other => panic!("expected Federated, got {other:?}"),
    };
    assert!(matches!(
        client.release(released_key).unwrap(),
        Response::Released { .. }
    ));

    // Mutate: fail an instance the sessions route through. The epoch bumps,
    // the hop-matrix cache invalidates, and sessions are repaired.
    let world_probe = diamond_fixture();
    let victim = *expected
        .instances()
        .values()
        .find(|i| **i != world_probe.overlay.instance(world_probe.source))
        .unwrap();
    match client
        .mutate(Mutation::FailInstance { instance: victim })
        .unwrap()
    {
        Response::Mutated {
            epoch,
            repaired,
            dropped,
        } => {
            assert_eq!(epoch, 1);
            assert_eq!(
                repaired + dropped,
                CLIENTS * REQUESTS_PER_CLIENT + 1,
                "every session is accounted for"
            );
        }
        other => panic!("expected Mutated, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 1, "mutation must bump the epoch");

    // The repair filed the forest's flow under its key at the new epoch, so
    // one more federate of the key attaches to it: a hit, no second forest.
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.epoch, 1),
        other => panic!("expected Federated after mutation, got {other:?}"),
    }
    let attached = client.stats().unwrap();
    assert_eq!(attached.cache_hits, stats.cache_hits + 1, "{attached:?}");
    assert_eq!(attached.forests, 1, "{attached:?}");

    // Drain everyone: the herd, then the attach (the released key's session
    // sits between them). Session ids are sequential; a session the repair
    // sweep dropped answers an error.
    for id in (0..total).chain([released_key + 1]) {
        let _ = client.release(id).unwrap();
    }
    let ledger = client.load_map().unwrap();
    assert!(ledger.links.is_empty(), "no leaked reservation: {ledger:?}");

    // A failure starts a new epoch: no solve and no hop matrix of epoch 0
    // carries over (the failed instance may have been a relay). The key solved and released at epoch
    // 0 had no booking for the repair to file, so it solves cold.
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(3))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.epoch, 1),
        other => panic!("expected Federated after mutation, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache_misses,
        attached.cache_misses + 1,
        "a structural epoch must invalidate the solve cache"
    );
    assert_eq!(stats.hop_cache_misses, 2, "and the hop-matrix cache");

    handle.shutdown();
}

/// A QoS-only mutation goes down the incremental patch path: the rebuild
/// counters record it, and the structural hop-matrix cache stays warm
/// (retagged to the new epoch) — only an instance failure clears it. The
/// solve cache is stricter: a new epoch's starts empty and only a live
/// booking's repair refiles a key, so with the session released the next
/// federate is a solve-cache miss even though the hop matrix hits.
#[test]
fn qos_mutations_patch_and_keep_the_hop_cache_warm() {
    // Residual routing ON (the default): each session is released before
    // the next mutation, so booked load never constrains the next solve.
    // Every row read before serving, so the patch below has trees to keep.
    let fixture = diamond_fixture();
    for u in fixture.overlay.graph().node_ids() {
        fixture.all_pairs.tree(u);
    }
    assert_eq!(fixture.all_pairs.materialised(), fixture.all_pairs.len());
    let handle = serve(World::new(fixture), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Prime both caches.
    let first = match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => summary,
        other => panic!("expected Federated, got {other:?}"),
    };
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.hop_cache_misses, 1);
    assert_eq!(stats.rebuilds, 0);
    match client.release(first.session).unwrap() {
        Response::Released { .. } => {}
        other => panic!("expected Released, got {other:?}"),
    }

    // Find a real overlay link via a probe fixture (same topology).
    let probe = diamond_fixture();
    let link = probe
        .overlay
        .graph()
        .out_edges(probe.source)
        .next()
        .unwrap();
    let from = probe.overlay.instance(link.from);
    let to = probe.overlay.instance(link.to);
    match client
        .mutate(Mutation::SetLinkQos {
            from,
            to,
            bandwidth_kbps: 500,
            latency_us: 1,
        })
        .unwrap()
    {
        Response::Mutated { epoch, .. } => assert_eq!(epoch, 1),
        other => panic!("expected Mutated, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.rebuilds, 1, "the patch must be recorded: {stats:?}");
    assert!(
        stats.trees_recomputed < 4,
        "a single-edge QoS change must not recompute every diamond tree: {stats:?}"
    );

    // The hop matrix is structural, so the QoS mutation must NOT cost a
    // rebuild: the cached matrix is retagged and the next solve hits. The
    // solve cache, by contrast, starts the epoch empty and no live booking
    // refiled the key, so the same federate is a solve-cache miss.
    let second = match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => {
            assert_eq!(summary.epoch, 1);
            summary
        }
        other => panic!("expected Federated, got {other:?}"),
    };
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.hop_cache_misses, 1,
        "retag must avoid a rebuild: {stats:?}"
    );
    assert_eq!(stats.hop_cache_hits, 1);
    assert_eq!(
        stats.cache_misses, 2,
        "a new epoch's solve cache starts empty: {stats:?}"
    );
    assert_eq!(stats.cache_hits, 0);
    match client.release(second.session).unwrap() {
        Response::Released { .. } => {}
        other => panic!("expected Released, got {other:?}"),
    }

    // An instance failure starts a new epoch; the cache must clear.
    let expected = SflowAlgorithm::default()
        .federate(&probe.context(), &diamond_requirement())
        .unwrap();
    let victim = *expected
        .instances()
        .values()
        .find(|i| **i != probe.overlay.instance(probe.source))
        .unwrap();
    match client
        .mutate(Mutation::FailInstance { instance: victim })
        .unwrap()
    {
        Response::Mutated { epoch, .. } => assert_eq!(epoch, 2),
        other => panic!("expected Mutated, got {other:?}"),
    }
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.epoch, 2),
        other => panic!("expected Federated, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.hop_cache_misses, 2,
        "structural mutations must clear the hop cache: {stats:?}"
    );
    assert_eq!(stats.cache_misses, 3, "and the solve cache");
    assert_eq!(stats.rebuilds, 2);
    assert!(stats.rebuild_us_total > 0);

    handle.shutdown();
}

/// A repeat trace over three requirements with every session held open,
/// under the default config (residual admission on). The first touch of a
/// key founds its forest; every repeat is a solve-cache hit that attaches
/// to it and books nothing, so `LoadMap` reads the same before and after —
/// and the server's counters agree exactly with the client's own cold /
/// warm split.
#[test]
fn a_repeat_trace_founds_one_forest_per_requirement_and_attaches_the_rest() {
    const MENU: [&str; 3] = ["0>1>2", "0>2>3", "0>3>4"];
    const TRACE: [usize; 12] = [0, 1, 0, 2, 0, 0, 1, 2, 0, 1, 0, 0];
    // 15 instances over 24 hosts: every founding crosses real links, so it
    // shows in the ledger.
    let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let fixture = random_fixture(24, &services, 3, None, 1);
    let handle = serve(World::new(fixture), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut seen = [false; MENU.len()];
    for pick in TRACE {
        let before = client.load_map().unwrap();
        match client.federate(MENU[pick], Algorithm::Sflow, None).unwrap() {
            Response::Federated(_) => {}
            other => panic!("{}: expected Federated, got {other:?}", MENU[pick]),
        }
        let after = client.load_map().unwrap();
        if seen[pick] {
            assert_eq!(after, before, "an attach books nothing");
        } else {
            assert_ne!(after.links, before.links, "a founding books its flow");
        }
        seen[pick] = true;
    }

    let requests = TRACE.len() as u64;
    let distinct = seen.iter().filter(|&&s| s).count() as u64;
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits),
        (distinct, requests - distinct),
        "cold = first touches, every repeat a hit: {stats:?}"
    );
    assert_eq!(stats.cache_revalidation_fails, 0);
    assert_eq!(
        (stats.forests, stats.forest_tenants, stats.sessions),
        (distinct, requests, requests),
        "one forest per requirement, every tenant attached and open: {stats:?}"
    );
    handle.shutdown();
}

/// A full admission queue sheds with an explicit `Overloaded` — no hangs,
/// no panics — while at least one admitted request completes.
///
/// One client stages a burst of cold federates and flushes once, so the
/// reactor decodes the whole burst from one read and offers the frames to
/// the one-slot queue back to back, far faster than the single worker can
/// solve them: the first frame is always admitted (the queue is empty), the
/// ones arriving while the worker is inside a solve are shed.
#[test]
fn full_admission_queue_sheds_explicitly() {
    const BURST: usize = 64;
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        // Blind routing: every admitted federate founds its own forest, and
        // residual booking would turn later ones into rejections.
        residual: false,
        ..ServerConfig::default()
    };
    let handle = serve(World::new(diamond_fixture()), &config).unwrap();
    let mut pipe = PipelinedClient::connect(handle.addr()).unwrap();

    // The hop limit is part of the solve key: every frame is a distinct-key
    // cold solve, none a cache hit.
    for hops in 1..=BURST {
        pipe.send(&Request::Federate {
            requirement: DIAMOND_SPEC.to_owned(),
            algorithm: Algorithm::Sflow,
            hop_limit: Some(hops),
        })
        .unwrap();
    }
    pipe.flush().unwrap();

    let (mut served, mut shed) = (0u64, 0u64);
    let mut seen = [false; BURST + 1];
    for _ in 0..BURST {
        let frame = pipe.recv_any().unwrap();
        let id = frame.request_id as usize;
        assert!((1..=BURST).contains(&id), "unexpected id {id}");
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
        match frame.response {
            Response::Federated(_) => served += 1,
            Response::Overloaded => shed += 1,
            other => panic!("unexpected response under overload: {other:?}"),
        }
    }
    assert_eq!(pipe.in_flight(), 0);
    assert!(served >= 1, "admitted requests must still complete");
    assert!(shed >= 1, "a full queue must shed explicitly");

    // Stats stays answerable and reconciles with what the client saw.
    let stats = Client::connect(handle.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.served, served);
    assert_eq!(stats.frames_in_flight, 0, "{stats:?}");

    handle.shutdown();
}

/// The load plane over the wire: residual admission, the load-map ledger,
/// release, and an on-demand rebalancer sweep — the full session lifecycle
/// with reservations conserved at every step.
#[test]
fn the_load_plane_round_trips_over_the_wire() {
    // Default config: residual routing on, rebalance on demand.
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // An empty server has an empty ledger.
    let ledger = client.load_map().unwrap();
    assert_eq!(ledger.epoch, 0);
    assert_eq!(ledger.max_utilization_permille, 0);
    assert!(ledger.links.is_empty());

    // The first session books its path.
    let first = match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => summary,
        other => panic!("expected Federated, got {other:?}"),
    };
    assert_eq!(first.bandwidth_kbps, 80);
    let ledger = client.load_map().unwrap();
    assert!(!ledger.links.is_empty());
    assert!(ledger.max_utilization_permille >= 800, "{ledger:?}");
    for link in &ledger.links {
        assert_eq!(
            link.residual_kbps,
            link.capacity_kbps.saturating_sub(link.reserved_kbps),
            "{link:?}"
        );
    }

    // A second, *distinct* requirement (an identical one would share the
    // first session's forest and booking) must fit into what the first
    // left free — residual admission at work on the default path.
    let second = match client.federate("0>1>3", Algorithm::Sflow, Some(2)).unwrap() {
        Response::Federated(summary) => summary,
        other => panic!("expected Federated, got {other:?}"),
    };
    assert!(second.bandwidth_kbps < first.bandwidth_kbps);
    assert_ne!(first.instances, second.instances);

    // A sweep over a world with no better placement changes nothing
    // catastrophic and reports the utilization it saw.
    match client.rebalance().unwrap() {
        Response::Rebalanced {
            max_utilization_permille,
            ..
        } => assert!(max_utilization_permille > 0),
        other => panic!("expected Rebalanced, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions, 2);
    assert!(stats.max_link_utilization_permille > 0);
    // Each requirement founded a (single-tenant) forest of its own.
    assert_eq!(stats.forests, 2, "{stats:?}");
    assert_eq!(stats.forest_tenants, 2, "{stats:?}");

    // Releasing both sessions drains the ledger completely.
    for summary in [&first, &second] {
        match client.release(summary.session).unwrap() {
            Response::Released { session } => assert_eq!(session, summary.session),
            other => panic!("expected Released, got {other:?}"),
        }
    }
    let ledger = client.load_map().unwrap();
    assert!(ledger.links.is_empty(), "no leaked reservation: {ledger:?}");
    assert_eq!(ledger.max_utilization_permille, 0);
    // Releasing an unknown session is an error, not a crash.
    match client.release(first.session).unwrap() {
        Response::Error(msg) => assert!(msg.contains("no such session"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // With everything released, a repeat federate gets the wide route back
    // — served warm: the cached epoch-0 flow revalidates against the now
    // empty plane (its forest is gone, so the full reservation re-books).
    let hits_before = client.stats().unwrap().cache_hits;
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache_hits,
        hits_before + 1,
        "a released world revalidates the cached flow: {stats:?}"
    );
    assert_eq!(stats.cache_revalidation_fails, 0);

    handle.shutdown();
}

/// A `Release` that lands while a repair sweep is in flight is answered
/// like any other: the sweep never takes the session table away, so four
/// clients draining 64 held sessions (three keys, so bookings lose tenants
/// one by one and dissolve at last-out) while a fifth keeps flipping the QoS
/// of a booked link see `Released` every time — and nothing a sweep commits
/// brings a released session or its reservation back.
#[test]
fn releases_racing_repair_sweeps_are_all_answered() {
    const HELD: usize = 64;
    const RELEASERS: usize = 4;
    let config = ServerConfig {
        workers: 4,
        // Blind: all three keys found on the wide route, whatever the others
        // booked — admission is not what this test is about.
        residual: false,
        ..ServerConfig::default()
    };
    let handle = serve(World::new(diamond_fixture()), &config).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let held: Vec<u64> = (0..HELD)
        .map(|i| {
            let hop_limit = [None, Some(2), Some(3)][i % 3];
            match client
                .federate(DIAMOND_SPEC, Algorithm::Sflow, hop_limit)
                .unwrap()
            {
                Response::Federated(summary) => summary.session,
                other => panic!("expected Federated, got {other:?}"),
            }
        })
        .collect();
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.sessions, stats.forests),
        (HELD as u64, 3),
        "{stats:?}"
    );
    let booked = client.load_map().unwrap().links[0];

    let draining = AtomicBool::new(true);
    thread::scope(|scope| {
        let mutator = scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            let mut sweeps = 0u64;
            while draining.load(Ordering::SeqCst) || sweeps < 2 {
                let flip = booked.capacity_kbps - sweeps % 2;
                match client
                    .mutate(Mutation::SetLinkQos {
                        from: booked.from,
                        to: booked.to,
                        bandwidth_kbps: flip,
                        latency_us: 10,
                    })
                    .unwrap()
                {
                    Response::Mutated { dropped: 0, .. } => sweeps += 1,
                    other => panic!("expected Mutated with nothing dropped, got {other:?}"),
                }
            }
            sweeps
        });
        // Each releaser reports the answers that were not `Released`, and
        // the mutator is stopped before anything is asserted — a failure
        // must fail, not hang the scope on a loop nobody ends.
        let releasers: Vec<_> = held
            .chunks(HELD / RELEASERS)
            .map(|mine| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let answer = |&session| client.release(session).unwrap();
                    let lost = |answer: &Response| !matches!(answer, Response::Released { .. });
                    mine.iter().map(answer).filter(lost).collect::<Vec<_>>()
                })
            })
            .collect();
        let lost: Vec<_> = releasers.into_iter().map(|r| r.join()).collect();
        draining.store(false, Ordering::SeqCst);
        let sweeps = mutator.join().unwrap();
        let lost: Vec<Response> = lost.into_iter().flat_map(Result::unwrap).collect();
        assert!(lost.is_empty(), "lost to {sweeps} sweeps: {lost:?}");
        assert!(sweeps >= 2);
    });

    let stats = client.stats().unwrap();
    assert_eq!(
        (
            stats.sessions,
            stats.forests,
            stats.forest_tenants,
            stats.failed
        ),
        (0, 0, 0, 0),
        "{stats:?}"
    );
    let ledger = client.load_map().unwrap();
    assert!(
        ledger.links.is_empty(),
        "no resurrected reservation: {ledger:?}"
    );
    handle.shutdown();
}

/// Federates `spec` and returns the summary, panicking on anything else.
fn federated(client: &mut Client, spec: &str) -> FlowSummary {
    match client.federate(spec, Algorithm::Sflow, None).unwrap() {
        Response::Federated(summary) => summary,
        other => panic!("{spec}: expected Federated, got {other:?}"),
    }
}

/// A `SetLinkQos` giving the service link `from → to` of `world`'s current
/// epoch `bandwidth_kbps`, at its current latency.
fn set_bandwidth(world: &World, link: &LinkLoad, bandwidth_kbps: u64) -> Mutation {
    let snapshot = world.snapshot();
    let overlay = snapshot.overlay();
    let edge = overlay
        .graph()
        .find_edge(
            overlay.node_of(link.from).unwrap(),
            overlay.node_of(link.to).unwrap(),
        )
        .unwrap();
    Mutation::SetLinkQos {
        from: link.from,
        to: link.to,
        bandwidth_kbps,
        latency_us: overlay.graph().edge(edge).latency.as_micros(),
    }
}

/// A forest keeps its key across a mutation: two tenants of one key, a
/// link their flow uses halved, and the third federate of the key is a
/// cache hit that attaches to the repaired forest. It neither founds a
/// duplicate next to it nor is rejected for the capacity the forest itself
/// reserves.
#[test]
fn a_tenant_attaches_to_its_forest_after_a_mutation() {
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    federated(&mut client, DIAMOND_SPEC);
    federated(&mut client, DIAMOND_SPEC);
    let world = World::new(diamond_fixture());
    let booked = client.load_map().unwrap().links[0];
    let halve = set_bandwidth(&world, &booked, booked.capacity_kbps / 2);
    match client.mutate(halve).unwrap() {
        Response::Mutated {
            epoch: 1,
            repaired: 2,
            dropped: 0,
        } => {}
        other => panic!("expected both tenants repaired at epoch 1, got {other:?}"),
    }
    let before = client.stats().unwrap();
    let ledger = client.load_map().unwrap().links;

    assert_eq!(federated(&mut client, DIAMOND_SPEC).epoch, 1);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, before.cache_hits + 1, "{stats:?}");
    assert_eq!(stats.cache_misses, before.cache_misses, "{stats:?}");
    assert_eq!(
        (stats.forests, stats.forest_tenants, stats.residual_rejects),
        (1, 3, 0),
        "{stats:?}"
    );
    assert_eq!(
        client.load_map().unwrap().links,
        ledger,
        "an attach books nothing"
    );
    handle.shutdown();
}

/// The `churn-repair` shape in miniature: 8 keys × 4 tenants stay live
/// while the most-reserved link is halved, then restored, and after each
/// mutation every key is federated once more. Each of those is a cache hit
/// that attaches to the key's repaired forest, so `forests` stays 8, and
/// the ledger is exactly what the 8 repaired forests reserve: a repair
/// re-solves each forest pinned to its instances against the raw overlay,
/// so a mirror world that applies the same mutation rebuilds every flow
/// from the instances the attach reports.
#[test]
fn forests_keep_their_tenants_across_a_halve_and_a_restore() {
    const MENU: [&str; 8] = [
        "0>1>2", "0>2>3", "0>3>4", "0>1>3", "0>2>4", "0>1>4", "0>4>2", "0>3>1",
    ];
    let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let fixture = || random_fixture(24, &services, 3, None, 1);
    let handle = serve(World::new(fixture()), &ServerConfig::default()).unwrap();
    let mut mirror = World::new(fixture());
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..4 {
        for spec in MENU {
            federated(&mut client, spec);
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!((stats.forests, stats.forest_tenants), (8, 32), "{stats:?}");
    let hot = *client
        .load_map()
        .unwrap()
        .links
        .iter()
        .max_by_key(|link| link.reserved_kbps)
        .unwrap();

    let mut tenants = 32;
    for bandwidth_kbps in [hot.capacity_kbps / 2, hot.capacity_kbps] {
        let mutation = set_bandwidth(&mirror, &hot, bandwidth_kbps);
        match client.mutate(mutation).unwrap() {
            Response::Mutated {
                repaired,
                dropped: 0,
                ..
            } => assert_eq!(repaired, tenants),
            other => panic!("expected every tenant repaired, got {other:?}"),
        }
        mirror.apply(&mutation).unwrap();
        let before = client.stats().unwrap();

        let ctx = mirror.context();
        let mut reserved = Vec::new();
        for spec in MENU {
            let summary = federated(&mut client, spec);
            let requirement: ServiceRequirement = spec.parse().unwrap();
            let selection: Selection = summary
                .instances
                .iter()
                .map(|(&service, &instance)| (service, ctx.overlay().node_of(instance).unwrap()))
                .collect();
            let flow = FlowGraph::assemble(&ctx, &requirement, &selection).unwrap();
            assert_eq!(flow.quality().bandwidth.as_kbps(), summary.bandwidth_kbps);
            reserved.extend(links_of(&flow, ctx.overlay()));
        }
        tenants += MENU.len();

        let stats = client.stats().unwrap();
        assert_eq!(
            (
                stats.cache_hits - before.cache_hits,
                stats.cache_misses - before.cache_misses,
                stats.cache_revalidation_fails - before.cache_revalidation_fails,
            ),
            (8, 0, 0),
            "every federate after the mutation is a hit: {stats:?}"
        );
        assert_eq!(
            (stats.forests, stats.forest_tenants, stats.residual_rejects),
            (8, tenants as u64, 0),
            "{stats:?}"
        );
        let expected = LoadMap::from_reservations(reserved);
        let ledger: Vec<(LinkId, u64)> = client
            .load_map()
            .unwrap()
            .links
            .iter()
            .map(|link| ((link.from, link.to), link.reserved_kbps))
            .collect();
        assert_eq!(ledger, expected.iter_reserved().collect::<Vec<_>>());
    }
    handle.shutdown();
}

/// The wire protocol answers errors rather than dying: bad requirements,
/// unknown instances, control requests, then a clean shutdown frame.
#[test]
fn errors_and_shutdown_over_the_wire() {
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    match client.federate("0>x", Algorithm::Sflow, None).unwrap() {
        Response::Error(msg) => assert!(msg.contains("bad requirement"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // Unsatisfiable over this overlay: service 9 has no instances.
    match client.federate("0>9", Algorithm::Sflow, None).unwrap() {
        Response::Error(_) => {}
        other => panic!("expected Error, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.served, 0);

    // Global and baseline algorithms serve over the same wire.
    for algorithm in [Algorithm::Global, Algorithm::Fixed, Algorithm::ServicePath] {
        match client.federate(DIAMOND_SPEC, algorithm, None).unwrap() {
            Response::Federated(summary) => assert!(summary.bandwidth_kbps > 0),
            other => panic!("{algorithm:?} failed: {other:?}"),
        }
    }

    assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown);
    handle.shutdown();

    // A request too large for one frame is rejected client-side.
    let huge = "0>1,".repeat(1 << 19);
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .request(&Request::Federate {
            requirement: huge,
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        })
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    handle.shutdown();
}

/// One request of every `Request` variant, in wire-tag order, each sent
/// through the `Client` method that sends it and answered with the variant
/// the server owes it. The `match` names every variant, so a new request
/// does not compile here until it has a client method and an expected
/// reply. The sample list is held to the codec as `wire_fuzz.rs`'s
/// `every_variant_round_trips` holds its own: sample `i` carries tag `i`,
/// and the decoder refuses tag `samples.len()`.
#[test]
fn every_request_variant_is_served_through_its_client_method() {
    let probe = diamond_fixture();
    let link = probe
        .overlay
        .graph()
        .out_edges(probe.source)
        .next()
        .unwrap();
    let samples = [
        Request::Federate {
            requirement: DIAMOND_SPEC.into(),
            algorithm: Algorithm::Sflow,
            hop_limit: Some(2),
        },
        Request::Mutate(Mutation::SetLinkQos {
            from: probe.overlay.instance(link.from),
            to: probe.overlay.instance(link.to),
            bandwidth_kbps: 500,
            latency_us: 1,
        }),
        Request::Release { session: 0 },
        Request::Rebalance,
        Request::LoadMap,
        Request::Stats,
        Request::Shutdown,
    ];
    for (tag, request) in samples.iter().enumerate() {
        let frame = RequestFrame {
            request_id: 0,
            request: request.clone(),
        };
        // A four-byte length prefix and a one-byte request id, then the tag.
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(usize::from(bytes[5]), tag, "{request:?}");
    }
    let unknown = [0, 0, 0, 2, 0, samples.len() as u8];
    let err = read_frame::<RequestFrame>(&mut &unknown[..]).unwrap_err();
    let refused = format!("unknown Request tag {}", samples.len());
    assert!(
        matches!(&err, WireError::Malformed(m) if m.contains(&refused)),
        "{err:?}"
    );

    let handle = serve(World::new(probe), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for request in samples {
        match request {
            Request::Federate {
                requirement,
                algorithm,
                hop_limit,
            } => {
                let reply = client.federate(&requirement, algorithm, hop_limit).unwrap();
                assert!(
                    matches!(&reply, Response::Federated(s) if s.session == 0),
                    "{reply:?}"
                );
            }
            Request::Mutate(mutation) => {
                let reply = client.mutate(mutation).unwrap();
                assert!(
                    matches!(
                        reply,
                        Response::Mutated {
                            epoch: 1,
                            dropped: 0,
                            ..
                        }
                    ),
                    "{reply:?}"
                );
            }
            Request::Release { session } => {
                let reply = client.release(session).unwrap();
                assert_eq!(reply, Response::Released { session });
            }
            Request::Rebalance => {
                let reply = client.rebalance().unwrap();
                assert!(matches!(reply, Response::Rebalanced { .. }), "{reply:?}");
            }
            Request::LoadMap => assert_eq!(client.load_map().unwrap().links, []),
            Request::Stats => {
                let stats = client.stats().unwrap();
                assert_eq!((stats.epoch, stats.served), (1, 1), "{stats:?}");
            }
            Request::Shutdown => assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown),
        }
    }
    handle.wait();
}
