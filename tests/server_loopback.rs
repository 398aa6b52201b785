//! The resident server over real TCP, in the tier-1 suite: one session
//! lifecycle on the default configuration, with the server's counters
//! reconciled exactly against what the client did, and a load map whose
//! rows are as short as the wire allows.

use sflow::core::fixtures::diamond_fixture;
use sflow::net::{HostId, ServiceId, ServiceInstance};
use sflow::server::{serve, Algorithm, Client, Mutation, Response, ServerConfig, World};

const DIAMOND_SPEC: &str = "0>1>3, 0>2>3";

fn federate(client: &mut Client) -> u64 {
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => {
            assert_eq!(summary.bandwidth_kbps, 80);
            assert_eq!(summary.epoch, 0);
            summary.session
        }
        other => panic!("expected Federated, got {other:?}"),
    }
}

#[test]
fn a_session_lifecycle_reconciles_with_the_server_counters() {
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Cold solve, then a cache hit attaching to the same forest: the second
    // tenant books nothing, so the ledger does not move.
    let first = federate(&mut client);
    let booked = client.load_map().unwrap();
    assert!(!booked.links.is_empty(), "the founder books its path");
    let second = federate(&mut client);
    assert_ne!(first, second);
    let shared = client.load_map().unwrap();
    assert_eq!(shared.links, booked.links, "one forest, one booking");
    let stats = client.stats().unwrap();
    assert_eq!((stats.forests, stats.forest_tenants), (1, 2), "{stats:?}");
    assert_eq!(stats.sessions, 2);

    // The founder leaving changes nothing; the last one out unbooks.
    for session in [first, second] {
        match client.release(session).unwrap() {
            Response::Released { session: closed } => assert_eq!(closed, session),
            other => panic!("expected Released, got {other:?}"),
        }
    }
    assert!(client.load_map().unwrap().links.is_empty());

    // A QoS change on a real overlay link takes the patch path.
    let probe = diamond_fixture();
    let link = probe
        .overlay
        .graph()
        .out_edges(probe.source)
        .next()
        .unwrap();
    match client
        .mutate(Mutation::SetLinkQos {
            from: probe.overlay.instance(link.from),
            to: probe.overlay.instance(link.to),
            bandwidth_kbps: 500,
            latency_us: 1,
        })
        .unwrap()
    {
        Response::Mutated {
            epoch,
            repaired,
            dropped,
        } => assert_eq!((epoch, repaired, dropped), (1, 0, 0)),
        other => panic!("expected Mutated, got {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.served, 2, "{stats:?}");
    assert_eq!(stats.cache_misses, 1, "{stats:?}");
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    assert_eq!(stats.forests, 0, "{stats:?}");
    assert_eq!(stats.sessions, 0, "{stats:?}");
    assert_eq!(stats.rebuilds, 1, "{stats:?}");
    assert_eq!((stats.shed, stats.failed, stats.epoch), (0, 0, 1));

    assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown);
    handle.wait();
}

/// A booking small enough that every `LoadMap` row is eight one-byte
/// varints: the client must read the ledger back, not refuse the reply.
#[test]
fn a_load_map_of_one_byte_rows_reaches_the_client() {
    let handle = serve(World::new(diamond_fixture()), &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Narrow every link out of s1/h1 to 10 kbit/s.
    let probe = diamond_fixture();
    let s1h1 = ServiceInstance::new(ServiceId::new(1), HostId::new(1));
    let node = probe.overlay.node_of(s1h1).unwrap();
    let links: Vec<_> = probe.overlay.graph().out_edges(node).collect();
    assert_eq!(links.len(), 4);
    for link in links {
        let reply = client
            .mutate(Mutation::SetLinkQos {
                from: s1h1,
                to: probe.overlay.instance(link.to),
                bandwidth_kbps: 10,
                latency_us: 1,
            })
            .unwrap();
        assert!(matches!(reply, Response::Mutated { .. }), "{reply:?}");
    }
    match client.federate("0>1>3", Algorithm::Sflow, Some(2)).unwrap() {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 10),
        other => panic!("expected Federated, got {other:?}"),
    }

    let rows: Vec<_> = client
        .load_map()
        .unwrap()
        .links
        .iter()
        .map(|row| {
            (
                row.capacity_kbps,
                row.reserved_kbps,
                row.utilization_permille,
            )
        })
        .collect();
    assert_eq!(rows, [(100, 10, 100), (10, 10, 1000)]);

    assert_eq!(client.shutdown().unwrap(), Response::ShuttingDown);
    handle.wait();
}
