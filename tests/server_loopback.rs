//! The resident server over real TCP, in the tier-1 suite: one session
//! lifecycle on the default configuration, with the server's counters
//! reconciled exactly against what the client did.

use sflow::core::fixtures::diamond_fixture;
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
