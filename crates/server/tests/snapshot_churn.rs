//! Churn stress for the published world, through a live server: one client
//! applies link-QoS flaps and instance failures while eight client threads
//! federate and release continuously. Every answer must come from a
//! *consistent* snapshot — a debug build audits each solved and repaired
//! flow as it is assembled, against its own snapshot's overlay, never
//! against a half-mutated world, and a failed audit is a counted panic —
//! and the epochs each client is answered at must be monotonic. A federate
//! a mutation overtakes may be answered `Stale`; nothing may be answered
//! `Error`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use sflow_core::fixtures::random_fixture;
use sflow_net::ServiceId;
use sflow_server::{serve, Algorithm, Client, Mutation, Response, ServerConfig, World};

const SPEC: &str = "0>1>3, 0>2>3";

#[test]
fn solvers_under_churn_always_observe_consistent_snapshots() {
    const MUTATIONS: u64 = 60;
    const SOLVERS: usize = 8;

    // Services 0..=3 carry the requirement; service 4 exists to be failed,
    // so instance failures cut links without ever making the requirement
    // unsatisfiable.
    let sids: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let fx = random_fixture(24, &sids, 3, None, 7);
    // The mutating client plans each mutation on a mirror of the server's
    // world: the same fixture under the same mutations is the same world.
    let mut mirror = World::new(fx.clone());
    let config = ServerConfig {
        residual: false,
        solve_cache: false,
        ..ServerConfig::default()
    };
    let handle = serve(World::new(fx), &config).unwrap();
    let addr = handle.addr();
    let done = Arc::new(AtomicBool::new(false));

    let solvers: Vec<_> = (0..SOLVERS)
        .map(|_| {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (mut last_epoch, mut solved, mut stale) = (0u64, 0u64, 0u64);
                loop {
                    match client.federate(SPEC, Algorithm::Sflow, Some(2)).unwrap() {
                        Response::Federated(summary) => {
                            assert!(
                                summary.epoch >= last_epoch,
                                "answered epochs regressed: {} after {last_epoch}",
                                summary.epoch
                            );
                            last_epoch = summary.epoch;
                            match client.release(summary.session).unwrap() {
                                Response::Released { .. } => {}
                                other => panic!("expected Released, got {other:?}"),
                            }
                            solved += 1;
                        }
                        Response::Stale { .. } => stale += 1,
                        other => panic!("expected Federated or Stale, got {other:?}"),
                    }
                    if done.load(Ordering::SeqCst) {
                        return (solved, stale, last_epoch);
                    }
                }
            })
        })
        .collect();

    // The mutator: QoS-flap a source out-link to a live instance on most
    // ticks, fail a service-4 instance (a tombstone: its links are cut) on
    // every tenth while any remain.
    let mut mutator = Client::connect(addr).unwrap();
    let spare = ServiceId::new(4);
    for tick in 0..MUTATIONS {
        let snapshot = mirror.snapshot();
        let overlay = snapshot.overlay();
        let victim = if tick % 10 == 9 {
            overlay
                .instances_of(spare)
                .first()
                .map(|&n| overlay.instance(n))
        } else {
            None
        };
        let mutation = match victim {
            Some(instance) => Mutation::FailInstance { instance },
            None => {
                let link = overlay
                    .graph()
                    .out_edges(snapshot.source_node())
                    .find(|link| overlay.is_live(link.to))
                    .expect("the source keeps an out-link to a live instance");
                let congested = tick % 2 == 0;
                Mutation::SetLinkQos {
                    from: overlay.instance(link.from),
                    to: overlay.instance(link.to),
                    bandwidth_kbps: if congested { 64 } else { 512 },
                    latency_us: if congested { 9_000 } else { 2_000 },
                }
            }
        };
        mirror.apply(&mutation).expect("churn mutations must apply");
        match mutator.mutate(mutation).unwrap() {
            Response::Mutated { epoch, .. } => assert_eq!(epoch, mirror.epoch()),
            other => panic!("expected Mutated, got {other:?}"),
        }
    }
    done.store(true, Ordering::SeqCst);

    let mut total_solves = 0u64;
    for solver in solvers {
        let (solved, stale, last_epoch) = solver.join().expect("client thread must not panic");
        assert!(
            solved + stale >= 1,
            "every client must be answered at least once"
        );
        assert!(
            last_epoch <= MUTATIONS,
            "answered epoch {last_epoch} beyond the {MUTATIONS} applied"
        );
        total_solves += solved;
    }
    assert!(total_solves >= 1);
    let stats = mutator.stats().unwrap();
    assert_eq!(stats.epoch, MUTATIONS, "one epoch per applied mutation");
    assert_eq!(stats.panics, 0, "{stats:?}");
    assert_eq!(stats.sessions, 0, "every session was released");
    handle.shutdown();
}
