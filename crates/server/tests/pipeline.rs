//! Pipelined-framing regression tests against a live reactor server.
//!
//! What many frames in flight on one socket demand of the reactor:
//! responses may legitimately overtake each other (and are matched by
//! `request_id`, not arrival order); a frame dribbled in one byte per
//! readiness event is assembled exactly like one that arrived whole; a peer
//! that sends fast but reads slowly is parked by backpressure instead of
//! ballooning the server's write buffer; and neither a shutdown nor a dying
//! client with frames still in flight leaves anything hanging or leaked.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use sflow_core::fixtures::diamond_fixture;
use sflow_server::wire::{encode_frame, read_frame};
use sflow_server::{
    serve, Algorithm, Client, PipelinedClient, Request, RequestFrame, Response, ResponseFrame,
    ServerConfig, World,
};

const DIAMOND_SPEC: &str = "0>1>3, 0>2>3";

fn reactor_server(config: ServerConfig) -> sflow_server::ServerHandle {
    serve(World::new(diamond_fixture()), &config).unwrap()
}

fn federate_request() -> Request {
    Request::Federate {
        requirement: DIAMOND_SPEC.to_owned(),
        algorithm: Algorithm::Sflow,
        hop_limit: Some(2),
    }
}

/// A control request answered inline on the reactor thread must overtake a
/// solve that is still sitting on the admission queue: the solve's answer
/// can only come back through the completion channel, one poller wakeup
/// later at the earliest.
#[test]
fn inline_stats_overtakes_a_queued_federate() {
    let handle = reactor_server(ServerConfig {
        residual: false,
        ..ServerConfig::default()
    });
    let mut pipe = PipelinedClient::connect(handle.addr()).unwrap();

    let federate_id = pipe.send(&federate_request()).unwrap();
    let stats_id = pipe.send(&Request::Stats).unwrap();
    assert_eq!(pipe.in_flight(), 2);

    let first = pipe.recv_any().unwrap();
    assert_eq!(
        first.request_id, stats_id,
        "the inline Stats answer must arrive before the queued solve"
    );
    assert!(matches!(first.response, Response::Stats(_)), "{first:?}");

    let second = pipe.recv_any().unwrap();
    assert_eq!(second.request_id, federate_id);
    match second.response {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    assert_eq!(pipe.in_flight(), 0);
    handle.shutdown();
}

/// `recv` must hand back the requested id and stash the overtaker, so a
/// blocking-style caller sees its own answer even when the wire reorders.
#[test]
fn recv_by_id_stashes_the_overtaking_response() {
    let handle = reactor_server(ServerConfig {
        residual: false,
        ..ServerConfig::default()
    });
    let mut pipe = PipelinedClient::connect(handle.addr()).unwrap();

    let federate_id = pipe.send(&federate_request()).unwrap();
    let stats_id = pipe.send(&Request::Stats).unwrap();

    // Wait for the *solve* first: the Stats answer overtakes it on the wire
    // and must be stashed, not lost.
    match pipe.recv(federate_id).unwrap() {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    match pipe.recv(stats_id).unwrap() {
        Response::Stats(_) => {}
        other => panic!("expected the stashed Stats, got {other:?}"),
    }
    handle.shutdown();
}

/// One byte per write, with a pause between bytes so each lands as its own
/// readiness event: the incremental decoder must assemble the frame exactly
/// as if it had arrived whole.
#[test]
fn a_frame_dribbled_one_byte_at_a_time_is_assembled() {
    let handle = reactor_server(ServerConfig {
        residual: false,
        ..ServerConfig::default()
    });

    let frame = RequestFrame {
        request_id: 7,
        request: federate_request(),
    };
    let bytes = encode_frame(&frame).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in &bytes {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        thread::sleep(Duration::from_millis(1));
    }

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply: ResponseFrame = read_frame(&mut stream)
        .expect("server should answer the dribbled frame")
        .expect("server should answer, not hang up");
    assert_eq!(reply.request_id, 7);
    match reply.response {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    handle.shutdown();
}

/// A peer that fires a burst of requests and then refuses to read must be
/// paused: the server stops polling it for read once staged responses cross
/// the high-water mark, so its write buffer stays bounded by the mark plus
/// one frame instead of scaling with the burst. Draining the socket lifts
/// the pause and every response still arrives, each under its own id.
#[test]
fn a_slow_reader_is_paused_and_its_buffer_stays_bounded() {
    // ~700 bytes per Stats response: the burst's answers total ~1.4 MB,
    // comfortably past what the loopback socket buffers can absorb, so the
    // pause genuinely sticks instead of draining into the kernel.
    const HIGH_WATER: usize = 2048;
    const BURST: usize = 2000;
    let handle = reactor_server(ServerConfig {
        write_high_water: HIGH_WATER,
        residual: false,
        ..ServerConfig::default()
    });

    let mut pipe = PipelinedClient::connect(handle.addr()).unwrap();
    for _ in 0..BURST {
        pipe.send(&Request::Stats).unwrap();
    }
    // Sends are corked until a recv; push the whole burst onto the wire now
    // while still refusing to read any response.
    pipe.flush().unwrap();

    // Observe the pause from a second connection while the first one
    // stubbornly refuses to read.
    let mut probe = Client::connect(handle.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let s = probe.stats().unwrap();
        if s.backpressure_pauses >= 1 || Instant::now() > deadline {
            break s;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert!(
        stats.backpressure_pauses >= 1,
        "the burst must trip the high-water mark: {stats:?}"
    );
    assert!(stats.connections_open >= 2, "{stats:?}");
    // Let the stall reach steady state (kernel buffers full, pause held),
    // then check the bound: the mark, plus the frame that crossed it, plus
    // the probe connection's own transient. A server that kept decoding
    // while the peer slept would be holding ~BURST responses (~1.4 MB).
    thread::sleep(Duration::from_millis(300));
    let stats = probe.stats().unwrap();
    assert!(
        stats.write_buffered_bytes <= (HIGH_WATER + 8 * 1024) as u64,
        "write buffer must stay near the high-water mark: {stats:?}"
    );

    // Now drain: every response arrives, ids 1..=BURST exactly once.
    let mut seen = vec![false; BURST + 1];
    for _ in 0..BURST {
        let frame = pipe.recv_any().unwrap();
        assert!(matches!(frame.response, Response::Stats(_)), "{frame:?}");
        let id = frame.request_id as usize;
        assert!((1..=BURST).contains(&id), "unexpected id {id}");
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
    }
    assert!(seen[1..].iter().all(|&s| s), "every request answered");

    // With the stall over, the staged-byte gauge drains back to zero.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = probe.stats().unwrap();
        if s.write_buffered_bytes == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "gauge never drained: {s:?}");
        thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

/// Eight connections at once each pipeline sixteen federates and a
/// `Stats` into the one event loop; every reply comes back under its own id
/// exactly once, whichever worker served it, and once the clients hang up
/// the open-connection gauge drains to the probe alone and no frame stays
/// in flight.
#[test]
fn eight_pipelining_connections_are_answered_by_id_and_the_gauges_drain() {
    const CONNECTIONS: usize = 8;
    const DEPTH: u64 = 16;
    let handle = reactor_server(ServerConfig {
        // Room for every frame at once: nothing is shed.
        queue_depth: CONNECTIONS * DEPTH as usize,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            thread::spawn(move || {
                let mut pipe = PipelinedClient::connect(addr).unwrap();
                let federates: Vec<u64> = (0..DEPTH)
                    .map(|_| pipe.send(&federate_request()).unwrap())
                    .collect();
                let stats = pipe.send(&Request::Stats).unwrap();
                pipe.flush().unwrap();
                let mut answered = Vec::new();
                for _ in 0..=DEPTH {
                    let frame = pipe.recv_any().unwrap();
                    let id = frame.request_id;
                    assert!(!answered.contains(&id), "duplicate reply for {id}");
                    match frame.response {
                        Response::Federated(summary) => {
                            assert!(federates.contains(&id), "{id} is no federate");
                            assert_eq!(summary.bandwidth_kbps, 80);
                        }
                        Response::Stats(_) => assert_eq!(id, stats),
                        other => panic!("unexpected reply to {id}: {other:?}"),
                    }
                    answered.push(id);
                }
                assert_eq!(pipe.in_flight(), 0);
            })
        })
        .collect();
    for client in clients {
        client.join().expect("every connection is answered in full");
    }

    let mut probe = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let s = probe.stats().unwrap();
        if s.connections_open == 1 || Instant::now() > deadline {
            break s;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stats.connections_open, 1, "only the probe: {stats:?}");
    assert_eq!(stats.served, CONNECTIONS as u64 * DEPTH, "{stats:?}");
    assert_eq!(stats.frames_in_flight, 0, "{stats:?}");
    handle.shutdown();
}

/// Shutdown with frames in flight: sixteen federates are on the wire when
/// a second connection asks the server to stop. Every answer the first
/// client still gets is a well-formed frame for one of its ids, the stream
/// then ends cleanly, and the server's threads all join — nothing hangs.
#[test]
fn shutdown_with_frames_in_flight_answers_or_hangs_up_cleanly() {
    const DEPTH: u64 = 16;
    let handle = reactor_server(ServerConfig::default());
    let mut pipe = PipelinedClient::connect(handle.addr()).unwrap();
    for _ in 0..DEPTH {
        pipe.send(&federate_request()).unwrap();
    }
    pipe.flush().unwrap();

    let mut stopper = Client::connect(handle.addr()).unwrap();
    assert_eq!(stopper.shutdown().unwrap(), Response::ShuttingDown);

    let mut answered = Vec::new();
    let hung_up = loop {
        match pipe.recv_any() {
            Ok(frame) => {
                assert!(
                    matches!(frame.response, Response::Federated(_)),
                    "{frame:?}"
                );
                assert!((1..=DEPTH).contains(&frame.request_id), "{frame:?}");
                assert!(!answered.contains(&frame.request_id), "duplicate {frame:?}");
                answered.push(frame.request_id);
            }
            Err(e) => break e,
        }
    };
    assert_eq!(hung_up.kind(), ErrorKind::UnexpectedEof, "{hung_up}");
    // `wait` joins the reactor, which joins the workers: it returns only
    // once every server thread has exited.
    handle.wait();
}

/// Client death mid-pipeline: a peer that hangs up with frames admitted
/// costs the server nothing but the work — the connection and in-flight
/// gauges return to where they were and the next client is served.
#[test]
fn a_client_dying_mid_pipeline_leaks_nothing() {
    const DEPTH: u64 = 16;
    let handle = reactor_server(ServerConfig::default());
    let mut probe = Client::connect(handle.addr()).unwrap();
    let before = probe.stats().unwrap();
    assert_eq!(before.connections_open, 1, "just the probe: {before:?}");
    assert_eq!(before.frames_in_flight, 0);

    let mut doomed = PipelinedClient::connect(handle.addr()).unwrap();
    for _ in 0..DEPTH {
        doomed.send(&federate_request()).unwrap();
    }
    doomed.flush().unwrap();
    drop(doomed); // sixteen frames on the wire, nobody left to read answers

    // The frames were admitted and worked off regardless (`served` counts
    // them), and both gauges come back down.
    let deadline = Instant::now() + Duration::from_secs(10);
    let after = loop {
        let s = probe.stats().unwrap();
        let settled = s.served == DEPTH
            && s.connections_open == before.connections_open
            && s.frames_in_flight == before.frames_in_flight;
        if settled || Instant::now() > deadline {
            break s;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(after.served, DEPTH, "{after:?}");
    assert_eq!(after.connections_open, before.connections_open, "{after:?}");
    assert_eq!(after.frames_in_flight, before.frames_in_flight, "{after:?}");
    assert_eq!(after.write_buffered_bytes, 0, "{after:?}");

    let mut next = Client::connect(handle.addr()).unwrap();
    match next.request(&federate_request()).unwrap() {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    handle.shutdown();
}
