//! Negative-path wire tests against a live loopback server.
//!
//! Every test feeds the server a different kind of malformed traffic over
//! raw TCP, then proves two things with a fresh well-behaved [`Client`]:
//! the offending *connection* got an error (when the stream allowed one)
//! and the *server* is still fully alive — the worker pool, the session
//! table and every other connection are untouched by a bad peer.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use sflow_core::fixtures::diamond_fixture;
use sflow_server::wire::{read_frame, MAX_FRAME};
use sflow_server::{
    serve, Algorithm, Client, Response, ResponseFrame, ServerConfig, StatsSnapshot, World,
};

const DIAMOND_SPEC: &str = "0>1>3, 0>2>3";

fn live_server() -> sflow_server::ServerHandle {
    serve(
        World::new(diamond_fixture()),
        &ServerConfig {
            // Blind routing: `assert_server_alive` opens a full-bandwidth
            // session per call, which residual booking would not admit twice.
            residual: false,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Proves the server still answers real work after the hostile connection.
fn assert_server_alive(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    match client
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
}

/// Polls stats until the wire-error counter reaches `want` (the bad peer's
/// connection thread runs concurrently with the test, so the count lands
/// asynchronously) or a generous deadline passes.
fn wait_for_wire_errors(client: &mut Client, want: u64) -> StatsSnapshot {
    for _ in 0..500 {
        let s = client.stats().unwrap();
        if s.wire_errors >= want {
            return s;
        }
        thread::sleep(Duration::from_millis(10));
    }
    client.stats().unwrap()
}

/// Reads the server's error reply off a raw stream. A protocol error is not
/// attributable to any request, so its envelope carries the reserved id 0.
fn read_error_reply(stream: &mut TcpStream) -> Response {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = read_frame::<ResponseFrame>(stream)
        .expect("server should answer before closing")
        .expect("server should answer, not just hang up");
    assert_eq!(frame.request_id, 0, "protocol errors carry the reserved id");
    frame.response
}

#[test]
fn truncated_frame_degrades_only_its_connection() {
    let handle = live_server();
    let addr = handle.addr();

    // Declare 100 bytes, send 3, hang up: a torn frame.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&100u32.to_be_bytes()).unwrap();
    bad.write_all(b"abc").unwrap();
    drop(bad);

    assert_server_alive(addr);

    let mut client = Client::connect(addr).unwrap();
    let stats = wait_for_wire_errors(&mut client, 1);
    assert_eq!(stats.wire_errors, 1, "torn frame must be counted");
    assert_eq!(stats.panics, 0);
    handle.shutdown();
}

#[test]
fn oversized_declared_length_is_answered_and_dropped() {
    let handle = live_server();
    let addr = handle.addr();

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    match read_error_reply(&mut bad) {
        Response::Error(msg) => assert!(msg.contains("MAX_FRAME"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server hangs up after answering a protocol error.
    let mut rest = Vec::new();
    assert_eq!(bad.read_to_end(&mut rest).unwrap(), 0);

    assert_server_alive(addr);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(wait_for_wire_errors(&mut client, 1).wire_errors, 1);
    handle.shutdown();
}

/// Sends one well-framed but malformed body on its own connection and
/// checks the full contract: answered `Error("protocol error: …")` under id
/// 0, that connection closed, a neighbour that was already connected still
/// served, and `wire_errors` up by exactly one.
fn assert_body_is_refused(body: &[u8], expect_in_message: &str) {
    let handle = live_server();
    let addr = handle.addr();
    let mut neighbour = Client::connect(addr).unwrap();
    assert_eq!(neighbour.stats().unwrap().wire_errors, 0);

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    bad.write_all(body).unwrap();
    match read_error_reply(&mut bad) {
        Response::Error(msg) => {
            assert!(msg.starts_with("protocol error: "), "{msg}");
            assert!(msg.contains(expect_in_message), "{msg}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(bad.read_to_end(&mut rest).unwrap(), 0, "hung up after");

    assert_eq!(wait_for_wire_errors(&mut neighbour, 1).wire_errors, 1);
    match neighbour
        .federate(DIAMOND_SPEC, Algorithm::Sflow, Some(2))
        .unwrap()
    {
        Response::Federated(summary) => assert_eq!(summary.bandwidth_kbps, 80),
        other => panic!("expected Federated, got {other:?}"),
    }
    assert_server_alive(addr);
    handle.shutdown();
}

#[test]
fn unknown_request_tag_is_answered_and_dropped() {
    assert_body_is_refused(&[1, 7], "unknown Request tag 7");
}

#[test]
fn trailing_bytes_are_answered_and_dropped() {
    // id 1, `Stats`, and one byte too many.
    assert_body_is_refused(&[1, 5, 0], "trailing");
}

#[test]
fn eleven_byte_varint_is_answered_and_dropped() {
    let mut body = vec![0x80; 10];
    body.extend_from_slice(&[0, 5]);
    assert_body_is_refused(&body, "varint");
}

#[test]
fn string_length_past_the_frame_is_answered_and_dropped() {
    // id 1, `Federate`, a requirement declared 200 bytes long, 3 sent.
    assert_body_is_refused(&[1, 0, 200, 1, b'0', b'>', b'1'], "room");
}

#[test]
fn non_utf8_requirement_is_answered_and_dropped() {
    assert_body_is_refused(&[1, 0, 2, 0xff, 0xfe, 0, 0], "UTF-8");
}

/// A client from before the binary codec frames JSON behind the same length
/// prefix. It gets the protocol error, not a misreading of its bytes.
#[test]
fn a_json_frame_from_an_old_client_is_answered_and_dropped() {
    assert_body_is_refused(
        br#"{"request_id":1,"request":"Stats"}"#,
        "unknown Request tag",
    );
}

#[test]
fn a_barrage_of_bad_peers_leaves_the_server_serving() {
    let handle = live_server();
    let addr = handle.addr();

    for i in 0..10u32 {
        let mut bad = TcpStream::connect(addr).unwrap();
        match i % 3 {
            0 => {
                // torn frame
                let _ = bad.write_all(&64u32.to_be_bytes());
                let _ = bad.write_all(b"x");
            }
            1 => {
                // oversized prefix
                let _ = bad.write_all(&(u32::MAX).to_be_bytes());
            }
            _ => {
                // not a record
                let _ = bad.write_all(&4u32.to_be_bytes());
                let _ = bad.write_all(b"@@@@");
            }
        }
        drop(bad);
    }

    // Interleaved real traffic still works, repeatedly.
    for _ in 0..5 {
        assert_server_alive(addr);
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = wait_for_wire_errors(&mut client, 10);
    assert_eq!(stats.wire_errors, 10);
    assert_eq!(stats.served, 5); // the five alive checks above
    handle.shutdown();
}
