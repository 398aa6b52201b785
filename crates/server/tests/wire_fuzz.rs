//! Round-trip and hostile-input properties of the binary wire codec.
//!
//! The codec in `wire.rs` expands from one field list per record, and the
//! claims its module doc makes are checked here against drawn inputs rather
//! than trusted:
//!
//! * **round trip** — `decode(encode(x)) == x` for every `Request` and
//!   `Response` variant with drawn fields, through the blocking reader and
//!   through the incremental decoder fed whole and one byte at a time, and
//!   for collection replies of one-byte varints only, whose counts sit at
//!   the least bytes an item can take;
//! * **hostile bytes** — arbitrary byte strings, every proper prefix of a
//!   valid frame and single-byte substitutions of one never panic, the
//!   decoders agree (same value, same error variant, or both still waiting),
//!   a prefix is never a value, and `FrameDecoder::pending()` stays within
//!   `MAX_FRAME + 4`;
//! * **allocation** — decoding a frame allocates at most a small constant
//!   times the frame's own length, measured by a counting global allocator
//!   (this file is its own crate, so the `unsafe impl` the allocator trait
//!   demands does not touch the server's `forbid(unsafe_code)`).
//!
//! CI runs this in release with `PROPTEST_CASES=20000`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem::{discriminant, Discriminant};

use proptest::prelude::*;
use sflow_net::{HostId, ServiceId, ServiceInstance};
use sflow_server::wire::{encode_frame, read_frame, FrameDecoder, WireError, MAX_FRAME};
use sflow_server::{
    Algorithm, FlowSummary, LinkLoad, LoadMapSummary, Mutation, Request, RequestFrame, Response,
    ResponseFrame, StatsSnapshot,
};

/// Counts the bytes each thread asks the system allocator for, so a test can
/// bracket one call and read what it allocated without hearing its
/// neighbours (`cargo test` runs tests on parallel threads).
struct CountingAllocator;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<usize>` with a const initialiser, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// What one decoder made of a byte stream's first frame.
#[derive(Debug, PartialEq)]
enum Outcome<T> {
    Value(T),
    /// More bytes wanted: `Ok(None)` from the incremental decoder, a clean
    /// EOF or `Truncated` from the blocking one.
    Waiting,
    Refused(Discriminant<WireError>),
}

/// The most a decode of a `frame`-byte frame may allocate. A row count is
/// checked against 8 wire bytes per row and reserves a 48-byte `LinkLoad`
/// for each, 6 × the frame; a map entry takes a share of a B-tree node from
/// 3, and an error message is a short constant.
fn allocation_bound(frame: usize) -> usize {
    16 * frame + 512
}

/// Defines `$name(bytes) -> Outcome<$ty>`: decodes the first frame of `bytes`
/// with `read_frame`, with `FrameDecoder` fed whole and fed one byte at a
/// time, asserts the three agree and that the incremental decoder stayed
/// inside its buffering and allocation bounds, and returns the outcome. (A
/// macro because the trait bounding the three functions is sealed: a generic
/// helper could not name it.)
macro_rules! decode_all_ways {
    ($name:ident, $ty:ty) => {
        fn $name(bytes: &[u8]) -> Outcome<$ty> {
            let blocking = match read_frame::<$ty>(&mut &*bytes) {
                Ok(Some(value)) => Outcome::Value(value),
                Ok(None) | Err(WireError::Truncated { .. }) => Outcome::Waiting,
                Err(e) => Outcome::Refused(discriminant(&e)),
            };

            let mut whole = FrameDecoder::new();
            whole.feed(bytes);
            let (popped, allocated) = allocated_by(|| whole.next_frame::<$ty>());
            assert!(
                allocated <= allocation_bound(bytes.len()),
                "{allocated} bytes allocated decoding {} bytes",
                bytes.len()
            );
            let fed_whole = match popped {
                Ok(Some(value)) => Outcome::Value(value),
                Ok(None) => Outcome::Waiting,
                Err(e) => Outcome::Refused(discriminant(&e)),
            };
            assert_eq!(
                blocking, fed_whole,
                "read_frame vs FrameDecoder on {bytes:?}"
            );

            let mut dribbled = FrameDecoder::new();
            let mut fed_bytewise = Outcome::Waiting;
            for byte in bytes {
                dribbled.feed(std::slice::from_ref(byte));
                assert!(dribbled.pending() <= MAX_FRAME + 4);
                match dribbled.next_frame::<$ty>() {
                    Ok(None) => continue,
                    Ok(Some(value)) => fed_bytewise = Outcome::Value(value),
                    Err(e) => fed_bytewise = Outcome::Refused(discriminant(&e)),
                }
                break;
            }
            assert_eq!(fed_whole, fed_bytewise, "whole vs bytewise on {bytes:?}");
            fed_whole
        }
    };
}

decode_all_ways!(decode_request, RequestFrame);
decode_all_ways!(decode_response, ResponseFrame);

/// `u64`s biased towards the values a varint treats differently: zero, the
/// one-byte range, every bit width, and the ten-byte maximum.
fn word() -> impl Strategy<Value = u64> {
    (0u8..6, any::<u64>()).prop_map(|(kind, raw)| match kind {
        0 => 0,
        1 => u64::MAX,
        2 => raw % 256,
        3 => raw >> (raw % 64),
        _ => raw,
    })
}

fn size() -> impl Strategy<Value = usize> {
    word().prop_map(|w| w as usize)
}

/// Strings from the whole scalar range, empty included: mostly multi-byte.
fn text() -> impl Strategy<Value = String> {
    collection::vec(0u32..0x11_0000, 0..24).prop_map(|scalars| {
        scalars
            .into_iter()
            .map(|s| char::from_u32(s).unwrap_or('ß'))
            .collect()
    })
}

fn instance() -> impl Strategy<Value = ServiceInstance> {
    (word(), word()).prop_map(|(service, host)| {
        ServiceInstance::new(ServiceId::new(service as u32), HostId::new(host as u32))
    })
}

/// The tag byte of each `Algorithm` — the table in `wire.rs`'s module doc,
/// stated a second time from the test's side. These four `*_tag` matches are
/// exhaustive, so a variant added to the protocol does not compile here
/// until it has a tag; `every_variant_round_trips` then holds the sample
/// lists below to the tags (each list must spell `0..n`, every sample must
/// decode back, and the decoder must refuse tag `n`), which is what a
/// variant with an encode arm and no decode arm — or no sample — fails.
fn algorithm_tag(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Sflow => 0,
        Algorithm::Global => 1,
        Algorithm::Fixed => 2,
        Algorithm::ServicePath => 3,
    }
}

fn mutation_tag(mutation: &Mutation) -> u8 {
    match mutation {
        Mutation::SetLinkQos { .. } => 0,
        Mutation::FailInstance { .. } => 1,
    }
}

fn request_tag(request: &Request) -> u8 {
    match request {
        Request::Federate { .. } => 0,
        Request::Mutate(_) => 1,
        Request::Release { .. } => 2,
        Request::Rebalance => 3,
        Request::LoadMap => 4,
        Request::Stats => 5,
        Request::Shutdown => 6,
    }
}

fn response_tag(response: &Response) -> u8 {
    match response {
        Response::Federated(_) => 0,
        Response::Mutated { .. } => 1,
        Response::Stale { .. } => 2,
        Response::Released { .. } => 3,
        Response::Rebalanced { .. } => 4,
        Response::LoadMap(_) => 5,
        Response::Stats(_) => 6,
        Response::Overloaded => 7,
        Response::ShuttingDown => 8,
        Response::Error(_) => 9,
    }
}

/// Every `Algorithm`, in tag order.
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Sflow,
    Algorithm::Global,
    Algorithm::Fixed,
    Algorithm::ServicePath,
];

/// What the requests are assembled from, drawn or fixed.
struct RequestParts {
    requirement: String,
    algorithm: Algorithm,
    hop_limit: Option<usize>,
    from: ServiceInstance,
    to: ServiceInstance,
    a: u64,
    b: u64,
}

/// One `Request` of every shape, in tag order — each variant, `Mutate` once
/// per `Mutation`.
fn requests(parts: RequestParts) -> Vec<Request> {
    let RequestParts {
        requirement,
        algorithm,
        hop_limit,
        from,
        to,
        a,
        b,
    } = parts;
    vec![
        Request::Federate {
            requirement,
            algorithm,
            hop_limit,
        },
        Request::Mutate(Mutation::SetLinkQos {
            from,
            to,
            bandwidth_kbps: a,
            latency_us: b,
        }),
        Request::Mutate(Mutation::FailInstance { instance: from }),
        Request::Release { session: a },
        Request::Rebalance,
        Request::LoadMap,
        Request::Stats,
        Request::Shutdown,
    ]
}

fn request() -> impl Strategy<Value = Request> {
    (
        (any::<usize>(), any::<usize>()),
        (text(), any::<bool>(), size()),
        (instance(), instance(), word(), word()),
    )
        .prop_map(
            |((shape, algorithm), (requirement, limited, hops), (from, to, a, b))| {
                let mut all = requests(RequestParts {
                    requirement,
                    algorithm: ALGORITHMS[algorithm % ALGORITHMS.len()],
                    hop_limit: limited.then_some(hops),
                    from,
                    to,
                    a,
                    b,
                });
                all.swap_remove(shape % all.len())
            },
        )
}

fn link() -> impl Strategy<Value = LinkLoad> {
    (instance(), instance(), (word(), word()), (word(), word())).prop_map(
        |(from, to, (capacity_kbps, reserved_kbps), (residual_kbps, permille))| LinkLoad {
            from,
            to,
            capacity_kbps,
            reserved_kbps,
            residual_kbps,
            utilization_permille: permille,
        },
    )
}

/// What the responses are assembled from, drawn or fixed.
struct ResponseParts {
    words: [u64; 4],
    sizes: [usize; 2],
    message: String,
    instances: Vec<(u64, ServiceInstance)>,
    links: Vec<LinkLoad>,
}

/// One `Response` of every variant, in tag order.
fn responses(parts: ResponseParts) -> Vec<Response> {
    let ResponseParts {
        words: [a, b, c, d],
        sizes: [m, n],
        message,
        instances,
        links,
    } = parts;
    vec![
        Response::Federated(FlowSummary {
            session: a,
            epoch: b,
            bandwidth_kbps: c,
            latency_us: d,
            instances: instances
                .into_iter()
                .map(|(service, at)| (ServiceId::new(service as u32), at))
                .collect(),
        }),
        Response::Mutated {
            epoch: a,
            repaired: m,
            dropped: n,
        },
        Response::Stale {
            solved_epoch: a,
            current_epoch: b,
        },
        Response::Released { session: a },
        Response::Rebalanced {
            migrations: m,
            migration_failures: n,
            max_utilization_permille: a,
        },
        Response::LoadMap(LoadMapSummary {
            epoch: a,
            version: b,
            max_utilization_permille: c,
            links,
        }),
        Response::Stats(StatsSnapshot {
            served: a,
            cache_hits: b,
            epoch: c,
            latency_p99_us: d,
            wire_errors: m as u64,
            write_buffered_bytes: n as u64,
            ..StatsSnapshot::default()
        }),
        Response::Overloaded,
        Response::ShuttingDown,
        Response::Error(message),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    (
        any::<usize>(),
        (word(), word(), word(), word()),
        (size(), size(), text()),
        (
            collection::vec((word(), instance()), 0..9),
            collection::vec(link(), 0..6),
        ),
    )
        .prop_map(
            |(variant, (a, b, c, d), (m, n, message), (instances, links))| {
                let mut all = responses(ResponseParts {
                    words: [a, b, c, d],
                    sizes: [m, n],
                    message,
                    instances,
                    links,
                });
                all.swap_remove(variant % all.len())
            },
        )
}

/// A varint of one byte: what makes a row or an entry as short as it can be.
fn small() -> impl Strategy<Value = u64> {
    0u64..128
}

fn small_instance() -> impl Strategy<Value = ServiceInstance> {
    (small(), small()).prop_map(|(service, host)| {
        ServiceInstance::new(ServiceId::new(service as u32), HostId::new(host as u32))
    })
}

/// A `Federated` or a `LoadMap` reply whose every varint is one byte, so
/// each instance entry and each link row takes the fewest bytes it can.
fn shortest_collection_reply() -> impl Strategy<Value = ResponseFrame> {
    let link = (
        small_instance(),
        small_instance(),
        (small(), small(), small(), small()),
    )
        .prop_map(
            |(from, to, (capacity_kbps, reserved_kbps, residual_kbps, permille))| LinkLoad {
                from,
                to,
                capacity_kbps,
                reserved_kbps,
                residual_kbps,
                utilization_permille: permille,
            },
        );
    (
        (small(), any::<bool>(), (small(), small(), small(), small())),
        collection::vec((small(), small_instance()), 0..9),
        collection::vec(link, 0..6),
    )
        .prop_map(
            |((request_id, federated, (a, b, c, d)), instances, links)| {
                let all = responses(ResponseParts {
                    words: [a, b, c, d],
                    sizes: [0, 0],
                    message: String::new(),
                    instances,
                    links,
                });
                let response = all
                    .into_iter()
                    .find(|response| match response {
                        Response::Federated(_) => federated,
                        Response::LoadMap(_) => !federated,
                        _ => false,
                    })
                    .unwrap();
                ResponseFrame {
                    request_id,
                    response,
                }
            },
        )
}

fn request_frame() -> impl Strategy<Value = RequestFrame> {
    (word(), request()).prop_map(|(request_id, request)| RequestFrame {
        request_id,
        request,
    })
}

fn response_frame() -> impl Strategy<Value = ResponseFrame> {
    (word(), response()).prop_map(|(request_id, response)| ResponseFrame {
        request_id,
        response,
    })
}

/// A byte stream that is either raw noise or noise behind an honest prefix
/// (raw noise almost always declares an oversized frame and stops there).
fn noise() -> impl Strategy<Value = Vec<u8>> {
    (any::<bool>(), collection::vec(any::<u8>(), 0..48)).prop_map(|(framed, mut bytes)| {
        if framed {
            let mut stream = (bytes.len() as u32).to_be_bytes().to_vec();
            stream.append(&mut bytes);
            stream
        } else {
            bytes
        }
    })
}

proptest! {
    #[test]
    fn requests_round_trip(frame in request_frame()) {
        let bytes = encode_frame(&frame).unwrap();
        prop_assert_eq!(decode_request(&bytes), Outcome::Value(frame));
    }

    #[test]
    fn responses_round_trip(frame in response_frame()) {
        let bytes = encode_frame(&frame).unwrap();
        prop_assert_eq!(decode_response(&bytes), Outcome::Value(frame));
    }

    #[test]
    fn collections_of_the_shortest_items_round_trip(frame in shortest_collection_reply()) {
        let bytes = encode_frame(&frame).unwrap();
        prop_assert_eq!(decode_response(&bytes), Outcome::Value(frame));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_the_decoders_agree(bytes in noise()) {
        // The assertions live in the helpers; a value is allowed (noise can
        // spell `Stats`), a panic or a disagreement is not.
        decode_request(&bytes);
        decode_response(&bytes);
    }

    #[test]
    fn a_proper_prefix_of_a_frame_is_never_a_value(
        request in request_frame(),
        response in response_frame(),
    ) {
        let bytes = encode_frame(&request).unwrap();
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_request(&bytes[..cut]), Outcome::Waiting, "cut at {}", cut);
        }
        let bytes = encode_frame(&response).unwrap();
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_response(&bytes[..cut]), Outcome::Waiting, "cut at {}", cut);
        }
    }

    #[test]
    fn a_substituted_byte_never_panics_and_the_decoders_agree(
        request in request_frame(),
        response in response_frame(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&request).unwrap();
        for at in 0..bytes.len() {
            bytes[at] ^= flip;
            decode_request(&bytes);
            bytes[at] ^= flip;
        }
        let mut bytes = encode_frame(&response).unwrap();
        for at in 0..bytes.len() {
            bytes[at] ^= flip;
            decode_response(&bytes);
            bytes[at] ^= flip;
        }
    }
}

/// Asserts `frame` is refused as malformed for the reason `what`.
macro_rules! assert_refused {
    ($ty:ty, $body:expr, $what:expr) => {
        let body: &[u8] = &$body;
        let frame = [&(body.len() as u32).to_be_bytes()[..], body].concat();
        let err = read_frame::<$ty>(&mut &*frame).unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed(m) if m.contains($what)),
            "{err:?}"
        );
    };
}

/// One frame of every variant of the four enums through all three decoders,
/// with the sample lists held to the `*_tag` tables: this is what fails when
/// a variant gets its encode arm (the compiler insists) and no decode arm.
#[test]
fn every_variant_round_trips() {
    let at = ServiceInstance::new(ServiceId::new(3), HostId::new(300));
    let request_parts = |algorithm| RequestParts {
        requirement: String::new(),
        algorithm,
        hop_limit: Some(2),
        from: at,
        to: ServiceInstance::new(ServiceId::new(4), HostId::new(7)),
        a: 300,
        b: 54,
    };

    // Envelope bytes: the length prefix is four, request id 300 two more,
    // then the record's tag and whatever it nests.
    let (mut request_tags, mut mutation_tags) = (Vec::new(), Vec::new());
    for request in requests(request_parts(Algorithm::Sflow)) {
        let frame = RequestFrame {
            request_id: 300,
            request,
        };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(bytes[6], request_tag(&frame.request));
        request_tags.push(bytes[6]);
        if let Request::Mutate(mutation) = &frame.request {
            assert_eq!(bytes[7], mutation_tag(mutation));
            mutation_tags.push(bytes[7]);
        }
        assert_eq!(decode_request(&bytes), Outcome::Value(frame));
    }
    // Each list spells 0..n (`Mutate` once per `Mutation`), and n is refused.
    assert_eq!(request_tags, [0, 1, 1, 2, 3, 4, 5, 6]);
    assert_refused!(RequestFrame, [0, 7], "unknown Request tag 7");
    assert_eq!(mutation_tags, [0, 1]);
    assert_refused!(RequestFrame, [0, 1, 2], "unknown Mutation tag 2");

    for (tag, &algorithm) in ALGORITHMS.iter().enumerate() {
        assert_eq!(usize::from(algorithm_tag(algorithm)), tag);
        let frame = RequestFrame {
            request_id: 0,
            request: requests(request_parts(algorithm)).swap_remove(0),
        };
        let bytes = encode_frame(&frame).unwrap();
        // id 0, `Federate`, an empty requirement, then the `Algorithm` tag.
        assert_eq!(bytes[4..8], [0, 0, 0, algorithm_tag(algorithm)]);
        assert_eq!(decode_request(&bytes), Outcome::Value(frame));
    }
    assert_refused!(RequestFrame, [0, 0, 0, 4, 0], "unknown Algorithm tag 4");

    let all = responses(ResponseParts {
        words: [7, 1, 4_000, 54],
        sizes: [2, 1],
        message: "no é".into(),
        instances: vec![(3, at), (9, at)],
        links: vec![LinkLoad {
            from: at,
            to: at,
            capacity_kbps: 8_000,
            reserved_kbps: 4_000,
            residual_kbps: 4_000,
            utilization_permille: 500,
        }],
    });
    assert_eq!(all.len(), 10);
    for (tag, response) in all.into_iter().enumerate() {
        assert_eq!(usize::from(response_tag(&response)), tag);
        let frame = ResponseFrame {
            request_id: 300,
            response,
        };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(bytes[6], response_tag(&frame.response));
        assert_eq!(decode_response(&bytes), Outcome::Value(frame));
    }
    assert_refused!(ResponseFrame, [0, 10], "unknown Response tag 10");
}

/// Every one of the 255 substitutions at every position, on one frame per
/// shape the drawn cases above only sample.
#[test]
fn every_single_byte_substitution_of_the_reference_frames() {
    let at = ServiceInstance::new(ServiceId::new(3), HostId::new(300));
    let request = RequestFrame {
        request_id: 300,
        request: Request::Federate {
            requirement: "0>1>3, 0>2>3 é".into(),
            algorithm: Algorithm::ServicePath,
            hop_limit: Some(2),
        },
    };
    let mut bytes = encode_frame(&request).unwrap();
    for i in 0..bytes.len() {
        let honest = bytes[i];
        for substitute in (0..=255).filter(|&b| b != honest) {
            bytes[i] = substitute;
            assert_ne!(decode_request(&bytes), Outcome::Value(request.clone()));
        }
        bytes[i] = honest;
    }
    let response = ResponseFrame {
        request_id: 300,
        response: Response::Federated(FlowSummary {
            session: 7,
            epoch: 1,
            bandwidth_kbps: 4_000,
            latency_us: 54,
            instances: BTreeMap::from([(ServiceId::new(3), at), (ServiceId::new(9), at)]),
        }),
    };
    let mut bytes = encode_frame(&response).unwrap();
    for i in 0..bytes.len() {
        let honest = bytes[i];
        for substitute in (0..=255).filter(|&b| b != honest) {
            bytes[i] = substitute;
            decode_response(&bytes);
        }
        bytes[i] = honest;
    }
}

/// The values at the ends of every field's range, and the largest replies
/// the server makes.
#[test]
fn edge_values_round_trip() {
    let far = ServiceInstance::new(ServiceId::new(u32::MAX), HostId::new(u32::MAX));
    for request in [
        Request::Release { session: u64::MAX },
        Request::Federate {
            requirement: String::new(),
            algorithm: Algorithm::Global,
            hop_limit: Some(usize::MAX),
        },
        Request::Mutate(Mutation::SetLinkQos {
            from: far,
            to: far,
            bandwidth_kbps: u64::MAX,
            latency_us: u64::MAX,
        }),
    ] {
        let frame = RequestFrame {
            request_id: u64::MAX,
            request,
        };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(decode_request(&bytes), Outcome::Value(frame));
    }

    let row = LinkLoad {
        from: far,
        to: far,
        capacity_kbps: u64::MAX,
        reserved_kbps: u64::MAX,
        residual_kbps: u64::MAX,
        utilization_permille: u64::MAX,
    };
    for links in [Vec::new(), vec![row; 5_760]] {
        let frame = ResponseFrame {
            request_id: u64::MAX,
            response: Response::LoadMap(LoadMapSummary {
                epoch: u64::MAX,
                version: 0,
                max_utilization_permille: 1_000,
                links,
            }),
        };
        let bytes = encode_frame(&frame).unwrap();
        assert!(
            bytes.len() <= MAX_FRAME,
            "5 760 worst-case rows fit a frame"
        );
        assert_eq!(decode_response(&bytes), Outcome::Value(frame));
    }

    // An all-`u64::MAX` snapshot, spelled as its bytes so that no field list
    // is kept here: id 0, tag 6, then 37 maximal varints.
    let mut body = vec![0, 6];
    for _ in 0..37 {
        body.extend_from_slice(&[0xff; 9]);
        body.push(0x01);
    }
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&body);
    let Outcome::Value(frame) = decode_response(&bytes) else {
        panic!("37 maximal counters are a valid Stats reply");
    };
    assert!(matches!(frame.response, Response::Stats(_)), "{frame:?}");
    let rendered = format!("{:?}", frame.response);
    assert_eq!(rendered.matches(&u64::MAX.to_string()).count(), 37);
    assert_eq!(encode_frame(&frame).unwrap(), bytes);
}

/// `instances` is a map: a frame that repeats a key, or sends keys out of the
/// order the encoder walks them in, is refused by all three decoders rather
/// than decoded into fewer entries than it declared.
#[test]
fn repeated_or_descending_instance_keys_are_refused() {
    let malformed = Outcome::Refused(discriminant(&WireError::Malformed(String::new())));
    // id 1, `Federated`, four one-byte fields, two (key, service, host) entries.
    let frame = |first: u8, second: u8| {
        let body = [1, 0, 7, 0, 9, 9, 2, first, first, 5, second, second, 6];
        [&(body.len() as u32).to_be_bytes()[..], &body].concat()
    };
    assert!(matches!(decode_response(&frame(3, 4)), Outcome::Value(_)));
    assert_eq!(decode_response(&frame(3, 3)), malformed);
    assert_eq!(decode_response(&frame(4, 3)), malformed);
}

/// A frame of a dozen-odd bytes that declares 2⁶⁰ string bytes, instances
/// or link rows is refused on the declaration: the counting allocator sees
/// only the error message, nothing proportional to the count.
#[test]
fn an_over_declared_count_allocates_nothing_for_it() {
    let declared = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]; // 2⁶⁰
    let refused = |frame: &[u8], is_request: bool| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&(frame.len() as u32).to_be_bytes());
        decoder.feed(frame);
        let (refusal, allocated) = allocated_by(|| {
            if is_request {
                decoder.next_frame::<RequestFrame>().map(drop)
            } else {
                decoder.next_frame::<ResponseFrame>().map(drop)
            }
        });
        assert!(
            matches!(refusal, Err(WireError::Malformed(_))),
            "{refusal:?}"
        );
        assert!(
            allocated <= 256,
            "{allocated} bytes allocated for {frame:?}"
        );
    };
    // id 1, `Federate`, a requirement of 2⁶⁰ bytes, one byte of it.
    refused(&[&[1, 0][..], &declared, b"0"].concat(), true);
    // id 1, `Federated`, four one-byte fields, 2⁶⁰ instances.
    refused(&[&[1, 0, 7, 0, 9, 9][..], &declared].concat(), false);
    // id 1, `LoadMap`, three one-byte fields, 2⁶⁰ rows.
    refused(&[&[1, 5, 0, 0, 0][..], &declared].concat(), false);
}
