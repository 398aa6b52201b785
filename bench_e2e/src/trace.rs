//! The traced run: spans recorded by the benchmark itself, around the calls
//! into each layer.
//!
//! Two sources share one span table and one request identifier per op:
//!
//! * [`TracedClient`] speaks the wire protocol with the same public codec
//!   pieces as `PipelinedClient` (`encode_frame`, `FrameDecoder`) and records
//!   a root `op` span per request with children `client.encode`,
//!   `wire.wait` (flush → the read that delivered the frame) and
//!   `client.decode`.
//! * [`Shadow`] replays the same op list single-threaded through the public
//!   layer calls in the order the server makes them, each call a child of
//!   that op's `shadow.op` span. What `wire.wait` holds beyond the shadow
//!   stages is what outside timing cannot see (socket, reactor, queue hop,
//!   locks) and in-program tracing must later split.
//!
//! Spans stay in memory and are written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sflow_core::repair::repair;
use sflow_core::{FlowGraph, ServiceRequirement, Solver};
use sflow_server::load::links_of;
use sflow_server::wire::{encode_frame, FrameDecoder};
use sflow_server::{
    Algorithm, FlowSummary, LoadMap, LoadPlane, Request, RequestFrame, Response, ResponseFrame,
    SolveKey, World,
};

use crate::plan::{Op, Plan};
use crate::round::{request_ids, Harness, Link, Wire};

/// One recorded interval. `parent` indexes the span table; spans of one
/// request share `request`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The in-memory span table of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub table: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            table: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        (t - self.epoch).as_secs_f64() * 1e6
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.table.push(Span {
            parent,
            request,
            name,
            start_us: self.at(start),
            end_us: self.at(end),
        });
        self.table.len() - 1
    }

    /// Runs `call` as a child span of `parent`.
    fn child<T>(&mut self, parent: usize, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let request = self.table[parent].request;
        self.push(Some(parent), request, name, start, Instant::now());
        out
    }

    /// Each span's self time: its duration minus what its children cover.
    pub fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.table.iter().map(Span::micros).collect();
        for span in &self.table {
            if let Some(parent) = span.parent {
                own[parent] -= span.micros();
            }
        }
        own
    }

    /// Durations of every span called `name`, in table order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let named = self.table.iter().filter(|s| s.name == name);
        named.map(Span::micros).collect()
    }

    /// Writes the table as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_micros();
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (id, (span, own)) in self.table.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if id + 1 == self.table.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {own:.3}}}{comma}",
                span.request, span.name, span.start_us, span.end_us
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// A pipelined wire client that records what it does.
pub struct TracedClient {
    stream: TcpStream,
    outbox: Vec<u8>,
    decoder: FrameDecoder,
    next_id: u64,
    /// Request ids are per connection; `base` keeps them unique per run.
    base: u64,
    /// Root span and flush instant of every request still in flight.
    open: BTreeMap<u64, (usize, Option<Instant>)>,
    last_read: Instant,
    pub spans: Spans,
}

impl TracedClient {
    /// Connects, continuing `spans`; requests are numbered from `base + 1`
    /// in the span table.
    pub fn connect(addr: SocketAddr, spans: Spans, base: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TracedClient {
            stream,
            outbox: Vec::new(),
            decoder: FrameDecoder::new(),
            next_id: 1,
            base,
            open: BTreeMap::new(),
            last_read: Instant::now(),
            spans,
        })
    }

    /// Requests sent so far on this connection.
    pub fn sent(&self) -> u64 {
        self.next_id - 1
    }
}

impl Wire for TracedClient {
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let start = Instant::now();
        let request_id = self.next_id;
        let bytes = encode_frame(&RequestFrame {
            request_id,
            request: request.clone(),
        })
        .map_err(io::Error::from)?;
        let encoded = Instant::now();
        self.next_id += 1;
        self.outbox.extend_from_slice(&bytes);
        let tag = self.base + request_id;
        // The root's end is patched when the response has been decoded.
        let root = self.spans.push(None, tag, "op", start, start);
        self.spans
            .push(Some(root), tag, "client.encode", start, encoded);
        self.open.insert(request_id, (root, None));
        Ok(request_id)
    }

    fn recv_any(&mut self) -> io::Result<ResponseFrame> {
        if !self.outbox.is_empty() {
            self.stream.write_all(&self.outbox)?;
            self.outbox.clear();
            let flushed = Instant::now();
            for (_, since) in self.open.values_mut() {
                since.get_or_insert(flushed);
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let start = Instant::now();
            let frame = self
                .decoder
                .next_frame::<ResponseFrame>()
                .map_err(io::Error::from)?;
            if let Some(frame) = frame {
                let decoded = Instant::now();
                if let Some((root, flushed)) = self.open.remove(&frame.request_id) {
                    let tag = self.spans.table[root].request;
                    let flushed = flushed.unwrap_or(self.last_read);
                    self.spans
                        .push(Some(root), tag, "wire.wait", flushed, self.last_read);
                    self.spans
                        .push(Some(root), tag, "client.decode", start, decoded);
                    self.spans.table[root].end_us = self.spans.at(decoded);
                }
                return Ok(frame);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.last_read = Instant::now();
            self.decoder.feed(&chunk[..n]);
        }
    }
}

struct ShadowSession {
    forest: usize,
    /// Non-empty on the forest's holder only, as in the server.
    links: Vec<(Link, u64)>,
}

struct ShadowForest {
    /// Catalogue index of the requirement every member federated.
    entry: usize,
    key: SolveKey,
    epoch: u64,
    flow: FlowGraph,
    members: Vec<usize>,
}

/// A single-threaded model of the server's admission path over the public
/// layer calls: same solve cache, same forests, same ledger arithmetic.
pub struct Shadow<'a> {
    harness: &'a Harness,
    world: World,
    plane: Arc<LoadPlane>,
    sessions: BTreeMap<usize, ShadowSession>,
    forests: BTreeMap<usize, ShadowForest>,
    by_key: BTreeMap<SolveKey, usize>,
    next_forest: usize,
    loaded: Link,
}

fn same_flow(a: &FlowGraph, b: &FlowGraph) -> bool {
    a.selection() == b.selection() && a.quality() == b.quality() && a.edges() == b.edges()
}

impl<'a> Shadow<'a> {
    pub fn new(harness: &'a Harness) -> Self {
        let mut world = World::new(harness.fixture.clone());
        world.set_route_workers(1);
        let plane = Arc::new(LoadPlane::fresh(&world.snapshot()));
        Shadow {
            harness,
            world,
            plane,
            sessions: BTreeMap::new(),
            forests: BTreeMap::new(),
            by_key: BTreeMap::new(),
            next_forest: 0,
            loaded: harness.loaded_link(&[]),
        }
    }

    /// The shadow's ledger, in the server's link order.
    pub fn ledger(&self) -> Vec<(Link, u64)> {
        self.plane.map().iter_reserved().collect()
    }

    /// Replays `plan` once: the prefill unrecorded, then every measured op
    /// as a `shadow.op` span with one child per layer call, under the
    /// request id the op had in the first traced round.
    pub fn replay(&mut self, plan: &Plan, spans: &mut Spans) {
        let mut scratch = Spans::new();
        for &op in &plan.prefill {
            self.op(op, &mut scratch, 0);
        }
        self.loaded = self.harness.loaded_link(&self.ledger());
        let measured = plan.latency.iter().chain(&plan.throughput);
        for (&op, request) in measured.zip(request_ids(plan)) {
            self.op(op, spans, request);
        }
    }

    fn op(&mut self, op: Op, spans: &mut Spans, request: u64) {
        let start = Instant::now();
        let root = spans.push(None, request, "shadow.op", start, start);
        let response = match op {
            Op::Federate { key, slot } => self.federate(key, slot, spans, root),
            Op::Release { slot } => self.release(slot, spans, root),
            Op::Mutate { restore } => self.mutate(restore, spans, root),
        };
        spans.child(root, "wire.encode_response", || {
            std::hint::black_box(encode_frame(&ResponseFrame {
                request_id: request,
                response,
            }))
            .ok()
        });
        spans.table[root].end_us = spans.at(Instant::now());
    }

    fn federate(&mut self, key: usize, slot: usize, spans: &mut Spans, root: usize) -> Response {
        let spec = &self.harness.catalogue[key].spec;
        let (requirement, solve_key) = spans.child(root, "core.parse_key", || {
            let requirement: ServiceRequirement = spec.parse().expect("catalogue entries parse");
            let solve_key = SolveKey {
                requirement: requirement.canonical_key(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            };
            (requirement, solve_key)
        });
        let snapshot = self.world.snapshot();
        let cached = spans.child(root, "snapshot.cached_solve", || {
            snapshot.cached_solve(&solve_key)
        });
        // Warm path first; a cached flow that no longer fits the residual
        // plane is evicted and the request falls through to a cold solve.
        let warm = cached.filter(|flow| {
            let opened = self.open(key, &solve_key, flow, true, slot, spans, root);
            if !opened {
                snapshot.evict_solve(&solve_key);
            }
            opened
        });
        let flow = warm.unwrap_or_else(|| {
            let ctx = if self.plane.map().is_empty() {
                snapshot.context()
            } else {
                self.plane.context()
            };
            let flow = spans.child(root, "core.solve", || {
                Solver::new(&ctx)
                    .solve(&requirement)
                    .expect("catalogue entries federate")
            });
            let flow = snapshot.cache_solve(solve_key.clone(), flow);
            let opened = self.open(key, &solve_key, &flow, false, slot, spans, root);
            assert!(opened, "a cold open is never refused");
            flow
        });
        Response::Federated(FlowSummary {
            session: slot as u64,
            epoch: snapshot.epoch(),
            bandwidth_kbps: flow.quality().bandwidth.as_kbps(),
            latency_us: flow.quality().latency.as_micros(),
            instances: flow.instances().clone(),
        })
    }

    /// The server's `open_session`: attach to the key's live forest when the
    /// flow matches, else found one and book it. `false` when a cached flow
    /// no longer fits the residual plane.
    #[allow(clippy::too_many_arguments)]
    fn open(
        &mut self,
        entry: usize,
        key: &SolveKey,
        flow: &Arc<FlowGraph>,
        revalidate: bool,
        slot: usize,
        spans: &mut Spans,
        root: usize,
    ) -> bool {
        let snapshot = self.world.snapshot();
        let attach = self.by_key.get(key).copied().filter(|fid| {
            let forest = &self.forests[fid];
            forest.epoch == snapshot.epoch() && same_flow(&forest.flow, flow)
        });
        if let Some(fid) = attach {
            self.forests
                .get_mut(&fid)
                .expect("attach target is live")
                .members
                .push(slot);
            self.sessions.insert(
                slot,
                ShadowSession {
                    forest: fid,
                    links: Vec::new(),
                },
            );
            return true;
        }
        let links = spans.child(root, "load.links_of", || links_of(flow, snapshot.overlay()));
        if revalidate && !spans.child(root, "load.fits", || self.plane.fits(&links)) {
            return false;
        }
        let fid = self.next_forest;
        self.next_forest += 1;
        self.forests.insert(
            fid,
            ShadowForest {
                entry,
                key: key.clone(),
                epoch: snapshot.epoch(),
                flow: flow.as_ref().clone(),
                members: vec![slot],
            },
        );
        self.by_key.insert(key.clone(), fid);
        let plane = &self.plane;
        let booked = spans.child(root, "load.patch", || plane.with_changes(&links, &[], 1));
        self.plane = Arc::new(booked);
        self.sessions
            .insert(slot, ShadowSession { forest: fid, links });
        true
    }

    fn release(&mut self, slot: usize, spans: &mut Spans, root: usize) -> Response {
        let mut closed = self
            .sessions
            .remove(&slot)
            .expect("the plan releases live sessions");
        let forest = self
            .forests
            .get_mut(&closed.forest)
            .expect("sessions point at live forests");
        forest.members.retain(|&m| m != slot);
        match forest.members.first() {
            Some(heir) => {
                if !closed.links.is_empty() {
                    let heir = self.sessions.get_mut(heir).expect("members are live");
                    heir.links = std::mem::take(&mut closed.links);
                }
            }
            None => {
                let gone = self.forests.remove(&closed.forest).expect("checked above");
                if self.by_key.get(&gone.key) == Some(&closed.forest) {
                    self.by_key.remove(&gone.key);
                }
            }
        }
        if !closed.links.is_empty() {
            let plane = &self.plane;
            let next = spans.child(root, "load.patch", || {
                plane.with_changes(&[], &closed.links, 1)
            });
            self.plane = Arc::new(next);
        }
        Response::Released {
            session: slot as u64,
        }
    }

    /// The server's `mutate`: apply, repair every session, re-pin each
    /// forest's holder, rebase the ledger.
    fn mutate(&mut self, restore: bool, spans: &mut Spans, root: usize) -> Response {
        let mutation = self.harness.link_mutation(self.loaded, restore);
        let world = &mut self.world;
        spans
            .child(root, "world.apply", || world.apply(&mutation))
            .expect("mutation targets are overlay links");
        let snapshot = self.world.snapshot();
        let ctx = snapshot.context();
        let mut repaired = 0;
        for forest in self.forests.values_mut() {
            let spec = &self.harness.catalogue[forest.entry].spec;
            let requirement: ServiceRequirement = spec.parse().expect("catalogue entries parse");
            // The server repairs every member; identical inputs give every
            // member the same flow, so the shadow pays for each and keeps one.
            let previous = forest.flow.clone();
            for _ in &forest.members {
                let outcome = spans
                    .child(root, "core.repair", || {
                        repair(&ctx, &requirement, &previous)
                    })
                    .expect("QoS changes leave every requirement feasible");
                forest.flow = outcome.flow;
                repaired += 1;
            }
            forest.epoch = snapshot.epoch();
            let links = links_of(&forest.flow, snapshot.overlay());
            for (i, member) in forest.members.iter().enumerate() {
                let session = self.sessions.get_mut(member).expect("members are live");
                session.links = if i == 0 { links.clone() } else { Vec::new() };
            }
        }
        let map = LoadMap::from_reservations(
            self.sessions.values().flat_map(|s| s.links.iter().copied()),
        );
        self.plane = Arc::new(spans.child(root, "load.rebase", || {
            LoadPlane::rebased(&snapshot, map, 1)
        }));
        Response::Mutated {
            epoch: snapshot.epoch(),
            repaired,
            dropped: 0,
        }
    }
}
