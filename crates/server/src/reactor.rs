//! The epoll connection plane: non-blocking listener, per-connection state
//! machines, pipelined frames.
//!
//! One `reactor_loop` thread (more with `--reactor-threads N`; connections
//! shard round-robin) owns a [`polling::Poller`] and multiplexes readiness
//! for the listener plus every connection it hosts. The loop does **I/O and
//! framing only**:
//!
//! * a readable connection is drained into its `ConnState`'s incremental
//!   [`FrameDecoder`] — a readiness event may deliver half a length prefix
//!   or three frames and a fragment, and the state machine is indifferent;
//! * each decoded [`RequestFrame`] is answered inline if it is control
//!   plane (`control_response`) or offered to the bounded admission queue
//!   (`admit`) — solves never run on a reactor thread, so the
//!   `guard-across-solve` discipline is untouched;
//! * workers push finished answers back as `Completion`s over a channel
//!   and wake the loop via [`polling::Poller::notify`]; the loop encodes
//!   them in place into the connection's write buffer in completion
//!   order. That is where out-of-order responses come from: a fast `Stats`
//!   overtakes a slow `Federate` pipelined ahead of it.
//!
//! **Backpressure**: a connection whose staged response bytes exceed
//! [`ServerConfig::write_high_water`](crate::ServerConfig::write_high_water)
//! stops being polled for read — and stops draining its own decoder — until
//! the buffer fully drains, so a slow reader bounds its server-side memory
//! at roughly the mark plus one frame instead of ballooning.
//!
//! Nothing in this module may block: no mutexes, no blocking reads or
//! writes, no channel waits. The deny below makes each blocking call
//! `clippy.toml` lists under `disallowed-methods` (`read_exact`,
//! `write_all`, `Receiver::recv`, `Mutex::lock`, `wire::read_frame`, …)
//! a clippy error here. The only wait is the poller's, bounded by a tick
//! so the shutdown flag is always observed.

#![deny(clippy::disallowed_methods)]

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Event, Events, Poller};

use crate::server::{admit, control_response, Job, Shared};
use crate::stats::Metrics;
use crate::wire::{stage_frame, FrameDecoder};
use crate::{Request, RequestFrame, Response};

/// The poller key the (reactor-0) listener is registered under; connections
/// live at `slot + 1`.
const LISTENER_KEY: usize = 0;

/// The poll-wait tick. Doubles as the shutdown poll interval.
const TICK: Duration = Duration::from_millis(100);

/// Per-read scratch size. Level-triggered polling re-delivers readability,
/// so a burst larger than this is picked up by the drain loop, not lost.
const READ_CHUNK: usize = 64 * 1024;

/// How a worker's answer travels back to the reactor that owns the
/// connection: a completion message plus a poller wakeup.
pub(crate) struct Completion {
    /// Which connection, as a generation-tagged token — see [`token`]. A
    /// completion for a token whose connection is gone is dropped silently
    /// (the client hung up mid-flight).
    pub(crate) token: u64,
    /// The `request_id` the client assigned to this request.
    pub(crate) request_id: u64,
    /// The worker's answer.
    pub(crate) response: Response,
}

/// Where a [`Job`]'s answer goes: pushed to the owning reactor as a
/// [`Completion`], followed by a poller wakeup.
pub(crate) struct Reply {
    /// The owning reactor's completion queue.
    completions: Sender<Completion>,
    /// The owning reactor's poller, notified after the send.
    waker: Arc<Poller>,
    /// Generation-tagged connection token.
    token: u64,
    /// Echoed onto the [`ResponseFrame`](crate::ResponseFrame).
    request_id: u64,
}

impl Reply {
    /// Routes `response` back to the reactor that owns the connection. Runs
    /// on a worker thread.
    pub(crate) fn send(self, metrics: &Metrics, response: Response) {
        metrics.frames_in_flight().sub(1);
        let _ = self.completions.send(Completion {
            token: self.token,
            request_id: self.request_id,
            response,
        });
        let _ = self.waker.notify();
    }
}

/// Packs a slab slot and its generation into the token a [`Completion`]
/// carries, so an answer for a closed connection can never be written to a
/// newcomer that reused the slot.
fn token(slot: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | slot as u64
}

/// What [`ConnState::handle_frame`]'s dispatcher did with a request.
pub(crate) enum Dispatch {
    /// Answer now (control plane, shed, shutdown race) — goes straight to
    /// the write buffer.
    Inline(Box<Response>),
    /// Admitted to the worker pool; the answer arrives as a [`Completion`].
    Admitted,
}

/// The per-connection state machine: an incremental frame decoder on the
/// read side, a staged write buffer on the write side, and the pause flag
/// tying them together under backpressure.
///
/// Transport-agnostic — methods take the socket (or, in tests, any
/// `Read`/`Write`) as a parameter — so the machine is unit-testable without
/// a poller.
pub(crate) struct ConnState {
    /// Generation-tagged identity, matched against [`Completion::token`].
    pub(crate) token: u64,
    decoder: FrameDecoder,
    /// Staged response bytes; `write_pos` marks how much is already on the
    /// wire. Compacted on full drain rather than shifted per write.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Frames admitted to the worker pool and not yet completed.
    pub(crate) in_flight: usize,
    /// Read interest parked: staged bytes crossed the high-water mark.
    pub(crate) paused: bool,
    /// Read side finished (clean EOF or protocol error): drain what is
    /// owed, accept nothing new.
    pub(crate) closing: bool,
    /// Transport failed: drop everything owed.
    pub(crate) dead: bool,
}

impl ConnState {
    pub(crate) fn new(token: u64) -> ConnState {
        ConnState {
            token,
            decoder: FrameDecoder::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            in_flight: 0,
            paused: false,
            closing: false,
            dead: false,
        }
    }

    /// Staged bytes not yet written.
    pub(crate) fn write_pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// True once the connection has nothing left to do and can be dropped:
    /// the transport died, or the read side closed and every admitted frame
    /// has been answered and flushed.
    pub(crate) fn finished(&self) -> bool {
        self.dead || (self.closing && self.in_flight == 0 && self.write_pending() == 0)
    }

    /// The poller interest this state wants: readable unless parked or
    /// closing, writable only while bytes are staged.
    pub(crate) fn interest(&self, key: usize) -> Event {
        match (
            !self.paused && !self.closing && !self.dead,
            self.write_pending() > 0 && !self.dead,
        ) {
            (true, true) => Event::all(key),
            (true, false) => Event::readable(key),
            (false, true) => Event::writable(key),
            (false, false) => Event::none(key),
        }
    }

    /// Drains the readable socket into the decoder, then pumps frames. A
    /// level-triggered poller re-arms readability as long as bytes remain,
    /// but draining to `WouldBlock` here keeps wakeups proportional to
    /// bursts, not bytes.
    pub(crate) fn on_readable(
        &mut self,
        io: &mut (impl Read + Write),
        metrics: &Metrics,
        high_water: usize,
        dispatch: &mut impl FnMut(u64, Request) -> Dispatch,
    ) {
        if self.closing || self.dead {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if self.paused || self.closing || self.dead {
                // Crossed high water mid-burst (stop consuming now), or a
                // protocol error already poisoned the stream.
                break;
            }
            match io.read(&mut chunk) {
                Ok(0) => {
                    self.closing = true;
                    if self.decoder.pending() > 0 {
                        // EOF mid-frame: the peer died owing bytes.
                        metrics.wire_errors().inc();
                    }
                    break;
                }
                Ok(n) => {
                    self.decoder.feed(&chunk[..n]);
                    self.pump(io, metrics, high_water, dispatch);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        // No trailing flush: `pump` already flushed after every feed, and a
        // flush *here* could lift a pause outside pump's retry loop, losing
        // the frames the pause left in the decoder.
    }

    /// Decodes and handles buffered frames until the decoder runs dry, the
    /// connection pauses under backpressure, or a protocol error poisons
    /// the stream. Split from [`ConnState::on_readable`] because a drain
    /// that lifts a pause must resume *here*, on bytes that were already
    /// read — no further readiness event will re-deliver them.
    pub(crate) fn pump(
        &mut self,
        io: &mut impl Write,
        metrics: &Metrics,
        high_water: usize,
        dispatch: &mut impl FnMut(u64, Request) -> Dispatch,
    ) {
        loop {
            while !self.paused && !self.closing && !self.dead {
                match self.decoder.next_frame::<RequestFrame>() {
                    Ok(Some(frame)) => self.handle_frame(frame, metrics, high_water, dispatch),
                    Ok(None) => break,
                    Err(e) => {
                        // Count it, answer an unattributed error (reserved
                        // id 0), degrade this connection only.
                        metrics.wire_errors().inc();
                        self.enqueue_response(
                            0,
                            &Response::Error(format!("protocol error: {e}")),
                            metrics,
                            high_water,
                        );
                        self.closing = true;
                        break;
                    }
                }
            }
            let was_paused = self.paused;
            self.flush(io, metrics);
            if !was_paused || self.paused || self.closing || self.dead {
                break;
            }
            // The flush drained everything and lifted the pause while frames
            // are still sitting in the decoder. Their bytes were consumed
            // from the socket before the pause, so no readiness event will
            // re-announce them: keep decoding here or they are lost.
        }
    }

    /// Routes one decoded frame: inline answers go straight to the write
    /// buffer, admitted ones bump `in_flight` and will come back as
    /// completions.
    fn handle_frame(
        &mut self,
        frame: RequestFrame,
        metrics: &Metrics,
        high_water: usize,
        dispatch: &mut impl FnMut(u64, Request) -> Dispatch,
    ) {
        let shutdown = matches!(frame.request, Request::Shutdown);
        match dispatch(frame.request_id, frame.request) {
            Dispatch::Inline(response) => {
                self.enqueue_response(frame.request_id, &response, metrics, high_water);
            }
            // The dispatcher already counted it in the `frames_in_flight`
            // gauge — before the hand-off, see `admit`.
            Dispatch::Admitted => self.in_flight += 1,
        }
        if shutdown {
            // Nothing after a shutdown request is worth parsing.
            self.closing = true;
        }
    }

    /// Accounts one completed frame and stages its response.
    pub(crate) fn complete(
        &mut self,
        request_id: u64,
        response: &Response,
        metrics: &Metrics,
        high_water: usize,
    ) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.enqueue_response(request_id, response, metrics, high_water);
    }

    /// Encodes the response in place at the tail of the write buffer and
    /// parks read interest when the staged bytes cross the high-water mark.
    /// Dropping read interest is the whole backpressure mechanism: TCP flow
    /// control then pushes back on the peer, and this side's memory stays
    /// bounded by the mark plus the frame that crossed it.
    fn enqueue_response(
        &mut self,
        request_id: u64,
        response: &Response,
        metrics: &Metrics,
        high_water: usize,
    ) {
        if self.dead {
            return;
        }
        let staged = self.write_buf.len();
        if let Err(e) = stage_frame(&mut self.write_buf, request_id, response) {
            // A response too large for the wire (oversized LoadMap), which
            // `stage_frame` has already taken back out of the buffer:
            // substitute a typed error so the request is still answered.
            let substitute = Response::Error(format!("unencodable response: {e}"));
            if stage_frame(&mut self.write_buf, request_id, &substitute).is_err() {
                // A short Error string cannot itself be oversized; if
                // encoding still fails the connection is beyond answering —
                // drop it.
                self.mark_dead(metrics);
                return;
            }
        }
        metrics
            .write_buffered_bytes()
            .add((self.write_buf.len() - staged) as u64);
        if !self.paused && self.write_pending() > high_water {
            self.paused = true;
            metrics.backpressure_pauses().inc();
        }
    }

    /// Writes staged bytes until the socket would block or the buffer
    /// drains; a full drain lifts the backpressure pause (the caller then
    /// re-pumps the decoder) and reclaims the buffer.
    pub(crate) fn flush(&mut self, io: &mut impl Write, metrics: &Metrics) {
        if self.dead {
            return;
        }
        while self.write_pending() > 0 {
            match io.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.mark_dead(metrics);
                    return;
                }
                Ok(n) => {
                    self.write_pos += n;
                    metrics.write_buffered_bytes().sub(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.mark_dead(metrics);
                    return;
                }
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        self.paused = false;
    }

    /// Transport failure: drop staged bytes (releasing their gauge) and
    /// mark the connection for teardown.
    fn mark_dead(&mut self, metrics: &Metrics) {
        metrics
            .write_buffered_bytes()
            .sub(self.write_pending() as u64);
        self.write_buf.clear();
        self.write_pos = 0;
        self.dead = true;
    }
}

/// One registered connection: the socket plus its state machine and the
/// interest last told to the poller (so redundant `modify` syscalls are
/// skipped).
struct Conn {
    stream: TcpStream,
    state: ConnState,
    interest: (bool, bool),
}

/// Everything one reactor thread owns.
struct ReactorCtx {
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    /// Streams handed over by the accepting reactor.
    incoming_rx: Receiver<TcpStream>,
    /// Workers' finished answers for connections this reactor owns.
    completion_rx: Receiver<Completion>,
    completion_tx: Sender<Completion>,
    job_tx: Sender<Job>,
}

/// Spawns the reactor plane: `config.reactor_threads` event loops, the
/// first of which owns the listener, accepts, and shards connections
/// round-robin over all loops (itself included). Returns the join handle
/// `ServerHandle` treats as the acceptor: on exit it joins the sibling
/// reactors, releases the admission queue and joins the workers.
///
/// # Errors
///
/// Propagates epoll-instance creation and listener-registration failures
/// (fd exhaustion); everything fallible happens before any thread starts.
pub(crate) fn spawn(
    shared: Arc<Shared>,
    listener: TcpListener,
    job_tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
) -> io::Result<JoinHandle<()>> {
    struct Seed {
        poller: Arc<Poller>,
        incoming_rx: Receiver<TcpStream>,
        completion_tx: Sender<Completion>,
        completion_rx: Receiver<Completion>,
    }
    listener.set_nonblocking(true)?;
    let n = shared.config.reactor_threads.max(1);
    let mut seeds = Vec::with_capacity(n);
    let mut handoff: Vec<(Sender<TcpStream>, Arc<Poller>)> = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Arc::new(Poller::new()?);
        let (incoming_tx, incoming_rx) = unbounded::<TcpStream>();
        let (completion_tx, completion_rx) = unbounded::<Completion>();
        handoff.push((incoming_tx, Arc::clone(&poller)));
        seeds.push(Seed {
            poller,
            incoming_rx,
            completion_tx,
            completion_rx,
        });
    }
    seeds[0]
        .poller
        .add(&listener, Event::readable(LISTENER_KEY))?;

    let mut siblings = Vec::with_capacity(n - 1);
    for seed in seeds.drain(1..).collect::<Vec<_>>() {
        let ctx = ReactorCtx {
            shared: Arc::clone(&shared),
            poller: seed.poller,
            incoming_rx: seed.incoming_rx,
            completion_rx: seed.completion_rx,
            completion_tx: seed.completion_tx,
            job_tx: job_tx.clone(),
        };
        siblings.push(thread::spawn(move || reactor_loop(ctx, None, &[])));
    }

    let sibling_wakers: Vec<Arc<Poller>> =
        handoff.iter().skip(1).map(|(_, p)| Arc::clone(p)).collect();
    let seed = match seeds.pop() {
        Some(seed) => seed,
        None => return Err(io::Error::other("no reactor 0 seed")),
    };
    let ctx = ReactorCtx {
        shared,
        poller: seed.poller,
        incoming_rx: seed.incoming_rx,
        completion_rx: seed.completion_rx,
        completion_tx: seed.completion_tx,
        job_tx,
    };
    Ok(thread::spawn(move || {
        reactor_loop(ctx, Some(&listener), &handoff);
        // Shut the plane down in dependency order: wake and join the
        // sibling loops, then release the admission queue so the workers
        // see disconnect, then join them.
        for waker in &sibling_wakers {
            let _ = waker.notify();
        }
        for sibling in siblings {
            let _ = sibling.join();
        }
        drop(handoff);
        for worker in workers {
            let _ = worker.join();
        }
    }))
}

/// One reactor thread's event loop. `listener` is `Some` only on reactor 0;
/// `handoff` is that reactor's round-robin table over every loop's incoming
/// channel and waker.
fn reactor_loop(
    ctx: ReactorCtx,
    listener: Option<&TcpListener>,
    handoff: &[(Sender<TcpStream>, Arc<Poller>)],
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u32 = 0;
    let mut next_target: usize = 0;
    let mut events = Events::with_capacity(1024);
    loop {
        let _ = ctx.poller.wait(&mut events, Some(TICK));
        ctx.shared.metrics.reactor_wakeups().inc();
        if ctx.shared.shutting_down() {
            break;
        }
        // Workers' completions first: they free write-buffer space and may
        // lift pauses before this wakeup's readiness is processed.
        while let Ok(completion) = ctx.completion_rx.try_recv() {
            apply_completion(&ctx, &mut conns, &mut free, completion);
        }
        // Connections handed over by the accepting reactor.
        while let Ok(stream) = ctx.incoming_rx.try_recv() {
            register(&ctx, &mut conns, &mut free, &mut next_gen, stream);
        }
        for event in events.iter() {
            if event.key == LISTENER_KEY {
                if let Some(listener) = listener {
                    accept_burst(&ctx, listener, handoff, &mut next_target);
                }
                continue;
            }
            service_conn(&ctx, &mut conns, &mut free, event);
        }
    }
    // Best-effort: push out whatever is already staged before dropping the
    // connections; work still in flight at shutdown is abandoned.
    for conn in conns.iter_mut().flatten() {
        conn.state.flush(&mut conn.stream, &ctx.shared.metrics);
        ctx.shared
            .metrics
            .write_buffered_bytes()
            .sub(conn.state.write_pending() as u64);
        ctx.shared.metrics.connections_open().sub(1);
    }
}

/// Accepts until the listener would block, shedding over-cap connections
/// and sharding the rest round-robin across the reactor loops.
fn accept_burst(
    ctx: &ReactorCtx,
    listener: &TcpListener,
    handoff: &[(Sender<TcpStream>, Arc<Poller>)],
    next_target: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let cap = ctx.shared.config.effective_max_connections() as u64;
                if ctx.shared.metrics.connections_open().get() >= cap {
                    drop(stream); // over the cap: shed the connection itself
                    continue;
                }
                ctx.shared.metrics.connections_open().add(1);
                let target = *next_target % handoff.len();
                *next_target = next_target.wrapping_add(1);
                let (tx, waker) = &handoff[target];
                if tx.send(stream).is_err() {
                    ctx.shared.metrics.connections_open().sub(1);
                    continue;
                }
                let _ = waker.notify();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Registers one accepted stream with this reactor: non-blocking, a slab
/// slot, a generation-tagged token, read interest.
fn register(
    ctx: &ReactorCtx,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u32,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        ctx.shared.metrics.connections_open().sub(1);
        return;
    }
    let _ = stream.set_nodelay(true);
    let slot = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    *next_gen = next_gen.wrapping_add(1);
    let state = ConnState::new(token(slot, *next_gen));
    let key = slot + 1;
    if ctx.poller.add(&stream, state.interest(key)).is_err() {
        ctx.shared.metrics.connections_open().sub(1);
        free.push(slot);
        return;
    }
    conns[slot] = Some(Conn {
        stream,
        state,
        interest: (true, false),
    });
}

/// Handles one readiness event for a connection: drain reads, flush writes,
/// then retire or re-arm.
fn service_conn(ctx: &ReactorCtx, conns: &mut [Option<Conn>], free: &mut Vec<usize>, event: Event) {
    let slot = event.key - 1;
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return; // already retired; stale event from the same wait batch
    };
    let tok = conn.state.token;
    if event.readable {
        let mut dispatch = dispatcher(ctx, tok);
        conn.state.on_readable(
            &mut conn.stream,
            &ctx.shared.metrics,
            ctx.shared.config.write_high_water,
            &mut dispatch,
        );
    }
    if event.writable {
        conn.state.flush(&mut conn.stream, &ctx.shared.metrics);
        if !conn.state.paused {
            // The drain lifted a pause (or there never was one): frames the
            // pause left sitting in the decoder must be pumped now — their
            // bytes were consumed from the socket long ago, so no readiness
            // event will ever re-announce them.
            let mut dispatch = dispatcher(ctx, tok);
            conn.state.pump(
                &mut conn.stream,
                &ctx.shared.metrics,
                ctx.shared.config.write_high_water,
                &mut dispatch,
            );
        }
    }
    settle(ctx, conns, free, slot);
}

/// Builds the frame dispatcher for one connection: control plane inline,
/// data plane through [`admit`] with a reply routed back to this reactor.
fn dispatcher<'a>(ctx: &'a ReactorCtx, token: u64) -> impl FnMut(u64, Request) -> Dispatch + 'a {
    move |request_id, request| {
        if let Some(response) = control_response(&ctx.shared, &request) {
            return Dispatch::Inline(Box::new(response));
        }
        let reply = Reply {
            completions: ctx.completion_tx.clone(),
            waker: Arc::clone(&ctx.poller),
            token,
            request_id,
        };
        admit(&ctx.shared.metrics, &ctx.job_tx, Job { request, reply })
    }
}

/// Routes one worker completion to its connection — unless the generation
/// token says that connection is gone, in which case the answer dies here.
fn apply_completion(
    ctx: &ReactorCtx,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    completion: Completion,
) {
    let slot = (completion.token & u64::from(u32::MAX)) as usize;
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return;
    };
    if conn.state.token != completion.token {
        return; // the slot was reused; this answer's connection hung up
    }
    conn.state.complete(
        completion.request_id,
        &completion.response,
        &ctx.shared.metrics,
        ctx.shared.config.write_high_water,
    );
    conn.state.flush(&mut conn.stream, &ctx.shared.metrics);
    if !conn.state.paused {
        let tok = conn.state.token;
        let mut dispatch = dispatcher(ctx, tok);
        conn.state.pump(
            &mut conn.stream,
            &ctx.shared.metrics,
            ctx.shared.config.write_high_water,
            &mut dispatch,
        );
    }
    settle(ctx, conns, free, slot);
}

/// Retires or re-arms one connection after I/O or a completion.
fn settle(ctx: &ReactorCtx, conns: &mut [Option<Conn>], free: &mut Vec<usize>, slot: usize) {
    let finished = match conns.get_mut(slot).and_then(Option::as_mut) {
        Some(conn) => {
            if conn.state.finished() {
                true
            } else {
                rearm(ctx, conn, slot);
                false
            }
        }
        None => return,
    };
    if finished {
        retire(ctx, conns, slot);
        free.push(slot);
    }
}

/// Unregisters and drops one finished connection.
fn retire(ctx: &ReactorCtx, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns[slot].take() {
        let _ = ctx.poller.delete(&conn.stream);
        ctx.shared
            .metrics
            .write_buffered_bytes()
            .sub(conn.state.write_pending() as u64);
        ctx.shared.metrics.connections_open().sub(1);
    }
}

/// Tells the poller this connection's current interest, skipping the
/// syscall when nothing changed.
fn rearm(ctx: &ReactorCtx, conn: &mut Conn, slot: usize) {
    let want = conn.state.interest(slot + 1);
    let now = (want.readable, want.writable);
    if now != conn.interest {
        conn.interest = now;
        let _ = ctx.poller.modify(&conn.stream, want);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use crossbeam::channel::bounded;

    /// Regression for the `frames_in_flight` gauge race: a worker that
    /// finishes a job before the dispatcher has returned to `handle_frame`
    /// must find the frame already counted, or its `sub(1)` drives the gauge
    /// through zero and a `Stats` answered on another reactor
    /// reads 18446744073709551615.
    #[test]
    fn a_completion_that_beats_the_dispatcher_never_underflows_the_gauge() {
        const FRAMES: u64 = 4;
        let metrics = Metrics::default();
        let gauge = || metrics.frames_in_flight().get();
        let poller = Arc::new(Poller::new().unwrap());
        let (completion_tx, completion_rx) = unbounded::<Completion>();
        let (job_tx, job_rx) = bounded::<Job>(1);

        let mut conn = ConnState::new(token(0, 1));
        let conn_token = conn.token;
        for request_id in 1..=FRAMES {
            let frame = RequestFrame {
                request_id,
                request: Request::Rebalance,
            };
            conn.decoder.feed(&encode_frame(&frame).unwrap());
        }
        let reply = |request_id| Reply {
            completions: completion_tx.clone(),
            waker: Arc::clone(&poller),
            token: conn_token,
            request_id,
        };
        let mut admitted = 0u64;
        let mut dispatch = |request_id, request| {
            let reply = reply(request_id);
            let outcome = admit(&metrics, &job_tx, Job { request, reply });
            assert!(matches!(outcome, Dispatch::Admitted));
            admitted += 1;
            // The worker wins the race: it takes the job and completes it
            // while the dispatcher is still on its way back.
            let job = job_rx.try_recv().unwrap();
            job.reply.send(&metrics, Response::Released { session: 0 });
            assert!(gauge() <= admitted, "gauge {} underflowed", gauge());
            outcome
        };
        conn.pump(&mut Vec::new(), &metrics, usize::MAX, &mut dispatch);
        assert_eq!(admitted, FRAMES);
        assert_eq!(conn.in_flight, FRAMES as usize);
        assert_eq!(gauge(), 0, "every admitted frame completed");
        while let Ok(done) = completion_rx.try_recv() {
            conn.complete(done.request_id, &done.response, &metrics, usize::MAX);
        }
        assert_eq!(conn.in_flight, 0);

        // A refused frame leaves the gauge where it found it: the queue
        // (capacity 1, no worker draining it) admits one job and sheds the
        // next.
        let job = |request_id| Job {
            request: Request::Rebalance,
            reply: reply(request_id),
        };
        assert!(matches!(
            admit(&metrics, &job_tx, job(5)),
            Dispatch::Admitted
        ));
        match admit(&metrics, &job_tx, job(6)) {
            Dispatch::Inline(response) => assert_eq!(*response, Response::Overloaded),
            Dispatch::Admitted => panic!("a full queue must shed"),
        }
        assert_eq!(gauge(), 1, "only the admitted frame is in flight");
        assert_eq!(metrics.snapshot(0).shed, 1);
    }
}
