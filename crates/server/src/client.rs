//! Clients for the federation wire protocol: a pipelined connection and a
//! blocking convenience wrapper.
//!
//! The wire carries [`RequestFrame`] envelopes; responses come back tagged
//! with the request's id and possibly out of order. [`PipelinedClient`]
//! exposes that directly: [`send`] many frames, then take answers as they
//! arrive with [`recv_any`] (or wait for one specific id with [`recv`], which
//! stashes overtakers). [`Client`] wraps it one-request-at-a-time for callers
//! that want a blocking call shape.
//!
//! Sends are **corked**: [`send`] encodes the frame at the tail of an outbox
//! and the bytes hit the socket on the next [`recv_any`]/[`recv`] (or an
//! explicit [`flush`]). A depth-N burst therefore costs one write syscall,
//! not N — that batching, mirrored by the server's staged write buffer on
//! the way back, is where pipelined throughput comes from. Reads are
//! buffered for the same reason.
//!
//! [`RequestFrame`]: crate::RequestFrame
//! [`send`]: PipelinedClient::send
//! [`recv_any`]: PipelinedClient::recv_any
//! [`recv`]: PipelinedClient::recv
//! [`flush`]: PipelinedClient::flush

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{read_frame, stage_frame};
use crate::{Algorithm, LoadMapSummary, Mutation, Request, Response, ResponseFrame, StatsSnapshot};

/// One connection carrying many requests in flight.
///
/// Ids are assigned by the client, monotonically from 1; id 0 is reserved
/// for server-generated errors not attributable to any request (protocol
/// violations).
#[derive(Debug)]
pub struct PipelinedClient {
    stream: BufReader<TcpStream>,
    /// Encoded frames staged by [`send`] and not yet written.
    ///
    /// [`send`]: PipelinedClient::send
    outbox: Vec<u8>,
    next_id: u64,
    in_flight: usize,
    /// Responses read while waiting for a specific id in [`recv`].
    ///
    /// [`recv`]: PipelinedClient::recv
    stashed: VecDeque<ResponseFrame>,
}

impl PipelinedClient {
    /// Connects to a server (e.g. the address from
    /// [`ServerHandle::addr`](crate::ServerHandle::addr)).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PipelinedClient {
            stream: BufReader::new(stream),
            outbox: Vec::new(),
            next_id: 1,
            in_flight: 0,
            stashed: VecDeque::new(),
        })
    }

    /// Stages one request in the outbox without waiting for its response;
    /// returns the assigned `request_id`. The frame reaches the wire on the
    /// next [`PipelinedClient::recv_any`]/[`PipelinedClient::recv`] or an
    /// explicit [`PipelinedClient::flush`].
    ///
    /// # Errors
    ///
    /// Encoding errors (an oversized request).
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let request_id = self.next_id;
        stage_frame(&mut self.outbox, request_id, request)?;
        self.next_id += 1;
        self.in_flight += 1;
        Ok(request_id)
    }

    /// Writes every staged frame to the socket now.
    ///
    /// # Errors
    ///
    /// I/O errors from the transport.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.outbox.is_empty() {
            self.stream.get_mut().write_all(&self.outbox)?;
            self.outbox.clear();
        }
        Ok(())
    }

    /// Requests sent whose responses have not yet been received (staged
    /// frames included).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Blocks for the next response in arrival order, whichever request it
    /// answers, flushing staged sends first. Stashed responses (set aside
    /// by [`PipelinedClient::recv`]) are drained before the socket.
    ///
    /// # Errors
    ///
    /// I/O or framing errors; a server that hangs up with requests
    /// outstanding surfaces as `UnexpectedEof`.
    pub fn recv_any(&mut self) -> io::Result<ResponseFrame> {
        if let Some(frame) = self.stashed.pop_front() {
            self.in_flight = self.in_flight.saturating_sub(1);
            return Ok(frame);
        }
        self.flush()?;
        let frame: ResponseFrame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Ok(frame)
    }

    /// Blocks for the response to one specific request, flushing staged
    /// sends first and stashing any other response that arrives before it
    /// (later [`PipelinedClient::recv_any`] or `recv` calls see those
    /// before touching the socket again).
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::recv_any`]. An id that was never sent (or was
    /// already received) blocks until the server hangs up.
    pub fn recv(&mut self, request_id: u64) -> io::Result<Response> {
        let at = self.stashed.iter().position(|f| f.request_id == request_id);
        if let Some(frame) = at.and_then(|at| self.stashed.remove(at)) {
            self.in_flight = self.in_flight.saturating_sub(1);
            return Ok(frame.response);
        }
        self.flush()?;
        loop {
            let frame: ResponseFrame = read_frame(&mut self.stream)?
                .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
            if frame.request_id == request_id {
                self.in_flight = self.in_flight.saturating_sub(1);
                return Ok(frame.response);
            }
            self.stashed.push_back(frame);
        }
    }
}

/// One blocking connection to a federation server: each call sends a single
/// request and waits for its answer. A compatibility wrapper over
/// [`PipelinedClient`] — the wire protocol is identical, this handle just
/// never has more than one frame in flight.
#[derive(Debug)]
pub struct Client {
    inner: PipelinedClient,
}

impl Client {
    /// Connects to a server (e.g. the address from
    /// [`ServerHandle::addr`](crate::ServerHandle::addr)).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Client {
            inner: PipelinedClient::connect(addr)?,
        })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// I/O or framing errors; a server that hangs up before answering
    /// surfaces as `UnexpectedEof`.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let id = self.inner.send(request)?;
        self.inner.recv(id)
    }

    /// Federates `requirement` (a chain expression such as `"0>1>3, 0>2>3"`).
    ///
    /// # Errors
    ///
    /// Transport errors only; federation failures come back as
    /// [`Response::Error`].
    pub fn federate(
        &mut self,
        requirement: &str,
        algorithm: Algorithm,
        hop_limit: Option<usize>,
    ) -> io::Result<Response> {
        self.request(&Request::Federate {
            requirement: requirement.to_owned(),
            algorithm,
            hop_limit,
        })
    }

    /// Applies a topology mutation.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn mutate(&mut self, mutation: Mutation) -> io::Result<Response> {
        self.request(&Request::Mutate(mutation))
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the server answers with
    /// anything but `Stats` (a protocol violation).
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Stats, got {other:?}"),
            )),
        }
    }

    /// Closes a live session, releasing its bandwidth reservations.
    ///
    /// # Errors
    ///
    /// Transport errors only; an unknown session comes back as
    /// [`Response::Error`].
    pub fn release(&mut self, session: u64) -> io::Result<Response> {
        self.request(&Request::Release { session })
    }

    /// Runs one rebalancer sweep now.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn rebalance(&mut self) -> io::Result<Response> {
        self.request(&Request::Rebalance)
    }

    /// Fetches the per-link load ledger.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the server answers with
    /// anything but `LoadMap` (a protocol violation).
    pub fn load_map(&mut self) -> io::Result<LoadMapSummary> {
        match self.request(&Request::LoadMap)? {
            Response::LoadMap(summary) => Ok(summary),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected LoadMap, got {other:?}"),
            )),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(&Request::Shutdown)
    }

    /// The underlying pipelined connection, for callers that start blocking
    /// and then want depth (the CLI's `request --concurrency N`).
    pub fn into_pipelined(self) -> PipelinedClient {
        self.inner
    }
}
