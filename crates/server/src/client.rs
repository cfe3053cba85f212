//! The typed client layer of the serving stack: one implementation of
//! connect, wire-protocol framing, request/response correlation and
//! timeouts, shared by every client-side consumer — `asynd submit`,
//! `asynd metrics --watch` (one [`Client`] held across scrapes), the load
//! generator ([`crate::loadgen`]) and the distributed sweep coordinator
//! ([`crate::fleet`]).
//!
//! The layer splits in two:
//!
//! * **Wire primitives** — [`encode_request`], [`ResponseStream`] and
//!   [`Correlator`]: pure, transport-free pieces that speak both
//!   protocols (v1 JSON lines; framed v2) and match responses to
//!   requests the way each protocol defines (v2 synthesize by job id;
//!   everything else in submission order, with id-matching as an
//!   opportunistic fast path). The load generator drives these from its
//!   own nonblocking `poll(2)` loop.
//! * **[`Client`]** — a blocking, reconnecting connection wrapper over
//!   the same primitives with typed `ping` / `synthesize` / `lookup` /
//!   `metrics` / `shutdown` calls and pipelined [`Client::send`] /
//!   [`Client::recv`] for bulk submission. Any transport or protocol
//!   error drops the connection, so the next call transparently
//!   reconnects.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use asynd_circuit::artifact::ScheduleArtifact;
use asynd_circuit::EvaluatorStats;
use asynd_net::frame::{Frame, FrameDecoder, FrameError, FrameKind};
use asynd_telemetry::MetricsSnapshot;
use serde_json::Value;

use crate::protocol::{JobOutcome, JobRequest, LookupRequest, Request, Response};
use crate::ServerError;

/// Which wire protocol a client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireProtocol {
    /// v1 JSON lines.
    V1,
    /// Framed protocol v2.
    V2,
}

impl WireProtocol {
    /// The tag recorded in benchmark records and CLI flags.
    pub fn tag(self) -> &'static str {
        match self {
            WireProtocol::V1 => "v1",
            WireProtocol::V2 => "v2",
        }
    }
}

/// Encodes one request payload for the wire: a newline-terminated line
/// on v1, a request frame on v2.
///
/// # Errors
///
/// On v2, [`FrameError::PayloadTooLarge`] when the payload exceeds the
/// frame cap (v1 lines have no length prefix and cannot fail).
pub fn encode_request(protocol: WireProtocol, payload: &str) -> Result<Vec<u8>, FrameError> {
    match protocol {
        WireProtocol::V1 => {
            let mut bytes = Vec::with_capacity(payload.len() + 1);
            bytes.extend_from_slice(payload.as_bytes());
            bytes.push(b'\n');
            Ok(bytes)
        }
        WireProtocol::V2 => Frame::new(FrameKind::Request, payload.as_bytes().to_vec()).encode(),
    }
}

/// One decoded server-to-client event. Payloads are raw bytes — each
/// consumer parses as strictly or leniently as its role demands (the
/// load generator tolerates anything it can count; [`Client`] parses
/// through [`Response::parse`], which fingerprint-verifies artifacts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// A response payload (one v1 line, or one v2 response frame).
    Response(Vec<u8>),
    /// A v2 progress frame (never settles a request).
    Progress(Vec<u8>),
    /// A v2 goodbye frame: the server is closing this connection.
    Goodbye(Vec<u8>),
}

/// Incremental response splitter for either protocol: feed raw bytes
/// in, pull [`WireEvent`]s out.
pub struct ResponseStream {
    protocol: WireProtocol,
    /// v1 line reassembly buffer (unused on v2).
    lines: Vec<u8>,
    /// v2 frame reassembly (unused on v1).
    decoder: FrameDecoder,
}

impl ResponseStream {
    /// An empty stream for `protocol`.
    pub fn new(protocol: WireProtocol) -> ResponseStream {
        ResponseStream { protocol, lines: Vec::new(), decoder: FrameDecoder::new() }
    }

    /// Appends raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        match self.protocol {
            WireProtocol::V1 => self.lines.extend_from_slice(bytes),
            WireProtocol::V2 => self.decoder.feed(bytes),
        }
    }

    /// The next complete event, or `None` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Protocol`] on a malformed v2 frame; the
    /// stream stays poisoned afterwards (the connection is unusable).
    pub fn next_event(&mut self) -> Result<Option<WireEvent>, ServerError> {
        match self.protocol {
            WireProtocol::V1 => {
                let Some(pos) = self.lines.iter().position(|&b| b == b'\n') else {
                    return Ok(None);
                };
                let mut line: Vec<u8> = self.lines.drain(..=pos).collect();
                line.pop(); // the newline
                Ok(Some(WireEvent::Response(line)))
            }
            WireProtocol::V2 => loop {
                match self.decoder.next_frame() {
                    Ok(None) => return Ok(None),
                    Ok(Some(frame)) => match frame.kind {
                        FrameKind::Response => return Ok(Some(WireEvent::Response(frame.payload))),
                        FrameKind::Progress => return Ok(Some(WireEvent::Progress(frame.payload))),
                        FrameKind::Goodbye => return Ok(Some(WireEvent::Goodbye(frame.payload))),
                        // Client-to-server kinds arriving here are
                        // nonsense; skip them rather than wedging.
                        FrameKind::Request | FrameKind::Cancel => continue,
                    },
                    Err(e) => {
                        return Err(ServerError::Protocol { reason: format!("bad frame: {e}") })
                    }
                }
            },
        }
    }
}

/// How a request's response will be matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Correlation {
    /// Matched in submission order (v1 lines, probes on both protocols).
    Ordered,
    /// Matched by the echoed request id (synthesize/lookup/metrics; v2
    /// synthesize responses arrive in completion order, and v1 probe
    /// responses overtake job responses, so order alone is not enough).
    ById(String),
}

/// Matches responses to pending requests: an id-keyed map over an
/// ordered queue, with the queue as fallback — exactly the discipline
/// both wire protocols guarantee.
pub struct Correlator<T> {
    fifo: VecDeque<T>,
    by_id: HashMap<String, T>,
}

impl<T> Correlator<T> {
    /// An empty correlator.
    pub fn new() -> Correlator<T> {
        Correlator { fifo: VecDeque::new(), by_id: HashMap::new() }
    }

    /// Tracks one sent request.
    pub fn track(&mut self, correlation: Correlation, tag: T) {
        match correlation {
            Correlation::Ordered => self.fifo.push_back(tag),
            Correlation::ById(id) => drop(self.by_id.insert(id, tag)),
        }
    }

    /// Settles a response against its request: by id when the response
    /// names one we track, by submission order otherwise. `None` means
    /// the response was unsolicited.
    pub fn settle(&mut self, id: Option<&str>) -> Option<T> {
        if let Some(id) = id {
            if let Some(tag) = self.by_id.remove(id) {
                return Some(tag);
            }
        }
        self.fifo.pop_front()
    }

    /// Requests still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.fifo.len() + self.by_id.len()
    }

    /// Drops every pending request (connection death).
    pub fn clear(&mut self) {
        self.fifo.clear();
        self.by_id.clear();
    }
}

impl<T> Default for Correlator<T> {
    fn default() -> Self {
        Correlator::new()
    }
}

/// Errors of the typed client.
#[derive(Debug)]
pub enum ClientError {
    /// Connect failed, the transport died, or the server closed the
    /// connection with requests outstanding. The connection is dropped;
    /// the next call reconnects.
    Transport(String),
    /// The server (or a middlebox) sent something the protocol forbids —
    /// a malformed frame, an unparsable response, a fingerprint
    /// mismatch, an unsolicited response. The connection is dropped.
    Protocol(String),
    /// The configured read timeout elapsed with no response. The
    /// connection is kept; the caller may retry or drop the client.
    Timeout,
    /// The server answered with an error response (the request was
    /// delivered and rejected — not a transport problem).
    Server {
        /// Echo of the request id.
        id: String,
        /// The server's failure description.
        error: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(reason) => write!(f, "transport error: {reason}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::Timeout => write!(f, "timed out waiting for a response"),
            ClientError::Server { id, error } => write!(f, "server error for {id:?}: {error}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Configuration of a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Wire protocol to speak. v1 matches the historical CLI behaviour;
    /// the fleet coordinator uses v2.
    pub protocol: WireProtocol,
    /// Per-read timeout. `None` (the default) blocks indefinitely —
    /// synthesis jobs are long. [`ClientError::Timeout`] keeps the
    /// connection so a slow response can still be collected.
    pub read_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions { protocol: WireProtocol::V1, read_timeout: None }
    }
}

/// Live connection state of a [`Client`].
struct Wire {
    stream: TcpStream,
    events: ResponseStream,
    pending: Correlator<u64>,
}

/// A blocking typed client for a live `asynd serve --tcp` server.
///
/// Connects lazily on the first call and reconnects transparently after
/// any transport or protocol error (the error is still reported — only
/// the *next* call dials again). Requests may be pipelined with
/// [`Client::send`] / [`Client::recv`]; the typed convenience calls
/// ([`Client::ping`], [`Client::synthesize`], …) are strictly
/// call-and-response.
pub struct Client {
    addr: String,
    options: ClientOptions,
    wire: Option<Wire>,
    next_token: u64,
}

impl Client {
    /// A v1 client for the server at `addr` (`host:port`). Nothing
    /// connects until the first call.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_options(addr, ClientOptions::default())
    }

    /// A client with explicit protocol/timeout options.
    pub fn with_options(addr: impl Into<String>, options: ClientOptions) -> Client {
        Client { addr: addr.into(), options, wire: None, next_token: 0 }
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The wire protocol this client speaks.
    pub fn protocol(&self) -> WireProtocol {
        self.options.protocol
    }

    /// Whether a connection is currently established.
    pub fn connected(&self) -> bool {
        self.wire.is_some()
    }

    /// Responses still owed on the live connection.
    pub fn outstanding(&self) -> usize {
        self.wire.as_ref().map_or(0, |wire| wire.pending.outstanding())
    }

    /// Drops the connection (pending requests are forgotten). The next
    /// call reconnects.
    pub fn disconnect(&mut self) {
        self.wire = None;
    }

    fn ensure_wire(&mut self) -> Result<&mut Wire, ClientError> {
        if self.wire.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| {
                ClientError::Transport(format!("cannot connect to {}: {e}", self.addr))
            })?;
            stream.set_read_timeout(self.options.read_timeout).map_err(|e| {
                ClientError::Transport(format!("cannot set read timeout on {}: {e}", self.addr))
            })?;
            self.wire = Some(Wire {
                stream,
                events: ResponseStream::new(self.options.protocol),
                pending: Correlator::new(),
            });
        }
        self.wire
            .as_mut()
            .ok_or_else(|| ClientError::Transport(format!("cannot connect to {}", self.addr)))
    }

    /// Sends one request without waiting for its response (pipelining).
    /// Returns a token [`Client::recv`] pairs with the response.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Transport`] when connect or write fails;
    /// the connection is dropped.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let (payload, correlation) = payload_for(request, self.options.protocol);
        let token = self.next_token;
        self.next_token += 1;
        let encoded = encode_request(self.options.protocol, &payload)
            .map_err(|e| ClientError::Protocol(format!("cannot encode request: {e}")))?;
        let wire = self.ensure_wire()?;
        if let Err(e) = wire.stream.write_all(&encoded).and_then(|()| wire.stream.flush()) {
            self.wire = None;
            return Err(ClientError::Transport(format!("write to {} failed: {e}", self.addr)));
        }
        wire.pending.track(correlation, token);
        Ok(token)
    }

    /// Blocks for the next settled response, returning it with the
    /// [`Client::send`] token it answers.
    ///
    /// Progress frames are consumed silently; responses the correlator
    /// cannot attribute are protocol errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on connection loss (pending requests
    /// are forgotten, the connection is dropped),
    /// [`ClientError::Protocol`] on malformed or unsolicited responses
    /// (connection dropped), [`ClientError::Timeout`] when the
    /// configured read timeout elapses (connection kept).
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let addr = self.addr.clone();
        let Some(wire) = self.wire.as_mut() else {
            return Err(ClientError::Transport(format!("not connected to {addr}")));
        };
        if wire.pending.outstanding() == 0 {
            return Err(ClientError::Protocol("no request awaits a response".to_string()));
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match wire.events.next_event() {
                Err(e) => {
                    self.wire = None;
                    return Err(ClientError::Protocol(e.to_string()));
                }
                Ok(Some(WireEvent::Progress(_))) => continue,
                Ok(Some(WireEvent::Goodbye(_))) => {
                    self.wire = None;
                    return Err(ClientError::Transport(format!(
                        "{addr} closed the connection (goodbye) with responses outstanding"
                    )));
                }
                Ok(Some(WireEvent::Response(payload))) => {
                    let response = match std::str::from_utf8(&payload)
                        .map_err(|_| "response is not valid UTF-8".to_string())
                        .and_then(|text| Response::parse(text.trim()).map_err(|e| e.to_string()))
                    {
                        Ok(response) => response,
                        Err(e) => {
                            self.wire = None;
                            return Err(ClientError::Protocol(e));
                        }
                    };
                    let Some(token) = wire.pending.settle(response_id(&response)) else {
                        self.wire = None;
                        return Err(ClientError::Protocol(format!(
                            "unsolicited response from {addr}"
                        )));
                    };
                    return Ok((token, response));
                }
                Ok(None) => match wire.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.wire = None;
                        return Err(ClientError::Transport(format!(
                            "{addr} closed the connection with responses outstanding"
                        )));
                    }
                    Ok(n) => wire.events.feed(&chunk[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Err(ClientError::Timeout);
                    }
                    Err(e) => {
                        self.wire = None;
                        return Err(ClientError::Transport(format!(
                            "read from {addr} failed: {e}"
                        )));
                    }
                },
            }
        }
    }

    /// One call-and-response exchange.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let token = self.send(request)?;
        loop {
            let (settled, response) = self.recv()?;
            if settled == token {
                return Ok(response);
            }
            // A pipelined predecessor settled first; the caller of
            // `call` only wants its own answer.
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// As [`Client::call`]; a non-pong response is a protocol error.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(self.reject_unexpected(other)),
        }
    }

    /// Runs one synthesis job to completion.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server rejects or fails the
    /// job; transport/protocol errors as [`Client::call`]. The outcome's
    /// artifact was fingerprint-verified during response parsing.
    pub fn synthesize(&mut self, request: JobRequest) -> Result<JobOutcome, ClientError> {
        match self.call(&Request::Synthesize(request))? {
            Response::Ok(outcome) => Ok(*outcome),
            Response::Error { id, error } => Err(ClientError::Server { id, error }),
            other => Err(self.reject_unexpected(other)),
        }
    }

    /// Probes the server's registry for a tenant's best artifact.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server has no registry or
    /// rejects the probe; transport/protocol errors as [`Client::call`].
    pub fn lookup(
        &mut self,
        request: LookupRequest,
    ) -> Result<(String, Option<Box<ScheduleArtifact>>), ClientError> {
        match self.call(&Request::Lookup(request))? {
            Response::Lookup { tenant, artifact, .. } => Ok((tenant, artifact)),
            Response::Error { id, error } => Err(ClientError::Server { id, error }),
            other => Err(self.reject_unexpected(other)),
        }
    }

    /// Scrapes the server's telemetry snapshot and per-tenant cache
    /// counters.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on an error response; transport/protocol
    /// errors as [`Client::call`].
    pub fn metrics(
        &mut self,
        id: &str,
    ) -> Result<(MetricsSnapshot, Vec<(String, EvaluatorStats)>), ClientError> {
        match self.call(&Request::Metrics(id.to_string()))? {
            Response::Metrics { snapshot, tenants, .. } => Ok((snapshot, tenants)),
            Response::Error { id, error } => Err(ClientError::Server { id, error }),
            other => Err(self.reject_unexpected(other)),
        }
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// As [`Client::call`]; a non-ack response is a protocol error.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(self.reject_unexpected(other)),
        }
    }

    fn reject_unexpected(&mut self, response: Response) -> ClientError {
        // An out-of-contract response means this connection's framing or
        // correlation can no longer be trusted.
        self.wire = None;
        ClientError::Protocol(format!("unexpected response: {response:?}"))
    }
}

/// Serializes a request for the wire and names how its response will be
/// matched.
fn payload_for(request: &Request, protocol: WireProtocol) -> (String, Correlation) {
    match request {
        Request::Synthesize(job) => {
            let mut value = job.to_json();
            if protocol == WireProtocol::V2 {
                // The blocking client consumes progress frames without
                // surfacing them; opt out instead of paying for them.
                if let Value::Object(map) = &mut value {
                    map.insert("progress", Value::from(false));
                }
            }
            let payload = serde_json::to_string(&value).expect("serialization is infallible"); // asynd-lint: allow(panic-in-hot-path) -- client-built Value, no peer input
            (payload, Correlation::ById(job.id.clone()))
        }
        Request::Lookup(lookup) => {
            let payload =
                serde_json::to_string(&lookup.to_json()).expect("serialization is infallible"); // asynd-lint: allow(panic-in-hot-path) -- client-built Value, no peer input
            (payload, Correlation::ById(lookup.id.clone()))
        }
        Request::Metrics(id) => {
            let payload = format!("{{\"op\":\"metrics\",\"id\":{}}}", Value::from(id.as_str()));
            let correlation =
                if id.is_empty() { Correlation::Ordered } else { Correlation::ById(id.clone()) };
            (payload, correlation)
        }
        Request::Ping => ("{\"op\":\"ping\"}".to_string(), Correlation::Ordered),
        Request::Shutdown => ("{\"op\":\"shutdown\"}".to_string(), Correlation::Ordered),
    }
}

/// The id a response echoes, when its kind carries one (empty ids — a
/// server that could not parse far enough to know — count as absent).
fn response_id(response: &Response) -> Option<&str> {
    let id = match response {
        Response::Ok(outcome) => outcome.id.as_str(),
        Response::Lookup { id, .. } => id.as_str(),
        Response::Metrics { id, .. } => id.as_str(),
        Response::Error { id, .. } => id.as_str(),
        Response::Pong | Response::ShuttingDown => return None,
    };
    (!id.is_empty()).then_some(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_request_matches_both_wire_formats() {
        assert_eq!(
            encode_request(WireProtocol::V1, "{\"op\":\"ping\"}").unwrap(),
            b"{\"op\":\"ping\"}\n"
        );
        let framed = encode_request(WireProtocol::V2, "{\"op\":\"ping\"}").unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&framed);
        let frame = decoder.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.payload, b"{\"op\":\"ping\"}");
    }

    #[test]
    fn v1_stream_splits_lines() {
        let mut stream = ResponseStream::new(WireProtocol::V1);
        stream.feed(b"{\"status\":\"pong\"}\n{\"id\":");
        assert_eq!(
            stream.next_event().unwrap(),
            Some(WireEvent::Response(b"{\"status\":\"pong\"}".to_vec()))
        );
        assert_eq!(stream.next_event().unwrap(), None, "partial line waits for more bytes");
        stream.feed(b"\"x\"}\n");
        assert_eq!(
            stream.next_event().unwrap(),
            Some(WireEvent::Response(b"{\"id\":\"x\"}".to_vec()))
        );
    }

    #[test]
    fn v2_stream_classifies_frames_and_poisons_on_garbage() {
        let mut stream = ResponseStream::new(WireProtocol::V2);
        stream.feed(&Frame::new(FrameKind::Progress, b"p".to_vec()).encode().unwrap());
        stream.feed(&Frame::new(FrameKind::Response, b"r".to_vec()).encode().unwrap());
        stream.feed(&Frame::new(FrameKind::Goodbye, b"g".to_vec()).encode().unwrap());
        assert_eq!(stream.next_event().unwrap(), Some(WireEvent::Progress(b"p".to_vec())));
        assert_eq!(stream.next_event().unwrap(), Some(WireEvent::Response(b"r".to_vec())));
        assert_eq!(stream.next_event().unwrap(), Some(WireEvent::Goodbye(b"g".to_vec())));
        let mut poisoned = ResponseStream::new(WireProtocol::V2);
        poisoned.feed(b"\x00not a frame");
        assert!(poisoned.next_event().is_err());
    }

    #[test]
    fn correlator_matches_by_id_then_order() {
        let mut pending: Correlator<u32> = Correlator::new();
        pending.track(Correlation::Ordered, 1); // a ping
        pending.track(Correlation::ById("job-a".into()), 2);
        pending.track(Correlation::ById("job-b".into()), 3);
        assert_eq!(pending.outstanding(), 3);
        // Jobs settle by id in completion order, overtaking the probe.
        assert_eq!(pending.settle(Some("job-b")), Some(3));
        // The probe's pong (no id) settles in submission order.
        assert_eq!(pending.settle(None), Some(1));
        assert_eq!(pending.settle(Some("job-a")), Some(2));
        assert_eq!(pending.settle(None), None, "unsolicited");
    }

    #[test]
    fn synthesize_payload_carries_id_correlation_and_v2_opts_out_of_progress() {
        let request = Request::Synthesize(JobRequest {
            id: "j1".into(),
            code: crate::protocol::CodeRef { family: "bb".into(), index: 0 },
            noise: crate::protocol::NoiseSpec::Brisbane,
            strategy: crate::protocol::StrategyChoice::Portfolio,
            budget: 32,
            shots: 100,
            seed: 1,
            warm_seed: None,
        });
        let (v1, correlation) = payload_for(&request, WireProtocol::V1);
        assert_eq!(correlation, Correlation::ById("j1".into()));
        assert!(!v1.contains("progress"));
        let (v2, _) = payload_for(&request, WireProtocol::V2);
        assert!(v2.contains("\"progress\":false"));
    }
}
