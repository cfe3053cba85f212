//! The reactor serving layer: a nonblocking `poll(2)` event loop that
//! multiplexes every TCP connection of an `asynd serve --tcp` process
//! over a handful of threads, speaking both wire protocols.
//!
//! # Architecture
//!
//! [`serve_tcp_with`] starts `N` *reactor* threads (default one).
//! Reactor 0 owns the listener and distributes accepted connections
//! round-robin across all reactors through per-reactor inboxes; each
//! reactor then owns its connections outright — their buffers, parser
//! state and job bookkeeping are plain single-threaded data, never
//! locked. The only cross-thread traffic is job completion: a worker
//! finishing a job pushes a `JobEvent` onto the owning reactor's
//! completion queue and rings its [`Waker`], which the reactor polls
//! alongside its sockets.
//!
//! # Protocols
//!
//! The wire protocol is autodetected per connection from the first byte:
//! [`FRAME_MAGIC`] selects framed protocol v2, anything else the v1
//! JSON-lines protocol. A v1 connection runs the same sans-IO
//! `LineSession` that [`serve_lines`] drives over stdio, so both
//! transports answer alike: probes and protocol errors immediately, job
//! responses strictly in submission order, and `shutdown` drains pending
//! jobs, acks and stops the whole server. v2 frames job responses by id
//! instead of by order, streams [`ProgressUpdate`] lifecycle events, and
//! supports client-initiated cancellation of queued jobs (running jobs
//! complete; see [`CancelRequest`]).
//!
//! # Backpressure
//!
//! Two signals stop a connection from being read: an outbound buffer
//! above [`WRITE_HIGH_WATER`] (resumed below [`WRITE_LOW_WATER`]), and
//! a full job queue — submissions that cannot be enqueued are *deferred*
//! per connection and retried from the event loop, never rejected and
//! never blocking the reactor. Both states simply drop read interest, so
//! a slow or flooding client throttles itself via TCP while every other
//! connection keeps its latency.
//!
//! # Determinism
//!
//! Reactors only move bytes and order submissions; job *results* are a
//! pure function of each request (see the crate docs' determinism
//! contract), so the reactor count and connection interleaving can shift
//! scheduling and response order between independent jobs, but never the
//! bits of any job's result.
//!
//! [`serve_lines`]: crate::serve_lines

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use asynd_net::frame::{Frame, FrameDecoder, FrameKind, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
use asynd_net::{wake_pair, Connection, Interest, PollEvent, PollSet, WakeReceiver, Waker};
use asynd_telemetry::{labeled, Counter, Gauge, MetricsRegistry};
use serde_json::{Map, Value};

use crate::lock_unpoisoned;
use crate::protocol::{CancelRequest, ProgressUpdate, Request, Response};
use crate::server::{JobSink, QueuedJob, ScheduleServer, JOB_CANCELLED, JOB_QUEUED};
use crate::session::LineSession;

/// Outbound bytes above which a connection stops being read (write
/// backpressure engages).
pub const WRITE_HIGH_WATER: usize = 1 << 20;

/// Outbound bytes below which a paused connection resumes being read
/// (hysteresis, so a client hovering at the boundary does not flap).
pub const WRITE_LOW_WATER: usize = 64 << 10;

/// Poll token of the reactor's wakeup channel.
const TOKEN_WAKE: u64 = 0;
/// Poll token of the listener (reactor 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First token handed to a connection; tokens are never reused, so a
/// late [`JobEvent`] for a dropped connection falls into the void
/// instead of landing on a stranger.
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll timeout when every connection is idle.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Poll timeout while deferred submissions are waiting for queue space.
const RETRY_POLL: Duration = Duration::from_millis(2);

/// Configuration of [`serve_tcp_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorOptions {
    /// Reactor (event loop) threads. `0` is treated as `1`. One reactor
    /// comfortably drives thousands of connections; more reactors spread
    /// parsing and serialization over cores.
    pub reactors: usize,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions { reactors: 1 }
    }
}

/// A worker→reactor completion event, routed by connection token.
enum JobEvent {
    /// A job finished; `seq` orders v1 emission, `id` keys v2 frames.
    Done { conn: u64, seq: u64, id: String, response: Response },
    /// A lifecycle event of a running job (v2 streams these).
    Progress { conn: u64, update: ProgressUpdate },
}

/// The worker-side handle of one reactor-submitted job: where its
/// response (and optional progress stream) is delivered.
pub(crate) struct ReactorSink {
    events: Arc<Mutex<VecDeque<JobEvent>>>,
    waker: Arc<Waker>,
    conn: u64,
    seq: u64,
    id: String,
    want_progress: bool,
}

impl ReactorSink {
    pub(crate) fn done(&self, response: Response) {
        let event =
            JobEvent::Done { conn: self.conn, seq: self.seq, id: self.id.clone(), response };
        lock_unpoisoned(&self.events).push_back(event);
        self.waker.wake();
    }

    pub(crate) fn progress(&self, update: ProgressUpdate) {
        if !self.want_progress {
            return;
        }
        let event = JobEvent::Progress { conn: self.conn, update };
        lock_unpoisoned(&self.events).push_back(event);
        self.waker.wake();
    }
}

/// Per-reactor telemetry, labelled by reactor index.
struct ReactorMetrics {
    connections: Gauge,
    accepted: Counter,
    frames: Counter,
    wakeups: Counter,
}

impl ReactorMetrics {
    fn register(registry: &MetricsRegistry, index: usize) -> ReactorMetrics {
        let idx = index.to_string();
        let labels: &[(&str, &str)] = &[("reactor", &idx)];
        ReactorMetrics {
            connections: registry.gauge(&labeled("asynd_reactor_connections", labels)),
            accepted: registry.counter(&labeled("asynd_reactor_accepted_total", labels)),
            frames: registry.counter(&labeled("asynd_reactor_frames_total", labels)),
            wakeups: registry.counter(&labeled("asynd_reactor_wakeups_total", labels)),
        }
    }
}

/// Everything a connection handler needs besides the connection itself.
struct Ctx<'s> {
    server: &'s ScheduleServer,
    /// This reactor's index — also the queue shard it submits to, so a
    /// connection's jobs stay cache-adjacent to one worker's home shard.
    index: usize,
    events: Arc<Mutex<VecDeque<JobEvent>>>,
    waker: Arc<Waker>,
    shutdown: Arc<AtomicBool>,
    all_wakers: Vec<Arc<Waker>>,
    inboxes: Vec<Arc<Mutex<VecDeque<TcpStream>>>>,
    metrics: ReactorMetrics,
}

/// Serves both wire protocols over TCP on `options.reactors` event-loop
/// threads. See the module docs for the architecture and protocol
/// semantics.
///
/// Returns after a client requests shutdown (v1 `{"op":"shutdown"}`
/// line or v2 shutdown request frame) and every open connection has
/// drained and closed.
///
/// # Errors
///
/// Returns reactor-loop I/O errors (listener accept failures, a broken
/// wakeup channel). Per-connection errors only end that connection.
pub fn serve_tcp_with(
    server: &ScheduleServer,
    listener: TcpListener,
    options: ReactorOptions,
) -> std::io::Result<()> {
    let reactors = options.reactors.max(1);
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut wakers = Vec::with_capacity(reactors);
    let mut receivers = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (waker, receiver) = wake_pair()?;
        wakers.push(Arc::new(waker));
        receivers.push(receiver);
    }
    let inboxes: Vec<Arc<Mutex<VecDeque<TcpStream>>>> =
        (0..reactors).map(|_| Arc::new(Mutex::new(VecDeque::new()))).collect();
    let mut listener = Some(listener);
    std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(index, wake_rx)| {
                let reactor = Reactor {
                    ctx: Ctx {
                        server,
                        index,
                        events: Arc::new(Mutex::new(VecDeque::new())),
                        waker: Arc::clone(&wakers[index]),
                        shutdown: Arc::clone(&shutdown),
                        all_wakers: wakers.clone(),
                        inboxes: inboxes.clone(),
                        metrics: ReactorMetrics::register(server.telemetry(), index),
                    },
                    wake_rx,
                    listener: if index == 0 { listener.take() } else { None },
                    conns: BTreeMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    next_assign: 0,
                };
                std::thread::Builder::new()
                    .name(format!("asynd-reactor-{index}"))
                    .spawn_scoped(scope, move || reactor.run())
                    .expect("spawning a reactor thread failed") // asynd-lint: allow(panic-in-hot-path) -- startup-time OS failure, not peer input; nothing is serving yet
            })
            .collect();
        let mut first_err = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// One event-loop thread: owns its connections, polls them plus its
/// wakeup channel (and the listener, on reactor 0).
struct Reactor<'s> {
    ctx: Ctx<'s>,
    wake_rx: WakeReceiver,
    listener: Option<TcpListener>,
    /// Owned connections by token. A `BTreeMap` so poll registration
    /// and sweep visit connections in a stable (token) order run to run.
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Round-robin cursor for distributing accepted connections.
    next_assign: usize,
}

impl Reactor<'_> {
    fn run(mut self) -> std::io::Result<()> {
        let mut set = PollSet::new();
        loop {
            self.adopt_pending();
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                // Stop accepting; serve the connections that remain
                // until they drain, then exit.
                self.listener = None;
                let inbox_empty = lock_unpoisoned(&self.ctx.inboxes[self.ctx.index]).is_empty();
                if self.conns.is_empty() && inbox_empty {
                    return Ok(());
                }
            }
            set.clear();
            set.register(&self.wake_rx, TOKEN_WAKE, Interest::READABLE);
            if let Some(listener) = &self.listener {
                set.register(listener, TOKEN_LISTENER, Interest::READABLE);
            }
            let mut deferred = false;
            for (&token, conn) in &self.conns {
                deferred |= !conn.deferred.is_empty();
                let interest = Interest {
                    readable: !conn.paused() && !conn.io.read_closed(),
                    writable: conn.io.wants_write(),
                };
                set.register(&conn.io, token, interest);
            }
            let timeout = if deferred { RETRY_POLL } else { IDLE_POLL };
            set.poll(Some(timeout))?;
            let events: Vec<PollEvent> = set.events().collect();
            for event in &events {
                match event.token {
                    TOKEN_WAKE => {
                        self.wake_rx.drain();
                        self.ctx.metrics.wakeups.inc();
                    }
                    TOKEN_LISTENER => self.accept_burst()?,
                    token if event.readable || event.closed => self.conn_readable(token),
                    // Write readiness is handled by the maintenance
                    // flush below.
                    _ => {}
                }
            }
            self.adopt_pending();
            self.drain_events();
            self.sweep();
        }
    }

    /// Accepts until the listener would block, distributing connections
    /// round-robin across reactors.
    fn accept_burst(&mut self) -> std::io::Result<()> {
        loop {
            let Some(listener) = &self.listener else { return Ok(()) };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.ctx.metrics.accepted.inc();
                    let target = self.next_assign % self.ctx.all_wakers.len();
                    self.next_assign += 1;
                    if target == self.ctx.index {
                        self.adopt(stream);
                    } else {
                        lock_unpoisoned(&self.ctx.inboxes[target]).push_back(stream);
                        self.ctx.all_wakers[target].wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Adopts connections other reactors accepted on this reactor's
    /// behalf.
    fn adopt_pending(&mut self) {
        loop {
            let stream = lock_unpoisoned(&self.ctx.inboxes[self.ctx.index]).pop_front();
            match stream {
                Some(stream) => self.adopt(stream),
                None => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        // A stream that cannot be switched to nonblocking mode is
        // useless to an event loop; drop it, not the reactor.
        let Ok(io) = Connection::new(stream) else { return };
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(token, Conn::new(io));
        self.ctx.metrics.connections.add(1);
    }

    /// Reads a ready connection and runs its protocol parser.
    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        match conn.io.fill() {
            Ok(_) => conn.process_input(token, &self.ctx),
            Err(_) => conn.broken = true,
        }
    }

    /// Routes queued worker completions to their connections.
    fn drain_events(&mut self) {
        loop {
            let event = lock_unpoisoned(&self.ctx.events).pop_front();
            let Some(event) = event else { return };
            match event {
                JobEvent::Done { conn, seq, id, response } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.on_done(seq, &id, response);
                    }
                }
                JobEvent::Progress { conn, update } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.on_progress(&update);
                    }
                }
            }
        }
    }

    /// Per-connection upkeep: retry deferred submissions, emit ordered
    /// v1 responses, run shutdown/EOF endgames, flush, and collect the
    /// dead.
    fn sweep(&mut self) {
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if conn.broken || !conn.maintenance(&self.ctx) {
                dead.push(token);
            }
        }
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                // Jobs still queued on behalf of a vanished client are
                // cancelled so workers skip them (best-effort: a job
                // already claimed completes and its event is dropped).
                for state in &conn.states {
                    let _ = state.compare_exchange(
                        JOB_QUEUED,
                        JOB_CANCELLED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                self.ctx.metrics.connections.sub(1);
            }
        }
    }
}

/// Parser state of one connection: which protocol it speaks, decided by
/// its first byte.
enum Proto {
    /// Nothing received yet.
    Unknown,
    /// JSON-lines (the v1 protocol).
    V1(LineSession),
    /// Framed protocol v2.
    V2(V2State),
}

/// v2 bookkeeping: responses are keyed by job id (no ordering
/// constraint), progress streams, and queued jobs can be cancelled.
struct V2State {
    decoder: FrameDecoder,
    /// Lifecycle state of every pending job, by id — the cancellation
    /// lookup table.
    jobs: HashMap<String, Arc<AtomicU8>>,
    /// Jobs submitted to the queue whose `Done` event is still owed.
    inflight: usize,
    /// The peer sent a shutdown request frame.
    shutdown_requested: bool,
    /// A `Goodbye` frame is queued; nothing further will be sent.
    goodbye_sent: bool,
    /// The peer sent `Goodbye`: no more requests will arrive; close
    /// once pending work has drained.
    peer_goodbye: bool,
}

impl V2State {
    fn new() -> V2State {
        V2State {
            decoder: FrameDecoder::new(),
            jobs: HashMap::new(),
            inflight: 0,
            shutdown_requested: false,
            goodbye_sent: false,
            peer_goodbye: false,
        }
    }
}

/// One connection owned by a reactor.
struct Conn {
    io: Connection,
    proto: Proto,
    /// Submissions awaiting queue space, retried from the event loop in
    /// arrival order (queue-full backpressure; reads pause meanwhile).
    deferred: VecDeque<QueuedJob>,
    /// Lifecycle states of jobs submitted by this connection, kept so a
    /// dead connection's queued jobs can be cancelled.
    states: Vec<Arc<AtomicU8>>,
    /// Write backpressure latch (see [`WRITE_HIGH_WATER`]).
    paused_write: bool,
    /// The shutdown ack is queued; once it flushes, flip the global
    /// shutdown flag and close.
    shutdown_acked: bool,
    /// Close once the outbound buffer drains (post-`Goodbye`).
    dying: bool,
    /// Transport error: close immediately.
    broken: bool,
}

impl Conn {
    fn new(io: Connection) -> Conn {
        Conn {
            io,
            proto: Proto::Unknown,
            deferred: VecDeque::new(),
            states: Vec::new(),
            paused_write: false,
            shutdown_acked: false,
            dying: false,
            broken: false,
        }
    }

    /// The v2 protocol state, when this connection negotiated v2.
    fn v2_mut(&mut self) -> Option<&mut V2State> {
        match &mut self.proto {
            Proto::V2(v2) => Some(v2),
            Proto::Unknown | Proto::V1(_) => None,
        }
    }

    /// Whether reads are paused (backpressure or endgame).
    fn paused(&self) -> bool {
        self.paused_write
            || !self.deferred.is_empty()
            || self.shutdown_acked
            || self.dying
            || match &self.proto {
                Proto::Unknown => false,
                Proto::V1(session) => session.shutdown_requested(),
                Proto::V2(v2) => v2.shutdown_requested || v2.goodbye_sent || v2.peer_goodbye,
            }
    }

    /// Parses whatever has accumulated in the inbound buffer.
    fn process_input(&mut self, token: u64, ctx: &Ctx) {
        if matches!(self.proto, Proto::Unknown) {
            match self.io.rbuf().first().copied() {
                None => return,
                Some(FRAME_MAGIC) => self.proto = Proto::V2(V2State::new()),
                Some(_) => self.proto = Proto::V1(LineSession::default()),
            }
        }
        match self.proto {
            Proto::Unknown => {}
            Proto::V1(_) => self.process_v1(token, ctx),
            Proto::V2(_) => self.process_v2(token, ctx),
        }
    }

    // ---- v1: JSON lines ------------------------------------------------

    fn process_v1(&mut self, token: u64, ctx: &Ctx) {
        loop {
            let Proto::V1(session) = &mut self.proto else { return };
            let Some(line) = take_line(&mut self.io) else { return };
            let Some((seq, request)) = session.line(&line, ctx.server) else { continue };
            let sink = ReactorSink {
                events: Arc::clone(&ctx.events),
                waker: Arc::clone(&ctx.waker),
                conn: token,
                seq,
                id: request.id.clone(),
                want_progress: false,
            };
            let job = QueuedJob::new(request, JobSink::Reactor(sink));
            self.states.push(Arc::clone(&job.state));
            self.submit_or_defer(job, ctx);
        }
    }

    // ---- v2: frames ----------------------------------------------------

    fn process_v2(&mut self, token: u64, ctx: &Ctx) {
        let bytes = std::mem::take(self.io.rbuf());
        {
            let Some(v2) = self.v2_mut() else { return };
            v2.decoder.feed(&bytes);
        }
        loop {
            let frame = {
                let Some(v2) = self.v2_mut() else { return };
                if v2.goodbye_sent || v2.peer_goodbye {
                    return;
                }
                v2.decoder.next_frame()
            };
            match frame {
                Ok(Some(frame)) => {
                    ctx.metrics.frames.inc();
                    self.handle_v2_frame(frame, token, ctx);
                }
                Ok(None) => return,
                Err(e) => {
                    // The stream is unrecoverable (the decoder stays
                    // poisoned): say why, then hang up after the flush.
                    self.queue_goodbye(&goodbye_error(&e.to_string()));
                    self.dying = true;
                    return;
                }
            }
        }
    }

    fn handle_v2_frame(&mut self, frame: Frame, token: u64, ctx: &Ctx) {
        match frame.kind {
            FrameKind::Request => self.handle_v2_request(&frame.payload, token, ctx),
            FrameKind::Cancel => self.handle_v2_cancel(&frame.payload, ctx),
            FrameKind::Goodbye => {
                if let Some(v2) = self.v2_mut() {
                    v2.peer_goodbye = true;
                }
            }
            // Response and Progress only travel server→client.
            FrameKind::Response | FrameKind::Progress => {
                let detail = format!("unexpected client-sent frame kind {:?}", frame.kind);
                self.queue_goodbye(&goodbye_error(&detail));
                self.dying = true;
            }
        }
    }

    fn handle_v2_request(&mut self, payload: &[u8], token: u64, ctx: &Ctx) {
        let Ok(text) = std::str::from_utf8(payload) else {
            self.queue_response_frame(&Response::Error {
                id: String::new(),
                error: "protocol error: request payload is not valid UTF-8".to_string(),
            });
            return;
        };
        match Request::parse(text) {
            Ok(Request::Synthesize(request)) => {
                // Progress streaming is on unless the request opts out
                // with `"progress": false`.
                let want_progress = serde_json::from_str(text)
                    .ok()
                    .and_then(|v| v.get("progress").and_then(Value::as_bool))
                    .unwrap_or(true);
                let sink = ReactorSink {
                    events: Arc::clone(&ctx.events),
                    waker: Arc::clone(&ctx.waker),
                    conn: token,
                    seq: 0,
                    id: request.id.clone(),
                    want_progress,
                };
                let id = request.id.clone();
                let job = QueuedJob::new(request, JobSink::Reactor(sink));
                self.states.push(Arc::clone(&job.state));
                let Some(v2) = self.v2_mut() else { return };
                v2.jobs.insert(id, Arc::clone(&job.state));
                self.submit_or_defer(job, ctx);
            }
            Ok(Request::Lookup(request)) => self.queue_response_frame(&ctx.server.lookup(&request)),
            Ok(Request::Metrics(id)) => self.queue_response_frame(&ctx.server.metrics(&id)),
            Ok(Request::Ping) => self.queue_response_frame(&Response::Pong),
            Ok(Request::Shutdown) => {
                if let Some(v2) = self.v2_mut() {
                    v2.shutdown_requested = true;
                }
            }
            Err(e) => self
                .queue_response_frame(&Response::Error { id: String::new(), error: e.to_string() }),
        }
    }

    fn handle_v2_cancel(&mut self, payload: &[u8], ctx: &Ctx) {
        let cancel = match CancelRequest::parse(payload) {
            Ok(cancel) => cancel,
            Err(e) => {
                self.queue_response_frame(&Response::Error {
                    id: String::new(),
                    error: e.to_string(),
                });
                return;
            }
        };
        // A deferred job never reached the queue; the reactor answers
        // for it directly.
        if let Some(pos) = self.deferred.iter().position(|job| job.request.id == cancel.id) {
            let Some(job) = self.deferred.remove(pos) else { return };
            job.state.store(JOB_CANCELLED, Ordering::SeqCst);
            ctx.server.metrics_handles().jobs_cancelled.inc();
            if let Some(v2) = self.v2_mut() {
                v2.jobs.remove(&cancel.id);
            }
            self.queue_progress_frame(&ProgressUpdate::stage(&cancel.id, "cancelled"));
            self.queue_response_frame(&Response::Error {
                id: cancel.id,
                error: "job cancelled by client before it ran".to_string(),
            });
            return;
        }
        let state = self.v2_mut().and_then(|v2| v2.jobs.get(&cancel.id).cloned());
        let stage = match state {
            None => "cancel-unknown",
            Some(state) => match state.compare_exchange(
                JOB_QUEUED,
                JOB_CANCELLED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                // The worker that pops the tombstone sends the final
                // error response (and counts the cancellation).
                Ok(_) => "cancelled",
                Err(_) => "cancel-too-late",
            },
        };
        self.queue_progress_frame(&ProgressUpdate::stage(&cancel.id, stage));
    }

    // ---- submissions ---------------------------------------------------

    /// Hands a job to the queue, or parks it in the deferred lane when
    /// the queue is full (arrival order is preserved: once anything is
    /// deferred, everything behind it defers too).
    fn submit_or_defer(&mut self, job: QueuedJob, ctx: &Ctx) {
        if !self.deferred.is_empty() {
            self.deferred.push_back(job);
            return;
        }
        if let Err(job) = self.try_submit(job, ctx) {
            self.deferred.push_back(job);
        }
    }

    /// One submission attempt; emits the v2 `queued` progress event on
    /// success. `Err` hands the job back for the deferred queue.
    #[allow(clippy::result_large_err)]
    fn try_submit(&mut self, job: QueuedJob, ctx: &Ctx) -> Result<(), QueuedJob> {
        let (id, want_progress) = match &job.sink {
            JobSink::Reactor(sink) => (sink.id.clone(), sink.want_progress),
            JobSink::Channel(_) => (String::new(), false),
        };
        ctx.server.try_enqueue(ctx.index, job)?;
        if let Proto::V2(v2) = &mut self.proto {
            v2.inflight += 1;
        }
        if want_progress {
            self.queue_progress_frame(&ProgressUpdate::stage(&id, "queued"));
        }
        Ok(())
    }

    fn retry_deferred(&mut self, ctx: &Ctx) {
        while let Some(job) = self.deferred.pop_front() {
            if let Err(job) = self.try_submit(job, ctx) {
                self.deferred.push_front(job);
                return;
            }
        }
    }

    // ---- completions ---------------------------------------------------

    fn on_done(&mut self, seq: u64, id: &str, response: Response) {
        match &mut self.proto {
            Proto::Unknown => {}
            Proto::V1(session) => session.done(seq, response),
            Proto::V2(v2) => {
                v2.jobs.remove(id);
                v2.inflight = v2.inflight.saturating_sub(1);
                if !v2.goodbye_sent {
                    queue_frame(&mut self.io, FrameKind::Response, &response.to_json_value());
                }
            }
        }
    }

    fn on_progress(&mut self, update: &ProgressUpdate) {
        self.queue_progress_frame(update);
    }

    // ---- upkeep --------------------------------------------------------

    /// Returns `false` when the connection is finished and should be
    /// dropped.
    fn maintenance(&mut self, ctx: &Ctx) -> bool {
        self.retry_deferred(ctx);
        // v1: write what the session owes; the shutdown ack comes last.
        if let Proto::V1(session) = &mut self.proto {
            while let Some(response) = session.next_due() {
                self.shutdown_acked |= response == Response::ShuttingDown;
                queue_line(&mut self.io, &response);
            }
        }
        if let Proto::V2(v2) = &mut self.proto {
            let drained = v2.inflight == 0 && self.deferred.is_empty();
            if v2.shutdown_requested && drained && !self.shutdown_acked && !v2.goodbye_sent {
                let mut payload = Map::new();
                payload.insert("op", Value::from("goodbye"));
                payload.insert("shutdown", Value::from(true));
                queue_frame(&mut self.io, FrameKind::Goodbye, &Value::Object(payload));
                v2.goodbye_sent = true;
                self.shutdown_acked = true;
            }
        }
        if self.io.wants_write() && self.io.flush().is_err() {
            // A peer that hung up before reading its shutdown ack still
            // gets the shutdown honoured (serve_lines semantics).
            if self.shutdown_acked {
                trigger_shutdown(ctx);
            }
            return false;
        }
        let flushed = !self.io.wants_write();
        // Write-backpressure latch with hysteresis.
        let out = self.io.buffered_out();
        if out > WRITE_HIGH_WATER {
            self.paused_write = true;
        } else if out < WRITE_LOW_WATER {
            self.paused_write = false;
        }
        if self.states.len() > 64 {
            self.states.retain(|s| s.load(Ordering::SeqCst) == JOB_QUEUED);
        }
        if self.shutdown_acked && flushed {
            trigger_shutdown(ctx);
            return false;
        }
        if self.dying && flushed {
            return false;
        }
        // Peer EOF (or v2 Goodbye): close once owed work has been
        // delivered.
        let finishing =
            self.io.read_closed() || matches!(&self.proto, Proto::V2(v2) if v2.peer_goodbye);
        if finishing {
            let drained = self.deferred.is_empty()
                && match &self.proto {
                    Proto::Unknown => true,
                    Proto::V1(session) => session.drained(),
                    Proto::V2(v2) => v2.inflight == 0,
                };
            if drained && flushed {
                return false;
            }
        }
        true
    }

    // ---- outbound helpers ----------------------------------------------

    fn queue_progress_frame(&mut self, update: &ProgressUpdate) {
        if let Proto::V2(v2) = &self.proto {
            if !v2.goodbye_sent {
                queue_frame(&mut self.io, FrameKind::Progress, &update.to_json());
            }
        }
    }

    fn queue_response_frame(&mut self, response: &Response) {
        if let Proto::V2(v2) = &self.proto {
            if !v2.goodbye_sent {
                queue_frame(&mut self.io, FrameKind::Response, &response.to_json_value());
            }
        }
    }

    fn queue_goodbye(&mut self, payload: &Value) {
        if let Proto::V2(v2) = &mut self.proto {
            if !v2.goodbye_sent {
                queue_frame(&mut self.io, FrameKind::Goodbye, payload);
                v2.goodbye_sent = true;
            }
        }
    }
}

/// Flips the global shutdown flag and wakes every reactor so they all
/// observe it promptly.
fn trigger_shutdown(ctx: &Ctx) {
    ctx.shutdown.store(true, Ordering::SeqCst);
    for waker in &ctx.all_wakers {
        waker.wake();
    }
}

/// Cuts the next v1 input piece off the inbound buffer, as
/// [`serve_lines`](crate::serve_lines) does on stdio: up to the first
/// newline, or `MAX_FRAME_PAYLOAD + 1` bytes of a longer line (which the
/// session refuses), or the unterminated tail once the peer has EOF'd.
fn take_line(io: &mut Connection) -> Option<Vec<u8>> {
    let cap = MAX_FRAME_PAYLOAD + 1;
    let closed = io.read_closed();
    let rbuf = io.rbuf();
    let end = match rbuf.iter().take(cap).position(|&b| b == b'\n') {
        Some(pos) => pos + 1,
        None if rbuf.len() >= cap => cap,
        None if closed && !rbuf.is_empty() => rbuf.len(),
        None => return None,
    };
    Some(rbuf.drain(..end).collect())
}

/// Queues one v1 JSON line.
fn queue_line(io: &mut Connection, response: &Response) {
    io.queue(response.to_json().as_bytes());
    io.queue(b"\n");
}

/// Queues one v2 frame with a JSON payload. A payload that cannot be
/// framed (past the frame cap) is replaced with a small `Goodbye` —
/// sending nothing would leave the peer waiting forever, and truncating
/// would desynchronize the stream.
fn queue_frame(io: &mut Connection, kind: FrameKind, payload: &Value) {
    let encoded = serde_json::to_string(payload)
        .ok()
        .and_then(|text| Frame::new(kind, text.into_bytes()).encode().ok());
    if let Some(bytes) = encoded {
        io.queue(&bytes);
        return;
    }
    let fallback = serde_json::to_string(&goodbye_error("response exceeds the frame payload cap"))
        .ok()
        .and_then(|text| Frame::new(FrameKind::Goodbye, text.into_bytes()).encode().ok());
    if let Some(bytes) = fallback {
        io.queue(&bytes);
    }
}

/// A `Goodbye` payload explaining why the server is hanging up.
fn goodbye_error(detail: &str) -> Value {
    let mut map = Map::new();
    map.insert("op", Value::from("goodbye"));
    map.insert("error", Value::from(detail));
    Value::Object(map)
}
