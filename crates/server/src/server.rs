//! The multi-tenant schedule server: a sharded bounded job queue drained
//! by a worker thread pool, executing synthesis jobs through the
//! portfolio engine over per-tenant shared evaluators.

use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use asynd_circuit::artifact::ScheduleArtifact;
use asynd_circuit::Schedule;
use asynd_net::frame::MAX_FRAME_PAYLOAD;
use asynd_portfolio::{
    AnnealingSynthesizer, BeamSearchSynthesizer, LowestDepthSynthesizer, MctsSynthesizer,
    Portfolio, PortfolioConfig,
};
use asynd_registry::Registry;
use asynd_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Span};
use serde_json::Value;

use crate::protocol::{
    JobOutcome, JobRequest, LookupRequest, ProgressUpdate, Response, StrategyChoice,
    StrategySummary,
};
use crate::queue::ShardedQueue;
use crate::reactor::{serve_tcp_with, ReactorOptions, ReactorSink};
use crate::session::LineSession;
use crate::tenants::TenantMap;
use crate::ServerError;

/// Configuration of a [`ScheduleServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads draining the job queue. `0` means the machine's
    /// available parallelism.
    pub workers: usize,
    /// Capacity of the bounded job queue (backpressure bound; minimum 1).
    pub queue_capacity: usize,
    /// Cache capacity of each tenant's evaluator (schedules).
    pub cache_capacity: usize,
    /// Largest per-job evaluation budget the server accepts.
    pub max_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: asynd_circuit::DEFAULT_CACHE_CAPACITY,
            max_budget: 1 << 20,
        }
    }
}

/// The server's job-lifecycle telemetry: the counters, gauges and the
/// queue-wait histogram the worker pool records into, resolved once at
/// startup so the hot path never touches the registry's name map. The
/// per-phase latency histograms (`asynd_job_synthesis_us`,
/// `asynd_job_registry_lookup_us`, `asynd_job_registry_store_us`,
/// `asynd_job_wall_us`) are recorded through [`Span`]s instead, so each
/// phase also lands in the event log when one is attached.
pub(crate) struct ServerMetrics {
    pub(crate) jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    pub(crate) jobs_rejected: Counter,
    pub(crate) jobs_cancelled: Counter,
    warm_starts: Counter,
    pub(crate) queue_depth: Gauge,
    jobs_inflight: Gauge,
    queue_wait_us: Histogram,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            jobs_submitted: registry.counter("asynd_jobs_submitted_total"),
            jobs_completed: registry.counter("asynd_jobs_completed_total"),
            jobs_failed: registry.counter("asynd_jobs_failed_total"),
            jobs_rejected: registry.counter("asynd_jobs_rejected_total"),
            jobs_cancelled: registry.counter("asynd_jobs_cancelled_total"),
            warm_starts: registry.counter("asynd_warm_starts_total"),
            queue_depth: registry.gauge("asynd_queue_depth"),
            jobs_inflight: registry.gauge("asynd_jobs_inflight"),
            queue_wait_us: registry.histogram("asynd_job_queue_wait_us"),
        }
    }
}

pub(crate) struct Shared {
    config: ServerConfig,
    tenants: TenantMap,
    queue: ShardedQueue<QueuedJob>,
    /// The persistent schedule registry, when the server was started
    /// with one: consulted for warm starts before synthesis, fed the
    /// winning artifact afterwards, and probed by the `lookup` op.
    registry: Option<Arc<Registry>>,
    /// The telemetry registry every layer of this server reports into
    /// (the process-wide one unless a private one was injected).
    telemetry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
}

/// Job lifecycle states, held in a shared [`AtomicU8`] so a reactor can
/// cancel a queued job without touching the queue itself.
pub(crate) const JOB_QUEUED: u8 = 0;
/// Claimed by a worker; too late to cancel.
pub(crate) const JOB_RUNNING: u8 = 1;
/// Terminal: the response was produced.
pub(crate) const JOB_DONE: u8 = 2;
/// Terminal: cancelled while still queued; the worker skips it.
pub(crate) const JOB_CANCELLED: u8 = 3;

/// Where a finished job's response (and optional progress stream) goes.
pub(crate) enum JobSink {
    /// The in-process API path: [`JobHandle`] holds the receiver.
    /// Progress events are dropped — the handle models one final answer.
    Channel(mpsc::Sender<Response>),
    /// The reactor path: events land in the owning reactor's completion
    /// queue and wake its poll loop.
    Reactor(ReactorSink),
}

impl JobSink {
    fn done(&self, response: Response) {
        match self {
            // A dropped receiver just means the submitter stopped
            // caring; the work is still done and the tenant cache keeps
            // the result.
            JobSink::Channel(tx) => drop(tx.send(response)),
            JobSink::Reactor(sink) => sink.done(response),
        }
    }

    fn progress(&self, update: ProgressUpdate) {
        match self {
            JobSink::Channel(_) => {}
            JobSink::Reactor(sink) => sink.progress(update),
        }
    }
}

pub(crate) struct QueuedJob {
    pub(crate) request: JobRequest,
    pub(crate) sink: JobSink,
    /// Shared lifecycle state ([`JOB_QUEUED`] → …); the cancellation
    /// rendezvous between reactors and workers.
    pub(crate) state: Arc<AtomicU8>,
    /// When the job entered the queue (queue-wait histogram input).
    pub(crate) enqueued: Instant,
}

impl QueuedJob {
    pub(crate) fn new(request: JobRequest, sink: JobSink) -> QueuedJob {
        QueuedJob {
            request,
            sink,
            state: Arc::new(AtomicU8::new(JOB_QUEUED)),
            enqueued: Instant::now(),
        }
    }
}

/// A submitted job: await its response with [`JobHandle::wait`].
pub struct JobHandle {
    id: String,
    rx: mpsc::Receiver<Response>,
}

impl JobHandle {
    /// The request id this handle tracks.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Blocks until the job's response is available.
    pub fn wait(self) -> Response {
        match self.rx.recv() {
            Ok(response) => response,
            Err(_) => Response::Error {
                id: self.id,
                error: "server shut down before the job ran".to_string(),
            },
        }
    }

    /// The response, if the job already finished (non-blocking).
    pub fn poll(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }
}

/// The schedule server: see the crate docs for the determinism contract.
pub struct ScheduleServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScheduleServer {
    /// Starts the worker pool and returns the running server (no
    /// persistent registry; see [`ScheduleServer::start_with_registry`]).
    pub fn start(config: ServerConfig) -> ScheduleServer {
        ScheduleServer::start_with_registry(config, None)
    }

    /// Starts the worker pool with an optional persistent schedule
    /// registry.
    ///
    /// With a registry attached, every synthesis job first looks up its
    /// tenant's best stored artifact and warm-starts the portfolio race
    /// from it (seeding only — estimates are still produced by the
    /// evaluation pipeline, see
    /// [`asynd_portfolio::Portfolio::run_with_seeds`]), and the winning
    /// artifact is stored back afterwards. The `lookup` protocol op
    /// serves registry probes without spending any evaluation budget.
    ///
    /// Determinism note: job results remain bit-identical for any worker
    /// count *given the registry state at lookup time*. Concurrent jobs
    /// of the *same* tenant may observe different registry states
    /// depending on completion order; jobs of distinct tenants never
    /// interact through the registry.
    pub fn start_with_registry(
        config: ServerConfig,
        registry: Option<Arc<Registry>>,
    ) -> ScheduleServer {
        ScheduleServer::start_with(config, registry, Arc::clone(asynd_telemetry::global()))
    }

    /// Starts the worker pool reporting into a caller-owned telemetry
    /// registry instead of the process-wide one — what tests use to
    /// assert on counters without cross-talk from other servers in the
    /// process. Telemetry is observability only: it never influences job
    /// results (see the crate docs' determinism contract).
    pub fn start_with(
        config: ServerConfig,
        registry: Option<Arc<Registry>>,
        telemetry: Arc<MetricsRegistry>,
    ) -> ScheduleServer {
        let worker_count = match config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            n => n,
        };
        let metrics = ServerMetrics::register(&telemetry);
        let shared = Arc::new(Shared {
            config,
            tenants: TenantMap::with_metrics(config.cache_capacity, Arc::clone(&telemetry)),
            // One queue shard per worker: each worker drains its home
            // shard first and steals outward, so reactors that pin a
            // shard keep submissions and executions cache-adjacent.
            queue: ShardedQueue::new(worker_count, config.queue_capacity),
            registry,
            telemetry,
            metrics,
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asynd-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.pop(index) {
                            let metrics = &shared.metrics;
                            metrics.queue_depth.sub(1);
                            metrics.queue_wait_us.record_duration(job.enqueued.elapsed());
                            // Claim the job. Losing the race means a
                            // reactor cancelled it while it sat queued:
                            // answer cheaply, never synthesize.
                            if job
                                .state
                                .compare_exchange(
                                    JOB_QUEUED,
                                    JOB_RUNNING,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                )
                                .is_err()
                            {
                                metrics.jobs_cancelled.inc();
                                job.sink.done(Response::Error {
                                    id: job.request.id.clone(),
                                    error: "job cancelled by client before it ran".to_string(),
                                });
                                continue;
                            }
                            metrics.jobs_inflight.add(1);
                            job.sink.progress(ProgressUpdate::stage(&job.request.id, "started"));
                            let span = Span::enter_in(&shared.telemetry, "asynd_job_wall")
                                .with_field("id", Value::from(job.request.id.as_str()));
                            let response =
                                execute_job(&shared, job.request, &|u| job.sink.progress(u));
                            span.finish();
                            metrics.jobs_inflight.sub(1);
                            match &response {
                                Response::Ok(_) => metrics.jobs_completed.inc(),
                                _ => metrics.jobs_failed.inc(),
                            }
                            job.state.store(JOB_DONE, Ordering::SeqCst);
                            job.sink.done(response);
                        }
                    })
                    .expect("spawning a worker thread failed") // asynd-lint: allow(panic-in-hot-path) -- startup-time OS failure, not peer input; nothing is serving yet
            })
            .collect();
        ScheduleServer { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of live tenants.
    pub fn tenants(&self) -> usize {
        self.shared.tenants.len()
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// The attached schedule registry, if the server was started with
    /// one.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.shared.registry.as_ref()
    }

    /// Answers a registry probe: resolves the request's tenant key and
    /// returns the best stored artifact, a recorded miss, or an error
    /// when no registry is attached or the code reference is invalid.
    ///
    /// Costs a map lookup — never an evaluation, never synthesis.
    pub fn lookup(&self, request: &LookupRequest) -> Response {
        let registry = match &self.shared.registry {
            Some(registry) => registry,
            None => {
                return Response::Error {
                    id: request.id.clone(),
                    error: "this server has no schedule registry (start with --registry)"
                        .to_string(),
                }
            }
        };
        // Validate the probe like a synthesize request would be: a
        // typo'd family, zero shots or an invalid noise model could
        // never have stored anything, so answering found:false would be
        // a silent miss where a clear error is owed.
        if let Err(e) = self.shared.tenants.resolve_entry(&request.code) {
            return Response::Error { id: request.id.clone(), error: e.to_string() };
        }
        if request.shots == 0 {
            return Response::Error {
                id: request.id.clone(),
                error: "job rejected: shots must be positive".to_string(),
            };
        }
        let model = match request.noise.to_model() {
            Ok(model) => model,
            Err(e) => return Response::Error { id: request.id.clone(), error: e.to_string() },
        };
        if let Err(e) = model.validate() {
            return Response::Error { id: request.id.clone(), error: e.to_string() };
        }
        let tenant = TenantMap::canonical_key(&request.code, &request.noise, request.shots);
        let artifact = registry.lookup(&tenant).map(|entry| Box::new(entry.artifact));
        Response::Lookup { id: request.id.clone(), tenant, artifact }
    }

    /// A deterministic snapshot of the server's telemetry registry —
    /// counters, gauges and latency histograms across the evaluator,
    /// portfolio, registry and job-lifecycle layers.
    ///
    /// Costs a shard merge; never an evaluation, never synthesis.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.telemetry.snapshot()
    }

    /// Answers a `metrics` protocol op: the telemetry snapshot plus
    /// per-tenant cache counters, sorted by tenant key.
    pub fn metrics(&self, id: &str) -> Response {
        Response::Metrics {
            id: id.to_string(),
            snapshot: self.metrics_snapshot(),
            tenants: self.shared.tenants.cache_stats(),
        }
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rejected`] when the server is shutting
    /// down.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, ServerError> {
        let (tx, rx) = mpsc::channel();
        let id = request.id.clone();
        self.shared.queue.push(QueuedJob::new(request, JobSink::Channel(tx))).map_err(|_| {
            self.shared.metrics.jobs_rejected.inc();
            ServerError::Rejected { reason: "server is shutting down".into() }
        })?;
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.add(1);
        Ok(JobHandle { id, rx })
    }

    /// Enqueues a reactor-built job on `shard` without blocking — the
    /// reactor path, which must never park its event loop on a full
    /// queue. The reactor defers the job and retries instead of
    /// rejecting, so no `jobs_rejected` tick here.
    ///
    /// `Err` hands the whole job back by design — the caller owns it
    /// again and re-queues it later; boxing would buy nothing.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_enqueue(&self, shard: usize, job: QueuedJob) -> Result<(), QueuedJob> {
        self.shared.queue.try_push_to(shard, job)?;
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.add(1);
        Ok(())
    }

    /// The telemetry registry this server reports into (reactor metrics
    /// land in the same place).
    pub(crate) fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.telemetry
    }

    /// The server's cancellation counter (ticked by reactors that cancel
    /// deferred jobs before they ever reach the queue).
    pub(crate) fn metrics_handles(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Submits a batch and waits for every response, returned in request
    /// order (the deterministic batch entry point the sweep and the tests
    /// build on).
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Vec<Response> {
        let mut pending = Vec::with_capacity(requests.len());
        for request in requests {
            let id = request.id.clone();
            match self.submit(request) {
                Ok(handle) => pending.push(Ok(handle)),
                Err(e) => pending.push(Err(Response::Error { id, error: e.to_string() })),
            }
        }
        pending
            .into_iter()
            .map(|entry| match entry {
                Ok(handle) => handle.wait(),
                Err(response) => response,
            })
            .collect()
    }

    /// Stops accepting jobs, drains the queue and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ScheduleServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Runs one job to a response. Pure in the determinism-contract sense:
/// everything except `wall_ms` and the cache counters is a function of
/// the request and its tenant key. `progress` receives lifecycle events
/// (`warm-start`, `synthesized`) for sinks that stream them; the events
/// are observability only and never influence the result.
fn execute_job(
    shared: &Shared,
    request: JobRequest,
    progress: &dyn Fn(ProgressUpdate),
) -> Response {
    let id = request.id.clone();
    match try_execute_job(shared, request, progress) {
        Ok(outcome) => Response::Ok(Box::new(outcome)),
        Err(e) => Response::Error { id, error: e.to_string() },
    }
}

fn try_execute_job(
    shared: &Shared,
    request: JobRequest,
    progress: &dyn Fn(ProgressUpdate),
) -> Result<JobOutcome, ServerError> {
    if request.budget > shared.config.max_budget {
        return Err(ServerError::Rejected {
            reason: format!(
                "budget {} exceeds the server cap of {}",
                request.budget, shared.config.max_budget
            ),
        });
    }
    let parties = request.strategy.parties();
    let grant =
        asynd_core::split_grant(request.budget, parties).ok_or_else(|| ServerError::Rejected {
            reason: format!(
                "budget {} cannot grant the {} racing strategies at least one evaluation each",
                request.budget, parties
            ),
        })?;
    let tenant = shared.tenants.resolve(&request.code, &request.noise, request.shots)?;

    let config = PortfolioConfig {
        seed: request.seed,
        budget_per_strategy: grant,
        shots_per_evaluation: request.shots,
        eval_cache_capacity: shared.config.cache_capacity,
        // Strategies of one job run sequentially; the server's
        // parallelism comes from racing *jobs* on the worker pool.
        worker_threads: 1,
    };
    let portfolio = match request.strategy {
        StrategyChoice::Portfolio => Portfolio::standard(config),
        StrategyChoice::Mcts => {
            Portfolio::new(config).with_strategy(Box::new(MctsSynthesizer::default()))
        }
        StrategyChoice::Anneal => {
            Portfolio::new(config).with_strategy(Box::new(AnnealingSynthesizer::default()))
        }
        StrategyChoice::Beam => {
            Portfolio::new(config).with_strategy(Box::new(BeamSearchSynthesizer::default()))
        }
        StrategyChoice::LowestDepth => {
            Portfolio::new(config).with_strategy(Box::new(LowestDepthSynthesizer::new()))
        }
    };
    // Strategy-level telemetry lands in the same registry as the
    // server's own, so one `metrics` snapshot covers both layers.
    let portfolio = portfolio.with_metrics(Arc::clone(&shared.telemetry));

    // Warm start: seed the race with the request's shipped `warm_seed`
    // when present (the fleet coordinator distributing its registry's
    // best artifact), else with the registry's best prior artifact for
    // this tenant. Either way the seed must still validate against the
    // code (a stale or foreign seed is dropped, not trusted), and it
    // only shifts where the searches start — every estimate is still
    // produced by the metered evaluation pipeline.
    let seeds: Vec<Schedule> = if let Some(shipped) = &request.warm_seed {
        Some(shipped.as_ref())
            .filter(|artifact| artifact.schedule.validate(&tenant.entry.code).is_ok())
            .map(|artifact| vec![artifact.schedule.clone()])
            .unwrap_or_default()
    } else {
        // The span exists only when a registry does — servers without
        // one report no lookup phase at all.
        let _span = shared.registry.as_ref().map(|_| {
            Span::enter_in(&shared.telemetry, "asynd_job_registry_lookup")
                .with_field("tenant", Value::from(tenant.key.as_str()))
        });
        shared
            .registry
            .as_ref()
            .and_then(|registry| registry.lookup(&tenant.key))
            .filter(|entry| entry.artifact.schedule.validate(&tenant.entry.code).is_ok())
            .map(|entry| vec![entry.artifact.schedule])
            .unwrap_or_default()
    };
    let warm_start = !seeds.is_empty();
    if warm_start {
        shared.metrics.warm_starts.inc();
        progress(ProgressUpdate::stage(&request.id, "warm-start"));
    }

    let span = Span::enter_in(&shared.telemetry, "asynd_job_synthesis")
        .with_field("id", Value::from(request.id.as_str()))
        .with_field("tenant", Value::from(tenant.key.as_str()));
    let report = portfolio.run_with_seeds(
        &tenant.entry.code,
        tenant.evaluator.clone(),
        tenant.salt,
        &seeds,
    )?;
    let wall_ms = span.finish() as f64 / 1e3;

    let strategies = report
        .strategies
        .iter()
        .enumerate()
        .map(|(index, s)| StrategySummary {
            name: s.name.clone(),
            p_overall: s.outcome.estimate.p_overall(),
            depth: s.outcome.schedule.depth(),
            key: s.outcome.schedule.key().to_hex(),
            evaluations: s.metered,
            winner: index == report.winner,
        })
        .collect();
    let winning = report.winning();
    // Partial result ahead of the full response (and the registry
    // store): the winning key and rate are already final here.
    progress(ProgressUpdate {
        id: request.id.clone(),
        stage: "synthesized".to_string(),
        key: Some(winning.outcome.schedule.key().to_hex()),
        p_overall: Some(winning.outcome.estimate.p_overall()),
    });
    let artifact = ScheduleArtifact {
        code_label: tenant.entry.display_label(),
        schedule: winning.outcome.schedule.clone(),
        estimate: winning.outcome.estimate,
    };
    // Persist the winner. A registry write failure degrades the cache,
    // not the job: the response still carries the artifact.
    if let Some(registry) = &shared.registry {
        let _span = Span::enter_in(&shared.telemetry, "asynd_job_registry_store")
            .with_field("tenant", Value::from(tenant.key.as_str()));
        if let Err(e) = registry.store(&tenant.key, &artifact) {
            eprintln!("asynd: registry store failed for {}: {e}", tenant.key);
        }
    }
    Ok(JobOutcome {
        id: request.id,
        tenant: tenant.key.clone(),
        strategy: winning.name.clone(),
        artifact,
        granted: report.total_granted(),
        spent: report.total_spent(),
        strategies,
        cache: tenant.evaluator.stats(),
        warm_start,
        wall_ms,
    })
}

/// Speaks the v1 JSON-lines protocol over an arbitrary reader/writer
/// pair — the stdio transport of `asynd serve` and `asynd submit`. A
/// blocking driver of the same session core the reactor runs for each
/// v1 TCP connection, so both transports answer alike.
///
/// Job responses are written in submission order (the determinism
/// contract's framing guarantee); already-finished jobs are flushed
/// eagerly between requests so a long-lived session streams results.
/// `ping`, `lookup` and `metrics` are answered immediately, out of band
/// of job ordering — they are probes, not jobs.
///
/// Returns `true` when the peer requested shutdown.
///
/// # Errors
///
/// Returns the first transport I/O error. *Protocol* errors — malformed
/// JSON, unknown ops, request lines that are not valid UTF-8 or longer
/// than [`MAX_FRAME_PAYLOAD`] — are answered with a structured error
/// response on the stream and never abort it, so one garbage line cannot
/// tear down a connection and the pipelined jobs behind it.
pub fn serve_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    server: &ScheduleServer,
) -> std::io::Result<bool> {
    let mut session = LineSession::default();
    let mut pending: VecDeque<(u64, JobHandle)> = VecDeque::new();
    let mut raw: Vec<u8> = Vec::new();
    while !session.shutdown_requested() {
        raw.clear();
        // A line without a newline is cut one byte past the cap, so it
        // cannot grow `raw` without bound; the session refuses the piece.
        let cap = MAX_FRAME_PAYLOAD as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        if let Some((seq, request)) = session.line(&raw, server) {
            let id = request.id.clone();
            match server.submit(request) {
                Ok(handle) => pending.push_back((seq, handle)),
                Err(e) => session.done(seq, Response::Error { id, error: e.to_string() }),
            }
        }
        // Stream the responses that are already done, oldest first.
        while let Some(response) = pending.front().and_then(|(_, handle)| handle.poll()) {
            if let Some((seq, _)) = pending.pop_front() {
                session.done(seq, response);
            }
        }
        write_due(&mut session, &mut writer)?;
    }
    let shutdown = session.shutdown_requested();
    let finish = move || -> std::io::Result<()> {
        for (seq, handle) in pending {
            session.done(seq, handle.wait());
            write_due(&mut session, &mut writer)?;
        }
        // The shutdown ack, when one is owed.
        write_due(&mut session, &mut writer)
    };
    match finish() {
        Ok(()) => {}
        // A peer that asked for shutdown and hung up before reading the
        // ack still gets its shutdown honoured — losing the write must
        // not lose the intent.
        Err(_) if shutdown => {}
        Err(e) => return Err(e),
    }
    Ok(shutdown)
}

/// Writes every response the session owes, then flushes.
fn write_due(session: &mut LineSession, writer: &mut impl Write) -> std::io::Result<()> {
    while let Some(response) = session.next_due() {
        writeln!(writer, "{}", response.to_json())?;
    }
    writer.flush()
}

/// Serves both wire protocols over TCP on a single-reactor event loop —
/// v1 JSON-lines and framed v2, autodetected per connection from the
/// first byte (see [`crate::reactor`]). Equivalent to
/// [`serve_tcp_with`] with [`ReactorOptions::default`]; use that entry
/// point to run more reactors.
///
/// Returns after a client sends `{"op":"shutdown"}` (or the v2
/// equivalent) and every open connection has drained.
///
/// # Errors
///
/// Returns reactor-loop I/O errors; per-connection errors only end that
/// connection.
pub fn serve_tcp(server: &ScheduleServer, listener: TcpListener) -> std::io::Result<()> {
    serve_tcp_with(server, listener, ReactorOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CodeRef, NoiseSpec};

    fn quick_request(id: &str, strategy: StrategyChoice, seed: u64) -> JobRequest {
        JobRequest {
            id: id.to_string(),
            code: CodeRef { family: "rotated-surface".into(), index: 0 },
            noise: NoiseSpec::Brisbane,
            strategy,
            budget: 24,
            shots: 150,
            seed,
            warm_seed: None,
        }
    }

    #[test]
    fn single_strategy_job_round_trips_through_the_pool() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServerConfig::default()
        });
        let handle = server.submit(quick_request("j1", StrategyChoice::Anneal, 5)).unwrap();
        match handle.wait() {
            Response::Ok(outcome) => {
                assert_eq!(outcome.id, "j1");
                assert_eq!(outcome.strategy, "anneal");
                assert_eq!(outcome.granted, 24);
                assert!(outcome.spent > 0 && outcome.spent <= 24);
                assert_eq!(outcome.strategies.len(), 1);
                assert!(outcome.strategies[0].winner);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(server.tenants(), 1);
        server.shutdown();
    }

    #[test]
    fn shipped_warm_seed_warm_starts_without_a_registry() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let cold =
            match server.submit(quick_request("cold", StrategyChoice::Anneal, 9)).unwrap().wait() {
                Response::Ok(outcome) => outcome,
                other => panic!("unexpected response: {other:?}"),
            };
        assert!(!cold.warm_start);

        // Shipping the artifact back warm-starts the race, registry or not.
        let mut warm = quick_request("warm", StrategyChoice::Anneal, 9);
        warm.warm_seed = Some(Box::new(cold.artifact.clone()));
        match server.submit(warm).unwrap().wait() {
            Response::Ok(outcome) => assert!(outcome.warm_start, "shipped seed must warm-start"),
            other => panic!("unexpected response: {other:?}"),
        }

        // A seed that does not validate against the job's code is
        // dropped, not trusted: the job still runs, cold.
        let foreign = asynd_circuit::artifact::ScheduleArtifact {
            code_label: "steane".into(),
            schedule: Schedule::trivial(&asynd_codes::steane_code()),
            estimate: asynd_circuit::LogicalErrorEstimate {
                shots: 10,
                x_failures: 0,
                z_failures: 0,
                any_failures: 0,
            },
        };
        let mut mismatched = quick_request("mismatched", StrategyChoice::Anneal, 9);
        mismatched.warm_seed = Some(Box::new(foreign));
        match server.submit(mismatched).unwrap().wait() {
            Response::Ok(outcome) => assert!(!outcome.warm_start, "foreign seed must be dropped"),
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversized_and_undersized_budgets_are_rejected() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 1,
            max_budget: 100,
            ..ServerConfig::default()
        });
        let mut big = quick_request("big", StrategyChoice::Anneal, 0);
        big.budget = 101;
        let mut tiny = quick_request("tiny", StrategyChoice::Portfolio, 0);
        tiny.budget = 3; // splits to 0 across 4 strategies
        for (request, needle) in [(big, "exceeds"), (tiny, "cannot grant")] {
            let id = request.id.clone();
            match server.submit(request).unwrap().wait() {
                Response::Error { id: got, error } => {
                    assert_eq!(got, id);
                    assert!(error.contains(needle), "error {error:?} lacks {needle:?}");
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!(server.tenants(), 0, "rejected jobs never create tenants");
    }

    #[test]
    fn unknown_family_is_an_error_response_not_a_crash() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut request = quick_request("nope", StrategyChoice::LowestDepth, 0);
        request.code.family = "no-such-family".into();
        match server.submit(request).unwrap().wait() {
            Response::Error { error, .. } => assert!(error.contains("unknown code family")),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn batch_responses_arrive_in_request_order() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 3,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let batch: Vec<JobRequest> = (0..6)
            .map(|i| quick_request(&format!("j{i}"), StrategyChoice::LowestDepth, i))
            .collect();
        let responses = server.run_batch(batch);
        assert_eq!(responses.len(), 6);
        for (i, response) in responses.iter().enumerate() {
            match response {
                Response::Ok(outcome) => assert_eq!(outcome.id, format!("j{i}")),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        // All six jobs hit one tenant and the memoised baseline schedule.
        assert_eq!(server.tenants(), 1);
    }

    #[test]
    fn garbage_between_pipelined_jobs_never_tears_down_the_stream() {
        // Regression: a malformed line — including one that is not even
        // valid UTF-8, which `BufRead::lines` would have turned into a
        // connection-killing I/O error — must produce a structured error
        // response and leave the remaining pipelined jobs alive.
        let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
        let job = |id: &str| {
            format!(
                "{{\"id\":{id:?},\"code\":{{\"family\":\"rotated-surface\"}},\
                 \"noise\":\"brisbane\",\"strategy\":\"lowest-depth\",\
                 \"budget\":8,\"shots\":120,\"seed\":3}}\n"
            )
        };
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(job("first").as_bytes());
        input.extend_from_slice(b"\xff\xfe this line is not utf-8 \xff\n");
        input.extend_from_slice(b"{\"op\":\"nope\"}\n");
        input.extend_from_slice(job("second").as_bytes());
        let mut output = Vec::new();
        let requested = serve_lines(&input[..], &mut output, &server).unwrap();
        assert!(!requested, "nobody asked for shutdown");
        let text = String::from_utf8(output).unwrap();
        let responses: Vec<Response> =
            text.lines().map(|line| Response::parse(line).unwrap()).collect();
        let errors = responses.iter().filter(|r| matches!(r, Response::Error { .. })).count();
        assert_eq!(errors, 2, "both garbage lines got structured errors: {text}");
        let mut ok_ids: Vec<String> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Ok(outcome) => Some(outcome.id.clone()),
                _ => None,
            })
            .collect();
        ok_ids.sort();
        assert_eq!(ok_ids, ["first", "second"], "jobs around the garbage both ran");
        server.shutdown();
    }

    #[test]
    fn job_lifecycle_telemetry_matches_jobs_run() {
        let telemetry = Arc::new(MetricsRegistry::new());
        let server = ScheduleServer::start_with(
            ServerConfig { workers: 2, ..ServerConfig::default() },
            None,
            Arc::clone(&telemetry),
        );
        let batch: Vec<JobRequest> =
            (0..4).map(|i| quick_request(&format!("j{i}"), StrategyChoice::Anneal, i)).collect();
        let responses = server.run_batch(batch);
        assert!(responses.iter().all(|r| matches!(r, Response::Ok(_))));
        let mut bad = quick_request("bad", StrategyChoice::Anneal, 0);
        bad.code.family = "no-such-family".into();
        assert!(matches!(server.submit(bad).unwrap().wait(), Response::Error { .. }));

        let snapshot = server.metrics_snapshot();
        assert_eq!(snapshot.counters["asynd_jobs_submitted_total"], 5);
        assert_eq!(snapshot.counters["asynd_jobs_completed_total"], 4);
        assert_eq!(snapshot.counters["asynd_jobs_failed_total"], 1);
        for name in ["asynd_job_queue_wait_us", "asynd_job_wall_us"] {
            assert_eq!(snapshot.histograms[name].count, 5, "{name} counts every job");
        }
        assert_eq!(
            snapshot.histograms["asynd_job_synthesis_us"].count, 4,
            "rejected jobs never reach synthesis"
        );
        assert_eq!(snapshot.gauges["asynd_queue_depth"], 0, "drained queue reads zero");
        assert_eq!(snapshot.gauges["asynd_jobs_inflight"], 0, "idle pool reads zero");
        // The tenant's evaluator and the racing strategy report into the
        // same registry, labelled.
        let tenant_misses = asynd_telemetry::labeled(
            "asynd_eval_cache_misses_total",
            &[("tenant", "rotated-surface[0]|brisbane|shots=150")],
        );
        assert!(snapshot.counters[&tenant_misses] > 0, "tenant evaluator counters registered");
        let anneal_evals =
            asynd_telemetry::labeled("asynd_strategy_evals_total", &[("strategy", "anneal")]);
        assert!(snapshot.counters[&anneal_evals] > 0, "strategy spend lands in server telemetry");
        match server.metrics("m1") {
            Response::Metrics { id, tenants, .. } => {
                assert_eq!(id, "m1");
                assert_eq!(tenants.len(), 1);
                assert!(tenants[0].1.misses > 0);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn lookup_without_a_registry_is_a_structured_error() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let input = "{\"op\":\"lookup\",\"id\":\"l\",\"code\":{\"family\":\"bb\"},\
                     \"noise\":\"brisbane\",\"shots\":100}\n";
        let mut output = Vec::new();
        serve_lines(input.as_bytes(), &mut output, &server).unwrap();
        let text = String::from_utf8(output).unwrap();
        match Response::parse(text.lines().next().unwrap()).unwrap() {
            Response::Error { id, error } => {
                assert_eq!(id, "l");
                assert!(error.contains("registry"), "error: {error}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stdio_transport_speaks_the_protocol() {
        let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
        let input = concat!(
            "{\"op\":\"ping\"}\n",
            "\n",
            "this is not json\n",
            "{\"id\":\"a\",\"code\":{\"family\":\"rotated-surface\"},\"noise\":\"brisbane\",",
            "\"strategy\":\"lowest-depth\",\"budget\":8,\"shots\":120,\"seed\":3}\n",
            "{\"op\":\"shutdown\"}\n",
        );
        let mut output = Vec::new();
        let requested = serve_lines(input.as_bytes(), &mut output, &server).unwrap();
        assert!(requested, "the peer asked for shutdown");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "pong, parse error, job, shutdown ack: {text}");
        assert_eq!(Response::parse(lines[0]).unwrap(), Response::Pong);
        assert!(matches!(Response::parse(lines[1]).unwrap(), Response::Error { .. }));
        match Response::parse(lines[2]).unwrap() {
            Response::Ok(outcome) => assert_eq!(outcome.id, "a"),
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(Response::parse(lines[3]).unwrap(), Response::ShuttingDown);
    }
}
