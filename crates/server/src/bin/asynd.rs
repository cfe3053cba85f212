//! `asynd` — the AlphaSyndrome synthesis serving CLI.
//!
//! ```text
//! asynd serve    [--tcp ADDR] [--reactors N] [--workers N] [--queue N] [--cache N]
//!                [--max-budget N] [--registry DIR] [--events DIR]
//! asynd submit   [--tcp ADDR] [--file PATH] [--workers N] [--registry DIR]
//! asynd metrics  --tcp ADDR [--text] [--watch] [--interval SECS]
//! asynd loadgen  --tcp ADDR [--mode open|closed] [--conns a,b,c] [--requests N]
//!                [--rate R] [--duration SECS] [--pipeline N] [--proto v1|v2]
//!                [--workload ping|synthesize] [--out PATH] [--smoke] [--quiet]
//! asynd sweep    [--smoke] [--out PATH] [--seed N] [--rates a,b,c] [--shots N]
//!                [--families a,b] [--budget-mult N] [--max-qubits N]
//!                [--entries N] [--workers N|addr1,addr2,...] [--registry DIR]
//!                [--quiet]
//! asynd fleetbench [--smoke] [--counts 1,2,4] [--out PATH] [--seed N] [--quiet]
//! asynd registry (stats|verify|compact) DIR
//! asynd registry export DIR FILE [PREFIX]
//! asynd registry import DIR FILE
//! asynd validate [--metrics] FILE...
//! asynd validate --equal A B
//! ```
//!
//! `serve` speaks the JSON-lines protocol on stdin/stdout, or on a TCP
//! listener with `--tcp`. `submit` sends request lines (stdin or
//! `--file`) to a TCP server, or — without `--tcp` — runs them on an
//! in-process server. `metrics` scrapes a live server's telemetry
//! snapshot over the `metrics` protocol op (JSON by default, Prometheus
//! text exposition with `--text`, repeatedly with `--watch`). `sweep`
//! races the strategy portfolio over the code catalog × an error-rate
//! grid and writes `BENCH_sweep.json`; when `--workers` is a list of
//! `host:port` addresses, cells are fanned out to remote `asynd serve`
//! workers over protocol v2 (the distributed fleet — the merged report
//! is bit-identical to an in-process sweep). `fleetbench` measures
//! fleet scaling over local workers and writes `BENCH_fleet.json`.
//! `registry` inspects, audits, compacts, exports or imports a
//! persistent schedule registry directory. `validate` type-checks
//! `BENCH_*.json` trajectory documents, compares two sweep reports for
//! canonical equality with `--equal`, or — with `--metrics` —
//! Prometheus text expositions.
//!
//! `--registry DIR` attaches a persistent schedule registry: synthesis
//! jobs warm-start from prior winners of their tenant, winners are
//! stored back, and the `lookup` protocol op serves cache probes without
//! spending evaluation budget. `--events DIR` additionally appends a
//! JSON-lines span/event log (flushed into atomic segments on shutdown).

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asynd_registry::Registry;
use asynd_server::fleet::{
    fleet_report_to_json, validate_fleet_text, FleetBenchRecord, LocalWorker,
};
use asynd_server::loadgen::{self, LoadgenConfig, Mode, WireProtocol, Workload};
use asynd_server::protocol::{Request, Response};
use asynd_server::sweep::{
    canonical_report_value, validate_report_text, SweepConfig, SweepOptions,
};
use asynd_server::{
    serve_lines, serve_tcp_with, Client, ClientError, ReactorOptions, ScheduleServer, ServerConfig,
};
use asynd_telemetry::EventLog;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[] as &[String]),
    };
    let result = match command {
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "metrics" => cmd_metrics(rest),
        "loadgen" => cmd_loadgen(rest),
        "sweep" => cmd_sweep(rest),
        "fleetbench" => cmd_fleetbench(rest),
        "registry" => cmd_registry(rest),
        "lint" => cmd_lint(rest),
        "validate" => cmd_validate(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("asynd: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
asynd — AlphaSyndrome synthesis serving CLI

USAGE:
  asynd serve    [--tcp ADDR] [--reactors N] [--workers N] [--queue N] [--cache N]
                 [--max-budget N] [--registry DIR] [--events DIR]
  asynd submit   [--tcp ADDR] [--file PATH] [--workers N] [--registry DIR]
  asynd metrics  --tcp ADDR [--text] [--watch] [--interval SECS]
  asynd loadgen  --tcp ADDR [--mode open|closed] [--conns a,b,c] [--requests N]
                 [--rate R] [--duration SECS] [--pipeline N] [--proto v1|v2]
                 [--workload ping|synthesize] [--out PATH] [--smoke] [--quiet]
  asynd sweep    [--smoke] [--out PATH] [--seed N] [--rates a,b,c] [--shots N]
                 [--families a,b] [--budget-mult N] [--max-qubits N] [--entries N]
                 [--workers N|addr1,addr2,...] [--registry DIR] [--quiet]
  asynd fleetbench [--smoke] [--counts 1,2,4] [--out PATH] [--seed N] [--quiet]
  asynd registry (stats|verify|compact) DIR
  asynd registry export DIR FILE [PREFIX]
  asynd registry import DIR FILE
  asynd lint     [--json] [--fix-baseline] [--root DIR] [--baseline FILE]
                 [--out FILE] [--verbose]
  asynd validate [--metrics|--lints] FILE...
  asynd validate --equal A B

`serve` reads JSON-lines requests from stdin (or TCP connections) and
writes one response line per job, in submission order. With --tcp it
runs a poll(2) reactor event loop (--reactors N spreads connections
over N loops) speaking both v1 JSON lines and framed protocol v2,
autodetected per connection. `loadgen` drives a live server with
open- or closed-loop load over a connection ramp and writes
BENCH_serving.json. `submit` is the
matching client; without --tcp it runs jobs on an in-process server.
`metrics` scrapes a live server's telemetry snapshot (JSON, or
Prometheus text exposition with --text; --watch re-scrapes every
--interval seconds). --registry DIR makes synthesis warm-start from
(and store into) a persistent schedule registry; --events DIR appends
a JSON-lines span/event log. See the README's observability section.

`sweep --workers` takes either a rayon thread count (an integer) or a
comma-separated list of host:port addresses of `asynd serve --tcp`
workers; with addresses, cells are distributed over the fleet and the
merged BENCH_sweep.json is bit-identical to an in-process sweep (see
the README's distributed-sweep section; fleet workers must run without
their own --registry). `fleetbench` runs the sweep grid through 0
(in-process baseline) then --counts local workers and writes the
scaling study to BENCH_fleet.json. `registry export` writes a tenant's
(or every tenant's) records as portable JSON lines; `registry import`
merges such a file back in. `validate --equal` compares two sweep
reports after canonicalisation (wall-clock stripped).

`lint` runs the workspace's own static analyzer (determinism &
concurrency-discipline rules — see the README's static-analysis
section) over the first-party crates and fails on any finding that is
neither suppressed in-source (`// asynd-lint: allow(<rule>) -- reason`)
nor granted by the checked-in `lint-baseline.json`; `--fix-baseline`
regenerates that file, `--out` writes the findings JSON for CI, and
`validate --lints` checks such a findings document.
";

/// Opens a registry directory for the serving commands, reporting any
/// records that failed fingerprint verification on stderr.
fn open_registry(dir: &str) -> Result<Arc<Registry>, String> {
    let (registry, report) =
        Registry::open(dir).map_err(|e| format!("cannot open registry {dir}: {e}"))?;
    if report.skipped > 0 {
        eprintln!(
            "asynd: registry {dir}: skipped {} unverifiable record(s) ({} live entries loaded)",
            report.skipped, report.entries
        );
        for line in &report.reports {
            eprintln!("asynd:   {line}");
        }
    }
    Ok(Arc::new(registry))
}

/// A tiny `--flag value` argument cursor.
struct Flags<'a> {
    args: &'a [String],
    index: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, index: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.index)?;
        self.index += 1;
        Some(arg.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self.args.get(self.index).ok_or_else(|| format!("{flag} needs a value"))?;
        self.index += 1;
        Ok(value.as_str())
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse().map_err(|_| format!("{flag} got an unparsable value {raw:?}"))
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut reactors = ReactorOptions::default();
    let mut tcp: Option<String> = None;
    let mut registry: Option<String> = None;
    let mut events: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tcp" => tcp = Some(flags.value("--tcp")?.to_string()),
            "--reactors" => reactors.reactors = flags.parsed("--reactors")?,
            "--workers" => config.workers = flags.parsed("--workers")?,
            "--queue" => config.queue_capacity = flags.parsed("--queue")?,
            "--cache" => config.cache_capacity = flags.parsed("--cache")?,
            "--max-budget" => config.max_budget = flags.parsed("--max-budget")?,
            "--registry" => registry = Some(flags.value("--registry")?.to_string()),
            "--events" => events = Some(flags.value("--events")?.to_string()),
            other => return Err(format!("serve: unknown flag {other:?}")),
        }
    }
    let registry = registry.as_deref().map(open_registry).transpose()?;
    let event_log = events
        .map(|dir| {
            let (log, report) =
                EventLog::open(&dir).map_err(|e| format!("cannot open event log {dir}: {e}"))?;
            if report.skipped > 0 {
                eprintln!(
                    "asynd: event log {dir}: skipped {} corrupt line(s) ({} events recovered)",
                    report.skipped, report.events
                );
            }
            Ok::<Arc<EventLog>, String>(Arc::new(log))
        })
        .transpose()?;
    if let Some(log) = &event_log {
        asynd_telemetry::global().attach_events(Arc::clone(log));
    }
    let started = Instant::now();
    let server = ScheduleServer::start_with_registry(config, registry);
    match tcp {
        Some(addr) => {
            let listener =
                TcpListener::bind(&addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!(
                "asynd: serving on {} with {} reactor(s), {} workers \
                 (send {{\"op\":\"shutdown\"}} to stop)",
                listener.local_addr().map_err(|e| e.to_string())?,
                reactors.reactors.max(1),
                server.workers()
            );
            serve_tcp_with(&server, listener, reactors).map_err(|e| e.to_string())?;
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(stdin.lock(), stdout.lock(), &server).map_err(|e| e.to_string())?;
        }
    }
    let snapshot = server.metrics_snapshot();
    server.shutdown();
    let completed = snapshot.counters.get("asynd_jobs_completed_total").copied().unwrap_or(0);
    let failed = snapshot.counters.get("asynd_jobs_failed_total").copied().unwrap_or(0);
    eprintln!(
        "asynd: served {} job(s) ({} failed) in {:.1}s",
        completed + failed,
        failed,
        started.elapsed().as_secs_f64()
    );
    if let Some(log) = &event_log {
        let flushed = log.flush().map_err(|e| format!("event log flush failed: {e}"))?;
        eprintln!("asynd: event log {}: flushed {flushed} event(s)", log.dir().display());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let mut tcp: Option<String> = None;
    let mut text = false;
    let mut watch = false;
    let mut interval = 2.0f64;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tcp" => tcp = Some(flags.value("--tcp")?.to_string()),
            "--text" => text = true,
            "--watch" => watch = true,
            "--interval" => interval = flags.parsed("--interval")?,
            other => return Err(format!("metrics: unknown flag {other:?}")),
        }
    }
    let addr = tcp.ok_or("metrics: needs --tcp ADDR (a live `asynd serve --tcp` to scrape)")?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err("metrics: --interval must be positive".to_string());
    }
    // One connection for the whole watch: the client reconnects only
    // after a reported failure, not on every poll.
    let mut client = Client::new(addr.clone());
    loop {
        let (snapshot, tenants) = match client.metrics("asynd-metrics") {
            Ok(scrape) => scrape,
            Err(ClientError::Server { error, .. }) => {
                return Err(format!("metrics: server said: {error}"))
            }
            Err(e) => {
                let message = match e {
                    ClientError::Transport(reason) if reason.starts_with("cannot connect") => {
                        reason
                    }
                    other => format!("metrics connection to {addr} lost: {other} (will reconnect)"),
                };
                if !watch {
                    return Err(format!("metrics: {message}"));
                }
                // In watch mode a lost server is a condition to report
                // and retry, not a reason to tear the watch down.
                eprintln!("asynd: metrics: {message}");
                std::thread::sleep(Duration::from_secs_f64(interval));
                continue;
            }
        };
        let mut stdout = std::io::stdout().lock();
        if watch {
            // Clear and home, like watch(1), so the exposition repaints
            // in place.
            write!(stdout, "\x1b[2J\x1b[H").map_err(|e| e.to_string())?;
        }
        if text {
            write!(stdout, "{}", snapshot.render_text()).map_err(|e| e.to_string())?;
        } else {
            let mut doc = serde_json::Map::new();
            doc.insert("metrics", snapshot.to_json());
            doc.insert(
                "tenants",
                serde_json::Value::Array(
                    tenants
                        .iter()
                        .map(|(key, stats)| {
                            let mut entry = serde_json::Map::new();
                            entry.insert("tenant", serde_json::Value::from(key.as_str()));
                            entry.insert(
                                "cache",
                                asynd_circuit::artifact::evaluator_stats_to_json(stats),
                            );
                            serde_json::Value::Object(entry)
                        })
                        .collect(),
                ),
            );
            let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
                .expect("metrics serialization is infallible");
            writeln!(stdout, "{rendered}").map_err(|e| e.to_string())?;
        }
        stdout.flush().map_err(|e| e.to_string())?;
        if !watch {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut config = LoadgenConfig::default();
    let mut tcp: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut mode = "closed".to_string();
    let mut rate = 2000.0f64;
    let mut pipeline = 1usize;
    let mut smoke = false;
    let mut quiet = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tcp" => tcp = Some(flags.value("--tcp")?.to_string()),
            "--mode" => mode = flags.value("--mode")?.to_string(),
            "--conns" => {
                config.connections = flags
                    .value("--conns")?
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--conns got an unparsable count {part:?}"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--requests" => config.requests_per_conn = flags.parsed("--requests")?,
            "--rate" => rate = flags.parsed("--rate")?,
            "--duration" => config.duration = Duration::from_secs_f64(flags.parsed("--duration")?),
            "--pipeline" => pipeline = flags.parsed("--pipeline")?,
            "--proto" => {
                config.protocol = match flags.value("--proto")? {
                    "v1" => WireProtocol::V1,
                    "v2" => WireProtocol::V2,
                    other => return Err(format!("--proto must be v1 or v2, got {other:?}")),
                }
            }
            "--workload" => {
                config.workload = match flags.value("--workload")? {
                    "ping" => Workload::Ping,
                    "synthesize" => Workload::Synthesize,
                    other => {
                        return Err(format!("--workload must be ping or synthesize, got {other:?}"))
                    }
                }
            }
            "--out" => out = Some(PathBuf::from(flags.value("--out")?)),
            "--smoke" => smoke = true,
            "--quiet" => quiet = true,
            other => return Err(format!("loadgen: unknown flag {other:?}")),
        }
    }
    config.addr = tcp.ok_or("loadgen: needs --tcp ADDR (a live `asynd serve --tcp`)")?;
    config.mode = match mode.as_str() {
        "closed" => Mode::Closed { pipeline },
        "open" => {
            if !rate.is_finite() || rate <= 0.0 {
                return Err("loadgen: --rate must be positive".to_string());
            }
            Mode::Open { rate_rps: rate }
        }
        other => return Err(format!("loadgen: --mode must be open or closed, got {other:?}")),
    };
    if smoke {
        // A seconds-scale CI pass: small ramp, few requests, short drain.
        config.connections = vec![8, 64];
        config.requests_per_conn = 25;
        config.duration = Duration::from_secs(2);
        config.drain = Duration::from_secs(5);
        if let Mode::Open { rate_rps } = &mut config.mode {
            *rate_rps = (*rate_rps).min(500.0);
        }
    }
    let results = loadgen::run(&config)?;
    if !quiet {
        eprintln!(
            "{:>8}  {:>6}  {:>5}  {:>10}  {:>8}  {:>12}  {:>9}  {:>9}  {:>9}",
            "conns", "mode", "proto", "workload", "requests", "rps", "p50_us", "p99_us", "max_us"
        );
        for stage in &results {
            eprintln!(
                "{:>8}  {:>6}  {:>5}  {:>10}  {:>8}  {:>12.1}  {:>9}  {:>9}  {:>9}",
                stage.connections,
                stage.mode,
                stage.protocol,
                stage.workload,
                stage.requests,
                stage.throughput_rps,
                stage.p50_us,
                stage.p99_us,
                stage.max_us
            );
            if stage.errors > 0 {
                eprintln!(
                    "asynd: loadgen: stage {} had {} error(s)",
                    stage.connections, stage.errors
                );
            }
        }
    }
    let document = loadgen::report_to_json(&config, &results);
    let rendered =
        serde_json::to_string_pretty(&document).expect("loadgen serialization is infallible");
    match out {
        Some(path) => {
            std::fs::write(&path, rendered.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("asynd: wrote {} ({} stage(s))", path.display(), results.len());
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

fn read_request_lines(file: Option<&PathBuf>) -> Result<Vec<String>, String> {
    let text = match file {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => {
            let mut buffer = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buffer)
                .map_err(|e| e.to_string())?;
            buffer
        }
    };
    Ok(text.lines().map(str::to_string).filter(|line| !line.trim().is_empty()).collect())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut tcp: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut workers = 0usize;
    let mut registry: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tcp" => tcp = Some(flags.value("--tcp")?.to_string()),
            "--file" => file = Some(PathBuf::from(flags.value("--file")?)),
            "--workers" => workers = flags.parsed("--workers")?,
            "--registry" => registry = Some(flags.value("--registry")?.to_string()),
            other => return Err(format!("submit: unknown flag {other:?}")),
        }
    }
    let lines = read_request_lines(file.as_ref())?;
    if lines.is_empty() {
        return Err("no request lines to submit".to_string());
    }
    match tcp {
        Some(addr) => {
            if registry.is_some() {
                return Err("submit: --registry applies to the in-process mode only \
                            (the TCP server owns its own registry)"
                    .to_string());
            }
            // Parse up front: a malformed line is the operator's
            // mistake, caught before anything reaches the server.
            let mut requests = Vec::with_capacity(lines.len());
            for (index, line) in lines.iter().enumerate() {
                let request = Request::parse(line)
                    .map_err(|e| format!("submit: request line {}: {e}", index + 1))?;
                requests.push(request);
            }
            let mut client = Client::new(&addr);
            let mut remaining = 0usize;
            for request in &requests {
                client.send(request).map_err(|e| format!("submit: {e}"))?;
                remaining += 1;
            }
            let mut stdout = std::io::stdout().lock();
            let mut shutting_down = false;
            while remaining > 0 {
                match client.recv() {
                    Ok((_, response)) => {
                        writeln!(stdout, "{}", response.to_json()).map_err(|e| e.to_string())?;
                        remaining -= 1;
                        if matches!(response, Response::ShuttingDown) {
                            // The server closes after the ack; anything
                            // still queued behind it will never answer.
                            shutting_down = true;
                        }
                    }
                    // A close right after the shutdown ack is the
                    // protocol working as designed, not a failure.
                    Err(_) if shutting_down => break,
                    Err(e) => return Err(format!("submit: {e}")),
                }
            }
        }
        None => {
            let registry = registry.as_deref().map(open_registry).transpose()?;
            let server = ScheduleServer::start_with_registry(
                ServerConfig { workers, ..ServerConfig::default() },
                registry,
            );
            let input = lines.join("\n");
            let stdout = std::io::stdout();
            serve_lines(input.as_bytes(), stdout.lock(), &server).map_err(|e| e.to_string())?;
            server.shutdown();
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut config = SweepConfig::standard();
    let mut out = PathBuf::from("BENCH_sweep.json");
    let mut quiet = false;
    let mut smoke = false;
    let mut registry: Option<String> = None;
    let mut fleet: Vec<String> = Vec::new();
    // Explicit flags beat the --smoke preset regardless of order.
    let mut explicit_shots: Option<usize> = None;
    let mut explicit_mult: Option<u64> = None;
    let mut explicit_entries: Option<usize> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(flags.value("--out")?),
            "--seed" => config.seed = flags.parsed("--seed")?,
            "--shots" => explicit_shots = Some(flags.parsed("--shots")?),
            "--budget-mult" => explicit_mult = Some(flags.parsed("--budget-mult")?),
            "--max-qubits" => config.max_qubits = flags.parsed("--max-qubits")?,
            "--entries" => explicit_entries = Some(flags.parsed("--entries")?),
            // An integer is the rayon thread count (the historical
            // meaning); anything with a ':' is a fleet address list.
            "--workers" => {
                let raw = flags.value("--workers")?;
                if let Ok(count) = raw.parse::<usize>() {
                    config.workers = count;
                } else {
                    fleet = raw
                        .split(',')
                        .map(|addr| addr.trim().to_string())
                        .filter(|addr| !addr.is_empty())
                        .collect();
                    if fleet.is_empty() || fleet.iter().any(|addr| !addr.contains(':')) {
                        return Err(format!(
                            "--workers expects a thread count or a comma-separated \
                             list of host:port worker addresses, got {raw:?}"
                        ));
                    }
                }
            }
            "--registry" => registry = Some(flags.value("--registry")?.to_string()),
            "--quiet" => quiet = true,
            "--rates" => {
                config.error_rates = flags
                    .value("--rates")?
                    .split(',')
                    .map(|raw| {
                        raw.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("--rates got an unparsable rate {raw:?}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            "--families" => {
                config.families =
                    flags.value("--families")?.split(',').map(|s| s.trim().to_string()).collect();
            }
            other => return Err(format!("sweep: unknown flag {other:?}")),
        }
    }
    if smoke {
        let preset = SweepConfig::smoke();
        config.entries_per_family = preset.entries_per_family;
        config.budget_multiplier = preset.budget_multiplier;
        config.shots = preset.shots;
    }
    if let Some(shots) = explicit_shots {
        config.shots = shots;
    }
    if let Some(mult) = explicit_mult {
        config.budget_multiplier = mult;
    }
    if let Some(entries) = explicit_entries {
        config.entries_per_family = entries;
    }
    let registry = registry.as_deref().map(open_registry).transpose()?;
    let started = Instant::now();
    let mut options = SweepOptions::with_config(config.clone()).fleet(fleet);
    if let Some(registry) = registry.as_deref() {
        options = options.registry(registry);
    }
    let report = options.run().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    report.write(&config, &out).map_err(|e| e.to_string())?;
    if !quiet {
        print!("{}", report.render_table());
    }
    // Per-cell wall-time is elapsed time, not a sum of strategy walls —
    // the summary reports both the sweep's elapsed clock and the mean
    // cell, so the two are comparable at a glance.
    let mean_cell_ms = if report.phases.is_empty() {
        0.0
    } else {
        report.phases.iter().map(|p| p.wall_ms).sum::<f64>() / report.phases.len() as f64
    };
    eprintln!(
        "asynd: swept {} codes x {} rates ({} records) in {:.1}s ({:.0} ms/cell) -> {}",
        report.codes,
        report.rates,
        report.records.len(),
        elapsed.as_secs_f64(),
        mean_cell_ms,
        out.display()
    );
    if let Some(registry) = &registry {
        eprintln!(
            "asynd: registry {}: warm-started {} of {} cells, stored {} new artifact(s)",
            registry.dir().display(),
            report.warm_cells,
            report.cells,
            report.stored,
        );
    }
    Ok(())
}

fn cmd_fleetbench(args: &[String]) -> Result<(), String> {
    let mut config = SweepConfig::smoke();
    let mut counts: Vec<usize> = vec![1, 2, 4];
    let mut out = PathBuf::from("BENCH_fleet.json");
    let mut quiet = false;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            // A reduced grid for CI: two families, tiny codes, few shots.
            "--smoke" => {
                config.families =
                    vec!["rotated-surface".to_string(), "hexagonal-color".to_string()];
                config.error_rates = vec![3e-3, 7.4e-3];
                config.max_qubits = 9;
                config.shots = 120;
            }
            "--counts" => {
                counts = flags
                    .value("--counts")?
                    .split(',')
                    .map(|raw| {
                        raw.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--counts got an unparsable count {raw:?}"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                if counts.is_empty() || counts.contains(&0) {
                    return Err("--counts needs positive worker counts".to_string());
                }
            }
            "--out" => out = PathBuf::from(flags.value("--out")?),
            "--seed" => config.seed = flags.parsed("--seed")?,
            "--quiet" => quiet = true,
            other => return Err(format!("fleetbench: unknown flag {other:?}")),
        }
    }
    // In-process baseline: the canonical report every fleet size must
    // reproduce bit-for-bit, and the throughput reference the smallest
    // fleet's efficiency is normalised against.
    eprintln!("asynd: fleetbench baseline (in-process)...");
    let started = Instant::now();
    let baseline = SweepOptions::with_config(config.clone()).run().map_err(|e| e.to_string())?;
    let baseline_elapsed = started.elapsed().as_secs_f64();
    let baseline_doc = canonical_report_value(&baseline.to_json(&config));
    let cells = baseline.cells;
    eprintln!("asynd: baseline swept {cells} cell(s) in {baseline_elapsed:.1}s");
    let mut records: Vec<FleetBenchRecord> = Vec::new();
    let mut reference: Option<f64> = None;
    for &count in &counts {
        let workers = (0..count)
            .map(|_| LocalWorker::spawn().map_err(|e| format!("cannot spawn worker: {e}")))
            .collect::<Result<Vec<LocalWorker>, String>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let started = Instant::now();
        let report = SweepOptions::with_config(config.clone())
            .fleet(addrs)
            .run()
            .map_err(|e| e.to_string())?;
        let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
        for worker in workers {
            worker.shutdown();
        }
        let merged_identical = canonical_report_value(&report.to_json(&config)) == baseline_doc;
        let cells_per_hour = cells as f64 * 3600.0 / elapsed_s;
        let per_worker = cells_per_hour / count as f64;
        let reference = *reference.get_or_insert(per_worker);
        let efficiency = per_worker / reference;
        eprintln!(
            "asynd: fleet of {count}: {cells} cell(s) in {elapsed_s:.1}s \
             ({cells_per_hour:.0} cells/h, efficiency {efficiency:.2}, \
             identical: {merged_identical})"
        );
        records.push(FleetBenchRecord {
            workers: count,
            cells,
            elapsed_s,
            cells_per_hour,
            efficiency,
            merged_identical,
        });
    }
    let doc = fleet_report_to_json(&config, &records);
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
    }
    let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if !quiet {
        println!(
            "{:>8} {:>7} {:>10} {:>15} {:>11} {:>10}",
            "workers", "cells", "elapsed_s", "cells_per_hour", "efficiency", "identical"
        );
        for record in &records {
            println!(
                "{:>8} {:>7} {:>10.1} {:>15.0} {:>11.2} {:>10}",
                record.workers,
                record.cells,
                record.elapsed_s,
                record.cells_per_hour,
                record.efficiency,
                record.merged_identical
            );
        }
    }
    eprintln!("asynd: fleet scaling study -> {}", out.display());
    if records.iter().any(|record| !record.merged_identical) {
        return Err("fleet merge diverged from the in-process baseline".to_string());
    }
    Ok(())
}

fn cmd_registry(args: &[String]) -> Result<(), String> {
    const REGISTRY_USAGE: &str = "registry: usage: asynd registry (stats|verify|compact) DIR \
                                  | export DIR FILE [PREFIX] | import DIR FILE";
    let (action, dir) = match args.first().zip(args.get(1)) {
        Some((action, dir)) => (action.as_str(), dir.as_str()),
        None => return Err(REGISTRY_USAGE.to_string()),
    };
    let registry = open_registry(dir)?;
    match action {
        "export" => {
            let file = args.get(2).ok_or(REGISTRY_USAGE)?;
            let prefix = args.get(3).map(String::as_str);
            if args.len() > 4 {
                return Err(REGISTRY_USAGE.to_string());
            }
            let text = registry.export_records(prefix);
            let records = text.lines().count();
            std::fs::write(file, &text).map_err(|e| format!("cannot write {file}: {e}"))?;
            println!(
                "{dir}: exported {records} record(s){} -> {file}",
                prefix.map(|p| format!(" matching {p:?}")).unwrap_or_default()
            );
            return Ok(());
        }
        "import" => {
            let file = args.get(2).ok_or(REGISTRY_USAGE)?;
            if args.len() > 3 {
                return Err(REGISTRY_USAGE.to_string());
            }
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let report = registry.import_records(&text).map_err(|e| e.to_string())?;
            for line in &report.reports {
                eprintln!("asynd: {line}");
            }
            println!(
                "{dir}: imported {} record(s) from {file} \
                 ({} stored, {} replaced, {} duplicate(s), {} rejected)",
                report.records, report.stored, report.replaced, report.duplicates, report.skipped
            );
            if report.skipped > 0 {
                return Err(format!("{dir}: {} record(s) failed verification", report.skipped));
            }
            return Ok(());
        }
        _ if args.len() != 2 => return Err(REGISTRY_USAGE.to_string()),
        _ => {}
    }
    match action {
        "stats" => {
            let stats = registry.stats();
            println!(
                "{dir}: {} entries across {} tenants in {} segment(s)",
                stats.entries, stats.tenants, stats.segments
            );
            for entry in registry.entries() {
                println!(
                    "  {}  {}  p_overall={:.3e} depth={}",
                    entry.tenant,
                    entry.artifact.key().to_hex(),
                    entry.artifact.estimate.p_overall(),
                    entry.artifact.schedule.depth(),
                );
            }
        }
        "verify" => {
            let report = registry.verify().map_err(|e| e.to_string())?;
            for line in &report.reports {
                eprintln!("asynd: {line}");
            }
            println!(
                "{dir}: {} of {} record(s) verified across {} segment(s)",
                report.valid,
                report.valid + report.invalid,
                report.segments
            );
            if report.invalid > 0 {
                return Err(format!("{dir}: {} record(s) failed verification", report.invalid));
            }
        }
        "compact" => {
            let report = registry.compact().map_err(|e| e.to_string())?;
            println!(
                "{dir}: merged {} segment(s) into one ({} live record(s))",
                report.segments_before, report.entries
            );
        }
        other => {
            return Err(format!(
                "registry: unknown action {other:?} (stats|verify|compact|export|import)"
            ))
        }
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut fix_baseline = false;
    let mut verbose = false;
    let mut root = ".".to_string();
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--json" => json = true,
            "--fix-baseline" => fix_baseline = true,
            "--verbose" => verbose = true,
            "--root" => root = flags.value("--root")?.to_string(),
            "--baseline" => baseline_path = Some(flags.value("--baseline")?.to_string()),
            "--out" => out_path = Some(flags.value("--out")?.to_string()),
            other => return Err(format!("lint: unknown flag {other:?}\n{USAGE}")),
        }
    }
    let root_path = std::path::Path::new(&root);
    let files = asynd_analysis::scan_workspace(root_path)
        .map_err(|e| format!("lint: scanning {root}: {e}"))?;
    if files.is_empty() {
        return Err(format!("lint: no first-party sources under {root} (wrong --root?)"));
    }
    let mut findings = asynd_analysis::analyze(&files);
    let baseline_file = baseline_path
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| root_path.join("lint-baseline.json"));

    if fix_baseline {
        let baseline = asynd_analysis::Baseline::from_findings(&findings);
        let text = serde_json::to_string_pretty(&baseline.to_json())
            .map_err(|e| format!("lint: serializing baseline: {e}"))?;
        std::fs::write(&baseline_file, text + "\n")
            .map_err(|e| format!("lint: writing {}: {e}", baseline_file.display()))?;
        println!(
            "lint: wrote {} baseline entr{} to {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            baseline_file.display()
        );
        return Ok(());
    }

    let baseline =
        asynd_analysis::Baseline::load(&baseline_file).map_err(|e| format!("lint: {e}"))?;
    baseline.apply(&mut findings);
    let doc = asynd_analysis::findings_to_json(&findings);
    if let Some(out) = &out_path {
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("lint: serializing findings: {e}"))?;
        std::fs::write(out, text + "\n").map_err(|e| format!("lint: writing {out}: {e}"))?;
    }
    if json {
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("lint: serializing findings: {e}"))?;
        println!("{text}");
    } else {
        print!("{}", asynd_analysis::render_text(&findings, verbose));
    }
    let new = findings.iter().filter(|f| f.suppressed.is_none() && !f.baselined).count();
    if new > 0 {
        Err(format!(
            "lint: {new} new finding(s) — fix them, suppress with \
             `// asynd-lint: allow(<rule>) -- <reason>`, or grant with --fix-baseline"
        ))
    } else {
        Ok(())
    }
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--equal") {
        let [a, b] = match &args[1..] {
            [a, b] => [a, b],
            _ => return Err("validate: --equal needs exactly two report files".to_string()),
        };
        let docs = [a, b].map(|path| -> Result<serde_json::Value, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let doc = serde_json::from_str(&text)
                .map_err(|e| format!("{path} is not valid JSON: {e}"))?;
            Ok(canonical_report_value(&doc))
        });
        let [doc_a, doc_b] = docs;
        if doc_a? != doc_b? {
            return Err(format!("{a} and {b} differ after canonicalisation"));
        }
        println!("{a} == {b} (canonical forms are identical)");
        return Ok(());
    }
    let (metrics_mode, lints_mode, files) = match args.split_first() {
        Some((first, rest)) if first == "--metrics" => (true, false, rest),
        Some((first, rest)) if first == "--lints" => (false, true, rest),
        _ => (false, false, args),
    };
    if files.is_empty() {
        return Err("validate: no files given".to_string());
    }
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if lints_mode {
            let doc: serde_json::Value = serde_json::from_str(&text)
                .map_err(|e| format!("{path} is not valid JSON: {e}"))?;
            match asynd_analysis::validate_lints(&doc) {
                Ok(verdict) => println!("{path}: {verdict}"),
                Err(problems) => {
                    return Err(format!("{path} is invalid:\n  {}", problems.join("\n  ")));
                }
            }
        } else if metrics_mode {
            let report = asynd_telemetry::validate_text(&text)
                .map_err(|e| format!("{path} is invalid: {e}"))?;
            println!(
                "{path}: ok ({} samples, {} histograms, {} lines)",
                report.samples, report.histograms, report.lines
            );
        } else if let Some(kind) = benchmark_kind(&text) {
            match kind.as_str() {
                // Serving benchmarks (`asynd loadgen`) have their own shape.
                "serving" => {
                    let summary = loadgen::validate_serving_text(&text)
                        .map_err(|e| format!("{path} is invalid: {e}"))?;
                    println!(
                        "{path}: ok ({} stage(s), up to {} connections, {} requests)",
                        summary.records, summary.max_connections, summary.requests_total
                    );
                }
                // Fleet scaling studies (`asynd fleetbench`) likewise.
                "fleet" => {
                    let summary = validate_fleet_text(&text)
                        .map_err(|e| format!("{path} is invalid: {e}"))?;
                    println!(
                        "{path}: ok ({} scaling record(s), up to {} worker(s), merges identical)",
                        summary.records, summary.max_workers
                    );
                }
                other => return Err(format!("{path} has unknown benchmark kind {other:?}")),
            }
        } else {
            let summary =
                validate_report_text(&text).map_err(|e| format!("{path} is invalid: {e}"))?;
            println!(
                "{path}: ok ({} records, {} codes, {} strategies)",
                summary.records, summary.codes, summary.strategies
            );
        }
    }
    Ok(())
}

/// The `kind` member of a benchmark document, if it declares one.
/// Sweep reports predate the member and validate as the default shape.
fn benchmark_kind(text: &str) -> Option<String> {
    let doc: serde_json::Value = serde_json::from_str(text).ok()?;
    doc.get("kind").and_then(serde_json::Value::as_str).map(str::to_string)
}
