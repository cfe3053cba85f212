//! Catalog-wide scenario sweeps: every registered code family × an
//! error-rate grid, raced through the portfolio engine and emitted as a
//! machine-readable benchmark trajectory (`BENCH_sweep.json`, the same
//! shape as `BENCH_portfolio.json`).
//!
//! One entry point, [`SweepOptions`]: grid config plus the optional
//! extras (a persistent registry, fleet worker addresses, local worker
//! count) as builder methods. Zero fleet workers fans cells out over
//! rayon with the worker-loop pattern; with worker addresses the
//! [`crate::fleet`] coordinator distributes cells to remote
//! `asynd serve` processes over the framed v2 protocol. Either way each
//! cell evaluates under its *tenant's* salt — the exact salt a schedule
//! server resolves for the same (code, noise, shots) — so the emitted
//! records are bit-identical for any worker count, local or remote
//! (wall-clock members aside; see [`canonical_report_value`]).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asynd_circuit::artifact::ScheduleArtifact;
use asynd_circuit::{EstimateOptions, Evaluator, Schedule, DEFAULT_CACHE_CAPACITY};
use asynd_codes::catalog::{families, CatalogEntry};
use asynd_decode::factory_for;
use asynd_portfolio::{Portfolio, PortfolioConfig};
use asynd_registry::Registry;
use asynd_sim::mix_seed;
use asynd_telemetry::Histogram;
use serde_json::{Map, Value};

use crate::protocol::{CodeRef, JobOutcome, JobRequest, NoiseSpec, StrategyChoice};
use crate::tenants::{tenant_salt, TenantMap};
use crate::{fnv64, ServerError};

/// Configuration of one catalog sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// The physical error rates of the grid (each becomes a
    /// [`NoiseSpec::Scaled`] model).
    pub error_rates: Vec<f64>,
    /// Registry family names to sweep (empty = every registered family).
    pub families: Vec<String>,
    /// Skip codes with more data qubits than this (keeps smoke sweeps in
    /// the minutes range).
    pub max_qubits: usize,
    /// Entries taken per family, in scaling order (`0` = all).
    pub entries_per_family: usize,
    /// Per-strategy evaluation grant as a multiple of the code's
    /// cheapest-possible MCTS run (`total_checks + 2`), which keeps every
    /// strategy above its budget floor on every code size.
    pub budget_multiplier: u64,
    /// Monte-Carlo shots per evaluation.
    pub shots: usize,
    /// Worker threads fanning cells out (`0` = rayon's parallelism).
    pub workers: usize,
}

impl SweepConfig {
    /// The standard sweep: all families, three error rates, all entries
    /// up to 30 data qubits.
    pub fn standard() -> SweepConfig {
        SweepConfig {
            seed: 2026,
            error_rates: vec![1e-3, 3e-3, 7.4e-3],
            families: Vec::new(),
            max_qubits: 30,
            entries_per_family: 0,
            budget_multiplier: 2,
            shots: 600,
            workers: 0,
        }
    }

    /// The CI smoke sweep: one (smallest) entry per family, reduced
    /// budgets and shots. Still covers ≥ 6 distinct codes × 3 rates.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            entries_per_family: 1,
            budget_multiplier: 1,
            shots: 240,
            ..SweepConfig::standard()
        }
    }
}

/// One record of the sweep trajectory: a strategy's result on one
/// (code, error rate) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Registry family name.
    pub family: String,
    /// Display label of the code instance.
    pub code: String,
    /// The cell's physical error rate.
    pub error_rate: f64,
    /// Strategy name.
    pub strategy: String,
    /// Wall-clock of the strategy in milliseconds (observability only).
    pub wall_ms: f64,
    /// Achieved logical error rate.
    pub p_overall: f64,
    /// Depth of the strategy's best schedule.
    pub depth: usize,
    /// Canonical key of the strategy's best schedule (hex).
    pub schedule_key: String,
    /// Metered evaluation spend.
    pub evaluations: u64,
    /// Cell-level shared-cache hit rate.
    pub cache_hit_rate: f64,
    /// Whether the strategy won its cell.
    pub winner: bool,
    /// Whether the cell's race was warm-started from a registry
    /// artifact.
    pub warm_start: bool,
}

impl SweepRecord {
    /// Serializes one record (same member style as the portfolio bench's
    /// trajectory records).
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("family", Value::from(self.family.as_str()));
        map.insert("code", Value::from(self.code.as_str()));
        map.insert("error_rate", Value::from(self.error_rate));
        map.insert("strategy", Value::from(self.strategy.as_str()));
        map.insert("mode", Value::from("race"));
        map.insert("wall_ms", Value::from(self.wall_ms));
        map.insert("p_overall", Value::from(self.p_overall));
        map.insert("depth", Value::from(self.depth));
        map.insert("schedule_key", Value::from(self.schedule_key.as_str()));
        map.insert("evaluations", Value::from(self.evaluations));
        map.insert("cache_hit_rate", Value::from(self.cache_hit_rate));
        map.insert("winner", Value::from(self.winner));
        map.insert("warm_start", Value::from(self.warm_start));
        Value::Object(map)
    }
}

/// Per-cell wall-clock phase breakdown: where one grid cell's time went
/// (observability only — all timings are outside the determinism
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub struct CellPhases {
    /// Registry family name of the cell.
    pub family: String,
    /// Display label of the cell's code instance.
    pub code: String,
    /// The cell's physical error rate.
    pub error_rate: f64,
    /// Registry warm-start lookup, in milliseconds (0 without a
    /// registry).
    pub lookup_ms: f64,
    /// The portfolio race itself, in milliseconds.
    pub race_ms: f64,
    /// Registry store of the winner, in milliseconds (0 without a
    /// registry).
    pub store_ms: f64,
    /// Elapsed wall-time of the whole cell, in milliseconds.
    pub wall_ms: f64,
}

impl CellPhases {
    /// Serializes one phase-breakdown entry.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        map.insert("family", Value::from(self.family.as_str()));
        map.insert("code", Value::from(self.code.as_str()));
        map.insert("error_rate", Value::from(self.error_rate));
        map.insert("lookup_ms", Value::from(self.lookup_ms));
        map.insert("race_ms", Value::from(self.race_ms));
        map.insert("store_ms", Value::from(self.store_ms));
        map.insert("wall_ms", Value::from(self.wall_ms));
        Value::Object(map)
    }
}

/// The outcome of a sweep: all records plus coverage counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One record per (cell, strategy), in deterministic cell order.
    pub records: Vec<SweepRecord>,
    /// Per-cell phase breakdowns, in the same cell order as `records`
    /// (one entry per cell; each cell contributes four records).
    pub phases: Vec<CellPhases>,
    /// Distinct code instances covered.
    pub codes: usize,
    /// Error rates covered.
    pub rates: usize,
    /// Grid cells executed (one portfolio race each).
    pub cells: usize,
    /// Cells warm-started from a registry artifact (0 without a
    /// registry).
    pub warm_cells: usize,
    /// Winning artifacts newly stored into the registry (0 without one).
    pub stored: usize,
}

impl SweepReport {
    /// Serializes the full trajectory document (the `BENCH_sweep.json`
    /// shape: `generated_by` + `records`, like `BENCH_portfolio.json`).
    pub fn to_json(&self, config: &SweepConfig) -> Value {
        let mut doc = Map::new();
        doc.insert("generated_by", Value::from("asynd sweep"));
        let mut cfg = Map::new();
        cfg.insert("seed", Value::from(config.seed));
        cfg.insert("shots", Value::from(config.shots));
        cfg.insert("budget_multiplier", Value::from(config.budget_multiplier));
        cfg.insert("max_qubits", Value::from(config.max_qubits));
        cfg.insert("entries_per_family", Value::from(config.entries_per_family));
        cfg.insert(
            "error_rates",
            Value::Array(config.error_rates.iter().map(|&r| Value::from(r)).collect()),
        );
        doc.insert("config", Value::Object(cfg));
        let mut coverage = Map::new();
        coverage.insert("codes", Value::from(self.codes));
        coverage.insert("error_rates", Value::from(self.rates));
        coverage.insert("records", Value::from(self.records.len()));
        coverage.insert("cells", Value::from(self.cells));
        coverage.insert("warm_cells", Value::from(self.warm_cells));
        coverage.insert("stored_artifacts", Value::from(self.stored));
        doc.insert("coverage", Value::Object(coverage));
        doc.insert(
            "records",
            Value::Array(self.records.iter().map(SweepRecord::to_json).collect()),
        );
        doc.insert("phases", Value::Array(self.phases.iter().map(CellPhases::to_json).collect()));
        Value::Object(doc)
    }

    /// Writes the trajectory document to `path` (pretty-printed).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (parent directories are created).
    pub fn write(&self, config: &SweepConfig, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = serde_json::to_string_pretty(&self.to_json(config))
            .expect("sweep serialization is infallible");
        std::fs::write(path, text + "\n")
    }

    /// Renders the winners as a fixed-width table (one row per cell) for
    /// terminals and EXPERIMENTS.md.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<34} {:>9}  {:<12} {:>10} {:>6} {:>9}\n",
            "family", "code", "rate", "winner", "p_overall", "depth", "wall_ms"
        ));
        // Winners come one per cell, in cell order — aligned with the
        // phase breakdowns, whose wall-time the summary rows report.
        for (record, phases) in self.records.iter().filter(|r| r.winner).zip(&self.phases) {
            out.push_str(&format!(
                "{:<24} {:<34} {:>9} {:<12} {:>11.3e} {:>6} {:>9.1}\n",
                record.family,
                truncate(&record.code, 34),
                format!("{}", record.error_rate),
                record.strategy,
                record.p_overall,
                record.depth,
                phases.wall_ms,
            ));
        }
        out
    }
}

fn truncate(text: &str, limit: usize) -> String {
    if text.chars().count() <= limit {
        text.to_string()
    } else {
        let head: String = text.chars().take(limit.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

/// What one cell produced: its records plus its registry interaction
/// and where its wall-time went (identity-free; the report assembly
/// attaches family/code/rate).
pub(crate) struct CellOutcome {
    pub(crate) records: Vec<SweepRecord>,
    pub(crate) warm_start: bool,
    pub(crate) stored: bool,
    pub(crate) lookup_ms: f64,
    pub(crate) race_ms: f64,
    pub(crate) store_ms: f64,
    pub(crate) wall_ms: f64,
}

/// The sweep's latency histograms, resolved once from the process-wide
/// telemetry registry so `asynd metrics` sees sweep phases too.
pub(crate) struct SweepTelemetry {
    pub(crate) lookup_us: Histogram,
    race_us: Histogram,
    pub(crate) store_us: Histogram,
    pub(crate) cell_wall_us: Histogram,
}

impl SweepTelemetry {
    pub(crate) fn resolve() -> SweepTelemetry {
        let registry = asynd_telemetry::global();
        SweepTelemetry {
            lookup_us: registry.histogram("asynd_sweep_lookup_us"),
            race_us: registry.histogram("asynd_sweep_race_us"),
            store_us: registry.histogram("asynd_sweep_store_us"),
            cell_wall_us: registry.histogram("asynd_sweep_cell_wall_us"),
        }
    }
}

/// One fan-out slot: the (eventual) outcome of one cell.
pub(crate) type CellSlot = Mutex<Option<Result<CellOutcome, ServerError>>>;

/// One unit of sweep work.
pub(crate) struct Cell {
    pub(crate) family: &'static str,
    pub(crate) entry: CatalogEntry,
    pub(crate) entry_index: usize,
    pub(crate) rate: f64,
}

impl Cell {
    /// The cell's stable identity: the job id on the wire, and the
    /// stream every cell-local seed derives from.
    pub(crate) fn key(&self) -> String {
        format!("{}[{}]@{}", self.family, self.entry_index, self.rate)
    }

    /// The canonical tenant key a schedule server would resolve for
    /// this cell — the namespace sweeps, servers and registries share.
    pub(crate) fn tenant(&self, config: &SweepConfig) -> String {
        let code_ref = CodeRef { family: self.family.to_string(), index: self.entry_index };
        TenantMap::canonical_key(&code_ref, &NoiseSpec::Scaled(self.rate), config.shots)
    }

    /// Per-strategy evaluation grant for this cell's code.
    pub(crate) fn grant(&self, config: &SweepConfig) -> u64 {
        let total_checks: u64 =
            self.entry.code.stabilizers().iter().map(|s| s.weight() as u64).sum();
        (total_checks + 2) * config.budget_multiplier
    }

    /// The v2 job request a fleet coordinator ships for this cell,
    /// optionally carrying a warm-start seed from its registry. The
    /// request reproduces the in-process race exactly: same portfolio
    /// seed (derived from the cell key), same per-strategy grant
    /// (`budget` is the grant re-multiplied by the portfolio's party
    /// count, which the server's `split_grant` divides back), same
    /// shots — so a remote worker and a local rayon worker return
    /// bit-identical results.
    pub(crate) fn request(
        &self,
        config: &SweepConfig,
        warm_seed: Option<Box<ScheduleArtifact>>,
    ) -> JobRequest {
        let key = self.key();
        JobRequest {
            id: key.clone(),
            code: CodeRef { family: self.family.to_string(), index: self.entry_index },
            noise: NoiseSpec::Scaled(self.rate),
            strategy: StrategyChoice::Portfolio,
            budget: self.grant(config) * StrategyChoice::Portfolio.parties() as u64,
            shots: config.shots,
            seed: mix_seed(config.seed, fnv64(key.as_bytes())),
            warm_seed,
        }
    }
}

/// A catalog sweep being configured: the grid plus optional extras,
/// resolved by [`SweepOptions::run`].
///
/// ```no_run
/// use asynd_server::sweep::{SweepConfig, SweepOptions};
///
/// // The CI smoke grid, distributed over two workers.
/// let report = SweepOptions::with_config(SweepConfig::smoke())
///     .fleet(["127.0.0.1:7271", "127.0.0.1:7272"])
///     .run()
///     .unwrap();
/// # let _ = report;
/// ```
pub struct SweepOptions<'a> {
    config: SweepConfig,
    registry: Option<&'a Registry>,
    workers: Vec<String>,
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        SweepOptions::new()
    }
}

impl<'a> SweepOptions<'a> {
    /// The standard sweep grid with no extras.
    pub fn new() -> SweepOptions<'a> {
        SweepOptions::with_config(SweepConfig::standard())
    }

    /// The CI smoke grid with no extras.
    pub fn smoke() -> SweepOptions<'a> {
        SweepOptions::with_config(SweepConfig::smoke())
    }

    /// A sweep over an explicit grid config.
    pub fn with_config(config: SweepConfig) -> SweepOptions<'a> {
        SweepOptions { config, registry: None, workers: Vec::new() }
    }

    /// The grid this sweep will run.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Attaches a persistent schedule registry. Every cell resolves the
    /// same canonical tenant key the schedule server would
    /// (`family[index]|scaled(rate)|shots=N`), warm-starts its race
    /// from the registry's best artifact for that tenant, and stores
    /// its winner back — so repeated sweeps over one registry directory
    /// reuse each other's work, and sweep artifacts are interchangeable
    /// with server-produced ones. Within one sweep all cells are
    /// distinct tenants, so the records stay bit-identical for any
    /// worker count given the registry state at sweep start.
    pub fn registry(mut self, registry: &'a Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Distributes cells to remote `asynd serve` workers at these
    /// addresses instead of local rayon workers (empty = stay local).
    /// See [`crate::fleet`] for the coordinator's contract.
    pub fn fleet(mut self, workers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.workers = workers.into_iter().map(Into::into).collect();
        self
    }

    /// Local worker-thread cap for the rayon fan-out (`0` = rayon's
    /// parallelism). Ignored when a fleet is attached.
    pub fn local_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rejected`] for an empty grid or unknown
    /// family filters, and propagates the first cell failure (in
    /// deterministic cell order). A fleet run fails only when *every*
    /// worker dies and the local fallback fails too.
    pub fn run(&self) -> Result<SweepReport, ServerError> {
        let cells = enumerate_cells(&self.config)?;
        if self.workers.is_empty() {
            run_local(&self.config, &cells, self.registry)
        } else {
            crate::fleet::run_fleet(&self.config, &cells, self.registry, &self.workers)
        }
    }
}

/// Expands a sweep config into its deterministic cell list (family
/// order × entry order × rate order), validating the grid.
pub(crate) fn enumerate_cells(config: &SweepConfig) -> Result<Vec<Cell>, ServerError> {
    if config.error_rates.is_empty() {
        return Err(ServerError::Rejected { reason: "sweep needs at least one error rate".into() });
    }
    if config.budget_multiplier == 0 || config.shots == 0 {
        return Err(ServerError::Rejected {
            reason: "budget multiplier and shots must be positive".into(),
        });
    }
    let catalog = families();
    let selected: Vec<_> = if config.families.is_empty() {
        catalog
    } else {
        for name in &config.families {
            if !catalog.iter().any(|family| family.name == *name) {
                return Err(ServerError::Rejected {
                    reason: format!("unknown sweep family {name:?}"),
                });
            }
        }
        catalog
            .into_iter()
            .filter(|family| config.families.iter().any(|name| name == family.name))
            .collect()
    };

    let mut cells = Vec::new();
    for family in &selected {
        let take =
            if config.entries_per_family == 0 { usize::MAX } else { config.entries_per_family };
        for (entry_index, entry) in family.entries_within(config.max_qubits).take(take).enumerate()
        {
            for &rate in &config.error_rates {
                cells.push(Cell { family: family.name, entry: entry.clone(), entry_index, rate });
            }
        }
    }
    if cells.is_empty() {
        return Err(ServerError::Rejected {
            reason: format!("no catalog code passes the max_qubits={} filter", config.max_qubits),
        });
    }
    Ok(cells)
}

/// The local fan-out: cells over rayon with the worker-loop pattern.
fn run_local(
    config: &SweepConfig,
    cells: &[Cell],
    registry: Option<&Registry>,
) -> Result<SweepReport, ServerError> {
    // Each cell is pure given its derived seed, so any worker count
    // produces identical records.
    let telemetry = SweepTelemetry::resolve();
    let slots: Vec<CellSlot> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = match config.workers {
        0 => rayon::current_num_threads().min(cells.len()).max(1),
        n => n.min(cells.len()).max(1),
    };
    rayon::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= cells.len() {
                    break;
                }
                let result = run_cell(config, &cells[index], registry, &telemetry);
                *slots[index].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    assemble_report(config, cells, slots)
}

/// Assembles the final report from filled cell slots, in deterministic
/// cell order — the single merge path shared by the local fan-out and
/// the fleet coordinator, which is what makes the merged report
/// independent of worker count, topology and arrival order.
pub(crate) fn assemble_report(
    config: &SweepConfig,
    cells: &[Cell],
    slots: Vec<CellSlot>,
) -> Result<SweepReport, ServerError> {
    let mut records = Vec::with_capacity(cells.len() * 4);
    let mut phases = Vec::with_capacity(cells.len());
    let mut warm_cells = 0usize;
    let mut stored = 0usize;
    for (cell, slot) in cells.iter().zip(slots) {
        let outcome =
            slot.into_inner().expect("sweep slot poisoned").expect("every cell slot is filled")?;
        phases.push(CellPhases {
            family: cell.family.to_string(),
            code: cell.entry.display_label(),
            error_rate: cell.rate,
            lookup_ms: outcome.lookup_ms,
            race_ms: outcome.race_ms,
            store_ms: outcome.store_ms,
            wall_ms: outcome.wall_ms,
        });
        records.extend(outcome.records);
        warm_cells += usize::from(outcome.warm_start);
        stored += usize::from(outcome.stored);
    }
    let mut codes: Vec<String> = records.iter().map(|r| r.code.clone()).collect();
    codes.sort_unstable();
    codes.dedup();
    Ok(SweepReport {
        records,
        phases,
        codes: codes.len(),
        rates: config.error_rates.len(),
        cells: cells.len(),
        warm_cells,
        stored,
    })
}

pub(crate) fn run_cell(
    config: &SweepConfig,
    cell: &Cell,
    registry: Option<&Registry>,
    telemetry: &SweepTelemetry,
) -> Result<CellOutcome, ServerError> {
    let cell_started = Instant::now();
    let code = &cell.entry.code;
    let cell_key = cell.key();
    let portfolio = Portfolio::standard(PortfolioConfig {
        seed: mix_seed(config.seed, fnv64(cell_key.as_bytes())),
        budget_per_strategy: cell.grant(config),
        shots_per_evaluation: config.shots,
        // Cells are the parallel unit; inside a cell the race runs on one
        // worker to avoid oversubscribing the sweep pool.
        worker_threads: 1,
        ..PortfolioConfig::default()
    });
    let spec = NoiseSpec::Scaled(cell.rate);
    let noise = spec.to_model()?;

    // The cell's tenant identity matches what the schedule server would
    // resolve for this (code, rate, shots), so sweeps and servers share
    // one registry namespace.
    let tenant = cell.tenant(config);
    let lookup_started = Instant::now();
    let seeds: Vec<Schedule> = registry
        .and_then(|r| r.lookup(&tenant))
        .filter(|entry| entry.artifact.schedule.validate(code).is_ok())
        .map(|entry| vec![entry.artifact.schedule])
        .unwrap_or_default();
    // Without a registry there is no lookup phase — the breakdown
    // reports 0 rather than the cost of the no-op closure above.
    let lookup_elapsed =
        if registry.is_some() { lookup_started.elapsed() } else { std::time::Duration::ZERO };
    if registry.is_some() {
        telemetry.lookup_us.record_duration(lookup_elapsed);
    }
    let warm_start = !seeds.is_empty();

    // The cell races over a fresh evaluator under its *tenant's* salt —
    // the same evaluation-seed stream a schedule server would use for
    // this (code, rate, shots) — so a cell's records are bit-identical
    // whether it runs here or on a fleet worker's fresh tenant.
    let options = EstimateOptions { max_threads: Some(1), ..EstimateOptions::default() };
    let evaluator = Arc::new(Evaluator::with_capacity(
        noise.clone(),
        factory_for(cell.entry.decoder),
        config.shots,
        options,
        DEFAULT_CACHE_CAPACITY,
    ));
    let race_started = Instant::now();
    let report = portfolio.run_with_seeds(code, evaluator, tenant_salt(&tenant), &seeds)?;
    let race_elapsed = race_started.elapsed();
    telemetry.race_us.record_duration(race_elapsed);

    let mut stored = false;
    let mut store_elapsed = std::time::Duration::ZERO;
    if let Some(registry) = registry {
        let winning = report.winning();
        let artifact = ScheduleArtifact {
            code_label: cell.entry.display_label(),
            schedule: winning.outcome.schedule.clone(),
            estimate: winning.outcome.estimate,
        };
        let store_started = Instant::now();
        match registry.store(&tenant, &artifact) {
            Ok(outcome) => stored = outcome != asynd_registry::StoreOutcome::Duplicate,
            Err(e) => eprintln!("asynd: registry store failed for {tenant}: {e}"),
        }
        store_elapsed = store_started.elapsed();
        telemetry.store_us.record_duration(store_elapsed);
    }

    let records = report
        .strategies
        .iter()
        .enumerate()
        .map(|(index, s)| SweepRecord {
            family: cell.family.to_string(),
            code: cell.entry.display_label(),
            error_rate: cell.rate,
            strategy: s.name.clone(),
            wall_ms: s.wall.as_secs_f64() * 1e3,
            p_overall: s.outcome.estimate.p_overall(),
            depth: s.outcome.schedule.depth(),
            schedule_key: s.outcome.schedule.key().to_hex(),
            evaluations: s.metered,
            cache_hit_rate: report.evaluator.hit_rate(),
            winner: index == report.winner,
            warm_start,
        })
        .collect();
    let wall_elapsed = cell_started.elapsed();
    telemetry.cell_wall_us.record_duration(wall_elapsed);
    Ok(CellOutcome {
        records,
        warm_start,
        stored,
        lookup_ms: lookup_elapsed.as_secs_f64() * 1e3,
        race_ms: race_elapsed.as_secs_f64() * 1e3,
        store_ms: store_elapsed.as_secs_f64() * 1e3,
        wall_ms: wall_elapsed.as_secs_f64() * 1e3,
    })
}

/// Builds a cell's outcome from a fleet worker's job response. The
/// per-strategy records carry the wire's summaries verbatim; wall-clock
/// members the wire does not carry per strategy report `0` (they are
/// observability data outside the determinism contract, zeroed anyway
/// by [`canonical_report_value`]).
pub(crate) fn outcome_from_job(
    cell: &Cell,
    job: &JobOutcome,
    lookup_ms: f64,
    store_ms: f64,
    stored: bool,
    wall_ms: f64,
) -> CellOutcome {
    let records = job
        .strategies
        .iter()
        .map(|s| SweepRecord {
            family: cell.family.to_string(),
            code: cell.entry.display_label(),
            error_rate: cell.rate,
            strategy: s.name.clone(),
            wall_ms: 0.0,
            p_overall: s.p_overall,
            depth: s.depth,
            schedule_key: s.key.clone(),
            evaluations: s.evaluations,
            cache_hit_rate: job.cache.hit_rate(),
            winner: s.winner,
            warm_start: job.warm_start,
        })
        .collect();
    CellOutcome {
        records,
        warm_start: job.warm_start,
        stored,
        lookup_ms,
        race_ms: job.wall_ms,
        store_ms,
        wall_ms,
    }
}

/// The canonical (timing-free) form of a sweep report document: the
/// `phases` array dropped and every record's `wall_ms` zeroed. Two
/// sweep runs are equivalent iff their canonical forms are equal — the
/// determinism contract for any local worker count or fleet topology
/// (wall-clock is the *only* member allowed to differ).
pub fn canonical_report_value(doc: &Value) -> Value {
    let Some(object) = doc.as_object() else { return doc.clone() };
    let mut out = Map::new();
    for (key, value) in object.iter() {
        match key.as_str() {
            "phases" => {}
            "records" => {
                let records = value
                    .as_array()
                    .map(|records| {
                        records
                            .iter()
                            .map(|record| match record.as_object() {
                                Some(record) => {
                                    let mut clean = Map::new();
                                    for (member, v) in record.iter() {
                                        if member == "wall_ms" {
                                            clean.insert("wall_ms", Value::from(0.0));
                                        } else {
                                            clean.insert(member.as_str(), v.clone());
                                        }
                                    }
                                    Value::Object(clean)
                                }
                                None => record.clone(),
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                out.insert("records", Value::Array(records));
            }
            _ => drop(out.insert(key.as_str(), value.clone())),
        }
    }
    Value::Object(out)
}

/// Summary returned by [`validate_report_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// Records in the document.
    pub records: usize,
    /// Distinct code labels.
    pub codes: usize,
    /// Distinct strategies.
    pub strategies: usize,
}

/// Validates a `BENCH_*.json` trajectory document (the Rust replacement
/// for eyeballing with `jq`): the envelope must carry `generated_by` and
/// a non-empty `records` array, and every record must have well-typed
/// members with probabilities in range. Sweep-only members
/// (`error_rate`, `schedule_key`, the per-cell `phases` array, …) are
/// checked when present.
///
/// # Errors
///
/// Returns [`ServerError::Protocol`] naming the first violation.
pub fn validate_report_text(text: &str) -> Result<ReportSummary, ServerError> {
    let bad = |reason: String| ServerError::Protocol { reason };
    let doc =
        serde_json::from_str(text).map_err(|e| bad(format!("report is not valid JSON: {e}")))?;
    doc.get("generated_by")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("report lacks a `generated_by` string".into()))?;
    let records = doc
        .get("records")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("report lacks a `records` array".into()))?;
    if records.is_empty() {
        return Err(bad("report has zero records".into()));
    }
    let mut codes: Vec<&str> = Vec::new();
    let mut strategies: Vec<&str> = Vec::new();
    for (index, record) in records.iter().enumerate() {
        let context = |member: &str, problem: &str| {
            bad(format!("record {index}: member `{member}` {problem}"))
        };
        let code = record
            .get("code")
            .and_then(Value::as_str)
            .ok_or_else(|| context("code", "must be a string"))?;
        let strategy = record
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or_else(|| context("strategy", "must be a string"))?;
        codes.push(code);
        strategies.push(strategy);
        for member in ["p_overall", "cache_hit_rate"] {
            let p = record
                .get(member)
                .and_then(Value::as_f64)
                .ok_or_else(|| context(member, "must be a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(context(member, "must be a probability in [0, 1]"));
            }
        }
        let wall = record
            .get("wall_ms")
            .and_then(Value::as_f64)
            .ok_or_else(|| context("wall_ms", "must be a number"))?;
        if wall < 0.0 {
            return Err(context("wall_ms", "must be non-negative"));
        }
        record
            .get("evaluations")
            .and_then(Value::as_u64)
            .ok_or_else(|| context("evaluations", "must be a non-negative integer"))?;
        record
            .get("winner")
            .and_then(Value::as_bool)
            .ok_or_else(|| context("winner", "must be a boolean"))?;
        if let Some(rate) = record.get("error_rate") {
            let rate = rate.as_f64().ok_or_else(|| context("error_rate", "must be a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(context("error_rate", "must be a probability in [0, 1]"));
            }
        }
        if let Some(key) = record.get("schedule_key") {
            let key = key.as_str().ok_or_else(|| context("schedule_key", "must be a string"))?;
            if asynd_circuit::ScheduleKey::from_hex(key).is_none() {
                return Err(context("schedule_key", "must be 32 hex digits"));
            }
        }
        // Decoder-bench members (`BENCH_decoders.json`): the decode path
        // tag and the per-phase timing split.
        if let Some(path) = record.get("path") {
            let path = path.as_str().ok_or_else(|| context("path", "must be a string"))?;
            if path != "scalar" && path != "word-parallel" {
                return Err(context("path", "must be `scalar` or `word-parallel`"));
            }
        }
        if let Some(shots) = record.get("shots") {
            let shots =
                shots.as_u64().ok_or_else(|| context("shots", "must be a non-negative integer"))?;
            if shots == 0 {
                return Err(context("shots", "must be positive"));
            }
        }
        for member in ["sample_ms", "decode_ms", "score_ms"] {
            if let Some(timing) = record.get(member) {
                let timing = timing.as_f64().ok_or_else(|| context(member, "must be a number"))?;
                if timing < 0.0 {
                    return Err(context(member, "must be non-negative"));
                }
            }
        }
    }
    if let Some(phases) = doc.get("phases") {
        let phases =
            phases.as_array().ok_or_else(|| bad("member `phases` must be an array".into()))?;
        for (index, entry) in phases.iter().enumerate() {
            // Two phase-entry shapes exist: sweep-cell timings
            // (lookup/race/store) and estimation-pipeline timings
            // (sample/decode/score). Either trio must be complete, and
            // `wall_ms` is always required.
            let members: &[&str] = if entry.get("sample_ms").is_some() {
                &["sample_ms", "decode_ms", "score_ms", "wall_ms"]
            } else {
                &["lookup_ms", "race_ms", "store_ms", "wall_ms"]
            };
            for member in members {
                let timing = entry.get(member).and_then(Value::as_f64).ok_or_else(|| {
                    bad(format!("phase entry {index}: member `{member}` must be a number"))
                })?;
                if timing < 0.0 {
                    return Err(bad(format!(
                        "phase entry {index}: member `{member}` must be non-negative"
                    )));
                }
            }
        }
    }
    codes.sort_unstable();
    codes.dedup();
    strategies.sort_unstable();
    strategies.dedup();
    Ok(ReportSummary { records: records.len(), codes: codes.len(), strategies: strategies.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            seed: 11,
            error_rates: vec![3e-3, 7.4e-3],
            families: vec!["rotated-surface".into(), "hexagonal-color".into()],
            max_qubits: 9,
            entries_per_family: 1,
            budget_multiplier: 1,
            shots: 120,
            workers: 0,
        }
    }

    #[test]
    fn tiny_sweep_covers_the_grid_and_validates() {
        let config = tiny_config();
        let report = SweepOptions::with_config(config.clone()).run().unwrap();
        // 2 families × 1 entry × 2 rates × 4 strategies.
        assert_eq!(report.records.len(), 16);
        assert_eq!(report.rates, 2);
        assert_eq!(report.codes, 2);
        assert_eq!(report.records.iter().filter(|r| r.winner).count(), 4, "one winner per cell");
        assert_eq!(report.phases.len(), report.cells, "one phase breakdown per cell");
        for phases in &report.phases {
            assert!(phases.wall_ms > 0.0, "cell wall-time is elapsed, not zero");
            assert!(phases.race_ms <= phases.wall_ms, "the race is part of the cell's wall");
            assert_eq!(phases.lookup_ms, 0.0, "no registry, no lookup time");
        }
        let text = serde_json::to_string_pretty(&report.to_json(&config)).unwrap();
        let summary = validate_report_text(&text).unwrap();
        assert_eq!(summary.records, 16);
        assert_eq!(summary.codes, 2);
        assert_eq!(summary.strategies, 4);
        assert!(report.render_table().lines().count() >= 5);
    }

    #[test]
    fn unknown_family_filter_is_rejected() {
        let config = SweepConfig {
            families: vec!["surface".into()], // registry name is rotated-surface
            ..tiny_config()
        };
        assert!(matches!(
            SweepOptions::with_config(config).run(),
            Err(ServerError::Rejected { .. })
        ));
    }

    #[test]
    fn impossible_filters_are_rejected() {
        let config = SweepConfig { max_qubits: 1, ..tiny_config() };
        assert!(matches!(
            SweepOptions::with_config(config).run(),
            Err(ServerError::Rejected { .. })
        ));
        let config = SweepConfig { error_rates: vec![], ..tiny_config() };
        assert!(matches!(
            SweepOptions::with_config(config).run(),
            Err(ServerError::Rejected { .. })
        ));
    }

    #[test]
    fn canonical_form_strips_wall_clock_but_nothing_else() {
        let config = tiny_config();
        let report = SweepOptions::with_config(config.clone()).run().unwrap();
        let doc = report.to_json(&config);
        let canonical = canonical_report_value(&doc);
        assert!(canonical.get("phases").is_none(), "phase timings are observability data");
        let records = canonical.get("records").and_then(Value::as_array).unwrap();
        assert_eq!(records.len(), report.records.len());
        for record in records {
            assert_eq!(record.get("wall_ms").and_then(Value::as_f64), Some(0.0));
            assert!(record.get("p_overall").is_some(), "result members survive");
            assert!(record.get("schedule_key").is_some());
        }
        // Canonicalisation is idempotent and insensitive to wall noise.
        assert_eq!(canonical_report_value(&canonical), canonical);
        let mut noisy = report;
        for record in &mut noisy.records {
            record.wall_ms += 123.456;
        }
        assert_eq!(canonical_report_value(&noisy.to_json(&config)), canonical);
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        for (doc, needle) in [
            ("{}", "generated_by"),
            (r#"{"generated_by":"x"}"#, "records"),
            (r#"{"generated_by":"x","records":[]}"#, "zero records"),
            (r#"{"generated_by":"x","records":[{"code":"c"}]}"#, "strategy"),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":1.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true}]}"#,
                "probability",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true,"schedule_key":"zz"}]}"#,
                "hex",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true}],"phases":[{"lookup_ms":-1,"race_ms":0,"store_ms":0,"wall_ms":1}]}"#,
                "non-negative",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true,"path":"sideways"}]}"#,
                "word-parallel",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true,"shots":0}]}"#,
                "positive",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true,"decode_ms":-2}]}"#,
                "non-negative",
            ),
            (
                r#"{"generated_by":"x","records":[{"code":"c","strategy":"s","p_overall":0.5,"cache_hit_rate":0,"wall_ms":1,"evaluations":1,"winner":true}],"phases":[{"sample_ms":1,"decode_ms":2,"wall_ms":3}]}"#,
                "score_ms",
            ),
        ] {
            let err = validate_report_text(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
        }
    }

    #[test]
    fn validator_accepts_decoder_bench_reports() {
        // The shape `cargo bench --bench decoders` emits: decode-phase
        // record members plus a sample/decode/score phases array.
        let text = r#"{
            "generated_by": "cargo bench -p asynd-bench --bench decoders",
            "records": [
                {"code": "surface-d5", "strategy": "unionfind/scalar", "decoder": "unionfind",
                 "path": "scalar", "shots": 1024, "wall_ms": 274.55,
                 "sample_ms": 0.0, "decode_ms": 0.0, "score_ms": 0.0,
                 "p_overall": 0.052, "cache_hit_rate": 0.0, "evaluations": 1024, "winner": false},
                {"code": "surface-d5", "strategy": "unionfind/word-parallel", "decoder": "unionfind",
                 "path": "word-parallel", "shots": 1024, "wall_ms": 70.1,
                 "sample_ms": 4.2, "decode_ms": 61.4, "score_ms": 0.8,
                 "p_overall": 0.052, "cache_hit_rate": 0.0, "evaluations": 1024, "winner": true}
            ],
            "phases": [
                {"code": "surface-d5", "sample_ms": 4.2, "decode_ms": 61.4, "score_ms": 0.8, "wall_ms": 70.1}
            ]
        }"#;
        let summary = validate_report_text(text).unwrap();
        assert_eq!(summary.records, 2);
        assert_eq!(summary.codes, 1);
        assert_eq!(summary.strategies, 2);
    }
}
