//! The memoising schedule-evaluation service.
//!
//! Search workloads (MCTS over check orderings, multi-code sweeps) evaluate
//! the *same* candidate circuit over and over: late in a partition only a
//! handful of completions remain, and a terminal tree node re-produces an
//! identical schedule on every visit. Rebuilding the
//! [`DetectorErrorModel`], re-constructing the decoder and re-sampling for
//! each of those visits is the dominant serial cost of the search.
//!
//! [`Evaluator`] turns evaluation into a service with memoisation: it owns
//! the noise model, the decoder factory and the shot budget, and caches
//! `(code fingerprint, ScheduleKey) → estimate` in a bounded LRU map (the
//! code fingerprint keeps multi-code sweeps from colliding on structurally
//! identical schedules). A repeated candidate costs one canonical hash plus
//! a map lookup. The frame model and decoder an evaluation builds live only
//! as long as that evaluation (or the speculative [`Evaluation`] carrying
//! them); no DEM, decoder or prediction outlives it.
//!
//! Two entry points with different determinism contracts:
//!
//! * [`Evaluator::evaluate`] — the *authoritative* path. It memoises the
//!   estimate by schedule key, so its cache state is a pure function of the
//!   request sequence. Callers that need bit-identical results (the MCTS
//!   replay loop) route every authoritative request through this path from
//!   a single thread in a deterministic order.
//! * [`Evaluator::evaluate_fresh`] — the *speculative* path. It never
//!   mutates the cache (it only peeks for a memoised estimate), so any
//!   number of threads may call it concurrently without perturbing the
//!   authoritative cache evolution. The returned [`Evaluation`] can later
//!   be handed to [`Evaluator::evaluate_with_hint`], which accepts its
//!   result only when the key *and* seed match exactly what the
//!   authoritative path would have computed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use asynd_codes::StabilizerCode;
use asynd_sim::FrameErrorModel;
use asynd_telemetry::{labeled, Counter, Histogram, MetricsRegistry};

use crate::evaluate::run_estimate;
use crate::{
    CircuitError, DecoderFactory, DetectorErrorModel, EstimateOptions, LogicalErrorEstimate,
    NoiseModel, ObservableDecoder, Schedule, ScheduleKey,
};

/// Default number of schedules kept in the [`Evaluator`]'s LRU cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Aggregate counters of an [`Evaluator`]'s cache behaviour.
///
/// `hits / (hits + misses)` is the estimate-level hit rate. Speculative
/// traffic ([`Evaluator::evaluate_fresh`]) is tracked separately because it
/// may run concurrently; its counters are exact but their interleaving is
/// scheduling-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvaluatorStats {
    /// Authoritative requests answered entirely from the memoised estimate.
    pub hits: u64,
    /// Authoritative requests that had to produce an estimate (computed
    /// inline or accepted from a speculative hint).
    pub misses: u64,
    /// Subset of `misses` whose estimate was taken from a matching
    /// speculative [`Evaluation`] instead of being recomputed.
    pub speculative_hits: u64,
    /// DEM + decoder constructions avoided on a miss by reusing the model
    /// a fresh speculative hint built for the same schedule.
    pub model_reuses: u64,
    /// DEM + decoder constructions actually performed (both paths).
    pub model_builds: u64,
    /// Speculative evaluations served without sampling because the
    /// authoritative estimate already existed at peek time.
    pub speculative_short_circuits: u64,
    /// Cache entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl EvaluatorStats {
    /// Fraction of authoritative requests served from the memo, in `[0, 1]`
    /// (`0` when nothing was requested yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The counters behind [`EvaluatorStats`], kept as atomics *outside* the
/// cache mutex so concurrent workers (the portfolio racer's progress
/// reporting, the leaf-parallel speculative path) can read them without
/// contending on the cache lock.
#[derive(Debug, Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    speculative_hits: AtomicU64,
    model_reuses: AtomicU64,
    model_builds: AtomicU64,
    speculative_short_circuits: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> EvaluatorStats {
        EvaluatorStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            speculative_hits: self.speculative_hits.load(Ordering::Relaxed),
            model_reuses: self.model_reuses.load(Ordering::Relaxed),
            model_builds: self.model_builds.load(Ordering::Relaxed),
            speculative_short_circuits: self.speculative_short_circuits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Relaxed increment helper for the stats counters.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Pre-resolved telemetry handles mirroring [`EvaluatorStats`], plus the
/// model-build and sampling latency histograms.
///
/// Resolved once (taking the registry mutex once per handle) and then
/// recorded through lock-free shard atomics, so instrumentation adds no
/// contention to the evaluation hot path. The serving layer registers one
/// of these per tenant, labeled `tenant="<key>"`.
pub struct EvaluatorMetrics {
    hits: Counter,
    misses: Counter,
    speculative_hits: Counter,
    model_reuses: Counter,
    model_builds: Counter,
    speculative_short_circuits: Counter,
    evictions: Counter,
    build_us: Histogram,
    sample_us: Histogram,
    decode_us: Histogram,
}

impl EvaluatorMetrics {
    /// Resolves the evaluator metric family in `registry`, under the
    /// given labels (e.g. `[("tenant", key)]`; empty for a process-global
    /// evaluator).
    pub fn register(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> EvaluatorMetrics {
        let counter = |name: &str| registry.counter(&labeled(name, labels));
        EvaluatorMetrics {
            hits: counter("asynd_eval_cache_hits_total"),
            misses: counter("asynd_eval_cache_misses_total"),
            speculative_hits: counter("asynd_eval_speculative_hits_total"),
            model_reuses: counter("asynd_eval_model_reuses_total"),
            model_builds: counter("asynd_eval_model_builds_total"),
            speculative_short_circuits: counter("asynd_eval_speculative_short_circuits_total"),
            evictions: counter("asynd_eval_cache_evictions_total"),
            build_us: registry.histogram(&labeled("asynd_eval_model_build_us", labels)),
            sample_us: registry.histogram(&labeled("asynd_eval_sample_us", labels)),
            decode_us: registry.histogram(&labeled("asynd_eval_decode_us", labels)),
        }
    }
}

/// What one evaluation samples and decodes with: the simulator-facing
/// frame view of the schedule's DEM and the decoder built from it. The DEM
/// itself is dropped once both are built.
struct Model {
    frame: FrameErrorModel,
    decoder: Box<dyn ObservableDecoder>,
}

/// The full memoisation key: a fingerprint of the code (stabilizers and
/// logical operators, which determine the DEM's detector/observable
/// signatures) alongside the schedule's canonical key. Two codes that
/// happen to admit the same check schedule never share cache entries.
type CacheKey = (u64, ScheduleKey);

/// Hashes everything about a code that influences an evaluation: qubit and
/// logical counts, stabilizer supports and the logical operator
/// representatives.
fn code_fingerprint(code: &StabilizerCode) -> u64 {
    let mut hash = crate::schedule::fnv_word(crate::schedule::FNV_OFFSET, 0x636f_6465); // "code"
    let mut feed = |value: u64| hash = crate::schedule::fnv_word(hash, value);
    feed(code.num_qubits() as u64);
    feed(code.num_logicals() as u64);
    for group in [code.stabilizers(), code.logical_x(), code.logical_z()] {
        feed(group.len() as u64);
        for operator in group {
            feed(operator.entries().len() as u64);
            for &(qubit, pauli) in operator.entries() {
                feed(qubit as u64);
                feed(pauli as u64);
            }
        }
    }
    hash
}

/// One cached schedule: the memoised authoritative estimate.
struct Entry {
    estimate: LogicalErrorEstimate,
    last_used: u64,
}

/// The result of a speculative evaluation
/// ([`Evaluator::evaluate_fresh`]).
///
/// Carries everything the authoritative path would otherwise compute — the
/// schedule's model and the estimate — plus the `(key, seed)` identity
/// under which it was produced, so [`Evaluator::evaluate_with_hint`] can
/// decide exactly which parts are safe to reuse.
pub struct Evaluation {
    cache_key: CacheKey,
    seed: u64,
    /// The model `estimate` was sampled with fresh under `(key, seed)`, or
    /// `None` when the estimate was short-circuited from an existing memo
    /// entry; only fresh results may be committed as authoritative.
    model: Option<Model>,
    estimate: LogicalErrorEstimate,
}

impl Evaluation {
    /// The canonical key of the evaluated schedule.
    pub fn key(&self) -> ScheduleKey {
        self.cache_key.1
    }

    /// The master seed the evaluation was requested under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The logical-error estimate.
    pub fn estimate(&self) -> LogicalErrorEstimate {
        self.estimate
    }
}

struct Cache {
    entries: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// A memoising evaluation service: owns noise model, decoder factory and
/// shot budget, and caches per-schedule estimates in a bounded LRU map.
///
/// The determinism contract of the two evaluation paths
/// ([`Evaluator::evaluate`] vs [`Evaluator::evaluate_fresh`]) is described
/// on the methods themselves.
///
/// # Example
///
/// ```
/// use asynd_circuit::{EstimateOptions, Evaluator, NoiseModel, Schedule};
/// # use asynd_circuit::{DetectorErrorModel, DecoderFactory, ObservableDecoder};
/// # use asynd_pauli::BitVec;
/// # struct Null;
/// # struct NullDecoder(usize);
/// # impl ObservableDecoder for NullDecoder {
/// #     fn decode(&self, _d: &BitVec) -> BitVec { BitVec::zeros(self.0) }
/// # }
/// # impl DecoderFactory for Null {
/// #     fn name(&self) -> &str { "null" }
/// #     fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
/// #         Box::new(NullDecoder(dem.num_observables()))
/// #     }
/// # }
/// let code = asynd_codes::steane_code();
/// let evaluator = Evaluator::new(
///     NoiseModel::brisbane(),
///     std::sync::Arc::new(Null),
///     2000,
///     EstimateOptions::default(),
/// );
/// let schedule = Schedule::trivial(&code);
/// let first = evaluator.evaluate(&code, &schedule, 7).unwrap();
/// let again = evaluator.evaluate(&code, &schedule, 99).unwrap();
/// assert_eq!(first, again, "second request is a memo hit");
/// assert_eq!(evaluator.stats().hits, 1);
/// ```
pub struct Evaluator {
    noise: NoiseModel,
    factory: Arc<dyn DecoderFactory + Send + Sync>,
    shots: usize,
    options: EstimateOptions,
    capacity: usize,
    cache: Mutex<Cache>,
    stats: AtomicStats,
    metrics: OnceLock<EvaluatorMetrics>,
}

impl Evaluator {
    /// Creates an evaluator with the default cache capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    ///
    /// The decoder factory is owned via `Arc` so the evaluator itself can
    /// be shared (`Arc<Evaluator>`) across worker threads — the portfolio
    /// racer hands one evaluator to every strategy.
    pub fn new(
        noise: NoiseModel,
        factory: Arc<dyn DecoderFactory + Send + Sync>,
        shots: usize,
        options: EstimateOptions,
    ) -> Self {
        Self::with_capacity(noise, factory, shots, options, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an evaluator with an explicit cache capacity.
    ///
    /// A capacity of `0` disables memoisation entirely (every request
    /// rebuilds and resamples) — useful as an ablation baseline.
    pub fn with_capacity(
        noise: NoiseModel,
        factory: Arc<dyn DecoderFactory + Send + Sync>,
        shots: usize,
        options: EstimateOptions,
        capacity: usize,
    ) -> Self {
        Evaluator {
            noise,
            factory,
            shots,
            options,
            capacity,
            cache: Mutex::new(Cache { entries: HashMap::new(), clock: 0 }),
            stats: AtomicStats::default(),
            metrics: OnceLock::new(),
        }
    }

    /// Attaches pre-resolved telemetry handles; every [`EvaluatorStats`]
    /// counter is mirrored into them and model-build / sampling latencies
    /// are recorded. A second attachment is ignored (the first wins) —
    /// metrics identity is fixed at instrumentation time.
    pub fn set_metrics(&self, metrics: EvaluatorMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// Runs `f` over the attached telemetry handles, if any.
    fn metric(&self, f: impl FnOnce(&EvaluatorMetrics)) {
        if let Some(metrics) = self.metrics.get() {
            f(metrics);
        }
    }

    /// The per-evaluation shot budget.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// The cache, recovered if a thread panicked while holding the lock:
    /// every critical section only bumps the clock, touches one entry or
    /// evicts, so the map is valid at every step.
    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of schedules currently cached.
    pub fn len(&self) -> usize {
        self.cache().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A lock-free snapshot of the cache counters.
    ///
    /// The counters live in atomics outside the cache mutex, so concurrent
    /// workers (portfolio strategies reporting progress mid-race) can read
    /// them without contending on the cache lock. Each counter is exact
    /// and monotonic; a snapshot taken while writers are active may be
    /// torn *across* counters (e.g. a miss counted whose model build is
    /// not yet).
    pub fn stats(&self) -> EvaluatorStats {
        self.stats.snapshot()
    }

    /// Authoritative evaluation: returns the memoised estimate for this
    /// schedule if one exists, otherwise computes it under `seed` and
    /// memoises it.
    ///
    /// The cache state after a sequence of `evaluate` calls is a pure
    /// function of that sequence, so single-threaded callers issuing
    /// requests in a deterministic order get bit-identical results — the
    /// property the leaf-parallel MCTS replay loop builds on.
    ///
    /// Concurrent callers are safe (misses compute outside the cache
    /// lock and commit afterwards) but only *deterministic* when every
    /// caller derives `seed` from the schedule's key, as the portfolio
    /// racer does: the memoised estimate is then independent of which
    /// thread computed it first.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if the shot budget or
    /// options are invalid, or a DEM build error for an invalid schedule.
    pub fn evaluate(
        &self,
        code: &StabilizerCode,
        schedule: &Schedule,
        seed: u64,
    ) -> Result<LogicalErrorEstimate, CircuitError> {
        self.evaluate_with_hint(code, schedule, seed, None)
    }

    /// [`Evaluator::evaluate`], additionally offered a speculative
    /// [`Evaluation`] to draw on.
    ///
    /// The model a fresh hint built is reused when its key matches; its
    /// estimate is accepted only when it was computed fresh under exactly
    /// this `(key, seed)` — anything else is recomputed, so hints can
    /// never change what this path returns, only make it cheaper.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::evaluate`].
    pub fn evaluate_with_hint(
        &self,
        code: &StabilizerCode,
        schedule: &Schedule,
        seed: u64,
        hint: Option<&Evaluation>,
    ) -> Result<LogicalErrorEstimate, CircuitError> {
        let key = (code_fingerprint(code), schedule.key());
        {
            let mut cache = self.cache();
            cache.clock += 1;
            let clock = cache.clock;
            if let Some(entry) = cache.entries.get_mut(&key) {
                entry.last_used = clock;
                bump(&self.stats.hits);
                self.metric(|m| m.hits.inc());
                return Ok(entry.estimate);
            }
        }

        // Miss: build and sample *outside* the lock, so concurrent
        // authoritative callers (the portfolio race's worker threads)
        // overlap their expensive evaluations instead of serialising on
        // the cache mutex. Two racers missing the same key both compute —
        // with key-derived seeds both compute the identical estimate, so
        // whichever commits last changes nothing (single-threaded cache
        // evolution is untouched either way).
        bump(&self.stats.misses);
        self.metric(|m| m.misses.inc());
        let hinted = hint
            .filter(|h| h.cache_key == key)
            .and_then(|h| h.model.as_ref().map(|model| (h, model)));
        let estimate = match hinted {
            Some((h, model)) => {
                bump(&self.stats.model_reuses);
                self.metric(|m| m.model_reuses.inc());
                if h.seed == seed {
                    bump(&self.stats.speculative_hits);
                    self.metric(|m| m.speculative_hits.inc());
                    h.estimate
                } else {
                    self.sample(code, model, seed)?
                }
            }
            None => {
                bump(&self.stats.model_builds);
                self.metric(|m| m.model_builds.inc());
                self.sample(code, &self.build_model(code, schedule)?, seed)?
            }
        };
        if self.capacity > 0 {
            let mut cache = self.cache();
            cache.clock += 1;
            let clock = cache.clock;
            cache.entries.insert(key, Entry { estimate, last_used: clock });
            while cache.entries.len() > self.capacity {
                let Some(victim) =
                    cache.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
                else {
                    break;
                };
                cache.entries.remove(&victim);
                bump(&self.stats.evictions);
                self.metric(|m| m.evictions.inc());
            }
        }
        Ok(estimate)
    }

    /// Speculative evaluation: computes (or short-circuits) an estimate
    /// without mutating the cache.
    ///
    /// Safe to call from any number of threads concurrently. If the
    /// authoritative estimate for this schedule already exists, it is
    /// returned without building a model or sampling, and the result
    /// carries no model: it will not be committed under a different seed,
    /// and an authoritative call that misses after the entry's eviction
    /// rebuilds the model.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::evaluate`].
    pub fn evaluate_fresh(
        &self,
        code: &StabilizerCode,
        schedule: &Schedule,
        seed: u64,
    ) -> Result<Evaluation, CircuitError> {
        let key = (code_fingerprint(code), schedule.key());
        let memoised = self.cache().entries.get(&key).map(|e| e.estimate);
        if let Some(estimate) = memoised {
            bump(&self.stats.speculative_short_circuits);
            self.metric(|m| m.speculative_short_circuits.inc());
            return Ok(Evaluation { cache_key: key, seed, model: None, estimate });
        }
        let model = self.build_model(code, schedule)?;
        bump(&self.stats.model_builds);
        self.metric(|m| m.model_builds.inc());
        let estimate = self.sample(code, &model, seed)?;
        Ok(Evaluation { cache_key: key, seed, model: Some(model), estimate })
    }

    /// Builds the model (frame view and decoder, via the schedule's DEM)
    /// for a schedule, recording the build latency when instrumented.
    fn build_model(
        &self,
        code: &StabilizerCode,
        schedule: &Schedule,
    ) -> Result<Model, CircuitError> {
        let start = Instant::now();
        let dem = DetectorErrorModel::build(code, schedule, &self.noise)?;
        let model = Model { frame: dem.to_frame_model(), decoder: self.factory.build_batch(&dem) };
        self.metric(|m| m.build_us.record_duration(start.elapsed()));
        Ok(model)
    }

    /// Samples an estimate for a built model, recording the sampling
    /// latency when instrumented.
    fn sample(
        &self,
        code: &StabilizerCode,
        model: &Model,
        seed: u64,
    ) -> Result<LogicalErrorEstimate, CircuitError> {
        let start = Instant::now();
        let (estimate, timings) = run_estimate(
            &model.frame,
            model.decoder.as_ref(),
            code.num_logicals(),
            self.shots,
            &self.options,
            seed,
        )?;
        self.metric(|m| {
            m.sample_us.record_duration(start.elapsed());
            m.decode_us.record_duration(std::time::Duration::from_nanos(timings.decode_ns));
        });
        Ok(estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::steane_code;
    use asynd_pauli::BitVec;

    /// Predicts a flip of observable 0 exactly when detector 0 fired —
    /// deterministic and cheap, but non-trivial.
    struct EchoDecoder {
        observables: usize,
    }

    impl ObservableDecoder for EchoDecoder {
        fn decode(&self, detectors: &BitVec) -> BitVec {
            let mut out = BitVec::zeros(self.observables);
            if detectors.get(0) {
                out.set(0, true);
            }
            out
        }
    }

    struct EchoFactory;

    impl DecoderFactory for EchoFactory {
        fn name(&self) -> &str {
            "echo"
        }

        fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
            Box::new(EchoDecoder { observables: dem.num_observables() })
        }
    }

    fn make_evaluator(capacity: usize) -> Evaluator {
        Evaluator::with_capacity(
            NoiseModel::brisbane(),
            Arc::new(EchoFactory),
            500,
            EstimateOptions::default(),
            capacity,
        )
    }

    /// Distinct valid schedules of the Steane code (trivial + per-stabilizer
    /// reversals).
    fn distinct_schedules(n: usize) -> Vec<Schedule> {
        let code = steane_code();
        let mut schedules = vec![Schedule::trivial(&code)];
        for reversed_stab in 0..n.saturating_sub(1) {
            let mut builder = crate::ScheduleBuilder::new(&code);
            for (s, stab) in code.stabilizers().iter().enumerate() {
                let mut entries = stab.entries().to_vec();
                if s == reversed_stab {
                    entries.reverse();
                }
                for (q, p) in entries {
                    builder.push_earliest(q, s, p);
                }
            }
            let schedule = builder.finish();
            schedule.validate(&code).unwrap();
            schedules.push(schedule);
        }
        schedules
    }

    #[test]
    fn repeated_key_is_a_hit_and_agrees_with_uncached() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let cached = make_evaluator(16);
        let uncached = make_evaluator(0);

        let first = cached.evaluate(&code, &schedule, 42).unwrap();
        let second = cached.evaluate(&code, &schedule, 977).unwrap();
        assert_eq!(first, second, "memoised estimate is returned for repeats");
        let stats = cached.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.model_builds, 1);

        let raw = uncached.evaluate(&code, &schedule, 42).unwrap();
        assert_eq!(first, raw, "cached and uncached estimates agree for the same seed");
        assert_eq!(uncached.len(), 0, "capacity 0 disables the cache");
        // The uncached evaluator recomputes models every time.
        uncached.evaluate(&code, &schedule, 42).unwrap();
        assert_eq!(uncached.stats().model_builds, 2);
    }

    #[test]
    fn eviction_respects_capacity() {
        let code = steane_code();
        let schedules = distinct_schedules(5);
        let evaluator = make_evaluator(3);
        for (i, schedule) in schedules.iter().enumerate() {
            evaluator.evaluate(&code, schedule, i as u64).unwrap();
        }
        assert_eq!(evaluator.len(), 3, "capacity bound holds");
        assert_eq!(evaluator.stats().evictions, 2);
        // The oldest entries were evicted: re-requesting the first schedule
        // is a miss, the last a hit.
        let before = evaluator.stats().hits;
        evaluator.evaluate(&code, &schedules[4], 99).unwrap();
        assert_eq!(evaluator.stats().hits, before + 1);
        evaluator.evaluate(&code, &schedules[0], 99).unwrap();
        assert_eq!(evaluator.stats().hits, before + 1, "evicted entry is a miss");
    }

    #[test]
    fn lru_order_follows_recency_not_insertion() {
        let code = steane_code();
        let schedules = distinct_schedules(4);
        let evaluator = make_evaluator(3);
        for (i, schedule) in schedules.iter().take(3).enumerate() {
            evaluator.evaluate(&code, schedule, i as u64).unwrap();
        }
        // Touch the oldest so the middle one becomes LRU.
        evaluator.evaluate(&code, &schedules[0], 7).unwrap();
        evaluator.evaluate(&code, &schedules[3], 8).unwrap(); // evicts schedules[1]
        let hits = evaluator.stats().hits;
        evaluator.evaluate(&code, &schedules[0], 9).unwrap();
        assert_eq!(evaluator.stats().hits, hits + 1, "recently touched entry survived");
        evaluator.evaluate(&code, &schedules[1], 9).unwrap();
        assert_eq!(evaluator.stats().hits, hits + 1, "least recently used entry was evicted");
    }

    #[test]
    fn speculative_path_matches_authoritative_and_never_mutates() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let evaluator = make_evaluator(16);

        let spec = evaluator.evaluate_fresh(&code, &schedule, 123).unwrap();
        assert!(spec.model.is_some(), "a fresh evaluation carries its model");
        assert_eq!(spec.seed(), 123);
        assert_eq!(evaluator.len(), 0, "speculation does not populate the cache");

        // Committing the hint reproduces exactly the estimate evaluate()
        // would have computed itself.
        let with_hint = evaluator.evaluate_with_hint(&code, &schedule, 123, Some(&spec)).unwrap();
        assert_eq!(with_hint, spec.estimate());
        assert_eq!(evaluator.stats().speculative_hits, 1);

        let direct = make_evaluator(16).evaluate(&code, &schedule, 123).unwrap();
        assert_eq!(with_hint, direct);

        // A seed-mismatched hint is ignored, not trusted.
        let other = evaluator.evaluate_with_hint(&code, &schedule, 124, Some(&spec)).unwrap();
        let reference = make_evaluator(0).evaluate(&code, &schedule, 124).unwrap();
        // `other` hit the memo populated at seed 123 (authoritative
        // semantics), so compare through a fresh evaluator instead.
        assert_eq!(other, with_hint, "memoised estimate wins once populated");
        let fresh = make_evaluator(0);
        let fresh_123 = fresh.evaluate(&code, &schedule, 123).unwrap();
        let fresh_124 = fresh.evaluate(&code, &schedule, 124).unwrap();
        assert_eq!(fresh_123, direct);
        assert_ne!(fresh_123, fresh_124, "different seeds sample different shots");
        assert_eq!(reference, fresh_124);
    }

    #[test]
    fn speculative_short_circuit_is_not_committed_as_fresh() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let evaluator = make_evaluator(16);
        let authoritative = evaluator.evaluate(&code, &schedule, 5).unwrap();
        let spec = evaluator.evaluate_fresh(&code, &schedule, 9999).unwrap();
        assert!(spec.model.is_none(), "memoised estimate short-circuits sampling");
        assert_eq!(spec.estimate(), authoritative);
        assert_eq!(evaluator.stats().speculative_short_circuits, 1);
    }

    #[test]
    fn codes_sharing_a_schedule_do_not_share_cache_entries() {
        // Two codes with identical stabilizers but swapped logical
        // operators admit bit-identical schedules (same ScheduleKey) yet
        // induce different DEM observables — the cache must keep them
        // apart.
        let code = steane_code();
        let twisted = asynd_codes::StabilizerCode::new(
            "steane-twisted",
            "test",
            code.num_qubits(),
            code.distance(),
            code.stabilizers().to_vec(),
            code.logical_z().to_vec(),
            code.logical_x().to_vec(),
        );
        let schedule = Schedule::trivial(&code);
        assert_eq!(schedule.key(), Schedule::trivial(&twisted).key());

        let evaluator = make_evaluator(16);
        evaluator.evaluate(&code, &schedule, 3).unwrap();
        let hits = evaluator.stats().hits;
        evaluator.evaluate(&twisted, &schedule, 3).unwrap();
        assert_eq!(evaluator.stats().hits, hits, "different code must miss");
        assert_eq!(evaluator.len(), 2, "both codes own an entry");
        assert_eq!(evaluator.stats().model_builds, 2);
    }

    #[test]
    fn short_circuited_hint_evicted_before_commit_is_rebuilt() {
        let code = steane_code();
        let schedules = distinct_schedules(2);
        let evaluator = make_evaluator(1);
        evaluator.evaluate(&code, &schedules[0], 5).unwrap();
        let spec = evaluator.evaluate_fresh(&code, &schedules[0], 9).unwrap();
        assert!(spec.model.is_none(), "memoised estimate short-circuits sampling");
        evaluator.evaluate(&code, &schedules[1], 1).unwrap(); // evicts schedules[0]
        let before = evaluator.stats();
        assert_eq!(before.evictions, 1);

        let estimate = evaluator.evaluate_with_hint(&code, &schedules[0], 9, Some(&spec)).unwrap();
        let after = evaluator.stats();
        assert_eq!(after.model_builds, before.model_builds + 1, "no model to reuse: rebuild");
        assert_eq!(after.model_reuses, before.model_reuses);
        assert_eq!(after.speculative_hits, before.speculative_hits);
        let uncached = make_evaluator(0);
        assert_eq!(estimate, uncached.evaluate(&code, &schedules[0], 9).unwrap());
        assert_ne!(
            estimate,
            uncached.evaluate(&code, &schedules[0], 5).unwrap(),
            "seeds 5 and 9 must sample different estimates for the check to bite"
        );
    }
}
