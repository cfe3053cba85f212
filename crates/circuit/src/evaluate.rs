//! The paper's Fig. 10 evaluation loop: sample a noisy scheduled round,
//! decode it, and estimate logical error rates.
//!
//! Estimation now runs on the `asynd-sim` batch pipeline: the DEM is
//! converted to a [`FrameErrorModel`](asynd_sim::FrameErrorModel), shots
//! are sampled 64-per-word by the bit-packed
//! [`BatchSampler`](asynd_sim::BatchSampler), decoded through
//! [`ObservableDecoder::decode_batch`], and scored with word-parallel
//! reductions, streamed in bounded-memory chunks across worker threads by
//! the [`ParallelEstimator`]. The historical one-shot-at-a-time loop
//! survives as [`estimate_logical_error_scalar`] for statistical
//! cross-checks and benchmarking.

use std::collections::HashMap;

use asynd_codes::StabilizerCode;
use asynd_pauli::BitVec;
use asynd_sim::{
    BatchShots, BitMatrix, EstimatorConfig, ParallelEstimator, PhaseTimings, WORD_BITS,
};
use rand::Rng;

use crate::{CircuitError, DetectorErrorModel, NoiseModel, Sampler, Schedule};

/// A decoder that predicts which logical observables flipped from a set of
/// detection events.
///
/// The concrete decoders (MWPM, hypergraph union-find, BP-OSD) live in the
/// `asynd-decode` crate and implement this trait; the trait lives here so
/// the evaluation loop — and through it the MCTS scheduler — can be generic
/// over decoders without a dependency cycle. A decoder implements only
/// [`decode`](Self::decode); the batch pipeline calls `decode_batch`.
pub trait ObservableDecoder: Send + Sync {
    /// Predicts the observable flips for one shot's detector outcomes.
    ///
    /// The returned vector must have length equal to the DEM's observable
    /// count. [`decode_batch`](Self::decode_batch) relies on two more
    /// properties of every implementation: the prediction is a
    /// deterministic function of `detectors`, and the all-zero syndrome
    /// predicts no flip.
    fn decode(&self, detectors: &BitVec) -> BitVec;

    /// Decodes a packed batch: column `s` of the returned
    /// `num_observables × num_shots` matrix is the prediction for shot `s`,
    /// bit-identical to `decode(&shots.shot_detectors(s))`.
    ///
    /// Zero-defect shots cost nothing, single-defect shots share one
    /// `decode` per distinct firing detector, and each distinct multi-defect
    /// syndrome is decoded once by `decode` off one blocked transpose.
    /// Wrappers override this only to forward to an inner decoder's
    /// `decode_batch`.
    fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
        word_parallel_batch(self, shots)
    }
}

/// The batch decoder trait's former name, kept for callers that still
/// spell it; it is [`ObservableDecoder`] itself.
pub use ObservableDecoder as BatchObservableDecoder;

/// The shared word-parallel engine: pre-screens every shot word, serves
/// zero- and single-defect shots in bulk, and decodes each distinct
/// remaining hard syndrome once with `decoder.decode`.
fn word_parallel_batch<D>(decoder: &D, shots: &BatchShots) -> BitMatrix
where
    D: ObservableDecoder + ?Sized,
{
    let detectors = &shots.detectors;
    let num_detectors = detectors.rows();
    let num_shots = shots.num_shots();
    let num_observables = shots.observables.rows();
    let mut predictions = BitMatrix::zeros(num_observables, num_shots);
    if num_shots == 0 {
        return predictions;
    }
    let words = detectors.words_per_row();
    // One-hot lookup table, filled on demand: a single-defect shot's
    // syndrome IS the one-hot vector of its firing detector, so the scalar
    // decoder runs at most once per distinct detector per call.
    let mut one_hot: Vec<Option<BitVec>> = vec![None; num_detectors];
    let mut hard_shots = Vec::new();
    for w in 0..words {
        let valid = if w + 1 == words { detectors.tail_mask() } else { u64::MAX };
        // Saturating per-shot defect counter in two bit-planes: `any` is
        // "≥1 defect", `multi` is "≥2 defects", maintained with two word
        // ops per detector row.
        let mut any = 0u64;
        let mut multi = 0u64;
        for r in 0..num_detectors {
            let row = detectors.row_words(r)[w];
            multi |= any & row;
            any |= row;
        }
        let single = any & !multi & valid;
        if single != 0 {
            for (r, slot) in one_hot.iter_mut().enumerate() {
                let mask = single & detectors.row_words(r)[w];
                if mask == 0 {
                    continue;
                }
                let prediction = slot.get_or_insert_with(|| {
                    decoder.decode(&BitVec::from_indices(num_detectors, &[r]))
                });
                for o in prediction.ones() {
                    predictions.xor_row_word(o, w, mask);
                }
            }
        }
        let mut hard = multi & valid;
        while hard != 0 {
            hard_shots.push(w * WORD_BITS + hard.trailing_zeros() as usize);
            hard &= hard - 1;
        }
    }
    if !hard_shots.is_empty() {
        // One blocked transpose makes every hard shot's syndrome one
        // contiguous word slice; zero-/single-defect shots never pay for it.
        let transposed = detectors.transpose();
        // The first shot with each hard syndrome; a repeat copies that
        // shot's prediction bits instead of decoding again.
        let mut first_shot: HashMap<&[u64], usize> = HashMap::new();
        for s in hard_shots {
            let row = transposed.row_words(s);
            let first = *first_shot.entry(row).or_insert(s);
            if first == s {
                let syndrome = BitVec::from_words(row.to_vec(), num_detectors);
                for o in decoder.decode(&syndrome).ones() {
                    predictions.set(o, s, true);
                }
            } else {
                predictions.set_column(s, &predictions.column(first));
            }
        }
    }
    predictions
}

/// A factory that builds a decoder for a given detector error model.
///
/// The MCTS scheduler re-builds the decoder for every candidate schedule
/// (each schedule induces a different DEM), so decoders are constructed
/// through this factory rather than passed in directly.
pub trait DecoderFactory {
    /// Human-readable name of the decoder family (used in reports).
    fn name(&self) -> &str;

    /// Builds a decoder specialised to `dem`.
    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync>;

    /// Builds the decoder the batch pipeline drives. The default is
    /// [`Self::build`]'s decoder; a wrapping factory overrides it to wrap
    /// what the pipeline decodes with (e.g. to time `decode_batch`).
    fn build_batch(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder> {
        self.build(dem)
    }
}

/// Monte-Carlo estimate of the logical error rates of one scheduled round.
///
/// The struct stores the *exact* failure counts observed by the pipeline;
/// the rates ([`p_x`](LogicalErrorEstimate::p_x),
/// [`p_z`](LogicalErrorEstimate::p_z),
/// [`p_overall`](LogicalErrorEstimate::p_overall)) are derived on demand,
/// so Wilson intervals are computed from the true counts (never from a
/// rounded `rate × shots` reconstruction) and estimates round-trip without
/// loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicalErrorEstimate {
    /// Shots in which at least one logical X error was mispredicted
    /// (a logical-Z readout flip the decoder failed to predict).
    pub x_failures: usize,
    /// Shots in which at least one logical Z error was mispredicted.
    pub z_failures: usize,
    /// Shots in which any observable was mispredicted.
    pub any_failures: usize,
    /// Number of Monte-Carlo shots used.
    pub shots: usize,
}

impl LogicalErrorEstimate {
    /// `failures / shots` with the zero-shots hazard closed off: an
    /// estimate that recorded no shots has an observed rate of 0, not
    /// NaN. The evaluation pipeline rejects `shots == 0` up front, but
    /// estimates also arrive from wire artifacts and hand-rolled tests —
    /// a NaN here would silently poison early-stop comparisons and JSON
    /// artifacts downstream.
    fn rate(&self, failures: usize) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        failures as f64 / self.shots as f64
    }

    /// Empirical probability that at least one logical X error is
    /// mispredicted (0 when no shot was recorded).
    pub fn p_x(&self) -> f64 {
        self.rate(self.x_failures)
    }

    /// Empirical probability that at least one logical Z error is
    /// mispredicted (0 when no shot was recorded).
    pub fn p_z(&self) -> f64 {
        self.rate(self.z_failures)
    }

    /// Empirical probability that any observable is mispredicted (0 when
    /// no shot was recorded).
    pub fn p_overall(&self) -> f64 {
        self.rate(self.any_failures)
    }

    /// The paper's MCTS evaluation score `1 / p_overall`
    /// (§4.4, with the convention that a perfect round scores `shots + 1`
    /// to stay finite).
    pub fn score(&self) -> f64 {
        if self.any_failures == 0 {
            (self.shots + 1) as f64
        } else {
            1.0 / self.p_overall()
        }
    }

    /// 95% Wilson confidence interval of `p_overall`, computed from the
    /// exact failure count.
    pub fn wilson_overall(&self) -> (f64, f64) {
        asynd_sim::wilson_interval(self.any_failures, self.shots, 1.96)
    }
}

/// Tuning knobs of the batch estimation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOptions {
    /// Shots per streamed chunk (bounds peak memory).
    pub chunk_shots: usize,
    /// Optional early stop: end at a wave boundary once the Wilson
    /// half-width of `p_overall` is at most this fraction of the estimate
    /// (see [`EstimatorConfig::relative_half_width`]).
    pub relative_half_width: Option<f64>,
    /// Upper bound on worker threads (`None`: the machine's parallelism).
    pub max_threads: Option<usize>,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        let defaults = EstimatorConfig::default();
        EstimateOptions {
            chunk_shots: defaults.chunk_shots,
            relative_half_width: None,
            max_threads: None,
        }
    }
}

/// Estimates logical error rates of a scheduled round with a decoder in the
/// loop (the paper's Fig. 10 sampling circuit), on the batch pipeline.
///
/// The round's detector error model is built once, the decoder is built from
/// it via `factory`, and `shots` samples are decoded. A shot counts towards
/// `p_x` when any of the first `k` observables (logical-Z readouts) is
/// mispredicted, towards `p_z` when any of the last `k` is mispredicted, and
/// towards `p_overall` when anything is mispredicted.
///
/// One `u64` is drawn from `rng` as the master seed of the chunked
/// estimator, so results are deterministic given the caller's RNG state and
/// identical for any thread count.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `shots == 0` or the noise
/// model is invalid.
pub fn estimate_logical_error<R: Rng + ?Sized>(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    factory: &dyn DecoderFactory,
    shots: usize,
    rng: &mut R,
) -> Result<LogicalErrorEstimate, CircuitError> {
    estimate_logical_error_with(
        code,
        schedule,
        noise,
        factory,
        shots,
        &EstimateOptions::default(),
        rng,
    )
}

/// [`estimate_logical_error`] with explicit pipeline options (chunk size,
/// early stopping, thread cap).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `shots == 0` or the noise
/// model is invalid.
pub fn estimate_logical_error_with<R: Rng + ?Sized>(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    factory: &dyn DecoderFactory,
    shots: usize,
    options: &EstimateOptions,
    rng: &mut R,
) -> Result<LogicalErrorEstimate, CircuitError> {
    estimate_logical_error_timed(code, schedule, noise, factory, shots, options, rng)
        .map(|(estimate, _)| estimate)
}

/// [`estimate_logical_error_with`] plus the pipeline's per-phase
/// sample/decode/score wall-clock totals (summed across worker threads —
/// see [`PhaseTimings`]).
///
/// The estimate is bit-identical to the untimed entry points.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `shots == 0` or the noise
/// model is invalid.
pub fn estimate_logical_error_timed<R: Rng + ?Sized>(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    factory: &dyn DecoderFactory,
    shots: usize,
    options: &EstimateOptions,
    rng: &mut R,
) -> Result<(LogicalErrorEstimate, PhaseTimings), CircuitError> {
    let dem = DetectorErrorModel::build(code, schedule, noise)?;
    let decoder = factory.build_batch(&dem);
    let model = dem.to_frame_model();
    run_estimate(&model, decoder.as_ref(), code.num_logicals(), shots, options, rng.gen::<u64>())
}

/// The shared batch-pipeline core: runs `shots` samples of `frame` through
/// `decoder` and counts logical failures. Used by
/// [`estimate_logical_error_with`] and by the memoising
/// [`Evaluator`](crate::Evaluator), which both reduce to this pure function
/// of `(frame, decoder, master_seed)`.
pub(crate) fn run_estimate(
    frame: &asynd_sim::FrameErrorModel,
    decoder: &dyn ObservableDecoder,
    split_x: usize,
    shots: usize,
    options: &EstimateOptions,
    master_seed: u64,
) -> Result<(LogicalErrorEstimate, PhaseTimings), CircuitError> {
    if shots == 0 {
        return Err(CircuitError::InvalidParameter { reason: "shots must be positive".into() });
    }
    if options.chunk_shots == 0 {
        return Err(CircuitError::InvalidParameter {
            reason: "chunk_shots must be positive".into(),
        });
    }
    let estimator = ParallelEstimator::new(EstimatorConfig {
        chunk_shots: options.chunk_shots,
        relative_half_width: options.relative_half_width,
        max_threads: options.max_threads,
        ..EstimatorConfig::default()
    });
    let decode_batch = |batch: &BatchShots| decoder.decode_batch(batch);
    let (estimate, timings) =
        estimator.estimate_timed(frame, &decode_batch, split_x, shots, master_seed);
    Ok((
        LogicalErrorEstimate {
            x_failures: estimate.x_failures,
            z_failures: estimate.z_failures,
            any_failures: estimate.any_failures,
            shots: estimate.shots,
        },
        timings,
    ))
}

/// The historical scalar estimation loop: samples and decodes one shot at a
/// time.
///
/// Statistically equivalent to [`estimate_logical_error`] (the batch
/// pipeline is cross-checked against it in the test suite); kept as the
/// reference implementation and as the baseline of the `samplers`
/// benchmark.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `shots == 0` or the noise
/// model is invalid.
pub fn estimate_logical_error_scalar<R: Rng + ?Sized>(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
    factory: &dyn DecoderFactory,
    shots: usize,
    rng: &mut R,
) -> Result<LogicalErrorEstimate, CircuitError> {
    if shots == 0 {
        return Err(CircuitError::InvalidParameter { reason: "shots must be positive".into() });
    }
    let dem = DetectorErrorModel::build(code, schedule, noise)?;
    let decoder = factory.build(&dem);
    let sampler = Sampler::new(&dem);
    let k = code.num_logicals();

    let mut x_failures = 0usize;
    let mut z_failures = 0usize;
    let mut any_failures = 0usize;
    for _ in 0..shots {
        let shot = sampler.sample_one_scalar(rng);
        let prediction = decoder.decode(&shot.detectors);
        debug_assert_eq!(prediction.len(), dem.num_observables());
        let mut x_bad = false;
        let mut z_bad = false;
        for i in 0..dem.num_observables() {
            if prediction.get(i) != shot.observables.get(i) {
                if i < k {
                    x_bad = true;
                } else {
                    z_bad = true;
                }
            }
        }
        if x_bad {
            x_failures += 1;
        }
        if z_bad {
            z_failures += 1;
        }
        if x_bad || z_bad {
            any_failures += 1;
        }
    }
    Ok(LogicalErrorEstimate { x_failures, z_failures, any_failures, shots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::steane_code;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A decoder that always predicts "no observable flipped".
    struct NullDecoder {
        observables: usize,
    }

    impl ObservableDecoder for NullDecoder {
        fn decode(&self, _detectors: &BitVec) -> BitVec {
            BitVec::zeros(self.observables)
        }
    }

    /// Flips observable 0 on odd parity of the even-indexed defects: a
    /// decoder that implements only `decode`, so its batches take the
    /// provided `decode_batch`.
    struct ParityDecoder {
        observables: usize,
    }

    impl ObservableDecoder for ParityDecoder {
        fn decode(&self, detectors: &BitVec) -> BitVec {
            let mut out = BitVec::zeros(self.observables);
            out.set(0, detectors.ones().filter(|d| d % 2 == 0).count() % 2 == 1);
            out
        }
    }

    struct NullFactory;

    impl DecoderFactory for NullFactory {
        fn name(&self) -> &str {
            "null"
        }

        fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
            Box::new(NullDecoder { observables: dem.num_observables() })
        }
    }

    /// Counts the `decode` calls it forwards to a [`ParityDecoder`].
    struct CountingDecoder {
        inner: ParityDecoder,
        calls: AtomicUsize,
    }

    impl ObservableDecoder for CountingDecoder {
        fn decode(&self, detectors: &BitVec) -> BitVec {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.decode(detectors)
        }
    }

    #[test]
    fn provided_decode_batch_matches_decode_column_by_column() {
        let code = steane_code();
        let noise = NoiseModel::uniform(0.02, 0.01, 0.02);
        let dem = DetectorErrorModel::build(&code, &Schedule::trivial(&code), &noise).unwrap();
        let sampler = asynd_sim::BatchSampler::new(&dem.to_frame_model());
        let decoder = CountingDecoder {
            inner: ParityDecoder { observables: dem.num_observables() },
            calls: AtomicUsize::new(0),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // Shots seen with zero, one and two or more defects, and hard
        // shots whose syndrome already occurred earlier in their batch.
        let mut classes = [0usize; 3];
        let mut repeated_hard = 0;
        for shots in [1, 63, 64, 65, 130] {
            let batch = sampler.sample(shots, &mut rng);
            decoder.calls.store(0, Ordering::Relaxed);
            let predictions = decoder.decode_batch(&batch);
            assert_eq!((predictions.rows(), predictions.cols()), (dem.num_observables(), shots));
            let mut distinct = [HashSet::new(), HashSet::new()];
            for s in 0..shots {
                let detectors = batch.shot_detectors(s);
                let class = detectors.count_ones().min(2);
                classes[class] += 1;
                if class > 0 {
                    let fresh = distinct[class - 1].insert(detectors.words().to_vec());
                    repeated_hard += usize::from(class == 2 && !fresh);
                }
                let expected = decoder.inner.decode(&detectors);
                assert_eq!(predictions.column(s), expected, "{shots} shots: {s}");
            }
            assert_eq!(
                decoder.calls.load(Ordering::Relaxed),
                distinct[0].len() + distinct[1].len(),
                "{shots} shots: one decode per distinct firing detector and hard syndrome"
            );
        }
        assert!(classes.iter().all(|&n| n > 0), "every shot class must occur: {classes:?}");
        assert!(repeated_hard > 0, "some hard syndrome must repeat within a batch");
    }

    #[test]
    fn zero_noise_gives_zero_error() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::uniform(0.0, 0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let estimate =
            estimate_logical_error(&code, &schedule, &noise, &NullFactory, 200, &mut rng).unwrap();
        assert_eq!(estimate.p_overall(), 0.0);
        assert_eq!(estimate.p_x(), 0.0);
        assert_eq!(estimate.p_z(), 0.0);
        assert!(estimate.score() > 200.0);
    }

    #[test]
    fn null_decoder_fails_under_noise() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::uniform(0.05, 0.02, 0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let estimate =
            estimate_logical_error(&code, &schedule, &noise, &NullFactory, 500, &mut rng).unwrap();
        assert!(estimate.p_overall() > 0.0, "heavy noise must produce logical errors");
        assert!(estimate.p_overall() >= estimate.p_x().max(estimate.p_z()));
        assert!(estimate.score() <= 1.0 / estimate.p_overall() + 1e-9);
        let (lo, hi) = estimate.wilson_overall();
        assert!(lo <= estimate.p_overall() && estimate.p_overall() <= hi);
    }

    #[test]
    fn zero_shot_estimates_have_defined_rates_not_nan() {
        // The pipeline refuses to *produce* such an estimate, but wire
        // artifacts and tests can construct one; its derived views must
        // stay finite so early-stop comparisons and JSON never see NaN.
        let empty =
            LogicalErrorEstimate { x_failures: 0, z_failures: 0, any_failures: 0, shots: 0 };
        assert_eq!(empty.p_x(), 0.0);
        assert_eq!(empty.p_z(), 0.0);
        assert_eq!(empty.p_overall(), 0.0);
        assert!(empty.score().is_finite());
        assert_eq!(empty.wilson_overall(), (0.0, 1.0), "zero trials: the vacuous interval");
        // Even an inconsistent estimate (failures without shots) must
        // not emit NaN.
        let bogus =
            LogicalErrorEstimate { x_failures: 3, z_failures: 1, any_failures: 4, shots: 0 };
        assert!(!bogus.p_overall().is_nan());
        assert!(!bogus.wilson_overall().0.is_nan());
    }

    #[test]
    fn zero_shots_is_an_error() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(estimate_logical_error(
            &code,
            &schedule,
            &NoiseModel::brisbane(),
            &NullFactory,
            0,
            &mut rng
        )
        .is_err());
        assert!(estimate_logical_error_scalar(
            &code,
            &schedule,
            &NoiseModel::brisbane(),
            &NullFactory,
            0,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn zero_chunk_shots_is_an_error_not_a_panic() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let options = EstimateOptions { chunk_shots: 0, ..EstimateOptions::default() };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert!(estimate_logical_error_with(
            &code,
            &schedule,
            &NoiseModel::brisbane(),
            &NullFactory,
            100,
            &options,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn batch_pipeline_is_deterministic_and_thread_independent() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::brisbane();
        let serial = EstimateOptions { max_threads: Some(1), ..EstimateOptions::default() };
        let threaded = EstimateOptions { max_threads: Some(4), ..EstimateOptions::default() };
        let run = |options: &EstimateOptions| {
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            estimate_logical_error_with(
                &code,
                &schedule,
                &noise,
                &NullFactory,
                5000,
                options,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(run(&serial), run(&serial));
        assert_eq!(run(&serial), run(&threaded));
    }

    #[test]
    fn early_stop_uses_fewer_shots() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        // Null decoder under heavy noise: p_overall is large, so a loose
        // relative interval is reached quickly.
        let noise = NoiseModel::uniform(0.05, 0.02, 0.05);
        let options = EstimateOptions {
            chunk_shots: 256,
            relative_half_width: Some(0.25),
            ..EstimateOptions::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let estimate = estimate_logical_error_with(
            &code,
            &schedule,
            &noise,
            &NullFactory,
            1_000_000,
            &options,
            &mut rng,
        )
        .unwrap();
        assert!(estimate.shots < 1_000_000, "early stop never triggered");
        assert!(estimate.p_overall() > 0.0);
    }
}
