//! Chunked, parallel Monte-Carlo estimation of logical error rates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{BatchSampler, BatchShots, BitMatrix, FrameErrorModel};

/// Wilson score interval for a binomial proportion.
///
/// Returns `(low, high)` bounds for the success probability after observing
/// `successes` out of `trials`, at critical value `z` (1.96 ≈ 95%). Unlike
/// the normal approximation it behaves sensibly at 0 and `trials`
/// successes, which is exactly the regime of low logical error rates.
///
/// # Example
///
/// ```
/// let (lo, hi) = asynd_sim::wilson_interval(0, 1000, 1.96);
/// assert_eq!(lo, 0.0);
/// assert!(hi > 0.0 && hi < 0.01);
/// ```
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Configuration of the [`ParallelEstimator`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Shots per chunk. Each chunk is sampled, decoded and scored as one
    /// unit holding `O(chunk_shots × (detectors + observables) / 64)`
    /// words, so memory stays bounded however large the total shot budget.
    pub chunk_shots: usize,
    /// Chunks per wave. Early stopping is evaluated only at wave
    /// boundaries, and the wave size is a fixed constant (not the thread
    /// count), so results never depend on the machine's parallelism.
    pub chunks_per_wave: usize,
    /// Critical value of the Wilson interval (1.96 ≈ 95%).
    pub z: f64,
    /// Early-stop target: when set, estimation stops at the first wave
    /// boundary where the Wilson interval half-width of `p_overall` is at
    /// most `target · max(p_overall, 1/shots_so_far)` (a *relative* bound,
    /// so tight estimates of small rates still take the shots they need).
    pub relative_half_width: Option<f64>,
    /// Upper bound on worker threads (`None`: the machine's parallelism).
    pub max_threads: Option<usize>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            chunk_shots: 4096,
            chunks_per_wave: 8,
            z: 1.96,
            relative_half_width: None,
            max_threads: None,
        }
    }
}

/// The outcome of a batched logical-error estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEstimate {
    /// Shots actually evaluated (less than requested only when early
    /// stopping triggered).
    pub shots: usize,
    /// Shots in which an observable in the X block was mispredicted.
    pub x_failures: usize,
    /// Shots in which an observable in the Z block was mispredicted.
    pub z_failures: usize,
    /// Shots in which any observable was mispredicted.
    pub any_failures: usize,
    /// Critical value used for the Wilson interval.
    pub z: f64,
}

impl BatchEstimate {
    /// `failures / shots`, defined as 0 at zero shots (the same
    /// zero-trials discipline as [`wilson_interval`]: estimation always
    /// takes at least one shot, but derived views of an empty estimate
    /// must not produce NaN).
    fn rate(&self, failures: usize) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        failures as f64 / self.shots as f64
    }

    /// Empirical logical X error rate (0 at zero shots).
    pub fn p_x(&self) -> f64 {
        self.rate(self.x_failures)
    }

    /// Empirical logical Z error rate (0 at zero shots).
    pub fn p_z(&self) -> f64 {
        self.rate(self.z_failures)
    }

    /// Empirical overall logical error rate (0 at zero shots).
    pub fn p_overall(&self) -> f64 {
        self.rate(self.any_failures)
    }

    /// Wilson confidence interval of the overall error rate.
    pub fn wilson_overall(&self) -> (f64, f64) {
        wilson_interval(self.any_failures, self.shots, self.z)
    }
}

/// Wall-clock nanoseconds spent in each phase of the estimation pipeline,
/// summed across chunks (and therefore across threads: on `N` workers the
/// totals can exceed the elapsed wall time by up to `N×`).
///
/// Returned by [`ParallelEstimator::estimate_timed`]; kept separate from
/// [`BatchEstimate`] so the estimate itself stays a pure, comparable
/// function of `(model, decoder, seed)` — timings vary run to run, the
/// counts never do.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Nanoseconds spent sampling packed shots.
    pub sample_ns: u64,
    /// Nanoseconds spent in `decode_batch`.
    pub decode_ns: u64,
    /// Nanoseconds spent scoring predictions against the truth rows.
    pub score_ns: u64,
}

impl PhaseTimings {
    /// Sampling time in milliseconds.
    pub fn sample_ms(&self) -> f64 {
        self.sample_ns as f64 / 1e6
    }

    /// Decode time in milliseconds.
    pub fn decode_ms(&self) -> f64 {
        self.decode_ns as f64 / 1e6
    }

    /// Scoring time in milliseconds.
    pub fn score_ms(&self) -> f64 {
        self.score_ns as f64 / 1e6
    }
}

/// Per-chunk failure counts and phase timings (summed across chunks, so
/// aggregation is order-independent and the estimate is deterministic
/// under any thread interleaving; the timing fields ride along and are
/// reported separately).
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCounts {
    shots: usize,
    x_failures: usize,
    z_failures: usize,
    any_failures: usize,
    sample_ns: u64,
    decode_ns: u64,
    score_ns: u64,
}

impl ChunkCounts {
    fn add(&mut self, other: ChunkCounts) {
        self.shots += other.shots;
        self.x_failures += other.x_failures;
        self.z_failures += other.z_failures;
        self.any_failures += other.any_failures;
        self.sample_ns += other.sample_ns;
        self.decode_ns += other.decode_ns;
        self.score_ns += other.score_ns;
    }
}

/// Streams chunks of packed shots through a batch decoder in parallel and
/// accumulates logical failure counts.
///
/// The decoder is any `Fn(&BatchShots) -> BitMatrix` returning one
/// prediction bit-column per shot (`num_observables × num_shots`). The
/// shot budget is split into fixed-size chunks; each chunk gets an
/// independent ChaCha8 RNG derived from the caller's seed and the chunk
/// index (SplitMix64 mixing), is sampled with the word-packed
/// [`BatchSampler`], decoded, and scored with word-parallel XOR/OR
/// reductions. Workers pull chunk indices from an atomic counter
/// (shared-nothing except the final sums), so the result is identical for
/// any thread count — including one.
///
/// # Example
///
/// ```
/// use asynd_sim::{
///     BatchShots, BitMatrix, EstimatorConfig, FrameErrorModel, Mechanism, ParallelEstimator,
/// };
///
/// // A blind decoder: always predicts "no flip".
/// let blind = |shots: &BatchShots| BitMatrix::zeros(1, shots.num_shots());
///
/// let model = FrameErrorModel::new(
///     1,
///     1,
///     vec![Mechanism { probability: 0.1, detectors: vec![0], observables: vec![0] }],
/// )
/// .unwrap();
/// let estimate =
///     ParallelEstimator::new(EstimatorConfig::default()).estimate(&model, &blind, 1, 20_000, 7);
/// assert_eq!(estimate.shots, 20_000);
/// let (lo, hi) = estimate.wilson_overall();
/// assert!(lo < 0.1 && 0.1 < hi, "true rate inside the Wilson interval");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParallelEstimator {
    config: EstimatorConfig,
}

impl ParallelEstimator {
    /// Creates an estimator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_shots` or `chunks_per_wave` is zero.
    pub fn new(config: EstimatorConfig) -> Self {
        assert!(config.chunk_shots > 0, "chunk_shots must be positive");
        assert!(config.chunks_per_wave > 0, "chunks_per_wave must be positive");
        ParallelEstimator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Estimates logical error rates over `shots` Monte-Carlo shots.
    ///
    /// Observable rows `0..split_x` form the X block (logical-Z readouts)
    /// and rows `split_x..` the Z block, matching the circuit layer's
    /// convention. `seed` fully determines the result.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn estimate<D>(
        &self,
        model: &FrameErrorModel,
        decoder: &D,
        split_x: usize,
        shots: usize,
        seed: u64,
    ) -> BatchEstimate
    where
        D: Fn(&BatchShots) -> BitMatrix + Sync + ?Sized,
    {
        self.estimate_timed(model, decoder, split_x, shots, seed).0
    }

    /// Like [`Self::estimate`], but also reports the per-phase
    /// sample/decode/score wall-clock totals (see [`PhaseTimings`]).
    ///
    /// The returned estimate is bit-identical to [`Self::estimate`]'s:
    /// timing instrumentation never influences chunking, seeding or
    /// accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn estimate_timed<D>(
        &self,
        model: &FrameErrorModel,
        decoder: &D,
        split_x: usize,
        shots: usize,
        seed: u64,
    ) -> (BatchEstimate, PhaseTimings)
    where
        D: Fn(&BatchShots) -> BitMatrix + Sync + ?Sized,
    {
        assert!(shots > 0, "shots must be positive");
        let sampler = BatchSampler::new(model);
        let chunk_shots = self.config.chunk_shots;
        let num_chunks = shots.div_ceil(chunk_shots);
        let last_chunk_shots = shots - (num_chunks - 1) * chunk_shots;

        let run_chunk = |chunk: usize| -> ChunkCounts {
            let chunk_shots = if chunk + 1 == num_chunks { last_chunk_shots } else { chunk_shots };
            let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, chunk as u64));
            let t = std::time::Instant::now();
            let batch = sampler.sample(chunk_shots, &mut rng);
            let sample_ns = t.elapsed().as_nanos() as u64;
            let t = std::time::Instant::now();
            let predictions = decoder(&batch);
            let decode_ns = t.elapsed().as_nanos() as u64;
            let t = std::time::Instant::now();
            let mut counts = score_chunk(&batch, &predictions, split_x, chunk_shots);
            counts.sample_ns = sample_ns;
            counts.decode_ns = decode_ns;
            counts.score_ns = t.elapsed().as_nanos() as u64;
            counts
        };

        let threads =
            self.config.max_threads.unwrap_or_else(rayon::current_num_threads).clamp(1, num_chunks);
        let mut total = ChunkCounts::default();
        let mut next_wave_start = 0usize;
        while next_wave_start < num_chunks {
            let wave_end = (next_wave_start + self.config.chunks_per_wave).min(num_chunks);
            total.add(run_wave(next_wave_start, wave_end, threads, &run_chunk));
            next_wave_start = wave_end;
            if let Some(target) = self.config.relative_half_width {
                let (lo, hi) = wilson_interval(total.any_failures, total.shots, self.config.z);
                let p =
                    (total.any_failures as f64 / total.shots as f64).max(1.0 / total.shots as f64);
                if (hi - lo) / 2.0 <= target * p {
                    break;
                }
            }
        }
        (
            BatchEstimate {
                shots: total.shots,
                x_failures: total.x_failures,
                z_failures: total.z_failures,
                any_failures: total.any_failures,
                z: self.config.z,
            },
            PhaseTimings {
                sample_ns: total.sample_ns,
                decode_ns: total.decode_ns,
                score_ns: total.score_ns,
            },
        )
    }
}

/// Derives a decorrelated sub-seed from a master seed and an index
/// (SplitMix64 finalizer over `seed ⊕ index·φ`).
///
/// This is the workspace's one seed-derivation function: the
/// [`ParallelEstimator`] derives per-chunk RNGs from `(seed, chunk index)`
/// and the MCTS scheduler derives per-iteration RNGs from
/// `(seed, global iteration index)`. Deriving from indices — never from
/// thread identity — is what makes every parallel pipeline in the
/// workspace bit-identical for any thread count.
///
/// # Example
///
/// ```
/// let a = asynd_sim::mix_seed(7, 0);
/// let b = asynd_sim::mix_seed(7, 1);
/// assert_ne!(a, b, "consecutive indices decorrelate");
/// assert_eq!(a, asynd_sim::mix_seed(7, 0), "pure function of (seed, index)");
/// ```
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs chunks `[start, end)` on up to `threads` workers pulling from an
/// atomic counter; sums the per-chunk counts.
fn run_wave<F>(start: usize, end: usize, threads: usize, run_chunk: &F) -> ChunkCounts
where
    F: Fn(usize) -> ChunkCounts + Sync,
{
    let workers = threads.min(end - start);
    if workers <= 1 {
        let mut total = ChunkCounts::default();
        for chunk in start..end {
            total.add(run_chunk(chunk));
        }
        return total;
    }
    let next = AtomicUsize::new(start);
    let total = Mutex::new(ChunkCounts::default());
    rayon::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let mut local = ChunkCounts::default();
                loop {
                    let chunk = next.fetch_add(1, Ordering::Relaxed);
                    if chunk >= end {
                        break;
                    }
                    local.add(run_chunk(chunk));
                }
                total.lock().expect("estimator accumulator poisoned").add(local);
            });
        }
    });
    Mutex::into_inner(total).expect("estimator accumulator poisoned")
}

/// Scores one decoded chunk with word-parallel reductions: for each shot
/// word, OR the prediction⊕truth differences of the X rows and Z rows
/// separately, then popcount the failure masks.
fn score_chunk(
    batch: &BatchShots,
    predictions: &BitMatrix,
    split_x: usize,
    shots: usize,
) -> ChunkCounts {
    let truth = &batch.observables;
    debug_assert_eq!(predictions.rows(), truth.rows());
    debug_assert_eq!(predictions.cols(), truth.cols());
    let mut counts = ChunkCounts { shots, ..ChunkCounts::default() };
    let words = truth.words_per_row();
    for w in 0..words {
        let mut x_bad = 0u64;
        let mut z_bad = 0u64;
        for r in 0..truth.rows() {
            let diff = truth.row_words(r)[w] ^ predictions.row_words(r)[w];
            if r < split_x {
                x_bad |= diff;
            } else {
                z_bad |= diff;
            }
        }
        if w + 1 == words {
            // A word-parallel decode_batch override may legitimately write
            // whole words; never let padding bits past the shot count read
            // as failures.
            x_bad &= truth.tail_mask();
            z_bad &= truth.tail_mask();
        }
        counts.x_failures += x_bad.count_ones() as usize;
        counts.z_failures += z_bad.count_ones() as usize;
        counts.any_failures += (x_bad | z_bad).count_ones() as usize;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mechanism;

    /// Always predicts "no observable flipped".
    fn blind(observables: usize) -> impl Fn(&BatchShots) -> BitMatrix + Sync {
        move |shots| BitMatrix::zeros(observables, shots.num_shots())
    }

    fn two_block_model(p_x: f64, p_z: f64) -> FrameErrorModel {
        FrameErrorModel::new(
            2,
            2,
            vec![
                Mechanism { probability: p_x, detectors: vec![0], observables: vec![0] },
                Mechanism { probability: p_z, detectors: vec![1], observables: vec![1] },
            ],
        )
        .unwrap()
    }

    #[test]
    fn blind_decoder_failure_rates_match_mechanism_probabilities() {
        let model = two_block_model(0.02, 0.15);
        let estimator = ParallelEstimator::default();
        let estimate = estimator.estimate(&model, &blind(2), 1, 100_000, 3);
        assert_eq!(estimate.shots, 100_000);
        assert!((estimate.p_x() - 0.02).abs() < 0.005, "p_x {}", estimate.p_x());
        assert!((estimate.p_z() - 0.15).abs() < 0.01, "p_z {}", estimate.p_z());
        // any = 1 - (1-p_x)(1-p_z)
        let expected = 1.0 - (1.0 - 0.02) * (1.0 - 0.15);
        assert!(
            (estimate.p_overall() - expected).abs() < 0.01,
            "p_overall {}",
            estimate.p_overall()
        );
        let (lo, hi) = estimate.wilson_overall();
        assert!(lo <= estimate.p_overall() && estimate.p_overall() <= hi);
    }

    #[test]
    fn deterministic_and_thread_count_independent() {
        let model = two_block_model(0.01, 0.03);
        let serial = ParallelEstimator::new(EstimatorConfig {
            max_threads: Some(1),
            ..EstimatorConfig::default()
        });
        let parallel = ParallelEstimator::new(EstimatorConfig {
            max_threads: Some(4),
            ..EstimatorConfig::default()
        });
        let a = serial.estimate(&model, &blind(2), 1, 30_000, 42);
        let b = parallel.estimate(&model, &blind(2), 1, 30_000, 42);
        assert_eq!(a, b, "thread count must not change the estimate");
        let c = serial.estimate(&model, &blind(2), 1, 30_000, 43);
        assert_ne!(a, c, "different seeds must change the sample");
    }

    #[test]
    fn early_stop_reduces_shots_on_high_rates() {
        // p ≈ 0.5 needs few shots for a 20% relative half-width.
        let model = two_block_model(0.5, 0.5);
        let estimator = ParallelEstimator::new(EstimatorConfig {
            relative_half_width: Some(0.2),
            chunk_shots: 512,
            chunks_per_wave: 2,
            ..EstimatorConfig::default()
        });
        let estimate = estimator.estimate(&model, &blind(2), 1, 1_000_000, 5);
        assert!(estimate.shots < 1_000_000, "early stop never triggered");
        assert!(estimate.shots >= 1024, "at least one wave must complete");
        assert!((estimate.p_overall() - 0.75).abs() < 0.1);
    }

    #[test]
    fn remainder_chunk_is_counted_exactly() {
        let model = two_block_model(1.0, 0.0);
        let estimator = ParallelEstimator::new(EstimatorConfig {
            chunk_shots: 100,
            ..EstimatorConfig::default()
        });
        // 250 shots = chunks of 100, 100, 50; p_x = 1 ⇒ every shot fails.
        let estimate = estimator.estimate(&model, &blind(2), 1, 250, 0);
        assert_eq!(estimate.shots, 250);
        assert_eq!(estimate.x_failures, 250);
        assert_eq!(estimate.z_failures, 0);
        assert_eq!(estimate.any_failures, 250);
    }

    #[test]
    fn zero_trials_never_produce_nan() {
        // Zero trials yield the vacuous interval — even with nonzero
        // "successes", which a buggy caller could hand in.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        assert_eq!(wilson_interval(7, 0, 1.96), (0.0, 1.0));
        let empty =
            BatchEstimate { shots: 0, x_failures: 0, z_failures: 0, any_failures: 0, z: 1.96 };
        assert_eq!(empty.p_x(), 0.0);
        assert_eq!(empty.p_z(), 0.0);
        assert_eq!(empty.p_overall(), 0.0);
        assert_eq!(empty.wilson_overall(), (0.0, 1.0));
    }

    #[test]
    fn wilson_interval_basic_properties() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.95 && hi > 1.0 - 1e-9);
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        // Interval narrows with more trials.
        let (lo2, hi2) = wilson_interval(500, 1000, 1.96);
        assert!(hi2 - lo2 < hi - lo);
    }
}
