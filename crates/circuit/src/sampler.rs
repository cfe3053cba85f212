//! Monte-Carlo sampling of detector/observable shots from a detector error
//! model.
//!
//! Since the `asynd-sim` batch pipeline landed, the packed
//! [`BatchSampler`] is the primary sampling engine; [`Sampler::sample`]
//! and [`Sampler::sample_one`] are thin compatibility wrappers that sample
//! packed word-columns and unpack them into [`Shot`]s. The historical
//! scalar path survives as [`Sampler::sample_scalar`] for cross-checks and
//! benchmarks.
//!
//! # Seeding policy
//!
//! Both paths are internally deterministic: a fixed seed and shot count
//! always reproduce the same shots. They consume the RNG differently,
//! though — the scalar path draws one `f64` per mechanism per shot, while
//! the batch path draws word-level fire masks per mechanism — so *scalar
//! and batch outputs of the same seed are different (equally distributed)
//! samples*, and batches of different sizes are not prefixes of one
//! another. Callers that need reproducibility must fix the path, the seed
//! and the shot count, which is what the evaluation pipeline does.

use asynd_pauli::BitVec;
use asynd_sim::{BatchSampler, BatchShots};
use rand::Rng;

use crate::DetectorErrorModel;

/// One sampled shot: the detector outcomes handed to a decoder and the true
/// observable flips the decoder is asked to predict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shot {
    /// Detector outcomes (true = detection event).
    pub detectors: BitVec,
    /// Actual logical observable flips of the sampled error.
    pub observables: BitVec,
}

/// Samples independent shots from a [`DetectorErrorModel`].
///
/// Every error mechanism fires independently with its probability; the shot
/// is the XOR of the signatures of the mechanisms that fired — exactly the
/// sampling semantics of stim's `DetectorErrorModel` sampler. Internally
/// the shots are drawn 64 at a time by the bit-packed [`BatchSampler`].
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, Sampler, Schedule};
/// use rand::SeedableRng;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let sampler = Sampler::new(&dem);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let shots = sampler.sample(100, &mut rng);
/// assert_eq!(shots.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Sampler<'a> {
    dem: &'a DetectorErrorModel,
    /// Batch sampling plans, built lazily on first batch use so purely
    /// scalar callers pay nothing.
    batch: std::sync::OnceLock<BatchSampler>,
}

impl<'a> Sampler<'a> {
    /// Creates a sampler over the given DEM.
    pub fn new(dem: &'a DetectorErrorModel) -> Self {
        Sampler { dem, batch: std::sync::OnceLock::new() }
    }

    /// Samples `shots` shots in packed form (the fast path; one word per
    /// 64 shots per detector row).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn sample_batch<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> BatchShots {
        self.batch.get_or_init(|| BatchSampler::new(&self.dem.to_frame_model())).sample(shots, rng)
    }

    /// Samples a single shot (compatibility wrapper: draws one packed
    /// word-column batch of size 1 and unpacks it).
    pub fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> Shot {
        let batch = self.sample_batch(1, rng);
        Shot { detectors: batch.shot_detectors(0), observables: batch.shot_observables(0) }
    }

    /// Samples `shots` independent shots (compatibility wrapper over the
    /// batch path; prefer [`Sampler::sample_batch`] in hot loops).
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<Shot> {
        if shots == 0 {
            return Vec::new();
        }
        let batch = self.sample_batch(shots, rng);
        (0..shots)
            .map(|s| Shot {
                detectors: batch.shot_detectors(s),
                observables: batch.shot_observables(s),
            })
            .collect()
    }

    /// The historical scalar path for a single shot: one `f64` draw per
    /// mechanism.
    ///
    /// Kept as the reference implementation for statistical cross-checks
    /// and as the baseline of the `samplers` benchmark; not used by the
    /// evaluation pipeline. Streaming callers (like
    /// [`estimate_logical_error_scalar`](crate::estimate_logical_error_scalar))
    /// call this per shot to keep memory flat.
    pub fn sample_one_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Shot {
        let mut detectors = BitVec::zeros(self.dem.num_detectors());
        let mut observables = BitVec::zeros(self.dem.num_observables());
        for error in self.dem.errors() {
            if rng.gen::<f64>() < error.probability {
                for &d in &error.detectors {
                    detectors.flip(d);
                }
                for &o in &error.observables {
                    observables.flip(o);
                }
            }
        }
        Shot { detectors, observables }
    }

    /// [`Sampler::sample_one_scalar`] collected over `shots` shots.
    pub fn sample_scalar<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<Shot> {
        (0..shots).map(|_| self.sample_one_scalar(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DemError;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            1,
            vec![
                DemError { probability: 0.5, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.0, detectors: vec![2], observables: vec![0] },
            ],
        )
    }

    #[test]
    fn zero_probability_mechanisms_never_fire() {
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for shot in sampler.sample(200, &mut rng) {
            assert!(!shot.detectors.get(2));
            assert!(!shot.observables.get(0));
        }
    }

    #[test]
    fn firing_rate_matches_probability() {
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let shots = sampler.sample(4000, &mut rng);
        let fired = shots.iter().filter(|s| s.detectors.get(0)).count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.5).abs() < 0.05, "empirical rate {rate} too far from 0.5");
        // Detectors 0 and 1 always fire together for this mechanism.
        for shot in &shots {
            assert_eq!(shot.detectors.get(0), shot.detectors.get(1));
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let a = sampler.sample(50, &mut ChaCha8Rng::seed_from_u64(9));
        let b = sampler.sample(50, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn scalar_path_is_deterministic_too() {
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let a = sampler.sample_scalar(50, &mut ChaCha8Rng::seed_from_u64(9));
        let b = sampler.sample_scalar(50, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_one_matches_batch_of_one() {
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let one = sampler.sample_one(&mut ChaCha8Rng::seed_from_u64(4));
        let batch = sampler.sample(1, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(vec![one], batch);
    }

    #[test]
    fn unvalidated_probabilities_keep_scalar_semantics() {
        // from_parts validates nothing; the batch path must mirror what the
        // scalar `rng.gen::<f64>() < p` test does with out-of-range values.
        let dem = DetectorErrorModel::from_parts(
            2,
            0,
            vec![
                DemError { probability: 1.5, detectors: vec![0], observables: vec![] },
                DemError { probability: f64::NAN, detectors: vec![1], observables: vec![] },
            ],
        );
        let sampler = Sampler::new(&dem);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for shot in sampler.sample(100, &mut rng) {
            assert!(shot.detectors.get(0), "p > 1 must always fire");
            assert!(!shot.detectors.get(1), "NaN must never fire");
        }
    }

    #[test]
    fn scalar_and_batch_rates_agree() {
        // Same distribution through different RNG consumption patterns.
        let dem = toy_dem();
        let sampler = Sampler::new(&dem);
        let shots = 4000;
        let rate = |shots: &[Shot]| {
            shots.iter().filter(|s| s.detectors.get(0)).count() as f64 / shots.len() as f64
        };
        let batch = sampler.sample(shots, &mut ChaCha8Rng::seed_from_u64(5));
        let scalar = sampler.sample_scalar(shots, &mut ChaCha8Rng::seed_from_u64(5));
        assert!((rate(&batch) - rate(&scalar)).abs() < 0.05);
    }
}
