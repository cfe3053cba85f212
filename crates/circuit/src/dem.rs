//! Detector error models: the bridge between noisy scheduled circuits and
//! decoders.

use asynd_codes::StabilizerCode;
use asynd_pauli::Pauli;
use serde::{Deserialize, Serialize};

use crate::propagate::Sensitivities;
use crate::{CircuitError, NoiseModel, RoundCircuit, Schedule};

/// One independent error mechanism of a detector error model: with
/// probability `probability` it flips the listed detectors and observables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemError {
    /// Probability that the mechanism fires in one shot.
    pub probability: f64,
    /// Sorted indices of the detectors the mechanism flips.
    pub detectors: Vec<usize>,
    /// Sorted indices of the logical observables the mechanism flips.
    pub observables: Vec<usize>,
}

/// A detector error model (DEM): the set of independent error mechanisms of
/// one noisy, scheduled syndrome-measurement round followed by an ideal
/// round, in the same form `stim` exports for decoders.
///
/// Detectors `0..r` are the noisy-round ancilla readouts, detectors `r..2r`
/// compare the noisy readouts with the ideal second round. Observables
/// `0..k` are logical-Z readouts (flipped by logical X errors) and `k..2k`
/// are logical-X readouts (flipped by logical Z errors).
///
/// # Example
///
/// ```
/// use asynd_codes::rotated_surface_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, Schedule};
///
/// let code = rotated_surface_code(3);
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// assert!(dem.errors().len() > 50);
/// assert!(dem.errors().iter().all(|e| e.probability > 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    errors: Vec<DemError>,
}

impl DetectorErrorModel {
    /// Creates a DEM from raw parts (used by tests and decoder unit tests).
    pub fn from_parts(num_detectors: usize, num_observables: usize, errors: Vec<DemError>) -> Self {
        DetectorErrorModel { num_detectors, num_observables, errors }
    }

    /// Builds the DEM of one noisy scheduled round of `code` under `noise`.
    ///
    /// The elementary faults are the 15 two-qubit Paulis after each check
    /// (in check-list order), the 3 single-qubit Paulis on each idle data
    /// qubit and ancilla (tick by tick) and the readout flip of each
    /// ancilla. One backward sensitivity sweep over the round gives every
    /// fault location's effect on the detectors and observables at once;
    /// each fault's signature is the XOR of at most four of its packed
    /// rows. Faults with empty signatures are dropped. The rest are
    /// stable-sorted by signature, so each run of equal signatures is
    /// merged in enumeration order, from 0.0, by `e·(1−p) + p·(1−e)` (the
    /// merged mechanism fires when an odd number of its faults fire). The
    /// mechanisms are returned sorted by (detectors, observables).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if the noise model is
    /// invalid (see [`NoiseModel::validate`]), and the errors of
    /// [`RoundCircuit::new`] for a check at tick 0 or with an out-of-range
    /// stabilizer or data qubit. The schedule is not otherwise validated
    /// (see [`Schedule::validate`]).
    pub fn build(
        code: &StabilizerCode,
        schedule: &Schedule,
        noise: &NoiseModel,
    ) -> Result<Self, CircuitError> {
        noise.validate()?;
        let circuit = RoundCircuit::new(code, schedule)?;
        let sweep = Sensitivities::sweep(&circuit);
        let words = sweep.words();
        let mut signatures: Vec<u64> = Vec::new();
        let mut probabilities: Vec<f64> = Vec::new();
        let mut signature = vec![0u64; words];

        let mut add = |signature: &[u64], probability: f64| {
            if probability <= 0.0 || signature.iter().all(|&w| w == 0) {
                return;
            }
            signatures.extend_from_slice(signature);
            probabilities.push(probability);
        };

        // Two-qubit depolarizing noise after every check.
        for check in schedule.checks() {
            let p = noise.check_error_probability(check.data, check.stabilizer);
            if p > 0.0 {
                let per_term = p / 15.0;
                let ancilla = circuit.ancilla_qubit(check.stabilizer);
                for pa in Pauli::ALL {
                    for pd in Pauli::ALL {
                        if pa == Pauli::I && pd == Pauli::I {
                            continue;
                        }
                        signature.fill(0);
                        sweep.xor_into(&mut signature, check.tick, check.data, pd);
                        sweep.xor_into(&mut signature, check.tick, ancilla, pa);
                        add(&signature, per_term);
                    }
                }
            }
        }

        // Idle depolarizing noise, tick by tick.
        for tick in 1..=circuit.depth() {
            for data in 0..circuit.num_data() {
                if circuit.is_data_idle(data, tick) {
                    let p = noise.data_idle_probability(data);
                    if p > 0.0 {
                        for pauli in Pauli::ERRORS {
                            signature.fill(0);
                            sweep.xor_into(&mut signature, tick, data, pauli);
                            add(&signature, p / 3.0);
                        }
                    }
                }
            }
            for stab in 0..circuit.num_stabilizers() {
                if circuit.is_ancilla_idle(stab, tick) {
                    let p = noise.ancilla_idle_probability(stab);
                    if p > 0.0 {
                        let ancilla = circuit.ancilla_qubit(stab);
                        for pauli in Pauli::ERRORS {
                            signature.fill(0);
                            sweep.xor_into(&mut signature, tick, ancilla, pauli);
                            add(&signature, p / 3.0);
                        }
                    }
                }
            }
        }

        // Readout flips: detector s and its round-2 comparison r + s.
        let r = circuit.num_stabilizers();
        for stab in 0..r {
            signature.fill(0);
            for bit in [stab, r + stab] {
                signature[bit / 64] |= 1 << (bit % 64);
            }
            add(&signature, noise.measurement_probability(stab));
        }

        let signature_of = |fault: usize| &signatures[fault * words..(fault + 1) * words];
        let mut order: Vec<usize> = (0..probabilities.len()).collect();
        order.sort_by(|&a, &b| signature_of(a).cmp(signature_of(b)));
        let mut errors: Vec<DemError> = order
            .chunk_by(|&a, &b| signature_of(a) == signature_of(b))
            .map(|run| {
                // Two independent mechanisms with the same signature combine
                // into one firing when exactly one of them fires.
                let probability = run.iter().fold(0.0, |e, &fault| {
                    let p = probabilities[fault];
                    e * (1.0 - p) + p * (1.0 - e)
                });
                let (mut detectors, mut observables) = (Vec::new(), Vec::new());
                for (w, &word) in signature_of(run[0]).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = 64 * w + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if bit < 2 * r {
                            detectors.push(bit);
                        } else {
                            observables.push(bit - 2 * r);
                        }
                    }
                }
                DemError { probability, detectors, observables }
            })
            .collect();
        errors.sort_by(|a, b| {
            a.detectors.cmp(&b.detectors).then_with(|| a.observables.cmp(&b.observables))
        });
        Ok(DetectorErrorModel {
            num_detectors: circuit.num_detectors(),
            num_observables: circuit.num_observables(),
            errors,
        })
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The independent error mechanisms.
    pub fn errors(&self) -> &[DemError] {
        &self.errors
    }

    /// Converts the DEM into the simulator's
    /// [`FrameErrorModel`](asynd_sim::FrameErrorModel) view,
    /// feeding the bit-packed batch sampling pipeline in `asynd-sim`.
    ///
    /// [`DetectorErrorModel::build`] only produces probabilities in
    /// `(0, 1)`, but hand-built DEMs ([`DetectorErrorModel::from_parts`]
    /// validates nothing) may not; out-of-range probabilities are mapped to
    /// what the scalar sampler's `rng.gen::<f64>() < p` test did with them
    /// (`p ≤ 0` or NaN never fires, `p ≥ 1` always fires).
    ///
    /// # Panics
    ///
    /// Panics if a mechanism references a detector or observable index out
    /// of range (the scalar path also panicked on such DEMs, at sample
    /// time).
    pub fn to_frame_model(&self) -> asynd_sim::FrameErrorModel {
        let mechanisms = self
            .errors
            .iter()
            .map(|e| asynd_sim::Mechanism {
                probability: if e.probability.is_finite() {
                    e.probability.clamp(0.0, 1.0)
                } else if e.probability == f64::INFINITY {
                    1.0
                } else {
                    0.0
                },
                detectors: e.detectors.clone(),
                observables: e.observables.clone(),
            })
            .collect();
        asynd_sim::FrameErrorModel::new(self.num_detectors, self.num_observables, mechanisms)
            .expect("mechanism indices must lie within the DEM's detector/observable counts")
    }

    /// The largest number of detectors any single mechanism flips.
    pub fn max_detectors_per_error(&self) -> usize {
        self.errors.iter().map(|e| e.detectors.len()).max().unwrap_or(0)
    }

    /// Expected number of mechanism firings per shot (a cheap proxy for the
    /// overall noise strength).
    pub fn expected_error_weight(&self) -> f64 {
        self.errors.iter().map(|e| e.probability).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::{rotated_surface_code, steane_code};

    #[test]
    fn dem_dimensions_match_code() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
        assert_eq!(dem.num_detectors(), 12);
        assert_eq!(dem.num_observables(), 2);
        assert!(!dem.errors().is_empty());
        for e in dem.errors() {
            assert!(e.probability > 0.0 && e.probability < 1.0);
            assert!(e.detectors.windows(2).all(|w| w[0] < w[1]));
            assert!(e.detectors.iter().all(|&d| d < 12));
            assert!(e.observables.iter().all(|&o| o < 2));
        }
    }

    #[test]
    fn zero_noise_gives_empty_dem() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::uniform(0.0, 0.0, 0.0);
        let dem = DetectorErrorModel::build(&code, &schedule, &noise).unwrap();
        assert!(dem.errors().is_empty());
        assert_eq!(dem.expected_error_weight(), 0.0);
    }

    #[test]
    fn measurement_only_noise_has_two_detector_mechanisms() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::uniform(0.0, 0.0, 0.01);
        let dem = DetectorErrorModel::build(&code, &schedule, &noise).unwrap();
        assert_eq!(dem.errors().len(), code.stabilizers().len());
        for e in dem.errors() {
            assert_eq!(e.detectors.len(), 2);
            assert!(e.observables.is_empty());
            assert!((e.probability - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn merging_combines_probabilities() {
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::brisbane();
        let dem = DetectorErrorModel::build(&code, &schedule, &noise).unwrap();
        // No two mechanisms share a signature after merging.
        let mut seen = std::collections::HashSet::new();
        for e in dem.errors() {
            assert!(seen.insert((e.detectors.clone(), e.observables.clone())));
        }
        // Merged probabilities stay below the trivial union bound.
        assert!(dem.expected_error_weight() < 10.0);
    }

    #[test]
    fn different_schedules_give_different_dems() {
        // The whole point of the paper: scheduling changes the error model.
        let code = rotated_surface_code(3);
        let trivial = Schedule::trivial(&code);
        // Reverse per-stabilizer order by scheduling stabilizers backwards.
        let mut builder = crate::schedule::ScheduleBuilder::new(&code);
        for (s, stab) in code.stabilizers().iter().enumerate().rev() {
            for &(q, p) in stab.entries().iter().rev() {
                builder.push_earliest(q, s, p);
            }
        }
        let reversed = builder.finish();
        reversed.validate(&code).unwrap();
        let noise = NoiseModel::brisbane();
        let dem_a = DetectorErrorModel::build(&code, &trivial, &noise).unwrap();
        let dem_b = DetectorErrorModel::build(&code, &reversed, &noise).unwrap();
        assert_ne!(dem_a, dem_b);
    }
}
