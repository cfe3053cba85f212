//! Syndrome-measurement circuit representation, circuit-level noise, fault
//! propagation and detector-error-model (DEM) sampling.
//!
//! This crate is the reproduction's replacement for the `stim` simulation
//! pipeline used by the AlphaSyndrome paper:
//!
//! * [`Schedule`] / [`Check`] — the paper's tick-based circuit
//!   representation (§4.1): every Pauli check `(data, ancilla, σ)` is
//!   assigned a tick, no qubit may be used twice per tick, and the
//!   anticommutation crossing-parity condition between overlapping
//!   stabilizers must hold.
//! * [`NoiseModel`] — circuit-level noise: two-qubit depolarizing noise
//!   after every check, idling depolarizing noise on every idle qubit per
//!   tick and ancilla readout flips, with optional per-qubit non-uniform
//!   scaling (§5.1.2 and §5.7).
//! * [`DetectorErrorModel`] — every elementary fault of the noisy round
//!   with the detectors (round-1 readouts, round-1 ⊕ round-2 syndrome
//!   comparisons) and logical observables it flips. One backward,
//!   bit-packed sensitivity sweep over the round's checks yields every
//!   fault location's signature at once, as stim's error analyzer does;
//!   faults with equal signatures merge in enumeration order, so the
//!   probabilities are reproducible bit for bit. This is the same object
//!   stim hands to decoders. [`propagate_fault`] is the forward,
//!   one-fault-at-a-time view of the same propagation rules.
//! * [`Sampler`] — Monte-Carlo sampling of shots from a DEM, backed by the
//!   bit-packed `asynd-sim` batch sampler (64 shots per machine word).
//! * [`estimate_logical_error`] — the paper's Fig. 10 evaluation circuit:
//!   noisy scheduled round, ideal round, decoder correction, logical
//!   comparison, yielding logical X / Z / overall error rates. Runs on the
//!   chunked, thread-parallel `asynd-sim` pipeline with Wilson confidence
//!   intervals and optional early stopping
//!   ([`estimate_logical_error_with`]); the historical per-shot loop is
//!   [`estimate_logical_error_scalar`].
//! * [`Evaluator`] — the memoising evaluation service used by search
//!   workloads: owns noise model + decoder factory and caches
//!   `(code, ScheduleKey) → estimate` in a bounded LRU, so re-evaluating a
//!   previously seen schedule costs a hash lookup instead of a DEM
//!   rebuild and a decode run.
//! * [`artifact`] — the JSON wire format of schedules and estimates
//!   ([`artifact::ScheduleArtifact`]), used by the serving layer to ship
//!   synthesized schedules across process boundaries with fingerprint
//!   verification on deserialization.
//!
//! # Example
//!
//! ```
//! use asynd_codes::rotated_surface_code;
//! use asynd_circuit::{NoiseModel, Schedule, DetectorErrorModel};
//!
//! let code = rotated_surface_code(3);
//! let schedule = Schedule::trivial(&code);
//! schedule.validate(&code).unwrap();
//!
//! let noise = NoiseModel::uniform(1e-3, 5e-4, 1e-3);
//! let dem = DetectorErrorModel::build(&code, &schedule, &noise).unwrap();
//! assert_eq!(dem.num_detectors(), 2 * code.stabilizers().len());
//! assert_eq!(dem.num_observables(), 2 * code.num_logicals());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod dem;
mod error;
mod evaluate;
mod evaluator;
mod noise;
mod propagate;
mod sampler;
mod schedule;

pub use dem::{DemError, DetectorErrorModel};
pub use error::CircuitError;
pub use evaluate::{
    estimate_logical_error, estimate_logical_error_scalar, estimate_logical_error_timed,
    estimate_logical_error_with, BatchObservableDecoder, DecoderFactory, EstimateOptions,
    LogicalErrorEstimate, ObservableDecoder,
};
pub use evaluator::{
    Evaluation, Evaluator, EvaluatorMetrics, EvaluatorStats, DEFAULT_CACHE_CAPACITY,
};
pub use noise::NoiseModel;
pub use propagate::{propagate_fault, FaultSite, RoundCircuit};
pub use sampler::{Sampler, Shot};
pub use schedule::{Check, Schedule, ScheduleBuilder, ScheduleKey};
