//! Bit-packed batch frame simulation and parallel logical-error estimation.
//!
//! This crate is the workspace's Monte-Carlo engine, replacing the original
//! one-shot-at-a-time sampling loop with a stim-style *frame simulator*:
//!
//! * [`BitMatrix`] — shots packed across the bits of `u64` words: one row
//!   per detector/observable, one bit-column per shot, so one XOR flips a
//!   detector for 64 shots at once.
//! * [`FrameErrorModel`] / [`Mechanism`] — the simulator-facing view of a
//!   detector error model (the circuit layer converts its DEM into this).
//! * [`BatchSampler`] — samples [`BatchShots`] with a *word-level biased
//!   RNG*: geometric skip sampling for rare mechanisms and
//!   binary-expansion Bernoulli masks for common ones, instead of one
//!   `f64` draw per shot per mechanism.
//! * [`ParallelEstimator`] — streams fixed-size chunks of shots through
//!   sampler + decoder on a pool of worker threads with bounded memory,
//!   sums failure counts (order-independent, so the result is identical
//!   for any thread count) and reports [Wilson confidence
//!   intervals](wilson_interval), optionally early-stopping when the
//!   interval is tight. The decoder is any `Fn(&BatchShots) -> BitMatrix`
//!   that returns one prediction column per shot.
//!
//! # Determinism
//!
//! Every entry point is deterministic under a fixed seed: chunk RNGs are
//! derived from the seed and the chunk index, never from thread identity,
//! and failure counts are summed (commutatively), so `estimate` returns
//! bit-identical results on 1 or N threads.
//!
//! # Example
//!
//! ```
//! use asynd_sim::{BatchShots, FrameErrorModel, Mechanism, ParallelEstimator};
//!
//! // A 1-detector, 1-observable toy model and a decoder that predicts a
//! // flip exactly when the detector fired.
//! let model = FrameErrorModel::new(
//!     1,
//!     1,
//!     vec![Mechanism { probability: 0.2, detectors: vec![0], observables: vec![0] }],
//! )
//! .unwrap();
//! let mirror = |shots: &BatchShots| shots.detectors.clone();
//!
//! let estimate = ParallelEstimator::default().estimate(&model, &mirror, 1, 10_000, 1);
//! assert_eq!(estimate.any_failures, 0); // the mirror decoder is perfect here
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmatrix;
mod estimator;
mod model;
mod sampler;

pub use bitmatrix::{BitMatrix, WORD_BITS};
pub use estimator::{
    mix_seed, wilson_interval, BatchEstimate, EstimatorConfig, ParallelEstimator, PhaseTimings,
};
pub use model::{FrameErrorModel, Mechanism, ModelError};
pub use sampler::{BatchSampler, BatchShots, BERNOULLI_BITS, GEOMETRIC_THRESHOLD};
