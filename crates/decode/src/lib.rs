//! Decoders over detector error models: minimum-weight perfect matching,
//! hypergraph union-find and BP-OSD.
//!
//! All decoders are constructed from an [`asynd_circuit::DetectorErrorModel`]
//! and implement [`asynd_circuit::ObservableDecoder`], so they plug directly
//! into the evaluation loop (`estimate_logical_error`), the bit-packed batch
//! pipeline and the MCTS scheduler's decoder-in-the-loop rollouts. Each
//! decoder also provides a [`asynd_circuit::DecoderFactory`] so callers can
//! be generic over the decoder family, mirroring the paper's cross-decoder
//! experiments.
//!
//! | Paper decoder | This crate |
//! |---|---|
//! | MWPM (PyMatching / sparse blossom) | [`MwpmDecoder`] — shortest-path table built once per DEM (one Dijkstra per detector), exact bitmask matching for small defect sets, greedy fallback |
//! | Hypergraph union-find | [`UnionFindDecoder`] — cluster growth on the DEM Tanner graph with GF(2) validity checks |
//! | BP-OSD | [`BpOsdDecoder`] — min-sum belief propagation followed by ordered-statistics post-processing |
//!
//! Each decoder implements only the scalar `decode`. A packed batch goes
//! through the trait's provided `decode_batch`, which serves zero- and
//! single-defect shots in bulk and calls `decode` once per distinct
//! multi-defect ("hard") syndrome in the batch: one matching, one cluster
//! growth, or scalar min-sum BP followed by OSD when BP does not converge
//! (a 64-lane BP pass over the hard shots measured 1.2–1.4× slower;
//! EXPERIMENTS.md). That per-batch dedup is the only syndrome memo: every
//! factory returns the bare decoder, which keeps no state between calls.
//!
//! # Example
//!
//! ```
//! use asynd_codes::rotated_surface_code;
//! use asynd_circuit::{estimate_logical_error, NoiseModel, Schedule};
//! use asynd_decode::MwpmFactory;
//! use rand::SeedableRng;
//!
//! let code = rotated_surface_code(3);
//! let schedule = Schedule::trivial(&code);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let estimate = estimate_logical_error(
//!     &code,
//!     &schedule,
//!     &NoiseModel::brisbane(),
//!     &MwpmFactory::new(),
//!     200,
//!     &mut rng,
//! )
//! .unwrap();
//! assert!(estimate.p_overall() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bposd;
mod common;
mod mwpm;
mod unionfind;

pub use bposd::{BpOsdDecoder, BpOsdFactory};
pub use common::{DecodeMatrix, DecoderError};
pub use mwpm::{MwpmDecoder, MwpmFactory};
pub use unionfind::{UnionFindDecoder, UnionFindFactory};

use asynd_circuit::DecoderFactory;
use asynd_codes::catalog::RecommendedDecoder;
use std::sync::Arc;

/// Builds the decoder factory the paper pairs with a catalog entry.
///
/// Returned as `Arc` so it can be handed directly to the shared
/// [`asynd_circuit::Evaluator`] and cloned across portfolio workers.
///
/// # Example
///
/// ```
/// use asynd_codes::catalog::RecommendedDecoder;
/// use asynd_decode::factory_for;
///
/// let factory = factory_for(RecommendedDecoder::BpOsd);
/// assert_eq!(factory.name(), "bp-osd");
/// ```
pub fn factory_for(decoder: RecommendedDecoder) -> Arc<dyn DecoderFactory + Send + Sync> {
    match decoder {
        RecommendedDecoder::Mwpm => Arc::new(MwpmFactory::new()),
        RecommendedDecoder::BpOsd => Arc::new(BpOsdFactory::new()),
        RecommendedDecoder::UnionFind => Arc::new(UnionFindFactory::new()),
    }
}
