//! Word-parallel batch decoding: every decoder in this crate implements
//! [`asynd_sim::BatchDecoder`] with a `decode_batch` that reads the
//! bit-packed evaluation pipeline's layout (`BatchSampler` →
//! `decode_batch` → word-parallel scoring in the `ParallelEstimator`)
//! instead of unpacking one shot at a time.
//!
//! # Which shot takes which path
//!
//! Every batch goes through one engine ([`word_parallel_batch`]), which
//! classifies all 64 shots of each word with three word ops per detector
//! row:
//!
//! 1. **Zero-defect shots** cost nothing: the prediction matrix starts
//!    zeroed and every decoder maps the empty syndrome to the empty
//!    prediction.
//! 2. **Single-defect shots** are served from a per-call lookup table: the
//!    scalar decoder runs once per *distinct* firing detector (the one-hot
//!    syndrome is bit-identical to the shot's syndrome), and the cached
//!    prediction is XOR-accumulated into up to 64 shots per word op.
//! 3. **Multi-defect ("hard") shots** are decoded one at a time by the
//!    decoder's own scalar [`ObservableDecoder::decode`]. The shot-major
//!    matrix is transposed once with the blocked [`BitMatrix::transpose`]
//!    kernel, so each hard shot's syndrome is one word-slice copy, not a
//!    bit gather.
//!
//! What a hard shot costs, per decoder:
//!
//! | Decoder | Hard-shot `decode` |
//! |---|---|
//! | [`MwpmDecoder`] | one matching per shot |
//! | [`UnionFindDecoder`] | one cluster growth per shot (the word win is the in-register kernel refinement inside `solve_cluster`) |
//! | [`BpOsdDecoder`] | scalar min-sum BP, then OSD for the shots whose BP did not converge (a 64-lane BP pass over the hard shots measured 1.2–1.4× slower than this loop; EXPERIMENTS.md) |
//! | [`CachedDecoder<D>`] | the memo cache: a hit is served, a miss is decoded by `D` and inserted, so a syndrome repeated within a batch is decoded once |
//!
//! `decode_batch` is therefore bit-identical to decoding each
//! `shot_detectors(s)` column in a loop, which the tests here assert and
//! `tests/batch_scalar_equivalence.rs` fuzzes.

use asynd_circuit::ObservableDecoder;
use asynd_pauli::BitVec;
use asynd_sim::{BatchDecoder, BatchShots, BitMatrix, WORD_BITS};

use crate::{BpOsdDecoder, CachedDecoder, MwpmDecoder, UnionFindDecoder};

/// The shared word-parallel engine: pre-screens every shot word, serves
/// zero- and single-defect shots in bulk, and decodes each remaining hard
/// shot with `decoder.decode`.
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
        for s in hard_shots {
            let syndrome = BitVec::from_words(transposed.row_words(s).to_vec(), num_detectors);
            for o in decoder.decode(&syndrome).ones() {
                predictions.set(o, s, true);
            }
        }
    }
    predictions
}

macro_rules! impl_word_parallel_batch {
    ($($decoder:ty),* $(,)?) => {$(
        impl BatchDecoder for $decoder {
            fn decode_shot(&self, detectors: &BitVec) -> BitVec {
                ObservableDecoder::decode(self, detectors)
            }

            fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
                word_parallel_batch(self, shots)
            }
        }
    )*};
}

impl_word_parallel_batch!(MwpmDecoder, UnionFindDecoder, BpOsdDecoder);

impl<D: ObservableDecoder> BatchDecoder for CachedDecoder<D> {
    fn decode_shot(&self, detectors: &BitVec) -> BitVec {
        ObservableDecoder::decode(self, detectors)
    }

    fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
        word_parallel_batch(self, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::{DemError, DetectorErrorModel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            2,
            vec![
                DemError { probability: 0.05, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.08, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.03, detectors: vec![1, 2], observables: vec![1] },
            ],
        )
    }

    #[test]
    fn batch_decoding_matches_scalar_decoding() {
        let dem = toy_dem();
        let model = dem.to_frame_model();
        let sampler = asynd_sim::BatchSampler::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = sampler.sample(200, &mut rng);

        let decoders: Vec<Box<dyn BatchDecoder>> = vec![
            Box::new(MwpmDecoder::new(&dem)),
            Box::new(UnionFindDecoder::new(&dem)),
            Box::new(BpOsdDecoder::new(&dem, 10, 0)),
            Box::new(CachedDecoder::new(UnionFindDecoder::new(&dem))),
        ];
        for decoder in &decoders {
            let predictions = decoder.decode_batch(&batch);
            assert_eq!(predictions.rows(), dem.num_observables());
            assert_eq!(predictions.cols(), 200);
            for s in 0..200 {
                let scalar = decoder.decode_shot(&batch.shot_detectors(s));
                assert_eq!(predictions.column(s), scalar, "shot {s}");
            }
        }
    }

    #[test]
    fn all_shot_classes_route_correctly() {
        // Hand-built batch with exactly one zero-defect, one single-defect
        // and one multi-defect shot — the three engine paths.
        let dem = toy_dem();
        let model = dem.to_frame_model();
        let mut detectors = BitMatrix::zeros(3, 3);
        detectors.set(0, 1, true); // shot 1: detector 0 only (single)
        detectors.set(0, 2, true); // shot 2: detectors 0 and 1 (hard)
        detectors.set(1, 2, true);
        let batch = BatchShots { detectors, observables: BitMatrix::zeros(2, 3) };
        let _ = model;
        let decoder = MwpmDecoder::new(&dem);
        let predictions = decoder.decode_batch(&batch);
        for s in 0..3 {
            assert_eq!(
                predictions.column(s),
                decoder.decode_shot(&batch.shot_detectors(s)),
                "shot {s}"
            );
        }
        assert!(!predictions.column(0).any(), "quiet shot must predict nothing");
    }

    #[test]
    fn cached_decoder_is_batch_capable() {
        let dem = toy_dem();
        let cached = CachedDecoder::new(MwpmDecoder::new(&dem));
        let model = dem.to_frame_model();
        let sampler = asynd_sim::BatchSampler::new(&model);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let batch = sampler.sample(100, &mut rng);
        let predictions = BatchDecoder::decode_batch(&cached, &batch);
        assert_eq!(predictions.cols(), 100);
        for s in 0..100 {
            let scalar = BatchDecoder::decode_shot(&cached, &batch.shot_detectors(s));
            assert_eq!(predictions.column(s), scalar, "shot {s}");
        }
    }
}
