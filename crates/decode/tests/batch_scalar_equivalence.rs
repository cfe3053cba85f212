//! Batch-vs-scalar equivalence fuzzing.
//!
//! `ObservableDecoder`'s word-parallel `decode_batch` (zero-/single-defect
//! bulk serving, then one scalar `decode` per distinct hard syndrome off the
//! transposed matrix, repeats copying the first shot's prediction) must be
//! bit-identical to the scalar `ObservableDecoder::decode` oracle for every
//! decoder in the crate. This suite fuzzes that contract across random
//! detector error models and shot counts straddling the 64-shot word
//! boundary, and checks it on a toy DEM with hand-built shots of each class.

use asynd_circuit::{DemError, DetectorErrorModel, ObservableDecoder};
use asynd_decode::{BpOsdDecoder, MwpmDecoder, UnionFindDecoder};
use asynd_sim::{BatchSampler, BatchShots, BitMatrix};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random DEM with `num_detectors` detectors and `num_observables`
/// observables: each mechanism touches 1–3 distinct detectors and flips an
/// arbitrary subset of observables, with probabilities high enough that
/// sampled batches exercise single- and multi-defect shots.
fn random_dem(num_detectors: usize, num_observables: usize, seed: u64) -> DetectorErrorModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let num_errors = rng.gen_range(1..3 * num_detectors + 2);
    let errors = (0..num_errors)
        .map(|_| {
            let weight = rng.gen_range(1..4usize).min(num_detectors);
            let mut detectors: Vec<usize> =
                (0..weight).map(|_| rng.gen_range(0..num_detectors)).collect();
            detectors.sort_unstable();
            detectors.dedup();
            let observables: Vec<usize> =
                (0..num_observables).filter(|_| rng.gen_range(0..2u32) == 1).collect();
            let probability = 0.02 + 0.2 * (rng.gen_range(0..1000u32) as f64 / 1000.0);
            DemError { probability, detectors, observables }
        })
        .collect();
    DetectorErrorModel::from_parts(num_detectors, num_observables, errors)
}

/// Shot counts pinned to the word-boundary edge cases plus arbitrary sizes.
fn arb_shots() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(63usize), Just(64usize), Just(65usize), 2usize..130]
}

/// Checks `decoder.decode_batch` shot by shot against `oracle.decode`.
fn assert_batch_matches_scalar(
    decoder: &dyn ObservableDecoder,
    oracle: &dyn ObservableDecoder,
    dem: &DetectorErrorModel,
    shots: usize,
    seed: u64,
) {
    let model = dem.to_frame_model();
    let sampler = BatchSampler::new(&model);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let batch = sampler.sample(shots, &mut rng);
    let predictions = decoder.decode_batch(&batch);
    assert_eq!(predictions.rows(), dem.num_observables());
    assert_eq!(predictions.cols(), shots);
    for s in 0..shots {
        let scalar = oracle.decode(&batch.shot_detectors(s));
        assert_eq!(predictions.column(s), scalar, "shot {s} diverges from the scalar oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mwpm_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                 shots in arb_shots(), shot_seed in any::<u64>()) {
        let dem = random_dem(nd, no, dem_seed);
        let decoder = MwpmDecoder::new(&dem);
        assert_batch_matches_scalar(&decoder, &decoder, &dem, shots, shot_seed);
    }

    #[test]
    fn unionfind_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                      shots in arb_shots(), shot_seed in any::<u64>()) {
        let dem = random_dem(nd, no, dem_seed);
        let decoder = UnionFindDecoder::new(&dem);
        assert_batch_matches_scalar(&decoder, &decoder, &dem, shots, shot_seed);
    }

    #[test]
    fn bposd_batch_matches_scalar(nd in 1usize..12, no in 1usize..4, dem_seed in any::<u64>(),
                                  shots in arb_shots(), shot_seed in any::<u64>()) {
        // Equality is bit-level, not approximate: the batch must run the
        // same floating-point BP schedule as the scalar oracle.
        let dem = random_dem(nd, no, dem_seed);
        let decoder = BpOsdDecoder::new(&dem, 10, 0);
        assert_batch_matches_scalar(&decoder, &decoder, &dem, shots, shot_seed);
    }
}

/// A three-detector, two-observable DEM for the hand-built checks below.
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
    let sampler = BatchSampler::new(&model);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let batch = sampler.sample(200, &mut rng);

    let decoders: Vec<Box<dyn ObservableDecoder>> = vec![
        Box::new(MwpmDecoder::new(&dem)),
        Box::new(UnionFindDecoder::new(&dem)),
        Box::new(BpOsdDecoder::new(&dem, 10, 0)),
    ];
    for decoder in &decoders {
        let predictions = decoder.decode_batch(&batch);
        assert_eq!(predictions.rows(), dem.num_observables());
        assert_eq!(predictions.cols(), 200);
        for s in 0..200 {
            let scalar = decoder.decode(&batch.shot_detectors(s));
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
        assert_eq!(predictions.column(s), decoder.decode(&batch.shot_detectors(s)), "shot {s}");
    }
    assert!(!predictions.column(0).any(), "quiet shot must predict nothing");
}
