//! Criterion micro-benchmarks of the sampling/evaluation kernels: the
//! scalar per-shot sampler vs the bit-packed batch sampler, and the scalar
//! estimation loop vs the chunked parallel pipeline, on the paper's
//! `rotated_surface_code(5)` + Brisbane noise workload.
//!
//! The acceptance target for the batch path is ≥ 10× over the scalar path
//! at equal shot counts (see EXPERIMENTS.md for recorded numbers).

use asynd_circuit::{DetectorErrorModel, NoiseModel, Sampler, Schedule};
use asynd_codes::rotated_surface_code;
use asynd_sim::{BatchSampler, BatchShots, BitMatrix, EstimatorConfig, ParallelEstimator};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const SHOTS: usize = 4096;

fn surface_d5_dem() -> DetectorErrorModel {
    let code = rotated_surface_code(5);
    let schedule = Schedule::trivial(&code);
    DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap()
}

fn bench_samplers(c: &mut Criterion) {
    let dem = surface_d5_dem();
    let mut group = c.benchmark_group("sample-4096-surface-d5");
    group.sample_size(20);

    let sampler = Sampler::new(&dem);
    group.bench_function("scalar-per-shot", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(sampler.sample_scalar(SHOTS, &mut rng)))
    });

    let model = dem.to_frame_model();
    let batch = BatchSampler::new(&model);
    group.bench_function("packed-batch", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| black_box(batch.sample(SHOTS, &mut rng)))
    });
    group.finish();
}

fn bench_estimation_pipeline(c: &mut Criterion) {
    use asynd_circuit::estimate_logical_error_scalar;
    use asynd_codes::catalog::RecommendedDecoder;
    use asynd_decode::factory_for;

    let code = rotated_surface_code(5);
    let schedule = Schedule::trivial(&code);
    let noise = NoiseModel::brisbane();
    let factory = factory_for(RecommendedDecoder::UnionFind);
    let shots = 1024;

    let mut group = c.benchmark_group("estimate-1024-surface-d5-unionfind");
    group.sample_size(10);
    group.bench_function("scalar-loop", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        b.iter(|| {
            black_box(
                estimate_logical_error_scalar(
                    &code,
                    &schedule,
                    &noise,
                    factory.as_ref(),
                    shots,
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("packed-parallel", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        b.iter(|| {
            black_box(
                asynd_circuit::estimate_logical_error(
                    &code,
                    &schedule,
                    &noise,
                    factory.as_ref(),
                    shots,
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_batch_kernel_scaling(c: &mut Criterion) {
    // The raw sampling kernel at growing batch sizes: cost per shot should
    // *fall* as whole words amortise the per-mechanism overhead.
    let dem = surface_d5_dem();
    let model = dem.to_frame_model();
    let batch = BatchSampler::new(&model);
    let mut group = c.benchmark_group("packed-sampler-scaling");
    group.sample_size(20);
    for shots in [64usize, 1024, 16_384] {
        group.bench_function(&format!("shots-{shots}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            b.iter(|| black_box(batch.sample(shots, &mut rng)))
        });
    }
    group.finish();
}

fn bench_parallel_estimator(c: &mut Criterion) {
    // Estimator throughput without a decoder in the loop (a blind decoder
    // that predicts no flip): isolates sampling + scoring from decoding.
    let dem = surface_d5_dem();
    let model = dem.to_frame_model();
    let blind = |shots: &BatchShots| BitMatrix::zeros(model.num_observables(), shots.num_shots());
    let mut group = c.benchmark_group("estimator-40960-shots-surface-d5");
    group.sample_size(10);
    for (name, threads) in [("1-thread", Some(1)), ("all-threads", None)] {
        let estimator = ParallelEstimator::new(EstimatorConfig {
            max_threads: threads,
            ..EstimatorConfig::default()
        });
        group.bench_function(name, |b| {
            b.iter(|| black_box(estimator.estimate(&model, &blind, 1, 40_960, 9)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samplers,
    bench_estimation_pipeline,
    bench_batch_kernel_scaling,
    bench_parallel_estimator
);
criterion_main!(benches);
