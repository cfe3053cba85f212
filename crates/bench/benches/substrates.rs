//! Criterion micro-benchmarks of the simulation substrates: code
//! construction, schedule validation and detector-error-model extraction.

use asynd_circuit::{DetectorErrorModel, NoiseModel, Schedule};
use asynd_codes::catalog::family_by_name;
use asynd_codes::{bb_code_72_12_6, rotated_surface_code, steane_code};
use asynd_core::{LowestDepthScheduler, Scheduler};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_code_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("code-construction");
    group.sample_size(20);
    group.bench_function("rotated-surface-d5", |b| b.iter(|| black_box(rotated_surface_code(5))));
    group.bench_function("bb-72-12-6", |b| b.iter(|| black_box(bb_code_72_12_6())));
    group.finish();
}

fn bench_schedule_validation(c: &mut Criterion) {
    let code = rotated_surface_code(5);
    let schedule = Schedule::trivial(&code);
    let mut group = c.benchmark_group("schedule");
    group.sample_size(20);
    group.bench_function("validate-surface-d5", |b| {
        b.iter(|| {
            schedule.validate(&code).unwrap();
            black_box(())
        })
    });
    group.finish();
}

fn bench_dem_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dem");
    group.sample_size(10);
    for (name, code) in [("steane", steane_code()), ("surface-d5", rotated_surface_code(5))] {
        let schedule = Schedule::trivial(&code);
        let noise = NoiseModel::brisbane();
        group.bench_function(name, |b| {
            b.iter(|| black_box(DetectorErrorModel::build(&code, &schedule, &noise).unwrap()))
        });
    }
    // The search workloads' setting: lowest-depth schedules at p = 0.003.
    let hexagonal = family_by_name("hexagonal-color").unwrap().swap_remove(2).code;
    for (name, code) in [
        ("surface-d5-lowest-depth", rotated_surface_code(5)),
        ("surface-d7-lowest-depth", rotated_surface_code(7)),
        ("hexagonal-color-2-lowest-depth", hexagonal),
        ("bb-72-lowest-depth", bb_code_72_12_6()),
    ] {
        let schedule = LowestDepthScheduler::new().schedule(&code).unwrap();
        let noise = NoiseModel::scaled(0.003);
        group.bench_function(name, |b| {
            b.iter(|| black_box(DetectorErrorModel::build(&code, &schedule, &noise).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_code_construction,
    bench_schedule_validation,
    bench_dem_construction
);
criterion_main!(benches);
