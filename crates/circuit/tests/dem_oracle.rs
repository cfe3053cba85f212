//! `DetectorErrorModel::build` against a forward oracle.
//!
//! `forward_build` below is the DEM builder that the backward sensitivity
//! sweep replaced: it propagates every elementary fault forward through the
//! round with the public [`propagate_fault`] and merges equal signatures in
//! a `HashMap`. The sweep must reproduce it bit for bit, probabilities
//! included (`f64::to_bits`), mechanism order included, on every catalog
//! code with at most 40 data qubits, five schedules per code and four noise
//! models. The catalog rows cover packed signatures that straddle a word
//! boundary: `hyperbolic-surface[1]` has 68 signature bits with its
//! observables across the boundary, `hyperbolic-color[1]` and `hgp[1]` have
//! 88.
//!
//! Larger codes are too slow for the forward builder in the dev profile, so
//! `build` is pinned on three of them by fingerprints recorded with the
//! forward builder.

use std::collections::HashMap;

use asynd_circuit::{
    propagate_fault, Check, CircuitError, DemError, DetectorErrorModel, FaultSite, NoiseModel,
    RoundCircuit, Schedule,
};
use asynd_codes::catalog::family_by_name;
use asynd_codes::StabilizerCode;
use asynd_core::{LowestDepthScheduler, MoveSpace, Scheduler};
use asynd_pauli::{Pauli, SparsePauli};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The forward DEM builder, kept as the oracle.
fn forward_build(
    code: &StabilizerCode,
    schedule: &Schedule,
    noise: &NoiseModel,
) -> Result<DetectorErrorModel, CircuitError> {
    noise.validate()?;
    let circuit = RoundCircuit::new(code, schedule)?;
    let mut accumulator: HashMap<(Vec<usize>, Vec<usize>), f64> = HashMap::new();

    let mut add = |detectors: Vec<usize>, observables: Vec<usize>, probability: f64| {
        if probability <= 0.0 || (detectors.is_empty() && observables.is_empty()) {
            return;
        }
        let entry = accumulator.entry((detectors, observables)).or_insert(0.0);
        // Two independent mechanisms with the same signature combine into
        // a single mechanism firing when exactly one of them fires.
        *entry = *entry * (1.0 - probability) + probability * (1.0 - *entry);
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
                    let mut entries = Vec::new();
                    if pd != Pauli::I {
                        entries.push((check.data, pd));
                    }
                    if pa != Pauli::I {
                        entries.push((ancilla, pa));
                    }
                    let effect = propagate_fault(
                        &circuit,
                        &FaultSite { tick: check.tick, error: SparsePauli::new(entries) },
                    );
                    add(effect.detectors, effect.observables, per_term);
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
                        let effect = propagate_fault(
                            &circuit,
                            &FaultSite { tick, error: SparsePauli::new(vec![(data, pauli)]) },
                        );
                        add(effect.detectors, effect.observables, p / 3.0);
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
                        let effect = propagate_fault(
                            &circuit,
                            &FaultSite { tick, error: SparsePauli::new(vec![(ancilla, pauli)]) },
                        );
                        add(effect.detectors, effect.observables, p / 3.0);
                    }
                }
            }
        }
    }

    // Readout flips: detector s and its round-2 comparison r + s.
    let r = circuit.num_stabilizers();
    for stab in 0..r {
        let p = noise.measurement_probability(stab);
        add(vec![stab, r + stab], Vec::new(), p);
    }

    let mut errors: Vec<DemError> = accumulator
        .into_iter()
        .map(|((detectors, observables), probability)| DemError {
            probability,
            detectors,
            observables,
        })
        .collect();
    errors.sort_by(|a, b| {
        a.detectors.cmp(&b.detectors).then_with(|| a.observables.cmp(&b.observables))
    });
    Ok(DetectorErrorModel::from_parts(circuit.num_detectors(), circuit.num_observables(), errors))
}

/// The four noise models: Brisbane, uniform `p = 0.003`, the paper's model
/// (no data idling) and a non-uniform device whose multipliers include a
/// noiseless data qubit and ancilla.
fn noise_models(code: &StabilizerCode) -> Vec<(&'static str, NoiseModel)> {
    let data = (0..code.num_qubits()).map(|q| [0.0, 0.5, 1.0, 2.5][q % 4]).collect();
    let ancilla = (0..code.stabilizers().len()).map(|s| [1.5, 0.0, 0.7][s % 3]).collect();
    vec![
        ("brisbane", NoiseModel::brisbane()),
        ("scaled(0.003)", NoiseModel::scaled(0.003)),
        ("paper", NoiseModel::paper()),
        (
            "non-uniform",
            NoiseModel::uniform(0.004, 0.002, 0.003)
                .with_data_multipliers(data)
                .with_ancilla_multipliers(ancilla),
        ),
    ]
}

/// Trivial, lowest-depth, two seeded random `MoveSpace` orderings, and the
/// trivial schedule squeezed into half its depth, which puts conflicting
/// checks in the same tick (executed in check-list order, never validated).
fn schedules(code: &StabilizerCode) -> Vec<(&'static str, Schedule)> {
    let space = MoveSpace::new(code).unwrap();
    let random = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut orderings = space.identity_orderings();
        for ordering in &mut orderings {
            ordering.shuffle(&mut rng);
        }
        space.schedule_for(code, &orderings)
    };
    let trivial = Schedule::trivial(code);
    let squeezed = trivial.checks().iter().map(|c| Check { tick: c.tick.div_ceil(2), ..*c });
    let squeezed = Schedule::new(code.num_qubits(), code.stabilizers().len(), squeezed.collect());
    assert!(squeezed.validate(code).is_err(), "{}: squeezed schedule must conflict", code.name());
    vec![
        ("lowest-depth", LowestDepthScheduler::new().schedule(code).unwrap()),
        ("random-1", random(1)),
        ("random-2", random(2)),
        ("squeezed", squeezed),
        ("trivial", trivial),
    ]
}

/// Compares `build` with the oracle on every (schedule, noise) pair of each
/// catalog entry of `family` with at most 40 data qubits.
fn assert_family_matches_oracle(family: &str) {
    let entries = family_by_name(family).unwrap();
    let mut compared = 0;
    for (index, entry) in entries.iter().enumerate() {
        let code = &entry.code;
        if code.num_qubits() > 40 {
            continue;
        }
        for (schedule_name, schedule) in schedules(code) {
            for (noise_name, noise) in noise_models(code) {
                let what = format!("{family}[{index}] {schedule_name} {noise_name}");
                let expected = forward_build(code, &schedule, &noise).unwrap();
                let actual = DetectorErrorModel::build(code, &schedule, &noise).unwrap();
                assert_identical(&actual, &expected, &what);
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "{family} has no entry with at most 40 data qubits");
}

fn assert_identical(actual: &DetectorErrorModel, expected: &DetectorErrorModel, what: &str) {
    assert_eq!(actual.num_detectors(), expected.num_detectors(), "{what}");
    assert_eq!(actual.num_observables(), expected.num_observables(), "{what}");
    assert_eq!(actual.errors().len(), expected.errors().len(), "{what}: mechanism count");
    for (i, (a, e)) in actual.errors().iter().zip(expected.errors()).enumerate() {
        assert_eq!(
            (&a.detectors, &a.observables),
            (&e.detectors, &e.observables),
            "{what}: mechanism {i}"
        );
        assert_eq!(
            a.probability.to_bits(),
            e.probability.to_bits(),
            "{what}: mechanism {i} probability {} vs {}",
            a.probability,
            e.probability
        );
    }
}

#[test]
fn hexagonal_color_matches_oracle() {
    assert_family_matches_oracle("hexagonal-color");
}

#[test]
fn square_octagonal_color_matches_oracle() {
    assert_family_matches_oracle("square-octagonal-color");
}

#[test]
fn hyperbolic_color_matches_oracle() {
    assert_family_matches_oracle("hyperbolic-color");
}

#[test]
fn hyperbolic_surface_matches_oracle() {
    assert_family_matches_oracle("hyperbolic-surface");
}

#[test]
fn defect_surface_matches_oracle() {
    assert_family_matches_oracle("defect-surface");
}

#[test]
fn rotated_surface_matches_oracle() {
    assert_family_matches_oracle("rotated-surface");
}

#[test]
fn xzzx_matches_oracle() {
    assert_family_matches_oracle("xzzx");
}

#[test]
fn hgp_matches_oracle() {
    assert_family_matches_oracle("hgp");
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fingerprint of a DEM: its dimensions, then per mechanism in order the
/// probability bits and the length-prefixed detector and observable lists.
fn fingerprint(dem: &DetectorErrorModel) -> u64 {
    let mut words = vec![dem.num_detectors() as u64, dem.num_observables() as u64];
    for e in dem.errors() {
        words.push(e.probability.to_bits());
        for list in [&e.detectors, &e.observables] {
            words.push(list.len() as u64);
            words.extend(list.iter().map(|&i| i as u64));
        }
    }
    fnv1a(words)
}

/// Pinned `build` fingerprints, recorded with the forward builder (on the
/// commit before the sweep replaced it): (family, catalog index, schedule,
/// noise model, fingerprint).
const PINS: [(&str, usize, &str, &str, u64); 12] = [
    ("rotated-surface", 2, "lowest-depth", "brisbane", 0x419a_5314_60c4_27bb),
    ("rotated-surface", 2, "lowest-depth", "scaled(0.003)", 0x5161_c503_6375_431a),
    ("rotated-surface", 2, "trivial", "paper", 0x849e_3b5d_8253_0546),
    ("rotated-surface", 2, "trivial", "non-uniform", 0xaa8a_13b4_4d5c_e699),
    ("hexagonal-color", 3, "lowest-depth", "brisbane", 0x03b8_9606_31ef_5997),
    ("hexagonal-color", 3, "lowest-depth", "scaled(0.003)", 0x706d_b38f_2a6e_76fd),
    ("hexagonal-color", 3, "trivial", "paper", 0x1c82_85f3_4e8c_8eb1),
    ("hexagonal-color", 3, "trivial", "non-uniform", 0x0e73_1524_a836_4a31),
    ("bb", 0, "lowest-depth", "brisbane", 0x19d9_d559_d184_ffd0),
    ("bb", 0, "lowest-depth", "scaled(0.003)", 0x81a0_266c_041b_1091),
    ("bb", 0, "trivial", "paper", 0x991e_ee28_ae1b_2502),
    ("bb", 0, "trivial", "non-uniform", 0x955d_76db_0972_7da5),
];

#[test]
fn build_matches_the_pinned_fingerprints() {
    let mut mismatches = Vec::new();
    for &(family, index, schedule_name, noise_name, pinned) in &PINS {
        let code = &family_by_name(family).unwrap()[index].code;
        let schedule = match schedule_name {
            "lowest-depth" => LowestDepthScheduler::new().schedule(code).unwrap(),
            _ => Schedule::trivial(code),
        };
        let noise = noise_models(code).into_iter().find(|(name, _)| *name == noise_name).unwrap().1;
        let dem = DetectorErrorModel::build(code, &schedule, &noise).unwrap();
        let actual = fingerprint(&dem);
        if actual != pinned {
            mismatches.push(format!(
                "{family}[{index}] {schedule_name} {noise_name}: {actual:#018x} (pinned {pinned:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved:\n{}", mismatches.join("\n"));
}
