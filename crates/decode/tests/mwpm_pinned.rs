//! Pinned MWPM predictions.
//!
//! Fingerprints `MwpmDecoder` predictions on catalog codes under fixed
//! seeds: the word-parallel `decode_batch` over 2048 sampled shots and the
//! scalar `decode` over the first 256 of them. The expected values were
//! recorded with a decoder that ran Dijkstra from every defect of every
//! shot (kept as the reference in `mwpm_oracle.rs`), since replaced by a
//! shortest-path table built once per DEM, so they pin that the table is
//! bit-identical. The configurations cover rotated surface codes under the
//! trivial and the lowest-depth schedule, a toric code with four
//! observables, a defect surface code, and a noise strength at which some
//! shots have more than 20 defects and take the greedy matching.
//!
//! The fingerprint is 64-bit FNV-1a over the little-endian bytes of the
//! packed prediction words, which is stable across Rust releases (unlike
//! `DefaultHasher`).

use asynd_circuit::{Check, DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
use asynd_codes::catalog::family_by_name;
use asynd_codes::StabilizerCode;
use asynd_decode::MwpmDecoder;
use asynd_sim::BatchSampler;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const BATCH_SHOTS: usize = 2048;
const SCALAR_SHOTS: usize = 256;

/// Defect count above which `MwpmDecoder` matches greedily.
const EXACT_LIMIT: usize = 20;

/// The schedule a pinned configuration runs.
#[derive(Debug, Clone, Copy)]
enum Ticks {
    /// `Schedule::trivial`.
    Trivial,
    /// The schedule `asynd_core::LowestDepthScheduler` produces, as one
    /// tick digit per check, stabilizers in index order and each
    /// stabilizer's checks in entry order (the scheduler's own check
    /// order), plus its `ScheduleKey` in hex.
    LowestDepth(&'static str, &'static str),
}

impl Ticks {
    fn name(self) -> &'static str {
        match self {
            Ticks::Trivial => "trivial",
            Ticks::LowestDepth(..) => "lowest-depth",
        }
    }
}

/// One pinned configuration.
struct Pin {
    family: &'static str,
    entry: usize,
    ticks: Ticks,
    /// `NoiseModel::scaled` strength.
    p: f64,
    seed: u64,
    /// Whether some sampled shot must exceed [`EXACT_LIMIT`] defects.
    greedy: bool,
    /// Fingerprint of the 2048-shot `decode_batch` predictions.
    batch: u64,
    /// Fingerprint of the scalar `decode` predictions of the first 256 shots.
    scalar: u64,
}

const LOWEST_DEPTH_D3: Ticks =
    Ticks::LowestDepth("212341234121656785678565", "d534f71497b25dbcbebf4beaaa5b60b7");
const LOWEST_DEPTH_D5: Ticks = Ticks::LowestDepth(
    "21212341234123412341234123412341234121216557866785678557866565678576856785678565",
    "10c8feb23ba815f4b4f7844c7c2fa54f",
);

const PINS: [Pin; 7] = [
    Pin {
        family: "rotated-surface",
        entry: 0,
        ticks: Ticks::Trivial,
        p: 0.003,
        seed: 21,
        greedy: false,
        batch: 0x26ca_039a_a144_d4b8,
        scalar: 0x7095_edd8_0959_5124,
    },
    Pin {
        family: "rotated-surface",
        entry: 0,
        ticks: LOWEST_DEPTH_D3,
        p: 0.003,
        seed: 22,
        greedy: false,
        batch: 0x7da1_daee_33f3_a1b6,
        scalar: 0xff37_37a2_45bc_b8e7,
    },
    Pin {
        family: "rotated-surface",
        entry: 1,
        ticks: Ticks::Trivial,
        p: 0.003,
        seed: 23,
        greedy: false,
        batch: 0x5e86_9759_1fce_9a97,
        scalar: 0x98b2_2cfb_a9ca_2e46,
    },
    Pin {
        family: "rotated-surface",
        entry: 1,
        ticks: LOWEST_DEPTH_D5,
        p: 0.003,
        seed: 24,
        greedy: false,
        batch: 0x7736_9b03_b154_9521,
        scalar: 0x7d49_2ffe_6607_a8c6,
    },
    Pin {
        family: "hyperbolic-surface",
        entry: 0,
        ticks: Ticks::Trivial,
        p: 0.003,
        seed: 25,
        greedy: false,
        batch: 0x94f6_52b4_a298_43f0,
        scalar: 0xeeec_1b90_b2b5_7a49,
    },
    Pin {
        family: "defect-surface",
        entry: 0,
        ticks: Ticks::Trivial,
        p: 0.003,
        seed: 26,
        greedy: false,
        batch: 0x4bfd_0ff9_0c17_8a11,
        scalar: 0x2581_3b83_ff6f_2b07,
    },
    Pin {
        family: "rotated-surface",
        entry: 1,
        ticks: Ticks::Trivial,
        p: 0.02,
        seed: 1,
        greedy: true,
        batch: 0x0f0f_b484_b7e8_88e6,
        scalar: 0x8553_80d1_624c_0486,
    },
];

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

/// Builds the schedule `ticks` describes for `code`.
fn schedule(code: &StabilizerCode, ticks: Ticks) -> Schedule {
    let Ticks::LowestDepth(digits, key) = ticks else {
        return Schedule::trivial(code);
    };
    let mut digits = digits.chars().map(|c| c.to_digit(10).unwrap() as usize);
    let mut checks = Vec::new();
    for (stabilizer, stab) in code.stabilizers().iter().enumerate() {
        for &(data, pauli) in stab.entries() {
            checks.push(Check { data, stabilizer, pauli, tick: digits.next().unwrap() });
        }
    }
    assert!(digits.next().is_none(), "more tick digits than checks");
    let schedule = Schedule::new(code.num_qubits(), code.stabilizers().len(), checks);
    schedule.validate(code).unwrap();
    assert_eq!(schedule.key().to_hex(), key, "not the recorded lowest-depth schedule");
    schedule
}

#[test]
fn mwpm_predictions_match_the_pinned_fingerprints() {
    let mut mismatches = Vec::new();
    for pin in &PINS {
        let label = format!("{}[{}] {} p={}", pin.family, pin.entry, pin.ticks.name(), pin.p);
        let code = &family_by_name(pin.family).unwrap()[pin.entry].code;
        let dem =
            DetectorErrorModel::build(code, &schedule(code, pin.ticks), &NoiseModel::scaled(pin.p))
                .unwrap();
        let decoder = MwpmDecoder::new(&dem);
        let mut rng = ChaCha8Rng::seed_from_u64(pin.seed);
        let shots = BatchSampler::new(&dem.to_frame_model()).sample(BATCH_SHOTS, &mut rng);

        let greedy_shots = (0..BATCH_SHOTS)
            .filter(|&s| shots.shot_detectors(s).count_ones() > EXACT_LIMIT)
            .count();
        assert_eq!(
            greedy_shots > 0,
            pin.greedy,
            "{label}: {greedy_shots} shots over {EXACT_LIMIT} defects"
        );
        let predictions = decoder.decode_batch(&shots);
        let flips: usize = (0..predictions.rows()).map(|o| predictions.count_ones_row(o)).sum();
        assert!(flips > 0, "{label}: no predicted flips to pin");
        let batch =
            fnv1a((0..predictions.rows()).flat_map(|o| predictions.row_words(o).iter().copied()));
        let scalar = fnv1a((0..SCALAR_SHOTS).flat_map(|s| {
            ObservableDecoder::decode(&decoder, &shots.shot_detectors(s)).words().to_vec()
        }));
        if (batch, scalar) != (pin.batch, pin.scalar) {
            mismatches.push(format!(
                "{label}: batch {batch:#018x} (pinned {:#018x}), scalar {scalar:#018x} (pinned {:#018x})",
                pin.batch, pin.scalar
            ));
        }
    }
    assert!(mismatches.is_empty(), "MWPM predictions changed:\n{}", mismatches.join("\n"));
}
