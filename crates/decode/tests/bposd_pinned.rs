//! Pinned BP-OSD predictions.
//!
//! Fingerprints `BpOsdDecoder` predictions on catalog codes under fixed
//! seeds: the word-parallel `decode_batch` over 2048 sampled shots and the
//! scalar `decode` over the first 256 of them. `batch_scalar_equivalence.rs`
//! only checks the two paths against each other, so a kernel change that
//! alters both alike passes there; it fails here. The expected values were
//! recorded with a 64-lane BP pass for the batch's hard shots, the O(row²)
//! per-edge rescan check update and the two-reduction OSD-0, all since
//! replaced by the scalar O(row) BP and one-reduction OSD-0, so they pin
//! that the replacements are bit-identical.
//!
//! The fingerprint is 64-bit FNV-1a over the little-endian bytes of the
//! packed prediction words, which is stable across Rust releases (unlike
//! `DefaultHasher`).

use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
use asynd_codes::catalog::{family_by_name, CatalogEntry};
use asynd_decode::BpOsdDecoder;
use asynd_sim::BatchSampler;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const BATCH_SHOTS: usize = 2048;
const SCALAR_SHOTS: usize = 256;

/// Pinned configurations: (`hexagonal-color` catalog index,
/// `NoiseModel::scaled` strength, BP iterations, OSD-CS order, sampling
/// seed, fingerprint of the 2048-shot `decode_batch` predictions,
/// fingerprint of the scalar `decode` predictions of the first 256 shots).
const PINS: [(usize, f64, usize, usize, u64, u64, u64); 8] = [
    (0, 0.003, 30, 0, 11, 0x78ab_fe48_e272_7bd2, 0x5396_8535_b044_0e46),
    (0, 0.003, 5, 2, 12, 0xa432_9912_ba17_834e, 0x0544_5b5e_f525_0fc4),
    (0, 0.01, 30, 0, 13, 0x019d_d4f5_e8c6_d3d3, 0x32c1_c4ee_881f_4267),
    (0, 0.01, 5, 2, 14, 0x6eb5_664b_f274_9a77, 0x4912_be8d_6438_7c27),
    (1, 0.003, 30, 0, 15, 0xd43d_b448_fed4_4500, 0xebdf_ac80_7e40_85c7),
    (1, 0.003, 5, 2, 16, 0x8f16_cbf4_6db3_6926, 0x18e8_38e3_cb94_4b07),
    (1, 0.01, 30, 0, 17, 0xfde5_d4a1_a2c4_fd28, 0xa3ee_85d2_d2aa_9fe6),
    (1, 0.01, 5, 2, 18, 0x13aa_a1dc_ce58_8fa9, 0xdbb7_c89d_0251_0d66),
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

#[test]
fn bposd_predictions_match_the_pinned_fingerprints() {
    let family: Vec<CatalogEntry> = family_by_name("hexagonal-color").unwrap();
    let mut mismatches = Vec::new();
    for &(entry, p, max_iterations, osd_order, seed, pinned_batch, pinned_scalar) in &PINS {
        let code = &family[entry].code;
        let schedule = Schedule::trivial(code);
        let dem = DetectorErrorModel::build(code, &schedule, &NoiseModel::scaled(p)).unwrap();
        let decoder = BpOsdDecoder::new(&dem, max_iterations, osd_order);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shots = BatchSampler::new(&dem.to_frame_model()).sample(BATCH_SHOTS, &mut rng);

        let predictions = decoder.decode_batch(&shots);
        let flips: usize = (0..predictions.rows()).map(|o| predictions.count_ones_row(o)).sum();
        assert!(flips > 0, "hexagonal-color[{entry}] p={p}: no predicted flips to pin");
        let batch =
            fnv1a((0..predictions.rows()).flat_map(|o| predictions.row_words(o).iter().copied()));
        let scalar = fnv1a((0..SCALAR_SHOTS).flat_map(|s| {
            ObservableDecoder::decode(&decoder, &shots.shot_detectors(s)).words().to_vec()
        }));
        if (batch, scalar) != (pinned_batch, pinned_scalar) {
            mismatches.push(format!(
                "hexagonal-color[{entry}] p={p} ({max_iterations}, {osd_order}): \
                 batch {batch:#018x} (pinned {pinned_batch:#018x}), \
                 scalar {scalar:#018x} (pinned {pinned_scalar:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "BP-OSD predictions changed:\n{}", mismatches.join("\n"));
}
