//! Belief-propagation + ordered-statistics decoding (BP-OSD).

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::{BinMatrix, BitVec};

use crate::common::{CachedDecoder, DecodeMatrix};

/// BP-OSD decoder over a detector error model.
///
/// The decoder runs normalized min-sum belief propagation on the DEM's
/// Tanner graph (checks = detectors, variables = error mechanisms) with the
/// mechanisms' prior log-likelihood ratios. If the hard decision after any
/// iteration reproduces the observed syndrome, it is accepted; otherwise the
/// ordered-statistics stage (OSD) sorts the mechanisms by posterior
/// reliability, selects an information set by Gaussian elimination and
/// solves for the most-reliable consistent error. `osd_order > 0` adds an
/// exhaustive search over flips of the least reliable information-set
/// columns (OSD-CS), as in the `ldpc` package the paper uses.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::BpOsdDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = BpOsdDecoder::new(&dem, 30, 0);
/// assert!(!decoder.decode(&BitVec::zeros(dem.num_detectors())).any());
/// ```
pub struct BpOsdDecoder {
    matrix: DecodeMatrix,
    max_iterations: usize,
    osd_order: usize,
    /// Normalisation factor of the min-sum update.
    scale: f64,
}

impl BpOsdDecoder {
    /// Builds the decoder.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel, max_iterations: usize, osd_order: usize) -> Self {
        let matrix = DecodeMatrix::new(dem).expect("observable count exceeds decoder support");
        BpOsdDecoder { matrix, max_iterations, osd_order, scale: 0.75 }
    }

    /// Runs min-sum BP; returns the per-mechanism posterior LLRs and the
    /// hard-decision error set if BP converged to the syndrome.
    fn belief_propagation(&self, syndrome: &BitVec) -> (Vec<f64>, Option<Vec<usize>>) {
        let m = &self.matrix;
        let num_errors = m.num_errors();
        let priors: Vec<f64> = (0..num_errors).map(|j| m.prior_llr(j)).collect();
        if num_errors == 0 {
            return (priors, Some(Vec::new()));
        }
        // Messages indexed by (detector, position-in-row).
        let mut var_to_check: Vec<Vec<f64>> =
            (0..m.num_detectors()).map(|d| m.row(d).iter().map(|&j| priors[j]).collect()).collect();
        let mut check_to_var: Vec<Vec<f64>> =
            (0..m.num_detectors()).map(|d| vec![0.0; m.row(d).len()]).collect();
        let mut posteriors = priors.clone();

        for _ in 0..self.max_iterations {
            // Check update (normalized min-sum).
            for (d, outgoing) in check_to_var.iter_mut().enumerate() {
                let parity = u64::from(syndrome.get(d));
                min_sum_check::<1>(&var_to_check[d], outgoing, parity, &[0], self.scale);
            }
            // Variable update and posteriors.
            for p in posteriors.iter_mut() {
                *p = 0.0;
            }
            for (d, outgoing) in check_to_var.iter().enumerate() {
                for (&j, &msg) in m.row(d).iter().zip(outgoing) {
                    posteriors[j] += msg;
                }
            }
            for (j, p) in posteriors.iter_mut().enumerate() {
                *p += priors[j];
            }
            for d in 0..m.num_detectors() {
                for (i, &j) in m.row(d).iter().enumerate() {
                    var_to_check[d][i] = posteriors[j] - check_to_var[d][i];
                }
            }
            // Hard decision.
            let decision: Vec<usize> = (0..num_errors).filter(|&j| posteriors[j] < 0.0).collect();
            if self.matrix.syndrome_of(&decision) == *syndrome {
                return (posteriors, Some(decision));
            }
        }
        (posteriors, None)
    }

    /// Ordered-statistics post-processing: find the most reliable error set
    /// consistent with the syndrome.
    fn osd(&self, syndrome: &BitVec, posteriors: &[f64]) -> Vec<usize> {
        let m = &self.matrix;
        let num_errors = m.num_errors();
        if num_errors == 0 {
            return Vec::new();
        }
        // Rank columns: most likely to have fired first (lowest LLR).
        let mut order: Vec<usize> = (0..num_errors).collect();
        order.sort_by(|&a, &b| {
            posteriors[a].partial_cmp(&posteriors[b]).unwrap_or(std::cmp::Ordering::Equal)
        });

        // Build the permuted parity-check matrix and select pivots greedily.
        let mut inverse_order = vec![0usize; num_errors];
        for (position, &j) in order.iter().enumerate() {
            inverse_order[j] = position;
        }
        let permuted = BinMatrix::from_row_supports(
            num_errors,
            &(0..m.num_detectors())
                .map(|d| m.row(d).iter().map(|&j| inverse_order[j]).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        // Reduced solve on the permuted system: columns earlier in `order`
        // are preferred as pivots by the left-to-right sweep of row_reduce.
        let mut augmented =
            permuted.hstack(&BinMatrix::from_rows(vec![syndrome.clone()]).transpose());
        let pivots = augmented.row_reduce();
        // If the syndrome column became a pivot the system is inconsistent
        // (should not happen for a DEM-generated syndrome); return BP's best
        // guess of nothing.
        if pivots.contains(&num_errors) {
            return Vec::new();
        }

        // Reads a solution off a reduced augmented matrix: `chosen` (the
        // forced columns) plus every pivot column whose row of the reduced
        // right-hand side is 1, with its posterior cost.
        let solution = |aug: &BinMatrix, pivots: &[usize], mut chosen: Vec<usize>| {
            for (row, &col) in pivots.iter().enumerate() {
                if aug.get(row, num_errors) {
                    chosen.push(col);
                }
            }
            let cost: f64 = chosen.iter().map(|&c| posteriors[order[c]].max(-30.0)).sum();
            (cost, chosen)
        };
        let solve_with = |flips: &[usize]| -> (f64, Vec<usize>) {
            // Solve with the given non-pivot columns forced to 1.
            let mut rhs = syndrome.clone();
            for &f in flips {
                for &d in m.column(order[f]) {
                    rhs.flip(d);
                }
            }
            let mut aug2 = permuted.hstack(&BinMatrix::from_rows(vec![rhs]).transpose());
            let piv2 = aug2.row_reduce();
            if piv2.contains(&num_errors) {
                return (f64::INFINITY, Vec::new());
            }
            solution(&aug2, &piv2, flips.to_vec())
        };

        // OSD-0 solution, read off the reduction above.
        let (mut best_cost, mut best) = solution(&augmented, &pivots, Vec::new());
        // OSD-CS: exhaustive flips over the `osd_order` least reliable
        // non-pivot columns.
        if self.osd_order > 0 {
            let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
            let free: Vec<usize> =
                (0..num_errors).filter(|c| !pivot_set.contains(c)).take(self.osd_order).collect();
            let combos = 1usize << free.len().min(10);
            for bits in 1..combos {
                let flips: Vec<usize> = free
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits & (1 << i) != 0)
                    .map(|(_, &c)| c)
                    .collect();
                let (cost, candidate) = solve_with(&flips);
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
        }
        best.into_iter().map(|c| order[c]).collect()
    }
}

/// Normalized min-sum check-node update of one Tanner-graph row, for up to
/// `LANES` shots at once.
///
/// `incoming[i * LANES + l]` is lane `l`'s variable-to-check message on the
/// row's edge `i`, and the check-to-variable message goes to the same slot
/// of `outgoing`. Bit `l` of `syndrome` is the check's syndrome bit in lane
/// `l`. Only the lanes listed in `live` are read or written.
///
/// Each edge is sent the smallest |message| over the row's *other* edges,
/// scaled (0 when that minimum is infinite, as in a one-edge row), negated
/// when the syndrome bit XOR the parity of their `msg < 0.0` count is set.
/// One pass per lane keeps the smallest and second-smallest magnitude, the
/// first argmin and the sign parity of the whole row; a second pass writes
/// `min2` at the argmin and `min1` elsewhere, taking the edge's own sign
/// back out of the parity. This is O(row), and bit-identical to rescanning
/// the other edges for each edge: the minimum of non-negative floats does
/// not depend on the scan order, the same `<` predicate skips NaN, and sign
/// flips are exact.
fn min_sum_check<const LANES: usize>(
    incoming: &[f64],
    outgoing: &mut [f64],
    syndrome: u64,
    live: &[usize],
    scale: f64,
) {
    let row_len = incoming.len() / LANES;
    let mut min1 = [f64::INFINITY; LANES];
    let mut min2 = [f64::INFINITY; LANES];
    let mut argmin = [0usize; LANES];
    let mut parity = syndrome; // bit set ⇒ negative
    for i in 0..row_len {
        let msgs = &incoming[i * LANES..(i + 1) * LANES];
        for &l in live {
            let msg = msgs[l];
            if msg < 0.0 {
                parity ^= 1 << l;
            }
            let a = msg.abs();
            if a < min1[l] {
                min2[l] = min1[l];
                min1[l] = a;
                argmin[l] = i;
            } else if a < min2[l] {
                min2[l] = a;
            }
        }
    }
    let scaled = |v: f64| if v.is_infinite() { 0.0 } else { v * scale };
    for &l in live {
        min1[l] = scaled(min1[l]);
        min2[l] = scaled(min2[l]);
    }
    for i in 0..row_len {
        let msgs = &incoming[i * LANES..(i + 1) * LANES];
        let out = &mut outgoing[i * LANES..(i + 1) * LANES];
        for &l in live {
            let v = if argmin[l] == i { min2[l] } else { min1[l] };
            let negative = ((parity >> l) & 1 == 1) != (msgs[l] < 0.0);
            out[l] = if negative { -v } else { v };
        }
    }
}

impl ObservableDecoder for BpOsdDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        if !detectors.any() {
            return BitVec::zeros(self.matrix.num_observables());
        }
        let (posteriors, converged) = self.belief_propagation(detectors);
        let errors = match converged {
            Some(errors) => errors,
            None => self.osd(detectors, &posteriors),
        };
        let mask = self.matrix.observables_of(&errors);
        self.matrix.mask_to_bitvec(mask)
    }
}

impl crate::batch::ResidualDecoder for BpOsdDecoder {
    /// Lane-batched min-sum BP: up to 64 hard shots run as SIMD-style
    /// lanes, so every edge of the Tanner graph is traversed once per
    /// iteration for the whole lane group instead of once per shot.
    ///
    /// Per lane, the floating-point operation sequence is identical to
    /// the scalar `belief_propagation` pass (same message order, same
    /// posterior accumulation order), so results are bit-identical to that
    /// path. A lane that converges is recorded immediately — exactly where
    /// the scalar loop would have returned — and later iterations never
    /// overwrite it. Lanes that exhaust the iteration budget fall back to
    /// the scalar OSD stage with their lane-extracted posteriors.
    fn decode_residual(
        &self,
        transposed: &asynd_sim::BitMatrix,
        shot_indices: &[usize],
        predictions: &mut asynd_sim::BitMatrix,
    ) {
        const LANES: usize = 64;
        let m = &self.matrix;
        let num_errors = m.num_errors();
        let num_detectors = m.num_detectors();
        if num_errors == 0 {
            // The scalar path converges immediately to the empty error
            // set; the prediction rows stay zero.
            return;
        }
        let priors: Vec<f64> = (0..num_errors).map(|j| m.prior_llr(j)).collect();
        let record = |predictions: &mut asynd_sim::BitMatrix, shot: usize, obs_mask: u64| {
            for o in 0..m.num_observables() {
                if (obs_mask >> o) & 1 == 1 {
                    predictions.set(o, shot, true);
                }
            }
        };
        for group in shot_indices.chunks(LANES) {
            let lane_all: u64 =
                if group.len() == LANES { u64::MAX } else { (1u64 << group.len()) - 1 };
            // Per-detector lane mask of the group's syndromes: bit `l` of
            // `det_mask[d]` is detector d of lane l's shot.
            let mut det_mask = vec![0u64; num_detectors];
            for (lane, &s) in group.iter().enumerate() {
                let words = transposed.row_words(s);
                for d in 0..num_detectors {
                    if (words[d / 64] >> (d % 64)) & 1 == 1 {
                        det_mask[d] |= 1 << lane;
                    }
                }
            }
            // Messages indexed by (detector, position-in-row, lane).
            let mut var_to_check: Vec<Vec<f64>> = (0..num_detectors)
                .map(|d| {
                    let row = m.row(d);
                    let mut v = vec![0.0; row.len() * LANES];
                    for (i, &j) in row.iter().enumerate() {
                        v[i * LANES..(i + 1) * LANES].fill(priors[j]);
                    }
                    v
                })
                .collect();
            let mut check_to_var: Vec<Vec<f64>> =
                (0..num_detectors).map(|d| vec![0.0; m.row(d).len() * LANES]).collect();
            let mut posteriors = vec![0.0f64; num_errors * LANES];
            for (j, &p) in priors.iter().enumerate() {
                posteriors[j * LANES..(j + 1) * LANES].fill(p);
            }
            let mut decided = vec![0u64; num_errors];
            let mut active = lane_all;
            // Lanes still iterating. Frozen (converged) lanes are skipped
            // by every floating-point loop below: their result is already
            // recorded, so their messages are dead values — skipping them
            // keeps the per-iteration cost proportional to the unconverged
            // shots instead of the group width.
            // Not dense 64-lane loops: at 24–42% live (colour d3/d5) those ran 1.5–2.5× slower.
            let mut live: Vec<usize> = (0..group.len()).collect();

            for _ in 0..self.max_iterations {
                // Check update (normalized min-sum), all live lanes per
                // check row.
                for (d, outgoing) in check_to_var.iter_mut().enumerate() {
                    min_sum_check::<LANES>(
                        &var_to_check[d],
                        outgoing,
                        det_mask[d],
                        &live,
                        self.scale,
                    );
                }
                // Variable update and posteriors (same accumulation order
                // as the scalar pass: zero, add messages by ascending
                // (detector, position), then add priors).
                for j in 0..num_errors {
                    let post = &mut posteriors[j * LANES..(j + 1) * LANES];
                    for &l in &live {
                        post[l] = 0.0;
                    }
                }
                for (d, c2v_row) in check_to_var.iter().enumerate() {
                    for (i, &j) in m.row(d).iter().enumerate() {
                        let msgs = &c2v_row[i * LANES..(i + 1) * LANES];
                        let post = &mut posteriors[j * LANES..(j + 1) * LANES];
                        for &l in &live {
                            post[l] += msgs[l];
                        }
                    }
                }
                for (j, &p) in priors.iter().enumerate() {
                    let post = &mut posteriors[j * LANES..(j + 1) * LANES];
                    for &l in &live {
                        post[l] += p;
                    }
                }
                for d in 0..num_detectors {
                    for (i, &j) in m.row(d).iter().enumerate() {
                        let post = &posteriors[j * LANES..(j + 1) * LANES];
                        let c2v = &check_to_var[d][i * LANES..(i + 1) * LANES];
                        let v2c = &mut var_to_check[d][i * LANES..(i + 1) * LANES];
                        for &l in &live {
                            v2c[l] = post[l] - c2v[l];
                        }
                    }
                }
                // Hard decision and word-parallel convergence check: lane
                // l converged iff its decided errors reproduce its
                // syndrome on every detector. Frozen lanes keep their
                // stale decision bits; `active` masks them out below.
                for (j, mask) in decided.iter_mut().enumerate() {
                    let post = &posteriors[j * LANES..(j + 1) * LANES];
                    let mut m64 = *mask;
                    for &l in &live {
                        if post[l] < 0.0 {
                            m64 |= 1 << l;
                        } else {
                            m64 &= !(1 << l);
                        }
                    }
                    *mask = m64;
                }
                let mut mismatch = 0u64;
                for (d, &dm) in det_mask.iter().enumerate() {
                    let mut acc = 0u64;
                    for &j in m.row(d) {
                        acc ^= decided[j];
                    }
                    mismatch |= acc ^ dm;
                }
                let newly = active & !mismatch;
                if newly != 0 {
                    let mut bits = newly;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let mut obs_mask = 0u64;
                        for (j, &mask) in decided.iter().enumerate() {
                            if (mask >> lane) & 1 == 1 {
                                obs_mask ^= m.observable_mask(j);
                            }
                        }
                        record(predictions, group[lane], obs_mask);
                    }
                    active &= !newly;
                    live = (0..group.len()).filter(|l| (active >> l) & 1 == 1).collect();
                }
                if active == 0 {
                    break;
                }
            }
            // Scalar OSD fallback for the lanes BP never settled, with
            // their last-iteration posteriors — identical inputs to the
            // scalar path's OSD stage.
            let mut bits = active;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = group[lane];
                let syndrome =
                    BitVec::from_words(transposed.row_words(s).to_vec(), transposed.cols());
                let lane_posteriors: Vec<f64> =
                    (0..num_errors).map(|j| posteriors[j * LANES + lane]).collect();
                let errors = self.osd(&syndrome, &lane_posteriors);
                record(predictions, s, m.observables_of(&errors));
            }
        }
    }
}

/// Factory for [`BpOsdDecoder`] (wrapped in a memoisation cache).
#[derive(Debug, Clone)]
pub struct BpOsdFactory {
    max_iterations: usize,
    osd_order: usize,
}

impl BpOsdFactory {
    /// Creates a factory with the default configuration (30 BP iterations,
    /// OSD order 0), matching the common `ldpc` BP-OSD setup.
    pub fn new() -> Self {
        BpOsdFactory { max_iterations: 30, osd_order: 0 }
    }

    /// Overrides the iteration budget and OSD combination-sweep order.
    pub fn with_parameters(max_iterations: usize, osd_order: usize) -> Self {
        BpOsdFactory { max_iterations, osd_order }
    }
}

impl Default for BpOsdFactory {
    fn default() -> Self {
        BpOsdFactory::new()
    }
}

impl DecoderFactory for BpOsdFactory {
    fn name(&self) -> &str {
        "bp-osd"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(CachedDecoder::new(BpOsdDecoder::new(dem, self.max_iterations, self.osd_order)))
    }

    fn build_batch(
        &self,
        dem: &DetectorErrorModel,
    ) -> Box<dyn asynd_circuit::BatchObservableDecoder> {
        Box::new(CachedDecoder::new(BpOsdDecoder::new(dem, self.max_iterations, self.osd_order)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;
    use proptest::collection::SizeRange;
    use proptest::prelude::*;

    /// The O(row²) check-node rule `min_sum_check` replaces: for every
    /// edge, rescan the row's other edges.
    fn rescan_check(incoming: &[f64], syndrome: bool, scale: f64) -> Vec<f64> {
        (0..incoming.len())
            .map(|i| {
                let mut sign = if syndrome { -1.0 } else { 1.0 };
                let mut min_abs = f64::INFINITY;
                for (i2, &msg) in incoming.iter().enumerate() {
                    if i2 == i {
                        continue;
                    }
                    if msg < 0.0 {
                        sign = -sign;
                    }
                    min_abs = min_abs.min(msg.abs());
                }
                if min_abs.is_infinite() {
                    min_abs = 0.0;
                }
                sign * scale * min_abs
            })
            .collect()
    }

    /// Few distinct magnitudes, so rows are full of tied minima, plus both
    /// signed zeros, infinities, NaN and a subnormal.
    const PALETTE: [f64; 12] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.25,
        -1.25,
        3.0,
        -3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE / 4.0,
    ];

    fn palette_row(len: impl Into<SizeRange>) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0..PALETTE.len(), len)
            .prop_map(|picks| picks.into_iter().map(|k| PALETTE[k]).collect())
    }

    fn arb_row() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            palette_row(1),
            palette_row(2),
            palette_row(3..12),
            // All-equal rows of length 1–8.
            (0..8 * PALETTE.len())
                .prop_map(|k| vec![PALETTE[k % PALETTE.len()]; 1 + k / PALETTE.len()]),
            // Arbitrary bit patterns: NaN payloads, subnormals, huge values.
            proptest::collection::vec(any::<u64>(), 1..12)
                .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect()),
        ]
    }

    fn to_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn min_sum_check_matches_the_rescan(row in arb_row(), syndrome in any::<bool>(),
                                            lane_syndromes in any::<u64>(),
                                            live_mask in any::<u64>()) {
            let scale = 0.75;
            let mut out = vec![f64::NAN; row.len()];
            min_sum_check::<1>(&row, &mut out, u64::from(syndrome), &[0], scale);
            prop_assert_eq!(to_bits(&out), to_bits(&rescan_check(&row, syndrome, scale)));

            // 64 lanes: lane l holds the row rotated by l, negated on odd
            // rotation rounds, with syndrome bit l of `lane_syndromes`.
            // Lanes outside `live_mask` must be left untouched.
            const LANES: usize = 64;
            let n = row.len();
            let lane_row = |l: usize| -> Vec<f64> {
                let flip = (l / n) % 2 == 1;
                (0..n).map(|i| if flip { -row[(i + l) % n] } else { row[(i + l) % n] }).collect()
            };
            let mut incoming = vec![0.0; n * LANES];
            for l in 0..LANES {
                for (i, msg) in lane_row(l).into_iter().enumerate() {
                    incoming[i * LANES + l] = msg;
                }
            }
            let live: Vec<usize> = (0..LANES).filter(|l| (live_mask >> l) & 1 == 1).collect();
            let sentinel = 42.0f64;
            let mut outgoing = vec![sentinel; n * LANES];
            min_sum_check::<LANES>(&incoming, &mut outgoing, lane_syndromes, &live, scale);
            for l in 0..LANES {
                let got: Vec<f64> = (0..n).map(|i| outgoing[i * LANES + l]).collect();
                let expected = if (live_mask >> l) & 1 == 1 {
                    rescan_check(&lane_row(l), (lane_syndromes >> l) & 1 == 1, scale)
                } else {
                    vec![sentinel; n]
                };
                prop_assert_eq!(to_bits(&got), to_bits(&expected), "lane {}", l);
            }
        }
    }

    fn toy_dem() -> DetectorErrorModel {
        // Two detectors; three mechanisms with distinct signatures.
        DetectorErrorModel::from_parts(
            2,
            2,
            vec![
                DemError { probability: 0.02, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.02, detectors: vec![1], observables: vec![1] },
            ],
        )
    }

    #[test]
    fn single_mechanisms_decode_exactly() {
        let dem = toy_dem();
        let decoder = BpOsdDecoder::new(&dem, 20, 0);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(2, &error.detectors);
            let expected = BitVec::from_indices(2, &error.observables);
            assert_eq!(decoder.decode(&detectors), expected, "failed for {:?}", error.detectors);
        }
    }

    #[test]
    fn prefers_likely_single_error_over_unlikely_pair() {
        // Syndrome {0,1}: either mechanism 1 (p=0.01) or mechanisms 0+2
        // (p=0.0004). BP/OSD must choose mechanism 1 → no observable flip.
        let decoder = BpOsdDecoder::new(&toy_dem(), 20, 0);
        let prediction = decoder.decode(&BitVec::from_indices(2, &[0, 1]));
        assert!(!prediction.any());
    }

    #[test]
    fn osd_handles_non_converging_bp() {
        // Degenerate DEM engineered so BP alone cannot settle: two equal
        // mechanisms explaining the same detector with different observables.
        let dem = DetectorErrorModel::from_parts(
            1,
            2,
            vec![
                DemError { probability: 0.01, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.01, detectors: vec![0], observables: vec![1] },
            ],
        );
        let decoder = BpOsdDecoder::new(&dem, 5, 2);
        let prediction = decoder.decode(&BitVec::from_indices(1, &[0]));
        // Either single-mechanism explanation is acceptable; both flip
        // exactly one observable.
        assert_eq!(prediction.count_ones(), 1);
    }

    #[test]
    fn quiet_syndrome_is_trivial() {
        let decoder = BpOsdDecoder::new(&toy_dem(), 20, 0);
        assert!(!decoder.decode(&BitVec::zeros(2)).any());
    }

    #[test]
    fn higher_osd_order_never_worse_on_toy_case() {
        let dem = toy_dem();
        let d0 = BpOsdDecoder::new(&dem, 20, 0);
        let d4 = BpOsdDecoder::new(&dem, 20, 4);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(2, &error.detectors);
            assert_eq!(d0.decode(&detectors), d4.decode(&detectors));
        }
    }
}
