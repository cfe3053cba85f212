//! Belief-propagation + ordered-statistics decoding (BP-OSD).

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::{BinMatrix, BitVec};

use crate::common::DecodeMatrix;

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
    /// Prior LLR of every mechanism, computed once: every hard shot
    /// starts BP from them.
    priors: Vec<f64>,
    /// The mechanism of every Tanner-graph edge, in (detector,
    /// position-in-row) order: BP messages are indexed by edge.
    edges: Vec<usize>,
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
        let priors = (0..matrix.num_errors()).map(|j| matrix.prior_llr(j)).collect();
        let edges =
            (0..matrix.num_detectors()).flat_map(|d| matrix.row(d).iter().copied()).collect();
        BpOsdDecoder { matrix, priors, edges, max_iterations, osd_order, scale: 0.75 }
    }

    /// Runs min-sum BP; returns the per-mechanism posterior LLRs and the
    /// hard-decision error set if BP converged to the syndrome.
    fn belief_propagation(&self, syndrome: &BitVec) -> (Vec<f64>, Option<Vec<usize>>) {
        let m = &self.matrix;
        let num_errors = m.num_errors();
        let (priors, edges) = (&self.priors, &self.edges);
        if num_errors == 0 {
            return (priors.clone(), Some(Vec::new()));
        }
        let mut var_to_check: Vec<f64> = edges.iter().map(|&j| priors[j]).collect();
        let mut check_to_var = vec![0.0; edges.len()];
        let mut posteriors = priors.clone();

        for _ in 0..self.max_iterations {
            // Check update (normalized min-sum), one detector row at a time.
            let mut start = 0;
            for d in 0..m.num_detectors() {
                let end = start + m.row(d).len();
                let outgoing = &mut check_to_var[start..end];
                min_sum_check(&var_to_check[start..end], outgoing, syndrome.get(d), self.scale);
                start = end;
            }
            // Variable update and posteriors.
            posteriors.fill(0.0);
            for (&j, &msg) in edges.iter().zip(&check_to_var) {
                posteriors[j] += msg;
            }
            for (p, &prior) in posteriors.iter_mut().zip(priors) {
                *p += prior;
            }
            for ((v2c, &c2v), &j) in var_to_check.iter_mut().zip(&check_to_var).zip(edges) {
                *v2c = posteriors[j] - c2v;
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

/// Normalized min-sum check-node update of one Tanner-graph row.
///
/// `incoming[i]` is the variable-to-check message on the row's edge `i`,
/// and the check-to-variable message goes to `outgoing[i]`. `syndrome` is
/// the check's syndrome bit.
///
/// Each edge is sent the smallest |message| over the row's *other* edges,
/// scaled (0 when that minimum is infinite, as in a one-edge row), negated
/// when the syndrome bit XOR the parity of their `msg < 0.0` count is set.
/// One pass keeps the smallest and second-smallest magnitude, the first
/// argmin and the sign parity of the whole row; a second pass writes `min2`
/// at the argmin and `min1` elsewhere, taking the edge's own sign back out
/// of the parity. This is O(row), and bit-identical to rescanning the other
/// edges for each edge: the minimum of non-negative floats does not depend
/// on the scan order, the same `<` predicate skips NaN, and sign flips are
/// exact.
fn min_sum_check(incoming: &[f64], outgoing: &mut [f64], syndrome: bool, scale: f64) {
    let mut min1 = f64::INFINITY;
    let mut min2 = f64::INFINITY;
    let mut argmin = 0usize;
    let mut parity = syndrome; // set ⇒ negative
    for (i, &msg) in incoming.iter().enumerate() {
        if msg < 0.0 {
            parity = !parity;
        }
        let a = msg.abs();
        if a < min1 {
            min2 = min1;
            min1 = a;
            argmin = i;
        } else if a < min2 {
            min2 = a;
        }
    }
    let scaled = |v: f64| if v.is_infinite() { 0.0 } else { v * scale };
    let (min1, min2) = (scaled(min1), scaled(min2));
    for (i, (&msg, out)) in incoming.iter().zip(outgoing).enumerate() {
        let v = if i == argmin { min2 } else { min1 };
        *out = if parity != (msg < 0.0) { -v } else { v };
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

/// Factory for [`BpOsdDecoder`].
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
        Box::new(BpOsdDecoder::new(dem, self.max_iterations, self.osd_order))
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
        fn min_sum_check_matches_the_rescan(row in arb_row(), syndrome in any::<bool>()) {
            let scale = 0.75;
            let mut out = vec![f64::NAN; row.len()];
            min_sum_check(&row, &mut out, syndrome, scale);
            prop_assert_eq!(to_bits(&out), to_bits(&rescan_check(&row, syndrome, scale)));
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
