//! Hypergraph union-find decoder.

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::{BinMatrix, BitVec};

use crate::common::DecodeMatrix;

/// Hypergraph union-find decoder.
///
/// Clusters grow on the DEM's Tanner graph starting from the detection
/// events: in each growth round every *invalid* cluster absorbs the error
/// mechanisms incident to its frontier detectors together with those
/// mechanisms' other detectors, merging clusters that touch. A cluster is
/// *valid* when the error mechanisms fully contained in it can reproduce
/// the cluster's internal syndrome, which is checked (and solved) by GF(2)
/// elimination on the cluster-local matrix — the standard generalisation
/// of union-find to hypergraph error models used for LDPC codes. Valid
/// clusters freeze — they stop growing and their solve result is memoised
/// — so per-round work tracks only the clusters that are still unexplained.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::UnionFindDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = UnionFindDecoder::new(&dem);
/// assert!(!decoder.decode(&BitVec::zeros(dem.num_detectors())).any());
/// ```
pub struct UnionFindDecoder {
    matrix: DecodeMatrix,
}

/// One growing cluster: its detectors and absorbed errors, plus the
/// memoised solve result. `valid_mask` is `Some(observable mask)` once the
/// contained errors explain the internal syndrome; `dirty` marks clusters
/// whose membership changed since the last solve. A merged-away cluster is
/// left as the (dead) default.
#[derive(Default)]
struct Cluster {
    detectors: Vec<usize>,
    errors: Vec<usize>,
    valid_mask: Option<u64>,
    dirty: bool,
    live: bool,
}

impl UnionFindDecoder {
    /// Builds the decoder from a DEM.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Self {
        let matrix = DecodeMatrix::new(dem).expect("observable count exceeds decoder support");
        UnionFindDecoder { matrix }
    }

    /// Solves one cluster: finds a set of contained mechanisms reproducing
    /// the cluster-internal syndrome, returning their combined observable
    /// mask, or `None` if the cluster is still invalid.
    fn solve_cluster(
        &self,
        cluster_detectors: &[usize],
        cluster_errors: &[usize],
        syndrome: &BitVec,
    ) -> Option<u64> {
        if cluster_errors.is_empty() {
            // Valid only if no detection event sits inside.
            return if cluster_detectors.iter().any(|&d| syndrome.get(d)) { None } else { Some(0) };
        }
        // Local system: rows = cluster detectors, columns = cluster errors.
        // Dense scatter table instead of a HashMap: clusters are re-solved
        // many times per decode and the detector count is small.
        let mut detector_position = vec![usize::MAX; self.matrix.num_detectors()];
        for (i, &d) in cluster_detectors.iter().enumerate() {
            detector_position[d] = i;
        }
        let mut rows = vec![Vec::new(); cluster_detectors.len()];
        for (col, &j) in cluster_errors.iter().enumerate() {
            for &d in self.matrix.column(j) {
                let row = detector_position[d];
                if row != usize::MAX {
                    rows[row].push(col);
                }
            }
        }
        let llrs: Vec<f64> =
            cluster_errors.iter().map(|&j| self.matrix.prior_llr(j).max(1e-3)).collect();
        // Reliability-ordered local solve (local OSD-0): place the most
        // likely columns first so the particular solution prefers them.
        let mut order: Vec<usize> = (0..cluster_errors.len()).collect();
        order.sort_by(|&a, &b| llrs[a].partial_cmp(&llrs[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut inverse = vec![0usize; order.len()];
        for (pos, &col) in order.iter().enumerate() {
            inverse[col] = pos;
        }
        let permuted_rows: Vec<Vec<usize>> =
            rows.iter().map(|r| r.iter().map(|&c| inverse[c]).collect()).collect();
        let local = BinMatrix::from_row_supports(cluster_errors.len(), &permuted_rows);
        let rhs = BitVec::from_bools(cluster_detectors.iter().map(|&d| syndrome.get(d)));
        let particular_permuted = local.solve(&rhs).ok()?;
        let kernel_permuted = local.kernel_basis();
        // Among the consistent explanations inside the cluster, refine
        // towards the most likely one: exhaustively for small kernels,
        // greedily otherwise.
        let chosen: Vec<usize> = if cluster_errors.len() <= 64 {
            // Word fast path: candidate sets fit one u64, so refinement
            // runs in registers with no allocation per candidate. The
            // trailing-zeros cost loop visits columns in the same
            // ascending order as `BitVec::ones`, so floating-point sums
            // match the wide path exactly.
            let unpermute =
                |v: &BitVec| -> u64 { v.ones().fold(0u64, |m, pos| m | (1u64 << order[pos])) };
            let particular = unpermute(&particular_permuted);
            let kernel: Vec<u64> = kernel_permuted.iter().map(unpermute).collect();
            let cost = |mut x: u64| -> f64 {
                let mut total = 0.0;
                while x != 0 {
                    total += llrs[x.trailing_zeros() as usize];
                    x &= x - 1;
                }
                total
            };
            let mut best = particular;
            let mut best_cost = cost(best);
            if kernel.len() <= 12 {
                for bits in 1usize..(1 << kernel.len()) {
                    let mut candidate = particular;
                    for (i, &k) in kernel.iter().enumerate() {
                        if bits & (1 << i) != 0 {
                            candidate ^= k;
                        }
                    }
                    let c = cost(candidate);
                    if c < best_cost {
                        best_cost = c;
                        best = candidate;
                    }
                }
            } else {
                for _sweep in 0..3 {
                    let mut improved = false;
                    for &k in &kernel {
                        let candidate = best ^ k;
                        let c = cost(candidate);
                        if c < best_cost {
                            best_cost = c;
                            best = candidate;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            let mut chosen = Vec::new();
            let mut x = best;
            while x != 0 {
                chosen.push(cluster_errors[x.trailing_zeros() as usize]);
                x &= x - 1;
            }
            chosen
        } else {
            let unpermute = |v: &BitVec| -> BitVec {
                let mut unpermuted = BitVec::zeros(cluster_errors.len());
                for pos in v.ones() {
                    unpermuted.set(order[pos], true);
                }
                unpermuted
            };
            let particular = unpermute(&particular_permuted);
            let kernel: Vec<BitVec> = kernel_permuted.iter().map(unpermute).collect();
            let cost = |x: &BitVec| -> f64 { x.ones().map(|col| llrs[col]).sum() };
            let mut best = particular.clone();
            let mut best_cost = cost(&best);
            if kernel.len() <= 12 {
                for bits in 1usize..(1 << kernel.len()) {
                    let mut candidate = particular.clone();
                    for (i, k) in kernel.iter().enumerate() {
                        if bits & (1 << i) != 0 {
                            candidate.xor_with(k);
                        }
                    }
                    let c = cost(&candidate);
                    if c < best_cost {
                        best_cost = c;
                        best = candidate;
                    }
                }
            } else {
                for _sweep in 0..3 {
                    let mut improved = false;
                    for k in &kernel {
                        let mut candidate = best.clone();
                        candidate.xor_with(k);
                        let c = cost(&candidate);
                        if c < best_cost {
                            best_cost = c;
                            best = candidate;
                            improved = true;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            best.ones().map(|col| cluster_errors[col]).collect()
        };
        Some(self.matrix.observables_of(&chosen))
    }
}

impl ObservableDecoder for UnionFindDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let m = &self.matrix;
        if !detectors.any() || m.num_errors() == 0 {
            return BitVec::zeros(m.num_observables());
        }
        // One singleton cluster per detection event. Clusters that reach a
        // valid explanation freeze: they neither grow nor re-solve unless
        // an invalid neighbour grows into them (then the merged cluster is
        // marked dirty and solved afresh). This keeps clusters local and
        // the per-round work proportional to what actually changed.
        let mut cluster_of = vec![usize::MAX; m.num_detectors()];
        let mut scanned = vec![false; m.num_detectors()];
        let mut error_absorbed = vec![false; m.num_errors()];
        let mut clusters: Vec<Cluster> = Vec::new();
        for d in detectors.ones() {
            cluster_of[d] = clusters.len();
            clusters.push(Cluster {
                detectors: vec![d],
                errors: Vec::new(),
                valid_mask: None,
                dirty: true,
                live: true,
            });
        }
        loop {
            // Solve phase: re-solve only the clusters whose membership
            // changed since the last round.
            let mut all_valid = true;
            for cluster in &mut clusters {
                if !cluster.live {
                    continue;
                }
                if cluster.dirty {
                    cluster.detectors.sort_unstable();
                    cluster.errors.sort_unstable();
                    let mask = self.solve_cluster(&cluster.detectors, &cluster.errors, detectors);
                    cluster.valid_mask = mask;
                    cluster.dirty = false;
                }
                if cluster.valid_mask.is_none() {
                    all_valid = false;
                }
            }
            if all_valid {
                break;
            }
            // Growth phase: every invalid cluster scans its not-yet-scanned
            // detectors once (one frontier layer per round), absorbing each
            // incident error together with that error's other detectors.
            // Touching a foreign cluster merges it into the grower.
            let mut progressed = false;
            for ci in 0..clusters.len() {
                if !clusters[ci].live || clusters[ci].valid_mask.is_some() {
                    continue;
                }
                let frontier: Vec<usize> =
                    clusters[ci].detectors.iter().copied().filter(|&d| !scanned[d]).collect();
                for d in frontier {
                    scanned[d] = true;
                    progressed = true;
                    for &j in m.row(d) {
                        if error_absorbed[j] {
                            continue;
                        }
                        error_absorbed[j] = true;
                        clusters[ci].errors.push(j);
                        clusters[ci].dirty = true;
                        for &dd in m.column(j) {
                            let prev = cluster_of[dd];
                            if prev == usize::MAX {
                                cluster_of[dd] = ci;
                                clusters[ci].detectors.push(dd);
                            } else if prev != ci {
                                let mut other = std::mem::take(&mut clusters[prev]);
                                for &od in &other.detectors {
                                    cluster_of[od] = ci;
                                }
                                clusters[ci].detectors.append(&mut other.detectors);
                                clusters[ci].errors.append(&mut other.errors);
                                clusters[ci].dirty = true;
                            }
                        }
                    }
                }
            }
            if !progressed {
                // Every invalid cluster has exhausted its neighbourhood;
                // give up with the valid clusters' best effort.
                break;
            }
        }
        let mut result_mask = 0u64;
        for c in &clusters {
            if c.live {
                result_mask ^= c.valid_mask.unwrap_or(0);
            }
        }
        m.mask_to_bitvec(result_mask)
    }
}

/// Factory for [`UnionFindDecoder`].
#[derive(Debug, Clone, Default)]
pub struct UnionFindFactory {
    _private: (),
}

impl UnionFindFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        UnionFindFactory { _private: () }
    }
}

impl DecoderFactory for UnionFindFactory {
    fn name(&self) -> &str {
        "unionfind"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(UnionFindDecoder::new(dem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;

    fn chain_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            1,
            vec![
                DemError { probability: 0.01, detectors: vec![0], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![1, 2], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![2], observables: vec![0] },
            ],
        )
    }

    #[test]
    fn quiet_syndrome_is_trivial() {
        let decoder = UnionFindDecoder::new(&chain_dem());
        assert!(!decoder.decode(&BitVec::zeros(3)).any());
    }

    #[test]
    fn single_mechanism_syndromes_are_consistent() {
        // Union-find must return *some* consistent explanation; for the
        // unambiguous signatures below the explanation is unique.
        let dem = chain_dem();
        let decoder = UnionFindDecoder::new(&dem);
        // Defects {0,1}: the only explanation inside the first growth
        // neighbourhood is mechanism 1, which flips nothing.
        assert!(!decoder.decode(&BitVec::from_indices(3, &[0, 1])).any());
        // Defects {1,2}: mechanism 2, no observable.
        assert!(!decoder.decode(&BitVec::from_indices(3, &[1, 2])).any());
    }

    #[test]
    fn cluster_growth_reaches_a_valid_explanation() {
        let dem = chain_dem();
        let decoder = UnionFindDecoder::new(&dem);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(3, &error.detectors);
            let prediction = decoder.decode(&detectors);
            // The prediction must correspond to *a* valid explanation of the
            // syndrome; verify consistency by re-projecting through the DEM:
            // any explanation of a weight-1-mechanism syndrome within this
            // chain differs from the truth only by a detector-trivial cycle,
            // which does not exist here, so the observables must match.
            assert_eq!(
                prediction,
                BitVec::from_indices(1, &error.observables),
                "failed for {:?}",
                error.detectors
            );
        }
    }

    #[test]
    fn hyperedge_cluster_is_solved() {
        let dem = DetectorErrorModel::from_parts(
            4,
            1,
            vec![DemError { probability: 0.01, detectors: vec![0, 1, 2, 3], observables: vec![0] }],
        );
        let decoder = UnionFindDecoder::new(&dem);
        let prediction = decoder.decode(&BitVec::from_indices(4, &[0, 1, 2, 3]));
        assert!(prediction.get(0));
    }

    #[test]
    fn unexplainable_syndrome_does_not_loop_forever() {
        // A detector with no incident error cannot be explained; the decoder
        // must terminate and return something.
        let dem = DetectorErrorModel::from_parts(
            2,
            1,
            vec![DemError { probability: 0.01, detectors: vec![0], observables: vec![0] }],
        );
        let decoder = UnionFindDecoder::new(&dem);
        let _ = decoder.decode(&BitVec::from_indices(2, &[1]));
    }
}
