//! Minimum-weight perfect-matching decoder over detector error models.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use asynd_circuit::{DecoderFactory, DetectorErrorModel, ObservableDecoder};
use asynd_pauli::BitVec;

/// An edge of the matching graph.
#[derive(Debug, Clone, Copy)]
struct MatchEdge {
    to: usize,
    weight: f64,
    observables: u64,
}

/// Minimum-weight perfect-matching (MWPM) decoder.
///
/// The matching graph has one node per detector plus a virtual boundary
/// node. Every DEM mechanism flipping one detector becomes a boundary edge,
/// every mechanism flipping two detectors becomes an internal edge, and
/// hyperedges (more than two detectors, e.g. Y-type faults) are decomposed
/// into existing edges when possible — the same strategy PyMatching applies
/// to stim's decomposed DEMs. Edge weights are `ln((1-p)/p)`.
///
/// Construction runs Dijkstra once from every detector and keeps the
/// shortest-path table; the graph itself is dropped. Decoding looks the
/// distances between the defects (and to the boundary) up in that table,
/// then finds a minimum-weight perfect matching: exactly (bitmask dynamic
/// programming) for up to 20 defects and greedily beyond that. The
/// prediction is the XOR of the observable masks along the matched shortest
/// paths.
///
/// # Example
///
/// ```
/// use asynd_codes::rotated_surface_code;
/// use asynd_circuit::{DetectorErrorModel, NoiseModel, ObservableDecoder, Schedule};
/// use asynd_decode::MwpmDecoder;
/// use asynd_pauli::BitVec;
///
/// let code = rotated_surface_code(3);
/// let schedule = Schedule::trivial(&code);
/// let dem = DetectorErrorModel::build(&code, &schedule, &NoiseModel::brisbane()).unwrap();
/// let decoder = MwpmDecoder::new(&dem);
/// let quiet = decoder.decode(&BitVec::zeros(dem.num_detectors()));
/// assert!(!quiet.any());
/// ```
pub struct MwpmDecoder {
    num_detectors: usize,
    num_observables: usize,
    /// Shortest paths from each detector `a` to every node `b > a`, the
    /// boundary (node `num_detectors`) last, rows concatenated in detector
    /// order. Defects are matched in increasing order, so the matching never
    /// reads a path from a higher node to a lower one.
    paths: Vec<Path>,
    /// Exact-matching cutoff (number of defects).
    exact_limit: usize,
}

/// A shortest path of the matching graph: its length and the XOR of the
/// observable masks along it. An unreachable node has infinite length.
#[derive(Debug, Clone, Copy)]
struct Path {
    dist: f64,
    observables: u64,
}

/// Max-heap entry for Dijkstra (reversed ordering on weight).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance for a min-heap behaviour inside BinaryHeap.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl MwpmDecoder {
    /// Builds the matching graph of a DEM and its shortest-path table.
    ///
    /// # Panics
    ///
    /// Panics if the DEM has more than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Self {
        assert!(dem.num_observables() <= 64, "MWPM decoder supports at most 64 observables");
        let boundary = dem.num_detectors();
        let mut edges: HashMap<(usize, usize), (f64, u64)> = HashMap::new();

        // First pass: genuine edges (one or two detectors).
        for error in dem.errors() {
            let mask = pack_mask(&error.observables);
            match error.detectors.len() {
                0 => {}
                1 => add_edge(&mut edges, error.detectors[0], boundary, error.probability, mask),
                2 => add_edge(
                    &mut edges,
                    error.detectors[0],
                    error.detectors[1],
                    error.probability,
                    mask,
                ),
                _ => {}
            }
        }
        // Second pass: decompose hyperedges into existing edges when possible.
        let existing: HashSet<(usize, usize)> = edges.keys().copied().collect();
        for error in dem.errors() {
            if error.detectors.len() <= 2 {
                continue;
            }
            let mask = pack_mask(&error.observables);
            let parts = decompose(&error.detectors, &existing, boundary);
            for (i, (a, b)) in parts.iter().enumerate() {
                let part_mask = if i == 0 { mask } else { 0 };
                add_edge(&mut edges, *a, *b, error.probability, part_mask);
            }
        }

        let mut adjacency = vec![Vec::new(); dem.num_detectors() + 1];
        for ((a, b), (p, mask)) in edges {
            let p = p.clamp(1e-12, 0.5 - 1e-12);
            let weight = ((1.0 - p) / p).ln();
            adjacency[a].push(MatchEdge { to: b, weight, observables: mask });
            adjacency[b].push(MatchEdge { to: a, weight, observables: mask });
        }

        let nodes = boundary + 1;
        let mut paths = Vec::with_capacity(nodes * boundary / 2);
        let mut dist = vec![f64::INFINITY; nodes];
        let mut mask = vec![0u64; nodes];
        let mut heap = BinaryHeap::new();
        for source in 0..boundary {
            shortest_paths(&adjacency, source, &mut dist, &mut mask, &mut heap);
            paths.extend(
                dist[source + 1..]
                    .iter()
                    .zip(&mask[source + 1..])
                    .map(|(&dist, &observables)| Path { dist, observables }),
            );
        }
        MwpmDecoder {
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            paths,
            exact_limit: 20,
        }
    }

    /// The shortest path from detector `a` to node `b > a`.
    fn path(&self, a: usize, b: usize) -> Path {
        // Row `a` holds nodes `a + 1..=num_detectors` and starts after the
        // `num_detectors - k` entries of every row `k < a`.
        let row_start = a * (2 * self.num_detectors - a + 1) / 2;
        self.paths[row_start + b - a - 1]
    }

    /// Exact minimum-weight matching over `defects` (plus the boundary) by
    /// bitmask dynamic programming. Returns the XOR of observable masks of
    /// the matched paths.
    fn match_exact(&self, defects: &[usize]) -> u64 {
        let m = defects.len();
        let boundary = self.num_detectors;
        let full = 1usize << m;
        let mut best = vec![f64::INFINITY; full];
        let mut best_mask = vec![0u64; full];
        best[0] = 0.0;
        for state in 0..full {
            if best[state].is_infinite() {
                continue;
            }
            let Some(i) = (0..m).find(|&i| state & (1 << i) == 0) else {
                continue;
            };
            // Option 1: match defect i to the boundary.
            let next = state | (1 << i);
            let to_boundary = self.path(defects[i], boundary);
            if to_boundary.dist.is_finite() && best[state] + to_boundary.dist < best[next] {
                best[next] = best[state] + to_boundary.dist;
                best_mask[next] = best_mask[state] ^ to_boundary.observables;
            }
            // Option 2: match defect i with another unmatched defect j.
            for j in i + 1..m {
                if state & (1 << j) != 0 {
                    continue;
                }
                let pair = self.path(defects[i], defects[j]);
                if !pair.dist.is_finite() {
                    continue;
                }
                let next = state | (1 << i) | (1 << j);
                if best[state] + pair.dist < best[next] {
                    best[next] = best[state] + pair.dist;
                    best_mask[next] = best_mask[state] ^ pair.observables;
                }
            }
        }
        if best[full - 1].is_finite() {
            best_mask[full - 1]
        } else {
            0
        }
    }

    /// Greedy matching used beyond the exact-matching size limit.
    fn match_greedy(&self, defects: &[usize]) -> u64 {
        let m = defects.len();
        let boundary = self.num_detectors;
        let mut unmatched: Vec<usize> = (0..m).collect();
        let mut result = 0u64;
        while let Some(&first) = unmatched.first() {
            let mut best = self.path(defects[first], boundary);
            let mut best_choice: Option<usize> = None;
            for &other in unmatched.iter().skip(1) {
                let candidate = self.path(defects[first], defects[other]);
                if candidate.dist < best.dist {
                    best = candidate;
                    best_choice = Some(other);
                }
            }
            if best.dist.is_finite() {
                result ^= best.observables;
            }
            unmatched.retain(|&i| i != first && Some(i) != best_choice);
        }
        result
    }
}

/// Dijkstra from `source`, leaving in `dist` and `mask` every node's
/// distance and the observable mask accumulated along a shortest path.
/// `heap` is scratch and is left empty.
fn shortest_paths(
    adjacency: &[Vec<MatchEdge>],
    source: usize,
    dist: &mut [f64],
    mask: &mut [u64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    dist.fill(f64::INFINITY);
    mask.fill(0);
    dist[source] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > dist[node] {
            continue;
        }
        for edge in &adjacency[node] {
            let candidate = d + edge.weight;
            if candidate + 1e-12 < dist[edge.to] {
                dist[edge.to] = candidate;
                mask[edge.to] = mask[node] ^ edge.observables;
                heap.push(HeapEntry { dist: candidate, node: edge.to });
            }
        }
    }
}

/// Merges an edge into the accumulating edge map, combining parallel edges
/// as independent mechanisms and keeping the dominant observable mask.
fn add_edge(
    edges: &mut HashMap<(usize, usize), (f64, u64)>,
    a: usize,
    b: usize,
    p: f64,
    mask: u64,
) {
    let key = if a <= b { (a, b) } else { (b, a) };
    let entry = edges.entry(key).or_insert((0.0, mask));
    let combined = entry.0 * (1.0 - p) + p * (1.0 - entry.0);
    if p > entry.0 {
        entry.1 = mask;
    }
    entry.0 = combined;
}

/// Packs a sorted observable index list into a bit mask.
fn pack_mask(observables: &[usize]) -> u64 {
    observables.iter().fold(0u64, |acc, &o| acc | (1 << o))
}

/// Attempts to decompose a hyperedge's detector set into pairs (or
/// singletons mapped to the boundary) that already exist as edges; falls
/// back to consecutive pairing.
fn decompose(
    detectors: &[usize],
    existing: &HashSet<(usize, usize)>,
    boundary: usize,
) -> Vec<(usize, usize)> {
    let has = |a: usize, b: usize| {
        let key = if a <= b { (a, b) } else { (b, a) };
        existing.contains(&key)
    };
    if detectors.len() == 4 {
        let d = detectors;
        let partitions = [
            [(d[0], d[1]), (d[2], d[3])],
            [(d[0], d[2]), (d[1], d[3])],
            [(d[0], d[3]), (d[1], d[2])],
        ];
        for partition in partitions {
            if partition.iter().all(|&(a, b)| has(a, b)) {
                return partition.to_vec();
            }
        }
    }
    if detectors.len() == 3 {
        // Try one pair plus one boundary edge.
        for i in 0..3 {
            let single = detectors[i];
            let rest: Vec<usize> = detectors.iter().copied().filter(|&d| d != single).collect();
            if has(rest[0], rest[1]) && has(single, boundary) {
                return vec![(rest[0], rest[1]), (single, boundary)];
            }
        }
    }
    // Fallback: consecutive pairing, odd leftover to the boundary.
    let mut parts = Vec::new();
    let mut iter = detectors.chunks(2);
    for chunk in &mut iter {
        if chunk.len() == 2 {
            parts.push((chunk[0], chunk[1]));
        } else {
            parts.push((chunk[0], boundary));
        }
    }
    parts
}

impl ObservableDecoder for MwpmDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let defects: Vec<usize> = detectors.ones().collect();
        if defects.is_empty() {
            return BitVec::zeros(self.num_observables);
        }
        let result_mask = if defects.len() <= self.exact_limit {
            self.match_exact(&defects)
        } else {
            self.match_greedy(&defects)
        };
        BitVec::from_bools((0..self.num_observables).map(|i| (result_mask >> i) & 1 == 1))
    }
}

/// Factory for [`MwpmDecoder`].
#[derive(Debug, Clone, Default)]
pub struct MwpmFactory {
    _private: (),
}

impl MwpmFactory {
    /// Creates the factory.
    pub fn new() -> Self {
        MwpmFactory { _private: () }
    }
}

impl DecoderFactory for MwpmFactory {
    fn name(&self) -> &str {
        "mwpm"
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        Box::new(MwpmDecoder::new(dem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;

    /// A hand-built repetition-code-like DEM:
    /// detectors 0,1,2 in a chain; errors connect boundary-0, 0-1, 1-2,
    /// 2-boundary; the last one flips observable 0.
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
    fn quiet_syndrome_decodes_to_nothing() {
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::zeros(3));
        assert!(!prediction.any());
    }

    #[test]
    fn single_error_signatures_are_recovered() {
        let dem = chain_dem();
        let decoder = MwpmDecoder::new(&dem);
        for error in dem.errors() {
            let detectors = BitVec::from_indices(3, &error.detectors);
            let prediction = decoder.decode(&detectors);
            let expected = BitVec::from_indices(1, &error.observables);
            assert_eq!(prediction, expected, "failed for {:?}", error.detectors);
        }
    }

    #[test]
    fn matching_prefers_the_cheaper_explanation() {
        // Defect on detector 2 only: explanations are "error 3" (boundary,
        // flips the observable) or "errors 2+1+0" (three edges). The single
        // boundary edge is cheaper, so the observable must be predicted.
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::from_indices(3, &[2]));
        assert!(prediction.get(0));
    }

    #[test]
    fn two_defects_match_internally() {
        // Defects 0 and 1 are best explained by the single 0-1 edge, which
        // does not flip the observable.
        let decoder = MwpmDecoder::new(&chain_dem());
        let prediction = decoder.decode(&BitVec::from_indices(3, &[0, 1]));
        assert!(!prediction.get(0));
    }

    #[test]
    fn hyperedge_decomposition_does_not_panic() {
        let dem = DetectorErrorModel::from_parts(
            4,
            1,
            vec![
                DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.01, detectors: vec![2, 3], observables: vec![0] },
                DemError { probability: 0.02, detectors: vec![0, 1, 2, 3], observables: vec![0] },
            ],
        );
        let decoder = MwpmDecoder::new(&dem);
        let prediction = decoder.decode(&BitVec::from_indices(4, &[0, 1, 2, 3]));
        // The four defects decompose into the two known edges; only one of
        // them carries the observable.
        assert!(prediction.get(0));
    }

    #[test]
    fn greedy_path_used_for_many_defects() {
        // A long chain with 24 defects exercises the greedy fallback.
        let n = 24;
        let mut errors = Vec::new();
        for i in 0..n {
            errors.push(DemError { probability: 0.01, detectors: vec![i], observables: vec![] });
        }
        let dem = DetectorErrorModel::from_parts(n, 1, errors);
        let decoder = MwpmDecoder::new(&dem);
        let all: Vec<usize> = (0..n).collect();
        let prediction = decoder.decode(&BitVec::from_indices(n, &all));
        assert_eq!(prediction.len(), 1);
    }
}
