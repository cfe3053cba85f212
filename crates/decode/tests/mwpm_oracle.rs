//! `MwpmDecoder` against a per-shot Dijkstra reference.
//!
//! `ReferenceMwpm` below is the MWPM decoder that the shortest-path table
//! replaced: it builds the same matching graph, keeps its adjacency list
//! and runs Dijkstra from every defect of every shot. `MwpmDecoder` must
//! predict exactly what it predicts on random DEMs with 1–24 detectors,
//! some of them isolated (so distances can be infinite), 3- and 4-detector
//! hyperedges, 1–4 observables, and syndromes on both sides of the
//! 20-defect exact-matching limit.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use asynd_circuit::{DemError, DetectorErrorModel, ObservableDecoder};
use asynd_decode::MwpmDecoder;
use asynd_pauli::BitVec;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An edge of the reference matching graph.
#[derive(Debug, Clone, Copy)]
struct MatchEdge {
    to: usize,
    weight: f64,
    observables: u64,
}

/// The per-shot Dijkstra MWPM decoder, kept as the oracle.
struct ReferenceMwpm {
    num_detectors: usize,
    num_observables: usize,
    /// Adjacency list; node `num_detectors` is the virtual boundary.
    adjacency: Vec<Vec<MatchEdge>>,
    exact_limit: usize,
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
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl ReferenceMwpm {
    fn new(dem: &DetectorErrorModel) -> Self {
        let boundary = dem.num_detectors();
        let mut edges: HashMap<(usize, usize), (f64, u64)> = HashMap::new();
        for error in dem.errors() {
            let mask = pack_mask(&error.observables);
            match error.detectors.len() {
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
        let existing: Vec<(usize, usize)> = edges.keys().copied().collect();
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
        ReferenceMwpm {
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            adjacency,
            exact_limit: 20,
        }
    }

    fn shortest_paths(&self, source: usize) -> (Vec<f64>, Vec<u64>) {
        let nodes = self.num_detectors + 1;
        let mut dist = vec![f64::INFINITY; nodes];
        let mut mask = vec![0u64; nodes];
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(HeapEntry { dist: 0.0, node: source });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node] {
                continue;
            }
            for edge in &self.adjacency[node] {
                let candidate = d + edge.weight;
                if candidate + 1e-12 < dist[edge.to] {
                    dist[edge.to] = candidate;
                    mask[edge.to] = mask[node] ^ edge.observables;
                    heap.push(HeapEntry { dist: candidate, node: edge.to });
                }
            }
        }
        (dist, mask)
    }

    fn match_exact(&self, defects: &[usize], dist: &[Vec<f64>], masks: &[Vec<u64>]) -> u64 {
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
            let next = state | (1 << i);
            let to_boundary = dist[i][boundary];
            if to_boundary.is_finite() && best[state] + to_boundary < best[next] {
                best[next] = best[state] + to_boundary;
                best_mask[next] = best_mask[state] ^ masks[i][boundary];
            }
            for j in i + 1..m {
                if state & (1 << j) != 0 {
                    continue;
                }
                let pair_cost = dist[i][defects[j]];
                if !pair_cost.is_finite() {
                    continue;
                }
                let next = state | (1 << i) | (1 << j);
                if best[state] + pair_cost < best[next] {
                    best[next] = best[state] + pair_cost;
                    best_mask[next] = best_mask[state] ^ masks[i][defects[j]];
                }
            }
        }
        if best[full - 1].is_finite() {
            best_mask[full - 1]
        } else {
            0
        }
    }

    fn match_greedy(&self, defects: &[usize], dist: &[Vec<f64>], masks: &[Vec<u64>]) -> u64 {
        let m = defects.len();
        let boundary = self.num_detectors;
        let mut unmatched: Vec<usize> = (0..m).collect();
        let mut result = 0u64;
        while let Some(&first) = unmatched.first() {
            let mut best_cost = dist[first][boundary];
            let mut best_choice: Option<usize> = None;
            let mut best_mask = masks[first][boundary];
            for &other in unmatched.iter().skip(1) {
                let cost = dist[first][defects[other]];
                if cost < best_cost {
                    best_cost = cost;
                    best_choice = Some(other);
                    best_mask = masks[first][defects[other]];
                }
            }
            if best_cost.is_finite() {
                result ^= best_mask;
            }
            unmatched.retain(|&i| i != first && Some(i) != best_choice);
        }
        result
    }

    fn decode(&self, detectors: &BitVec) -> BitVec {
        let defects: Vec<usize> = detectors.ones().collect();
        if defects.is_empty() {
            return BitVec::zeros(self.num_observables);
        }
        let (dist, masks): (Vec<_>, Vec<_>) =
            defects.iter().map(|&d| self.shortest_paths(d)).unzip();
        let result_mask = if defects.len() <= self.exact_limit {
            self.match_exact(&defects, &dist, &masks)
        } else {
            self.match_greedy(&defects, &dist, &masks)
        };
        BitVec::from_bools((0..self.num_observables).map(|i| (result_mask >> i) & 1 == 1))
    }
}

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

fn pack_mask(observables: &[usize]) -> u64 {
    observables.iter().fold(0u64, |acc, &o| acc | (1 << o))
}

fn decompose(
    detectors: &[usize],
    existing: &[(usize, usize)],
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
        for i in 0..3 {
            let single = detectors[i];
            let rest: Vec<usize> = detectors.iter().copied().filter(|&d| d != single).collect();
            if has(rest[0], rest[1]) && has(single, boundary) {
                return vec![(rest[0], rest[1]), (single, boundary)];
            }
        }
    }
    let mut parts = Vec::new();
    for chunk in detectors.chunks(2) {
        if chunk.len() == 2 {
            parts.push((chunk[0], chunk[1]));
        } else {
            parts.push((chunk[0], boundary));
        }
    }
    parts
}

/// A random DEM over `num_detectors` detectors, about a sixth of which no
/// mechanism touches. Mechanisms flip 1–4 of the others (so 3- and
/// 4-detector hyperedges occur, and repeated signatures merge) and a random
/// subset of the observables.
fn random_dem(num_detectors: usize, num_observables: usize, seed: u64) -> DetectorErrorModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let live: Vec<usize> = (0..num_detectors).filter(|_| rng.gen_range(0..6u32) != 0).collect();
    let mut errors = Vec::new();
    if !live.is_empty() {
        for _ in 0..rng.gen_range(1..3 * live.len() + 2) {
            let weight = rng.gen_range(1..5usize).min(live.len());
            let mut detectors = pick(&live, weight, &mut rng);
            detectors.sort_unstable();
            let observables: Vec<usize> =
                (0..num_observables).filter(|_| rng.gen_range(0..2u32) == 1).collect();
            let probability = 0.001 + 0.3 * (rng.gen_range(0..1000u32) as f64 / 1000.0);
            errors.push(DemError { probability, detectors, observables });
        }
    }
    DetectorErrorModel::from_parts(num_detectors, num_observables, errors)
}

/// `count` distinct elements of `pool`, in random order.
fn pick(pool: &[usize], count: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut pool = pool.to_vec();
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

/// Random syndromes over `num_detectors` detectors: six with a uniformly
/// drawn defect count, plus every detector at once.
fn syndromes(num_detectors: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let all: Vec<usize> = (0..num_detectors).collect();
    let mut syndromes: Vec<BitVec> = (0..6)
        .map(|_| {
            let count = rng.gen_range(0..num_detectors + 1);
            BitVec::from_indices(num_detectors, &pick(&all, count, &mut rng))
        })
        .collect();
    syndromes.push(BitVec::from_indices(num_detectors, &all));
    syndromes
}

proptest! {
    #[test]
    fn table_decoder_matches_the_per_shot_dijkstra_reference(
        nd in prop_oneof![1usize..21, 21usize..25],
        no in 1usize..5,
        dem_seed in any::<u64>(),
        syndrome_seed in any::<u64>(),
    ) {
        let dem = random_dem(nd, no, dem_seed);
        let decoder = MwpmDecoder::new(&dem);
        let reference = ReferenceMwpm::new(&dem);
        for syndrome in syndromes(nd, syndrome_seed) {
            prop_assert_eq!(
                decoder.decode(&syndrome),
                reference.decode(&syndrome),
                "{} detectors, defects {:?}",
                nd,
                syndrome.ones().collect::<Vec<_>>()
            );
        }
    }
}
