//! Tick-based representation of a syndrome-measurement schedule.

use std::collections::HashMap;

use asynd_codes::StabilizerCode;
use asynd_pauli::Pauli;
use serde::{Deserialize, Serialize};

use crate::CircuitError;

/// One Pauli check of a syndrome-measurement round: the paper's triplet
/// `(data, ancilla, σ) ↦ tick`.
///
/// The ancilla is identified by the stabilizer it measures (`stabilizer`);
/// the circuit builder assigns ancilla qubit index `num_data + stabilizer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Check {
    /// Data qubit index.
    pub data: usize,
    /// Index of the stabilizer (and therefore of the ancilla) being measured.
    pub stabilizer: usize,
    /// The Pauli type of the partial check (X, Y or Z).
    pub pauli: Pauli,
    /// The 1-based tick at which the two-qubit gate executes.
    pub tick: usize,
}

/// A 128-bit canonical fingerprint of a [`Schedule`].
///
/// Two schedules that assign the same set of `(data, stabilizer, pauli,
/// tick)` checks — regardless of the order the checks were pushed in — hash
/// to the same key, because the fingerprint is computed over the check list
/// sorted into canonical `(tick, stabilizer, data)` order. The MCTS
/// evaluation service ([`Evaluator`](crate::Evaluator)) uses this as its
/// memoisation key: a rollout that re-produces an already-evaluated circuit
/// costs a hash lookup instead of a DEM rebuild and a decode run.
///
/// The hash is two decorrelated 64-bit FNV-1a streams (not cryptographic;
/// 128 bits keeps accidental collisions out of reach for any realistic
/// search).
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::Schedule;
///
/// let code = steane_code();
/// let a = Schedule::trivial(&code);
/// let mut shuffled = a.checks().to_vec();
/// shuffled.reverse(); // same circuit, different insertion order
/// let b = Schedule::new(a.num_data(), a.num_stabilizers(), shuffled);
/// assert_eq!(a.key(), b.key());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScheduleKey([u64; 2]);

impl ScheduleKey {
    /// The two 64-bit words of the fingerprint, low stream first.
    ///
    /// Exposed so callers can fold the key into other deterministic
    /// derivations — the portfolio subsystem derives per-schedule
    /// evaluation seeds from these words, which is what makes a shared
    /// evaluation cache safe to race on (any worker computing a schedule's
    /// estimate computes the *same* estimate).
    pub fn words(self) -> [u64; 2] {
        self.0
    }

    /// The key as 32 lowercase hex digits (low word first) — the wire
    /// format schedule artifacts carry so remote consumers can verify a
    /// deserialized schedule against its fingerprint.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the [`ScheduleKey::to_hex`] wire format: exactly 32 hex
    /// digits (`from_str_radix` alone would also admit a leading `+`).
    pub fn from_hex(hex: &str) -> Option<ScheduleKey> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let lo = u64::from_str_radix(&hex[..16], 16).ok()?;
        let hi = u64::from_str_radix(&hex[16..], 16).ok()?;
        Some(ScheduleKey([lo, hi]))
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Feeds one little-endian `u64` into an FNV-1a stream (shared with the
/// evaluator's code fingerprint).
pub(crate) fn fnv_word(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A complete assignment of every Pauli check of a syndrome-measurement
/// round to a tick.
///
/// Schedules are produced by the schedulers in `asynd-core` (trivial,
/// lowest-depth, industry hand-crafted, MCTS) and consumed by the circuit /
/// DEM builder in this crate.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::Schedule;
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// assert_eq!(schedule.checks().len(), 6 * 4);
/// schedule.validate(&code).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    num_data: usize,
    num_stabilizers: usize,
    checks: Vec<Check>,
}

impl Schedule {
    /// Creates a schedule from an explicit check list.
    pub fn new(num_data: usize, num_stabilizers: usize, checks: Vec<Check>) -> Self {
        Schedule { num_data, num_stabilizers, checks }
    }

    /// The *trivial* schedule of the paper's baselines: stabilizers are
    /// processed in index order, each stabilizer's checks in data-qubit
    /// order, and every check is placed at the earliest tick that respects
    /// the non-conflict condition.
    pub fn trivial(code: &StabilizerCode) -> Self {
        let mut builder = ScheduleBuilder::new(code);
        for (s, stab) in code.stabilizers().iter().enumerate() {
            for &(q, p) in stab.entries() {
                builder.push_earliest(q, s, p);
            }
        }
        builder.finish()
    }

    /// Number of data qubits of the underlying code.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Number of stabilizers (= ancilla qubits) of the underlying code.
    pub fn num_stabilizers(&self) -> usize {
        self.num_stabilizers
    }

    /// The scheduled checks, in insertion order.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// The canonical fingerprint of this schedule (see [`ScheduleKey`]).
    ///
    /// Cost is one sort of the check list plus a linear hash pass.
    pub fn key(&self) -> ScheduleKey {
        let mut checks: Vec<&Check> = self.checks.iter().collect();
        checks.sort_unstable_by_key(|c| (c.tick, c.stabilizer, c.data, c.pauli as u8));
        // Two FNV-1a streams over the same words, decorrelated by distinct
        // initial states.
        let mut lo = FNV_OFFSET;
        let mut hi = fnv_word(FNV_OFFSET, 0x7363_6865_6475_6c65); // "schedule": domain-separates the high stream
        let mut feed = |value: u64| {
            lo = fnv_word(lo, value);
            hi = fnv_word(hi, value ^ 0xa5a5_a5a5_a5a5_a5a5);
        };
        feed(self.num_data as u64);
        feed(self.num_stabilizers as u64);
        feed(self.checks.len() as u64);
        for c in checks {
            feed(c.tick as u64);
            feed(c.stabilizer as u64);
            feed(c.data as u64);
            feed(c.pauli as u64);
        }
        ScheduleKey([lo, hi])
    }

    /// The circuit depth in two-qubit-gate ticks (the largest assigned tick).
    pub fn depth(&self) -> usize {
        self.checks.iter().map(|c| c.tick).max().unwrap_or(0)
    }

    /// The checks executing at a given tick.
    pub fn checks_at(&self, tick: usize) -> Vec<&Check> {
        self.checks.iter().filter(|c| c.tick == tick).collect()
    }

    /// The tick of the check between `stabilizer` and `data`, if scheduled.
    pub fn tick_of(&self, stabilizer: usize, data: usize) -> Option<usize> {
        self.checks.iter().find(|c| c.stabilizer == stabilizer && c.data == data).map(|c| c.tick)
    }

    /// Checks the schedule against its code.
    ///
    /// Verifies that ticks are positive, that every stabilizer's support is
    /// covered exactly once with the correct Pauli, that no qubit (data or
    /// ancilla) is used twice in a tick, and that every pair of overlapping
    /// stabilizers with anticommuting checks satisfies the crossing-parity
    /// condition (an even number of shared qubits on which their relative
    /// order is inverted), so the round measures the intended operators.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`CircuitError`].
    pub fn validate(&self, code: &StabilizerCode) -> Result<(), CircuitError> {
        if self.checks.iter().any(|c| c.tick == 0) {
            return Err(CircuitError::ZeroTick);
        }
        // Coverage and Pauli consistency.
        let mut per_stab: HashMap<usize, HashMap<usize, (Pauli, usize)>> = HashMap::new();
        for c in &self.checks {
            if c.stabilizer >= code.stabilizers().len() || c.data >= code.num_qubits() {
                return Err(CircuitError::CheckMismatch { stabilizer: c.stabilizer, data: c.data });
            }
            let expected = code.stabilizers()[c.stabilizer].get(c.data);
            if expected != c.pauli || expected == Pauli::I {
                return Err(CircuitError::CheckMismatch { stabilizer: c.stabilizer, data: c.data });
            }
            if per_stab.entry(c.stabilizer).or_default().insert(c.data, (c.pauli, c.tick)).is_some()
            {
                return Err(CircuitError::IncompleteStabilizer {
                    stabilizer: c.stabilizer,
                    expected: code.stabilizers()[c.stabilizer].weight(),
                    found: per_stab[&c.stabilizer].len() + 1,
                });
            }
        }
        for (s, stab) in code.stabilizers().iter().enumerate() {
            let found = per_stab.get(&s).map(|m| m.len()).unwrap_or(0);
            if found != stab.weight() {
                return Err(CircuitError::IncompleteStabilizer {
                    stabilizer: s,
                    expected: stab.weight(),
                    found,
                });
            }
        }
        // Non-conflict condition.
        let mut tick_usage: HashMap<(usize, usize), ()> = HashMap::new();
        for c in &self.checks {
            let ancilla = self.num_data + c.stabilizer;
            for qubit in [c.data, ancilla] {
                if tick_usage.insert((c.tick, qubit), ()).is_some() {
                    return Err(CircuitError::QubitConflict { tick: c.tick, qubit });
                }
            }
        }
        // Crossing-parity condition between overlapping stabilizers.
        for (s1, stab1) in code.stabilizers().iter().enumerate() {
            for (s2, stab2) in code.stabilizers().iter().enumerate().skip(s1 + 1) {
                let mut inverted = 0usize;
                let mut overlapping = false;
                for &(q, p1) in stab1.entries() {
                    let p2 = stab2.get(q);
                    if p2 != Pauli::I && p1.anticommutes_with(p2) {
                        overlapping = true;
                        let t1 = per_stab[&s1][&q].1;
                        let t2 = per_stab[&s2][&q].1;
                        if t1 > t2 {
                            inverted += 1;
                        }
                    }
                }
                if overlapping && !inverted.is_multiple_of(2) {
                    return Err(CircuitError::CrossingParityViolated { first: s1, second: s2 });
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder that keeps the non-conflict condition satisfied by
/// construction, assigning each new check the earliest legal tick
/// (the paper's §4.3 state-transition rule).
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    num_data: usize,
    num_stabilizers: usize,
    checks: Vec<Check>,
    /// Last tick at which each data qubit is busy.
    data_busy: Vec<usize>,
    /// Last tick at which each ancilla is busy.
    ancilla_busy: Vec<usize>,
}

impl ScheduleBuilder {
    /// Creates an empty builder for the given code.
    pub fn new(code: &StabilizerCode) -> Self {
        ScheduleBuilder {
            num_data: code.num_qubits(),
            num_stabilizers: code.stabilizers().len(),
            checks: Vec::new(),
            data_busy: vec![0; code.num_qubits()],
            ancilla_busy: vec![0; code.stabilizers().len()],
        }
    }

    /// Appends a check at the earliest tick that keeps the schedule
    /// conflict-free (`max(busy(data), busy(ancilla)) + 1`), returning the
    /// assigned tick.
    ///
    /// # Panics
    ///
    /// Panics if the data or stabilizer index is out of range.
    pub fn push_earliest(&mut self, data: usize, stabilizer: usize, pauli: Pauli) -> usize {
        let tick = self.data_busy[data].max(self.ancilla_busy[stabilizer]) + 1;
        self.push_at(data, stabilizer, pauli, tick);
        tick
    }

    /// Appends a check at an explicit tick, updating the busy trackers.
    ///
    /// The caller is responsible for not creating conflicts when bypassing
    /// [`ScheduleBuilder::push_earliest`]; [`Schedule::validate`] will catch
    /// any violation.
    ///
    /// # Panics
    ///
    /// Panics if the data or stabilizer index is out of range or the tick is
    /// zero.
    pub fn push_at(&mut self, data: usize, stabilizer: usize, pauli: Pauli, tick: usize) {
        assert!(tick >= 1, "ticks are 1-based");
        assert!(data < self.num_data, "data qubit out of range");
        assert!(stabilizer < self.num_stabilizers, "stabilizer out of range");
        self.data_busy[data] = self.data_busy[data].max(tick);
        self.ancilla_busy[stabilizer] = self.ancilla_busy[stabilizer].max(tick);
        self.checks.push(Check { data, stabilizer, pauli, tick });
    }

    /// Number of checks currently scheduled.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// Whether no check has been scheduled yet.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Finishes the builder into a [`Schedule`].
    pub fn finish(self) -> Schedule {
        Schedule {
            num_data: self.num_data,
            num_stabilizers: self.num_stabilizers,
            checks: self.checks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::{rotated_surface_code, steane_code, xzzx_code};

    #[test]
    fn trivial_schedule_is_valid() {
        for code in [steane_code(), rotated_surface_code(3), xzzx_code(3)] {
            let schedule = Schedule::trivial(&code);
            schedule.validate(&code).unwrap();
            let total_weight: usize = code.stabilizers().iter().map(|s| s.weight()).sum();
            assert_eq!(schedule.checks().len(), total_weight);
            assert!(schedule.depth() >= code.max_stabilizer_weight());
        }
    }

    #[test]
    fn builder_respects_conflicts() {
        let code = steane_code();
        let mut builder = ScheduleBuilder::new(&code);
        let t1 = builder.push_earliest(0, 0, Pauli::X);
        let t2 = builder.push_earliest(0, 1, Pauli::X);
        assert_eq!(t1, 1);
        assert_eq!(t2, 2, "same data qubit must move to the next tick");
        let t3 = builder.push_earliest(2, 0, Pauli::X);
        assert_eq!(t3, 2, "same ancilla must move past its previous check");
    }

    #[test]
    fn validate_rejects_conflicts() {
        let code = steane_code();
        // Two checks of different stabilizers on the same data qubit at tick 1.
        let checks = vec![
            Check { data: 2, stabilizer: 0, pauli: Pauli::X, tick: 1 },
            Check { data: 2, stabilizer: 1, pauli: Pauli::X, tick: 1 },
        ];
        let schedule = Schedule::new(7, 6, checks);
        assert!(matches!(
            schedule.validate(&code),
            Err(CircuitError::QubitConflict { .. })
                | Err(CircuitError::IncompleteStabilizer { .. })
        ));
    }

    #[test]
    fn validate_rejects_incomplete_coverage() {
        let code = steane_code();
        let schedule =
            Schedule::new(7, 6, vec![Check { data: 0, stabilizer: 0, pauli: Pauli::X, tick: 1 }]);
        assert!(matches!(schedule.validate(&code), Err(CircuitError::IncompleteStabilizer { .. })));
    }

    #[test]
    fn validate_rejects_wrong_pauli() {
        let code = steane_code();
        let mut schedule = Schedule::trivial(&code);
        schedule.checks[0].pauli = Pauli::Y;
        assert!(matches!(schedule.validate(&code), Err(CircuitError::CheckMismatch { .. })));
    }

    #[test]
    fn crossing_parity_detects_bad_interleaving() {
        // XZZX code: neighbouring stabilizers share qubits with anticommuting
        // checks, so an adversarial interleaving must be rejected.
        let code = xzzx_code(3);
        let mut schedule = Schedule::trivial(&code);
        schedule.validate(&code).unwrap();
        // Find two stabilizers with anticommuting overlap and swap the order
        // on exactly one shared qubit by pushing one check to a late tick.
        let stabs = code.stabilizers();
        let mut target = None;
        'outer: for s1 in 0..stabs.len() {
            for s2 in s1 + 1..stabs.len() {
                let shared: Vec<usize> = stabs[s1]
                    .entries()
                    .iter()
                    .filter(|(q, p)| {
                        let p2 = stabs[s2].get(*q);
                        p2 != Pauli::I && p.anticommutes_with(p2)
                    })
                    .map(|&(q, _)| q)
                    .collect();
                if shared.len() >= 2 {
                    target = Some((s1, shared[0]));
                    break 'outer;
                }
            }
        }
        let (s1, q) = target.expect("xzzx has anticommuting overlaps");
        let depth = schedule.depth();
        for c in &mut schedule.checks {
            if c.stabilizer == s1 && c.data == q {
                c.tick = depth + 5;
            }
        }
        assert!(matches!(
            schedule.validate(&code),
            Err(CircuitError::CrossingParityViolated { .. })
        ));
    }

    #[test]
    fn schedule_key_is_canonical_and_discriminating() {
        let code = steane_code();
        let a = Schedule::trivial(&code);
        // Insertion order does not matter.
        let mut reversed = a.checks().to_vec();
        reversed.reverse();
        let b = Schedule::new(a.num_data(), a.num_stabilizers(), reversed);
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key(), a.key(), "key is a pure function");
        // Moving one check to a different tick changes the key.
        let mut moved = a.checks().to_vec();
        moved[0].tick += 17;
        let c = Schedule::new(a.num_data(), a.num_stabilizers(), moved);
        assert_ne!(a.key(), c.key());
        // Different codes produce different keys.
        let other = Schedule::trivial(&rotated_surface_code(3));
        assert_ne!(a.key(), other.key());
    }

    #[test]
    fn tick_of_lookup() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let c = schedule.checks()[0];
        assert_eq!(schedule.tick_of(c.stabilizer, c.data), Some(c.tick));
        assert_eq!(schedule.tick_of(0, 5), None);
    }
}
