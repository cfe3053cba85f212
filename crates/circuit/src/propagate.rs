//! Clifford propagation of Pauli faults through a scheduled
//! syndrome-measurement round.

use asynd_codes::StabilizerCode;
use asynd_pauli::{Pauli, PauliString, SparsePauli};

use crate::{Check, CircuitError, Schedule};

/// A single Pauli fault injected into the round.
///
/// The error acts on the combined register (data qubits `0..n`, ancilla of
/// stabilizer `s` at index `n + s`) and is inserted *after* the gate layer
/// of `tick` (tick 0 means "before the round starts").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The tick after which the error occurs.
    pub tick: usize,
    /// The Pauli error on the combined data + ancilla register.
    pub error: SparsePauli,
}

/// The effect of a fault on the round's detectors and logical observables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultEffect {
    /// Indices of flipped detectors. Detectors `0..r` are the round-1
    /// ancilla readouts; detectors `r..2r` are the round-1 ⊕ round-2
    /// syndrome comparisons.
    pub detectors: Vec<usize>,
    /// Indices of flipped logical observables. Observables `0..k` are the
    /// logical-Z readouts (flipped by logical X errors); observables
    /// `k..2k` are the logical-X readouts (flipped by logical Z errors).
    pub observables: Vec<usize>,
}

/// A scheduled syndrome-measurement round in executable form: the per-tick
/// gate layers plus the ancilla activity windows, ready for fault
/// propagation and fault-site enumeration.
///
/// Every check is modelled as a controlled-σ gate with the ancilla as
/// control; ancillas are prepared in `|+⟩` and read out in the X basis, so
/// an X-type error on the ancilla spreads the stabilizer's Pauli onto every
/// data qubit checked later, while a Z-type error flips the readout (the
/// hook-error structure of the paper's §3.1).
#[derive(Debug, Clone)]
pub struct RoundCircuit {
    num_data: usize,
    num_stabilizers: usize,
    num_logicals: usize,
    depth: usize,
    /// `layers[t]` holds the checks executing at tick `t + 1`.
    layers: Vec<Vec<Check>>,
    /// Per-stabilizer `(first, last)` tick of ancilla activity.
    windows: Vec<(usize, usize)>,
    stabilizers: Vec<SparsePauli>,
    logical_x: Vec<SparsePauli>,
    logical_z: Vec<SparsePauli>,
}

impl RoundCircuit {
    /// Compiles a schedule against its code: one pass buckets the checks
    /// per tick and records each ancilla's activity window.
    ///
    /// Only the indices are checked, not the schedule itself: run
    /// [`Schedule::validate`] first to be sure the round measures the
    /// code's stabilizers. Same-tick conflicts, for instance, are accepted
    /// and executed in check-list order.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ZeroTick`] for a check at tick 0 and
    /// [`CircuitError::CheckMismatch`] for a check whose stabilizer or data
    /// qubit is out of the code's range.
    pub fn new(code: &StabilizerCode, schedule: &Schedule) -> Result<Self, CircuitError> {
        let num_data = code.num_qubits();
        let num_stabilizers = code.stabilizers().len();
        let depth = schedule.depth();
        let mut layers = vec![Vec::new(); depth];
        let mut windows = vec![(0, 0); num_stabilizers];
        for check in schedule.checks() {
            if check.tick == 0 {
                return Err(CircuitError::ZeroTick);
            }
            if check.stabilizer >= num_stabilizers || check.data >= num_data {
                return Err(CircuitError::CheckMismatch {
                    stabilizer: check.stabilizer,
                    data: check.data,
                });
            }
            layers[check.tick - 1].push(*check);
            let (first, last) = &mut windows[check.stabilizer];
            if *first == 0 || check.tick < *first {
                *first = check.tick;
            }
            *last = (*last).max(check.tick);
        }
        Ok(RoundCircuit {
            num_data,
            num_stabilizers,
            num_logicals: code.num_logicals(),
            depth,
            layers,
            windows,
            stabilizers: code.stabilizers().to_vec(),
            logical_x: code.logical_x().to_vec(),
            logical_z: code.logical_z().to_vec(),
        })
    }

    /// Number of data qubits.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Number of stabilizers (= ancillas).
    pub fn num_stabilizers(&self) -> usize {
        self.num_stabilizers
    }

    /// Number of logical qubits.
    pub fn num_logicals(&self) -> usize {
        self.num_logicals
    }

    /// Total register size (data + ancilla qubits).
    pub fn num_qubits(&self) -> usize {
        self.num_data + self.num_stabilizers
    }

    /// Circuit depth in ticks.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of detectors of the two-round evaluation circuit.
    pub fn num_detectors(&self) -> usize {
        2 * self.num_stabilizers
    }

    /// Number of logical observables (logical-Z readouts then logical-X
    /// readouts).
    pub fn num_observables(&self) -> usize {
        2 * self.num_logicals
    }

    /// The register index of the ancilla measuring `stabilizer`.
    pub fn ancilla_qubit(&self, stabilizer: usize) -> usize {
        self.num_data + stabilizer
    }

    /// The checks executing at 1-based `tick`.
    pub fn layer(&self, tick: usize) -> &[Check] {
        &self.layers[tick - 1]
    }

    /// The `(first, last)` activity window of each ancilla: the first and
    /// last tick at which it is checked, `(0, 0)` when it has no checks.
    pub fn ancilla_windows(&self) -> &[(usize, usize)] {
        &self.windows
    }

    /// Whether a data qubit is idle (has no check) at the given tick.
    pub fn is_data_idle(&self, data: usize, tick: usize) -> bool {
        !self.layer(tick).iter().any(|c| c.data == data)
    }

    /// Whether an ancilla is idle at the given tick: inside its activity
    /// window but not being checked.
    pub fn is_ancilla_idle(&self, stabilizer: usize, tick: usize) -> bool {
        let (first, last) = self.windows[stabilizer];
        first != 0
            && tick >= first
            && tick <= last
            && !self.layer(tick).iter().any(|c| c.stabilizer == stabilizer)
    }
}

/// Every fault location's signature at once: for each tick `t` (0 means
/// "before the round") and each qubit, the detectors and observables that
/// an X and a Z error inserted after tick `t` flip.
///
/// Signatures are packed rows of `2r + 2k` bits, 64 per word: detector `d`
/// is bit `d` and observable `o` is bit `2r + o`. Propagation through the
/// round is linear over GF(2), so each signature bit is a linear function
/// of the inserted error, and one backward pass over the checks (the
/// transpose of the forward rules of [`propagate_fault`]) yields all of
/// them, as stim's error analyzer does. The signature of any Pauli fault
/// is the XOR of the rows of its X and Z components.
pub(crate) struct Sensitivities {
    words: usize,
    /// Words of one tick's snapshot: an X row and a Z row per qubit.
    tick_words: usize,
    /// `rows[t * tick_words..]` is the snapshot after tick `t`, with the
    /// X row of qubit `q` at word `2q · words` and its Z row right after.
    rows: Vec<u64>,
}

impl Sensitivities {
    /// Runs the backward sweep over `circuit`.
    pub(crate) fn sweep(circuit: &RoundCircuit) -> Self {
        let r = circuit.num_stabilizers;
        let k = circuit.num_logicals;
        let words = (2 * r + 2 * k).div_ceil(64);
        let tick_words = 2 * circuit.num_qubits() * words;
        let depth = circuit.depth;
        let mut rows = vec![0u64; (depth + 1) * tick_words];

        // End of round: the residual data error meets the ideal round-2
        // syndrome and the logical readouts, and a Z on an ancilla flips its
        // round-1 readout, which the round-2 comparison also sees.
        let end = &mut rows[depth * tick_words..];
        let mut set = |qubit: usize, z: bool, bit: usize| {
            end[(2 * qubit + usize::from(z)) * words + bit / 64] |= 1 << (bit % 64);
        };
        let stabilizers = circuit.stabilizers.iter().zip(r..);
        let logicals = circuit.logical_z.iter().chain(&circuit.logical_x).zip(2 * r..);
        for (operator, bit) in stabilizers.chain(logicals) {
            for &(q, p) in operator.entries() {
                // X at q anticommutes with p iff p has a Z part, and vice versa.
                if p.has_z() {
                    set(q, false, bit);
                }
                if p.has_x() {
                    set(q, true, bit);
                }
            }
        }
        for s in 0..r {
            set(circuit.ancilla_qubit(s), true, s);
            set(circuit.ancilla_qubit(s), true, r + s);
        }

        // Walk the checks backward. Forward, a controlled-σ check maps
        // (data, ancilla) as data ^= σ·anc.x and anc.z ^= ⟨data, σ⟩; the
        // sensitivities follow its transpose.
        for tick in (1..=depth).rev() {
            let (before, after) = rows.split_at_mut(tick * tick_words);
            let slot = &mut before[(tick - 1) * tick_words..];
            slot.copy_from_slice(&after[..tick_words]);
            for check in circuit.layer(tick).iter().rev() {
                let (has_x, has_z) = check.pauli.xz();
                let data_x = 2 * check.data * words;
                let data_z = data_x + words;
                let anc_x = 2 * circuit.ancilla_qubit(check.stabilizer) * words;
                let anc_z = anc_x + words;
                for w in 0..words {
                    let mut spread = 0;
                    if has_x {
                        spread ^= slot[data_x + w];
                    }
                    if has_z {
                        spread ^= slot[data_z + w];
                    }
                    slot[anc_x + w] ^= spread;
                    let readout = slot[anc_z + w];
                    if has_z {
                        slot[data_x + w] ^= readout;
                    }
                    if has_x {
                        slot[data_z + w] ^= readout;
                    }
                }
            }
        }
        Sensitivities { words, tick_words, rows }
    }

    /// Words per packed signature.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// XORs the signature of `pauli` on `qubit`, inserted after `tick`,
    /// into `signature`.
    pub(crate) fn xor_into(&self, signature: &mut [u64], tick: usize, qubit: usize, pauli: Pauli) {
        let (has_x, has_z) = pauli.xz();
        let x = tick * self.tick_words + 2 * qubit * self.words;
        for (w, word) in signature.iter_mut().enumerate() {
            if has_x {
                *word ^= self.rows[x + w];
            }
            if has_z {
                *word ^= self.rows[x + self.words + w];
            }
        }
    }
}

/// Propagates a single Pauli fault through the rest of the round and reports
/// which detectors and observables it flips.
///
/// The propagation rules for a controlled-σ check (ancilla control, data
/// target) are: an X component on the ancilla multiplies σ onto the data
/// qubit; a data error anticommuting with σ multiplies Z onto the ancilla.
/// At readout, an ancilla error with a Z component flips the measurement.
///
/// # Example
///
/// ```
/// use asynd_codes::steane_code;
/// use asynd_circuit::{propagate_fault, FaultSite, RoundCircuit, Schedule};
/// use asynd_pauli::{Pauli, SparsePauli};
///
/// let code = steane_code();
/// let schedule = Schedule::trivial(&code);
/// let circuit = RoundCircuit::new(&code, &schedule).unwrap();
/// // An X error on data qubit 0 before the round is caught by the round-1
/// // readout of the Z-stabilizer containing qubit 0; the round-2 comparison
/// // stays silent because the error is present in both rounds.
/// let fault = FaultSite { tick: 0, error: SparsePauli::new(vec![(0, Pauli::X)]) };
/// let effect = propagate_fault(&circuit, &fault);
/// assert_eq!(effect.detectors.len(), 1);
/// ```
pub fn propagate_fault(circuit: &RoundCircuit, site: &FaultSite) -> FaultEffect {
    let mut error = PauliString::identity(circuit.num_qubits());
    for &(q, p) in site.error.entries() {
        error.mul_assign_single(q, p);
    }

    // Propagate through the remaining gate layers.
    for tick in site.tick + 1..=circuit.depth() {
        for check in circuit.layer(tick) {
            let ancilla = circuit.ancilla_qubit(check.stabilizer);
            let ancilla_error = error.get(ancilla);
            let data_error = error.get(check.data);
            if ancilla_error.has_x() {
                error.mul_assign_single(check.data, check.pauli);
            }
            if data_error != Pauli::I && data_error.anticommutes_with(check.pauli) {
                error.mul_assign_single(ancilla, Pauli::Z);
            }
        }
    }

    // Round-1 readout flips: Z component on the ancilla at measurement time.
    let r = circuit.num_stabilizers();
    let mut detectors = Vec::new();
    let mut measurement_flip = vec![false; r];
    for (s, flip) in measurement_flip.iter_mut().enumerate() {
        if error.get(circuit.ancilla_qubit(s)).has_z() {
            *flip = true;
            detectors.push(s);
        }
    }

    // The residual data error at the end of the round meets the operators
    // below, which act on data qubits only.
    let anticommutes = |operator: &SparsePauli| {
        let overlaps =
            operator.entries().iter().filter(|&&(q, p)| error.get(q).anticommutes_with(p));
        overlaps.count() % 2 == 1
    };

    // Round-2 detectors compare the (ideal) second-round syndrome with the
    // first-round readout.
    for (s, stab) in circuit.stabilizers.iter().enumerate() {
        if anticommutes(stab) != measurement_flip[s] {
            detectors.push(r + s);
        }
    }

    // Observable flips from the residual error.
    let mut observables = Vec::new();
    for (i, lz) in circuit.logical_z.iter().enumerate() {
        if anticommutes(lz) {
            observables.push(i);
        }
    }
    let k = circuit.num_logicals();
    for (i, lx) in circuit.logical_x.iter().enumerate() {
        if anticommutes(lx) {
            observables.push(k + i);
        }
    }
    detectors.sort_unstable();
    FaultEffect { detectors, observables }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_codes::{rotated_surface_code, steane_code};

    fn single(circuit: &RoundCircuit, tick: usize, qubit: usize, pauli: Pauli) -> FaultEffect {
        propagate_fault(circuit, &FaultSite { tick, error: SparsePauli::new(vec![(qubit, pauli)]) })
    }

    #[test]
    fn pre_round_data_error_triggers_round_one_only() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let effect = single(&circuit, 0, 0, Pauli::X);
        let z_stabs_containing_0: Vec<usize> = code
            .stabilizers()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.get(0) == Pauli::Z)
            .map(|(i, _)| i)
            .collect();
        // The error precedes the whole round, so it is caught by the round-1
        // readouts; the round-2 comparisons see the same syndrome twice and
        // stay silent.
        assert_eq!(effect.detectors, z_stabs_containing_0);
        assert!(effect.observables.is_empty(), "single X error is not logical");
    }

    #[test]
    fn post_round_error_is_invisible_to_round_one() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let depth = circuit.depth();
        // Error after the last tick: only the round-2 comparison can see it.
        let effect = single(&circuit, depth, 0, Pauli::X);
        let r = code.stabilizers().len();
        assert!(effect.detectors.iter().all(|&d| d >= r));
        assert!(!effect.detectors.is_empty());
    }

    #[test]
    fn measurement_basis_error_on_ancilla_flips_only_round_one() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let depth = circuit.depth();
        // Z on an ancilla right before readout: flips the round-1 outcome but
        // leaves no residual data error, so the round-2 comparison also fires
        // (syndrome 0 vs readout 1) — signature {s, r+s}.
        let effect = single(&circuit, depth, circuit.ancilla_qubit(0), Pauli::Z);
        assert_eq!(effect.detectors, vec![0, code.stabilizers().len()]);
        assert!(effect.observables.is_empty());
    }

    #[test]
    fn hook_error_spreads_to_later_data_qubits() {
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        // Pick a weight-4 stabilizer and inject an X error on its ancilla
        // after its second check: the X must spread the stabilizer's Pauli to
        // the remaining two data qubits.
        let (stab_idx, stab) = code
            .stabilizers()
            .iter()
            .enumerate()
            .find(|(_, s)| s.weight() == 4)
            .expect("surface code has weight-4 stabilizers");
        let mut ticks: Vec<(usize, usize)> = stab
            .entries()
            .iter()
            .map(|&(q, _)| (schedule.tick_of(stab_idx, q).unwrap(), q))
            .collect();
        ticks.sort_unstable();
        let mid_tick = ticks[1].0;
        let late_qubits: Vec<usize> =
            ticks.iter().filter(|&&(t, _)| t > mid_tick).map(|&(_, q)| q).collect();
        assert_eq!(late_qubits.len(), 2);
        let effect = single(&circuit, mid_tick, circuit.ancilla_qubit(stab_idx), Pauli::X);
        // The residual error on the two late data qubits must be visible to
        // *other* stabilizers (in round 1 if their checks run after the error
        // appears, otherwise in the round-2 comparison), while the hooked
        // stabilizer itself sees an even overlap and stays silent.
        let r = code.stabilizers().len();
        let implicated: Vec<usize> = effect.detectors.iter().map(|&d| d % r).collect();
        assert!(!implicated.is_empty(), "hook error must leave a residual signature");
        for &s in &implicated {
            assert_ne!(s, stab_idx, "the hooked stabilizer itself sees an even overlap");
        }
    }

    #[test]
    fn hook_error_at_start_is_harmless() {
        // An X error on the ancilla before any check spreads to the full
        // stabilizer support — i.e. it becomes the stabilizer itself and has
        // no effect on detectors or observables.
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let (stab_idx, _) =
            code.stabilizers().iter().enumerate().find(|(_, s)| s.weight() == 4).unwrap();
        let effect = single(&circuit, 0, circuit.ancilla_qubit(stab_idx), Pauli::X);
        assert!(effect.detectors.is_empty());
        assert!(effect.observables.is_empty());
    }

    #[test]
    fn logical_error_flips_observable() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        // Apply a full logical X operator before the round: no detector
        // fires, but the logical-Z observable flips.
        let logical = code.logical_x()[0].clone();
        let effect = propagate_fault(&circuit, &FaultSite { tick: 0, error: logical });
        assert!(effect.detectors.is_empty());
        // A logical X error anticommutes with Z̄ and therefore flips the
        // logical-Z readout, which is observable index 0.
        assert_eq!(effect.observables, vec![0]);
    }

    #[test]
    fn ancilla_windows_track_activity() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        assert_eq!(circuit.ancilla_windows().len(), 6);
        for (s, &(first, last)) in circuit.ancilla_windows().iter().enumerate() {
            let ticks: Vec<usize> =
                schedule.checks().iter().filter(|c| c.stabilizer == s).map(|c| c.tick).collect();
            assert_eq!(first, *ticks.iter().min().unwrap());
            assert_eq!(last, *ticks.iter().max().unwrap());
        }
    }

    #[test]
    fn sensitivities_match_forward_propagation() {
        let code = rotated_surface_code(3);
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let sweep = Sensitivities::sweep(&circuit);
        let r = circuit.num_stabilizers();
        for tick in 0..=circuit.depth() {
            for qubit in 0..circuit.num_qubits() {
                for pauli in Pauli::ERRORS {
                    let mut signature = vec![0u64; sweep.words()];
                    sweep.xor_into(&mut signature, tick, qubit, pauli);
                    let effect = single(&circuit, tick, qubit, pauli);
                    let mut expected = vec![0u64; sweep.words()];
                    let observables = effect.observables.iter().map(|o| o + 2 * r);
                    for bit in effect.detectors.iter().copied().chain(observables) {
                        expected[bit / 64] |= 1 << (bit % 64);
                    }
                    assert_eq!(signature, expected, "tick {tick}, qubit {qubit}, {pauli:?}");
                }
            }
        }
    }

    #[test]
    fn idle_tracking() {
        let code = steane_code();
        let schedule = Schedule::trivial(&code);
        let circuit = RoundCircuit::new(&code, &schedule).unwrap();
        let check = schedule.checks()[0];
        assert!(!circuit.is_data_idle(check.data, check.tick));
        assert!(!circuit.is_ancilla_idle(check.stabilizer, check.tick));
    }
}
