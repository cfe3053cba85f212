//! Failure-injection tests: malformed codes, schedules and configurations
//! must surface as typed errors (never panics) at the public API boundary.

use asyndrome::circuit::{Check, CircuitError, DetectorErrorModel, NoiseModel, Schedule};
use asyndrome::codes::{steane_code, CodeError, CssCode, StabilizerCode};
use asyndrome::core::industry::google_surface_schedule;
use asyndrome::core::{MctsConfig, MctsScheduler, Scheduler, SchedulerError};
use asyndrome::decode::BpOsdFactory;
use asyndrome::pauli::{BinMatrix, Pauli, SparsePauli};

#[test]
fn css_orthogonality_violations_are_reported() {
    let hx = BinMatrix::from_dense(&[&[1, 1, 0]]);
    let hz = BinMatrix::from_dense(&[&[1, 0, 0]]);
    let result = CssCode::new(hx, hz).build("broken", "broken", 1);
    assert_eq!(result.unwrap_err(), CodeError::CssOrthogonalityViolated);
}

#[test]
fn custom_codes_with_anticommuting_generators_fail_validation() {
    let code = StabilizerCode::new(
        "broken",
        "broken",
        2,
        1,
        vec![SparsePauli::uniform(&[0], Pauli::X), SparsePauli::uniform(&[0], Pauli::Z)],
        vec![],
        vec![],
    );
    assert!(matches!(code.validate(), Err(CodeError::AnticommutingStabilizers { .. })));
}

#[test]
fn schedules_with_missing_or_duplicated_checks_are_rejected() {
    let code = steane_code();
    // Missing checks.
    let incomplete =
        Schedule::new(7, 6, vec![Check { data: 0, stabilizer: 0, pauli: Pauli::X, tick: 1 }]);
    assert!(matches!(incomplete.validate(&code), Err(CircuitError::IncompleteStabilizer { .. })));

    // Duplicated check.
    let mut checks: Vec<Check> = Schedule::trivial(&code).checks().to_vec();
    let duplicate = checks[0];
    checks.push(Check { tick: duplicate.tick + 20, ..duplicate });
    let duplicated = Schedule::new(7, 6, checks);
    assert!(duplicated.validate(&code).is_err());
}

#[test]
fn zero_tick_schedules_are_rejected() {
    let code = steane_code();
    let mut checks: Vec<Check> = Schedule::trivial(&code).checks().to_vec();
    checks[0].tick = 0;
    let schedule = Schedule::new(7, 6, checks);
    assert_eq!(schedule.validate(&code), Err(CircuitError::ZeroTick));
}

#[test]
fn dem_construction_rejects_invalid_noise() {
    let code = steane_code();
    let schedule = Schedule::trivial(&code);
    let noise = NoiseModel::brisbane().with_data_multipliers(vec![-2.0]);
    assert!(matches!(
        DetectorErrorModel::build(&code, &schedule, &noise),
        Err(CircuitError::InvalidParameter { .. })
    ));
}

#[test]
fn dem_construction_rejects_out_of_range_checks() {
    // `build` does not run `Schedule::validate`, but it must still refuse
    // checks it cannot index instead of panicking.
    let code = steane_code();
    let noise = NoiseModel::brisbane();
    let malformed = |edit: fn(&mut Check)| {
        let mut checks: Vec<Check> = Schedule::trivial(&code).checks().to_vec();
        edit(&mut checks[5]);
        DetectorErrorModel::build(&code, &Schedule::new(7, 6, checks), &noise)
    };
    assert_eq!(malformed(|c| c.tick = 0), Err(CircuitError::ZeroTick));
    assert!(matches!(
        malformed(|c| c.stabilizer = 6),
        Err(CircuitError::CheckMismatch { stabilizer: 6, .. })
    ));
    assert!(matches!(malformed(|c| c.data = 7), Err(CircuitError::CheckMismatch { data: 7, .. })));
}

#[test]
fn google_schedule_needs_a_layout() {
    // The Steane code has no planar layout, so the geometric scheduler must
    // refuse rather than guess.
    assert!(matches!(
        google_surface_schedule(&steane_code()),
        Err(SchedulerError::MissingLayout { .. })
    ));
}

#[test]
fn mcts_rejects_degenerate_configurations() {
    let code = steane_code();
    for config in [
        MctsConfig { iterations_per_step: 0, ..MctsConfig::quick() },
        MctsConfig { shots_per_evaluation: 0, ..MctsConfig::quick() },
    ] {
        let scheduler = MctsScheduler::new(
            NoiseModel::paper(),
            std::sync::Arc::new(BpOsdFactory::new()),
            config,
        );
        assert!(matches!(scheduler.schedule(&code), Err(SchedulerError::InvalidConfig { .. })));
    }
}

#[test]
#[should_panic(expected = "probability")]
fn noise_probabilities_outside_unit_interval_panic_at_construction() {
    let _ = NoiseModel::uniform(0.0, 2.0, 0.0);
}
