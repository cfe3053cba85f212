//! Fixture-driven rule tests: every rule gets at least one detection
//! (true positive) and one non-detection (false-positive guard), driven
//! by real Rust sources under `tests/fixtures/`.

use asynd_analysis::{analyze, Finding, SourceFile};

/// Parses one fixture as if it lived at `path` in crate `krate`.
fn fixture(name: &str, path: &str, krate: &str) -> SourceFile {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let source =
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    SourceFile::parse(path, krate, &source)
}

/// Runs the full pipeline on one fixture and keeps only `rule` findings.
fn findings_for(rule: &str, name: &str, path: &str, krate: &str) -> Vec<Finding> {
    analyze(&[fixture(name, path, krate)]).into_iter().filter(|f| f.rule == rule).collect()
}

fn unsuppressed(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.suppressed.is_none()).count()
}

// ---- nondet-iteration --------------------------------------------------

#[test]
fn nondet_iteration_detects_hash_iteration_in_canonical_root() {
    let found =
        findings_for("nondet-iteration", "nondet_detect.rs", "crates/demo/src/report.rs", "demo");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].function, "canonical_report");
    assert!(found[0].message.contains("entries"));
}

#[test]
fn nondet_iteration_ignores_noncanonical_and_sorted_uses() {
    let found =
        findings_for("nondet-iteration", "nondet_clean.rs", "crates/demo/src/tally.rs", "demo");
    assert!(found.is_empty(), "{found:?}");
}

// ---- wall-clock-in-canonical -------------------------------------------

#[test]
fn wall_clock_detects_instant_now_in_fingerprint_path() {
    let found = findings_for(
        "wall-clock-in-canonical",
        "wall_clock_detect.rs",
        "crates/demo/src/fp.rs",
        "demo",
    );
    assert!(!found.is_empty(), "expected a finding");
    assert_eq!(found[0].function, "fingerprint_run");
}

#[test]
fn wall_clock_ignores_benchmark_timing() {
    let found = findings_for(
        "wall-clock-in-canonical",
        "wall_clock_clean.rs",
        "crates/demo/src/bench.rs",
        "demo",
    );
    assert!(found.is_empty(), "{found:?}");
}

// ---- lock-order --------------------------------------------------------

#[test]
fn lock_order_detects_inverted_acquisition() {
    let found =
        findings_for("lock-order", "lock_order_detect.rs", "crates/demo/src/shared.rs", "demo");
    assert!(!found.is_empty(), "expected a finding");
    // One direction is flagged, and the note names the conflicting site
    // so the reader sees both halves of the inversion.
    let flagged = &found[0];
    assert!(matches!(flagged.function.as_str(), "transfer" | "reconcile"), "{found:?}");
    let other = if flagged.function == "transfer" { "reconcile" } else { "transfer" };
    assert!(
        flagged.note.as_deref().is_some_and(|n| n.contains(other)),
        "note names the conflicting site: {found:?}"
    );
}

#[test]
fn lock_order_accepts_consistent_acquisition() {
    let found =
        findings_for("lock-order", "lock_order_clean.rs", "crates/demo/src/shared.rs", "demo");
    assert!(found.is_empty(), "{found:?}");
}

// ---- unsafe-without-safety ---------------------------------------------

#[test]
fn unsafe_detects_unjustified_block() {
    let found =
        findings_for("unsafe-without-safety", "unsafe_detect.rs", "crates/demo/src/ptr.rs", "demo");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].function, "peek");
}

#[test]
fn unsafe_accepts_safety_comments_above_and_trailing() {
    let found =
        findings_for("unsafe-without-safety", "unsafe_clean.rs", "crates/demo/src/ptr.rs", "demo");
    assert!(found.is_empty(), "{found:?}");
}

// ---- panic-in-hot-path -------------------------------------------------

#[test]
fn panic_detects_unwrap_panic_and_indexing_in_hot_file() {
    let found =
        findings_for("panic-in-hot-path", "panic_detect.rs", "crates/net/src/conn.rs", "asynd-net");
    let kinds: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
    assert!(found.len() >= 3, "indexing + unwrap + panic!: {kinds:?}");
    assert!(kinds.iter().any(|m| m.contains("unwrap")), "{kinds:?}");
    assert!(kinds.iter().any(|m| m.contains("panic")), "{kinds:?}");
    assert!(kinds.iter().any(|m| m.contains("index")), "{kinds:?}");
}

#[test]
fn panic_rule_is_scoped_to_hot_files() {
    // The same crash-happy source outside the serving hot set is not
    // this rule's business.
    let found = findings_for(
        "panic-in-hot-path",
        "panic_detect.rs",
        "crates/circuit/src/eval.rs",
        "asynd-circuit",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn panic_rule_covers_the_v1_line_session() {
    // The v1 session decodes every peer line of both transports.
    let found = findings_for(
        "panic-in-hot-path",
        "panic_detect.rs",
        "crates/server/src/session.rs",
        "asynd-server",
    );
    assert!(found.len() >= 3, "{found:?}");
}

#[test]
fn panic_rule_covers_the_evaluator() {
    // Every served job goes through the shared evaluator cache.
    let found = findings_for(
        "panic-in-hot-path",
        "panic_detect.rs",
        "crates/circuit/src/evaluator.rs",
        "asynd-circuit",
    );
    assert!(found.len() >= 3, "{found:?}");
}

#[test]
fn panic_clean_patterns_and_suppressions_pass() {
    let found =
        findings_for("panic-in-hot-path", "panic_clean.rs", "crates/net/src/conn.rs", "asynd-net");
    assert_eq!(unsuppressed(&found), 0, "{found:?}");
    // The reasoned allow is recorded, not silently dropped.
    assert_eq!(found.iter().filter(|f| f.suppressed.is_some()).count(), 1, "{found:?}");
}

// ---- cast-truncation ---------------------------------------------------

#[test]
fn cast_truncation_detects_unchecked_length_narrowing() {
    let found =
        findings_for("cast-truncation", "cast_detect.rs", "crates/demo/src/codec.rs", "demo");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].function, "encode_header");
}

#[test]
fn cast_truncation_accepts_checked_conversion_and_nonlength_casts() {
    let found =
        findings_for("cast-truncation", "cast_clean.rs", "crates/demo/src/codec.rs", "demo");
    assert!(found.is_empty(), "{found:?}");
}

// ---- cross-cutting: suppression hygiene --------------------------------

#[test]
fn reasonless_suppression_markers_are_inert() {
    // `allow(...)` without `-- reason` must not suppress anything.
    let src = "pub fn peek(bytes: &[u8]) -> u8 {\n    \
               unsafe { *bytes.as_ptr() } // asynd-lint: allow(unsafe-without-safety)\n}\n";
    let file = SourceFile::parse("crates/demo/src/ptr.rs", "demo", src);
    let found: Vec<Finding> =
        analyze(&[file]).into_iter().filter(|f| f.rule == "unsafe-without-safety").collect();
    assert_eq!(found.len(), 1);
    assert!(found[0].suppressed.is_none(), "no reason, no suppression: {found:?}");
}

#[test]
fn standalone_suppression_covers_the_next_code_line() {
    let src = "pub fn f(m: &std::collections::HashMap<String, u64>) -> String {\n    \
               let mut out = String::new();\n    \
               // asynd-lint: allow(nondet-iteration) -- demo of standalone coverage\n    \
               for (k, _) in m {\n        out.push_str(k);\n    }\n    out\n}\n\
               pub fn canonical_wrap(m: &std::collections::HashMap<String, u64>) -> String { f(m) }\n";
    let file = SourceFile::parse("crates/demo/src/sup.rs", "demo", src);
    let found: Vec<Finding> =
        analyze(&[file]).into_iter().filter(|f| f.rule == "nondet-iteration").collect();
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].suppressed.is_some(), "standalone allow covers the for line: {found:?}");
}
