//! Drives the built binary: the smoke pass over all five workloads (so
//! they cannot rot between full runs), count metrics repeating exactly
//! for one seed, another seed changing the inputs and still passing
//! every reply check, and a corrupted reference reply counted as a
//! failed op.
//!
//! One test function: the runs pin themselves to one CPU, and exact
//! counts are only promised to a run that has it to itself.

use std::process::Command;
use std::time::Instant;

// The crate is a binary; its JSON reader is shared by path.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
use json::Value;

const WORKLOADS: [&str; 5] = [
    "warm_get",
    "compute_fletcher",
    "durable_put",
    "cold_deploy",
    "fleet_lossy",
];

/// Runs the binary; returns its stdout lines before the last, and the
/// last line parsed.
fn run(args: &[&str]) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_fc-benchmark"))
        .args(args)
        .output()
        .expect("binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("a summary line");
    (lines, Value::parse(&last).expect("summary is JSON"))
}

fn number(summary: &Value, key: &str) -> f64 {
    let value = summary.get(key).and_then(Value::as_f64);
    value.unwrap_or_else(|| panic!("{key} in the summary"))
}

fn metric(summary: &Value, name: &str) -> f64 {
    let entry = summary.get("metrics").and_then(|m| m.get(name));
    let value = entry.and_then(|m| m.get("value")).and_then(Value::as_f64);
    value.unwrap_or_else(|| panic!("{name} in the metrics"))
}

fn correct(summary: &Value) -> bool {
    summary.get("correct") == Some(&Value::Bool(true))
}

fn fingerprint(table: &[String]) -> String {
    table
        .iter()
        .find_map(|l| l.split_once("input_fingerprint "))
        .map(|(_, f)| f.trim().to_owned())
        .expect("a fingerprint line")
}

#[test]
fn smoke_determinism_and_failure_counting() {
    // All five workloads, one tiny round each, every correctness check.
    let started = Instant::now();
    let (_, all) = run(&["run", "--smoke"]);
    let took = started.elapsed();
    for workload in WORKLOADS {
        let summary = all
            .get(workload)
            .unwrap_or_else(|| panic!("{workload} ran"));
        assert!(correct(summary), "{workload}");
        assert_eq!(number(summary, "failed"), 0.0, "{workload}");
        assert!(number(summary, "attempted") >= 100.0, "{workload}");
    }
    // Under 5 s in a release build; a debug build gets slack.
    let limit = if cfg!(debug_assertions) { 60 } else { 5 };
    assert!(took.as_secs() < limit, "smoke took {took:?}");

    for workload in WORKLOADS {
        let args = |seed: &'static str| ["run", "--smoke", "--workload", workload, "--seed", seed];
        let (table_a, a) = run(&args("1"));
        let (table_b, b) = run(&args("1"));
        // Same seed: the same inputs, and counts equal to the digit.
        assert_eq!(fingerprint(&table_a), fingerprint(&table_b), "{workload}");
        for name in ["sim_cycles_per_op", "virtual_us_per_op"] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}/{name}");
        }
        // One tiny round can differ by a few allocations in ten thousand
        // (whether a thread had to park at a window boundary); a full
        // run prints the median of sixty rounds, which repeats to five
        // digits. The metric's own bound is 1 %.
        let (x, y) = (metric(&a, "allocs_per_op"), metric(&b, "allocs_per_op"));
        assert!(
            (x - y).abs() / x < 1e-2,
            "{workload}/allocs_per_op: {x} vs {y}"
        );
        // Another seed: other inputs, every reply still checks out.
        let (table_c, c) = run(&args("2"));
        assert_ne!(fingerprint(&table_a), fingerprint(&table_c), "{workload}");
        assert!(correct(&c) && number(&c, "failed") == 0.0, "{workload}");
    }

    // A deliberately corrupted reference reply is one failed op.
    for workload in WORKLOADS {
        let (_, bad) = run(&[
            "run",
            "--smoke",
            "--workload",
            workload,
            "--corrupt-op",
            "30",
        ]);
        assert!(!correct(&bad), "{workload}");
        assert_eq!(number(&bad, "failed"), 1.0, "{workload}");
    }
}
