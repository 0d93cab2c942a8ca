//! Smoke-length self-test of the benchmark: every workload runs for one
//! second untraced and traced, and the test asserts that every metric
//! `BENCHMARK.json` names is printed with its unit, that nothing failed,
//! that the hit-ratio guards hold, and that the exact counts repeat
//! exactly between two traced runs of the same seed.
//!
//! Run with `cargo test --release --manifest-path dpodbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["analyst_hot", "analyst_cold", "curator_epochs"];
/// Per-layer counts that must be identical between runs of one seed.
const EXACT: [&str; 8] = [
    "core.partitions",
    "fmatrix.frame_bytes",
    "serve.publishes",
    "wire.request_bytes.binary",
    "wire.request_bytes.json",
    "wire.request_bytes.packed",
    "wire.response_bytes.binary",
    "wire.response_bytes.packed",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line, as the file is written).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

/// The string value of `"key": "value"` on one line.
fn field(line: &str, key: &str) -> String {
    let at = line.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = line[at..].trim_start_matches([':', ' ']);
    rest[1..rest[1..].find('"').expect("closing quote") + 1].to_string()
}

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_dpodbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// The value of metric `name` in a result line, checking its unit.
fn value(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    let comma = rest.find(',').expect("value ends");
    assert!(
        rest[comma..].starts_with(&format!(",\"unit\":\"{unit}\"}}")),
        "metric {name} lacks unit {unit}"
    );
    rest[..comma].parse().expect("numeric value")
}

fn check(result: &str, section: &str) {
    assert!(result.contains("\"correct\":true"), "{result}");
    assert!(result.contains("\"failed\":0,"), "{result}");
    for (name, unit) in declared(section) {
        let v = value(result, &name, &unit);
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    for workload in WORKLOADS {
        check(&run(workload, 3, 0), "end_to_end");
        let traced = run(workload, 3, 1);
        check(&traced, "per_layer");
        let ratio = value(&traced, "engine.encoded_hit_ratio", "ratio");
        match workload {
            "analyst_hot" => assert!(ratio >= 0.9, "analyst_hot encoded hit ratio {ratio}"),
            "analyst_cold" => assert!(ratio <= 0.1, "analyst_cold encoded hit ratio {ratio}"),
            _ => {}
        }
        let again = run(workload, 3, 1);
        for name in EXACT {
            let unit = if name.contains("bytes") {
                "bytes"
            } else {
                "count"
            };
            assert_eq!(
                value(&traced, name, unit),
                value(&again, name, unit),
                "{workload}: {name} differs between runs of one seed"
            );
        }
    }
}
