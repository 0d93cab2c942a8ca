//! The differencing-attack regression: two default `dpod sanitize` runs
//! over the same trips must not share a noise vector, while `--seed`
//! reproduces one exactly and warns that it does.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dpod(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_dpod"))
        .args(args)
        .output()
        .expect("run dpod");
    assert!(
        out.status.success(),
        "dpod {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A scratch directory unique to this test process.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpod-noise-seed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sanitizes `trips` with the identity mechanism (pure per-cell noise),
/// returning the release JSON and stderr.
fn sanitize(trips: &Path, extra: &[&str]) -> (String, String) {
    let input = trips.to_str().unwrap();
    let mut args = vec![
        "sanitize",
        "--input",
        input,
        "--cells",
        "4",
        "--epsilon",
        "1.0",
        "--mechanism",
        "identity",
    ];
    args.extend_from_slice(extra);
    let out = dpod(&args);
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn default_seeds_differ_and_fixed_seeds_warn() {
    let dir = scratch();
    let trips = dir.join("trips.csv");
    dpod(&[
        "generate",
        "--city",
        "newyork",
        "--trips",
        "300",
        "--stops",
        "0",
        "--seed",
        "1",
        "--out",
        trips.to_str().unwrap(),
    ]);

    let (first, first_err) = sanitize(&trips, &[]);
    let (second, _) = sanitize(&trips, &[]);
    assert!(
        first.contains("\"IDENTITY\""),
        "unexpected release: {first}"
    );
    assert_ne!(first, second, "two default releases share their noise");
    assert!(
        !first_err.contains("warning"),
        "unexpected warning: {first_err}"
    );

    let (fixed, fixed_err) = sanitize(&trips, &["--seed", "5"]);
    let (again, _) = sanitize(&trips, &["--seed", "5"]);
    assert_eq!(fixed, again, "--seed must reproduce the release");
    assert!(
        fixed_err.contains("warning") && fixed_err.contains("deterministic"),
        "missing determinism warning: {fixed_err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
