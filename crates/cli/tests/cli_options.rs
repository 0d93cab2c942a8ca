//! `dpod` checks every option against the keys its command reads before
//! doing any work: a misspelled key or a repeated one (other than
//! `--range`) fails the command instead of being silently ignored.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dpod(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpod"))
        .args(args)
        .output()
        .expect("run dpod")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory for one test holding a small trips file.
fn scratch_with_trips(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dpod-cli-options-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trips = dir.join("trips.csv");
    let out = dpod(&[
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
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    (dir, trips)
}

/// Runs `dpod publish` of `trips` into `catalog` with `extra` options.
fn publish(trips: &Path, catalog: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "publish",
        "--input",
        trips.to_str().unwrap(),
        "--name",
        "city",
        "--catalog",
        catalog.to_str().unwrap(),
        "--cells",
        "4",
        "--mechanism",
        "identity",
    ];
    args.extend_from_slice(extra);
    dpod(&args)
}

#[test]
fn misspelled_option_fails_before_publishing() {
    let (dir, trips) = scratch_with_trips("typo");
    let catalog = dir.join("catalog");
    let out = publish(
        &trips,
        &catalog,
        &["--epoch", "1", "--series-budgt", "0.5", "--epsilon", "1"],
    );
    assert!(!out.status.success(), "a misspelled option must fail");
    assert!(stderr(&out).contains("--series-budgt"), "{}", stderr(&out));
    assert!(!catalog.exists(), "nothing may be published");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_option_fails_but_range_repeats() {
    let (dir, trips) = scratch_with_trips("repeat");
    let catalog = dir.join("catalog");
    let out = publish(&trips, &catalog, &["--epsilon", "0.4", "--epsilon", "9"]);
    assert!(!out.status.success(), "a repeated option must fail");
    assert!(
        stderr(&out).contains("--epsilon given more than once"),
        "{}",
        stderr(&out)
    );
    assert!(!catalog.exists(), "nothing may be published");

    let release = dir.join("release.json");
    let out = dpod(&[
        "sanitize",
        "--input",
        trips.to_str().unwrap(),
        "--cells",
        "4",
        "--epsilon",
        "1",
        "--mechanism",
        "identity",
        "--out",
        release.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "sanitize failed: {}", stderr(&out));
    let out = dpod(&[
        "query",
        "--release",
        release.to_str().unwrap(),
        "--range",
        "total",
        "--range",
        "top:2",
    ]);
    assert!(
        out.status.success(),
        "--range must repeat: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `dpod serve` has no retention timer and no per-release marginal cap
/// option: `dpod publish --retain` retires epochs on disk, and each
/// release index memoizes up to a fixed 64 MiB of marginal tables.
#[test]
fn serve_refuses_removed_options() {
    let catalog =
        std::env::temp_dir().join(format!("dpod-cli-options-gone-{}", std::process::id()));
    for (key, value) in [("--retain-ttl", "5"), ("--index-mb", "8")] {
        let out = dpod(&["serve", "--catalog", catalog.to_str().unwrap(), key, value]);
        assert!(!out.status.success(), "{key} must be refused");
        assert!(
            stderr(&out).contains(&format!("unknown option {key}")),
            "{}",
            stderr(&out)
        );
    }
    assert!(!catalog.exists(), "nothing may be created");
}
