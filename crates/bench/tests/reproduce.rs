//! The `reproduce` binary at `--tiny` scale: Fig. 7 is computed from the
//! Fig. 6 of the same invocation, never from a file left in `--out`, and
//! a result that cannot be written fails the run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpod-reproduce-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str]) {
    let out = reproduce(args);
    assert!(
        out.status.success(),
        "reproduce {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fig7_ignores_a_stale_fig6_in_the_out_dir() {
    let dir = scratch("fig7");
    let (decoy, fresh) = (dir.join("decoy"), dir.join("fresh"));
    let (decoy, fresh) = (decoy.to_str().unwrap(), fresh.to_str().unwrap());
    // A Fig. 6 of another seed sits where fig7 writes.
    run_ok(&["fig6", "--tiny", "--seed", "1", "--out", decoy]);
    run_ok(&["fig7", "--tiny", "--seed", "2", "--out", decoy]);
    run_ok(&["fig7", "--tiny", "--seed", "2", "--out", fresh]);
    let read = |d: &str| std::fs::read(PathBuf::from(d).join("fig7.json")).unwrap();
    assert_eq!(read(decoy), read(fresh));
    // The same invocation shares its Fig. 6 with Fig. 7.
    let both = dir.join("both");
    run_ok(&[
        "fig6",
        "fig7",
        "--tiny",
        "--seed",
        "2",
        "--out",
        both.to_str().unwrap(),
    ]);
    assert_eq!(std::fs::read(both.join("fig7.json")).unwrap(), read(fresh));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_out_dir_fails_the_run() {
    let dir = scratch("unwritable");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    for id in ["fig3", "table3"] {
        let out = reproduce(&[id, "--tiny", "--out", file.to_str().unwrap()]);
        assert!(!out.status.success(), "{id} must fail when --out is a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}
