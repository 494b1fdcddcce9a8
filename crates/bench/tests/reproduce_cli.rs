//! `reproduce` command-line contract: a mistyped experiment or flag is a
//! usage error (exit 2, usage on stderr, nothing run, no bench record),
//! never a silent successful run of nothing; every named experiment runs,
//! in the order given.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltsp-reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_usage_error(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: {out:?}");
    assert!(out.stdout.is_empty(), "{what}: nothing printed on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: reproduce"), "{what}: {stderr}");
}

#[test]
fn unknown_experiment_is_a_usage_error_and_writes_no_record() {
    let record = scratch("unknown.json");
    let out = reproduce(&["fig77", "--bench-out", record.to_str().unwrap()]);
    assert_usage_error(&out, "fig77");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fig77"),
        "the error names the bad experiment"
    );
    assert!(!record.exists(), "no bench record for a run of nothing");
}

#[test]
fn unknown_or_valueless_flag_is_a_usage_error() {
    let record = scratch("flag.json");
    let path = record.to_str().unwrap();
    for args in [
        vec!["--scal", "0.1", "--bench-out", path],
        vec!["fig5", "--bench-out", path, "--trace-out"],
    ] {
        assert_usage_error(&reproduce(&args), &args.join(" "));
        assert!(!record.exists(), "{args:?} wrote a record");
    }
}

#[test]
fn known_experiment_runs_and_records_only_itself() {
    let record = scratch("fig5.json");
    let out = reproduce(&["fig5", "--bench-out", record.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Fig. 5"));
    let text = std::fs::read_to_string(&record).expect("record written");
    assert!(text.contains("\"which\": \"fig5\""), "{text}");
    assert!(text.contains("{\"name\": \"fig5\""), "{text}");
    let _ = std::fs::remove_file(&record);
}

#[test]
fn every_named_experiment_runs_in_order_and_records_itself() {
    let record = scratch("fig9-fig5.json");
    let path = record.to_str().unwrap();
    let out = reproduce(&[
        "fig9",
        "fig5",
        "fig9",
        "--scale",
        "0.05",
        "--bench-out",
        path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("Fig. 9"),
        "first named runs first: {stdout}"
    );
    assert_eq!(
        stdout.matches("Fig. 9").count(),
        1,
        "a repeated name runs once"
    );
    assert!(
        stdout.contains("\nFig. 5"),
        "the second name runs too: {stdout}"
    );
    let text = std::fs::read_to_string(&record).expect("record written");
    assert!(text.contains("\"which\": \"fig9,fig5\""), "{text}");
    for name in ["fig5", "fig9"] {
        assert!(text.contains(&format!("{{\"name\": \"{name}\"")), "{text}");
    }
    let _ = std::fs::remove_file(&record);
}
