//! Command-line contract of the `repro` binary: flags it does not know, and
//! values it cannot use, are usage errors (exit 2) rather than silently
//! ignored. Every case runs the cheap `table1` subcommand.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("LTSE_JOBS")
        .output()
        .expect("run repro")
}

#[test]
fn usage_errors_exit_2_and_name_the_problem() {
    let cases: [(&[&str], &str); 8] = [
        (&["--no-cache", "table1"], "--no-cache"),
        (&["--cache-dir", "/tmp/x", "table1"], "--cache-dir"),
        (&["--cache-dir=/tmp/x", "table1"], "--cache-dir"),
        (&["--quik", "table1"], "--quik"),
        (&["--quick=1", "table1"], "--quick"),
        (&["--jobs", "0", "table1"], "positive integer"),
        (&["--jobs=0", "table1"], "positive integer"),
        (&["table1", "table2"], "table2"),
    ];
    for (args, named) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} must name {named}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs after a usage error");
    }
}

#[test]
fn known_flags_in_both_forms_run() {
    let out = repro(&["--quick", "--jobs=2", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("Table 1: system model parameters"), "{text}");

    let spaced = repro(&["--quick", "--jobs", "2", "--", "table1"]);
    assert_eq!(spaced.status.code(), Some(0));
    assert_eq!(spaced.stdout, out.stdout);
}
