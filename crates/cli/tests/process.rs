//! The `real` binary as a process: zero sizes are rejected with an error
//! that names the flag or field (exit 1, no panic), and a reader that has
//! closed its end of stdout does not make the binary panic.

use std::process::{Command, Output, Stdio};

fn real(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_real"))
        .args(args)
        .output()
        .expect("spawn real")
}

/// Asserts `real args` fails cleanly with an error that mentions `needle`.
fn rejects(args: &[&str], needle: &str) {
    let out = real(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
}

#[test]
fn zero_iterations_flag_is_rejected() {
    rejects(
        &[
            "run",
            "--batch",
            "32",
            "--quick-profile",
            "--heuristic",
            "--iters",
            "0",
        ],
        "--iters must be positive",
    );
}

#[test]
fn zero_batch_flag_is_rejected() {
    rejects(
        &["plan", "--batch", "0", "--quick-profile", "--heuristic"],
        "--batch must be positive",
    );
}

#[test]
fn zero_iterations_in_a_workload_template_is_rejected() {
    let path = std::env::temp_dir().join(format!("real-zero-iters-{}.json", std::process::id()));
    let workload = r#"{
        "nodes": 1,
        "arrivals": {"Trace": {"times_secs": [0.0]}},
        "templates": [{"tenant": {"name": "idle", "algo": "dpo", "actor": "7b",
                                  "batch": 32, "iterations": 0}}]
    }"#;
    std::fs::write(&path, workload).unwrap();
    rejects(
        &["serve", "--workload", path.to_str().unwrap()],
        "tenant `idle`: iterations must be > 0",
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn closed_stdout_exits_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_real"))
        .arg("models")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn real");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
