//! `aligraph <cmd> | head`: a closed stdout is a clean exit, not a panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    // The read end is gone before the child starts, so its first write to
    // stdout fails with EPIPE whatever the scheduling.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_aligraph"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn aligraph");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Empty, so in particular no `panicked at … failed printing to stdout`.
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn a_misspelt_flag_exits_2_with_the_flag_named() {
    let out = Command::new(env!("CARGO_BIN_EXE_aligraph"))
        .args(["train-bench", "--resident-budjet", "1000"])
        .output()
        .expect("spawn aligraph");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no work was reported");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--resident-budjet"), "stderr: {stderr}");
}
