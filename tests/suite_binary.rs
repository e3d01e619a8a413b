//! The root binary (`cargo run --release -- <command>`) is the `aligraph`
//! binary: both `main`s are one call to `aligraph_cli::main`.

use std::process::{Command, Stdio};

#[test]
fn the_root_binary_exits_0_on_a_closed_stdout() {
    // The read end is gone before the child starts, so its first write to
    // stdout fails with EPIPE whatever the scheduling.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_aligraph-suite"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn aligraph-suite");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Empty, so in particular no `panicked at … failed printing to stdout`.
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0));
}
