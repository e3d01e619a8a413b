//! Workspace-root binary: the acceptance-criteria entry point
//! (`cargo run --release -- <command> ...`). Like the `aligraph` binary, it
//! is a call to [`aligraph_cli::main`].

fn main() -> std::process::ExitCode {
    aligraph_cli::main()
}
