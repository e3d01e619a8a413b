//! The `aligraph` binary: [`aligraph_cli::main`].

fn main() -> std::process::ExitCode {
    aligraph_cli::main()
}
