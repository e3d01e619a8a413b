//! Workspace-root binary: the acceptance-criteria entry point
//! (`cargo run --release -- <command> ...`) — a shim over
//! [`aligraph_cli::run`], identical in behavior to the `aligraph` binary.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match aligraph_cli::run(&argv) {
        Ok(report) => println!("{report}"),
        Err(aligraph_cli::CliError::Usage(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        Err(aligraph_cli::CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
