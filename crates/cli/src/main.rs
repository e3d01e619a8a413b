//! The `aligraph` binary: parse, dispatch, print, exit.

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match aligraph_cli::run(&argv) {
        // A reader that went away (`aligraph … | head`) ends the run cleanly;
        // `println!` would panic on the closed pipe.
        Ok(report) => match writeln!(std::io::stdout().lock(), "{report}") {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                eprintln!("error: cannot write to stdout: {e}");
                std::process::exit(1);
            }
            _ => {}
        },
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
