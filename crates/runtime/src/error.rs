//! Runtime error type. Every lock/IO/shape failure in the training runtime
//! propagates through [`RuntimeError`] instead of panicking — the hot paths
//! are `unwrap`-free by construction.

use std::fmt;

/// Failure modes of the distributed training runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Invalid runtime configuration (caught before any thread spawns).
    Config(String),
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(String),
    /// A worker aborted the run with an unrecoverable error.
    Unrecoverable(String),
    /// A shared lock was poisoned by a panicking thread.
    Poisoned(&'static str),
    /// A worker drained the parameter server before every worker had
    /// pushed the steps below its cut.
    DrainBeforeCut {
        /// The draining worker.
        worker: usize,
        /// Its cut: the steps every worker must have pushed.
        cut: u64,
        /// The first worker that has pushed fewer.
        behind: usize,
    },
    /// The injected fault fired (internal: the attempt loop converts this
    /// into a restore-and-retry; it only escapes if recovery keeps failing).
    Fault {
        /// Worker that was killed.
        worker: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(m) => write!(f, "invalid runtime config: {m}"),
            RuntimeError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            RuntimeError::Unrecoverable(m) => write!(f, "training aborted: {m}"),
            RuntimeError::Poisoned(what) => write!(f, "poisoned lock: {what}"),
            RuntimeError::DrainBeforeCut { worker, cut, behind } => {
                write!(f, "worker {worker} drained at cut {cut} before worker {behind} reached it")
            }
            RuntimeError::Fault { worker } => write!(f, "worker {worker} killed by fault plan"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Checkpoint(format!("io: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(RuntimeError::Config("bad".into()).to_string().contains("bad"));
        assert!(RuntimeError::Checkpoint("short".into()).to_string().contains("checkpoint"));
        assert!(RuntimeError::Fault { worker: 3 }.to_string().contains('3'));
        let io: RuntimeError = std::io::Error::other("disk gone").into();
        assert!(io.to_string().contains("disk gone"));
    }
}
