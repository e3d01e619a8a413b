#![forbid(unsafe_code)]
//! Fixture: both halves of the channel contract broken.
//! * `fire` sends through the fault plane's `.deliver(…)` driver with no
//!   sequence identifier in scope — one violation.
//! * `notify` does a raw `.send(…)` with no `seq` in the message — one.

/// Driver call whose sequence number is a literal, not a `ChannelSeqs`
/// assignment.
pub fn fire(plane: &FaultPlane, policy: &RetryPolicy) {
    plane.deliver(0, 0, policy, RecoveryMode::Full, HopKind::Acked, || {}).ok();
}

/// Unsequenced inter-shard send on a non-reply channel.
pub fn notify(tx: &Sender<Msg>) {
    tx.send(Msg::Bare(1)).ok();
}
