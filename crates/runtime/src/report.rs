//! The distributed-training report: throughput, modelled makespan,
//! staleness histogram, and comm traffic split by tier.

use aligraph_storage::{AccessStatsSnapshot, TierMeterSnapshot};
use std::fmt;

/// Per-worker totals over the steps this call ran: a resumed run counts
/// from its checkpoint, a recovered one from its restore point. Report-only:
/// none of them is checkpointed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Positive edges consumed.
    pub edges: u64,
    /// Measured compute nanoseconds (this worker's own steps).
    pub busy_ns: u64,
    /// Modelled comm nanoseconds (PS pushes/pulls/reads under the cost
    /// model).
    pub comm_ns: u64,
    /// Wall-clock nanoseconds blocked waiting for a cut or at a rendezvous
    /// (the leader's work included; in series none waits). Reported only.
    pub wait_ns: u64,
}

/// Outcome metrics of one distributed training run.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Worker count.
    pub workers: usize,
    /// Bounded-staleness parameter `s`.
    pub staleness: u64,
    /// Mean contrastive loss per epoch (cluster-wide).
    pub epoch_losses: Vec<f64>,
    /// Per-worker totals.
    pub per_worker: Vec<WorkerReport>,
    /// `hist[a]` = steps computed on a replica `a` steps stale (summed over
    /// workers, over the steps this call ran); length `s + 1`.
    pub staleness_hist: Vec<u64>,
    /// Total positive edges consumed across workers in the steps this call
    /// ran.
    pub edges_total: u64,
    /// Wall-clock nanoseconds of this call as executed on this machine,
    /// fault recoveries included. The workers share this machine's cores,
    /// so this is far from what `p` machines would take.
    pub wall_ns: u64,
    /// Modelled cluster makespan of the steps this call ran: `max` over
    /// workers of busy + comm time — what `p` real machines would take, if
    /// each worker's measured busy time were its own machine's.
    pub makespan_ns: u64,
    /// Parameter-server traffic by tier.
    pub ps: TierMeterSnapshot,
    /// Graph-adjacency traffic (neighbor reads through the cluster).
    pub adjacency: AccessStatsSnapshot,
    /// Checkpoints written during the run.
    pub checkpoints_written: u64,
    /// Fault recoveries performed (checkpoint restores mid-run).
    pub recoveries: u64,
    /// Faults the chaos plane injected (drops, delays, lost acks,
    /// corruptions, replayed duplicates, crashes, checkpoint flips).
    pub faults_injected: u64,
    /// Message retries the recovery machinery performed.
    pub retries: u64,
    /// Elastic topology changes applied at epoch boundaries (shard splits
    /// or merges, with their PS row re-homes).
    pub rebalances: u64,
}

impl DistReport {
    /// Final epoch loss.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }

    /// Modelled throughput: edges/s at the cluster makespan.
    pub fn modeled_edges_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.edges_total as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// As-executed throughput on this machine.
    pub fn wall_edges_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.edges_total as f64 / (self.wall_ns as f64 / 1e9)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for DistReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workers {}  staleness {}  epochs {}  edges {}",
            self.workers,
            self.staleness,
            self.epoch_losses.len(),
            self.edges_total
        )?;
        writeln!(
            f,
            "loss {:.6} (first {:.6})",
            self.final_loss(),
            self.epoch_losses.first().copied().unwrap_or(f64::NAN)
        )?;
        writeln!(
            f,
            "throughput {:.0} edges/s modeled (makespan {:.1} ms), {:.0} edges/s as-executed ({:.1} ms wall)",
            self.modeled_edges_per_sec(),
            ms(self.makespan_ns),
            self.wall_edges_per_sec(),
            ms(self.wall_ns)
        )?;
        write!(f, "wait at cuts and rendezvous:")?;
        for (w, report) in self.per_worker.iter().enumerate() {
            write!(f, "  w{w} {:.1} ms", ms(report.wait_ns))?;
        }
        writeln!(f)?;
        write!(f, "staleness hist [")?;
        for (a, &n) in self.staleness_hist.iter().enumerate() {
            write!(f, "{}{a}:{n}", if a == 0 { "" } else { " " })?;
        }
        writeln!(f, "]")?;
        writeln!(
            f,
            "ps comm: local {} msgs / {} B, cached {} msgs / {} B, remote {} msgs / {} B, cold {} msgs / {} B ({:.2} ms virtual)",
            self.ps.local_ops,
            self.ps.local_bytes,
            self.ps.cached_ops,
            self.ps.cached_bytes,
            self.ps.remote_ops,
            self.ps.remote_bytes,
            self.ps.cold_ops,
            self.ps.cold_bytes,
            self.ps.virtual_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "adjacency: local {}, cached {}, remote {}, cold {} ({:.2} ms virtual)",
            self.adjacency.local,
            self.adjacency.cached_remote,
            self.adjacency.remote,
            self.adjacency.cold,
            self.adjacency.virtual_ns as f64 / 1e6
        )?;
        write!(
            f,
            "checkpoints {}  recoveries {}  faults {}  retries {}  rebalances {}",
            self.checkpoints_written,
            self.recoveries,
            self.faults_injected,
            self.retries,
            self.rebalances
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math_and_display() {
        let r = DistReport {
            workers: 2,
            staleness: 1,
            epoch_losses: vec![0.9, 0.5],
            per_worker: vec![
                WorkerReport {
                    edges: 500,
                    busy_ns: 1_000_000,
                    ..WorkerReport::default()
                };
                2
            ],
            staleness_hist: vec![3, 7],
            edges_total: 1_000,
            wall_ns: 2_000_000,
            makespan_ns: 1_000_000,
            ..DistReport::default()
        };
        // 1000 edges in 1 ms modeled = 1M edges/s; wall is 2 ms = 500k.
        assert!((r.modeled_edges_per_sec() - 1e6).abs() < 1.0);
        assert!((r.wall_edges_per_sec() - 5e5).abs() < 1.0);
        assert_eq!(r.final_loss(), 0.5);
        let text = r.to_string();
        assert!(text.contains("workers 2"));
        assert!(text.contains("0:3 1:7"));
        assert!(!DistReport::default().to_string().is_empty());
    }
}
