//! Figure 10: per-batch running time and memory (working set) of AHEP vs
//! HEP on the Taobao-small simulator.
//!
//! Paper shape: AHEP is 2–3× faster than HEP and uses much less memory,
//! because it samples a handful of neighbors per node type instead of
//! propagating from all of them.

use aligraph::models::hep::{train_hep, HepConfig};
use aligraph_bench::{f, header, row};
use aligraph_graph::generate::TaobaoConfig;

#[expect(clippy::expect_used, reason = "an experiment aborts on a broken fixture")]
fn main() {
    println!("# Figure 10 — per-batch cost of AHEP vs HEP\n");
    // A dense behavior graph (mean degree ~40): embedding propagation's cost
    // is linear in neighborhood size, which is exactly what AHEP attacks.
    let graph = TaobaoConfig {
        users: 1_500,
        items: 150,
        ui_edges: 45_000,
        ii_edges: 4_000,
        user_attr_fields: 27,
        item_attr_fields: 32,
        attr_profiles: 128,
        reverse_ui_prob: 0.3,
        interest_clusters: 8,
        seed: 0xf16a,
    }
    .generate()
    .expect("valid config");
    let dim = 64;
    let mut hep_cfg = HepConfig::hep_quick(dim);
    hep_cfg.epochs = 2;
    hep_cfg.batches_per_epoch = 8;
    let mut ahep_cfg = HepConfig::ahep_quick(dim, 5);
    ahep_cfg.epochs = 2;
    ahep_cfg.batches_per_epoch = 8;

    let hep = train_hep(&graph, &hep_cfg);
    let ahep = train_hep(&graph, &ahep_cfg);

    header(&["method", "ms / batch", "working set KB / batch"]);
    row(&["HEP".into(), f(hep.cost.ms_per_batch, 2), f(hep.cost.bytes_per_batch / 1024.0, 1)]);
    row(&["AHEP".into(), f(ahep.cost.ms_per_batch, 2), f(ahep.cost.bytes_per_batch / 1024.0, 1)]);
    println!(
        "\nAHEP speedup: {:.1}x   memory reduction: {:.1}x",
        hep.cost.ms_per_batch / ahep.cost.ms_per_batch,
        hep.cost.bytes_per_batch / ahep.cost.bytes_per_batch
    );
    println!("paper: AHEP 2-3x faster, much less memory; several competitors cannot run at all at this scale.");
}
