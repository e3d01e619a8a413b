//! Empirical validation of Theorems 1 and 2: on a power-law graph, the
//! k-hop in/out neighbor counts and the importance values `Imp^(k)` are
//! power-law distributed too — which is why caching a small head of
//! important vertices suffices (the premise behind Figures 8 and 9).

use aligraph_bench::{f, header, pct, row};
use aligraph_graph::generate::barabasi_albert;
use aligraph_graph::powerlaw::{fit_exponent, head_mass};
use aligraph_graph::{DegreeTable, ImportanceTable};

#[expect(clippy::expect_used, reason = "an experiment aborts on a broken fixture")]
fn main() {
    println!("# Theorems 1 & 2 — power-law propagation to k-hop degrees and importance\n");
    let graph = barabasi_albert(20_000, 4, 0x7e0u64).expect("valid config");
    let degrees = DegreeTable::compute(&graph, 2);
    let imp = ImportanceTable::from_degrees(&degrees);

    header(&["quantity", "fitted exponent α", "tail size", "top-20% mass share"]);
    let quantities: Vec<(&str, Vec<f64>)> = vec![
        ("D_i^(1)", degrees.d_in[0].iter().map(|&x| x as f64).collect()),
        ("D_o^(1)", degrees.d_out[0].iter().map(|&x| x as f64).collect()),
        ("D_i^(2)", degrees.d_in[1].iter().map(|&x| x as f64).collect()),
        ("D_o^(2)", degrees.d_out[1].iter().map(|&x| x as f64).collect()),
        ("Imp^(1)", imp.imp[0].clone()),
        ("Imp^(2)", imp.imp[1].clone()),
    ];
    for (name, samples) in quantities {
        let fit = fit_exponent(&samples, 2.0, 50);
        let mass = head_mass(&samples, 0.2);
        row(&[
            name.into(),
            fit.map(|ft| f(ft.alpha, 2)).unwrap_or_else(|| "-".into()),
            fit.map(|ft| ft.tail_len.to_string()).unwrap_or_else(|| "-".into()),
            pct(mass),
        ]);
    }
    println!("\nTheorem 1: k-hop degrees inherit the power law. Theorem 2: so does Imp^(k) —");
    println!("the top 20% of vertices hold the bulk of the importance mass, so caching a");
    println!("small head removes most remote traffic.");
}
