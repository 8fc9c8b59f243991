//! E6 — the **vary-number-of-results** experiment (paper, Section 5.4 /
//! technical report \[18\]): "the performance of DIL remains about the same
//! because it always scans the entire inverted lists. The performance of
//! RDIL, however, decreases with an increasing query result size because
//! RDIL has to scan more of the inverted lists."
//!
//! ```sh
//! cargo run --release -p xrank-bench --bin e6_vary_m [publications]
//! ```

use xrank_bench::table::{cost, Table};
use xrank_bench::{Approach, BenchConfig, DatasetKind, Workbench};
use xrank_datagen::workload::{query, Correlation};

const MS: [usize; 6] = [1, 5, 10, 25, 50, 100];

fn main() {
    let publications: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);

    println!("E6 — query cost vs desired number of results m (2 keywords, high correlation)\n");
    let config = BenchConfig::standard(DatasetKind::Dblp { publications });
    let groups = config.plant.expect("planted").groups;
    let mut bench = Workbench::build(config);

    let header: Vec<String> = std::iter::once("approach".to_string())
        .chain(MS.iter().map(|m| format!("m={m}")))
        .collect();
    let mut t = Table::new(header.clone());
    let mut scans = Table::new(header);

    for approach in Approach::DIL_FAMILY {
        let mut row = vec![approach.label().to_string()];
        let mut srow = vec![approach.label().to_string()];
        for &m in &MS {
            let mut total_cost = 0.0;
            let mut total_scan = 0u64;
            for g in 0..groups {
                let terms = bench.resolve(&query(Correlation::High, g, 2));
                let meas = bench.run(approach, &terms, m);
                total_cost += meas.cost;
                total_scan += meas.eval.entries_scanned;
            }
            row.push(cost(total_cost / groups as f64));
            srow.push((total_scan / groups as u64).to_string());
        }
        t.row(row);
        scans.row(srow);
    }
    println!("simulated I/O cost:");
    println!("{}", t.render());
    println!("entries consumed:");
    println!("{}", scans.render());
    println!(
        "paper's shape: DIL flat in m (it always scans everything); RDIL \
         increasing; HDIL between (it switches to DIL once the RDIL \
         estimate exceeds DIL's)."
    );
}
