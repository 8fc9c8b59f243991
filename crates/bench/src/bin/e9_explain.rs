//! E9 — EXPLAIN on the planted workload: prints the traced per-stage
//! timeline for one high-correlation (Figure 10 regime) and one
//! low-correlation (Figure 11 regime) keyword pair under HDIL, over the
//! same dblp(3000) engine the E8 throughput bench serves. The side-by-side
//! pair is the Section 4.4.2 adaptation made visible: correlated keywords
//! finish on the rank-sorted phase, uncorrelated keywords show the switch
//! decision (cost spent, the `(m-r)·t/r` estimate when computable, the
//! a-priori DIL estimate) and the DIL fallback stage. Each pair runs
//! twice: on an emptied pool, where the monitor reads the I/O ledger
//! (`clock=io`), and again with every page it needs cached, where it
//! counts postings decoded (`clock=work`).
//!
//! ```sh
//! cargo run --release -p xrank-bench --bin e9_explain
//! ```

use xrank_bench::{fixture, BenchConfig, DatasetKind};
use xrank_core::{EngineBuilder, EngineConfig, Strategy};
use xrank_datagen::workload::{query, Correlation};
use xrank_query::QueryOptions;

fn main() {
    let ds = fixture::generate_dataset(&BenchConfig::standard(DatasetKind::Dblp {
        publications: 3000,
    }));
    let config = EngineConfig { with_rdil: true, pool_pages: 2048, ..Default::default() };
    let mut b = EngineBuilder::with_config(config);
    for (uri, xml) in &ds.docs {
        b.add_xml(uri, xml).expect("generated XML parses");
    }
    let engine = b.build();
    let opts = QueryOptions { top_m: 5, ..Default::default() };

    for (regime, corr) in [("high", Correlation::High), ("low", Correlation::Low)] {
        let q = query(corr, 0, 2).join(" ");
        engine.pool().clear_cache();
        for pool in ["cold", "warm"] {
            println!("--- {regime}-correlation pair, {pool} pool ---");
            let report = engine
                .explain(&q, Strategy::Hdil, &opts)
                .expect("planted keywords resolve");
            print!("{report}");
            println!();
        }
    }
}
