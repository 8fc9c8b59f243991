//! E3 — reproduces **Table 1: Space Requirements for the Different
//! Approaches** (paper, Section 5.3).
//!
//! Builds all five index structures with real (full-page) layouts over a
//! DBLP-shaped and an XMark-shaped corpus and reports inverted-list and
//! auxiliary-index sizes.
//!
//! Paper's numbers (143MB DBLP / 113MB XMark):
//!
//! ```text
//!              DBLP list  index    XMARK list  index
//! Naive-ID     258MB      N/A      872MB       N/A
//! Naive-Rank   258MB      217MB    872MB       527MB
//! DIL          144MB      N/A      254MB       N/A
//! RDIL         144MB      156MB    254MB       209MB
//! HDIL         186MB      7MB      307MB       3.2MB
//! ```
//!
//! Expected shape at our scale: naive lists ≫ DIL lists, with a larger
//! blowup on the deeper XMark; RDIL index comparable to its lists; HDIL
//! index (the skip tables of its multi-block Dewey lists — its only
//! stored non-leaf level) orders of magnitude below RDIL's; HDIL list
//! slightly above DIL's.
//!
//! ```sh
//! cargo run --release -p xrank-bench --bin e3_space_table [dblp_pubs] [xmark_scale]
//! ```

use xrank_bench::table::{mb, Table};
use xrank_bench::{Approach, BenchConfig, DatasetKind, Workbench};

/// `(approach, list bytes, index bytes)` rows of one dataset's column.
type SpaceRows = Vec<(Approach, u64, u64)>;

fn spaces(bench: &Workbench) -> SpaceRows {
    let nid = bench.naive_id.as_ref().expect("naive built").space(&bench.pool);
    let nrk = bench.naive_rank.as_ref().expect("naive built").space(&bench.pool);
    let dil = bench.dil.space(&bench.pool);
    let rdil = bench.rdil.space(&bench.pool);
    let hdil = bench.hdil.space(&bench.pool);
    vec![
        (Approach::NaiveId, nid.list_bytes, nid.index_bytes),
        (Approach::NaiveRank, nrk.list_bytes, nrk.index_bytes),
        (Approach::Dil, dil.list_bytes, dil.index_bytes),
        (Approach::Rdil, rdil.list_bytes, rdil.index_bytes),
        (Approach::Hdil, hdil.list_bytes, hdil.index_bytes),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dblp_pubs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let xmark_scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4.0);

    println!("E3 / Table 1 — space requirements\n");
    let mut columns: Vec<(String, SpaceRows)> = Vec::new();
    for dataset in [
        DatasetKind::Dblp { publications: dblp_pubs },
        DatasetKind::Xmark { scale: xmark_scale },
    ] {
        let bench = Workbench::build(BenchConfig::space(dataset));
        println!(
            "built {}: {} of XML, {} docs, {} elements, depth {}",
            dataset.label(),
            mb(bench.dataset_bytes as u64),
            bench.collection.doc_count(),
            bench.collection.element_count(),
            bench.collection.max_depth(),
        );
        columns.push((dataset.label(), spaces(&bench)));
    }
    println!();

    let mut t = Table::new(vec![
        "".to_string(),
        format!("{} Inv.List", columns[0].0),
        "Index".to_string(),
        format!("{} Inv.List", columns[1].0),
        "Index".to_string(),
    ]);
    for i in 0..Approach::ALL.len() {
        let (a, l0, i0) = columns[0].1[i];
        let (_, l1, i1) = columns[1].1[i];
        let idx = |b: u64, a: Approach| {
            if matches!(a, Approach::NaiveId | Approach::Dil) {
                "N/A".to_string()
            } else if b < 1 << 20 {
                // HDIL's index (skip tables) is a fraction of a megabyte.
                format!("{:.2}MB", b as f64 / (1024.0 * 1024.0))
            } else {
                mb(b)
            }
        };
        t.row(vec![a.label().to_string(), mb(l0), idx(i0, a), mb(l1), idx(i1, a)]);
    }
    println!("{}", t.render());

    // Shape checks against the paper.
    for (label, s) in &columns {
        let get = |a: Approach| s.iter().find(|(x, _, _)| *x == a).unwrap();
        let (_, naive_list, _) = get(Approach::NaiveId);
        let (_, dil_list, _) = get(Approach::Dil);
        let (_, _, rdil_index) = get(Approach::Rdil);
        let (_, hdil_list, hdil_index) = get(Approach::Hdil);
        println!(
            "{label}: naive/DIL list ratio = {:.2}x (paper: DBLP 1.79x, XMark 3.43x); \
             RDIL/HDIL index ratio = {:.0}x (paper: DBLP 22x, XMark 65x); \
             HDIL/DIL list ratio = {:.2}x (paper: DBLP 1.29x, XMark 1.21x)",
            *naive_list as f64 / *dil_list as f64,
            *rdil_index as f64 / *hdil_index as f64,
            *hdil_list as f64 / *dil_list as f64,
        );
    }
}
