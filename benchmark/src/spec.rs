//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is rendered
//! from these tables (`--spec`) and every run is checked against them.

use crate::json::{obj, Value};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "warm-corr",
        why: "Fig. 10 regime: correlated keywords on a pool that fits; TA rounds and B+-tree probes do the work, DIL's full scan is the control",
    },
    Workload {
        name: "warm-uncorr",
        why: "Fig. 11 regime: frequent keywords that rarely co-occur; Dewey merge and block decode dominate, RDIL burns probes, HDIL's switch decides",
    },
    Workload {
        name: "cold-pool",
        why: "32-page pool far below the working set: file reads, CRC, eviction and sequential/random classification dominate; the I/O ledger is the paper's metric",
    },
    Workload {
        name: "deep-xmark",
        why: "one 9 MB document of depth 10 with IDREFs: long Dewey IDs stress codec, merge stack and B+-tree keys that shallow DBLP never does",
    },
    Workload {
        name: "ingest",
        why: "the timed phase is parse, graph, ElemRank, list packing, fsync and reopen; read-path format changes pay here",
    },
    Workload {
        name: "update-mixed",
        why: "a durable writer (add, replace, delete, commit, fold) beside a reader: a gain on one side bought on the other shows, and every acknowledged write must survive reopen",
    },
];

pub use crate::stats::Better;

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the contract allows no
/// per-workload omissions), so each is defined wherever an index is
/// built, opened and queried — which is every workload.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("dil_p50_us", "us", Better::Lower, 0.25),
    e2e("rdil_p50_us", "us", Better::Lower, 0.25),
    e2e("hdil_p50_us", "us", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("sim_io_cost_per_query", "cost", Better::Lower, 0.20),
    e2e("ingest_mb_per_s", "MB/s", Better::Higher, 0.25),
    e2e("open_ms", "ms", Better::Lower, 0.25),
    e2e("index_bytes_per_xml_byte", "ratio", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = crate; the prefix of each name is the layer. README.md lists,
/// per metric, the public calls it is timed around and the end-to-end
/// metric and workload it should move.
pub const PER_LAYER: [PerLayer; 55] = [
    hi("xml.parse_mb_per_s", "MB/s"),
    lo("graph.add_s", "s"),
    lo("graph.build_s", "s"),
    lo("graph.elements", "count"),
    lo("graph.edges", "count"),
    lo("rank.elemrank_s", "s"),
    lo("rank.iterations", "count"),
    hi("rank.edges_per_s_per_sweep", "1/s"),
    lo("dewey.encode_ns_per_id", "ns"),
    lo("dewey.decode_ns_per_id", "ns"),
    lo("dewey.bytes_per_id", "bytes"),
    lo("index.extract_s", "s"),
    lo("index.hdil_build_s", "s"),
    lo("index.rdil_build_s", "s"),
    lo("index.build_share", "ratio"),
    hi("index.pack_postings_per_s", "1/s"),
    lo("index.bytes_per_posting", "bytes"),
    hi("index.decode_postings_per_s", "1/s"),
    lo("index.seek_ns", "ns"),
    lo("index.blocks_decoded_per_query", "count"),
    hi("index.blocks_skipped_per_query", "count"),
    lo("storage.pool_hit_ns", "ns"),
    lo("storage.pool_miss_us", "us"),
    hi("storage.pool_hit_ratio", "ratio"),
    lo("storage.evictions_per_query", "count"),
    lo("storage.seq_reads_per_query", "count"),
    lo("storage.rand_reads_per_query", "count"),
    lo("storage.btree_descend_ns", "ns"),
    lo("storage.btree_cursor_seek_ns", "ns"),
    lo("storage.btree_pages_per_probe", "count"),
    lo("storage.append_page_us", "us"),
    lo("storage.sync_ms", "ms"),
    lo("query.dil_eval_us", "us"),
    lo("query.rdil_eval_us", "us"),
    lo("query.hdil_eval_us", "us"),
    lo("query.entries_scanned_per_query", "count"),
    lo("query.btree_probes_per_query", "count"),
    lo("query.cursor_descents_per_query", "count"),
    hi("query.probe_memo_hit_ratio", "ratio"),
    hi("query.hdil_switch_share", "ratio"),
    hi("query.results_per_entry_scanned", "ratio"),
    lo("core.engine_self_us", "us"),
    lo("core.executor_overhead_us", "us"),
    lo("core.add_xml_us", "us"),
    lo("core.commit_ms", "ms"),
    lo("core.commit_p95_ms", "ms"),
    lo("core.merge_small_ms", "ms"),
    lo("core.segments_live_p50", "count"),
    lo("core.search_per_segment_us", "us"),
    lo("core.reopen_ms", "ms"),
    lo("core.write_amp", "ratio"),
    lo("obs.enabled_over_disabled", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    hi("trace.span_coverage", "ratio"),
    lo("trace.rig_over_build", "ratio"),
];

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u64 = 10;

/// Directory of this package relative to the repository root.
pub const PACKAGE_DIR: &str = "benchmark";

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Arr(command.iter().map(|&s| s.into()).collect()),
        ),
        ("paths", Value::Arr(vec![PACKAGE_DIR.into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys_and_matches_the_committed_file() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = doc.render_pretty();
        assert!(text.len() < 64 * 1024);
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(
            std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root"),
            text,
            "regenerate with `--spec > BENCHMARK.json`"
        );
    }
}
