//! `xrank` — command-line interface to the XRANK engine.
//!
//! ```text
//! xrank index  <dir> <file.xml|file.html>...   build a persistent index
//! xrank demo   <dir> [--dblp N | --xmark S]    build from a generated corpus
//! xrank search <dir> <query words> [-m N] [--any] [--strategy dil|rdil|hdil]
//!                                  [--explain] [--metrics]
//!                                  [--io-budget N] [--allow-partial]
//! xrank stats  <dir>                           collection statistics
//! xrank trace-dump  <dir> <query words> [--strategy dil|rdil|hdil]
//!                                  [--repeat N] [--out FILE]
//! xrank trace-check <file> [--expect-cat CAT]... [--expect-track NAME]...
//! xrank scrub  <pipeline-dir> [--repair]         verify page checksums
//! ```
//!
//! `--explain` runs the query traced and prints the per-stage timeline
//! (and, under HDIL, the switch decision with both cost estimates);
//! `--metrics` dumps the engine's Prometheus exposition after the query.
//!
//! `trace-dump` runs the query on a cleared cache, traced in full (every
//! probe, range scan and TA round), and writes the flight recorder's
//! retained timeline as Chrome trace-event JSON — open the file in
//! `ui.perfetto.dev` (or `chrome://tracing`). `trace-check` structurally
//! validates such a dump (valid JSON, spans strictly nested per track)
//! and optionally asserts that given categories and named tracks appear.
//!
//! `--io-budget N` caps the query at N logical page reads; with
//! `--allow-partial` an exhausted budget (or deadline) returns the best
//! top-k found so far, marked `[partial]`, instead of failing.
//!
//! `index`/`demo` write the engine under `<dir>` (pages in `<dir>/store/`,
//! metadata in `<dir>/xrank-meta.bin`); `search`/`stats` reopen it without
//! re-indexing.
//!
//! `scrub` opens an *updatable pipeline* directory (the `CURRENT` +
//! `MANIFEST-*` + `seg-*/` layout), re-reads every physical page off the
//! medium verifying its checksum trailer, and reports corrupt segments;
//! with `--repair` each one is rebuilt from its CRC-checked document
//! sidecar and republished atomically.

use std::process::ExitCode;
use xrank::query::QueryOptions;
use xrank::storage::FileStore;
use xrank::{EngineBuilder, EngineConfig, Strategy, XRankEngine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("trace-dump") => cmd_trace_dump(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("scrub") => cmd_scrub(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  xrank index  <dir> <file.xml|file.html>...\n  \
                 xrank demo   <dir> [--dblp N | --xmark SCALE]\n  \
                 xrank search <dir> <query words> [-m N] [--any] [--strategy dil|rdil|hdil] \
                 [--explain] [--metrics] [--io-budget N] [--allow-partial]\n  \
                 xrank stats  <dir>\n  \
                 xrank trace-dump  <dir> <query words> [--strategy dil|rdil|hdil] \
                 [--repeat N] [--out FILE]\n  \
                 xrank trace-check <file> [--expect-cat CAT]... [--expect-track NAME]...\n  \
                 xrank scrub  <pipeline-dir> [--repair]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

fn engine_config() -> EngineConfig {
    // RDIL is cheap to keep for strategy experiments from the CLI.
    EngineConfig { with_rdil: true, ..Default::default() }
}

fn cmd_index(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("index: missing <dir>")?;
    let files = &args[1..];
    if files.is_empty() {
        return Err("index: no input files".into());
    }
    let mut builder = EngineBuilder::with_config(engine_config());
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if path.ends_with(".html") || path.ends_with(".htm") {
            builder.add_html(path, &text);
        } else {
            builder.add_xml(path, &text).map_err(|e| format!("{path}: {e}"))?;
        }
        println!("added {path}");
    }
    let engine = builder
        .build_persistent(dir)
        .map_err(|e| format!("writing {dir}: {e}"))?;
    print_build_summary(&engine);
    Ok(())
}

fn cmd_demo(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("demo: missing <dir>")?;
    let mut builder = EngineBuilder::with_config(engine_config());
    let spec = args.get(1).map(String::as_str).unwrap_or("--dblp");
    match spec {
        "--xmark" => {
            let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
            let ds = xrank::datagen::xmark::generate(&xrank::datagen::xmark::XmarkConfig {
                scale,
                ..Default::default()
            });
            for (uri, xml) in &ds.docs {
                builder.add_xml(uri, xml).expect("generated XML");
            }
            println!("generated XMark-like corpus, scale {scale}");
        }
        _ => {
            let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2000);
            let ds = xrank::datagen::dblp::generate(&xrank::datagen::dblp::DblpConfig {
                publications: n,
                ..Default::default()
            });
            for (uri, xml) in &ds.docs {
                builder.add_xml(uri, xml).expect("generated XML");
            }
            println!("generated DBLP-like corpus, {n} publications");
        }
    }
    let engine = builder
        .build_persistent(dir)
        .map_err(|e| format!("writing {dir}: {e}"))?;
    print_build_summary(&engine);
    Ok(())
}

fn cmd_search(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("search: missing <dir>")?;
    let mut m = 10usize;
    let mut any = false;
    let mut explain = false;
    let mut metrics = false;
    let mut io_budget: Option<u64> = None;
    let mut allow_partial = false;
    let mut strategy = Strategy::Hdil;
    let mut words: Vec<&str> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-m" => {
                i += 1;
                m = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("search: -m needs a number")?;
            }
            "--any" => any = true,
            "--explain" => explain = true,
            "--metrics" => metrics = true,
            "--io-budget" => {
                i += 1;
                io_budget = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("search: --io-budget needs a page count")?,
                );
            }
            "--allow-partial" => allow_partial = true,
            "--strategy" => {
                i += 1;
                strategy = match args.get(i).map(String::as_str) {
                    Some("dil") => Strategy::Dil,
                    Some("rdil") => Strategy::Rdil,
                    Some("hdil") => Strategy::Hdil,
                    other => return Err(format!("search: unknown strategy {other:?}")),
                };
            }
            w => words.push(w),
        }
        i += 1;
    }
    if words.is_empty() {
        return Err("search: empty query".into());
    }
    let query = words.join(" ");

    if explain && any {
        return Err("search: --explain applies to conjunctive queries (drop --any)".into());
    }

    let engine = XRankEngine::<FileStore>::open(dir, engine_config())
        .map_err(|e| format!("opening {dir}: {e}"))?;
    let opts = QueryOptions { top_m: m, io_budget, allow_partial, ..Default::default() };
    if explain {
        let report = engine
            .explain(&query, strategy, &opts)
            .map_err(|e| format!("query failed: {e}"))?;
        print!("{report}");
        if metrics {
            print!("{}", engine.render_metrics());
        }
        return Ok(());
    }
    let results = if any {
        engine.search_any(&query, m)
    } else {
        engine.search_with(&query, strategy, &opts)
    }
    .map_err(|e| format!("query failed: {e}"))?;
    if let Some(reason) = results.degraded {
        println!(
            "[partial] evaluation cut off ({}): showing best results found so far",
            reason.name()
        );
    }
    if results.hits.is_empty() {
        println!("no results for {query:?}");
    } else {
        print!("{}", results.render());
        println!(
            "\n{} hits in {:.1}ms — {} entries scanned, {} seq + {} random page reads",
            results.hits.len(),
            results.elapsed.as_secs_f64() * 1e3,
            results.eval.entries_scanned,
            results.io.seq_reads,
            results.io.rand_reads,
        );
    }
    if metrics {
        print!("{}", engine.render_metrics());
    }
    Ok(())
}

fn cmd_scrub(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("scrub: missing <pipeline-dir>")?;
    let mut repair = false;
    for arg in &args[1..] {
        match arg.as_str() {
            "--repair" => repair = true,
            other => return Err(format!("scrub: unknown argument {other:?}")),
        }
    }
    // Opening a directory without a manifest would CREATE a fresh
    // pipeline there; an integrity check must never initialize anything.
    let has_manifest = std::path::Path::new(dir).join("CURRENT").exists()
        || std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .any(|e| e.file_name().to_string_lossy().starts_with("MANIFEST-"))
            })
            .unwrap_or(false);
    if !has_manifest {
        return Err(format!("{dir} is not an updatable pipeline (no CURRENT/MANIFEST)"));
    }
    let engine = xrank::UpdatableXRank::open(dir, EngineConfig::default())
        .map_err(|e| format!("opening {dir}: {e}"))?;
    // Open itself checksum-scans every segment and rebuilds condemned
    // ones from their sidecars, so rot present before this run may
    // already be healed; report those so a clean scrub isn't mistaken
    // for an uneventful history.
    for rec in engine.recorder().records() {
        if matches!(rec.kind, xrank::OpKind::Repair) {
            println!("healed at open: {}", rec.label);
        }
    }
    let report = engine.scrub_full();
    println!(
        "scanned {} pages across {} segments ({} docs)",
        report.pages_scanned,
        engine.segment_count(),
        engine.doc_count()
    );
    if report.corrupt_segments.is_empty() {
        println!("clean: every page checksum verified");
        return Ok(());
    }
    for seg in &report.corrupt_segments {
        println!("CORRUPT: segment {seg} quarantined");
    }
    if !repair {
        return Err(format!(
            "{} corrupt segment(s); rerun with --repair to rebuild from document sidecars",
            report.corrupt_segments.len()
        ));
    }
    for seg in report.corrupt_segments {
        let rebuilt = engine
            .repair_segment(seg)
            .map_err(|e| format!("repairing segment {seg}: {e}"))?;
        if rebuilt {
            println!("repaired: segment {seg} rebuilt and republished");
        } else {
            println!("released: segment {seg} no longer live, quarantine dropped");
        }
    }
    Ok(())
}

fn cmd_trace_dump(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("trace-dump: missing <dir>")?;
    let mut strategy = Strategy::Hdil;
    let mut repeat = 1usize;
    let mut out: Option<String> = None;
    let mut words: Vec<&str> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--strategy" => {
                i += 1;
                strategy = match args.get(i).map(String::as_str) {
                    Some("dil") => Strategy::Dil,
                    Some("rdil") => Strategy::Rdil,
                    Some("hdil") => Strategy::Hdil,
                    other => return Err(format!("trace-dump: unknown strategy {other:?}")),
                };
            }
            "--repeat" => {
                i += 1;
                repeat = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("trace-dump: --repeat needs a count")?;
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .cloned()
                        .ok_or("trace-dump: --out needs a file path")?,
                );
            }
            w => words.push(w),
        }
        i += 1;
    }
    if words.is_empty() {
        return Err("trace-dump: empty query".into());
    }
    let query = words.join(" ");

    let engine = XRankEngine::<FileStore>::open(dir, engine_config())
        .map_err(|e| format!("opening {dir}: {e}"))?;
    engine.recorder().set_enabled(true);
    // Each repeat starts cold, and is traced explicitly so the dump keeps
    // its per-probe spans and TA rounds.
    let opts = QueryOptions::default();
    for _ in 0..repeat.max(1) {
        engine.pool().clear_cache();
        engine
            .query_traced(&query, strategy, &opts)
            .map_err(|e| format!("query failed: {e}"))?;
    }
    let json = engine.dump_trace_json();
    match out {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} bytes of trace JSON to {path} — open in ui.perfetto.dev",
                json.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> CliResult {
    let file = args.first().ok_or("trace-check: missing <file>")?;
    let mut expect_cats: Vec<&str> = Vec::new();
    let mut expect_tracks: Vec<&str> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--expect-cat" => {
                i += 1;
                expect_cats
                    .push(args.get(i).map(String::as_str).ok_or("trace-check: --expect-cat needs a category")?);
            }
            "--expect-track" => {
                i += 1;
                expect_tracks
                    .push(args.get(i).map(String::as_str).ok_or("trace-check: --expect-track needs a name")?);
            }
            other => return Err(format!("trace-check: unknown argument {other:?}")),
        }
        i += 1;
    }
    let json = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let check = xrank::validate_chrome_trace(&json)
        .map_err(|e| format!("trace-check: {file}: {e}"))?;
    for cat in &expect_cats {
        if !check.has_cat(cat) {
            return Err(format!("trace-check: {file}: no events with cat {cat:?}"));
        }
    }
    for track in &expect_tracks {
        if !check.has_track(track) {
            return Err(format!("trace-check: {file}: no track named {track:?}"));
        }
    }
    println!("{file}: {} events across {} tracks, spans nested", check.events, check.tracks.len());
    for t in &check.tracks {
        let mut cats: Vec<&str> = t.cats.iter().map(String::as_str).collect();
        cats.sort_unstable();
        println!(
            "  {}: {} spans, {} instants [{}]",
            t.name,
            t.spans,
            t.instants,
            cats.join(", ")
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("stats: missing <dir>")?;
    let engine = XRankEngine::<FileStore>::open(dir, engine_config())
        .map_err(|e| format!("opening {dir}: {e}"))?;
    print_build_summary(&engine);
    Ok(())
}

fn print_build_summary<S: xrank::storage::PageStore>(engine: &XRankEngine<S>) {
    let c = engine.collection();
    println!(
        "index: {} documents, {} elements (max depth {}), {} terms, {} hyperlinks \
         ({} unresolved); ElemRank converged in {} iterations",
        c.doc_count(),
        c.element_count(),
        c.max_depth(),
        c.vocabulary().len(),
        c.hyperlink_count(),
        c.unresolved_links(),
        engine.rank_result().iterations,
    );
}
