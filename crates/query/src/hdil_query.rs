//! The HDIL adaptive strategy — Section 4.4.2 of the paper.
//!
//! "We first start evaluating the query using RDIL, and periodically
//! monitor its performance to calculate (a) the time spent so far – t, and
//! (b) the number of results above the threshold so far – r. Based on
//! this, we estimate the remaining time for RDIL as (m-r)*t/r ... If this
//! estimated time is more than the expected time for DIL, we switch to
//! DIL."
//!
//! *Time* is read from the resource the query is actually spending. When
//! the RDIL phase has paid for a physical read, it is the simulated I/O
//! cost of the buffer-pool ledger under a [`CostModel`] — the quantity the
//! experiments plot — against a DIL estimate computable a priori from the
//! keyword lists' page counts ("it mainly depends on the number of query
//! keywords, and the size of each query keyword inverted list"). When
//! every page it touched was already cached, that ledger stands almost
//! still while the probes burn CPU, so time is the number of postings
//! decoded, against the entries a DIL scan of the same lists would decode.
//! Each clock has the same unit on both sides of the comparison, so no
//! exchange rate between I/O and CPU is needed, and the two are never
//! added: one sunk cold read must not be weighed against a scan priced in
//! postings. The decision is a function of the index, the query and the
//! pool's contents only — never of wall time. On the work clock the
//! `(m-r)*t/r` estimate must exceed DIL's price on two consecutive checks
//! (see `progress_check`). A switch is also forced when a rank-sorted
//! prefix drains, since HDIL stores only a fraction of each list in rank
//! order (Section 4.4.1).

use crate::rdil_query::{RdilRun, StepOutcome};
use crate::score::QueryOptions;
use crate::{EvalStats, QueryError, QueryOutcome, SwitchDecision};
use xrank_graph::TermId;
use xrank_index::HdilIndex;
use xrank_obs::{EventData, QueryTrace, Stage, SwitchClock, SwitchReason};
use xrank_storage::{BufferPool, CostModel, PageStore, StatsScope};

/// Steps between progress checks.
const CHECK_INTERVAL: u64 = 8;

/// Evaluates a conjunctive query over an [`HdilIndex`] with the adaptive
/// RDIL→DIL strategy.
pub fn evaluate<S: PageStore>(
    pool: &BufferPool<S>,
    index: &HdilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    cost_model: &CostModel,
) -> Result<QueryOutcome, QueryError> {
    evaluate_traced(pool, index, terms, opts, cost_model, &QueryTrace::disabled())
}

/// [`evaluate`] with the switch decision — both cost estimates, the
/// trigger, and the fallback phase — recorded into `trace`.
pub fn evaluate_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &HdilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    cost_model: &CostModel,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let m = opts.top_m;
    // Per-term list stats, gathered once per query: the switch-cost check
    // below runs every CHECK_INTERVAL steps and must not re-ask the index
    // for quantities that cannot change mid-query.
    let term_stats =
        crate::access::TermStats::gather::<S, HdilIndex>(index, terms);
    let total_pages = term_stats.total_pages;
    // Expected DIL cost on the I/O clock: one seek per keyword list, then
    // sequential scans. On the work clock it is the lists' entry count.
    let dil_io_estimate = total_pages.saturating_sub(terms.len() as u64) as f64
        * cost_model.seq_cost
        + terms.len() as f64 * cost_model.rand_cost;
    let dil_work_estimate = term_stats.total_entries as f64;

    // Thread-local attribution: under a concurrent driver the pool's
    // global ledger mixes every in-flight query, which would corrupt the
    // spent-so-far estimate driving the switch decision.
    let scope = StatsScope::begin();
    // The monitor's reading of `t`, `r` and DIL's price, on whichever
    // clock the RDIL phase is spending — shaped as the decision a drained
    // prefix forces; the progress checks fill in their own reason.
    let reading = |run: &RdilRun<'_, S, HdilIndex>| {
        let io = scope.so_far();
        let (clock, spent, dil_estimate) = if io.physical_reads() > 0 {
            (SwitchClock::Io, cost_model.cost(&io), dil_io_estimate)
        } else {
            (SwitchClock::Work, run.stats().postings_decoded as f64, dil_work_estimate)
        };
        SwitchDecision {
            clock,
            spent,
            rdil_remaining: None,
            dil_estimate,
            confirmed: run.confirmed_results(),
            reason: SwitchReason::PrefixExhausted,
        }
    };

    // Under budget pressure the random-probe RDIL phase is a losing bet:
    // each TA step costs probes + range scans, and a budget that cannot
    // even cover the sequential DIL scan certainly cannot fund RDIL's
    // random I/O on top. Skip straight to the DIL fallback so every
    // budgeted page goes to the strategy with the best completion odds.
    let budget_pressure = opts
        .io_budget
        .is_some_and(|budget| budget < total_pages.saturating_mul(2));
    let (decision, rdil_stats) = if budget_pressure {
        let decision = SwitchDecision {
            clock: SwitchClock::Io,
            spent: 0.0,
            rdil_remaining: None,
            dil_estimate: dil_io_estimate,
            confirmed: 0,
            reason: SwitchReason::BudgetPressure,
        };
        (decision, EvalStats::default())
    } else {
        let mut run: RdilRun<'_, S, HdilIndex> = RdilRun::new(pool, index, terms, opts, trace)?;
        let ta_span = trace.span(Stage::TaLoop);
        let mut steps = 0u64;
        let mut exceeded_before = false;
        let decision: SwitchDecision = loop {
            match run.step(pool)? {
                StepOutcome::Done | StepOutcome::Degraded => {
                    drop(ta_span);
                    return Ok(run.finish());
                }
                // Must fall back: HDIL stores only a rank-sorted prefix.
                StepOutcome::PrefixExhausted => break reading(&run),
                StepOutcome::Continue => {}
            }
            steps += 1;
            if !steps.is_multiple_of(CHECK_INTERVAL) {
                continue;
            }
            if let Some(switch) = progress_check(reading(&run), m, &mut exceeded_before) {
                break switch;
            }
        };
        drop(ta_span);
        (decision, run.stats())
    };
    trace.event(
        Stage::SwitchDecision,
        EventData::Switch {
            clock: decision.clock,
            spent: decision.spent,
            rdil_remaining: decision.rdil_remaining,
            dil_estimate: decision.dil_estimate,
            confirmed: decision.confirmed,
            reason: decision.reason,
        },
    );

    // Fall back: run the DIL algorithm over the full Dewey-sorted lists.
    // The fallback inherits whatever budget the RDIL phase left unspent
    // (its guard meters a fresh scope, so the hand-off must be explicit).
    let fallback_opts = match opts.io_budget {
        Some(budget) => {
            let spent_pages = scope.so_far().logical_reads();
            QueryOptions {
                io_budget: Some(budget.saturating_sub(spent_pages)),
                ..opts.clone()
            }
        }
        None => opts.clone(),
    };
    let fallback_span = trace.span(Stage::DilFallback);
    let mut outcome =
        crate::dil_query::evaluate_traced(pool, &index.dil, terms, &fallback_opts, trace)?;
    drop(fallback_span);
    outcome.stats = EvalStats {
        entries_scanned: outcome.stats.entries_scanned + rdil_stats.entries_scanned,
        btree_probes: rdil_stats.btree_probes,
        probe_memo_hits: rdil_stats.probe_memo_hits,
        cursor_seeks: rdil_stats.cursor_seeks,
        cursor_seeks_back: rdil_stats.cursor_seeks_back,
        cursor_descents: rdil_stats.cursor_descents,
        hash_probes: 0,
        range_scans: rdil_stats.range_scans,
        blocks_decoded: outcome.stats.blocks_decoded + rdil_stats.blocks_decoded,
        blocks_skipped: outcome.stats.blocks_skipped + rdil_stats.blocks_skipped,
        postings_decoded: outcome.stats.postings_decoded + rdil_stats.postings_decoded,
        switched_to_dil: true,
        switch: Some(decision),
    };
    Ok(outcome)
}

/// One progress check of the Section 4.4.2 monitor: the switch `now`
/// calls for, if any. `exceeded_before` carries whether the previous
/// check's estimate already exceeded DIL's price.
fn progress_check(
    now: SwitchDecision,
    m: usize,
    exceeded_before: &mut bool,
) -> Option<SwitchDecision> {
    let r = now.confirmed;
    if r == 0 {
        // No confirmed result yet — the signature of uncorrelated
        // keywords. Cut losses after a quarter of the DIL budget so the
        // total stays "a slight overhead" over DIL (Section 5.4).
        return (now.spent > now.dil_estimate / 4.0)
            .then_some(SwitchDecision { reason: SwitchReason::NoProgressBudget, ..now });
    }
    if r >= m {
        return None; // about to finish; stay
    }
    let estimated_remaining = (m - r) as f64 * now.spent / r as f64;
    let exceeds = estimated_remaining > now.dil_estimate;
    // The work clock front-loads: every rank reader decodes its first
    // block whole before it yields one entry, so the first interval of a
    // correlated query costs several times what the later ones do
    // (xmark(8), three keywords: 1 300–2 000 postings in steps 1–8,
    // 350–900 per interval after) and its reading overshoots the run's
    // real cost — on one deep corpus in two it flipped a query that RDIL
    // finishes in a tenth of DIL's time. There the estimate must hold on
    // two consecutive checks: an uncorrelated query pays one interval
    // more, a correlated one has confirmed enough by then. The I/O clock
    // keeps the single check, so cold-pool decisions are unchanged.
    let corroborated = now.clock == SwitchClock::Io || *exceeded_before;
    *exceeded_before = exceeds;
    (exceeds && corroborated).then_some(SwitchDecision {
        rdil_remaining: Some(estimated_remaining),
        reason: SwitchReason::EstimateExceeded,
        ..now
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::{Collection, CollectionBuilder};
    use xrank_index::extract::direct_postings;
    use xrank_index::DilIndex;
    use xrank_storage::{MemStore, PageId, SegmentId};

    fn setup(xml: &str) -> (BufferPool<MemStore>, DilIndex, HdilIndex, Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let dil = DilIndex::build(&mut pool, &postings).unwrap();
        let hdil = HdilIndex::build(&mut pool, &postings).unwrap();
        (pool, dil, hdil, c)
    }

    fn terms(c: &Collection, kws: &[&str]) -> Vec<TermId> {
        kws.iter().map(|k| c.vocabulary().lookup(k).unwrap()).collect()
    }

    /// High-correlation corpus: keywords co-occur, RDIL path confirms
    /// results fast, no switch expected.
    #[test]
    fn stays_on_rdil_when_keywords_correlate() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e{i}>alpha beta together {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, dil, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert!(!out.stats.switched_to_dil, "correlated keywords should finish on RDIL");
        // and results agree with DIL
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results.len(), d.results.len());
        for (a, b) in out.results.iter().zip(d.results.iter()) {
            assert_eq!(a.dewey, b.dewey);
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    /// Low-correlation corpus: the keywords never co-occur except once,
    /// far down both rank lists — HDIL must switch to DIL yet still return
    /// the right answer.
    #[test]
    fn switches_to_dil_when_keywords_do_not_correlate() {
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<a{i}>alpha solo {i}</a{i}><b{i}>beta solo {i}</b{i}>"));
        }
        xml.push_str("<rare>alpha beta</rare></r>");
        let (pool, dil, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results.len(), d.results.len());
        for (a, b) in out.results.iter().zip(d.results.iter()) {
            assert_eq!(a.dewey, b.dewey);
            assert!((a.score - b.score).abs() < 1e-9);
        }
        // The single co-occurrence sits at an arbitrary rank position; the
        // prefix very likely drains or the estimate blows up first.
        assert!(out.stats.switched_to_dil, "uncorrelated keywords should fall back to DIL");
    }

    fn correlated_xml() -> String {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e{i}>alpha beta together {i}</e{i}>"));
        }
        xml + "</r>"
    }

    fn uncorrelated_xml() -> String {
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<a{i}>alpha solo {i}</a{i}><b{i}>beta solo {i}</b{i}>"));
        }
        xml + "<rare>alpha beta</rare></r>"
    }

    /// Reads every page of every segment except `cold`, so a following
    /// query pays physical reads for exactly that segment (or none).
    fn warm_all_but(pool: &BufferPool<MemStore>, cold: Option<SegmentId>) {
        pool.clear_cache();
        for seg in (0..pool.store().segment_count()).map(SegmentId) {
            if Some(seg) != cold {
                for page in 0..pool.store().page_count(seg) {
                    pool.read(PageId::new(seg, page)).unwrap();
                }
            }
        }
    }

    /// [`evaluate`] plus the physical reads it performed.
    fn run(
        pool: &BufferPool<MemStore>,
        hdil: &HdilIndex,
        q: &[TermId],
        opts: &QueryOptions,
    ) -> (QueryOutcome, u64) {
        let scope = StatsScope::begin();
        let out = evaluate(pool, hdil, q, opts, &CostModel::default()).unwrap();
        (out, scope.finish().physical_reads())
    }

    /// The Fig. 11 regime on a pool that fits: the I/O ledger stands
    /// still, so the monitor must count decode work — and give up within
    /// a quarter of what the DIL scan would decode.
    #[test]
    fn warm_uncorrelated_keywords_switch_on_the_work_clock() {
        let (pool, dil, hdil, c) = setup(&uncorrelated_xml());
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        warm_all_but(&pool, None);
        let (out, physical) = run(&pool, &hdil, &q, &opts);
        assert_eq!(physical, 0, "the pool holds every page");
        let decision = out.stats.switch.expect("switched");
        assert_eq!(decision.reason, SwitchReason::NoProgressBudget);
        assert_eq!(decision.clock, SwitchClock::Work);
        let total_entries: u64 =
            q.iter().map(|&t| hdil.meta(t).unwrap().entry_count as u64).sum();
        assert_eq!(decision.dil_estimate, total_entries as f64);
        // One check interval's worth: per step one rank entry, and per
        // other keyword a probe (landing block + at most one neighbour).
        let interval = CHECK_INTERVAL
            * (1 + (q.len() as u64 - 1) * (2 * xrank_index::block::MAX_BLOCK_ENTRIES as u64 + 1));
        assert!(
            decision.spent <= (total_entries / 4 + interval) as f64,
            "RDIL phase decoded {} of {total_entries} entries before giving up",
            decision.spent
        );
        assert!(out.stats.postings_decoded as f64 >= decision.spent + total_entries as f64);
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results, d.results, "results and scores equal DIL's");

        // Nothing the decision read can differ between two warm runs.
        let (again, physical) = run(&pool, &hdil, &q, &opts);
        assert_eq!(physical, 0);
        assert_eq!(again.stats, out.stats);
        assert_eq!(again.results, out.results);
    }

    /// The Fig. 10 regime on a pool that fits: results confirm fast, so
    /// the work clock never shows RDIL falling behind.
    #[test]
    fn warm_correlated_keywords_finish_on_the_rank_phase() {
        let (pool, dil, hdil, c) = setup(&correlated_xml());
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        warm_all_but(&pool, None);
        let (out, physical) = run(&pool, &hdil, &q, &opts);
        assert_eq!(physical, 0);
        assert!(!out.stats.switched_to_dil, "{:?}", out.stats.switch);
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results, d.results);
        let (again, _) = run(&pool, &hdil, &q, &opts);
        assert_eq!(again.stats, out.stats);
    }

    /// The clocks are never mixed. With only the rank prefixes cold, the
    /// RDIL phase pays a physical read at once: from then on the decision
    /// is the I/O ledger against the page estimate and nothing else —
    /// one sunk cold read weighed against a scan priced in postings (or
    /// in cached pages) would flip a correlated query to DIL.
    #[test]
    fn a_physical_read_in_the_rank_phase_selects_the_io_clock() {
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        let model = CostModel::default();

        let (pool, _, hdil, c) = setup(&correlated_xml());
        let q = terms(&c, &["alpha", "beta"]);
        warm_all_but(&pool, Some(hdil.prefix_segment));
        let (out, physical) = run(&pool, &hdil, &q, &opts);
        assert!(physical > 0);
        assert!(!out.stats.switched_to_dil, "{:?}", out.stats.switch);

        let (pool, _, hdil, c) = setup(&uncorrelated_xml());
        let q = terms(&c, &["alpha", "beta"]);
        warm_all_but(&pool, Some(hdil.prefix_segment));
        let (out, physical) = run(&pool, &hdil, &q, &opts);
        assert!(physical > 0);
        let decision = out.stats.switch.expect("uncorrelated keywords still fall back");
        assert_eq!(decision.clock, SwitchClock::Io);
        let pages: u64 = q.iter().map(|&t| hdil.meta(t).unwrap().page_count as u64).sum();
        assert_eq!(
            decision.dil_estimate,
            (pages - q.len() as u64) as f64 * model.seq_cost + q.len() as f64 * model.rand_cost
        );
        assert!(decision.spent >= model.rand_cost, "the ledger holds the cold read");
    }

    /// One progress check at `m` = 10 on a reading with these numbers.
    fn check(
        clock: SwitchClock,
        confirmed: usize,
        spent: f64,
        dil_estimate: f64,
        exceeded_before: &mut bool,
    ) -> Option<SwitchDecision> {
        let now = SwitchDecision {
            clock,
            spent,
            rdil_remaining: None,
            dil_estimate,
            confirmed,
            reason: SwitchReason::PrefixExhausted,
        };
        progress_check(now, 10, exceeded_before)
    }

    /// The readings of `qhigh0k0 qhigh0k1 qhigh0k2` on xmark(8), seed 41,
    /// warm (RDIL 0.13 ms, DIL 0.96 ms): the first overshoots — a single
    /// check flipped the query to DIL — and the second does not.
    #[test]
    fn one_overshooting_work_reading_does_not_switch() {
        let mut exceeded = false;
        for (r, spent) in [(2, 2009.0), (5, 2921.0), (8, 3264.0)] {
            assert_eq!(check(SwitchClock::Work, r, spent, 5100.0, &mut exceeded), None, "r={r}");
        }
        // Two in a row do, with the second reading's numbers.
        let mut exceeded = false;
        assert_eq!(check(SwitchClock::Work, 1, 900.0, 5100.0, &mut exceeded), None);
        let switch = check(SwitchClock::Work, 1, 1800.0, 5100.0, &mut exceeded)
            .expect("the estimate held twice");
        assert_eq!(switch.reason, SwitchReason::EstimateExceeded);
        assert_eq!((switch.spent, switch.rdil_remaining), (1800.0, Some(16200.0)));
        // Exceeded, within the estimate, exceeded: not consecutive.
        let mut exceeded = false;
        for (r, spent) in [(1, 900.0), (4, 1800.0), (4, 3600.0)] {
            assert_eq!(check(SwitchClock::Work, r, spent, 5100.0, &mut exceeded), None, "r={r}");
        }
    }

    /// The I/O clock decides on one reading, as before the work clock
    /// existed, and the no-progress rule needs no confirmation on either.
    #[test]
    fn io_readings_and_stalled_runs_switch_on_one_check() {
        let switch =
            check(SwitchClock::Io, 2, 102.18, 81.0, &mut false).expect("one reading is enough");
        assert_eq!(switch.reason, SwitchReason::EstimateExceeded);
        assert_eq!(switch.rdil_remaining, Some(408.72));
        for clock in [SwitchClock::Io, SwitchClock::Work] {
            assert_eq!(check(clock, 0, 25.0, 100.0, &mut false), None);
            let switch = check(clock, 0, 25.5, 100.0, &mut false).expect("past the quarter");
            assert_eq!(switch.reason, SwitchReason::NoProgressBudget);
            assert_eq!(switch.rdil_remaining, None);
            // Page full: about to finish.
            assert_eq!(check(clock, 10, 1e9, 100.0, &mut true), None);
        }
    }

    fn gamma_delta_xml() -> String {
        let mut xml = String::from("<corpus>");
        for i in 0..120 {
            xml.push_str(&format!(
                "<doc{i}><h>gamma head</h><p>delta paragraph {}</p><z>gamma delta close</z></doc{i}>",
                i % 5
            ));
        }
        xml + "</corpus>"
    }

    #[test]
    fn agrees_with_dil_across_m_values() {
        let (pool, dil, hdil, c) = setup(&gamma_delta_xml());
        let q = terms(&c, &["gamma", "delta"]);
        for m in [1usize, 4, 25] {
            let opts = QueryOptions { top_m: m, ..Default::default() };
            let h = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
            let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
            assert_eq!(h.results.len(), d.results.len(), "m={m}");
            for (a, b) in h.results.iter().zip(d.results.iter()) {
                assert_eq!(a.dewey, b.dewey, "m={m}");
                assert!((a.score - b.score).abs() < 1e-9, "m={m}");
            }
        }
    }

    /// The §4.4.2 work clock and every switch decision on this module's
    /// corpora, warm and cold, pinned to the values the block-scan probe
    /// produced: a change that saves decode work must still count the
    /// entries a scan from the landing block's start passes, and read and
    /// classify the same pages. `blocks_decoded` is left out — it counts
    /// how the work is done, not what the query does.
    #[test]
    fn work_clock_and_decisions_match_the_golden_values() {
        let corpora = [
            (correlated_xml(), ["alpha", "beta"], &[5usize][..]),
            (uncorrelated_xml(), ["alpha", "beta"], &[5][..]),
            (gamma_delta_xml(), ["gamma", "delta"], &[1, 4, 25][..]),
        ];
        let mut got = Vec::new();
        for (xml, kws, ms) in &corpora {
            let (pool, _, hdil, c) = setup(xml);
            let q = terms(&c, kws);
            for &m in *ms {
                let opts = QueryOptions { top_m: m, ..Default::default() };
                for warm in [true, false] {
                    if warm {
                        warm_all_but(&pool, None);
                    } else {
                        pool.clear_cache();
                    }
                    let scope = StatsScope::begin();
                    let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
                    let io = scope.finish();
                    let s = out.stats;
                    got.push(format!(
                        "{} m={m} {}: entries={} probes={} memo={} seeks={}/{}/{} scans={} \
                         skipped={} decoded={} io={}/{}/{} switch={:?}",
                        kws.join("+"),
                        if warm { "warm" } else { "cold" },
                        s.entries_scanned,
                        s.btree_probes,
                        s.probe_memo_hits,
                        s.cursor_seeks,
                        s.cursor_seeks_back,
                        s.cursor_descents,
                        s.range_scans,
                        s.blocks_skipped,
                        s.postings_decoded,
                        io.seq_reads,
                        io.rand_reads,
                        io.cache_hits,
                        s.switch,
                    ));
                    assert_eq!(s.hash_probes, 0);
                    assert_eq!(s.switched_to_dil, s.switch.is_some());
                }
            }
        }
        let golden: &[&str] = &[
            "alpha+beta m=5 warm: entries=9 probes=9 memo=0 seeks=7/0/2 scans=10 skipped=0 decoded=74 io=0/0/14 switch=None",
            "alpha+beta m=5 cold: entries=9 probes=9 memo=0 seeks=7/0/2 scans=10 skipped=0 decoded=74 io=1/3/10 switch=None",
            "alpha+beta m=5 warm: entries=610 probes=8 memo=0 seeks=6/0/2 scans=2 skipped=0 decoded=1236 io=0/0/8 switch=Some(SwitchDecision { clock: Work, spent: 634.0, rdil_remaining: None, dil_estimate: 602.0, confirmed: 0, reason: NoProgressBudget })",
            "alpha+beta m=5 cold: entries=610 probes=8 memo=0 seeks=6/0/2 scans=2 skipped=0 decoded=1236 io=0/4/4 switch=Some(SwitchDecision { clock: Io, spent: 100.04, rdil_remaining: None, dil_estimate: 50.0, confirmed: 0, reason: NoProgressBudget })",
            "gamma+delta m=1 warm: entries=3 probes=3 memo=0 seeks=1/0/2 scans=4 skipped=0 decoded=20 io=0/0/8 switch=None",
            "gamma+delta m=1 cold: entries=3 probes=3 memo=0 seeks=1/0/2 scans=4 skipped=0 decoded=20 io=0/4/4 switch=None",
            "gamma+delta m=4 warm: entries=15 probes=15 memo=3 seeks=10/0/2 scans=16 skipped=0 decoded=167 io=0/0/20 switch=None",
            "gamma+delta m=4 cold: entries=488 probes=8 memo=2 seeks=4/0/2 scans=8 skipped=0 decoded=536 io=0/4/10 switch=Some(SwitchDecision { clock: Io, spent: 100.16, rdil_remaining: Some(100.16), dil_estimate: 50.0, confirmed: 2, reason: EstimateExceeded })",
            "gamma+delta m=25 warm: entries=496 probes=16 memo=4 seeks=10/0/2 scans=16 skipped=0 decoded=648 io=0/0/22 switch=Some(SwitchDecision { clock: Work, spent: 168.0, rdil_remaining: Some(882.0), dil_estimate: 480.0, confirmed: 4, reason: EstimateExceeded })",
            "gamma+delta m=25 cold: entries=488 probes=8 memo=2 seeks=4/0/2 scans=8 skipped=0 decoded=536 io=0/4/10 switch=Some(SwitchDecision { clock: Io, spent: 100.16, rdil_remaining: Some(1151.84), dil_estimate: 50.0, confirmed: 2, reason: EstimateExceeded })",
        ];
        assert_eq!(got, golden);
    }

    #[test]
    fn budget_pressure_skips_rdil_entirely() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e{i}>alpha beta together {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions {
            top_m: 5,
            io_budget: Some(1),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert!(out.stats.switched_to_dil, "budget pressure must force the DIL fallback");
        let decision = out.stats.switch.expect("switch decision recorded");
        assert_eq!(decision.reason, SwitchReason::BudgetPressure);
        assert_eq!(out.stats.btree_probes, 0, "RDIL phase must not have run");
        assert_eq!(
            out.degraded,
            Some(xrank_obs::DegradeReason::IoBudget),
            "a 1-page budget cannot finish the scan"
        );
        // A generous budget is not pressure: the run completes normally.
        let roomy = QueryOptions {
            top_m: 5,
            io_budget: Some(1_000_000),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &roomy, &CostModel::default()).unwrap();
        assert!(out.degraded.is_none());
        assert!(!out.stats.switched_to_dil);
    }

    #[test]
    fn degraded_rdil_phase_returns_partial_not_error() {
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!("<e{i}>gamma delta {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, hdil, c) = setup(&xml);
        let q = terms(&c, &["gamma", "delta"]);
        let opts = QueryOptions {
            top_m: 5,
            timeout: Some(std::time::Duration::ZERO),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert_eq!(out.degraded, Some(xrank_obs::DegradeReason::Deadline));
    }

    #[test]
    fn missing_keyword() {
        let (pool, _, hdil, c) = setup("<r><a>here text</a></r>");
        let here = c.vocabulary().lookup("here").unwrap();
        let out = evaluate(
            &pool,
            &hdil,
            &[here, TermId(55_555)],
            &QueryOptions::default(),
            &CostModel::default(),
        )
        .unwrap();
        assert!(out.results.is_empty());
    }
}
