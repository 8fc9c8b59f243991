//! The read phase every workload shares: single-client latency with the
//! strategies interleaved, and closed-loop throughput through the
//! executor, in alternating trials so both sample the whole phase.

use crate::check::{Checked, Tally, STRATEGIES};
use crate::env::hardware_threads;
use crate::stats::{mix_latency, Better, MixLatency, Summary};
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xrank::query::QueryOptions;
use xrank::storage::{CostModel, PageStore};
use xrank::{AdmissionPolicy, QueryExecutor, QueryRequest, Strategy, XRankEngine};

/// Trials every timed phase is split into: each holds the same
/// operations; a metric is the best (or, beside a writer, the median)
/// per-trial statistic.
pub const TRIALS: usize = 9;

/// Result page size of every query (`m`).
pub const TOP_M: usize = 10;

/// Requests each throughput client keeps in flight, so a worker never
/// idles while a client thread is being woken.
const WINDOW: usize = 2;

pub fn query_options() -> QueryOptions {
    QueryOptions {
        top_m: TOP_M,
        ..Default::default()
    }
}

/// How the single client calls the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// `XRankEngine::query`: the pool keeps what earlier queries read.
    Shared,
    /// `XRankEngine::search_with`: the pool is emptied before every query
    /// (the paper's cold-cache protocol; a freshly opened index).
    ClearedPerQuery,
}

/// Latency samples in arrival order, one series per strategy (µs), and
/// the simulated I/O ledger of the HDIL queries among them.
#[derive(Default)]
pub struct Latencies {
    pub by_strategy: [Vec<f64>; 3],
    pub hdil_io_cost: f64,
    pub hdil_queries: u64,
}

impl Latencies {
    fn series(&self, strategy: Strategy) -> &[f64] {
        let slot = STRATEGIES
            .iter()
            .position(|s| *s == strategy)
            .expect("a DIL-family strategy");
        &self.by_strategy[slot]
    }

    /// Typical latency of the mix of `queries` distinct queries: the best
    /// trial's (every trial holds the same operations).
    pub fn typical(&self, strategy: Strategy, queries: usize) -> Summary {
        Summary::best_of(
            &per_trial_latency(self.series(strategy), queries, |t| t.typical),
            Better::Lower,
        )
    }

    /// Tail latency of the mix.
    pub fn p95(&self, strategy: Strategy, queries: usize) -> Summary {
        Summary::best_of(
            &per_trial_latency(self.series(strategy), queries, |t| t.p95),
            Better::Lower,
        )
    }

    pub fn io_cost_per_query(&self) -> Summary {
        Summary::exact(self.hdil_io_cost / self.hdil_queries.max(1) as f64)
    }
}

/// One figure of the [`MixLatency`] of each of [`TRIALS`] trials.
pub fn per_trial_latency(
    samples: &[f64],
    queries: usize,
    figure: impl Fn(&MixLatency) -> f64,
) -> Vec<f64> {
    mix_latency(samples, queries, TRIALS)
        .iter()
        .map(figure)
        .collect()
}

/// One pass: every query under every strategy, strategies innermost so a
/// noise burst hits all three alike.
fn pass<S: PageStore>(
    engine: &XRankEngine<S>,
    queries: &[Checked],
    opts: &QueryOptions,
    pool: Pool,
    cost_model: &CostModel,
    tally: &mut Tally,
    mut into: Option<&mut Latencies>,
) {
    for checked in queries {
        for (slot, strategy) in STRATEGIES.into_iter().enumerate() {
            let text = &checked.query.text;
            let start = Instant::now();
            let reply = match pool {
                Pool::Shared => engine.query(text, strategy, opts),
                Pool::ClearedPerQuery => engine.search_with(text, strategy, opts),
            };
            let micros = start.elapsed().as_secs_f64() * 1e6;
            let reply = std::hint::black_box(reply);
            tally.record(checked.accepts(&reply), || {
                format!("timed {strategy:?} {text:?}")
            });
            if let Some(out) = into.as_deref_mut() {
                out.by_strategy[slot].push(micros);
                if let (Strategy::Hdil, Ok(page)) = (strategy, &reply) {
                    out.hdil_io_cost += cost_model.cost(&page.io);
                    out.hdil_queries += 1;
                }
            }
        }
    }
}

/// One throughput trial: every client sends `per_client` HDIL queries,
/// [`WINDOW`] in flight, and waits for all replies. Returns queries per
/// second.
fn throughput_trial(
    executor: &QueryExecutor,
    queries: &[Checked],
    opts: &QueryOptions,
    clients: usize,
    per_client: usize,
    tally: &mut Tally,
) -> f64 {
    let barrier = Barrier::new(clients + 1);
    let mut wall = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut in_flight = VecDeque::with_capacity(WINDOW);
                    let settle = |(checked, receiver): (&Checked, std::sync::mpsc::Receiver<_>),
                                  tally: &mut Tally| {
                        let reply = receiver
                            .recv()
                            .unwrap_or(Err(xrank::query::QueryError::Unavailable("executor gone")));
                        tally.record(checked.accepts(&reply), || {
                            format!("executor {:?}", checked.query.text)
                        });
                    };
                    barrier.wait();
                    // Each client walks the query list from its own offset.
                    for i in 0..per_client {
                        let checked = &queries[(client + i * clients) % queries.len()];
                        let request = QueryRequest {
                            query: checked.query.text.clone(),
                            strategy: Strategy::Hdil,
                            opts: Some(opts.clone()),
                        };
                        match executor.submit(request) {
                            Ok(receiver) => in_flight.push_back((checked, receiver)),
                            Err(e) => tally
                                .record(false, || format!("submit {:?}: {e}", checked.query.text)),
                        }
                        if in_flight.len() == WINDOW {
                            settle(in_flight.pop_front().expect("window is full"), &mut tally);
                        }
                    }
                    for pending in in_flight.drain(..) {
                        settle(pending, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            tally.absorb(handle.join().expect("client thread panicked"));
        }
        wall = start.elapsed().as_secs_f64();
    });
    (per_client * clients) as f64 / wall.max(1e-9)
}

/// The read phase. Closed loop throughout: the latency client calls the
/// engine directly, one query at a time; the throughput clients — one per
/// hardware thread — go through one `QueryExecutor` with as many workers
/// and `AdmissionPolicy::Block`. [`TRIALS`] latency trials alternate with
/// as many throughput trials; an untimed warm-up of each sizes them so
/// that `latency_share` of `budget` goes to latency, and every trial of a
/// kind holds the same operations.
pub fn read_phase<S>(
    engine: &Arc<XRankEngine<S>>,
    queries: &[Checked],
    pool: Pool,
    budget: Duration,
    latency_share: f64,
    tally: &mut Tally,
) -> (Latencies, Summary)
where
    S: PageStore + Send + Sync + 'static,
{
    let opts = query_options();
    let cost_model = engine.config().cost_model;
    let clients = hardware_threads();
    let executor = QueryExecutor::with_policy(
        Arc::clone(engine),
        clients,
        clients * WINDOW,
        AdmissionPolicy::Block,
    );

    let warm_up = Instant::now();
    pass(engine, queries, &opts, pool, &cost_model, tally, None);
    let pass_s = warm_up.elapsed().as_secs_f64().max(1e-6);
    let passes = ((budget.as_secs_f64() * latency_share / pass_s) as usize / TRIALS).max(1);

    let rate = throughput_trial(
        &executor,
        queries,
        &opts,
        clients,
        queries.len().max(WINDOW),
        tally,
    );
    let throughput_s = budget.as_secs_f64() * (1.0 - latency_share);
    let per_client =
        ((rate * throughput_s / (TRIALS * clients) as f64) as usize).max(queries.len());

    let mut latencies = Latencies::default();
    let mut rates = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        for _ in 0..passes {
            pass(
                engine,
                queries,
                &opts,
                pool,
                &cost_model,
                tally,
                Some(&mut latencies),
            );
        }
        rates.push(throughput_trial(
            &executor, queries, &opts, clients, per_client, tally,
        ));
    }
    executor.shutdown();
    (latencies, Summary::best_of(&rates, Better::Higher))
}
