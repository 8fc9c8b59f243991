//! Order statistics for trial samples.
//!
//! One quantile definition is used everywhere — the "exclusive" method of
//! Python's `statistics.quantiles`, which is what the driver applies to
//! the ten values it collects per metric — so a spread computed here is
//! the spread the driver will see.

/// The `q`-quantile (0 < q < 1) of an ascending slice: position
/// `q·(n+1)` in 1-based ranks, linearly interpolated and clamped to the
/// extremes. Panics on an empty slice (a trial with no samples is a bug
/// in the caller, not a measurement).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize; // 1-based rank of the lower neighbour
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    quantile(&ascending(values), q)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric's value over the trials of one run, the inter-quartile
/// spread of the per-trial statistic, and the trial count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    fn with(values: &[f64], q: f64) -> Summary {
        let v = ascending(values);
        let iqr = if v.len() < 2 {
            0.0
        } else {
            quantile(&v, 0.75) - quantile(&v, 0.25)
        };
        Summary {
            value: quantile(&v, q),
            iqr,
            n: v.len(),
        }
    }

    /// The median over trials: for phases whose trials differ because the
    /// program itself does different work in them.
    pub fn median_of(values: &[f64]) -> Summary {
        Summary::with(values, 0.5)
    }

    /// The best trial: the lowest of a cost, the highest of a rate. For
    /// phases whose trials all hold the same work. The machine is shared;
    /// what its other tenants do only ever adds time, in bursts that slow
    /// whole seconds by a fifth or more, so the least disturbed trial is
    /// the steadiest estimate of what the program costs — it reads the
    /// same as long as one trial in nine is quiet. The spread printed
    /// beside it is still over all trials and shows how unquiet the run was.
    pub fn best_of(values: &[f64], better: Better) -> Summary {
        Summary::with(values, if better == Better::Lower { 0.0 } else { 1.0 })
    }

    /// A value that was counted or measured once (bytes, pages, one build).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            iqr: 0.0,
            n: 1,
        }
    }

    /// Inter-quartile spread as a share of the value.
    pub fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.iqr / self.value).abs()
        }
    }
}

/// Splits `samples` (in arrival order) into `trials` consecutive equal
/// chunks, dropping the remainder at the tail, and applies `stat` to
/// each. Fewer samples than trials yields one chunk per sample.
pub fn per_trial(samples: &[f64], trials: usize, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let size = (samples.len() / trials.max(1)).max(1);
    samples.chunks_exact(size).take(trials).map(stat).collect()
}

/// Latency of a query mix within one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixLatency {
    /// Geometric mean over the distinct queries of each query's median
    /// latency: every query weighs the same in relative terms, however
    /// far apart their costs are.
    pub typical: f64,
    /// `typical` × the 95th percentile of (sample ÷ its own query's
    /// median): how far the tail strays from the typical, whatever the
    /// mix.
    pub p95: f64,
}

/// Per-trial latency of a query mix. `samples` are in arrival order and
/// cycle through `queries` distinct queries (sample `i` belongs to query
/// `i % queries`); they are cut into `trials` consecutive chunks of whole
/// cycles, the tail dropped.
///
/// A pooled median over a mix of queries with different costs sits in the
/// gap between two of them and jumps when either moves; across seeds that
/// alone spread a pooled p50 by a third. The per-query medians do not.
pub fn mix_latency(samples: &[f64], queries: usize, trials: usize) -> Vec<MixLatency> {
    let queries = queries.clamp(1, samples.len().max(1));
    let cycles = (samples.len() / queries / trials.max(1)).max(1);
    samples
        .chunks_exact(cycles * queries)
        .take(trials)
        .map(|chunk| {
            let medians: Vec<f64> = (0..queries)
                .map(|q| {
                    median(
                        &chunk
                            .iter()
                            .skip(q)
                            .step_by(queries)
                            .copied()
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let typical = (medians.iter().map(|m| m.ln()).sum::<f64>() / queries as f64).exp();
            let ratios: Vec<f64> = chunk
                .iter()
                .enumerate()
                .map(|(i, sample)| sample / medians[i % queries])
                .collect();
            MixLatency {
                typical,
                p95: typical * percentile(&ratios, 0.95),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_latency_weighs_queries_equally_and_scales_the_tail() {
        // Two queries, 100 µs and 10 000 µs, three cycles per trial, two
        // trials; the second trial's slow query has one 3× outlier.
        let samples = [
            100.0, 10_000.0, 110.0, 10_100.0, 90.0, 9_900.0, // trial 1
            100.0, 10_000.0, 100.0, 30_000.0, 100.0, 10_000.0, // trial 2
        ];
        let trials = mix_latency(&samples, 2, 2);
        assert_eq!(trials.len(), 2);
        assert!(
            (trials[0].typical - 1_000.0).abs() < 1e-9,
            "sqrt(100 · 10 000)"
        );
        assert!((trials[0].p95 - 1_100.0).abs() < 1e-9, "worst ratio 1.1");
        assert!(
            (trials[1].typical - 1_000.0).abs() < 1e-9,
            "the outlier does not move a median"
        );
        assert!((trials[1].p95 - 3_000.0).abs() < 1e-9);
        // A pooled median would sit between the two queries.
        assert!((median(&samples[..6]) - 5_005.0).abs() < 1e-9);
    }

    #[test]
    fn mix_latency_copes_with_short_series() {
        assert!(mix_latency(&[], 4, 9).is_empty());
        let one = mix_latency(&[5.0, 7.0], 4, 9);
        assert_eq!(one.len(), 1);
        assert!((one[0].typical - 35f64.sqrt()).abs() < 1e-12);
        assert_eq!(mix_latency(&[1.0; 40], 4, 9).len(), 9); // one cycle each, four samples dropped
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.25), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.75), 3.0);
    }

    #[test]
    fn extremes_clamp() {
        let v = [10.0, 20.0];
        assert_eq!(quantile(&v, 0.01), 10.0);
        assert_eq!(quantile(&v, 0.99), 20.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_needs_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 0.95 * 101 = 95.95 → between the 95th and 96th value.
        assert!((quantile(&v, 0.95) - 95.95).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_vector() {
        let trials = [4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let s = Summary::median_of(&trials);
        assert_eq!((s.value, s.iqr, s.n), (5.0, 5.0, 9)); // quartiles 2.5 and 7.5
        assert!((s.relative_spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::best_of(&trials, Better::Lower).value, 1.0);
        assert_eq!(Summary::best_of(&trials, Better::Higher).value, 9.0);
        assert_eq!(Summary::best_of(&trials, Better::Higher).iqr, 5.0);
        let one = Summary::best_of(&[3.5], Better::Lower);
        assert_eq!((one.value, one.iqr, one.n), (3.5, 0.0, 1));
    }

    #[test]
    fn the_best_trial_ignores_all_but_one_slow_trial() {
        let calm = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9];
        let mut disturbed = calm;
        for slow in &mut disturbed[..8] {
            *slow *= 1.3;
        }
        let (a, b) = (
            Summary::best_of(&calm, Better::Lower),
            Summary::best_of(&disturbed, Better::Lower),
        );
        assert!(
            (a.value - b.value).abs() / a.value < 0.01,
            "{} vs {}",
            a.value,
            b.value
        );
        let (a, b) = (Summary::median_of(&calm), Summary::median_of(&disturbed));
        assert!((a.value - b.value).abs() / a.value > 0.2);
    }

    #[test]
    fn per_trial_chunks_evenly_and_drops_the_tail() {
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        let sums = per_trial(&samples, 9, |c| c.iter().sum());
        assert_eq!(sums.len(), 9);
        assert_eq!(sums[0], 0.0 + 1.0);
        assert_eq!(sums[8], 16.0 + 17.0);
        assert_eq!(per_trial(&[1.0, 2.0], 9, |c| c[0]).len(), 2);
        assert!(per_trial(&[], 9, |c| c[0]).is_empty());
    }
}
