//! The arithmetic behind the reported numbers: percentile selection,
//! per-request latency, SLO attainment and error accounting.
//!
//! Everything here is a pure function of recorded timestamps, so the unit
//! tests at the bottom pin the rules the report relies on.

/// Samples a reported percentile must leave beyond itself. A p90 over 40
/// samples would rest on 4 of them, so the selection falls back to the
/// highest percentile that still has this many samples above it.
pub const TAIL_MIN: usize = 10;

/// A selected percentile: the value, the percentile actually used (which
/// may be below the one asked for, see [`TAIL_MIN`]) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the selected rank.
    pub value: f64,
    /// The percentile used, as a fraction in `[0, 1]`.
    pub p: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank percentile `p` (a fraction) of `samples`, capped at the
/// highest percentile with at least [`TAIL_MIN`] samples beyond it. With
/// `TAIL_MIN` samples or fewer the cap is 0 and the minimum is returned.
/// `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cap = n.saturating_sub(TAIL_MIN) as f64 / n as f64;
    let p = p.clamp(0.0, 1.0).min(cap);
    // Nearest rank: the smallest rank r with r >= p * n (1-based), so
    // exactly n - r samples lie beyond the selected one.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(Pct {
        value: sorted[rank.min(n) - 1],
        p,
        n,
    })
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Plain median (mean of the middle two for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Output tokens per second in each whole `window_s` window of
/// `[0, end_s)`. A completed request's first token counts at its
/// first-token time; the rest arrive at an even rate over the span from
/// there to its finish time (one decode step per token), so a window
/// receives the share of them its overlap with that span covers.
pub fn windowed_rates(requests: &[Timing], window_s: f64, end_s: f64) -> Vec<f64> {
    let windows = (end_s / window_s).floor() as usize;
    let mut tokens = vec![0.0f64; windows];
    for r in requests.iter().filter(|r| r.status == Status::Completed) {
        let (Some(first), Some(last)) = (r.first_token_s, r.finished_s) else {
            continue;
        };
        if r.tokens == 0 {
            continue;
        }
        if let Some(w) = tokens.get_mut((first / window_s).floor() as usize) {
            *w += 1.0;
        }
        let rest = (r.tokens - 1) as f64;
        if rest == 0.0 || last <= first {
            continue;
        }
        for (i, w) in tokens.iter_mut().enumerate() {
            let (lo, hi) = (i as f64 * window_s, (i + 1) as f64 * window_s);
            let overlap = hi.min(last) - lo.max(first);
            if overlap > 0.0 {
                *w += rest * overlap / (last - first);
            }
        }
    }
    tokens.iter().map(|n| n / window_s).collect()
}

/// How one sent request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Full generation returned and (where checked) correct.
    Completed,
    /// Accepted but ended without its full generation.
    Failed,
    /// Refused at the gateway's front door.
    Refused,
    /// Completed, but its tokens disagree with a reference run.
    Mismatch,
}

/// Client-side timestamps of one sent request, in seconds from the start
/// of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due: its scheduled arrival (open loop) or the
    /// moment its client got the previous answer (closed loop). Latency is
    /// measured from here, so lag in the load generator counts against it.
    pub due_s: f64,
    /// When the first generated token was available.
    pub first_token_s: Option<f64>,
    /// When the last generated token was available.
    pub finished_s: Option<f64>,
    /// Tokens generated.
    pub tokens: usize,
    /// Terminal status.
    pub status: Status,
}

impl Timing {
    /// Time to first token, from the due time.
    pub fn ttft_s(&self) -> Option<f64> {
        Some(self.first_token_s? - self.due_s)
    }

    /// Mean time per output token after the first; `None` below two tokens.
    pub fn tpot_s(&self) -> Option<f64> {
        if self.tokens < 2 {
            return None;
        }
        Some((self.finished_s? - self.first_token_s?) / (self.tokens - 1) as f64)
    }
}

/// A latency objective per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// TTFT limit in seconds.
    pub ttft_s: f64,
    /// TPOT limit in seconds.
    pub tpot_s: f64,
}

/// The objective the report grades against: TTFT <= 100 ms and
/// TPOT <= 20 ms.
pub const SLO: Slo = Slo {
    ttft_s: 0.100,
    tpot_s: 0.020,
};

/// Share of *sent* requests that completed correctly within `slo`. Failed,
/// refused and mismatched requests count as misses.
pub fn slo_attainment(requests: &[Timing], slo: Slo) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let met = requests
        .iter()
        .filter(|r| r.status == Status::Completed)
        .filter(|r| r.ttft_s().is_some_and(|t| t <= slo.ttft_s))
        .filter(|r| r.tpot_s().is_none_or(|t| t <= slo.tpot_s))
        .count();
    met as f64 / requests.len() as f64
}

/// (failed + refused + mismatched) / sent.
pub fn error_rate(requests: &[Timing]) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let bad = requests
        .iter()
        .filter(|r| r.status != Status::Completed)
        .count();
    bad as f64 / requests.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the function has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let p = percentile(&ramp(100), 0.9).unwrap();
        assert_eq!((p.value, p.n), (90.0, 100));
        assert!((p.p - 0.9).abs() < 1e-12);
        // 40 samples: p90 would leave 4 beyond, so p75 (10 beyond) is used.
        let p = percentile(&ramp(40), 0.9).unwrap();
        assert_eq!(p.value, 30.0);
        assert!((p.p - 0.75).abs() < 1e-12);
        assert_eq!(p.n, 40);
        // The median of 1000 samples is untouched by the cap.
        assert_eq!(percentile(&ramp(1000), 0.5).unwrap().value, 500.0);
        // Too few samples for any tail: the minimum, at p = 0.
        let p = percentile(&ramp(7), 0.5).unwrap();
        assert_eq!((p.value, p.p), (1.0, 0.0));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn selected_percentile_has_exactly_tail_min_beyond() {
        for n in [11usize, 23, 57, 100, 101, 333] {
            let samples = ramp(n);
            let p = percentile(&samples, 0.99).unwrap();
            let beyond = samples.iter().filter(|&&v| v > p.value).count();
            assert_eq!(beyond, TAIL_MIN, "n = {n}");
        }
    }

    #[test]
    fn windowed_rates_spread_tokens_over_the_decode_span() {
        // 11 tokens: one at 0.5 s, then 10 at 5 per second up to 2.5 s.
        let a = done(0.0, 0.5, 2.5, 11);
        // One at 2.65 s, then 5 per second; 0.35 s of it is before 3.0 s.
        let b = done(0.0, 2.65, 4.65, 11);
        let failed = Timing {
            status: Status::Failed,
            ..a
        };
        let rates = windowed_rates(&[a, b, failed], 1.0, 3.5);
        let expect = [1.0 + 2.5, 5.0, 2.5 + 1.0 + 0.35 * 5.0];
        assert_eq!(rates.len(), 3);
        for (r, e) in rates.iter().zip(expect) {
            assert!((r - e).abs() < 1e-9, "{rates:?}");
        }
        assert!((median(&rates) - 5.0).abs() < 1e-9);
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn done(due: f64, first: f64, finished: f64, tokens: usize) -> Timing {
        Timing {
            due_s: due,
            first_token_s: Some(first),
            finished_s: Some(finished),
            tokens,
            status: Status::Completed,
        }
    }

    #[test]
    fn open_loop_ttft_counts_from_the_due_time() {
        // Due at 1.000 s, offered late by the generator, first token at
        // 1.080 s: the client waited 80 ms, whatever the offer time was.
        let t = done(1.000, 1.080, 1.280, 11);
        assert!((t.ttft_s().unwrap() - 0.080).abs() < 1e-12);
        assert!((t.tpot_s().unwrap() - 0.020).abs() < 1e-12);
        assert!(done(0.0, 0.1, 0.1, 1).tpot_s().is_none());
    }

    #[test]
    fn slo_counts_failed_and_refused_as_misses() {
        let ok = done(0.0, 0.05, 0.15, 11); // 50 ms TTFT, 10 ms TPOT
        let slow_first = done(0.0, 0.25, 0.35, 11);
        let slow_decode = done(0.0, 0.05, 0.55, 11); // 50 ms TPOT
        let failed = Timing {
            status: Status::Failed,
            ..ok
        };
        let refused = Timing {
            due_s: 0.0,
            first_token_s: None,
            finished_s: None,
            tokens: 0,
            status: Status::Refused,
        };
        let mismatch = Timing {
            status: Status::Mismatch,
            ..ok
        };
        let all = [ok, slow_first, slow_decode, failed, refused, mismatch];
        assert!((slo_attainment(&all, SLO) - 1.0 / 6.0).abs() < 1e-12);
        assert!((error_rate(&all) - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(slo_attainment(&[ok, ok], SLO), 1.0);
        assert_eq!(error_rate(&[ok]), 0.0);
        assert_eq!(slo_attainment(&[], SLO), 0.0);
    }
}
