//! The benchmark's own arithmetic: percentile selection, open-loop
//! latency, Prometheus histogram deltas and span self time. Every
//! function here is pure so the unit tests below pin it down.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile read from a sample: the value, the percentile actually
/// used (lower than the one asked for when the sample is too small to
/// leave [`TAIL_SAMPLES`] beyond it) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub rank: f64,
    pub n: usize,
}

/// The nearest-rank `p` percentile of `samples`, lowered to the highest
/// percentile that still has [`TAIL_SAMPLES`] samples beyond it. The
/// median never needs lowering; a sample of at most [`TAIL_SAMPLES`]
/// values supports no tail at all and reads its median.
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    let median = (n.div_ceil(2)).max(1) - 1;
    let supported = if n > TAIL_SAMPLES {
        n - 1 - TAIL_SAMPLES
    } else {
        median
    };
    let idx = if wanted <= median {
        wanted
    } else {
        wanted.min(supported.max(median))
    };
    Pct {
        value: sorted[idx],
        rank: (idx + 1) as f64 / n as f64,
        n,
    }
}

/// Median of `samples` (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Indices of the `share` of a run's windows (rounded up) that cost the
/// least, given each window's cost (time per operation, or any figure
/// where lower is better), in run order; ties keep run order.
///
/// Every window of a run repeats the same work on the same inputs, so
/// what varies between them is the host: on a shared host a neighbour's
/// memory traffic slows every window it overlaps, by up to 1.7x on the
/// 2-vCPU machine the benchmark was written on, for seconds at a time.
/// The cheapest windows are the run measured when the host interfered
/// least. A cost the program adds to every window, such as a periodic
/// stall, stays in every window and so in the figure.
pub fn cheapest(cost: &[f64], share: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cost.len()).collect();
    order.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
    order.truncate(((cost.len() as f64 * share).ceil() as usize).max(1));
    order.sort_unstable();
    order
}

/// When request `k` of an open-loop schedule is due: `k / rate` seconds
/// after the schedule's start.
pub fn scheduled_s(k: u64, rate: f64) -> f64 {
    k as f64 / rate
}

/// Latency of an open-loop request, timed from when it was *due*, not
/// from when the generator got round to sending it: a stall that delays
/// later sends is charged to every request it delayed.
pub fn open_loop_latency_s(k: u64, rate: f64, received_s: f64) -> f64 {
    received_s - scheduled_s(k, rate)
}

/// One step of a rate ladder: its offered rate, its tail latency and
/// whether it was sustained (met the latency limit with no error).
#[derive(Debug, Clone, Copy)]
pub struct LadderStep {
    pub rate: f64,
    pub tail_s: f64,
    pub sustained: bool,
}

/// The rate a ladder sustains: the offered rate at which a step's tail
/// latency reaches `limit_s`, interpolated between the highest sustained
/// step and the step above it (geometrically in rate, linearly in
/// latency), so the figure moves with capacity between the ladder's
/// fixed steps. Where the step above failed on errors rather than
/// latency, or there is none, the highest sustained step's rate; with
/// no sustained step, 0. `steps` rise in rate.
pub fn sustained_rate(steps: &[LadderStep], limit_s: f64) -> f64 {
    let Some(k) = steps.iter().rposition(|s| s.sustained) else {
        return 0.0;
    };
    let low = steps[k];
    match steps.get(k + 1) {
        Some(high) if high.tail_s > limit_s => {
            let f = ((limit_s - low.tail_s) / (high.tail_s - low.tail_s)).clamp(0.0, 1.0);
            low.rate * (high.rate / low.rate).powf(f)
        }
        _ => low.rate,
    }
}

/// One Prometheus text-format sample keyed by its name and sorted label
/// set (`le` included for histogram buckets).
pub type SampleKey = (String, BTreeMap<String, String>);

/// Parses Prometheus text exposition (v0.0.4) into samples. Comment
/// lines and unparseable values are skipped.
pub fn parse_prometheus(text: &str) -> BTreeMap<SampleKey, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_owned(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                (name.to_owned(), parse_labels(body))
            }
        };
        out.insert((name, labels), value);
    }
    out
}

fn parse_labels(body: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            break;
        }
        if chars.next() != Some('"') {
            break;
        }
        let mut value = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(other) => value.push(other),
                    None => break,
                },
                '"' => break,
                other => value.push(other),
            }
        }
        labels.insert(key.trim_start_matches(',').trim().to_owned(), value);
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    labels
}

/// Sum of every sample of `name` whose labels include all of `filter`.
pub fn sum_samples(samples: &BTreeMap<SampleKey, f64>, name: &str, filter: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|((n, labels), _)| {
            n == name
                && filter
                    .iter()
                    .all(|(k, v)| labels.get(*k).map(String::as_str) == Some(*v))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The cumulative bucket counts of histogram `name` between two scrapes,
/// summed over every series matching `filter`: `(upper bound, count)`
/// ascending, `+Inf` last.
///
/// Series list only their occupied buckets, so a bound one scrape (or
/// one series) lists may be missing from another. A missing bound reads
/// the cumulative count of the nearest listed bound below it.
pub fn histogram_delta(
    before: &BTreeMap<SampleKey, f64>,
    after: &BTreeMap<SampleKey, f64>,
    name: &str,
    filter: &[(&str, &str)],
) -> Vec<(f64, f64)> {
    let after = bucket_series(after, name, filter);
    let before = bucket_series(before, name, filter);
    let mut bounds: Vec<f64> = after
        .values()
        .chain(before.values())
        .flat_map(|b| b.iter().map(|&(le, _)| le))
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let cumulative_at = |series: &[(f64, f64)], le: f64| {
        series
            .iter()
            .take_while(|&&(bound, _)| bound <= le)
            .last()
            .map_or(0.0, |&(_, c)| c)
    };
    bounds
        .into_iter()
        .map(|le| {
            let count = after
                .iter()
                .map(|(labels, series)| {
                    let prior = before.get(labels).map_or(0.0, |b| cumulative_at(b, le));
                    cumulative_at(series, le) - prior
                })
                .sum();
            (le, count)
        })
        .collect()
}

/// The `_bucket` series of histogram `name` matching `filter`, keyed by
/// their labels without `le`, each sorted by bound.
fn bucket_series(
    samples: &BTreeMap<SampleKey, f64>,
    name: &str,
    filter: &[(&str, &str)],
) -> BTreeMap<BTreeMap<String, String>, Vec<(f64, f64)>> {
    let bucket = format!("{name}_bucket");
    let mut out: BTreeMap<BTreeMap<String, String>, Vec<(f64, f64)>> = BTreeMap::new();
    for ((n, labels), &v) in samples {
        if *n != bucket
            || !filter
                .iter()
                .all(|(k, want)| labels.get(*k).map(String::as_str) == Some(*want))
        {
            continue;
        }
        let Some(le) = labels.get("le") else { continue };
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse::<f64>() {
                Ok(x) => x,
                Err(_) => continue,
            }
        };
        let mut series = labels.clone();
        series.remove("le");
        out.entry(series).or_default().push((le, v));
    }
    for series in out.values_mut() {
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

/// The `q` quantile of a cumulative histogram (as [`histogram_delta`]
/// returns), interpolated linearly inside the bucket it falls in, the
/// way Prometheus' `histogram_quantile` does. `None` for an empty one.
pub fn histogram_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let mut lower = 0.0;
    let mut below = 0.0;
    for &(le, cumulative) in buckets {
        if cumulative >= target {
            if le.is_infinite() {
                return Some(lower);
            }
            let in_bucket = cumulative - below;
            let frac = if in_bucket > 0.0 {
                (target - below) / in_bucket
            } else {
                1.0
            };
            return Some(lower + (le - lower) * frac);
        }
        lower = le;
        below = cumulative;
    }
    Some(lower)
}

/// One recorded span: `[start, end)` in nanoseconds since the run's
/// epoch, with the index of the span that encloses it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children counted once, and clipped to
/// the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the function must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn percentile_uses_nearest_rank_when_the_tail_is_large_enough() {
        let p = percentile(&ramp(1000), 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        assert!((p.rank - 0.99).abs() < 1e-12);
        assert_eq!(percentile(&ramp(1000), 0.5).value, 500.0);
    }

    #[test]
    fn percentile_lowers_to_the_highest_rank_with_ten_samples_beyond() {
        // 200 samples: p99 would leave 2 beyond it, so the index drops to
        // 189 (value 190), which leaves exactly 10 beyond.
        let p = percentile(&ramp(200), 0.99);
        assert_eq!(p.value, 190.0);
        assert!((p.rank - 0.95).abs() < 1e-12);
        // p95 of 200 leaves exactly 10 beyond and is kept.
        assert_eq!(percentile(&ramp(200), 0.95).value, 190.0);
        // p95 of 199 is index 189 (value 190), which leaves 9 beyond:
        // lowered by one rank to value 189, with exactly 10 beyond.
        assert_eq!(percentile(&ramp(199), 0.95).value, 189.0);
    }

    #[test]
    fn percentile_of_a_tiny_sample_reads_its_median() {
        assert_eq!(percentile(&ramp(5), 0.99).value, 3.0);
        assert_eq!(percentile(&ramp(10), 0.99).value, 5.0);
        assert_eq!(percentile(&[7.0], 0.99).value, 7.0);
        assert_eq!(median(&ramp(4)), 2.0);
    }

    #[test]
    fn cheapest_keeps_the_cheapest_windows_in_run_order() {
        let cost = [5.0, 2.0, 9.0, 1.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(cheapest(&cost, 0.25), vec![1, 3]);
        assert_eq!(cheapest(&cost, 0.125), vec![3]);
        assert_eq!(cheapest(&cost, 0.5), vec![0, 1, 3, 4]);
        assert_eq!(cheapest(&[5.0, 0.5, 9.0, 1.0, 0.0], 0.25), vec![1, 4]);
        // Ties keep the earlier windows; at least one window is kept.
        assert_eq!(cheapest(&[0.0, 0.0, 0.0, 0.0], 0.25), vec![0]);
        assert_eq!(cheapest(&[3.0], 0.1), vec![0]);
    }

    #[test]
    fn open_loop_latency_counts_from_the_schedule() {
        // 100/s: request 5 is due at 50 ms. Received at 80 ms it waited
        // 30 ms, however late the generator actually sent it.
        assert!((scheduled_s(5, 100.0) - 0.05).abs() < 1e-12);
        assert!((open_loop_latency_s(5, 100.0, 0.08) - 0.03).abs() < 1e-12);
        // A stall delaying request 0 by 1 s is charged to request 9 too.
        assert!((open_loop_latency_s(9, 10.0, 1.95) - 1.05).abs() < 1e-12);
    }

    fn step(rate: f64, tail_ms: f64, sustained: bool) -> LadderStep {
        LadderStep {
            rate,
            tail_s: tail_ms / 1e3,
            sustained,
        }
    }

    #[test]
    fn sustained_rate_interpolates_to_the_latency_limit() {
        // 50 ms limit, met at 1000/s (10 ms), missed at 4000/s (90 ms):
        // halfway in latency is halfway in log rate, 2000/s.
        let steps = [
            step(500.0, 5.0, true),
            step(1000.0, 10.0, true),
            step(4000.0, 90.0, false),
            step(8000.0, 400.0, false),
        ];
        assert!((sustained_rate(&steps, 0.05) - 2000.0).abs() < 1e-9);
        // A lower step failed by a stall does not lower the figure.
        let mut stalled = steps;
        stalled[0] = step(500.0, 70.0, false);
        assert!((sustained_rate(&stalled, 0.05) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_rate_without_a_latency_crossing_reads_the_step() {
        // The top step sustained: its rate.
        assert_eq!(
            sustained_rate(&[step(500.0, 5.0, true), step(1000.0, 8.0, true)], 0.05),
            1000.0
        );
        // The step above failed on an error, not on latency.
        assert_eq!(
            sustained_rate(&[step(500.0, 5.0, true), step(1000.0, 8.0, false)], 0.05),
            500.0
        );
        // Nothing sustained.
        assert_eq!(sustained_rate(&[step(500.0, 90.0, false)], 0.05), 0.0);
    }

    const SCRAPE_BEFORE: &str = "\
# HELP lahar_server_request_duration_seconds x
# TYPE lahar_server_request_duration_seconds histogram
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"0.000002048\"} 4
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"0.000004096\"} 6
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"+Inf\"} 6
lahar_server_request_duration_seconds_count{command=\"tick\",phase=\"execute\"} 6
lahar_server_overloaded_total 1
";

    const SCRAPE_AFTER: &str = "\
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"0.000002048\"} 4
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"0.000004096\"} 16
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"0.000008192\"} 26
lahar_server_request_duration_seconds_bucket{command=\"tick\",phase=\"execute\",le=\"+Inf\"} 26
lahar_server_request_duration_seconds_bucket{command=\"stage\",phase=\"execute\",le=\"0.000004096\"} 10
lahar_server_request_duration_seconds_bucket{command=\"stage\",phase=\"execute\",le=\"+Inf\"} 10
lahar_server_request_duration_seconds_bucket{command=\"stage\",phase=\"respond\",le=\"0.1\"} 99
lahar_server_overloaded_total 3
lahar_wal_bytes_total{session=\"a \\\"b\\\"\"} 100
lahar_wal_bytes_total{session=\"c\"} 50
";

    #[test]
    fn prometheus_histogram_delta_subtracts_the_earlier_scrape() {
        let before = parse_prometheus(SCRAPE_BEFORE);
        let after = parse_prometheus(SCRAPE_AFTER);
        let name = "lahar_server_request_duration_seconds";
        let tick = histogram_delta(
            &before,
            &after,
            name,
            &[("command", "tick"), ("phase", "execute")],
        );
        // 20 requests arrived between the scrapes: 10 in (2.048, 4.096] µs
        // and 10 in (4.096, 8.192] µs.
        assert_eq!(
            tick,
            vec![
                (2.048e-6, 0.0),
                (4.096e-6, 10.0),
                (8.192e-6, 20.0),
                (f64::INFINITY, 20.0)
            ]
        );
        let q50 = histogram_quantile(&tick, 0.5).unwrap();
        assert!((q50 - 4.096e-6).abs() < 1e-15);
        let q75 = histogram_quantile(&tick, 0.75).unwrap();
        assert!((q75 - 6.144e-6).abs() < 1e-15);
        // Summing across commands keeps the counts cumulative even where
        // one series lacks a bound the other lists.
        let both = histogram_delta(&before, &after, name, &[("phase", "execute")]);
        assert_eq!(both.last().unwrap().1, 30.0);
        assert!(both.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(histogram_quantile(&[], 0.5), None);
    }

    #[test]
    fn prometheus_counters_sum_across_label_sets() {
        let before = parse_prometheus(SCRAPE_BEFORE);
        let after = parse_prometheus(SCRAPE_AFTER);
        assert_eq!(
            sum_samples(&after, "lahar_server_overloaded_total", &[])
                - sum_samples(&before, "lahar_server_overloaded_total", &[]),
            2.0
        );
        assert_eq!(sum_samples(&after, "lahar_wal_bytes_total", &[]), 150.0);
        assert_eq!(
            sum_samples(&after, "lahar_wal_bytes_total", &[("session", "a \"b\"")]),
            100.0
        );
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("leaf", 15, 20, Some(1)),
            span("late", 90, 130, Some(0)), // runs past its parent
        ];
        // root: 100 - (10..60 = 50) - (90..100 = 10) = 40.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 40);
        assert_eq!(by_name["leaf"], 5);
    }
}
