//! Metric definitions and their arithmetic.
//!
//! Every metric names its clock. Names ending `_us`, `_s`, `_per_s` are
//! host wall-clock; names containing `cycles` are modeled machine
//! cycles; the rest are counts, ratios or sizes.

use std::collections::BTreeMap;
use std::time::Duration;

use tyche_bench::histogram::Histogram;
use tyche_bench::timing;

use crate::load::{LoopStats, Window, SUB};
use crate::trace::{Tracer, LAYERS, LEAVES};

/// Which clock (if any) a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock: what the Rust monitor logic really costs.
    Wall,
    /// Modeled machine cycles: what the modeled hardware would spend.
    Modeled,
    /// Not a time: a count, ratio or size.
    None,
}

impl Clock {
    /// Label printed beside the metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "host wall-clock",
            Clock::Modeled => "modeled cycles",
            Clock::None => "not a time",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
}

fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        better,
        clock,
    }
}

/// Failed share of attempted operations; an empty run has none.
pub fn fail_ratio(attempted: u64, failed: u64) -> Result<f64, String> {
    if attempted == 0 {
        return Err("zero operations attempted".into());
    }
    Ok(failed as f64 / attempted as f64)
}

/// Percentile `q` of a span histogram in microseconds (the histogram
/// reports the upper bound of the bucket holding the rank, clamped to
/// the samples).
pub fn hist_percentile_us(h: &Histogram, q: f64) -> f64 {
    h.percentile(q) as f64 / 1_000.0
}

/// Nearest-rank percentile `q` of raw nanosecond samples, in
/// microseconds. The gated figures use this rather than a histogram:
/// a bucket bound would read the same on every run of a steady figure.
pub fn percentile_us(samples: &[u64], q: f64) -> Option<f64> {
    let xs: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1_000.0).collect();
    quantile(&xs, q)
}

/// Nearest-rank quantile `q` in `[0, 1]` of a non-empty sample: the
/// value at rank `ceil(q * n)`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Peak resident set of this process (`VmHWM`) in MiB since start or
/// since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set (Linux `clear_refs` 5),
/// so the next [`peak_rss_mib`] is the peak of the interval since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Operations per second over `ops` in `elapsed`, through the checked
/// per-op division (zero ops and sub-nanosecond quotients are errors).
pub fn ops_per_s(ops: u64, elapsed: Duration) -> Result<f64, String> {
    let n = usize::try_from(ops).map_err(|_| "op count overflows usize".to_string())?;
    // Only for its checks: the quotient is truncated to whole ns, so
    // the rate comes from the exact total.
    timing::per_op_ns(elapsed, n).map_err(|e| e.to_string())?;
    let total = timing::total_ns(elapsed).map_err(|e| e.to_string())?;
    Ok(ops as f64 * 1e9 / total as f64)
}

/// The end-to-end spec: `(name, unit, better, clock)`.
pub const END_TO_END: [(&str, &str, &str, Clock); 7] = [
    ("ops_per_s", "1/s", "higher", Clock::Wall),
    ("p50_us", "us", "lower", Clock::Wall),
    ("p99_us", "us", "lower", Clock::Wall),
    ("read_p99_us", "us", "lower", Clock::Wall),
    ("modeled_cycles_per_op", "cycles", "lower", Clock::Modeled),
    ("setup_s", "s", "lower", Clock::Wall),
    ("peak_rss_mib", "MiB", "lower", Clock::None),
];

/// End-to-end metrics of an untraced run.
///
/// The rate and median are read from the sub-windows the run's
/// [`Selection`](crate::load::Selection) kept: the 2% whose median
/// operation ran fastest. `ops_per_s` is their operations over their
/// length (times the load threads), and `p50_us` the median of all their
/// samples. On a shared host the same code runs in speed states 1.4x to
/// 1.7x apart that last from milliseconds to minutes; whole-window
/// medians follow the share of time a run spent in each, while almost
/// every run holds some sub-windows in the fast state. The p99 figures
/// are read from the whole window: the median over its
/// [`Tails`](crate::load::Tails) chunks of each chunk's p99, so every
/// slow operation counts. The resident-set figure is the peak over the
/// whole window and set-up time the median of the timed set-ups. A run
/// with no completed operation, fewer kept sub-windows than asked, or
/// too few read samples for a p99 is an error rather than a row.
pub fn end_to_end(st: &LoopStats, win: &Window, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    fail_ratio(st.attempted, st.failed)?;
    if st.failed >= st.attempted {
        return Err("every operation failed".into());
    }
    // Checked: a window with no operation is an error, never a rate.
    ops_per_s(st.window.ops, st.window.elapsed)?;
    if st.window.cycles == 0 {
        return Err("no modeled cycles charged".into());
    }
    let kept = &st.selection.kept;
    if (kept.len() as u64) < win.keep() as u64 * st.threads {
        return Err(format!(
            "{} sub-windows saw an operation, fewer than the {} to keep",
            kept.len(),
            win.keep() as u64 * st.threads
        ));
    }
    let latency: Vec<u64> = kept
        .iter()
        .flat_map(|(_, s)| s.latency.iter().map(|&ns| u64::from(ns)))
        .collect();
    let tails = &st.tails;
    if tails.read_samples < win.min_samples {
        return Err(format!(
            "{} read samples in the window, fewer than the {} a p99 needs",
            tails.read_samples, win.min_samples
        ));
    }
    let span = kept.len() as f64 * SUB.as_secs_f64() / st.threads.max(1) as f64;
    let values = [
        Some(latency.len() as f64 / span),
        percentile_us(&latency, 0.50),
        quantile(&tails.p99_us, 0.5),
        quantile(&tails.read_p99_us, 0.5),
        Some(st.window.cycles as f64 / st.window.ops as f64),
        quantile(setup_s, 0.5),
        Some(st.peak_rss_mib).filter(|&v| v > 0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, better, clock), v)| {
            v.map(|v| metric(name, v, unit, better, clock))
                .ok_or_else(|| format!("{name}: no sample"))
        })
        .collect()
}

/// Count metrics of the traced run: `(name, unit, better)`.
pub const COUNTS: [(&str, &str, &str); 12] = [
    ("smp.mutations", "count", "higher"),
    ("smp.snapshot_reads", "count", "higher"),
    ("smp.fast_transitions", "count", "higher"),
    ("smp.shard_waits", "count", "lower"),
    ("smp.ipis_sent", "count", "lower"),
    ("smp.shootdowns_requested", "count", "higher"),
    ("smp.ipis_per_shootdown", "ratio", "lower"),
    ("monitor.calls", "count", "higher"),
    ("monitor.compensations", "count", "lower"),
    ("monitor.quarantines", "count", "lower"),
    ("fleet.accepted", "count", "higher"),
    ("fleet.violations", "count", "lower"),
];

/// Adds the monitor registry counters accrued between `before` (taken
/// after set-up) and `after`.
pub fn monitor_counts(
    counts: &mut BTreeMap<&'static str, f64>,
    before: tyche_monitor::monitor::Stats,
    after: tyche_monitor::monitor::Stats,
) {
    counts.insert("monitor.calls", (after.calls - before.calls) as f64);
    counts.insert(
        "monitor.compensations",
        (after.compensations - before.compensations) as f64,
    );
    counts.insert(
        "monitor.quarantines",
        (after.quarantines - before.quarantines) as f64,
    );
}

/// The tracer's own figures: `(name, unit, better)`.
pub const TRACE_FIGURES: [(&str, &str, &str); 5] = [
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "higher"),
    ("trace.spans", "count", "higher"),
];

/// Every per-layer metric name with its unit and direction, in report
/// order.
pub fn per_layer_spec() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for l in LAYERS {
        out.push((format!("{}.p50_us", l.name()), "us", "lower"));
        out.push((format!("{}.p99_us", l.name()), "us", "lower"));
    }
    for (name, unit, better) in COUNTS {
        out.push((name.to_string(), unit, better));
    }
    for (_, leaf) in LEAVES {
        out.push((format!("cycles.{leaf}"), "cycles", "lower"));
    }
    out.push(("cycles.outside_hypercalls".into(), "cycles", "lower"));
    for (name, unit, better) in TRACE_FIGURES {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// Clock of a per-layer metric, from its name.
fn clock_of(name: &str) -> Clock {
    if name.starts_with("cycles.") {
        Clock::Modeled
    } else if name.ends_with("_us")
        || name.ends_with("_per_s")
        || name.ends_with("_untraced")
        || name.ends_with("_traced")
    {
        Clock::Wall
    } else {
        Clock::None
    }
}

/// Per-layer metrics of a traced run. Layers the workload bypasses
/// report 0: no span was taken, no leaf was called.
pub fn per_layer(
    st: &LoopStats,
    tr: &Tracer,
    counts: &BTreeMap<&'static str, f64>,
    leaf_cycles: &BTreeMap<u64, u64>,
) -> Result<Vec<Metric>, String> {
    fail_ratio(st.attempted, st.failed)?;
    let untraced = ops_per_s(st.untraced.ops, st.untraced.elapsed)
        .map_err(|e| format!("untraced chunks: {e}"))?;
    let traced =
        ops_per_s(st.traced.ops, st.traced.elapsed).map_err(|e| format!("traced chunks: {e}"))?;
    let traced_ops = st.traced.ops as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for l in LAYERS {
        let (p50, p99) = tr.layer_hist(l).map_or((0.0, 0.0), |h| {
            (hist_percentile_us(h, 0.5), hist_percentile_us(h, 0.99))
        });
        values.insert(format!("{}.p50_us", l.name()), p50);
        values.insert(format!("{}.p99_us", l.name()), p99);
    }
    for (name, v) in counts {
        values.insert((*name).to_string(), *v);
    }
    for (leaf, suffix) in LEAVES {
        let c = leaf_cycles.get(&leaf).copied().unwrap_or(0);
        values.insert(format!("cycles.{suffix}"), c as f64 / traced_ops);
    }
    values.insert(
        "cycles.outside_hypercalls".into(),
        tr.outside_cycles as f64 / traced_ops,
    );
    values.insert("trace.uncovered_share".into(), tr.uncovered_share());
    values.insert("trace.ops_per_s_untraced".into(), untraced);
    values.insert("trace.ops_per_s_traced".into(), traced);
    values.insert("trace.overhead_ops_per_s".into(), traced - untraced);
    values.insert("trace.spans".into(), tr.span_count() as f64);
    per_layer_spec()
        .into_iter()
        .map(|(name, unit, better)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            let clock = clock_of(&name);
            Ok(Metric {
                name,
                value: v,
                unit,
                better,
                clock,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Phase;

    /// Two sub-windows, one kept.
    const WIN: Window = Window {
        seconds: 0.01,
        min_samples: 1,
        warmup_ops: 0,
        traced: false,
    };

    fn stats(samples: &[u64], attempted: u64, failed: u64) -> LoopStats {
        let mut st = LoopStats::new();
        st.attempted = attempted;
        st.failed = failed;
        for &s in samples {
            st.record(&WIN, Duration::ZERO, s, Some(s));
        }
        st.close(&WIN);
        st.window = Phase {
            ops: samples.len() as u64,
            elapsed: SUB,
            cycles: 10 * samples.len() as u64,
        };
        st.peak_rss_mib = 6.0;
        st
    }

    #[test]
    fn percentiles_on_hand_built_samples() {
        // 100..1 us shuffled: nearest rank puts p50 on the 50th sample
        // and p99 on the 99th, exactly.
        let samples: Vec<u64> = (1..=100).rev().map(|i| i * 1_000 + 7).collect();
        assert_eq!(percentile_us(&samples, 0.5), Some(50.007));
        assert_eq!(percentile_us(&samples, 0.99), Some(99.007));
        assert_eq!(percentile_us(&samples, 1.0), Some(100.007));
        assert_eq!(percentile_us(&[], 0.5), None);
        // Span histograms report the bucket's upper bound: within 1/32
        // above 32 ns, exact below.
        let mut h = Histogram::new();
        for &ns in &samples {
            h.record(ns);
        }
        let p50 = hist_percentile_us(&h, 0.5);
        assert!(
            (50.007..=50.007 * (1.0 + 1.0 / 32.0)).contains(&p50),
            "{p50}"
        );
        let mut h = Histogram::new();
        for ns in [3, 1, 2, 5, 4] {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.5), 3);
    }

    #[test]
    fn fail_ratio_arithmetic() {
        assert_eq!(fail_ratio(200, 0), Ok(0.0));
        assert_eq!(fail_ratio(200, 50), Ok(0.25));
        assert_eq!(fail_ratio(4, 4), Ok(1.0));
        assert!(fail_ratio(0, 0).is_err());
    }

    #[test]
    fn rate_and_median() {
        let r = ops_per_s(3_000, Duration::from_millis(1_500)).unwrap();
        assert!((r - 2_000.0).abs() < 1e-9);
        assert!(ops_per_s(0, Duration::from_secs(1)).is_err());
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), Some(2.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.9), Some(9.0));
        assert_eq!(quantile(&ten, 0.1), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn zero_op_and_all_failed_runs_are_errors() {
        assert!(end_to_end(&stats(&[], 0, 0), &WIN, &[1.0]).is_err());
        assert!(end_to_end(&stats(&[], 5, 5), &WIN, &[1.0]).is_err());

        let few = Window {
            min_samples: 13,
            ..WIN
        };
        assert!(
            end_to_end(&stats(&[1_000; 12], 12, 0), &few, &[1.0]).is_err(),
            "too few samples"
        );
        let ok = end_to_end(&stats(&[1_000; 12], 12, 0), &WIN, &[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(ok[1].value, 1.0, "p50 of 1 us samples");
        assert_eq!(ok.len(), END_TO_END.len());
        let rate = 12.0 / SUB.as_secs_f64();
        assert!(
            (ok[0].value - rate).abs() < 1e-9,
            "12 ops in one sub-window"
        );
        assert_eq!(ok[4].value, 10.0, "modeled cycles per op");
        assert_eq!(ok[5].value, 2.0, "median set-up");
        assert_eq!(ok[6].value, 6.0, "the window's peak resident set");
        // Two load threads, each kept for the same length: twice the rate.
        let mut two = stats(&[1_000; 12], 12, 0);
        two.absorb(stats(&[1_000; 12], 12, 0));
        two.window.ops = 24;
        let ok = end_to_end(&two, &WIN, &[1.0]).unwrap();
        assert!(
            (ok[0].value - 2.0 * rate).abs() < 1e-9,
            "24 ops over two threads"
        );
    }

    #[test]
    fn the_fast_state_sets_rate_and_median_the_whole_window_the_tail() {
        // Three sub-windows of a closed loop: two in the host's slow
        // state (50 ops of 2 us) and one fast (100 ops of 1 us, one of
        // which stalled for 1 ms). The fast one is kept, stall included;
        // the tail counts all 200 operations of the one tail chunk.
        let win = Window {
            seconds: 0.03,
            ..WIN
        };
        let mut st = LoopStats::new();
        for (sub, n, ns) in [(0u32, 50, 2_000), (1, 99, 1_000), (2, 50, 2_000)] {
            for _ in 0..n {
                st.record(&win, SUB * sub, ns, Some(ns));
            }
            if sub == 1 {
                st.record(&win, SUB, 1_000_000, Some(1_000_000));
            }
        }
        st.close(&win);
        st.attempted = st.completed;
        st.window = Phase {
            ops: st.completed,
            elapsed: SUB * 3,
            cycles: st.completed,
        };
        st.peak_rss_mib = 1.0;
        let m = end_to_end(&st, &win, &[1.0]).unwrap();
        let rate = 100.0 / SUB.as_secs_f64();
        assert!((m[0].value - rate).abs() < 1e-9, "ops_per_s");
        assert_eq!(m[1].value, 1.0, "p50 of the fast sub-window");
        assert_eq!(m[2].value, 2.0, "p99 of 200 samples is the 198th");
        assert_eq!(m[3].value, 2.0, "read p99 of the same samples");
        let mut v: Vec<f64> = st.selection.kept[0]
            .1
            .latency
            .iter()
            .map(|&x| f64::from(x))
            .collect();
        v.sort_by(f64::total_cmp);
        assert_eq!(
            v.last(),
            Some(&1_000_000.0),
            "the stall stays in the sample"
        );
    }
}
