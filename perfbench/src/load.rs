//! The closed-loop driver shared by the single-threaded workloads.
//!
//! One client issues its next operation only after the previous one
//! completed. A warm-up runs first so lazy set-up and caches settle
//! before timing. In a traced run the measured window alternates
//! untraced and traced chunks, so the tracing overhead is the
//! difference of two interleaved throughputs, not of two runs minutes
//! apart.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Length of one traced or untraced chunk in a traced run.
pub const CHUNK: Duration = Duration::from_millis(250);

/// Length of the sub-windows the measured window is cut into.
pub const SUB: Duration = Duration::from_millis(5);
/// Share of the window's sub-windows, those with the fastest median
/// operation, that the rate and median are read from.
pub const KEEP_SHARE: f64 = 0.02;

/// Length of the chunks the tail is read from: the p99 figures are the
/// median over the whole window's chunks of each chunk's p99.
pub const TAIL_CHUNK: Duration = Duration::from_millis(100);

/// How long and how much to measure.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Fewest latency samples a run must hold (so its p99 has ten beyond).
    pub min_samples: u64,
    /// Warm-up operations before the window opens.
    pub warmup_ops: u64,
    /// Alternate traced and untraced chunks.
    pub traced: bool,
}

impl Window {
    /// Whole sub-windows in the window.
    pub fn subs(&self) -> usize {
        (self.seconds / SUB.as_secs_f64()) as usize
    }

    /// Sub-windows kept.
    pub fn keep(&self) -> usize {
        ((self.subs() as f64 * KEEP_SHARE).round() as usize).max(1)
    }

    /// Index of the sub-window an operation started at `since_start`
    /// falls in, if any.
    pub fn sub_index(&self, since_start: Duration) -> Option<usize> {
        let i = (since_start.as_nanos() / SUB.as_nanos()) as usize;
        (i < self.subs()).then_some(i)
    }

    /// Index of the tail chunk an operation started at `since_start`
    /// falls in, if it started inside the window.
    pub fn tail_index(&self, since_start: Duration) -> Option<usize> {
        let i = (since_start.as_nanos() / TAIL_CHUNK.as_nanos()) as usize;
        (since_start.as_secs_f64() < self.seconds).then_some(i)
    }
}

/// A workload the closed loop can drive.
pub trait Workload {
    /// Serves request `req`. `Ok(None)` means the whole operation is
    /// read-tier; `Ok(Some(ns))` gives the wall time of its read-tier
    /// part. `Err` is a failed or refused operation or a failed output
    /// check.
    fn op(&mut self, tr: &mut Tracer, req: u64) -> Result<Option<u64>, String>;
    /// Modeled cycles charged so far, over every machine.
    fn charged(&self) -> u64;
    /// Turns the machines' own trace sinks on or off; turning them off
    /// drains them into [`Self::leaf_cycles`].
    fn machine_trace(&mut self, on: bool);
    /// Modeled cycles by hypercall leaf, from drained `HyperExit` events.
    fn leaf_cycles(&self) -> &BTreeMap<u64, u64>;
}

/// Operation counts and times of one phase (untraced or traced).
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Operations completed.
    pub ops: u64,
    /// Wall time spent.
    pub elapsed: Duration,
    /// Modeled cycles charged.
    pub cycles: u64,
}

/// The wall latencies (ns, saturating at `u32::MAX`, about 4.3 s) of
/// the operations that started in one sub-window.
#[derive(Clone, Debug, Default)]
pub struct SubWindow {
    /// Sub-window index.
    pub index: usize,
    /// Per-operation wall latency.
    pub latency: Vec<u32>,
}

impl SubWindow {
    /// Latency of the median operation: how fast the host ran this
    /// sub-window. A few slow operations do not move it, so a sub-window
    /// holding a stall is not ranked out for it. Reorders the samples.
    fn median(&mut self) -> u32 {
        let mid = self.latency.len() / 2;
        *self.latency.select_nth_unstable(mid).1
    }
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Nearest-rank p99 (rank `ceil(0.99 n)`, as [`crate::metrics::quantile`])
/// of nanosecond samples, in microseconds. Reorders the samples in place,
/// so taking it copies nothing.
fn p99_us(ns: &mut [u32]) -> Option<f64> {
    let rank = ((0.99 * ns.len() as f64).ceil() as usize).min(ns.len());
    let i = rank.checked_sub(1)?;
    Some(f64::from(*ns.select_nth_unstable(i).1) / 1_000.0)
}

/// The sub-windows the rate and median are read from: the
/// [`KEEP_SHARE`] of the window's sub-windows whose median operation ran
/// fastest, wherever in the window they fall.
///
/// Ranking by the median rather than by operations completed keeps the
/// sub-windows that hold slow operations, and with them the tail.
#[derive(Debug, Default)]
pub struct Selection {
    /// Kept sub-windows with their medians.
    pub kept: Vec<(u32, SubWindow)>,
}

impl Selection {
    /// Offers a finished sub-window; a kept one is copied. The copy holds
    /// exactly its samples, so the benchmark's own memory does not grow
    /// in doubling steps with the host's speed.
    pub fn offer(&mut self, win: &Window, sub: &mut SubWindow) {
        if sub.latency.is_empty() {
            return;
        }
        let median = sub.median();
        if self.kept.len() < win.keep() {
            self.kept.push((median, sub.clone()));
            return;
        }
        let slowest = (0..self.kept.len()).max_by_key(|&i| self.kept[i].0);
        if let Some(i) = slowest.filter(|&i| median < self.kept[i].0) {
            self.kept[i] = (median, sub.clone());
        }
    }

    /// Mean start of the kept sub-windows as a share of the window: near
    /// 0.5 when they come from all of it, near 0 when only from its start.
    pub fn mean_position(&self, win: &Window) -> f64 {
        let sum: usize = self.kept.iter().map(|(_, s)| s.index).sum();
        sum as f64 / (self.kept.len().max(1) * win.subs().max(1)) as f64
    }
}

/// The p99 of each [`TAIL_CHUNK`] of the window, every operation counted.
///
/// A tail read from the fast sub-windows alone is set by how many
/// host-slowed operations fall among them, which changes from run to
/// run. The median over the whole window's chunks counts every
/// operation, and a few seconds in which the host ran unusually slow or
/// fast do not move it.
#[derive(Debug, Default)]
pub struct Tails {
    /// Chunk being filled; its buffers are reused.
    index: usize,
    latency: Vec<u32>,
    read: Vec<u32>,
    /// p99 (us) of each finished chunk's operations.
    pub p99_us: Vec<f64>,
    /// p99 (us) of each finished chunk's read-tier latencies.
    pub read_p99_us: Vec<f64>,
    /// Read-tier samples in the window.
    pub read_samples: u64,
}

impl Tails {
    fn record(&mut self, index: usize, ns: u64, read_ns: Option<u64>) {
        if self.index != index {
            self.close();
            self.index = index;
        }
        self.latency.push(ns32(ns));
        if let Some(r) = read_ns {
            self.read.push(ns32(r));
            self.read_samples += 1;
        }
    }

    /// Finishes the open chunk, if it holds any sample.
    fn close(&mut self) {
        self.p99_us.extend(p99_us(&mut self.latency));
        self.read_p99_us.extend(p99_us(&mut self.read));
        self.latency.clear();
        self.read.clear();
    }

    /// Folds another load thread's chunks into these.
    fn absorb(&mut self, other: Tails) {
        self.p99_us.extend(other.p99_us);
        self.read_p99_us.extend(other.read_p99_us);
        self.read_samples += other.read_samples;
    }
}

/// What a closed-loop (or multi-worker) run measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Operations attempted (warm-up included) plus output checks made.
    pub attempted: u64,
    /// Failed or refused operations plus failed output checks.
    pub failed: u64,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
    /// Operations completed in the window.
    pub completed: u64,
    /// Load threads whose samples these are.
    pub threads: u64,
    /// The sub-windows the rate and median are read from.
    pub selection: Selection,
    /// The chunks the tail is read from.
    pub tails: Tails,
    /// The sub-window being filled; its buffers are reused.
    open: SubWindow,
    /// Peak resident set (MiB) while the window ran.
    pub peak_rss_mib: f64,
    /// The whole window (both phases).
    pub window: Phase,
    /// Untraced chunks of a traced run.
    pub untraced: Phase,
    /// Traced chunks of a traced run.
    pub traced: Phase,
}

impl LoopStats {
    /// Stats of one load thread.
    pub fn new() -> Self {
        LoopStats {
            threads: 1,
            ..LoopStats::default()
        }
    }

    /// Counts one failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Records a completed operation that started at `since_start` and
    /// took `ns`, with `read_ns` of it in the read tier.
    pub fn record(&mut self, win: &Window, since_start: Duration, ns: u64, read_ns: Option<u64>) {
        self.completed += 1;
        if let Some(chunk) = win.tail_index(since_start) {
            self.tails.record(chunk, ns, read_ns);
        }
        let Some(index) = win.sub_index(since_start) else {
            return;
        };
        if self.open.index != index {
            self.close_sub(win);
            self.open.index = index;
        }
        self.open.latency.push(ns32(ns));
    }

    /// Finishes the open sub-window and tail chunk, once the window ends.
    pub fn close(&mut self, win: &Window) {
        self.close_sub(win);
        self.tails.close();
    }

    /// Finishes the open sub-window, if any.
    fn close_sub(&mut self, win: &Window) {
        self.selection.offer(win, &mut self.open);
        self.open.latency.clear();
    }

    /// Forgets what the warm-up recorded, keeping its attempt and failure
    /// counts.
    pub fn reset_window(&mut self) {
        self.completed = 0;
        self.selection = Selection::default();
        self.tails = Tails::default();
        self.open.latency.clear();
    }

    /// Folds another worker's counts, kept sub-windows and tail chunks
    /// into this one.
    pub fn absorb(&mut self, other: LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.completed += other.completed;
        self.threads += other.threads;
        self.selection.kept.extend(other.selection.kept);
        self.tails.absorb(other.tails);
    }

    /// Counts one output check made after the load ran.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `w` in a closed loop for the window.
pub fn closed_loop<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    win: &Window,
) -> Result<LoopStats, String> {
    let mut st = LoopStats::new();
    let mut req = 0u64;
    for _ in 0..win.warmup_ops {
        st.attempted += 1;
        if let Err(e) = w.op(tr, req) {
            st.fail(e);
        }
        req += 1;
    }
    let limit = Duration::from_secs_f64(win.seconds);
    crate::metrics::reset_peak_rss()?;
    let start = Instant::now();
    let c_start = w.charged();
    let mut chunk = (start, c_start, 0u64);
    let mut traced = false;
    loop {
        let now = Instant::now();
        let done = now.duration_since(start) >= limit;
        if win.traced && (done || now.duration_since(chunk.0) >= CHUNK) {
            let c = w.charged();
            let phase = if traced {
                &mut st.traced
            } else {
                &mut st.untraced
            };
            phase.ops += chunk.2;
            phase.elapsed += now.duration_since(chunk.0);
            phase.cycles += c - chunk.1;
            traced = !traced && !done;
            tr.set(traced);
            w.machine_trace(traced);
            chunk = (Instant::now(), w.charged(), 0);
        }
        if done {
            break;
        }
        st.attempted += 1;
        let t0 = Instant::now();
        let r = w.op(tr, req);
        let dt = ns(t0.elapsed());
        req += 1;
        match r {
            Ok(read) => {
                st.record(win, t0.duration_since(start), dt, Some(read.unwrap_or(dt)));
                chunk.2 += 1;
            }
            Err(e) => st.fail(e),
        }
    }
    st.close(win);
    st.window = Phase {
        ops: st.completed,
        elapsed: start.elapsed(),
        cycles: w.charged() - c_start,
    };
    st.peak_rss_mib = crate::metrics::peak_rss_mib()?;
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 0.75 s window: 150 sub-windows, three kept.
    const WIN: Window = Window {
        seconds: 0.75,
        min_samples: 1,
        warmup_ops: 0,
        traced: false,
    };

    fn at(sub: usize) -> Duration {
        SUB * sub as u32 + Duration::from_micros(1)
    }

    #[test]
    fn the_fastest_sub_windows_are_kept_wherever_they_fall() {
        assert_eq!((WIN.subs(), WIN.keep()), (150, 3));
        let mut st = LoopStats::new();
        for sub in 0..150 {
            // Medians 1,000 ns except three fast sub-windows spread
            // over the window.
            let ns = if [5, 31, 148].contains(&sub) {
                500
            } else {
                1_000
            };
            for _ in 0..3 {
                st.record(&WIN, at(sub), ns + sub as u64, None);
            }
        }
        st.close(&WIN);
        let mut kept: Vec<usize> = st.selection.kept.iter().map(|(_, s)| s.index).collect();
        kept.sort_unstable();
        assert_eq!(kept, [5, 31, 148]);
        let pos = st.selection.mean_position(&WIN);
        assert!((pos - 184.0 / 450.0).abs() < 1e-12, "{pos}");
    }

    #[test]
    fn a_stall_does_not_rank_a_sub_window_out() {
        let mut st = LoopStats::new();
        // Sub-window 0: fast median, one 1 ms stall. Sub-window 1: no
        // stall, slower median. The stall's sub-window is kept.
        for ns in [100, 100, 100, 1_000_000] {
            st.record(&WIN, at(0), ns, Some(ns));
        }
        for _ in 0..4 {
            st.record(&WIN, at(1), 200, Some(200));
        }
        st.close(&WIN);
        let (median, sub) = &st.selection.kept[0];
        assert_eq!((*median, sub.index), (100, 0));
        assert!(sub.latency.contains(&1_000_000));
    }

    #[test]
    fn the_tail_is_read_from_every_chunk_of_the_window() {
        let win = Window {
            seconds: 0.3,
            ..WIN
        };
        let mut st = LoopStats::new();
        // Three chunks of 100 operations whose two slowest took 5, 1
        // and 3 us: the p99s. One more past the window.
        for (chunk, slow) in [(0u32, 5_000), (1, 1_000), (2, 3_000)] {
            for i in 0..100 {
                let ns = if i < 98 { 500 } else { slow };
                let t = TAIL_CHUNK * chunk + Duration::from_micros(i);
                st.record(&win, t, ns, Some(ns));
            }
        }
        st.record(&win, TAIL_CHUNK * 3, 1_000_000, Some(1_000_000));
        st.close(&win);
        assert_eq!(st.tails.p99_us, [5.0, 1.0, 3.0]);
        assert_eq!(st.tails.read_p99_us, [5.0, 1.0, 3.0]);
        assert_eq!(st.tails.read_samples, 300);
        assert_eq!(crate::metrics::quantile(&st.tails.p99_us, 0.5), Some(3.0));
    }

    #[test]
    fn past_the_window_and_empty_sub_windows_are_not_kept() {
        let mut st = LoopStats::new();
        st.record(&WIN, Duration::from_secs(1), 5, None);
        st.close(&WIN);
        assert!(st.selection.kept.is_empty());
        assert_eq!(st.completed, 1);
    }
}
