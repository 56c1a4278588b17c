//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A request is a root span; every call the benchmark makes into a layer
//! while serving it is a child span. Spans live in memory (name, start,
//! end, parent, request id) and are written out when the run ends. When
//! the tracer is off, [`Tracer::span`] just runs its closure: no clock
//! reads, no allocation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use tyche_bench::histogram::Histogram;
use tyche_core::trace::{EventKind, TraceLog};
use tyche_monitor::abi::leaf;

/// The layer boundaries the benchmark times. Names follow
/// `<crate layer>.<operation>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    FleetSend,
    FleetDeliver,
    CryptoHmacFrame,
    GuestSyscall,
    MonitorEnter,
    MonitorExit,
    MonitorTeeAccess,
    MonitorCreate,
    MonitorShare,
    MonitorSetEntry,
    MonitorRecordContent,
    MonitorSeal,
    MonitorAttest,
    MonitorAttestResident,
    MonitorKill,
    HwTpmQuote,
    MonitorAttestVerify,
    CryptoSha256Page,
    ConcurrentEnumerate,
    ConcurrentFastRoundtrip,
    ConcurrentShare,
    ConcurrentRevoke,
    ConcurrentSyncShootdowns,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 23] = [
    Layer::FleetSend,
    Layer::FleetDeliver,
    Layer::CryptoHmacFrame,
    Layer::GuestSyscall,
    Layer::MonitorEnter,
    Layer::MonitorExit,
    Layer::MonitorTeeAccess,
    Layer::MonitorCreate,
    Layer::MonitorShare,
    Layer::MonitorSetEntry,
    Layer::MonitorRecordContent,
    Layer::MonitorSeal,
    Layer::MonitorAttest,
    Layer::MonitorAttestResident,
    Layer::MonitorKill,
    Layer::HwTpmQuote,
    Layer::MonitorAttestVerify,
    Layer::CryptoSha256Page,
    Layer::ConcurrentEnumerate,
    Layer::ConcurrentFastRoundtrip,
    Layer::ConcurrentShare,
    Layer::ConcurrentRevoke,
    Layer::ConcurrentSyncShootdowns,
];

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::FleetSend => "fleet.send",
            Layer::FleetDeliver => "fleet.deliver",
            Layer::CryptoHmacFrame => "crypto.hmac_frame",
            Layer::GuestSyscall => "guest.syscall",
            Layer::MonitorEnter => "monitor.enter",
            Layer::MonitorExit => "monitor.exit",
            Layer::MonitorTeeAccess => "monitor.tee_access",
            Layer::MonitorCreate => "monitor.create",
            Layer::MonitorShare => "monitor.share",
            Layer::MonitorSetEntry => "monitor.set_entry",
            Layer::MonitorRecordContent => "monitor.record_content",
            Layer::MonitorSeal => "monitor.seal",
            Layer::MonitorAttest => "monitor.attest",
            Layer::MonitorAttestResident => "monitor.attest_resident",
            Layer::MonitorKill => "monitor.kill",
            Layer::HwTpmQuote => "hw.tpm_quote",
            Layer::MonitorAttestVerify => "monitor.attest_verify",
            Layer::CryptoSha256Page => "crypto.sha256_page",
            Layer::ConcurrentEnumerate => "concurrent.enumerate",
            Layer::ConcurrentFastRoundtrip => "concurrent.fast_roundtrip",
            Layer::ConcurrentShare => "concurrent.share",
            Layer::ConcurrentRevoke => "concurrent.revoke",
            Layer::ConcurrentSyncShootdowns => "concurrent.sync_shootdowns",
        }
    }
}

/// Hypercall leaves whose modeled cycles the traced run splits out, with
/// their metric suffixes.
pub const LEAVES: [(u64, &str); 11] = [
    (leaf::CREATE_DOMAIN, "create_domain"),
    (leaf::SHARE, "share"),
    (leaf::SET_ENTRY, "set_entry"),
    (leaf::RECORD_CONTENT, "record_content"),
    (leaf::SEAL, "seal"),
    (leaf::ATTEST, "attest"),
    (leaf::KILL, "kill"),
    (leaf::ENUMERATE, "enumerate"),
    (leaf::REVOKE, "revoke"),
    (leaf::ENTER, "enter"),
    (leaf::RETURN, "return"),
];

/// At most this many spans are kept for the span file; histograms and
/// the uncovered-time figure still see every span past the cap.
const MAX_KEPT_SPANS: usize = 200_000;

/// Marks a span as a root (request) span in the written file.
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    req: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open request: its root span and the time its children covered.
pub struct Request {
    id: u64,
    index: u32,
    start: Option<Instant>,
    covered_ns: u64,
}

/// Span recorder for one load thread.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    dropped: u64,
    layer_hist: BTreeMap<&'static str, Histogram>,
    request_ns: u128,
    uncovered_ns: u128,
    /// Modeled cycles charged inside spans that are not hypercalls,
    /// summed by the workload during traced requests.
    pub outside_cycles: u64,
}

impl Tracer {
    /// A tracer sharing `base` as its time origin (so spans of several
    /// threads line up), initially off.
    pub fn new(base: Instant) -> Self {
        Tracer {
            on: false,
            base,
            spans: Vec::new(),
            dropped: 0,
            layer_hist: BTreeMap::new(),
            request_ns: 0,
            uncovered_ns: 0,
            outside_cycles: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (between requests).
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    fn keep(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_KEPT_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens request `id`.
    pub fn begin(&mut self, id: u64) -> Request {
        if !self.on {
            return Request {
                id,
                index: NO_PARENT,
                start: None,
                covered_ns: 0,
            };
        }
        let start = Instant::now();
        let start_ns = self.ns(start);
        let index = self.keep(Span {
            name: "request",
            req: id,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
        Request {
            id,
            index,
            start: Some(start),
            covered_ns: 0,
        }
    }

    /// Closes a request opened by [`Self::begin`].
    pub fn end(&mut self, req: Request) {
        let Some(start) = req.start else { return };
        let end = Instant::now();
        let total = end.duration_since(start).as_nanos();
        self.request_ns += total;
        self.uncovered_ns += total.saturating_sub(u128::from(req.covered_ns));
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(req.index as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` as a child span of `req` named after `layer`.
    pub fn span<R>(&mut self, layer: Layer, req: &mut Request, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (out, dur) = self.timed(layer, req.id, req.index, f);
        req.covered_ns = req.covered_ns.saturating_add(dur);
        out
    }

    /// Runs `f` as a root span of its own: a direct call into one layer
    /// made beside request `id` rather than inside it, so it neither
    /// covers nor lengthens the request.
    pub fn probe<R>(&mut self, layer: Layer, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.timed(layer, id, NO_PARENT, f).0
    }

    /// Times `f` and records it as a span; returns its duration in ns.
    fn timed<R>(&mut self, layer: Layer, req: u64, parent: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let dur = u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
        self.layer_hist.entry(layer.name()).or_default().record(dur);
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.keep(Span {
            name: layer.name(),
            req,
            parent,
            start_ns,
            end_ns,
        });
        (out, dur)
    }

    /// Per-layer span histograms.
    pub fn layer_hist(&self, layer: Layer) -> Option<&Histogram> {
        self.layer_hist.get(layer.name())
    }

    /// Share of traced request wall time that no child span covered.
    pub fn uncovered_share(&self) -> f64 {
        if self.request_ns == 0 {
            0.0
        } else {
            self.uncovered_ns as f64 / self.request_ns as f64
        }
    }

    /// Spans recorded (kept or past the cap).
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        for mut s in other.spans {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            self.keep(s);
        }
        self.dropped += other.dropped;
        for (name, h) in other.layer_hist {
            self.layer_hist.entry(name).or_default().merge_from(&h);
        }
        self.request_ns += other.request_ns;
        self.uncovered_ns += other.uncovered_ns;
        self.outside_cycles += other.outside_cycles;
    }

    /// Writes every kept span, one per line:
    /// `index name request parent start_ns end_ns` (parent `-` for a
    /// request), after a header line carrying `header`.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {header} kept={} dropped={}",
            self.spans.len(),
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i} {} {} {parent} {} {}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Adds the modeled cycles of every `HyperExit` in `log` to its leaf.
pub fn tally_leaves(log: &TraceLog, into: &mut BTreeMap<u64, u64>) {
    for e in log.events() {
        if let EventKind::HyperExit { leaf, cycles, .. } = e.kind {
            *into.entry(leaf).or_insert(0) += cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let mut r = t.begin(1);
        assert_eq!(t.span(Layer::FleetSend, &mut r, || 5), 5);
        t.end(r);
        assert_eq!(t.span_count(), 0);
        assert!(t.layer_hist(Layer::FleetSend).is_none());
    }

    #[test]
    fn on_tracer_links_children_to_their_request() {
        let mut t = Tracer::new(Instant::now());
        t.set(true);
        let mut r = t.begin(9);
        t.span(Layer::FleetSend, &mut r, || std::hint::black_box(1));
        t.span(Layer::FleetDeliver, &mut r, || std::hint::black_box(2));
        t.end(r);
        assert_eq!(t.span_count(), 3);
        assert!(t.spans[1..].iter().all(|s| s.parent == 0 && s.req == 9));
        assert_eq!(
            t.layer_hist(Layer::FleetSend).map(Histogram::count),
            Some(1)
        );
        let share = t.uncovered_share();
        assert!((0.0..=1.0).contains(&share));
    }
}
