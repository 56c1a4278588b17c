//! `smp_tenants`: two workers, one per core, share one x86
//! `ConcurrentMonitor` hosting a few hundred resident tenants.
//!
//! Each worker runs as its own sealed tenant. Of every ten operations,
//! nine alternate an `Enumerate` and a fast `Enter`/`Return` round trip
//! into the worker's service domain; the tenth is a mutation pair: a
//! self-`Share` of a window page, its `Revoke`, then `sync_shootdowns`.
//! Every call is one operation; reads sit beside writes on one layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tyche_core::prelude::*;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_x86, BootConfig, ConcurrentMonitor, Monitor, MonitorCall, SmpStats};

use crate::load::{LoopStats, Phase, Window, CHUNK};
use crate::rng::Rng;
use crate::trace::{tally_leaves, Layer, Tracer};

const PAGE: u64 = 0x1000;
/// Resident lanes are pages from here on.
const LANE_BASE: u64 = 0x100_0000;
const LANE_PAGES: u64 = 4096;
/// Worker `w`'s window: 16 pages at `WINDOW_BASE + w * WINDOW`.
const WINDOW_BASE: u64 = 0x80_0000;
const WINDOW: u64 = 0x1_0000;
/// Load threads, one per core.
pub const WORKERS: usize = 2;

/// Population size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Resident sealed tenants; with the root, the two workers and their
    /// service domains this stays under the 512-entry EPTP list.
    pub residents: usize,
}

/// The full-size population.
pub const FULL: Size = Size { residents: 448 };
/// A population for quick checks of the benchmark itself.
pub const TINY: Size = Size { residents: 16 };

/// Seeded inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Lane page of each resident.
    pub resident_lanes: Vec<u32>,
    /// Per worker, the window page each mutation pair self-shares.
    pub share_pages: [Vec<u8>; WORKERS],
}

/// Builds the inputs for `seed`.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut r = Rng::new(seed, "smp_tenants");
    let resident_lanes = (0..size.residents)
        .map(|_| r.below(LANE_PAGES) as u32)
        .collect();
    let pages = WINDOW / PAGE;
    let share_pages = [0, 1].map(|_| (0..256).map(|_| r.below(pages) as u8).collect());
    Inputs {
        resident_lanes,
        share_pages,
    }
}

/// One worker's tenant, as the worker knows it.
#[derive(Clone, Copy, Debug)]
struct Lane {
    tenant: DomainId,
    window: CapId,
    base: u64,
    service_gate: CapId,
    service: DomainId,
    /// What `Enumerate` must return for the worker.
    resources: u64,
}

/// The monitor with its residents and both workers entered.
pub struct State {
    cm: ConcurrentMonitor,
    lanes: [Lane; WORKERS],
    inputs: Inputs,
    live_caps: usize,
    /// Monitor counters when set-up finished.
    stats_after_setup: tyche_monitor::monitor::Stats,
}

fn call(m: &mut Monitor, core: usize, c: MonitorCall) -> Result<CallResult, String> {
    m.call(core, c).map_err(|s| format!("{c:?}: {s:?}"))
}

fn new_domain(r: CallResult) -> Result<(DomainId, CapId), String> {
    match r {
        CallResult::NewDomain { domain, transition } => Ok((domain, transition)),
        other => Err(format!("create returned {other:?}")),
    }
}

fn cap(r: CallResult) -> Result<CapId, String> {
    match r {
        CallResult::Cap(c) => Ok(c),
        other => Err(format!("expected a capability, got {other:?}")),
    }
}

fn core_cap(m: &Monitor, owner: DomainId, core: usize) -> Result<CapId, String> {
    m.engine
        .caps_of(owner)
        .iter()
        .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
        .map(|c| c.id)
        .ok_or_else(|| format!("{owner:?} holds no core {core}"))
}

fn seal(domain: DomainId, nestable: bool) -> MonitorCall {
    MonitorCall::Seal {
        domain,
        allow_outward: nestable,
        allow_children: nestable,
    }
}

/// Boots, builds residents and workers by hypercalls, enters each
/// worker's tenant on its core and wraps the monitor for SMP serving.
pub fn setup(inputs: &Inputs) -> Result<State, String> {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = WORKERS;
    let mut m = boot_x86(cfg);
    let root = m.engine.root().ok_or("no root domain")?;
    let (lo, hi) = (WINDOW_BASE, LANE_BASE + LANE_PAGES * PAGE);
    let ram = m
        .engine
        .caps_of(root)
        .iter()
        .find(|c| {
            c.active && matches!(c.resource, Resource::Memory(r) if r.start <= lo && hi <= r.end)
        })
        .map(|c| c.id)
        .ok_or("root holds no RAM over the lanes")?;
    for &page in &inputs.resident_lanes {
        let start = LANE_BASE + u64::from(page) * PAGE;
        let (d, _) = new_domain(call(&mut m, 0, MonitorCall::CreateDomain)?)?;
        call(
            &mut m,
            0,
            MonitorCall::Share {
                cap: ram,
                target: d,
                sub: Some((start, start + PAGE)),
                rights: Rights::RW,
                policy: RevocationPolicy::NONE,
            },
        )?;
        call(
            &mut m,
            0,
            MonitorCall::SetEntry {
                domain: d,
                entry: start,
            },
        )?;
        call(&mut m, 0, seal(d, false))?;
    }
    let mut lanes = Vec::with_capacity(WORKERS);
    for core in 0..WORKERS {
        let base = WINDOW_BASE + core as u64 * WINDOW;
        let (tenant, gate) = new_domain(call(&mut m, core, MonitorCall::CreateDomain)?)?;
        let window = cap(call(
            &mut m,
            core,
            MonitorCall::Share {
                cap: ram,
                target: tenant,
                sub: Some((base, base + WINDOW)),
                rights: Rights::RWX,
                policy: RevocationPolicy::NONE,
            },
        )?)?;
        let root_core = core_cap(&m, root, core)?;
        call(
            &mut m,
            core,
            MonitorCall::Share {
                cap: root_core,
                target: tenant,
                sub: None,
                rights: Rights::USE,
                policy: RevocationPolicy::NONE,
            },
        )?;
        call(
            &mut m,
            core,
            MonitorCall::SetEntry {
                domain: tenant,
                entry: base,
            },
        )?;
        call(&mut m, core, seal(tenant, true))?;
        call(&mut m, core, MonitorCall::Enter { cap: gate })?;
        // From here on the tenant itself makes the calls on its core.
        let (service, service_gate) = new_domain(call(&mut m, core, MonitorCall::CreateDomain)?)?;
        let own_core = core_cap(&m, tenant, core)?;
        call(
            &mut m,
            core,
            MonitorCall::Share {
                cap: own_core,
                target: service,
                sub: None,
                rights: Rights::USE,
                policy: RevocationPolicy::NONE,
            },
        )?;
        call(
            &mut m,
            core,
            MonitorCall::SetEntry {
                domain: service,
                entry: base,
            },
        )?;
        call(&mut m, core, seal(service, false))?;
        let resources = m
            .engine
            .enumerate(tenant)
            .map_err(|e| format!("enumerate: {e:?}"))?
            .len() as u64;
        lanes.push(Lane {
            tenant,
            window,
            base,
            service_gate,
            service,
            resources,
        });
    }
    let live_caps = m.engine.caps().filter(|c| c.active).count();
    let lanes = [lanes[0], lanes[1]];
    Ok(State {
        stats_after_setup: m.stats(),
        cm: ConcurrentMonitor::new(m),
        lanes,
        inputs: inputs.clone(),
        live_caps,
    })
}

/// One timed call: its wall time is a latency sample, and a read-tier
/// call is also a read sample.
fn timed(
    stats: &mut LoopStats,
    win: &Window,
    start: Instant,
    read: bool,
    f: impl FnOnce() -> Result<(), String>,
) -> bool {
    stats.attempted += 1;
    let t0 = Instant::now();
    let r = f();
    let dt = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match r {
        Ok(()) => {
            stats.record(
                win,
                t0.saturating_duration_since(start),
                dt,
                read.then_some(dt),
            );
            true
        }
        Err(e) => {
            stats.fail(e);
            false
        }
    }
}

/// One load thread.
struct Worker<'a> {
    cm: &'a ConcurrentMonitor,
    core: usize,
    lane: Lane,
    pages: &'a [u8],
    win: &'a Window,
    /// Start of the measured window.
    start: Instant,
    stats: LoopStats,
    tracer: Tracer,
}

impl Worker<'_> {
    /// Operation `i` of the ten-slot pattern; returns the calls it made.
    fn slot(&mut self, i: u64) -> u64 {
        let Worker {
            cm,
            core,
            lane,
            pages,
            win,
            start,
            stats,
            tracer,
        } = self;
        let (cm, core, lane, win, start) = (*cm, *core, *lane, *win, *start);
        let before = stats.completed;
        let mut req = tracer.begin(i);
        let traced = tracer.on();
        let clock = || if traced { cm.clocks().now(core) } else { 0 };
        // Modeled cycles of the spans that are not hypercalls.
        let mut outside = 0;
        match i % 10 {
            9 => {
                let page =
                    lane.base + u64::from(pages[(i / 10 % pages.len() as u64) as usize]) * PAGE;
                let share = MonitorCall::Share {
                    cap: lane.window,
                    target: lane.tenant,
                    sub: Some((page, page + PAGE)),
                    rights: Rights::RW,
                    policy: RevocationPolicy::NONE,
                };
                let mut child = None;
                timed(stats, win, start, false, || {
                    let r = tracer.span(Layer::ConcurrentShare, &mut req, || cm.serve(core, share));
                    child = Some(cap(r.map_err(|s| format!("share on core {core}: {s:?}"))?)?);
                    Ok(())
                });
                if let Some(child) = child {
                    timed(stats, win, start, false, || {
                        match tracer.span(Layer::ConcurrentRevoke, &mut req, || {
                            cm.serve(core, MonitorCall::Revoke { cap: child })
                        }) {
                            Ok(CallResult::Unit) => {}
                            other => return Err(format!("revoke on core {core}: {other:?}")),
                        }
                        let c0 = clock();
                        tracer.span(Layer::ConcurrentSyncShootdowns, &mut req, || {
                            cm.sync_shootdowns(core)
                        });
                        outside += clock() - c0;
                        Ok(())
                    });
                }
            }
            s if s % 2 == 0 => {
                let want = lane.resources;
                timed(stats, win, start, true, || {
                    match tracer.span(Layer::ConcurrentEnumerate, &mut req, || {
                        cm.serve(core, MonitorCall::Enumerate)
                    }) {
                        Ok(CallResult::Count(n)) if n == want => Ok(()),
                        other => Err(format!("enumerate on core {core}: {other:?}, want {want}")),
                    }
                });
            }
            _ => {
                let c0 = clock();
                tracer.span(Layer::ConcurrentFastRoundtrip, &mut req, || {
                    let entered = timed(stats, win, start, true, || {
                        match cm.serve(
                            core,
                            MonitorCall::Enter {
                                cap: lane.service_gate,
                            },
                        ) {
                            Ok(CallResult::Entered { target, .. }) if target == lane.service => {
                                Ok(())
                            }
                            other => Err(format!("enter on core {core}: {other:?}")),
                        }
                    });
                    if entered {
                        timed(stats, win, start, true, || {
                            match cm.serve(core, MonitorCall::Return) {
                                Ok(CallResult::Returned { to }) if to == lane.tenant => Ok(()),
                                other => Err(format!("return on core {core}: {other:?}")),
                            }
                        });
                    }
                });
                outside += clock() - c0;
            }
        }
        tracer.end(req);
        tracer.outside_cycles += outside;
        stats.completed - before
    }
}

/// What the multi-worker run measured, folded over both workers.
pub struct SmpRun {
    /// Operation counts and latencies.
    pub stats: LoopStats,
    /// Spans of both workers.
    pub tracer: Tracer,
    /// Modeled cycles by hypercall leaf (traced chunks only).
    pub leaves: BTreeMap<u64, u64>,
    /// SMP and registry counters.
    pub counts: BTreeMap<&'static str, f64>,
}

impl State {
    /// Runs both workers for the window. In a traced run this thread
    /// flips tracing on and off every chunk and drains the machine's
    /// trace sink; it does no load itself.
    pub fn run(self, win: &Window, base: Instant) -> Result<(SmpRun, Vec<(bool, String)>), String> {
        let State {
            cm,
            lanes,
            inputs,
            live_caps,
            stats_after_setup,
        } = self;
        let traced_flag = AtomicBool::new(false);
        let go = Barrier::new(WORKERS + 1);
        let sink = cm.with_inner(|m| m.trace().clone());
        let cores = cm.cores();
        let mut leaves = BTreeMap::new();
        let limit = Duration::from_secs_f64(win.seconds);
        crate::metrics::reset_peak_rss()?;
        let (outs, window, phases) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|core| {
                    let (cm, lane, pages) = (&cm, lanes[core], &inputs.share_pages[core][..]);
                    let (traced_flag, go) = (&traced_flag, &go);
                    s.spawn(move || {
                        let mut w = Worker {
                            cm,
                            core,
                            lane,
                            pages,
                            win,
                            start: Instant::now(),
                            stats: LoopStats::new(),
                            tracer: Tracer::new(base),
                        };
                        let mut i = 0u64;
                        while i < win.warmup_ops {
                            w.slot(i);
                            i += 1;
                        }
                        w.stats.reset_window();
                        go.wait();
                        let start = Instant::now();
                        w.start = start;
                        let (mut untraced_ops, mut traced_ops) = (0, 0);
                        while start.elapsed() < limit {
                            let on = traced_flag.load(Ordering::Acquire);
                            w.tracer.set(on);
                            let calls = w.slot(i);
                            if on {
                                traced_ops += calls;
                            } else {
                                untraced_ops += calls;
                            }
                            i += 1;
                        }
                        w.stats.close(win);
                        (w.stats, w.tracer, untraced_ops, traced_ops)
                    })
                })
                .collect();
            go.wait();
            let start = Instant::now();
            let m0 = cm.makespan();
            let mut phases = [Duration::ZERO; 2];
            let mut on = false;
            let mut chunk = Instant::now();
            // This thread wakes only to flip tracing at chunk boundaries:
            // a poller would take a core from the two workers.
            let end = start + limit;
            while win.traced && Instant::now() < end {
                std::thread::sleep(
                    (chunk + CHUNK)
                        .min(end)
                        .saturating_duration_since(Instant::now()),
                );
                if chunk.elapsed() >= CHUNK {
                    phases[usize::from(on)] += chunk.elapsed();
                    on = !on;
                    if on {
                        sink.enable(cores);
                    } else {
                        sink.disable();
                        tally_leaves(&sink.drain(), &mut leaves);
                    }
                    traced_flag.store(on, Ordering::Release);
                    chunk = Instant::now();
                }
            }
            let outs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            phases[usize::from(on)] += chunk.elapsed();
            if on {
                sink.disable();
                tally_leaves(&sink.drain(), &mut leaves);
            }
            let window = Phase {
                ops: 0,
                elapsed: start.elapsed(),
                cycles: cm.makespan() - m0,
            };
            (outs, window, phases)
        });
        let mut stats = LoopStats::default();
        stats.peak_rss_mib = crate::metrics::peak_rss_mib()?;
        let mut tracer = Tracer::new(base);
        for out in outs {
            let (st, tr, untraced_ops, traced_ops) =
                out.map_err(|_| "a worker panicked".to_string())?;
            stats.absorb(st);
            stats.untraced.ops += untraced_ops;
            stats.traced.ops += traced_ops;
            tracer.absorb(tr);
        }
        stats.window = Phase {
            ops: stats.completed,
            ..window
        };
        stats.untraced.elapsed = phases[0];
        stats.traced.elapsed = phases[1];
        let s = &cm.stats;
        let (mutations, ipis, shootdowns) = (
            SmpStats::get(&s.mutations),
            SmpStats::get(&s.ipis_sent),
            SmpStats::get(&s.shootdowns_requested),
        );
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        counts.insert("smp.mutations", mutations as f64);
        counts.insert(
            "smp.snapshot_reads",
            SmpStats::get(&s.snapshot_reads) as f64,
        );
        counts.insert(
            "smp.fast_transitions",
            SmpStats::get(&s.fast_transitions) as f64,
        );
        counts.insert("smp.shard_waits", SmpStats::get(&s.shard_waits) as f64);
        counts.insert("smp.ipis_sent", ipis as f64);
        counts.insert("smp.shootdowns_requested", shootdowns as f64);
        counts.insert(
            "smp.ipis_per_shootdown",
            if shootdowns == 0 {
                0.0
            } else {
                ipis as f64 / shootdowns as f64
            },
        );
        for core in 0..WORKERS {
            cm.sync_shootdowns(core);
        }
        let m = cm.finish();
        crate::metrics::monitor_counts(&mut counts, stats_after_setup, m.stats());
        let engine = tyche_core::audit::audit(&m.engine);
        let hw = m.audit_hardware();
        let live = m.engine.caps().filter(|c| c.active).count();
        let checks = vec![
            (engine.is_empty(), format!("engine audit: {engine:?}")),
            (hw.is_empty(), format!("hardware audit: {hw:?}")),
            (
                live == live_caps,
                format!("live capabilities {live}, after set-up {live_caps}"),
            ),
        ];
        Ok((
            SmpRun {
                stats,
                tracer,
                leaves,
                counts,
            },
            checks,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_set() {
        assert_eq!(inputs(2, TINY), inputs(2, TINY));
        assert_ne!(inputs(2, TINY), inputs(3, TINY));
        assert!(inputs(2, TINY)
            .share_pages
            .iter()
            .flatten()
            .all(|&p| u64::from(p) < WINDOW / PAGE));
    }
}
