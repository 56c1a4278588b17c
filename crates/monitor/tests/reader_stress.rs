//! Reader stress on [`ConcurrentMonitor`]: reader cores serve
//! `Enumerate` through [`ConcurrentMonitor::serve`] while writer cores
//! run revocation storms.
//!
//! The read tier reads the live engine under the inner lock's read
//! guard; no tier publishes a copy. What this test pins down is that
//! the guard alone gives readers a consistent view:
//!
//! - readers keep serving `Enumerate` during the storm, and every count
//!   equals root's resource count, which the storm never changes;
//! - the generations each reader observed (its `SnapRead` events,
//!   drained from the trace) are monotone and never ahead of the last
//!   bump, per reader and across the whole trace
//!   ([`tyche_verify::rv::check_gen_monotonic`]);
//! - every state a reader observes audits clean;
//! - the final engine audits clean.
//!
//! Writer cores run sealed tenants that share a page of their window
//! with the next lane's (unsealed) mailbox and revoke it again; reader
//! cores stay on root. The seed comes from `TYCHE_STRESS_SEED`
//! (default 1) so CI can sweep a fixed set of seeds. Run with
//! `--features tyche-core/paranoid-checks` to keep the index-vs-scan
//! differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::trace::{EventKind, TraceEvent};
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_x86, BootConfig, ConcurrentMonitor, Monitor, MonitorCall, SmpStats};
use tyche_verify::rv::check_gen_monotonic;

const WRITERS: usize = 3;
const READERS: usize = 3;
/// Writers on cores `0..WRITERS`, readers on the next `READERS` cores.
const CORES: usize = WRITERS + READERS;
const STORM_OPS: usize = 100;
/// Upper bound on one reader's `Enumerate` calls, which bounds the
/// trace the test buffers.
const MAX_READS: u64 = 20_000;
/// Each writer's private 1 MiB window inside root's RAM.
const WINDOW: u64 = 0x10_0000;
/// Where the writer windows start.
const WINDOWS_BASE: u64 = 0x100_0000;

/// xorshift64* — tiny, seedable, good enough to diversify interleavings.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seed_from_env() -> u64 {
    std::env::var("TYCHE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn window_base(core: usize) -> u64 {
    WINDOWS_BASE + core as u64 * WINDOW
}

/// One writer core: its tenant's window capability, and the unsealed
/// mailbox the previous writer shares into.
#[derive(Clone, Copy)]
struct Lane {
    window: CapId,
    mailbox: DomainId,
}

/// Boots `CORES` cores; root gives each writer core a sealed (nestable)
/// tenant owning that core and a private window, plus an unsealed
/// mailbox, and every writer core enters its tenant. Reader cores stay
/// on root.
fn setup() -> (Monitor, Vec<Lane>) {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = CORES;
    let mut m = boot_x86(cfg);
    let root = m.engine.root().unwrap();
    let ram = m
        .engine
        .caps_of(root)
        .iter()
        .find(|c| {
            c.active
                && matches!(c.resource, Resource::Memory(r)
                    if r.start <= WINDOWS_BASE && window_base(WRITERS) <= r.end)
        })
        .map(|c| c.id)
        .unwrap();
    let mut gates = Vec::new();
    let lanes: Vec<Lane> = (0..WRITERS)
        .map(|core| {
            let base = window_base(core);
            let (tenant, gate) = m.engine.create_domain(root).unwrap();
            let window = m
                .engine
                .share(
                    root,
                    ram,
                    tenant,
                    Some(MemRegion::new(base, base + WINDOW)),
                    Rights::RWX,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            let core_cap = m
                .engine
                .caps_of(root)
                .iter()
                .find(|c| c.active && matches!(c.resource, Resource::CpuCore(n) if n == core))
                .map(|c| c.id)
                .unwrap();
            m.engine
                .share(
                    root,
                    core_cap,
                    tenant,
                    None,
                    Rights::USE,
                    RevocationPolicy::NONE,
                )
                .unwrap();
            m.engine.set_entry(root, tenant, base).unwrap();
            m.engine.seal(root, tenant, SealPolicy::nestable()).unwrap();
            let (mailbox, _) = m.engine.create_domain(root).unwrap();
            gates.push(gate);
            Lane { window, mailbox }
        })
        .collect();
    m.sync_effects().unwrap();
    for (core, gate) in gates.into_iter().enumerate() {
        m.call(core, MonitorCall::Enter { cap: gate }).unwrap();
    }
    (m, lanes)
}

/// Serves a one-page share of `page..page + 4 KiB` from `core`'s tenant
/// window to `peer` and returns the new capability.
fn share_page(cm: &ConcurrentMonitor, core: usize, lane: Lane, peer: DomainId, page: u64) -> CapId {
    let call = MonitorCall::Share {
        cap: lane.window,
        target: peer,
        sub: Some((page, page + 0x1000)),
        rights: Rights::RW,
        policy: RevocationPolicy::NONE,
    };
    match cm.serve(core, call) {
        Ok(CallResult::Cap(cap)) => cap,
        other => panic!("storm share failed: {other:?}"),
    }
}

#[test]
fn readers_serve_enumerate_across_revoke_storm() {
    let seed = seed_from_env();
    let (m, lanes) = setup();
    let cm = Arc::new(ConcurrentMonitor::new(m));
    let root_resources = cm.with_inner(|m| {
        let root = m.engine.root().unwrap();
        m.engine.enumerate(root).unwrap().len() as u64
    });
    let sink = cm.with_inner(|m| m.trace().clone());
    sink.enable(cm.cores());

    let start = Arc::new(Barrier::new(WRITERS + READERS));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|rid| {
            let cm = Arc::clone(&cm);
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            let core = WRITERS + rid;
            std::thread::spawn(move || {
                start.wait();
                let mut reads = 0u64;
                loop {
                    match cm.serve(core, MonitorCall::Enumerate) {
                        Ok(CallResult::Count(n)) => assert_eq!(
                            n, root_resources,
                            "reader {rid} counted {n} resources, root has {root_resources} (seed {seed})"
                        ),
                        other => panic!("reader {rid} enumerate failed: {other:?} (seed {seed})"),
                    }
                    if reads.is_multiple_of(8) {
                        assert!(
                            cm.with_inner(|m| audit(&m.engine).is_empty()),
                            "reader {rid} observed an unauditable state (seed {seed})"
                        );
                    }
                    reads += 1;
                    if stop.load(Ordering::Acquire) || reads >= MAX_READS {
                        break reads;
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let start = Arc::clone(&start);
            let lanes = lanes.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let lane = lanes[tid];
                let peer = lanes[(tid + 1) % WRITERS].mailbox;
                start.wait();
                for _ in 0..STORM_OPS {
                    // One share...
                    let page = window_base(tid) + rng.below(WINDOW / 0x1000 - 1) * 0x1000;
                    let cap = share_page(&cm, tid, lane, peer, page);
                    // ...immediately revoked.
                    cm.serve(tid, MonitorCall::Revoke { cap })
                        .expect("storm revoke");
                    cm.sync_shootdowns(tid);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let reads: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();

    assert_eq!(
        SmpStats::get(&cm.stats.mutations),
        (WRITERS * STORM_OPS * 2) as u64
    );
    assert_eq!(
        SmpStats::get(&cm.stats.snapshot_reads),
        reads.iter().sum::<u64>()
    );

    let log = sink.drain();
    sink.disable();
    let findings = check_gen_monotonic(log.events());
    assert!(
        findings.is_empty(),
        "trace generations regressed (seed {seed}): {findings:?}"
    );
    for (rid, &n) in reads.iter().enumerate() {
        let core = (WRITERS + rid) as u32;
        let mine: Vec<TraceEvent> = log
            .events()
            .iter()
            .filter(|e| e.core == core && matches!(e.kind, EventKind::SnapRead { .. }))
            .copied()
            .collect();
        assert_eq!(
            mine.len() as u64,
            n,
            "reader {rid} left one SnapRead per read"
        );
        let findings = check_gen_monotonic(&mine);
        assert!(
            findings.is_empty(),
            "reader {rid} saw generation run backwards (seed {seed}): {findings:?}"
        );
    }

    let final_monitor = Arc::try_unwrap(cm).ok().expect("threads joined").finish();
    assert!(
        audit(&final_monitor.engine).is_empty(),
        "final audit failed (seed {seed})"
    );
}
