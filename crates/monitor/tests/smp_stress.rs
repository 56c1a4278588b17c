//! Seeded concurrent stress test for [`ConcurrentMonitor`].
//!
//! One worker thread per modeled core serves capability mutations
//! (create/share/grant/revoke/seal/set-entry/make-transition) as
//! hypercalls of the tenant running on that core, through
//! [`ConcurrentMonitor::serve`], while also auditing the engine under
//! the read guard. Every call is recorded with its core, its concrete
//! arguments and its result. The monitor's trace numbers every event
//! globally, and a mutating call's `HyperEnter` is emitted under the
//! inner write lock, so ordering the calls by that sequence number is a
//! linearization. Afterwards the calls are replayed single-threadedly in
//! that order on a second monitor booted the same way: the replay must
//! produce the *same result for every call* and an engine that is `==`
//! to the concurrent one — ids, stamps, and pending effects included.
//! Any lost update, torn snapshot, or non-linearizable interleaving
//! shows up as a replay divergence; any invariant break shows up in
//! `audit()`.
//!
//! A tenant must be sealed to be entered, and sealing freezes incoming
//! resources, so tenants never receive capabilities themselves. Each
//! lane therefore has an unsealed *mailbox* domain: it receives shares
//! from the previous lane's tenant and grants from its own, so two
//! workers contend on every mailbox shard.
//!
//! The seed comes from `TYCHE_STRESS_SEED` (default 1) and the shard
//! count from `TYCHE_STRESS_SHARDS` (default
//! [`ConcurrentMonitor::DEFAULT_SHARDS`]) so CI can sweep a fixed set of
//! seeds crossed with shard counts. Run with
//! `--features tyche-core/paranoid-checks` to keep the index-vs-scan
//! differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::EventKind;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{
    boot_x86, BootConfig, ConcurrentMonitor, Monitor, MonitorCall, SmpStats, Status,
};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 100;
/// Each tenant's private 1 MiB window inside root's RAM.
const WINDOW: u64 = 0x10_0000;
/// Where the tenant windows start.
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

/// One worker core's setup: the tenant running on it, the tenant's
/// window capability, and the lane's mailbox.
#[derive(Clone, Copy)]
struct Lane {
    tenant: DomainId,
    window: CapId,
    mailbox: DomainId,
}

fn window_base(core: usize) -> u64 {
    WINDOWS_BASE + core as u64 * WINDOW
}

/// Deterministic setup shared by the concurrent run and the replay:
/// root gives each core a sealed (nestable) tenant owning that core and
/// a private window, plus an unsealed mailbox, and every core enters its
/// tenant through the mediated path.
fn setup() -> (Monitor, Vec<Lane>) {
    let mut cfg = BootConfig::default();
    cfg.machine.cores = THREADS;
    let mut m = boot_x86(cfg);
    let root = m.engine.root().unwrap();
    let ram = m
        .engine
        .caps_of(root)
        .iter()
        .find(|c| {
            c.active
                && matches!(c.resource, Resource::Memory(r)
                    if r.start <= WINDOWS_BASE && window_base(THREADS) <= r.end)
        })
        .map(|c| c.id)
        .unwrap();
    let mut gates = Vec::new();
    let lanes: Vec<Lane> = (0..THREADS)
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
            Lane {
                tenant,
                window,
                mailbox,
            }
        })
        .collect();
    m.sync_effects().unwrap();
    for (core, gate) in gates.into_iter().enumerate() {
        m.call(core, MonitorCall::Enter { cap: gate }).unwrap();
    }
    (m, lanes)
}

fn seed_from_env() -> u64 {
    std::env::var("TYCHE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn shards_from_env() -> usize {
    std::env::var("TYCHE_STRESS_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(ConcurrentMonitor::DEFAULT_SHARDS)
}

/// One served call: its core, the call, and what `serve` returned.
type Served = (usize, MonitorCall, Result<CallResult, Status>);

#[test]
fn concurrent_mutations_linearize_and_audit_clean() {
    let seed = seed_from_env();
    let shards = shards_from_env();
    let (m, lanes) = setup();
    let sink = m.trace().clone();
    sink.enable(THREADS);
    let cm = Arc::new(ConcurrentMonitor::with_config(
        m,
        shards,
        ConcurrentMonitor::DEFAULT_RING_DEPTH,
    ));
    let snapshot_audits = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let snapshot_audits = Arc::clone(&snapshot_audits);
            let lanes = lanes.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let Lane {
                    tenant: me,
                    window: my_window,
                    mailbox: own_mailbox,
                } = lanes[tid];
                let peer = lanes[(tid + 1) % THREADS].mailbox;
                let mut log: Vec<Served> = Vec::with_capacity(OPS_PER_THREAD);
                for i in 0..OPS_PER_THREAD {
                    // Decide the call and its *concrete* arguments under a
                    // read guard; the shared state may move before the
                    // mutation commits, which is exactly the raciness the
                    // replay check has to absorb.
                    let call = cm.with_inner(|m| {
                        let snap = &m.engine;
                        match rng.below(10) {
                            0 | 1 => MonitorCall::CreateDomain,
                            2 | 3 => {
                                // Share a random page of my window with the
                                // next lane's mailbox, one of my own children,
                                // or myself (a sub-share I can grant onward).
                                let base = window_base(tid);
                                let page = rng.below(WINDOW / 0x1000 - 1) * 0x1000;
                                let target = match rng.below(3) {
                                    0 => peer,
                                    1 => pick_child(snap, me, &mut rng).unwrap_or(peer),
                                    _ => me,
                                };
                                MonitorCall::Share {
                                    cap: my_window,
                                    target,
                                    sub: Some((base + page, base + page + 0x1000)),
                                    rights: Rights::RW,
                                    policy: RevocationPolicy::NONE,
                                }
                            }
                            4 => {
                                // Grant a previously shared sub-capability onward.
                                match pick_cap(snap, me, my_window, &mut rng) {
                                    Some(cap) => MonitorCall::Grant {
                                        cap,
                                        target: own_mailbox,
                                        rights: Rights::RW,
                                        policy: RevocationPolicy::ZERO,
                                    },
                                    None => MonitorCall::CreateDomain,
                                }
                            }
                            5 | 6 => {
                                // Revoke something I handed out (I am the
                                // granter of every cap derived from my window).
                                match pick_granted(snap, me, &mut rng) {
                                    Some(cap) => MonitorCall::Revoke { cap },
                                    None => MonitorCall::CreateDomain,
                                }
                            }
                            7 => match pick_child(snap, me, &mut rng) {
                                Some(domain) => MonitorCall::SetEntry {
                                    domain,
                                    entry: window_base(tid),
                                },
                                None => MonitorCall::CreateDomain,
                            },
                            8 => match pick_child(snap, me, &mut rng) {
                                Some(domain) => MonitorCall::Seal {
                                    domain,
                                    allow_outward: true,
                                    allow_children: true,
                                },
                                None => MonitorCall::CreateDomain,
                            },
                            _ => MonitorCall::MakeTransition {
                                target: me,
                                policy: RevocationPolicy::NONE,
                            },
                        }
                    });
                    let result = cm.serve(tid, call);
                    log.push((tid, call, result));
                    cm.sync_shootdowns(tid);
                    // Periodically audit the live engine: every committed
                    // prefix of the linearization must be invariant-clean.
                    if i % 16 == 0 {
                        assert!(
                            cm.with_inner(|m| audit(&m.engine).is_empty()),
                            "snapshot audit failed (seed {seed}, thread {tid}, iter {i})"
                        );
                        snapshot_audits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                log
            })
        })
        .collect();
    let logs: Vec<Vec<Served>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let cm = Arc::try_unwrap(cm).ok().expect("workers joined");
    assert_eq!(
        SmpStats::get(&cm.stats.mutations),
        (THREADS * OPS_PER_THREAD) as u64
    );
    let final_monitor = cm.finish();
    assert!(
        audit(&final_monitor.engine).is_empty(),
        "final audit failed (seed {seed}, shards {shards})"
    );
    assert!(final_monitor.audit_hardware().is_empty());
    assert!(snapshot_audits.load(Ordering::Relaxed) > 0);

    // Each core's `HyperEnter`s, in trace order, are its worker's calls
    // in issue order; their global sequence numbers linearize the calls.
    let trace = sink.drain();
    let mut enters: Vec<Vec<(u64, u64)>> = vec![Vec::new(); THREADS];
    for e in trace.events() {
        if let EventKind::HyperEnter { leaf, .. } = e.kind {
            enters[e.core as usize].push((e.seq, leaf));
        }
    }
    let mut log: Vec<(u64, Served)> = Vec::new();
    for (core, (calls, core_enters)) in logs.into_iter().zip(enters).enumerate() {
        assert_eq!(
            calls.len(),
            core_enters.len(),
            "core {core}: one HyperEnter per call"
        );
        for (served, (seq, leaf)) in calls.into_iter().zip(core_enters) {
            assert_eq!(
                leaf,
                served.1.encode().0,
                "core {core}: trace leaf matches the call at seq {seq}"
            );
            log.push((seq, served));
        }
    }
    log.sort_by_key(|(seq, _)| *seq);
    assert_eq!(log.len(), THREADS * OPS_PER_THREAD);

    // Linearized replay: same setup, calls in sequence order, must agree
    // call-for-call and end in an identical engine.
    let (m, _lanes) = setup();
    let replay = ConcurrentMonitor::with_config(m, shards, ConcurrentMonitor::DEFAULT_RING_DEPTH);
    for (seq, (core, call, recorded)) in &log {
        let got = replay.serve(*core, *call);
        assert_eq!(
            &got, recorded,
            "replay diverged at seq {seq} for {call:?} on core {core} (seed {seed})"
        );
    }
    let replay = replay.finish();
    assert!(audit(&replay.engine).is_empty());
    assert_eq!(
        replay.engine, final_monitor.engine,
        "linearized replay does not reproduce the concurrent engine (seed {seed}, shards {shards})"
    );
}

/// A random unsealed child domain of `mgr` in `snap`.
fn pick_child(snap: &CapEngine, mgr: DomainId, rng: &mut Rng) -> Option<DomainId> {
    let kids: Vec<DomainId> = snap
        .domains()
        .filter(|d| d.manager == Some(mgr) && d.is_alive())
        .map(|d| d.id)
        .collect();
    if kids.is_empty() {
        None
    } else {
        Some(kids[rng.below(kids.len() as u64) as usize])
    }
}

/// A random active memory capability owned by `who`, other than its
/// window (granting the window away would end the tenant's workload).
fn pick_cap(snap: &CapEngine, who: DomainId, window: CapId, rng: &mut Rng) -> Option<CapId> {
    let caps: Vec<CapId> = snap
        .caps_of(who)
        .iter()
        .filter(|c| c.active && c.id != window && matches!(c.resource, Resource::Memory(_)))
        .map(|c| c.id)
        .collect();
    if caps.is_empty() {
        None
    } else {
        Some(caps[rng.below(caps.len() as u64) as usize])
    }
}

/// A random capability granted by `who` (so `who` may revoke it).
fn pick_granted(snap: &CapEngine, who: DomainId, rng: &mut Rng) -> Option<CapId> {
    let caps: Vec<CapId> = snap
        .caps()
        .filter(|c| c.granter == who && c.owner != who)
        .map(|c| c.id)
        .collect();
    if caps.is_empty() {
        None
    } else {
        Some(caps[rng.below(caps.len() as u64) as usize])
    }
}
