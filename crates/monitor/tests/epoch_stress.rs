//! Epoch read-side stress on [`ConcurrentMonitor`]: readers pin
//! snapshots across revocation storms served through
//! [`ConcurrentMonitor::serve`].
//!
//! Memory safety of a stale snapshot is unconditional here (`Arc` keeps
//! the clone alive), so what this test pins down is the *epoch
//! protocol* itself:
//!
//! - a pinned reader's view is never mutated or reclaimed out from
//!   under it, no matter how many publications displace it;
//! - while any reader is pinned at or before a displacement epoch, the
//!   displaced snapshot is retired (deferred), never reclaimed — and
//!   the moment the last pin drops, reclamation drains to zero;
//! - generations observed through `current_with_gen` are monotone per
//!   reader (the publish protocol's head store is the linearization
//!   point, so a reader can never see time move backwards);
//! - every snapshot a reader can observe mid-storm audits clean.
//!
//! Writer cores run sealed tenants that share a page of their window
//! with the next lane's (unsealed) mailbox and revoke it again; reader
//! cores pin their own epoch slot. The seed comes from
//! `TYCHE_STRESS_SEED` (default 1) so CI can sweep a fixed set of seeds.
//! Run with `--features tyche-core/paranoid-checks` to keep the
//! index-vs-scan differential checks hot in release builds.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tyche_core::audit::audit;
use tyche_core::prelude::*;
use tyche_core::shared::SNAP_SLOTS;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_x86, BootConfig, ConcurrentMonitor, Monitor, MonitorCall, SmpStats};

const WRITERS: usize = 3;
const READERS: usize = 3;
/// Writers on cores `0..WRITERS`, readers on the next `READERS` cores,
/// and the anchor reader on the last one.
const CORES: usize = WRITERS + READERS + 1;
const ANCHOR: usize = CORES - 1;
const STORM_OPS: usize = 100;
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
fn readers_pin_stable_views_across_revoke_storm() {
    let seed = seed_from_env();
    let (m, lanes) = setup();
    let cm = Arc::new(ConcurrentMonitor::new(m));

    // The anchor pin: taken at epoch 0 and held across the whole storm,
    // so *every* displaced snapshot must be retired and *none* may be
    // reclaimed until it drops. This makes the reclamation accounting
    // below exact despite the racing readers pinning and unpinning.
    let anchor = cm.epochs().pin(ANCHOR);
    let (g0, view0) = cm.epochs().current_with_gen();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|rid| {
            let cm = Arc::clone(&cm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                let mut iters = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let _pin = cm.epochs().pin(WRITERS + rid);
                    let (gen, snap) = cm.epochs().current_with_gen();
                    assert!(
                        gen >= last_gen,
                        "reader {rid} saw generation run backwards: {gen} < {last_gen} (seed {seed})"
                    );
                    last_gen = gen;
                    if iters.is_multiple_of(8) {
                        assert!(
                            audit(&snap).is_empty(),
                            "reader {rid} observed an unauditable snapshot at gen {gen} (seed {seed})"
                        );
                    }
                    iters += 1;
                }
                iters
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let cm = Arc::clone(&cm);
            let lanes = lanes.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let lane = lanes[tid];
                let peer = lanes[(tid + 1) % WRITERS].mailbox;
                for _ in 0..STORM_OPS {
                    // One share...
                    let page = window_base(tid) + rng.below(WINDOW / 0x1000 - 1) * 0x1000;
                    let cap = share_page(&cm, tid, lane, peer, page);
                    // ...immediately revoked: the classic storm that used
                    // to hammer the snapshot-cache mutex.
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
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }

    // The anchor still pins epoch 0: exact accounting. Every mutation
    // published a snapshot, every publication displaced one, and none
    // were reclaimed.
    let published = cm.epochs().published();
    assert_eq!(published, (WRITERS * STORM_OPS * 2) as u64);
    assert_eq!(SmpStats::get(&cm.stats.mutations), published);
    assert_eq!(cm.epochs().retired_len() as u64, published);
    assert_eq!(cm.epochs().deferred(), published);
    assert_eq!(cm.epochs().reclaimed(), 0);

    // The anchored view never moved.
    assert_eq!(
        view0.generation(),
        g0,
        "pinned view mutated under the reader"
    );
    assert!(audit(&view0).is_empty());

    // Dropping the last pin opens the grace window: everything drains.
    drop(anchor);
    let freed = cm.epochs().reclaim();
    assert_eq!(freed as u64, published);
    assert_eq!(cm.epochs().retired_len(), 0);
    assert_eq!(cm.epochs().reclaimed(), published);

    let final_monitor = Arc::try_unwrap(cm).ok().expect("threads joined").finish();
    assert!(
        audit(&final_monitor.engine).is_empty(),
        "final audit failed (seed {seed})"
    );
}

#[test]
fn pinned_view_survives_slot_ring_wraparound() {
    let (m, lanes) = setup();
    let cm = ConcurrentMonitor::new(m);
    let lane = lanes[0];
    let peer = lanes[1].mailbox;

    // With no pins, every publication's predecessor reclaims at once.
    let warmup = MonitorCall::Share {
        cap: lane.window,
        target: peer,
        sub: None,
        rights: Rights::RW,
        policy: RevocationPolicy::NONE,
    };
    cm.serve(0, warmup).expect("warmup share");
    assert_eq!(cm.epochs().retired_len(), 0);
    assert!(cm.epochs().reclaimed() > 0);
    let base_reclaimed = cm.epochs().reclaimed();

    // Pin, capture, then publish more generations than the slot ring
    // holds — the pinned snapshot's slot is overwritten, yet the view
    // must stay bit-identical.
    let pin = cm.epochs().pin(WRITERS);
    let (g0, view) = cm.epochs().current_with_gen();
    let baseline = (*view).clone();
    let wrap = (SNAP_SLOTS + 2) as u64;
    for i in 0..wrap {
        let page = window_base(0) + (i % 16) * 0x1000;
        let cap = share_page(&cm, 0, lane, peer, page);
        cm.serve(0, MonitorCall::Revoke { cap })
            .expect("wrap revoke");
    }
    let (g1, _) = cm.epochs().current_with_gen();
    assert!(g1 > g0, "publications must advance the read head");
    assert_eq!(*view, baseline, "pinned view changed across slot reuse");
    assert!(audit(&view).is_empty());

    // Everything displaced *after* the pin was deferred, not reclaimed;
    // only the ring's never-displaced boot clones (displacement epoch 0,
    // strictly before the pin) may have drained mid-loop.
    let pending = cm.epochs().retired_len() as u64;
    assert!(pending >= 2 * wrap - SNAP_SLOTS as u64);
    assert_eq!(cm.epochs().deferred(), pending);
    assert!(cm.epochs().reclaimed() <= base_reclaimed + SNAP_SLOTS as u64);

    drop(pin);
    assert_eq!(cm.epochs().reclaim() as u64, pending);
    assert_eq!(cm.epochs().retired_len(), 0);
    assert!(audit(&cm.finish().engine).is_empty());
}
