//! The epoch read side of the SMP serving layer.
//!
//! The engine itself stays a plain `&mut self` state machine — the BMC,
//! the corruption hooks, and every existing test keep driving it
//! directly. The concurrent monitor (`tyche-monitor::concurrent`) owns
//! the shard locks and the engine write lock; this module supplies the
//! lock-free read path it publishes into:
//!
//! - Every committed mutation *publishes* a fresh `Arc<CapEngine>`
//!   clone into a small ring of snapshot slots and swaps the head
//!   pointer, so [`EpochReadSide::current`] is one atomic head load
//!   plus an uncontended slot read — readers never take a shard lock
//!   and never serialize on a shared cache mutex.
//! - Readers that need a stable reclamation horizon across several
//!   reads pin an epoch first ([`EpochReadSide::pin`]); displaced
//!   snapshots are retired and reclaimed only after every pinned
//!   reader has advanced past their displacement epoch
//!   (retire-after-grace).
//!
//! It also holds the shard routing rule the monitor's lock table
//! follows ([`shard_count`], [`shard_of`]): a power-of-two table and
//! `id & mask` routing, so both sides of a cross-domain call agree on
//! the shard order.
//!
//! ## Epoch lifecycle
//!
//! Memory safety here is unconditional — snapshots are `Arc`s, so no
//! reader can ever observe a freed engine whatever the epochs say. The
//! epochs govern *slot reuse and retirement timing*, which is what the
//! RCU discipline is about:
//!
//! 1. A publisher (running under the engine write lock) bumps the
//!    global epoch, overwrites the oldest slot with the new snapshot,
//!    swaps the head pointer (Release), and records the epoch at which
//!    the displaced slot stopped being reachable.
//! 2. The displaced snapshot goes onto the retired list tagged with its
//!    displacement epoch.
//! 3. Retired snapshots are dropped only once every reader is idle or
//!    pinned at an epoch strictly newer than the displacement — the
//!    grace condition. A pinned reader therefore keeps every snapshot
//!    it could still be holding alive on the retired list.
//! 4. Overwriting a slot before its grace has elapsed (a straggling
//!    reader still inside the slot's read guard) is *counted*
//!    ([`EpochReadSide::deferred`]) and handled by the slot `RwLock`,
//!    which simply waits the reader out — a stall, never a
//!    use-after-free.
//!
//! Lock poisoning: a panicked writer (e.g. a paranoid-check assertion
//! firing in another thread's test) must not cascade into opaque
//! `PoisonError` panics here, so every acquisition recovers the guard
//! with `into_inner()`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::engine::CapEngine;
use crate::ids::DomainId;

/// Number of published snapshot slots in an [`EpochReadSide`]. Small on
/// purpose: one live head plus a short grace window of displaced slots.
pub const SNAP_SLOTS: usize = 4;

/// Reader-slot value meaning "not pinned".
pub const EPOCH_IDLE: u64 = u64::MAX;

/// The shard-table size built for a request of `nshards`: rounded up
/// to the next power of two, and at least one, so routing is a mask
/// rather than a division (and a zero request never divides by zero).
pub fn shard_count(nshards: usize) -> usize {
    nshards.max(1).next_power_of_two()
}

/// The shard `domain` routes to in a table built for `nshards`: its id
/// masked by the rounded count. A pure function of the id, so every
/// caller takes the same shards in the same ascending order.
pub fn shard_of(domain: DomainId, nshards: usize) -> usize {
    let mask = (shard_count(nshards) - 1) as u64;
    (domain.0 & mask) as usize
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    match l.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// One published `(generation, snapshot)` slot in the epoch ring.
type SnapSlot = RwLock<(u64, Arc<CapEngine>)>;

/// The epoch-based read side of the concurrent monitor: a ring of
/// published `(generation, snapshot)` slots, per-reader epoch pins, and
/// a retired list reclaimed after grace. See the module docs for the
/// lifecycle.
pub struct EpochReadSide {
    /// Published snapshot slots; `head` indexes the newest.
    snaps: Box<[SnapSlot]>,
    /// Epoch at which each slot was displaced from head (0 = never).
    displaced: Box<[AtomicU64]>,
    /// Index of the most recently published slot.
    head: AtomicUsize,
    /// Global publication epoch; bumped once per publish.
    epoch: AtomicU64,
    /// Per-reader pinned epoch, [`EPOCH_IDLE`] when unpinned.
    readers: Box<[AtomicU64]>,
    /// Displaced snapshots awaiting grace: (displacement epoch, clone).
    retired: Mutex<Vec<(u64, Arc<CapEngine>)>>,
    /// Publications so far.
    published: AtomicU64,
    /// Retired snapshots dropped after their grace elapsed.
    reclaimed: AtomicU64,
    /// Publications that overwrote a slot before its grace elapsed (the
    /// slot lock waited out a straggling reader).
    deferred: AtomicU64,
    /// Boot-time snapshot, kept as an infallible fallback so the read
    /// path never needs a panicking index.
    boot: (u64, Arc<CapEngine>),
}

/// An epoch pin: while alive, no snapshot displaced at or after the
/// pinned epoch is reclaimed. Dropping unpins.
pub struct EpochPin<'a> {
    reads: &'a EpochReadSide,
    reader: usize,
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.reads.readers.get(self.reader) {
            r.store(EPOCH_IDLE, Ordering::SeqCst);
        }
    }
}

impl EpochReadSide {
    /// Creates a read side publishing `snap` (taken at `gen`) with
    /// `readers` pin slots (at least one).
    pub fn new(gen: u64, snap: Arc<CapEngine>, readers: usize) -> Self {
        let snaps: Box<[SnapSlot]> = (0..SNAP_SLOTS)
            .map(|_| RwLock::new((gen, Arc::clone(&snap))))
            .collect();
        EpochReadSide {
            snaps,
            displaced: (0..SNAP_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            readers: (0..readers.max(1)).map(|_| AtomicU64::new(EPOCH_IDLE)).collect(),
            retired: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            boot: (gen, snap),
        }
    }

    /// Pins `reader` at the current epoch. Out-of-range readers get a
    /// no-op pin (safe either way: pins only tighten reclamation).
    pub fn pin(&self, reader: usize) -> EpochPin<'_> {
        let now = self.epoch.load(Ordering::SeqCst);
        if let Some(r) = self.readers.get(reader) {
            r.store(now, Ordering::SeqCst);
        }
        EpochPin { reads: self, reader }
    }

    /// The newest published `(generation, snapshot)`. One Acquire head
    /// load plus an uncontended slot read; never blocks on a mutex.
    pub fn current_with_gen(&self) -> (u64, Arc<CapEngine>) {
        let idx = self.head.load(Ordering::Acquire);
        match self.snaps.get(idx).or_else(|| self.snaps.first()) {
            Some(snap_cell) => {
                let published = read_lock(snap_cell);
                (published.0, Arc::clone(&published.1))
            }
            // Unreachable: `snaps` is non-empty by construction.
            None => (self.boot.0, Arc::clone(&self.boot.1)),
        }
    }

    /// The newest published snapshot.
    pub fn current(&self) -> Arc<CapEngine> {
        self.current_with_gen().1
    }

    /// Publishes a new snapshot. Must be called from the committing
    /// mutator (while it still holds the engine write lock) so
    /// publications are totally ordered; the caller stores `live_gen`
    /// with Release *after* this returns.
    pub fn publish(&self, gen: u64, snap: Arc<CapEngine>) {
        let epoch_now = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let old_head = self.head.load(Ordering::Acquire);
        let next = if old_head + 1 >= self.snaps.len() { 0 } else { old_head + 1 };
        let next_displaced = self
            .displaced
            .get(next)
            .map_or(0, |d| d.load(Ordering::SeqCst));
        if !self.grace_elapsed(next_displaced) {
            // A straggling reader may still sit inside this slot's read
            // guard; the write acquisition below waits it out. Counted,
            // never unsafe.
            self.deferred.fetch_add(1, Ordering::SeqCst);
        }
        let prev = match self.snaps.get(next) {
            Some(snap_cell) => {
                let mut published = write_lock(snap_cell);
                std::mem::replace(&mut *published, (gen, snap))
            }
            None => return,
        };
        self.head.store(next, Ordering::Release);
        if let Some(d) = self.displaced.get(old_head) {
            d.store(epoch_now, Ordering::SeqCst);
        }
        {
            let mut retired = mutex_lock(&self.retired);
            retired.push((next_displaced, prev.1));
        }
        self.published.fetch_add(1, Ordering::SeqCst);
        self.reclaim();
    }

    /// True when every reader is idle or pinned strictly after
    /// `displaced_at` — i.e. no pinned reader can still reference a
    /// snapshot displaced at that epoch.
    fn grace_elapsed(&self, displaced_at: u64) -> bool {
        self.readers.iter().all(|r| {
            let pinned = r.load(Ordering::SeqCst);
            pinned == EPOCH_IDLE || pinned > displaced_at
        })
    }

    /// Drops every retired snapshot whose grace has elapsed. Returns how
    /// many were reclaimed. Safe to call from any thread at any time.
    pub fn reclaim(&self) -> usize {
        let horizon = self
            .readers
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .filter(|&p| p != EPOCH_IDLE)
            .min();
        let freed = {
            let mut retired = mutex_lock(&self.retired);
            let before = retired.len();
            match horizon {
                None => retired.clear(),
                Some(min_pinned) => retired.retain(|(displaced_at, _)| *displaced_at >= min_pinned),
            }
            before - retired.len()
        };
        self.reclaimed.fetch_add(freed as u64, Ordering::SeqCst);
        freed
    }

    /// Snapshots currently awaiting grace.
    pub fn retired_len(&self) -> usize {
        mutex_lock(&self.retired).len()
    }

    /// Total publications.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Total retired snapshots reclaimed after grace.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::SeqCst)
    }

    /// Publications that found their target slot's grace not yet
    /// elapsed.
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::SeqCst)
    }

    /// The current global epoch.
    pub fn epoch_now(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// A read side over a one-domain engine, plus the engine so tests
    /// can publish successive generations the way a mutator does.
    fn seeded(readers: usize) -> (EpochReadSide, CapEngine, DomainId) {
        let mut e = CapEngine::new();
        let root = e.create_root_domain();
        e.endow(root, Resource::mem(0x0, 0x10_0000), Rights::RWX)
            .unwrap();
        let reads = EpochReadSide::new(e.generation(), Arc::new(e.clone()), readers);
        (reads, e, root)
    }

    /// One committed mutation followed by its publication.
    fn mutate_and_publish(reads: &EpochReadSide, e: &mut CapEngine, root: DomainId) {
        e.create_domain(root).unwrap();
        reads.publish(e.generation(), Arc::new(e.clone()));
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        for (requested, n) in [(1, 1), (4, 4), (7, 8), (16, 16), (17, 32)] {
            assert_eq!(shard_count(requested), n, "{requested} rounds up to {n}");
        }
        // Routing at a requested count agrees with routing at its rounded count.
        for raw in [0u64, 1, 7, 8, 9, 1023] {
            assert_eq!(shard_of(DomainId(raw), 7), shard_of(DomainId(raw), 8));
            assert_eq!(shard_of(DomainId(raw), 7), (raw % 8) as usize);
        }
    }

    #[test]
    fn shard_order_is_global() {
        // shard_of is a pure function of the id: two domains always map
        // to the same pair of shards in the same order, whichever side
        // initiates the cross-domain operation.
        let a = DomainId(3);
        let b = DomainId(7);
        assert_eq!(shard_of(a, 16), 3);
        assert_eq!(shard_of(b, 16), 7);
        assert_eq!(shard_of(DomainId(3 + 16), 16), shard_of(a, 16));
    }

    #[test]
    fn with_shards_folds_ids_onto_smaller_table() {
        assert_eq!(shard_count(4), 4);
        assert_eq!(shard_of(DomainId(7), 4), 3);
        assert_eq!(shard_of(DomainId(11), 4), 3);
        // Degenerate counts clamp to one shard instead of dividing by 0.
        assert_eq!(shard_count(0), 1);
        assert_eq!(shard_of(DomainId(9), 0), 0);
    }

    #[test]
    fn pinned_reader_defers_reclamation() {
        let (reads, mut e, root) = seeded(2);
        let pin = reads.pin(0);
        let pinned_view = reads.current();
        // A storm of publications while the reader stays pinned: nothing
        // displaced during the pin may be reclaimed.
        for _ in 0..(3 * SNAP_SLOTS) {
            mutate_and_publish(&reads, &mut e, root);
        }
        assert_eq!(reads.published(), 3 * SNAP_SLOTS as u64);
        assert_eq!(
            reads.reclaimed(),
            0,
            "grace cannot elapse under a pin taken before the storm"
        );
        assert!(reads.retired_len() > 0);
        // The pinned reader's view is still the pre-storm state.
        assert_eq!(pinned_view.domains().count(), 1);
        drop(pin);
        reads.reclaim();
        assert_eq!(reads.retired_len(), 0, "unpinning drains the retired list");
        assert!(reads.reclaimed() > 0);
    }

    #[test]
    fn unpinned_publications_reclaim_immediately() {
        let (reads, mut e, root) = seeded(2);
        for _ in 0..SNAP_SLOTS {
            mutate_and_publish(&reads, &mut e, root);
        }
        // With no readers pinned, each publish reclaims its own retiree.
        assert_eq!(reads.retired_len(), 0);
        assert_eq!(reads.reclaimed(), SNAP_SLOTS as u64);
        assert_eq!(reads.deferred(), 0);
        assert_eq!(reads.current().domains().count(), 1 + SNAP_SLOTS);
    }
}
