//! Interrupt remapping (VT-d IR-style).
//!
//! §4.1 of the paper: capabilities should extend to "cross-domain
//! interrupt routing ... and hardware interrupt routing via remapping".
//! This controller models the hardware half: a remapping table maps an
//! interrupt vector to a *routing key* (the monitor uses one key per
//! trust domain), and raised vectors land in the routed key's pending
//! queue. Unrouted vectors are dropped and counted — the observable
//! signal that the paper wants for "exposing denial of service attacks".

use crate::faults::{FaultSite, Faults};
use std::collections::{HashMap, VecDeque};
use tyche_core::metrics::{Counter, Metrics};

/// Maximum vector number (x86 IDT size).
pub const MAX_VECTOR: u32 = 256;

/// The interrupt remapping controller.
#[derive(Debug, Default)]
pub struct IrqController {
    /// vector → routing key.
    remap: HashMap<u32, u64>,
    /// routing key → pending vectors (FIFO).
    pending: HashMap<u64, VecDeque<u32>>,
    /// Counter registry (`irq.*` counters). A standalone controller gets
    /// its own registry; `Machine::new` installs the machine-wide one.
    metrics: Metrics,
    /// Fault injector; inert by default.
    faults: Faults,
}

impl IrqController {
    /// Creates a controller with an empty remap table: every interrupt is
    /// dropped until the monitor routes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes `vector` to `key` (overwrites any previous route).
    ///
    /// # Panics
    ///
    /// Panics on a vector ≥ [`MAX_VECTOR`] — monitor bug.
    pub fn route(&mut self, vector: u32, key: u64) {
        assert!(vector < MAX_VECTOR, "vector {vector} out of range");
        self.remap.insert(vector, key);
    }

    /// Removes `vector`'s route; subsequent raises are dropped.
    pub fn unroute(&mut self, vector: u32) {
        self.remap.remove(&vector);
    }

    /// Current route of `vector`.
    pub fn route_of(&self, vector: u32) -> Option<u64> {
        self.remap.get(&vector).copied()
    }

    /// Attaches a shared fault injector (done once by `Machine::new`).
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Attaches the machine-wide metrics registry (done once by
    /// `Machine::new`); the controller counts into `irq.*` there.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The registry this controller counts into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A device (or timer) raises `vector`; returns the routed key, or
    /// `None` when the interrupt was dropped.
    ///
    /// An injected [`FaultSite::IpiDrop`] loses the interrupt before
    /// remapping (counted in `Counter::IrqInjectedDrops`); an injected
    /// [`FaultSite::IpiDup`] enqueues it twice (counted in
    /// `Counter::IrqInjectedDups`) — both are observable, checked
    /// degradations, not silent state corruption.
    pub fn raise(&mut self, vector: u32) -> Option<u64> {
        self.metrics.bump(Counter::IrqRaised);
        if self.faults.fire(FaultSite::IpiDrop) {
            self.metrics.bump(Counter::IrqInjectedDrops);
            self.metrics.bump(Counter::IrqSpurious);
            return None;
        }
        let dup = self.faults.fire(FaultSite::IpiDup);
        match self.remap.get(&vector) {
            Some(&key) => {
                self.pending.entry(key).or_default().push_back(vector);
                if dup {
                    self.metrics.bump(Counter::IrqInjectedDups);
                    self.pending.entry(key).or_default().push_back(vector);
                }
                Some(key)
            }
            None => {
                self.metrics.bump(Counter::IrqSpurious);
                None
            }
        }
    }

    /// Drains all pending vectors for `key`, in arrival order.
    pub fn drain(&mut self, key: u64) -> Vec<u32> {
        self.pending
            .remove(&key)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default()
    }

    /// Pending count for `key` without draining.
    pub fn pending_count(&self, key: u64) -> usize {
        self.pending.get(&key).map(|q| q.len()).unwrap_or(0)
    }

    /// Drops all state associated with `key` (domain teardown).
    pub fn purge_key(&mut self, key: u64) {
        self.remap.retain(|_, k| *k != key);
        self.pending.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_interrupts_queue_in_order() {
        let mut c = IrqController::new();
        c.route(32, 7);
        c.route(33, 7);
        assert_eq!(c.raise(32), Some(7));
        assert_eq!(c.raise(33), Some(7));
        assert_eq!(c.raise(32), Some(7));
        assert_eq!(c.drain(7), vec![32, 33, 32]);
        assert_eq!(c.drain(7), Vec::<u32>::new(), "drained");
    }

    #[test]
    fn unrouted_vectors_drop_and_count() {
        let mut c = IrqController::new();
        assert_eq!(c.raise(40), None);
        assert_eq!(c.metrics().get(Counter::IrqSpurious), 1);
        c.route(40, 1);
        assert_eq!(c.raise(40), Some(1));
        c.unroute(40);
        assert_eq!(c.raise(40), None);
        assert_eq!(c.metrics().get(Counter::IrqSpurious), 2);
        assert_eq!(c.metrics().get(Counter::IrqRaised), 3);
        assert_eq!(c.pending_count(1), 1, "earlier delivery still pending");
    }

    #[test]
    fn reroute_moves_delivery() {
        let mut c = IrqController::new();
        c.route(50, 1);
        c.raise(50);
        c.route(50, 2); // monitor revoked + re-granted the vector
        c.raise(50);
        assert_eq!(c.drain(1), vec![50]);
        assert_eq!(c.drain(2), vec![50]);
    }

    #[test]
    fn purge_clears_routes_and_queue() {
        let mut c = IrqController::new();
        c.route(60, 9);
        c.route(61, 9);
        c.raise(60);
        c.purge_key(9);
        assert_eq!(c.pending_count(9), 0);
        assert_eq!(c.raise(60), None, "routes gone");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_vector_panics() {
        IrqController::new().route(256, 0);
    }

    #[test]
    fn injected_drop_and_dup_are_counted() {
        use crate::faults::{FaultPlan, FaultSite, Faults};
        let mut c = IrqController::new();
        let faults = Faults::new();
        c.set_faults(faults.clone());
        c.route(32, 7);
        faults.arm(FaultPlan::once(FaultSite::IpiDrop));
        assert_eq!(c.raise(32), None, "dropped by injection");
        assert_eq!(c.metrics().get(Counter::IrqInjectedDrops), 1);
        assert_eq!(c.pending_count(7), 0);
        faults.arm(FaultPlan::once(FaultSite::IpiDup));
        assert_eq!(c.raise(32), Some(7));
        assert_eq!(c.metrics().get(Counter::IrqInjectedDups), 1);
        assert_eq!(c.drain(7), vec![32, 32], "delivered twice");
        // Injector spent: normal delivery resumes.
        assert_eq!(c.raise(32), Some(7));
        assert_eq!(c.drain(7), vec![32]);
    }

    #[test]
    fn shared_registry_counts_machine_wide() {
        let shared = Metrics::new();
        let mut c = IrqController::new();
        c.set_metrics(shared.clone());
        c.raise(5);
        assert_eq!(shared.get(Counter::IrqSpurious), 1, "visible via the clone");
    }
}
