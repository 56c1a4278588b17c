//! The shard routing rule of the SMP serving layer.
//!
//! The engine itself stays a plain `&mut self` state machine — the BMC,
//! the corruption hooks, and every existing test keep driving it
//! directly. The concurrent monitor (`tyche-monitor::concurrent`) owns
//! the shard locks and the engine lock; this module holds the routing
//! rule its lock table follows ([`shard_count`], [`shard_of`]): a
//! power-of-two table and `id & mask` routing, so both sides of a
//! cross-domain call agree on the shard order.

use crate::ids::DomainId;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
