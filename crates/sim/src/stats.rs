//! Operation counters.
//!
//! The reproduction verifies mechanisms two ways: by simulated timing (the
//! cost model) and by *operation counts*. Counting lets tests pin statements
//! like "fbuf caching reduces the number of page table updates required to
//! two, irrespective of the number of transfers" (paper §3.2.2) exactly,
//! independent of any calibration.

use std::fmt;

use crate::json::{Json, ToJson};

/// A single named counter value (snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Counter name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

macro_rules! stats_impl {
    ($($(#[$doc:meta])* $name:ident : $inc:ident),* $(,)?) => {
        /// Raw counter storage; obtain via [`Stats::snapshot`].
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// All counters with their names, in declaration order.
            pub fn counters(&self) -> Vec<Counter> {
                vec![ $( Counter { name: stringify!($name), value: self.$name }, )* ]
            }

            /// Per-field difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )*
                }
            }

            /// [`StatsSnapshot::merge`] under the name the benchmark
            /// package (`fbufbench/src/workload.rs`) calls it by.
            pub fn plus(&self, other: &StatsSnapshot) -> StatsSnapshot {
                self.merge(other)
            }

            /// Sum of all counters; handy as a quick "anything happened?"
            /// check in tests.
            pub fn total(&self) -> u64 {
                0 $( + self.$name )*
            }

            /// Combines two snapshots into one: two shards' into a
            /// fleet's, or a workload's deltas into their total.
            ///
            /// Counters are additive, so merging is fieldwise saturating
            /// addition — associative, commutative, with the zeroed
            /// snapshot as identity (properties pinned in
            /// `tests/properties.rs`).
            pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.saturating_add(other.$name), )*
                }
            }

            /// Merges any number of shard snapshots ([`StatsSnapshot::merge`]
            /// folded over the zero identity).
            pub fn merge_all<'a, I>(snapshots: I) -> StatsSnapshot
            where
                I: IntoIterator<Item = &'a StatsSnapshot>,
            {
                snapshots
                    .into_iter()
                    .fold(StatsSnapshot::default(), |acc, s| acc.merge(s))
            }
        }

        impl Stats {
            $(
                $(#[$doc])*
                pub fn $name(&self) -> u64 {
                    self.counts.$name
                }

                /// Increments the corresponding counter by one.
                pub fn $inc(&mut self) {
                    self.counts.$name += 1;
                }
            )*
        }
    };
}

stats_impl! {
    /// Physical page-table updates (map, unmap, protect, unprotect).
    pte_updates: inc_pte_updates,
    /// Per-entry TLB consistency flushes.
    tlb_flushes: inc_tlb_flushes,
    /// Software TLB refills.
    tlb_refills: inc_tlb_refills,
    /// Pages zero-filled for security.
    pages_cleared: inc_pages_cleared,
    /// Pages physically copied.
    pages_copied: inc_pages_copied,
    /// Lazy zero-fill (soft) faults taken.
    soft_faults: inc_soft_faults,
    /// Copy-on-write faults taken.
    cow_faults: inc_cow_faults,
    /// Access violations (protection faults delivered to the offender).
    access_violations: inc_access_violations,
    /// Reads of unmapped fbuf-region addresses that were satisfied with a
    /// synthetic empty leaf (paper §3.2.4).
    wild_reads_nullified: inc_wild_reads_nullified,
    /// Physical frames allocated.
    frames_allocated: inc_frames_allocated,
    /// Physical frames freed.
    frames_freed: inc_frames_freed,
    /// Frames reclaimed from fbuf free lists by the pageout daemon.
    frames_reclaimed: inc_frames_reclaimed,
    /// IPC messages sent (calls and explicit notices; replies not counted).
    ipc_messages: inc_ipc_messages,
    /// Deallocation notices piggybacked on RPC replies.
    piggybacked_notices: inc_piggybacked_notices,
    /// Explicit deallocation-notice messages ("in practice, it is rarely
    /// necessary to send additional messages").
    explicit_notice_messages: inc_explicit_notice_messages,
    /// Fbuf allocations satisfied from a per-path cached free list.
    fbuf_cache_hits: inc_fbuf_cache_hits,
    /// Fbuf allocations that had to build a new buffer.
    fbuf_cache_misses: inc_fbuf_cache_misses,
    /// Chunks of the fbuf region granted to per-domain allocators.
    chunks_granted: inc_chunks_granted,
    /// Chunk requests denied by the per-path quota.
    chunk_quota_denials: inc_chunk_quota_denials,
    /// Cross-domain fbuf transfers performed.
    fbuf_transfers: inc_fbuf_transfers,
    /// Fbufs secured (write permission removed from the originator).
    fbufs_secured: inc_fbufs_secured,
    /// Aggregate-object DAG nodes visited during receive-side traversal.
    dag_nodes_visited: inc_dag_nodes_visited,
    /// DAG traversals aborted because a cycle was detected.
    dag_cycles_detected: inc_dag_cycles_detected,
    /// DAG child pointers rejected by the fbuf-region range check.
    dag_range_check_failures: inc_dag_range_check_failures,
    /// Bytes copied by the generator interface when a data unit straddled a
    /// fragment boundary (§5.2). Incremented per copy, not per byte.
    generator_copies: inc_generator_copies,
    /// PDUs carried by a driver (loopback or Osiris).
    pdus_sent: inc_pdus_sent,
    /// PDUs received into preallocated *cached* fbufs by the Osiris driver.
    driver_cached_rx: inc_driver_cached_rx,
    /// PDUs received into the uncached fallback pool by the Osiris driver.
    driver_uncached_rx: inc_driver_uncached_rx,
    /// Transfers dropped because a domain actor's bounded inbox was full
    /// (the event-loop engine's explicit `Overload` outcome; always zero
    /// under the recursive/direct engine and under drained pipelines).
    overload_drops: inc_overload_drops,
    /// Bytes carried across domain boundaries by fbuf transfers (the
    /// fleet total the per-tenant ledger must conserve against).
    bytes_transferred: inc_bytes_transferred,
    /// Allocations denied because the requesting tenant was jailed by
    /// the hoard detector (organic containment, never injected faults).
    jail_denials: inc_jail_denials,
    /// Fbufs forcibly revoked from a tenant — either reclaimed from a
    /// jailed hoarder's cached free lists or taken back from a stalled
    /// receiver when a transfer's revocation deadline expired.
    fbufs_revoked: inc_fbufs_revoked,
    /// Forged or stale cross-shard ring tokens rejected before any
    /// dereference (bad shard bits or a stale arena generation).
    tokens_rejected: inc_tokens_rejected,
}

/// Operation counters.
///
/// Like [`crate::Clock`], `Stats` has one owner, the simulated machine;
/// every layer of the stack increments the counters through it, and a
/// [`StatsSnapshot`] keeps their values. It cannot be cloned:
///
/// ```compile_fail
/// let stats = fbuf_sim::Stats::new();
/// let alias = stats.clone(); // must not compile: one owner
/// ```
#[derive(Debug, Default)]
pub struct Stats {
    counts: StatsSnapshot,
}

impl Stats {
    /// Creates a zeroed counter set.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Bulk-increments `pte_updates` by `n`. Used by the batched VM range
    /// operations, whose counter totals must be identical to the per-page
    /// sequences they replace (`n` single increments).
    pub fn add_pte_updates(&mut self, n: u64) {
        self.counts.pte_updates += n;
    }

    /// Bulk-increments `tlb_flushes` by `n` (see [`Stats::add_pte_updates`]).
    pub fn add_tlb_flushes(&mut self, n: u64) {
        self.counts.tlb_flushes += n;
    }

    /// Bulk-increments `frames_reclaimed` by `n` (one per frame taken from
    /// a parked buffer by the pageout daemon).
    pub fn add_frames_reclaimed(&mut self, n: u64) {
        self.counts.frames_reclaimed += n;
    }

    /// Bulk-increments `piggybacked_notices` by `n` (one per token drained
    /// into an RPC reply).
    pub fn add_piggybacked_notices(&mut self, n: u64) {
        self.counts.piggybacked_notices += n;
    }

    /// Bulk-increments `bytes_transferred` by `n` (the byte length of one
    /// cross-domain transfer).
    pub fn add_bytes_transferred(&mut self, n: u64) {
        self.counts.bytes_transferred += n;
    }

    /// Copies out the current values.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.counts.clone()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.counts = StatsSnapshot::default();
    }
}

impl ToJson for StatsSnapshot {
    /// An object with every counter by name, in declaration order
    /// (zero-valued counters included, so report consumers see a stable
    /// schema).
    fn to_json(&self) -> Json {
        Json::obj(
            self.counters()
                .iter()
                .map(|c| (c.name, c.value.to_json()))
                .collect(),
        )
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.counters() {
            if c.value != 0 {
                writeln!(f, "{:>28}: {}", c.name, c.value)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment_and_snapshot() {
        let mut s = Stats::new();
        s.inc_pte_updates();
        s.inc_pte_updates();
        s.inc_tlb_flushes();
        assert_eq!(s.pte_updates(), 2);
        assert_eq!(s.tlb_flushes(), 1);
        let snap = s.snapshot();
        assert_eq!(snap.pte_updates, 2);
        assert_eq!(snap.total(), 3);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut s = Stats::new();
        s.inc_pages_cleared();
        let before = s.snapshot();
        s.inc_pages_cleared();
        s.inc_pages_copied();
        let d = s.snapshot().delta(&before);
        assert_eq!(d.pages_cleared, 1);
        assert_eq!(d.pages_copied, 1);
        assert_eq!(d.pte_updates, 0);
    }

    #[test]
    fn merge_is_plus_with_zero_identity() {
        let mut s = Stats::new();
        s.inc_fbuf_cache_hits();
        s.inc_pte_updates();
        let a = s.snapshot();
        s.reset();
        s.inc_fbuf_cache_hits();
        let b = s.snapshot();
        let merged = a.merge(&b);
        assert_eq!(merged.fbuf_cache_hits, 2);
        assert_eq!(merged.pte_updates, 1);
        assert_eq!(a.merge(&StatsSnapshot::default()), a);
        assert_eq!(StatsSnapshot::merge_all([&a, &b]), merged);
        assert_eq!(
            StatsSnapshot::merge_all(std::iter::empty()),
            StatsSnapshot::default()
        );
    }

    #[test]
    fn reset_zeroes() {
        let mut s = Stats::new();
        s.inc_cow_faults();
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
    }

    #[test]
    fn display_skips_zero_counters() {
        let mut s = Stats::new();
        s.inc_soft_faults();
        let text = s.snapshot().to_string();
        assert!(text.contains("soft_faults"));
        assert!(!text.contains("cow_faults"));
    }

    #[test]
    fn json_snapshot_lists_every_counter() {
        let mut s = Stats::new();
        s.inc_pte_updates();
        let j = s.snapshot().to_json();
        assert_eq!(j.get("pte_updates").and_then(Json::as_f64), Some(1.0));
        // Zero counters stay present: the report schema is stable.
        assert_eq!(j.get("pages_copied").and_then(Json::as_f64), Some(0.0));
        let rendered = j.render();
        let parsed = Json::parse(&rendered).expect("snapshot json parses");
        assert_eq!(parsed.get("pte_updates").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn counters_listing_has_names() {
        let mut s = Stats::new();
        s.inc_dag_cycles_detected();
        let list = s.snapshot().counters();
        let c = list
            .iter()
            .find(|c| c.name == "dag_cycles_detected")
            .unwrap();
        assert_eq!(c.value, 1);
    }
}
