//! Trace-driven invariant auditing: replay the event ring and check
//! fbuf lifecycle rules after the fact.
//!
//! The auditor deliberately checks by **replaying events** rather than
//! by inline assertions at the call sites. Inline asserts see only the
//! state of the one layer they live in; the replay sees the interleaved
//! history of *every* layer (VM protection, cache parking, IPC notices,
//! driver delivery) and so can state cross-layer rules — "no successful
//! write lands on a secured fbuf", "a cache hit implies an earlier final
//! free on the same path" — as pure functions over the event stream.
//! It also keeps the hot path honest: the tracer records and moves on,
//! so auditing costs nothing unless a test asks for it, and a failing
//! audit leaves the full event history available for inspection instead
//! of a panic at an arbitrary depth.
//!
//! Invariants checked (each a paper lifecycle rule, §3.1–§3.3):
//!
//! 1. **No write after secure** — a `Write` on an fbuf between its
//!    `Secure` and the reset of its lifecycle means the write-protect
//!    machinery leaked a writable mapping.
//! 2. **Cache hits are preceded by frees** — a `CacheHit` on a path
//!    requires a previously parked buffer, i.e. some fbuf on that path
//!    saw its final `Free` earlier in the stream. A `Reclaim` does not
//!    consume the parked slot: the pageout daemon discards contents,
//!    but the buffer stays on the free list and may legally cache-hit
//!    again after re-materialization.
//! 3. **Alloc/free balance** — every `Free` must come from a current
//!    holder; a domain cannot free twice or free a buffer it never
//!    held.
//! 4. **No transfer after final free** — a `Transfer` of an fbuf with
//!    no live holders is a use-after-free.
//! 5. **Inbox balance** — every `Dequeue` by a domain actor must match
//!    an earlier `Enqueue` targeting it; a dequeue with nothing pending
//!    means the event-loop engine invented work. `Overload` events never
//!    entered the inbox, so they leave the balance untouched.
//! 6. **Notices match pending egress buffers** — a `NoticeOrphan` event
//!    is recorded when a dealloc notice comes back with no matching
//!    pending egress buffer (or out of FIFO send order). The data plane
//!    survives it (the notice is dropped or matched out of order) so
//!    that fuzzing under fault injection reports instead of aborting;
//!    the audit turns every occurrence into a typed violation.
//! 7. **Revocations target live buffers** — a `Revoked` event must name
//!    an fbuf that is still live at that point: either held by the
//!    acting domain (stalled-receiver timeout — the forced frees follow
//!    in the stream) or parked on its path's free list (quota-jail
//!    escalation retiring a hoarder's cached buffer, which consumes the
//!    parked slot). Revoking a buffer that is neither is a
//!    double-reclaim.
//!
//! The auditor is truncation-aware: a ring that overflowed has lost its
//! prefix, so events referring to fbufs whose `Alloc` was evicted are
//! skipped rather than misreported. Run it with a capacity sized to the
//! workload (the integration suites do) for full coverage; see
//! [`AuditReport::complete`].

use std::collections::HashMap;

use crate::trace::{EventKind, TraceEvent, Tracer};

/// One invariant violation, tied to the event (by ring sequence number)
/// that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the offending event.
    pub seq: u64,
    /// Which rule broke.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[seq {}] {}: {}", self.seq, self.rule, self.detail)
    }
}

/// Outcome of a replay: what was checked and what failed.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every violation found, in stream order.
    pub violations: Vec<Violation>,
    /// Events replayed.
    pub events: usize,
    /// Distinct fbufs whose lifecycle was tracked (an `Alloc` was seen).
    pub fbufs_tracked: usize,
    /// Events skipped because they referred to an fbuf allocated before
    /// the ring's horizon.
    pub skipped_unknown: usize,
    /// True when the stream had no truncation artifacts (nothing
    /// skipped): every rule was checked against complete history.
    pub complete: bool,
    /// Events evicted from the source ring before the audit saw them
    /// (only known when auditing via [`audit_tracer`]).
    pub dropped: u64,
    /// Non-fatal audit caveats — e.g. a ring overflow warning. A
    /// truncated ring silently under-reports latency histograms and
    /// hides early lifecycle events, so callers should surface these.
    pub warnings: Vec<String>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the audit is clean.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let list: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "trace audit found {} violation(s) over {} events:\n  {}",
                self.violations.len(),
                self.events,
                list.join("\n  ")
            );
        }
    }
}

/// Per-fbuf replay state.
#[derive(Debug, Default)]
struct FbufState {
    holders: Vec<u32>,
    path: Option<u64>,
    secured: bool,
}

/// Replays `events` (oldest first) and checks the lifecycle invariants.
/// See the [module docs](self) for the rule list.
pub fn audit(events: &[TraceEvent]) -> AuditReport {
    let mut report = AuditReport {
        events: events.len(),
        complete: true,
        ..AuditReport::default()
    };
    // Lifecycle state for every fbuf whose Alloc we observed.
    let mut fbufs: HashMap<u64, FbufState> = HashMap::new();
    // Buffers parked on each path's free list (final-freed, reusable).
    let mut parked: HashMap<u64, u64> = HashMap::new();
    let mut tracked = 0usize;
    // Rule 5 state: per-destination-actor count of inbox events that
    // were enqueued but not yet dequeued.
    let mut inbox_pending: HashMap<u32, u64> = HashMap::new();

    for e in events {
        // The actor-engine events carry no per-fbuf state (a hop may
        // bundle several fbufs); check the inbox balance before the
        // fbuf guard below.
        match e.kind {
            EventKind::Enqueue => {
                if let Some(dest) = e.peer {
                    *inbox_pending.entry(dest).or_insert(0) += 1;
                }
                continue;
            }
            EventKind::Dequeue => {
                let pending = inbox_pending.entry(e.dom).or_insert(0);
                if *pending == 0 {
                    report.violations.push(Violation {
                        seq: e.seq,
                        rule: "dequeue-without-enqueue",
                        detail: format!(
                            "actor {} dequeued an inbox event but nothing was \
                             pending (no prior Enqueue targeting it)",
                            e.dom
                        ),
                    });
                } else {
                    *pending -= 1;
                }
                continue;
            }
            // An Overload never entered the inbox: no balance change.
            EventKind::Overload => continue,
            EventKind::NoticeOrphan => {
                report.violations.push(Violation {
                    seq: e.seq,
                    rule: "notice-without-pending",
                    detail: format!(
                        "domain {} received dealloc notice token {:?} with no \
                         matching pending egress buffer (dropped or matched \
                         out of send order)",
                        e.dom, e.fbuf
                    ),
                });
                continue;
            }
            _ => {}
        }
        let id = match e.fbuf {
            Some(id) => id,
            None => continue, // IpcCall/Hop/PduTx… carry no fbuf state
        };
        match e.kind {
            EventKind::Alloc => {
                if !fbufs.contains_key(&id) {
                    tracked += 1;
                }
                fbufs.insert(
                    id,
                    FbufState {
                        holders: vec![e.dom],
                        path: e.path,
                        secured: false,
                    },
                );
            }
            EventKind::CacheHit => {
                let Some(p) = e.path else { continue };
                let slot = parked.entry(p).or_insert(0);
                if *slot == 0 {
                    report.violations.push(Violation {
                        seq: e.seq,
                        rule: "cache-hit-without-free",
                        detail: format!(
                            "CacheHit for fbuf {id} on path {p} with no parked buffer \
                             (no prior final Free on this path)"
                        ),
                    });
                } else {
                    *slot -= 1;
                }
            }
            EventKind::Secure => {
                if let Some(st) = fbufs.get_mut(&id) {
                    st.secured = true;
                } else {
                    report.skipped_unknown += 1;
                    report.complete = false;
                }
            }
            EventKind::Write => {
                match fbufs.get(&id) {
                    Some(st) if st.secured => report.violations.push(Violation {
                        seq: e.seq,
                        rule: "write-after-secure",
                        detail: format!(
                            "domain {} wrote fbuf {id} after it was secured",
                            e.dom
                        ),
                    }),
                    Some(_) => {}
                    None => {
                        report.skipped_unknown += 1;
                        report.complete = false;
                    }
                }
            }
            EventKind::Transfer => {
                let Some(st) = fbufs.get_mut(&id) else {
                    report.skipped_unknown += 1;
                    report.complete = false;
                    continue;
                };
                if st.holders.is_empty() {
                    report.violations.push(Violation {
                        seq: e.seq,
                        rule: "transfer-after-free",
                        detail: format!(
                            "domain {} transferred fbuf {id} after its final free",
                            e.dom
                        ),
                    });
                } else if !st.holders.contains(&e.dom) {
                    report.violations.push(Violation {
                        seq: e.seq,
                        rule: "transfer-by-non-holder",
                        detail: format!(
                            "domain {} transferred fbuf {id} it does not hold \
                             (holders: {:?})",
                            e.dom, st.holders
                        ),
                    });
                }
                if let Some(to) = e.peer {
                    if !st.holders.contains(&to) {
                        st.holders.push(to);
                    }
                }
            }
            EventKind::Free => {
                let Some(st) = fbufs.get_mut(&id) else {
                    report.skipped_unknown += 1;
                    report.complete = false;
                    continue;
                };
                match st.holders.iter().position(|&d| d == e.dom) {
                    Some(i) => {
                        st.holders.remove(i);
                        if st.holders.is_empty() {
                            // Final free: the buffer parks on its path's
                            // free list (if cached) and loses protection.
                            st.secured = false;
                            if let Some(p) = st.path {
                                *parked.entry(p).or_insert(0) += 1;
                            }
                        }
                    }
                    None => report.violations.push(Violation {
                        seq: e.seq,
                        rule: "unbalanced-free",
                        detail: format!(
                            "domain {} freed fbuf {id} it does not hold \
                             (holders: {:?})",
                            e.dom, st.holders
                        ),
                    }),
                }
            }
            EventKind::Reclaim => {
                // The pageout daemon discards a parked buffer's *contents*,
                // but the buffer itself stays on its path's free list: a
                // later allocation legally cache-hits it and
                // re-materializes the frames. So a Reclaim does not
                // consume the parked slot.
            }
            EventKind::Revoked => {
                let Some(st) = fbufs.get_mut(&id) else {
                    report.skipped_unknown += 1;
                    report.complete = false;
                    continue;
                };
                if st.holders.contains(&e.dom) {
                    // Timeout revocation of a held buffer: the forced
                    // Free events follow and consume the holders.
                } else if st.holders.is_empty() {
                    // Jail escalation retires a parked buffer: unlike a
                    // Reclaim, the buffer leaves the free list for good.
                    let slot = st.path.and_then(|p| parked.get_mut(&p));
                    match slot {
                        Some(s) if *s > 0 => *s -= 1,
                        _ => report.violations.push(Violation {
                            seq: e.seq,
                            rule: "revoke-of-dead-buffer",
                            detail: format!(
                                "fbuf {id} revoked while neither held nor \
                                 parked (double-reclaim)"
                            ),
                        }),
                    }
                } else {
                    report.violations.push(Violation {
                        seq: e.seq,
                        rule: "revoke-of-dead-buffer",
                        detail: format!(
                            "domain {} revoked fbuf {id} it does not hold \
                             (holders: {:?})",
                            e.dom, st.holders
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    report.fbufs_tracked = tracked;
    report
}

/// Convenience: audits a tracer's current ring. Truncated rings (any
/// dropped events) are marked incomplete and carry an explicit overflow
/// warning — a saturated ring silently truncates latency histograms, so
/// the loss is never left implicit.
pub fn audit_tracer(tracer: &Tracer) -> AuditReport {
    let mut report = audit(&tracer.events());
    let dropped = tracer.dropped();
    if dropped > 0 {
        report.complete = false;
        report.dropped = dropped;
        report.warnings.push(format!(
            "trace ring overflowed: {dropped} oldest event(s) evicted — \
             latency histograms and lifecycle checks cover a truncated window \
             (raise the capacity via Tracer::set_capacity for full coverage)"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Ns;

    fn ev(
        seq: u64,
        kind: EventKind,
        dom: u32,
        peer: Option<u32>,
        path: Option<u64>,
        fbuf: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            at: Ns(seq * 1_000),
            kind,
            dom,
            peer,
            path,
            fbuf,
            dur: None,
            pages: None,
            span: None,
        }
    }

    #[test]
    fn clean_lifecycle_passes() {
        // alloc → write → transfer → free(receiver) → free(owner) →
        // cache hit on the now-parked path.
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Write, 1, None, Some(7), Some(3)),
            ev(2, EventKind::Transfer, 1, Some(2), Some(7), Some(3)),
            ev(3, EventKind::Free, 2, None, Some(7), Some(3)),
            ev(4, EventKind::Free, 1, None, Some(7), Some(3)),
            ev(5, EventKind::CacheHit, 1, None, Some(7), Some(3)),
            ev(6, EventKind::Alloc, 1, None, Some(7), Some(3)),
        ];
        let r = audit(&events);
        r.assert_clean();
        assert_eq!(r.fbufs_tracked, 1);
        assert!(r.complete);
    }

    #[test]
    fn write_after_secure_is_rejected() {
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, None, Some(9)),
            ev(1, EventKind::Secure, 1, None, None, Some(9)),
            ev(2, EventKind::Write, 1, None, None, Some(9)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "write-after-secure");
        assert_eq!(r.violations[0].seq, 2);
    }

    #[test]
    fn secure_resets_on_final_free() {
        // After the lifecycle resets, the same fbuf id may be written
        // again (cached reuse unprotects on dealloc).
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, Some(4), Some(9)),
            ev(1, EventKind::Secure, 1, None, Some(4), Some(9)),
            ev(2, EventKind::Free, 1, None, Some(4), Some(9)),
            ev(3, EventKind::CacheHit, 1, None, Some(4), Some(9)),
            ev(4, EventKind::Alloc, 1, None, Some(4), Some(9)),
            ev(5, EventKind::Write, 1, None, Some(4), Some(9)),
        ];
        audit(&events).assert_clean();
    }

    #[test]
    fn cache_hit_without_prior_free_is_rejected() {
        let events = vec![ev(0, EventKind::CacheHit, 1, None, Some(7), Some(3))];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "cache-hit-without-free");
    }

    #[test]
    fn double_free_is_rejected() {
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, None, Some(3)),
            ev(1, EventKind::Free, 1, None, None, Some(3)),
            ev(2, EventKind::Free, 1, None, None, Some(3)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "unbalanced-free");
    }

    #[test]
    fn transfer_after_final_free_is_rejected() {
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, None, Some(3)),
            ev(1, EventKind::Free, 1, None, None, Some(3)),
            ev(2, EventKind::Transfer, 1, Some(2), None, Some(3)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "transfer-after-free");
    }

    #[test]
    fn free_by_stranger_is_rejected() {
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, None, Some(3)),
            ev(1, EventKind::Free, 5, None, None, Some(3)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations[0].rule, "unbalanced-free");
    }

    #[test]
    fn truncated_stream_skips_unknown_fbufs() {
        // A Free whose Alloc fell off the ring must not misreport.
        let events = vec![ev(10, EventKind::Free, 1, None, None, Some(3))];
        let r = audit(&events);
        assert!(r.is_clean());
        assert_eq!(r.skipped_unknown, 1);
        assert!(!r.complete);
    }

    #[test]
    fn reclaim_leaves_the_buffer_parked() {
        // park → reclaim → a later CacheHit is legal: reclaim discards
        // contents but the buffer stays on the free list (the system
        // re-materializes frames on reuse).
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Free, 1, None, Some(7), Some(3)),
            ev(2, EventKind::Reclaim, 0, None, Some(7), Some(3)),
            ev(3, EventKind::CacheHit, 1, None, Some(7), Some(3)),
        ];
        let r = audit(&events);
        assert!(r.is_clean(), "violations: {:?}", r.violations);
    }

    #[test]
    fn balanced_enqueue_dequeue_passes_and_overload_is_neutral() {
        let events = vec![
            ev(0, EventKind::Enqueue, 1, Some(2), None, None),
            ev(1, EventKind::Overload, 1, Some(2), None, None),
            ev(2, EventKind::Dequeue, 2, Some(1), None, None),
        ];
        let r = audit(&events);
        assert!(r.is_clean(), "violations: {:?}", r.violations);
    }

    #[test]
    fn overflowed_ring_audit_carries_an_explicit_warning() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.set_capacity(2);
        for i in 0..5u64 {
            t.instant(crate::Ns(i), EventKind::Notice, 0, None, Some(i));
        }
        let r = audit_tracer(&t);
        assert!(!r.complete);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.warnings.len(), 1);
        assert!(r.warnings[0].contains("overflowed"));
        // An untruncated ring warns about nothing.
        let t2 = Tracer::new();
        t2.set_enabled(true);
        t2.instant(crate::Ns(0), EventKind::Notice, 0, None, Some(1));
        let r2 = audit_tracer(&t2);
        assert_eq!(r2.dropped, 0);
        assert!(r2.warnings.is_empty());
    }

    #[test]
    fn orphan_notice_is_a_typed_violation() {
        // The data plane records the anomaly and keeps running; the
        // audit is where it becomes a failure.
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, Some(2), Some(4)),
            ev(1, EventKind::NoticeOrphan, 1, None, None, Some(77)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "notice-without-pending");
        assert_eq!(r.violations[0].seq, 1);
        assert!(r.violations[0].detail.contains("77"));
    }

    #[test]
    fn revocation_of_held_and_parked_buffers_is_legal() {
        // Timeout revocation: Revoked while held, forced frees follow.
        let held = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Transfer, 1, Some(2), Some(7), Some(3)),
            ev(2, EventKind::Revoked, 2, None, Some(7), Some(3)),
            ev(3, EventKind::Free, 2, None, Some(7), Some(3)),
            ev(4, EventKind::Free, 1, None, Some(7), Some(3)),
        ];
        audit(&held).assert_clean();
        // Jail escalation: Revoked on a parked buffer consumes the slot,
        // so a later CacheHit has nothing to reuse.
        let parked = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Free, 1, None, Some(7), Some(3)),
            ev(2, EventKind::Revoked, 1, None, Some(7), Some(3)),
            ev(3, EventKind::CacheHit, 1, None, Some(7), Some(3)),
        ];
        let r = audit(&parked);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "cache-hit-without-free");
    }

    #[test]
    fn revocation_of_dead_buffer_is_rejected() {
        // Neither held nor parked (the path's parked slot was already
        // consumed): a second revocation is a double-reclaim.
        let events = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Free, 1, None, Some(7), Some(3)),
            ev(2, EventKind::Revoked, 1, None, Some(7), Some(3)),
            ev(3, EventKind::Revoked, 1, None, Some(7), Some(3)),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "revoke-of-dead-buffer");
        assert_eq!(r.violations[0].seq, 3);
        // Revoked by a stranger while others still hold it.
        let stranger = vec![
            ev(0, EventKind::Alloc, 1, None, Some(7), Some(3)),
            ev(1, EventKind::Revoked, 9, None, Some(7), Some(3)),
        ];
        let r2 = audit(&stranger);
        assert_eq!(r2.violations.len(), 1);
        assert_eq!(r2.violations[0].rule, "revoke-of-dead-buffer");
    }

    #[test]
    fn dequeue_without_enqueue_is_flagged() {
        // The overload never entered the inbox, so the second dequeue
        // has nothing pending.
        let events = vec![
            ev(0, EventKind::Enqueue, 1, Some(2), None, None),
            ev(1, EventKind::Dequeue, 2, Some(1), None, None),
            ev(2, EventKind::Overload, 1, Some(2), None, None),
            ev(3, EventKind::Dequeue, 2, Some(1), None, None),
        ];
        let r = audit(&events);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "dequeue-without-enqueue");
        assert_eq!(r.violations[0].seq, 3);
    }
}
