//! The binary event heap: deterministic scheduling for the event-driven
//! transfer engine.
//!
//! The recursive transfer engine of the early PRs expressed a
//! cross-domain transfer as a depth-first descent of nested calls — one
//! in-flight message per engine, no way to even *state* queueing or
//! overload. The event-driven engine (`fbuf_ipc::actor`,
//! `fbuf::engine`) replaces the call stack with a scheduler, and this
//! module is its ordering core: a classic array-backed binary min-heap
//! of `(time, sequence)` keys.
//!
//! Determinism rules (DESIGN.md §12):
//!
//! * events pop in **nondecreasing simulated time** — time never runs
//!   backwards;
//! * events scheduled for the **same instant pop in FIFO order** — each
//!   push draws a monotonically increasing [`EventId`], and the heap
//!   orders by `(at, id)`, so ties break by insertion order, never by
//!   allocation address or hash seed;
//! * nothing here reads the wall clock or any other ambient source —
//!   given the same pushes, two runs pop the same sequence, which is
//!   what makes every workload replayable from a seed.

use crate::time::Ns;

/// Identity of a scheduled event: the heap's insertion sequence number.
///
/// Ids are handed out in push order and never reused, so they double as
/// the FIFO tie-break at equal timestamps and as a stable handle for
/// tracing ("which enqueue did this dequeue match?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// One event popped from the heap: when it was scheduled for, its id,
/// and the payload it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<T> {
    /// The simulated instant the event was scheduled at.
    pub at: Ns,
    /// Insertion sequence number (the FIFO tie-break).
    pub id: EventId,
    /// The scheduled payload.
    pub payload: T,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Ns,
    id: EventId,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Ns, EventId) {
        (self.at, self.id)
    }
}

/// An array-backed binary min-heap of timestamped events with
/// deterministic FIFO tie-breaking at equal timestamps.
///
/// # Examples
///
/// ```
/// use fbuf_sim::{EventHeap, Ns};
///
/// let mut heap = EventHeap::new();
/// heap.push(Ns(30), "late");
/// heap.push(Ns(10), "first-at-10");
/// heap.push(Ns(10), "second-at-10"); // same instant: FIFO
///
/// assert_eq!(heap.pop().unwrap().payload, "first-at-10");
/// assert_eq!(heap.pop().unwrap().payload, "second-at-10");
/// let last = heap.pop().unwrap();
/// assert_eq!((last.at, last.payload), (Ns(30), "late"));
/// assert!(heap.pop().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventHeap<T> {
    slots: Vec<Entry<T>>,
    next_id: u64,
}

impl<T> EventHeap<T> {
    /// An empty heap. Ids start at zero.
    pub fn new() -> EventHeap<T> {
        EventHeap {
            slots: Vec::new(),
            next_id: 0,
        }
    }

    /// Schedules `payload` at instant `at`; returns the event's id.
    /// Later pushes always receive larger ids, including pushes for the
    /// same instant — that is the FIFO guarantee.
    pub fn push(&mut self, at: Ns, payload: T) -> EventId {
        let id = self.draw_id();
        self.slots.push(Entry { at, id, payload });
        self.sift_up(self.slots.len() - 1);
        id
    }

    /// Draws the next id without scheduling anything: the id a
    /// [`EventHeap::push`] would have returned for an event that is
    /// popped the instant it is pushed. A caller that dispatches such an
    /// event directly keeps the id sequence (and so every later id)
    /// exactly as a push and pop would have left it.
    pub fn draw_id(&mut self) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Removes and returns the earliest event — smallest `(at, id)` key.
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.slots.is_empty() {
            return None;
        }
        let last = self.slots.len() - 1;
        self.slots.swap(0, last);
        let e = self.slots.pop().expect("nonempty checked above");
        if !self.slots.is_empty() {
            self.sift_down(0);
        }
        Some(Scheduled {
            at: e.at,
            id: e.id,
            payload: e.payload,
        })
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Discards every scheduled event. The id sequence is *not* reset:
    /// ids stay unique over the heap's whole lifetime.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Total events ever pushed (the next id to be handed out).
    pub fn pushed(&self) -> u64 {
        self.next_id
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i].key() >= self.slots[parent].key() {
                break;
            }
            self.slots.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.slots.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < n && self.slots[l].key() < self.slots[smallest].key() {
                smallest = l;
            }
            if r < n && self.slots[r].key() < self.slots[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.slots.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;
    use crate::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(Ns(50), 'c');
        h.push(Ns(10), 'a');
        h.push(Ns(99), 'd');
        h.push(Ns(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| h.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut h = EventHeap::new();
        for i in 0..32u32 {
            h.push(Ns(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|s| s.payload)).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn ids_are_unique_and_monotone_across_interleaved_pops() {
        let mut h = EventHeap::new();
        let a = h.push(Ns(5), ());
        h.pop();
        let b = h.push(Ns(1), ());
        let c = h.push(Ns(1), ());
        assert!(a < b && b < c, "ids keep growing after pops");
        assert_eq!(h.pushed(), 3);
    }

    #[test]
    fn draw_id_advances_the_sequence_like_a_push_and_pop() {
        let mut drawn = EventHeap::new();
        let mut pushed = EventHeap::new();
        assert_eq!(drawn.draw_id(), pushed.push(Ns(0), ()));
        pushed.pop();
        assert!(drawn.is_empty(), "drawing schedules nothing");
        assert_eq!(drawn.push(Ns(0), ()), pushed.push(Ns(0), ()));
        assert_eq!(drawn.pushed(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_id_sequence() {
        let mut h = EventHeap::new();
        h.push(Ns(1), ());
        h.push(Ns(2), ());
        h.clear();
        assert!(h.is_empty());
        let next = h.push(Ns(0), ());
        assert_eq!(next, EventId(2), "ids never restart");
    }

    /// The ISSUE-6 heap property: under seeded random push/pop
    /// interleavings, pops come out in nondecreasing `(time, id)` order
    /// — time never decreases, and within one timestamp the insertion
    /// order (FIFO) is preserved. A sorted reference model checks that
    /// no event is lost or invented.
    #[test]
    fn property_random_interleavings_pop_sorted_and_fifo() {
        Checker::new("event_heap_order")
            .cases(128)
            .run(|rng: &mut Rng| {
                let mut heap = EventHeap::new();
                let mut reference: Vec<(Ns, u64)> = Vec::new(); // (at, id), kept unsorted
                let mut popped: Vec<(Ns, EventId)> = Vec::new();
                // The simulator contract: nothing is ever scheduled earlier
                // than the instant the loop is currently processing (the
                // clock is monotone), so pushes draw `at >= now`.
                let mut now = Ns::ZERO;
                let ops = rng.range(1, 200);
                for _ in 0..ops {
                    if rng.chance(0.6) || heap.is_empty() {
                        // Small offset domain forces plenty of ties.
                        let at = now + Ns(rng.below(4));
                        let id = heap.push(at, ());
                        reference.push((at, id.0));
                    } else {
                        let s = heap.pop().expect("nonempty branch");
                        now = s.at;
                        popped.push((s.at, s.id));
                    }
                }
                while let Some(s) = heap.pop() {
                    popped.push((s.at, s.id));
                }
                // Everything pushed comes back out, exactly once, in global
                // (at, id) order — nondecreasing time, FIFO within a time.
                reference.sort_unstable();
                let got: Vec<(Ns, u64)> = popped.iter().map(|&(at, id)| (at, id.0)).collect();
                assert_eq!(
                    got, reference,
                    "pop order must be the sorted (at, id) sequence"
                );
                for w in popped.windows(2) {
                    assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
                    if w[0].0 == w[1].0 {
                        assert!(w[0].1 < w[1].1, "FIFO broken at equal timestamps: {w:?}");
                    }
                }
            });
    }
}
