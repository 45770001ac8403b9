//! Hermetic single-producer/single-consumer ring channels with burst
//! publication.
//!
//! The sharded engine (one complete machine per OS thread, see
//! `fbuf::shard`) moves payloads and deallocation notices between shards
//! over fixed-capacity rings. Nothing in the workspace may pull an
//! external crate, so this is the classic Lamport SPSC queue on bare
//! `std::sync::atomic`: the producer owns `tail`, the consumer owns
//! `head`, both indices grow monotonically, and a slot is `index %
//! capacity`. No locks, no spurious wakeups, no allocation after
//! construction.
//!
//! Two refinements over the textbook queue, both aimed at the per-unit
//! overhead a cross-shard transfer pays (DESIGN.md §14):
//!
//! 1. **Cached index mirrors.** Each endpoint keeps a private copy of
//!    its *own* index (exact — it is the only writer) and a *cached*
//!    copy of the peer's index (possibly stale — refreshed only when
//!    the ring looks full/empty). In the common case a push or pop
//!    touches no shared cache line at all: the peer's atomic is loaded
//!    only when the stale view cannot prove there is room (or data).
//!    Staleness is always conservative — a stale `head` under-reports
//!    free slots and a stale `tail` under-reports queued items — so the
//!    mirrors can cause a spurious refresh, never a lost element or an
//!    overwrite.
//! 2. **Burst operations.** [`Producer::push_n`]/[`Producer::extend`]
//!    write a whole burst of slots and publish them with a *single*
//!    release store of `tail`; [`Consumer::drain_into`]/
//!    [`Consumer::pop_n`] consume a whole burst under a *single* acquire
//!    load of `tail` and retire it with one release store of `head`.
//!    An N-element burst costs the same synchronization as one element.
//!
//! # The `len` ordering contract
//!
//! Both endpoints report occupancy as `tail - head` with the *same*
//! acquisition rule: **own index from the private mirror (a plain,
//! always-exact field), peer index with one `Acquire` load.** Earlier
//! revisions were asymmetric (the producer loaded `tail` `Relaxed`
//! while the consumer loaded the same word `Acquire`), which was
//! harmless only by accident of each side owning one word; the mirrors
//! make the intended contract structural. See the loom-style argument
//! on [`Producer::len`].
//!
//! # Examples
//!
//! ```
//! let (mut tx, mut rx) = fbuf_sim::spsc::ring::<u64>(2);
//! tx.push(1).unwrap();
//! tx.push(2).unwrap();
//! assert_eq!(tx.push(3), Err(3), "ring is full");
//! assert_eq!(rx.pop(), Some(1));
//! assert_eq!(rx.pop(), Some(2));
//! assert_eq!(rx.pop(), None);
//! ```
//!
//! Bursts publish atomically with respect to the consumer's view —
//! partial bursts are never observable:
//!
//! ```
//! let (mut tx, mut rx) = fbuf_sim::spsc::ring::<u32>(8);
//! let mut burst = vec![1, 2, 3, 4];
//! assert_eq!(tx.extend(&mut burst), 4, "all four fit");
//! assert!(burst.is_empty(), "accepted elements are drained out");
//! let mut out = Vec::new();
//! assert_eq!(rx.drain_into(&mut out, usize::MAX), 4);
//! assert_eq!(out, vec![1, 2, 3, 4]);
//! ```
//!
//! Endpoint misuse is a *compile* error, not a runtime race. A producer
//! cannot be cloned into a second sender:
//!
//! ```compile_fail
//! let (tx, _rx) = fbuf_sim::spsc::ring::<u64>(4);
//! let second_sender = tx.clone(); // no Clone: single-producer only
//! ```
//!
//! nor can a consumer:
//!
//! ```compile_fail
//! let (_tx, rx) = fbuf_sim::spsc::ring::<u64>(4);
//! let second_receiver = rx.clone(); // no Clone: single-consumer only
//! ```
//!
//! and moving an endpoint into a thread consumes it — the original
//! binding is gone:
//!
//! ```compile_fail
//! let (mut tx, _rx) = fbuf_sim::spsc::ring::<u64>(4);
//! std::thread::spawn(move || {
//!     let mut tx = tx;
//!     let _ = tx.push(1);
//! });
//! tx.push(2); // use after move
//! ```

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: AtomicUsize,
}

// The ring is shared by exactly one producer and one consumer thread;
// each mutates disjoint slots (guarded by the head/tail handoff), so the
// usual `T: Send` bound is all that cross-thread transfer requires.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Exclusive access at drop: plain loads are fine. The atomics —
        // not the endpoint mirrors — are the source of truth here:
        // every accepted element was published by a release store
        // before either endpoint could drop.
        let cap = self.buf.len();
        let mut i = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while i != tail {
            unsafe { (*self.buf[i % cap].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// The sending endpoint of a [`ring`]. Move it to the producer thread.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Private mirror of `Ring::tail`. The producer is the only writer
    /// of `tail`, so this is always exact — reading it costs nothing
    /// and touches no shared cache line.
    tail: usize,
    /// Cached view of the consumer's `head`; may lag (never lead).
    /// Refreshed with one `Acquire` load only when the stale view says
    /// the ring is full.
    head_cache: usize,
}

/// The receiving endpoint of a [`ring`]. Move it to the consumer thread.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Private mirror of `Ring::head`: exact, consumer-owned.
    head: usize,
    /// Cached view of the producer's `tail`; may lag (never lead).
    /// Refreshed with one `Acquire` load only when the stale view says
    /// the ring is empty.
    tail_cache: usize,
}

/// Creates a bounded SPSC channel holding at most `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "a zero-capacity ring can never transfer");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            ring: ring.clone(),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            ring,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Free slots provable from the cached head; refreshes the cache
    /// (one `Acquire` load) only when that view cannot prove `want`
    /// slots — so a scalar push in the common case, and a burst that
    /// fits the stale view, touch no shared cache line at all.
    #[inline]
    fn free_slots(&mut self, want: usize) -> usize {
        let cap = self.ring.buf.len();
        let mut free = cap - self.tail.wrapping_sub(self.head_cache);
        if free < want {
            self.head_cache = self.ring.head.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.head_cache);
        }
        free
    }

    /// Enqueues `v`, or returns it if the ring is full.
    #[inline]
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.free_slots(1) == 0 {
            return Err(v);
        }
        let ring = &*self.ring;
        unsafe { (*ring.buf[self.tail % ring.buf.len()].get()).write(v) };
        self.tail = self.tail.wrapping_add(1);
        ring.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Writes as many elements from the front of `src` as fit and
    /// publishes them with a **single** release store — the consumer
    /// sees either none or all of the accepted burst, never a prefix
    /// mid-publication. Accepted elements are removed from `src`
    /// (front-first, preserving FIFO order); refused ones stay.
    /// Returns how many were accepted.
    pub fn push_n(&mut self, src: &mut VecDeque<T>) -> usize {
        let n = self.free_slots(src.len()).min(src.len());
        if n == 0 {
            return 0;
        }
        let ring = &*self.ring;
        let cap = ring.buf.len();
        for v in src.drain(..n) {
            unsafe { (*ring.buf[self.tail % cap].get()).write(v) };
            self.tail = self.tail.wrapping_add(1);
        }
        ring.tail.store(self.tail, Ordering::Release);
        n
    }

    /// [`push_n`](Producer::push_n) over a `Vec`: drains accepted
    /// elements from the front of `src` (FIFO), publishes the whole
    /// burst with one release store, returns the count accepted.
    pub fn extend(&mut self, src: &mut Vec<T>) -> usize {
        let n = self.free_slots(src.len()).min(src.len());
        if n == 0 {
            return 0;
        }
        let ring = &*self.ring;
        let cap = ring.buf.len();
        for v in src.drain(..n) {
            unsafe { (*ring.buf[self.tail % cap].get()).write(v) };
            self.tail = self.tail.wrapping_add(1);
        }
        ring.tail.store(self.tail, Ordering::Release);
        n
    }

    /// Items currently queued (may be stale the instant it returns).
    ///
    /// Ordering contract (both endpoints follow it — see the module
    /// docs): occupancy is `tail - head`, taking the **own index from
    /// the private mirror** and the **peer index with one `Acquire`
    /// load**. Loom-style argument: the mirror is exact because this
    /// endpoint is the sole writer of its word, so no ordering can make
    /// it stale. The peer's word needs `Acquire` so that the slot
    /// writes/reads it covers happen-before anything this thread does
    /// with the answer (pairing with the peer's `Release` publication);
    /// a `Relaxed` load could report a count whose slot effects are not
    /// yet visible here. The result is monotonically conservative:
    /// `len()` can under-report (peer progress not yet observed) but
    /// never over-report queued items from the consumer's side or free
    /// slots from the producer's side.
    pub fn len(&self) -> usize {
        self.tail
            .wrapping_sub(self.ring.head.load(Ordering::Acquire))
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.buf.len()
    }

    /// Free slots visible to this producer right now (refreshing the
    /// cached peer index) — the next burst of at most this size will be
    /// accepted in full.
    pub fn spare(&mut self) -> usize {
        self.free_slots(self.ring.buf.len())
    }

    /// True once the consumer endpoint has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) < 2
    }
}

impl<T> Consumer<T> {
    /// Queued items provable from the cached tail; refreshes the cache
    /// (one `Acquire` load) only when that view cannot prove `want`
    /// items — a scalar pop with data already proven, or a burst that
    /// the stale view covers, touches no shared cache line at all.
    #[inline]
    fn queued(&mut self, want: usize) -> usize {
        let mut n = self.tail_cache.wrapping_sub(self.head);
        if n < want {
            self.tail_cache = self.ring.tail.load(Ordering::Acquire);
            n = self.tail_cache.wrapping_sub(self.head);
        }
        n
    }

    /// Dequeues the oldest item, or `None` when the ring is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.queued(1) == 0 {
            return None;
        }
        let ring = &*self.ring;
        let v = unsafe { (*ring.buf[self.head % ring.buf.len()].get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        ring.head.store(self.head, Ordering::Release);
        Some(v)
    }

    /// Consumes up to `max` queued items under a **single** acquire
    /// load, appends them to `out` in FIFO order, and retires the whole
    /// burst with one release store of `head`. Returns how many were
    /// drained. An N-element drain costs the same synchronization as a
    /// single [`pop`](Consumer::pop).
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.queued(max).min(max);
        if n == 0 {
            return 0;
        }
        let ring = &*self.ring;
        let cap = ring.buf.len();
        out.reserve(n);
        for _ in 0..n {
            out.push(unsafe { (*ring.buf[self.head % cap].get()).assume_init_read() });
            self.head = self.head.wrapping_add(1);
        }
        ring.head.store(self.head, Ordering::Release);
        n
    }

    /// [`drain_into`](Consumer::drain_into) into a fresh `Vec`.
    pub fn pop_n(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_into(&mut out, max);
        out
    }

    /// Items currently queued (may be stale the instant it returns).
    /// Same ordering contract as [`Producer::len`]: own index (`head`)
    /// from the exact private mirror, peer index (`tail`) with one
    /// `Acquire` load pairing with the producer's release publication.
    pub fn len(&self) -> usize {
        self.ring
            .tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.buf.len()
    }

    /// True once the producer endpoint has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) < 2
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = ring::<u64>(3);
        for i in 0..1000u64 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut tx, mut rx) = ring::<u8>(2);
        assert_eq!((tx.len(), rx.len()), (0, 0));
        tx.push(1).unwrap();
        assert_eq!((tx.len(), rx.len()), (1, 1));
        tx.push(2).unwrap();
        assert_eq!(tx.len(), 2);
        rx.pop();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn len_contract_is_symmetric_across_endpoints() {
        // The documented contract: own index from the exact mirror,
        // peer index with one Acquire load. Quiescent, both endpoints
        // must agree exactly at every occupancy — including full and
        // empty, the two states where a stale own-index would lie.
        let (mut tx, mut rx) = ring::<u32>(3);
        for fill in 0..=3u32 {
            for drain in 0..=fill {
                while tx.len() < fill as usize {
                    tx.push(0).unwrap();
                }
                for _ in 0..drain {
                    rx.pop().unwrap();
                }
                assert_eq!(tx.len(), rx.len(), "fill {fill} drain {drain}");
                assert_eq!(tx.is_empty(), rx.is_empty());
                while rx.pop().is_some() {}
            }
        }
        // And across a real thread boundary: every count the consumer
        // side observes via Acquire must be backed by readable slots
        // (the release publication ordered the slot writes before it).
        let (mut tx, mut rx) = ring::<u64>(8);
        let t = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut seen = 0u64;
        while seen < 10_000 {
            let visible = rx.len();
            for _ in 0..visible {
                let v = rx.pop().expect("len() counted an unreadable slot");
                assert_eq!(v, seen);
                seen += 1;
            }
            if visible == 0 {
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn burst_push_and_drain_round_trip() {
        let (mut tx, mut rx) = ring::<u32>(4);
        let mut src: VecDeque<u32> = (0..6).collect();
        assert_eq!(tx.push_n(&mut src), 4, "burst truncated at capacity");
        assert_eq!(src, VecDeque::from(vec![4, 5]), "refused elements stay");
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 3), 3, "partial drain honors max");
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(tx.push_n(&mut src), 2, "freed slots accept the rest");
        assert!(src.is_empty());
        assert_eq!(rx.pop_n(usize::MAX), vec![3, 4, 5]);
        assert!(rx.is_empty());
    }

    #[test]
    fn extend_drains_accepted_prefix_from_a_vec() {
        let (mut tx, mut rx) = ring::<u8>(2);
        let mut src = vec![1, 2, 3];
        assert_eq!(tx.extend(&mut src), 2);
        assert_eq!(src, vec![3]);
        assert_eq!(tx.extend(&mut src), 0, "full ring accepts nothing");
        assert_eq!(src, vec![3]);
        assert_eq!(rx.pop_n(2), vec![1, 2]);
        assert_eq!(tx.extend(&mut src), 1);
        assert!(src.is_empty());
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn empty_burst_ops_are_inert() {
        let (mut tx, mut rx) = ring::<u64>(2);
        let mut none: VecDeque<u64> = VecDeque::new();
        assert_eq!(tx.push_n(&mut none), 0);
        assert_eq!(tx.extend(&mut Vec::new()), 0);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, usize::MAX), 0);
        assert_eq!(rx.drain_into(&mut out, 0), 0, "max 0 drains nothing");
        assert!(out.is_empty());
    }

    #[test]
    fn disconnect_is_visible_from_both_ends() {
        let (tx, rx) = ring::<u8>(1);
        assert!(!tx.is_disconnected());
        drop(rx);
        assert!(tx.is_disconnected());
        let (tx2, rx2) = ring::<u8>(1);
        drop(tx2);
        assert!(rx2.is_disconnected());
    }

    #[test]
    fn queued_items_drop_with_the_ring() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, rx) = ring::<Counted>(4);
        tx.push(Counted).unwrap();
        tx.push(Counted).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cross_thread_transfer_preserves_every_item() {
        let (mut tx, mut rx) = ring::<u64>(8);
        const N: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    // yield, not spin: on a single-core host the consumer
                    // cannot progress until this thread is descheduled.
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "items arrive in order, exactly once");
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn cross_thread_bursts_preserve_every_item() {
        let (mut tx, mut rx) = ring::<u64>(8);
        const N: u64 = 20_000;
        let producer = std::thread::spawn(move || {
            let mut src: VecDeque<u64> = (0..N).collect();
            while !src.is_empty() {
                if tx.push_n(&mut src) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut got: Vec<u64> = Vec::with_capacity(N as usize);
        while (got.len() as u64) < N {
            if rx.drain_into(&mut got, usize::MAX) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
        assert!(
            got.iter().copied().eq(0..N),
            "bursts arrive in order, exactly once"
        );
    }

    #[test]
    fn heap_payloads_cross_intact() {
        let (mut tx, mut rx) = ring::<Vec<u8>>(2);
        tx.push(vec![7u8; 4096]).unwrap();
        let got = rx.pop().unwrap();
        assert_eq!(got.len(), 4096);
        assert!(got.iter().all(|&b| b == 7));
    }
}
