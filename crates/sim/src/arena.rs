//! A generational slab arena: O(1) handle-indexed storage for hot paths.
//!
//! The paper's cached fbuf path does constant, tiny work per operation
//! (§3.2.2), so the engine's own bookkeeping must too. Hash maps put a
//! SipHash computation and probe sequence on every buffer deref;
//! free-list slab recycling alone would let a stale handle silently alias
//! whatever value reuses its slot. The [`Arena`] here gives both
//! properties at once: a handle is a slot index packed with a
//! *generation*, lookups are one bounds-checked array index plus a
//! generation compare, and removing a value bumps the slot's generation
//! so every outstanding handle to it dies — a stale handle resolves to
//! `None`, never to the slot's next tenant.
//!
//! Handles are bare `u64`s (low 32 bits slot index, high 32 bits
//! generation) so id newtypes like `FbufId(u64)` can carry them without
//! layout changes. Slot 0's first tenant gets handle 0, matching the
//! sequential ids the arena replaces.
//!
//! # Examples
//!
//! ```
//! use fbuf_sim::Arena;
//!
//! let mut arena: Arena<&str> = Arena::new();
//! let a = arena.insert("alpha");
//! assert_eq!(arena.get(a), Some(&"alpha"));
//! assert_eq!(arena.remove(a), Some("alpha"));
//! // The slot is recycled, but the retired handle can never see the
//! // new tenant:
//! let b = arena.insert("beta");
//! assert_eq!(arena.get(a), None);
//! assert_eq!(arena.get(b), Some(&"beta"));
//! assert_ne!(a, b);
//! ```

/// Packs a slot index and generation into one handle word.
fn pack(index: u32, generation: u32) -> u64 {
    ((generation as u64) << 32) | index as u64
}

/// The slot index a handle occupies, independent of generation.
///
/// Callers that keep *parallel* dense arrays alongside an arena (hot/cold
/// field splits) index them with this. The result is only meaningful for a
/// handle that is currently live in the owning arena — validate with
/// [`Arena::get`]/[`Arena::contains`] first; a stale handle maps to the
/// slot's current tenant's lane entry.
pub fn slot_of(handle: u64) -> usize {
    index_of(handle) as usize
}

/// The slot index of a handle.
fn index_of(handle: u64) -> u32 {
    handle as u32
}

/// The generation of a handle.
fn generation_of(handle: u64) -> u32 {
    (handle >> 32) as u32
}

#[derive(Debug, Clone)]
struct Slot<T> {
    /// Incremented every time a tenant is evicted; a handle is live only
    /// while its generation matches.
    generation: u32,
    value: Option<T>,
}

/// A generational slab arena. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Arena<T> {
        Arena { slots: Vec::with_capacity(cap), free: Vec::new(), live: 0 }
    }

    /// Stores `value`, returning its handle. Reuses the most recently
    /// freed slot if any (LIFO, keeping the hot end of the slab warm),
    /// otherwise appends a new slot at generation 0.
    pub fn insert(&mut self, value: T) -> u64 {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free list holds only empty slots");
            slot.value = Some(value);
            return pack(index, slot.generation);
        }
        let index = u32::try_from(self.slots.len()).expect("arena slot count fits u32");
        self.slots.push(Slot { generation: 0, value: Some(value) });
        pack(index, 0)
    }

    /// The value behind `handle`, or `None` if it was removed (or the
    /// handle was never issued by this arena).
    pub fn get(&self, handle: u64) -> Option<&T> {
        let slot = self.slots.get(index_of(handle) as usize)?;
        if slot.generation != generation_of(handle) {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the value behind `handle`.
    pub fn get_mut(&mut self, handle: u64) -> Option<&mut T> {
        let slot = self.slots.get_mut(index_of(handle) as usize)?;
        if slot.generation != generation_of(handle) {
            return None;
        }
        slot.value.as_mut()
    }

    /// True if `handle` currently resolves to a value.
    pub fn contains(&self, handle: u64) -> bool {
        self.get(handle).is_some()
    }

    /// Removes and returns the value behind `handle`, bumping the slot's
    /// generation so the handle (and any copy of it) goes stale. `None`
    /// if the handle is already stale.
    pub fn remove(&mut self, handle: u64) -> Option<T> {
        let index = index_of(handle);
        let slot = self.slots.get_mut(index as usize)?;
        if slot.generation != generation_of(handle) || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        // Generation wraparound after 2^32 evictions of one slot would
        // resurrect the oldest dead handles; wrapping keeps the arena
        // total (a stuck slot would leak instead), and no workload here
        // approaches that count.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        value
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates live `(handle, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value.as_ref().map(|v| (pack(i as u32, slot.generation), v))
        })
    }

    /// Iterates live `(handle, &mut value)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, slot)| {
            let generation = slot.generation;
            slot.value.as_mut().map(move |v| (pack(i as u32, generation), v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert(10u64);
        let h2 = a.insert(20u64);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&10));
        assert_eq!(a.get(h2), Some(&20));
        *a.get_mut(h1).unwrap() = 11;
        assert_eq!(a.remove(h1), Some(11));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(h1), None);
        assert_eq!(a.remove(h1), None, "double remove is inert");
    }

    #[test]
    fn first_handle_is_zero_like_a_sequential_id() {
        let mut a = Arena::new();
        assert_eq!(a.insert("x"), 0);
        assert_eq!(a.insert("y"), 1);
    }

    #[test]
    fn recycled_slot_rejects_stale_handle() {
        let mut a = Arena::new();
        let stale = a.insert("old");
        a.remove(stale).unwrap();
        let fresh = a.insert("new");
        // Same slot, different generation.
        assert_eq!(stale as u32, fresh as u32);
        assert_ne!(stale, fresh);
        assert_eq!(a.get(stale), None);
        assert!(a.get_mut(stale).is_none());
        assert_eq!(a.remove(stale), None);
        assert_eq!(a.get(fresh), Some(&"new"));
    }

    #[test]
    fn foreign_handles_do_not_resolve() {
        let a: Arena<u8> = Arena::new();
        assert_eq!(a.get(0), None);
        assert_eq!(a.get(u64::MAX), None);
    }

    #[test]
    fn iter_visits_exactly_the_live_values() {
        let mut a = Arena::new();
        let h1 = a.insert(1);
        let h2 = a.insert(2);
        let h3 = a.insert(3);
        a.remove(h2).unwrap();
        let seen: Vec<(u64, i32)> = a.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(seen, vec![(h1, 1), (h3, 3)]);
    }

    #[test]
    fn prop_retired_handles_never_resolve_and_len_tracks_model() {
        // The generation-safety property the fbuf/vm id tables rely on:
        // across arbitrary insert/remove interleavings, every retired
        // handle stays dead forever (even after its slot is recycled many
        // times) and `len()` matches a naive model.
        Checker::new("arena_generation_safety").cases(128).run(|rng| {
            let mut arena: Arena<u64> = Arena::new();
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut retired: Vec<u64> = Vec::new();
            let mut next_value = 0u64;
            for _ in 0..rng.range(10, 200) {
                if live.is_empty() || rng.below(100) < 60 {
                    let value = next_value;
                    next_value += 1;
                    let handle = arena.insert(value);
                    assert!(
                        !live.iter().any(|&(h, _)| h == handle),
                        "handle reuse while live"
                    );
                    assert!(!retired.contains(&handle), "retired handle re-issued");
                    live.push((handle, value));
                } else {
                    let pick = rng.below(live.len() as u64) as usize;
                    let (handle, value) = live.swap_remove(pick);
                    assert_eq!(arena.remove(handle), Some(value));
                    retired.push(handle);
                }
                assert_eq!(arena.len(), live.len(), "live count matches model");
                for &(handle, value) in &live {
                    assert_eq!(arena.get(handle), Some(&value));
                }
                for &handle in &retired {
                    assert_eq!(arena.get(handle), None, "retired handle must stay dead");
                }
            }
        });
    }
}
