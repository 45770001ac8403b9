//! Fbuf-region chunk management (the two-level allocation scheme, §3.3).
//!
//! "A range of virtual addresses, the fbuf region, is reserved in each
//! protection domain, including the kernel. Upon request, the kernel hands
//! out ownership of fixed sized chunks of the fbuf region to user-level
//! protection domains. ... Fbuf allocation requests are fielded by fbuf
//! allocators locally in each domain. These allocators satisfy their space
//! needs by requesting chunks from the kernel as needed."

use crate::error::{FbufError, FbufResult};
use crate::path::PathId;

/// The kernel-side chunk dispenser for the global fbuf region.
#[derive(Debug)]
pub struct ChunkAllocator {
    base: u64,
    chunk_size: u64,
    total_chunks: u64,
    next: u64,
    recycled: Vec<u64>,
}

impl ChunkAllocator {
    /// Creates the dispenser over `[base, base + size)`.
    pub fn new(base: u64, size: u64, chunk_size: u64) -> ChunkAllocator {
        assert!(chunk_size > 0 && size.is_multiple_of(chunk_size));
        ChunkAllocator {
            base,
            chunk_size,
            total_chunks: size / chunk_size,
            next: 0,
            recycled: Vec::new(),
        }
    }

    /// Hands out one chunk; returns its base virtual address.
    pub fn grant(&mut self) -> FbufResult<u64> {
        if let Some(va) = self.recycled.pop() {
            return Ok(va);
        }
        if self.next == self.total_chunks {
            return Err(FbufError::RegionExhausted);
        }
        let va = self.base + self.next * self.chunk_size;
        self.next += 1;
        Ok(va)
    }

    /// Returns a chunk to the dispenser (allocator teardown).
    pub fn reclaim(&mut self, va: u64) {
        debug_assert_eq!((va - self.base) % self.chunk_size, 0);
        self.recycled.push(va);
    }

    /// Chunks still available.
    pub fn available(&self) -> u64 {
        self.total_chunks - self.next + self.recycled.len() as u64
    }
}

/// A per-domain, per-path (or default) local allocator carving fbufs out of
/// granted chunks.
///
/// Deallocated cached fbufs do not come back here (they park on the path's
/// free list, fully mapped); the local allocator only tracks raw virtual
/// space. Uncached fbufs *do* return their space for reuse.
#[derive(Debug)]
pub struct LocalAllocator {
    /// Which path this allocator serves (`None` = the default, uncached
    /// allocator).
    pub path: Option<PathId>,
    /// Granted chunk base addresses.
    chunks: Vec<u64>,
    /// Bump offset within the most recent chunk.
    bump: u64,
    chunk_size: u64,
    /// Free (va, pages) slots from released uncached fbufs.
    free_slots: Vec<(u64, u64)>,
}

impl LocalAllocator {
    /// Creates an empty allocator.
    pub fn new(path: Option<PathId>, chunk_size: u64) -> LocalAllocator {
        LocalAllocator {
            path,
            chunks: Vec::new(),
            bump: 0,
            chunk_size,
            free_slots: Vec::new(),
        }
    }

    /// Tries to carve `pages` pages of address space. On `Ok(None)` the
    /// caller must grant a chunk via [`LocalAllocator::add_chunk`] and
    /// retry; `Err` means the request can never succeed.
    pub fn carve(&mut self, pages: u64, page_size: u64) -> FbufResult<Option<u64>> {
        let bytes = pages * page_size;
        if bytes > self.chunk_size {
            return Err(FbufError::TooLarge {
                requested: bytes,
                max: self.chunk_size,
            });
        }
        // Exact-fit reuse of a released slot first.
        if let Some(i) = self.free_slots.iter().position(|&(_, p)| p == pages) {
            let (va, _) = self.free_slots.swap_remove(i);
            return Ok(Some(va));
        }
        if let Some(&chunk) = self.chunks.last() {
            if self.bump + bytes <= self.chunk_size {
                let va = chunk + self.bump;
                self.bump += bytes;
                return Ok(Some(va));
            }
        }
        Ok(None)
    }

    /// Accepts a freshly granted chunk. Admission is the caller's job:
    /// `FbufSystem::build` consults the active [`crate::QuotaPolicy`]
    /// before granting, and a dynamic policy may legitimately grow the
    /// allocator past the static quota.
    pub fn add_chunk(&mut self, va: u64) {
        self.chunks.push(va);
        self.bump = 0;
    }

    /// Returns address space of a released (uncached) fbuf for reuse.
    pub fn release(&mut self, va: u64, pages: u64) {
        self.free_slots.push((va, pages));
    }

    /// Chunks currently held.
    pub fn chunks_held(&self) -> usize {
        self.chunks.len()
    }

    /// All chunk base addresses (for teardown).
    pub fn take_chunks(&mut self) -> Vec<u64> {
        self.bump = 0;
        self.free_slots.clear();
        std::mem::take(&mut self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_grant_and_exhaustion() {
        let mut c = ChunkAllocator::new(0x4000_0000, 3 * 0x1_0000, 0x1_0000);
        assert_eq!(c.available(), 3);
        let a = c.grant().unwrap();
        let b = c.grant().unwrap();
        let d = c.grant().unwrap();
        assert_eq!(a, 0x4000_0000);
        assert_eq!(b, 0x4001_0000);
        assert_eq!(d, 0x4002_0000);
        assert_eq!(c.grant(), Err(FbufError::RegionExhausted));
        c.reclaim(b);
        assert_eq!(c.grant().unwrap(), b);
    }

    #[test]
    fn local_allocator_bump_and_refill() {
        let mut a = LocalAllocator::new(None, 4 * 4096);
        // No chunk yet.
        assert_eq!(a.carve(1, 4096).unwrap(), None);
        a.add_chunk(0x4000_0000);
        assert_eq!(a.carve(2, 4096).unwrap(), Some(0x4000_0000));
        assert_eq!(a.carve(2, 4096).unwrap(), Some(0x4000_2000));
        // Chunk full.
        assert_eq!(a.carve(1, 4096).unwrap(), None);
        a.add_chunk(0x4100_0000);
        assert_eq!(a.carve(1, 4096).unwrap(), Some(0x4100_0000));
    }

    #[test]
    fn local_allocator_reuses_released_slots() {
        let mut a = LocalAllocator::new(None, 16 * 4096);
        a.add_chunk(0x4000_0000);
        let va = a.carve(3, 4096).unwrap().unwrap();
        a.release(va, 3);
        // Exact-fit slot is reused before bumping.
        assert_eq!(a.carve(3, 4096).unwrap(), Some(va));
        // A different size does not match the free slot.
        a.release(va, 3);
        let other = a.carve(2, 4096).unwrap().unwrap();
        assert_ne!(other, va);
    }

    #[test]
    fn oversized_request_rejected() {
        let mut a = LocalAllocator::new(None, 4 * 4096);
        assert!(matches!(a.carve(5, 4096), Err(FbufError::TooLarge { .. })));
    }

    #[test]
    fn add_chunk_past_the_static_quota_is_advisory() {
        // Dynamic policies may admit growth past the static quota. The
        // allocator knows no quota (admission is `QuotaPolicy::admits`
        // in `FbufSystem::build`); it holds every chunk it is granted.
        let mut a = LocalAllocator::new(None, 4096);
        a.add_chunk(0x4000_0000);
        a.add_chunk(0x4000_1000);
        assert_eq!(a.chunks_held(), 2);
    }

    #[test]
    fn take_chunks_resets() {
        let mut a = LocalAllocator::new(Some(PathId(1)), 4 * 4096);
        a.add_chunk(0x4000_0000);
        a.carve(1, 4096).unwrap();
        let chunks = a.take_chunks();
        assert_eq!(chunks, vec![0x4000_0000]);
        assert_eq!(a.chunks_held(), 0);
        assert_eq!(a.carve(1, 4096).unwrap(), None);
    }
}
