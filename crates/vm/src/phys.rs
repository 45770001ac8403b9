//! Simulated physical memory: reference-counted frames with real contents.

use crate::types::{Fault, VmResult};
use fbuf_sim::{Clock, CostCategory, CostModel, Stats};

/// A physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// One physical frame: page-sized byte storage plus a mapping reference
/// count (a frame shared read-only among several domains — the fbuf case —
/// is freed only when the last mapping goes away).
#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    refs: u32,
}

/// Freed frame storage kept for reuse, at most this many pages per
/// memory. A bounded pool covers the working set of a steady send or
/// receive without holding on to a burst's worth of pages.
pub const POOL_FRAMES: usize = 16;

/// The machine's physical memory.
///
/// Frames hold real bytes so that higher layers can verify end-to-end data
/// integrity through every mechanism. Allocation, freeing, zero-fill, and
/// copies charge the calibrated costs to the clock and counters their
/// caller (the machine) passes in.
///
/// The host storage of a freed frame goes to a pool of at most
/// [`POOL_FRAMES`] pages, and the next allocation takes it from there
/// instead of the heap. Reuse never shows: every allocation empties the
/// storage and builds the page afresh, writing each byte once: the
/// dirty marker, zeros for [`PhysMem::alloc_zeroed`], the source page
/// for [`PhysMem::fork`], or the received bytes and then zeros for
/// [`PhysMem::alloc_from`]. No byte of a frame's previous owner
/// survives.
///
/// The frame table grows as frames are first handed out, so a large
/// simulated memory costs the host only the frames a run touches. An
/// allocation takes the most recently freed frame, else the lowest id
/// never used: the order of a free stack that starts full, lowest id on
/// top.
#[derive(Debug)]
pub struct PhysMem {
    page_size: usize,
    /// The frames handed out so far, by id; `None` while free.
    frames: Vec<Option<Frame>>,
    /// Frames in the memory, used or not.
    capacity: usize,
    /// Freed frames, the most recent last.
    free: Vec<FrameId>,
    pool: Vec<Box<[u8]>>,
    costs: CostModel,
}

impl PhysMem {
    /// Creates a physical memory of `frames` frames of `page_size` bytes.
    pub fn new(frames: usize, page_size: usize, costs: CostModel) -> PhysMem {
        PhysMem {
            page_size,
            frames: Vec::new(),
            capacity: frames,
            free: Vec::new(),
            pool: Vec::with_capacity(POOL_FRAMES),
            costs,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len() + self.capacity - self.frames.len()
    }

    /// Allocates a frame with one reference. Contents are *not* cleared —
    /// call [`PhysMem::zero`] when security requires it (the paper counts
    /// page clearing as a separate, avoidable cost). The frame reads as
    /// the dirty marker `0xA5`, whether its storage is new or pooled.
    pub fn alloc(&mut self, clock: &mut Clock, stats: &mut Stats) -> VmResult<FrameId> {
        self.alloc_page(clock, stats, 0xA5, |_, _| {})
    }

    /// Allocates a frame with one reference and clears it, filling the
    /// page once. `charge` decides whether the clear is billed: when set
    /// it charges the 57 µs page clear and counts it, exactly as
    /// [`PhysMem::alloc`] followed by [`PhysMem::zero`] would; when not,
    /// the caller models clearing time itself and the frame is still
    /// functionally cleared.
    pub fn alloc_zeroed(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        charge: bool,
    ) -> VmResult<FrameId> {
        let id = self.alloc_page(clock, stats, 0, |_, _| {})?;
        if charge {
            self.charge_zero(clock, stats);
        }
        Ok(id)
    }

    /// Allocates a frame with one reference whose page begins with the
    /// bytes `fill` appends to it (at most a page) and reads zero past
    /// them: a device receive, which writes the arriving bytes as the
    /// page is made. No clear is charged: the device wrote the page.
    /// `fill` runs only once the frame is taken, so a refused allocation
    /// consumes nothing.
    pub fn alloc_from(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> VmResult<FrameId> {
        self.alloc_page(clock, stats, 0, |_, page| fill(page))
    }

    /// Zero-fills a frame (charges the 57 µs page-clear cost).
    pub fn zero(&mut self, clock: &mut Clock, stats: &mut Stats, id: FrameId) {
        self.charge_zero(clock, stats);
        self.clear(id);
    }

    /// Zero-fills a frame without charging: for callers that model
    /// clearing time themselves.
    pub fn clear(&mut self, id: FrameId) {
        self.frame_mut(id).data.fill(0);
    }

    fn charge_zero(&self, clock: &mut Clock, stats: &mut Stats) {
        clock.charge(CostCategory::DataMove, self.costs.page_zero);
        stats.inc_pages_cleared();
    }

    /// The one page constructor: takes a free frame, charges the
    /// allocation, and builds its page in emptied storage (pooled when
    /// there is some, else new), so each byte is written once. `fill`
    /// appends the page's leading bytes, reading the memory if it needs
    /// to, and `pad` covers the rest of the page. The storage is emptied
    /// before `fill` runs, so no byte of a previous owner survives.
    fn alloc_page(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        pad: u8,
        fill: impl FnOnce(&PhysMem, &mut Vec<u8>),
    ) -> VmResult<FrameId> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if self.frames.len() < self.capacity => {
                self.frames.push(None);
                FrameId(self.frames.len() as u32 - 1)
            }
            None => return Err(Fault::OutOfMemory),
        };
        clock.charge(CostCategory::Alloc, self.costs.phys_alloc);
        stats.inc_frames_allocated();
        let mut page = match self.pool.pop() {
            Some(data) => {
                let mut page = data.into_vec();
                page.clear();
                page
            }
            None => Vec::with_capacity(self.page_size),
        };
        fill(self, &mut page);
        assert!(page.len() <= self.page_size, "a page fill overran its page");
        page.resize(self.page_size, pad);
        self.frames[id.0 as usize] = Some(Frame {
            data: page.into_boxed_slice(),
            refs: 1,
        });
        Ok(id)
    }

    /// Pages of freed storage currently pooled (at most [`POOL_FRAMES`]).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Adds a mapping reference to `id`.
    pub fn add_ref(&mut self, id: FrameId) {
        self.frame_mut(id).refs += 1;
    }

    /// Current reference count of `id`.
    pub fn refs(&self, id: FrameId) -> u32 {
        self.frame(id).refs
    }

    /// Drops one reference; frees the frame when the count reaches zero.
    /// Returns `true` if the frame was actually freed.
    pub fn drop_ref(&mut self, clock: &mut Clock, stats: &mut Stats, id: FrameId) -> bool {
        let slot = &mut self.frames[id.0 as usize];
        let frame = slot.as_mut().expect("drop_ref on free frame");
        assert!(frame.refs > 0, "reference count underflow");
        frame.refs -= 1;
        if frame.refs == 0 {
            let data = std::mem::take(&mut frame.data);
            *slot = None;
            if self.pool.len() < POOL_FRAMES {
                self.pool.push(data);
            }
            self.free.push(id);
            clock.charge(CostCategory::Alloc, self.costs.phys_free);
            stats.inc_frames_freed();
            true
        } else {
            false
        }
    }

    /// Copies the contents of `src` into a newly allocated frame (the COW
    /// fault resolution path), writing the new page once. Charges the
    /// page-copy cost.
    pub fn fork(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        src: FrameId,
    ) -> VmResult<FrameId> {
        let dst = self.alloc_page(clock, stats, 0xA5, |mem, page| {
            page.extend_from_slice(&mem.frame(src).data)
        })?;
        clock.charge(CostCategory::DataMove, self.costs.page_copy);
        stats.inc_pages_copied();
        Ok(dst)
    }

    /// Reads bytes from a frame. No cost is charged here; the access engine
    /// charges TLB/cache costs at the translation layer.
    pub fn read(&self, id: FrameId, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.frame(id).data[offset..offset + out.len()]);
    }

    /// The `len` bytes of a frame starting at `offset`, borrowed in
    /// place. No cost is charged (see [`PhysMem::read`]).
    pub fn slice(&self, id: FrameId, offset: usize, len: usize) -> &[u8] {
        &self.frame(id).data[offset..offset + len]
    }

    /// Writes bytes into a frame. No cost is charged here (see
    /// [`PhysMem::read`]).
    pub fn write(&mut self, id: FrameId, offset: usize, bytes: &[u8]) {
        self.frame_mut(id).data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    fn frame(&self, id: FrameId) -> &Frame {
        self.frames[id.0 as usize]
            .as_ref()
            .expect("access to free frame")
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut Frame {
        self.frames[id.0 as usize]
            .as_mut()
            .expect("access to free frame")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::Ns;

    /// A memory with the clock and counters its machine would own.
    struct Mem {
        phys: PhysMem,
        clock: Clock,
        stats: Stats,
    }

    fn mem_of(frames: usize) -> Mem {
        Mem {
            phys: PhysMem::new(frames, 4096, CostModel::decstation_5000_200()),
            clock: Clock::new(),
            stats: Stats::new(),
        }
    }

    fn mem() -> Mem {
        mem_of(8)
    }

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = mem();
        assert_eq!(m.phys.free_frames(), 8);
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        assert_eq!(m.phys.free_frames(), 7);
        assert_eq!(m.phys.refs(f), 1);
        assert!(m.phys.drop_ref(&mut m.clock, &mut m.stats, f));
        assert_eq!(m.phys.free_frames(), 8);
    }

    #[test]
    fn frames_come_lowest_id_first_and_freed_ones_most_recent_first() {
        let mut m = mem();
        let alloc = |m: &mut Mem| m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        let ids: Vec<FrameId> = (0..3).map(|_| alloc(&mut m)).collect();
        assert_eq!(ids, [FrameId(0), FrameId(1), FrameId(2)]);
        m.phys.drop_ref(&mut m.clock, &mut m.stats, ids[1]);
        m.phys.drop_ref(&mut m.clock, &mut m.stats, ids[0]);
        assert_eq!(m.phys.free_frames(), 7);
        let again: Vec<FrameId> = (0..3).map(|_| alloc(&mut m)).collect();
        assert_eq!(again, [FrameId(0), FrameId(1), FrameId(3)]);
        assert_eq!(m.phys.free_frames(), 4);
    }

    #[test]
    fn alloc_exhaustion_is_oom() {
        let mut m = mem();
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(m.phys.alloc(&mut m.clock, &mut m.stats).unwrap());
        }
        assert_eq!(
            m.phys.alloc(&mut m.clock, &mut m.stats),
            Err(Fault::OutOfMemory)
        );
        m.phys
            .drop_ref(&mut m.clock, &mut m.stats, held.pop().unwrap());
        assert!(m.phys.alloc(&mut m.clock, &mut m.stats).is_ok());
    }

    #[test]
    fn fresh_frames_are_dirty_until_zeroed() {
        // The allocator deliberately hands out dirty frames so tests can
        // catch a mechanism that skips a required clear.
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        let mut b = [0u8; 4];
        m.phys.read(f, 0, &mut b);
        assert_eq!(b, [0xA5; 4]);
        m.phys.zero(&mut m.clock, &mut m.stats, f);
        m.phys.read(f, 0, &mut b);
        assert_eq!(b, [0; 4]);
    }

    #[test]
    fn recycled_storage_reads_dirty_or_zero_never_the_old_bytes() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        m.phys.write(f, 0, &[0x3C; 4096]);
        m.phys.drop_ref(&mut m.clock, &mut m.stats, f);
        assert_eq!(m.phys.pooled(), 1);
        let g = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        assert_eq!(m.phys.pooled(), 0, "the allocation reused pooled storage");
        let mut page = vec![0u8; 4096];
        m.phys.read(g, 0, &mut page);
        assert!(
            page.iter().all(|&b| b == 0xA5),
            "a recycled alloc reads dirty"
        );
        m.phys.write(g, 0, &[0x3C; 4096]);
        m.phys.drop_ref(&mut m.clock, &mut m.stats, g);
        let h = m
            .phys
            .alloc_zeroed(&mut m.clock, &mut m.stats, false)
            .unwrap();
        m.phys.read(h, 0, &mut page);
        assert!(
            page.iter().all(|&b| b == 0),
            "a recycled zeroed alloc reads zero"
        );
    }

    #[test]
    fn a_page_built_from_a_fill_reads_its_bytes_then_zeros() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        m.phys.write(f, 0, &[0x3C; 4096]);
        m.phys.drop_ref(&mut m.clock, &mut m.stats, f);
        let before = m.clock.now();
        let g = m
            .phys
            .alloc_from(&mut m.clock, &mut m.stats, |page| {
                page.extend_from_slice(b"abc")
            })
            .unwrap();
        assert_eq!(m.phys.pooled(), 0, "the allocation reused pooled storage");
        let page = m.phys.slice(g, 0, 4096);
        assert_eq!(&page[..3], b"abc");
        assert!(page[3..].iter().all(|&b| b == 0), "the rest reads zero");
        assert_eq!(
            m.clock.now() - before,
            Ns(500),
            "only the allocation is billed"
        );
        assert_eq!(m.stats.pages_cleared(), 0);
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn a_fill_past_the_page_panics() {
        let mut m = mem();
        let _ = m.phys.alloc_from(&mut m.clock, &mut m.stats, |page| {
            page.extend_from_slice(&[1; 4097])
        });
    }

    #[test]
    fn zeroed_alloc_charges_like_alloc_then_zero() {
        let mut split = mem();
        let f = split
            .phys
            .alloc(&mut split.clock, &mut split.stats)
            .unwrap();
        split.phys.zero(&mut split.clock, &mut split.stats, f);
        let mut fused = mem();
        fused
            .phys
            .alloc_zeroed(&mut fused.clock, &mut fused.stats, true)
            .unwrap();
        assert_eq!(fused.clock.breakdown(), split.clock.breakdown());
        assert_eq!(fused.stats.snapshot(), split.stats.snapshot());
        let mut quiet = mem();
        quiet
            .phys
            .alloc_zeroed(&mut quiet.clock, &mut quiet.stats, false)
            .unwrap();
        assert_eq!(quiet.clock.now(), Ns(500), "only the allocation is billed");
        assert_eq!(quiet.stats.pages_cleared(), 0);
    }

    #[test]
    fn pool_never_exceeds_its_bound() {
        let mut m = mem_of(3 * POOL_FRAMES);
        let held: Vec<FrameId> = (0..3 * POOL_FRAMES)
            .map(|_| m.phys.alloc(&mut m.clock, &mut m.stats).unwrap())
            .collect();
        for (i, f) in held.into_iter().enumerate() {
            m.phys.drop_ref(&mut m.clock, &mut m.stats, f);
            assert_eq!(m.phys.pooled(), (i + 1).min(POOL_FRAMES));
        }
        assert_eq!(m.phys.free_frames(), 3 * POOL_FRAMES);
    }

    #[test]
    fn zero_charges_57us_and_counts() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        let before = m.clock.now();
        m.phys.zero(&mut m.clock, &mut m.stats, f);
        assert_eq!(m.clock.now() - before, Ns::from_us(57));
        assert_eq!(m.stats.pages_cleared(), 1);
    }

    #[test]
    fn shared_frame_survives_until_last_ref() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        m.phys.write(f, 0, b"abc");
        m.phys.add_ref(f);
        assert!(!m.phys.drop_ref(&mut m.clock, &mut m.stats, f));
        let mut b = [0u8; 3];
        m.phys.read(f, 0, &mut b);
        assert_eq!(&b, b"abc");
        assert!(m.phys.drop_ref(&mut m.clock, &mut m.stats, f));
    }

    #[test]
    fn fork_copies_contents_and_charges() {
        let mut m = mem();
        let a = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        m.phys.write(a, 100, b"hello");
        let copies_before = m.stats.pages_copied();
        let b = m.phys.fork(&mut m.clock, &mut m.stats, a).unwrap();
        assert_eq!(m.stats.pages_copied(), copies_before + 1);
        let mut buf = [0u8; 5];
        m.phys.read(b, 100, &mut buf);
        assert_eq!(&buf, b"hello");
        // The copy is by value: mutating the original leaves the fork alone.
        m.phys.write(a, 100, b"world");
        m.phys.read(b, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    #[should_panic(expected = "drop_ref on free frame")]
    fn double_free_panics() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        let copy = f;
        m.phys.drop_ref(&mut m.clock, &mut m.stats, f);
        // Frame is free now; a second drop must be caught.
        m.phys.drop_ref(&mut m.clock, &mut m.stats, copy);
    }
}
