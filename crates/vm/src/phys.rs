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
/// copies charge the calibrated costs.
///
/// The host storage of a freed frame goes to a pool of at most
/// [`POOL_FRAMES`] pages, and the next allocation takes it from there
/// instead of the heap. Reuse never shows: an allocation overwrites the
/// whole page with the dirty marker or, for [`PhysMem::alloc_zeroed`],
/// with zeros, so no byte of a frame's previous owner survives.
#[derive(Debug)]
pub struct PhysMem {
    page_size: usize,
    frames: Vec<Option<Frame>>,
    free: Vec<FrameId>,
    pool: Vec<Box<[u8]>>,
    clock: Clock,
    stats: Stats,
    costs: CostModel,
}

impl PhysMem {
    /// Creates a physical memory of `frames` frames of `page_size` bytes.
    pub fn new(
        frames: usize,
        page_size: usize,
        clock: Clock,
        stats: Stats,
        costs: CostModel,
    ) -> PhysMem {
        PhysMem {
            page_size,
            frames: (0..frames).map(|_| None).collect(),
            free: (0..frames as u32).rev().map(FrameId).collect(),
            pool: Vec::with_capacity(POOL_FRAMES),
            clock,
            stats,
            costs,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Total frames.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Allocates a frame with one reference. Contents are *not* cleared —
    /// call [`PhysMem::zero`] when security requires it (the paper counts
    /// page clearing as a separate, avoidable cost). The frame reads as
    /// the dirty marker `0xA5`, whether its storage is new or pooled.
    pub fn alloc(&mut self) -> VmResult<FrameId> {
        self.alloc_filled(0xA5)
    }

    /// Allocates a frame with one reference and clears it, filling the
    /// page once. `charge` decides whether the clear is billed: when set
    /// it charges the 57 µs page clear and counts it, exactly as
    /// [`PhysMem::alloc`] followed by [`PhysMem::zero`] would; when not,
    /// the caller models clearing time itself and the frame is still
    /// functionally cleared.
    pub fn alloc_zeroed(&mut self, charge: bool) -> VmResult<FrameId> {
        let id = self.alloc_filled(0)?;
        if charge {
            self.charge_zero();
        }
        Ok(id)
    }

    /// Zero-fills a frame (charges the 57 µs page-clear cost).
    pub fn zero(&mut self, id: FrameId) {
        self.charge_zero();
        self.frame_mut(id).data.fill(0);
    }

    fn charge_zero(&mut self) {
        self.clock
            .charge(CostCategory::DataMove, self.costs.page_zero);
        self.stats.inc_pages_cleared();
    }

    /// Takes a free frame, charges the allocation, and fills the whole
    /// page with `byte`, reusing pooled storage when there is some.
    fn alloc_filled(&mut self, byte: u8) -> VmResult<FrameId> {
        let id = self.free.pop().ok_or(Fault::OutOfMemory)?;
        self.clock
            .charge(CostCategory::Alloc, self.costs.phys_alloc);
        self.stats.inc_frames_allocated();
        let data = match self.pool.pop() {
            Some(mut data) => {
                data.fill(byte);
                data
            }
            None => vec![byte; self.page_size].into_boxed_slice(),
        };
        self.frames[id.0 as usize] = Some(Frame { data, refs: 1 });
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
    pub fn drop_ref(&mut self, id: FrameId) -> bool {
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
            self.clock.charge(CostCategory::Alloc, self.costs.phys_free);
            self.stats.inc_frames_freed();
            true
        } else {
            false
        }
    }

    /// Copies the contents of `src` into a newly allocated frame (the COW
    /// fault resolution path). Charges the page-copy cost.
    pub fn fork(&mut self, src: FrameId) -> VmResult<FrameId> {
        let dst = self.alloc()?;
        self.clock
            .charge(CostCategory::DataMove, self.costs.page_copy);
        self.stats.inc_pages_copied();
        self.copy_bytes(src, 0, dst, 0, self.page_size);
        Ok(dst)
    }

    /// Copies `len` bytes between frames (used by the bounded-copy transfer
    /// facility); charges proportionally to whole pages.
    pub fn copy_between(
        &mut self,
        src: FrameId,
        src_off: usize,
        dst: FrameId,
        dst_off: usize,
        len: usize,
    ) {
        assert!(src_off + len <= self.page_size && dst_off + len <= self.page_size);
        let cost_ns =
            (self.costs.page_copy.as_ns() as u128 * len as u128 / self.page_size as u128) as u64;
        self.clock
            .charge(CostCategory::DataMove, fbuf_sim::Ns(cost_ns));
        self.stats.inc_pages_copied();
        self.copy_bytes(src, src_off, dst, dst_off, len);
    }

    /// Copies `len` bytes frame to frame, with no staging buffer.
    fn copy_bytes(
        &mut self,
        src: FrameId,
        src_off: usize,
        dst: FrameId,
        dst_off: usize,
        len: usize,
    ) {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        if s == d {
            self.frame_mut(src)
                .data
                .copy_within(src_off..src_off + len, dst_off);
            return;
        }
        let [from, to] = self
            .frames
            .get_disjoint_mut([s, d])
            .expect("distinct frames in range");
        let (from, to) = (
            from.as_ref().expect("access to free frame"),
            to.as_mut().expect("access to free frame"),
        );
        to.data[dst_off..dst_off + len].copy_from_slice(&from.data[src_off..src_off + len]);
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

    /// Overwrites the whole frame with a repeated template (used by the
    /// null-read policy to stamp empty-leaf pages).
    pub fn fill_with_template(&mut self, id: FrameId, template: &[u8]) {
        let frame = self.frame_mut(id);
        if template.is_empty() {
            frame.data.fill(0);
            return;
        }
        for chunk in frame.data.chunks_mut(template.len()) {
            chunk.copy_from_slice(&template[..chunk.len()]);
        }
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

    fn mem() -> PhysMem {
        PhysMem::new(
            8,
            4096,
            Clock::new(),
            Stats::new(),
            CostModel::decstation_5000_200(),
        )
    }

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = mem();
        assert_eq!(m.free_frames(), 8);
        let f = m.alloc().unwrap();
        assert_eq!(m.free_frames(), 7);
        assert_eq!(m.refs(f), 1);
        assert!(m.drop_ref(f));
        assert_eq!(m.free_frames(), 8);
    }

    #[test]
    fn alloc_exhaustion_is_oom() {
        let mut m = mem();
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(m.alloc().unwrap());
        }
        assert_eq!(m.alloc(), Err(Fault::OutOfMemory));
        m.drop_ref(held.pop().unwrap());
        assert!(m.alloc().is_ok());
    }

    #[test]
    fn fresh_frames_are_dirty_until_zeroed() {
        // The allocator deliberately hands out dirty frames so tests can
        // catch a mechanism that skips a required clear.
        let mut m = mem();
        let f = m.alloc().unwrap();
        let mut b = [0u8; 4];
        m.read(f, 0, &mut b);
        assert_eq!(b, [0xA5; 4]);
        m.zero(f);
        m.read(f, 0, &mut b);
        assert_eq!(b, [0; 4]);
    }

    #[test]
    fn recycled_storage_reads_dirty_or_zero_never_the_old_bytes() {
        let mut m = mem();
        let f = m.alloc().unwrap();
        m.write(f, 0, &[0x3C; 4096]);
        m.drop_ref(f);
        assert_eq!(m.pooled(), 1);
        let g = m.alloc().unwrap();
        assert_eq!(m.pooled(), 0, "the allocation reused pooled storage");
        let mut page = vec![0u8; 4096];
        m.read(g, 0, &mut page);
        assert!(
            page.iter().all(|&b| b == 0xA5),
            "a recycled alloc reads dirty"
        );
        m.write(g, 0, &[0x3C; 4096]);
        m.drop_ref(g);
        let h = m.alloc_zeroed(false).unwrap();
        m.read(h, 0, &mut page);
        assert!(
            page.iter().all(|&b| b == 0),
            "a recycled zeroed alloc reads zero"
        );
    }

    #[test]
    fn zeroed_alloc_charges_like_alloc_then_zero() {
        let mut split = mem();
        let f = split.alloc().unwrap();
        split.zero(f);
        let mut fused = mem();
        fused.alloc_zeroed(true).unwrap();
        assert_eq!(fused.clock.breakdown(), split.clock.breakdown());
        assert_eq!(fused.stats.snapshot(), split.stats.snapshot());
        let mut quiet = mem();
        quiet.alloc_zeroed(false).unwrap();
        assert_eq!(quiet.clock.now(), Ns(500), "only the allocation is billed");
        assert_eq!(quiet.stats.pages_cleared(), 0);
    }

    #[test]
    fn pool_never_exceeds_its_bound() {
        let mut m = PhysMem::new(
            3 * POOL_FRAMES,
            4096,
            Clock::new(),
            Stats::new(),
            CostModel::decstation_5000_200(),
        );
        let held: Vec<FrameId> = (0..3 * POOL_FRAMES).map(|_| m.alloc().unwrap()).collect();
        for (i, f) in held.into_iter().enumerate() {
            m.drop_ref(f);
            assert_eq!(m.pooled(), (i + 1).min(POOL_FRAMES));
        }
        assert_eq!(m.free_frames(), 3 * POOL_FRAMES);
    }

    #[test]
    fn zero_charges_57us_and_counts() {
        let mut m = mem();
        let f = m.alloc().unwrap();
        let before = m.clock.now();
        m.zero(f);
        assert_eq!(m.clock.now() - before, Ns::from_us(57));
        assert_eq!(m.stats.pages_cleared(), 1);
    }

    #[test]
    fn shared_frame_survives_until_last_ref() {
        let mut m = mem();
        let f = m.alloc().unwrap();
        m.write(f, 0, b"abc");
        m.add_ref(f);
        assert!(!m.drop_ref(f));
        let mut b = [0u8; 3];
        m.read(f, 0, &mut b);
        assert_eq!(&b, b"abc");
        assert!(m.drop_ref(f));
    }

    #[test]
    fn fork_copies_contents_and_charges() {
        let mut m = mem();
        let a = m.alloc().unwrap();
        m.write(a, 100, b"hello");
        let copies_before = m.stats.pages_copied();
        let b = m.fork(a).unwrap();
        assert_eq!(m.stats.pages_copied(), copies_before + 1);
        let mut buf = [0u8; 5];
        m.read(b, 100, &mut buf);
        assert_eq!(&buf, b"hello");
        // The copy is by value: mutating the original leaves the fork alone.
        m.write(a, 100, b"world");
        m.read(b, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn copy_between_charges_proportionally() {
        let mut m = mem();
        let a = m.alloc().unwrap();
        let b = m.alloc().unwrap();
        m.write(a, 0, &[7u8; 2048]);
        let t0 = m.clock.now();
        m.copy_between(a, 0, b, 1024, 2048);
        let cost = m.clock.now() - t0;
        // Half a page should cost half of page_copy.
        assert_eq!(cost, Ns(115_000 / 2));
        let mut buf = [0u8; 2048];
        m.read(b, 1024, &mut buf);
        assert_eq!(buf, [7u8; 2048]);
        // Within one frame, overlapping ranges copy as if staged.
        m.write(a, 0, b"abcdef");
        m.copy_between(a, 0, a, 2, 4);
        let mut six = [0u8; 6];
        m.read(a, 0, &mut six);
        assert_eq!(&six, b"ababcd");
    }

    #[test]
    fn template_fill_repeats_pattern() {
        let mut m = mem();
        let f = m.alloc().unwrap();
        m.fill_with_template(f, &[1, 2, 3]);
        let mut b = [0u8; 6];
        m.read(f, 0, &mut b);
        assert_eq!(b, [1, 2, 3, 1, 2, 3]);
        m.fill_with_template(f, &[]);
        m.read(f, 0, &mut b);
        assert_eq!(b, [0; 6]);
    }

    #[test]
    #[should_panic(expected = "drop_ref on free frame")]
    fn double_free_panics() {
        let mut m = mem();
        let f = m.alloc().unwrap();
        let copy = f;
        m.drop_ref(f);
        // Frame is free now; a second drop must be caught.
        m.drop_ref(copy);
    }
}
