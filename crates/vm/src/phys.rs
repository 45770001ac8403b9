//! Simulated physical memory: reference-counted frames with real contents.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use std::num::NonZeroU32;
use std::sync::Arc;

use crate::types::{Fault, VmResult};
use fbuf_sim::{Clock, CostCategory, CostModel, Stats};

/// A physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// A page shared by the frames that hold a reference to it.
type Cell = Arc<Box<[u8]>>;

/// A frame's whole page, shared by reference: [`PhysMem::share`] makes
/// one, and a page fill hands it to a new frame, of the same memory or
/// another, which then reads the same storage without a copy.
#[derive(Debug)]
pub struct SharedPage(Cell);

/// A frame's page storage: its own, or a page it shares with other
/// frames until one of them writes it.
#[derive(Debug)]
enum Storage {
    Own(Box<[u8]>),
    Shared(Cell),
}

impl Storage {
    #[inline(always)]
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Own(page) => page,
            Storage::Shared(page) => page,
        }
    }
}

/// One physical frame: page-sized byte storage plus a mapping reference
/// count (a frame shared read-only among several domains — the fbuf case —
/// is freed only when the last mapping goes away).
#[derive(Debug)]
struct Frame {
    data: Storage,
    refs: NonZeroU32,
}

// Sharing costs the frames that share: a frame, and a free slot of the
// frame table, are still three words.
const _: () = assert!(
    std::mem::size_of::<Frame>() == 3 * std::mem::size_of::<usize>()
        && std::mem::size_of::<Option<Frame>>() == std::mem::size_of::<Frame>()
);

/// Freed frame storage kept for reuse, at most this many pages per
/// memory. A bounded pool covers the working set of a steady send or
/// receive without holding on to a burst's worth of pages.
pub const POOL_FRAMES: usize = 16;

/// Emptied share cells (an `Arc`'s two counts and a page's pointer and
/// length, 32 bytes each) kept for the next [`PhysMem::share`], at most
/// this many per memory: the pages of a 1 MB message.
const POOL_CELLS: usize = 256;

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
/// A frame may instead share another frame's page ([`PhysMem::share`],
/// a device receive of a whole page): both read one storage until
/// either is written, cleared or freed. The first write gives the
/// writer a page of its own, a copy unless it is the last holder, and
/// the last holder to let go of a page pools it. None of this is
/// charged or counted: in simulated time a shared page is a copied one.
///
/// The frame table grows as frames are first handed out, so a large
/// simulated memory costs the host only the frames a run touches. An
/// allocation takes the most recently freed frame, else the lowest id
/// never used: the order of a free stack that starts full, lowest id on
/// top.
#[derive(Debug)]
pub struct PhysMem {
    page_size: usize,
    /// Frames in the memory, used or not.
    capacity: usize,
    /// The frames handed out so far, by id; `None` while free.
    frames: Vec<Option<Frame>>,
    /// Freed frames, the most recent last.
    free: Vec<FrameId>,
    /// Page storage for the next allocations, each with a page of
    /// capacity.
    pool: Vec<Vec<u8>>,
    /// Share cells whose page went back to a frame of its own or to the
    /// pool, each held only here.
    cells: Vec<Cell>,
    costs: CostModel,
}

impl PhysMem {
    /// Creates a physical memory of `frames` frames of `page_size` bytes.
    pub fn new(frames: usize, page_size: usize, costs: CostModel) -> PhysMem {
        PhysMem {
            page_size,
            capacity: frames,
            frames: Vec::new(),
            free: Vec::new(),
            pool: Vec::with_capacity(POOL_FRAMES),
            cells: Vec::new(),
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
        self.alloc_page(clock, stats, 0xA5, |_, _| None)
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
        let id = self.alloc_page(clock, stats, 0, |_, _| None)?;
        if charge {
            self.charge_zero(clock, stats);
        }
        Ok(id)
    }

    /// Allocates a frame with one reference whose page begins with the
    /// bytes `fill` appends to it (at most a page) and reads zero past
    /// them: a device receive, which writes the arriving bytes as the
    /// page is made. Instead of appending, `fill` may hand over a whole
    /// page of this memory's page size to share, which the frame then
    /// reads without a copy. No clear is charged: the device wrote the
    /// page. `fill` runs only once the frame is taken, so a refused
    /// allocation consumes nothing.
    pub fn alloc_from(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        fill: impl FnOnce(&mut Vec<u8>) -> Option<SharedPage>,
    ) -> VmResult<FrameId> {
        self.alloc_page(clock, stats, 0, |_, page| fill(page))
    }

    /// Zero-fills a frame (charges the 57 µs page-clear cost).
    pub fn zero(&mut self, clock: &mut Clock, stats: &mut Stats, id: FrameId) {
        self.charge_zero(clock, stats);
        self.clear(id);
    }

    /// Zero-fills a frame without charging: for callers that model
    /// clearing time themselves. A shared page is left to its other
    /// holders, and the frame gets a cleared page of its own.
    pub fn clear(&mut self, id: FrameId) {
        match &mut self.frame_mut(id).data {
            Storage::Own(page) => page.fill(0),
            Storage::Shared(_) => {
                let mut page = self.own_page(id, false);
                page.fill(0);
                self.frame_mut(id).data = Storage::Own(page);
            }
        }
    }

    fn charge_zero(&self, clock: &mut Clock, stats: &mut Stats) {
        clock.charge(CostCategory::DataMove, self.costs.page_zero);
        stats.inc_pages_cleared();
    }

    /// The one page constructor: takes a free frame, charges the
    /// allocation, and builds its page in emptied storage (pooled when
    /// there is some, else new), so each byte is written once. `fill`
    /// appends the page's leading bytes, reading the memory if it needs
    /// to, and `pad` covers the rest of the page; or `fill` appends
    /// nothing and returns a whole page to share (anything else is a
    /// caller bug), and the storage goes back to the pool unwritten.
    /// The storage is emptied before `fill` runs, so no byte of a
    /// previous owner survives.
    fn alloc_page(
        &mut self,
        clock: &mut Clock,
        stats: &mut Stats,
        pad: u8,
        fill: impl FnOnce(&PhysMem, &mut Vec<u8>) -> Option<SharedPage>,
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
        let size = self.page_size();
        let mut page = self.spare_page();
        let data = match fill(self, &mut page) {
            Some(SharedPage(shared)) => {
                debug_assert!(
                    page.is_empty() && shared.len() == size,
                    "a shared page is handed over whole, in place of the bytes"
                );
                self.pool.push(page);
                Storage::Shared(shared)
            }
            None => {
                assert!(page.len() <= size, "a page fill overran its page");
                page.resize(size, pad);
                Storage::Own(page.into_boxed_slice())
            }
        };
        self.frames[id.0 as usize] = Some(Frame {
            data,
            refs: NonZeroU32::MIN,
        });
        Ok(id)
    }

    /// Emptied page storage with a page of capacity: pooled when there is
    /// some, else new.
    fn spare_page(&mut self) -> Vec<u8> {
        match self.pool.pop() {
            Some(mut page) => {
                page.clear();
                page
            }
            None => Vec::with_capacity(self.page_size()),
        }
    }

    /// Pools `page` if the pool has room, else frees it.
    fn pool_page(&mut self, page: Box<[u8]>) {
        if self.pool.len() < POOL_FRAMES {
            self.pool.push(page.into_vec());
        }
    }

    /// Pages of freed storage currently pooled (at most [`POOL_FRAMES`]).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Adds a mapping reference to `id`.
    pub fn add_ref(&mut self, id: FrameId) {
        let frame = self.frame_mut(id);
        frame.refs = frame.refs.saturating_add(1);
    }

    /// Current reference count of `id`.
    pub fn refs(&self, id: FrameId) -> u32 {
        self.frame(id).refs.get()
    }

    /// Drops one reference; frees the frame when the count reaches zero.
    /// Returns `true` if the frame was actually freed. A freed frame's
    /// page goes to the pool, unless another frame still shares it.
    pub fn drop_ref(&mut self, clock: &mut Clock, stats: &mut Stats, id: FrameId) -> bool {
        let slot = &mut self.frames[id.0 as usize];
        // A caller drops only a reference it holds, so the frame is live;
        // a second drop of the last reference is a caller bug.
        #[allow(clippy::expect_used)]
        let frame = slot.as_mut().expect("drop_ref on free frame");
        if let Some(refs) = NonZeroU32::new(frame.refs.get() - 1) {
            frame.refs = refs;
            return false;
        }
        match slot.take().map(|f| f.data) {
            Some(Storage::Own(page)) => self.pool_page(page),
            Some(Storage::Shared(shared)) => {
                if let Ok(page) = self.take_last(shared) {
                    self.pool_page(page);
                }
            }
            None => {}
        }
        self.free.push(id);
        clock.charge(CostCategory::Alloc, self.costs.phys_free);
        stats.inc_frames_freed();
        true
    }

    /// Shares frame `id`'s page: the frame goes on reading it, and a page
    /// fill of [`PhysMem::alloc_from`], on this memory or another, can
    /// hand it to a new frame that reads it too, without a copy. The
    /// first write to it, through any of its frames, gives the writer a
    /// page of its own. No cost is charged.
    pub fn share(&mut self, id: FrameId) -> SharedPage {
        let taken = std::mem::replace(&mut self.frame_mut(id).data, Storage::Own(Box::default()));
        let shared = match taken {
            Storage::Own(page) => self.cell_for(page),
            Storage::Shared(shared) => shared,
        };
        self.frame_mut(id).data = Storage::Shared(Arc::clone(&shared));
        SharedPage(shared)
    }

    /// A share cell holding `page`: an emptied one from the pool, else
    /// a new one.
    fn cell_for(&mut self, page: Box<[u8]>) -> Cell {
        if let Some(mut cell) = self.cells.pop() {
            if let Some(slot) = Arc::get_mut(&mut cell) {
                *slot = page;
                return cell;
            }
        }
        Arc::new(page)
    }

    /// The page of `shared` if no other frame holds it, its emptied cell
    /// kept for the next share; else `shared` back.
    fn take_last(&mut self, mut shared: Cell) -> Result<Box<[u8]>, Cell> {
        // Another holder shows in the count, a plain load, which spares
        // `get_mut` its atomic update.
        if Arc::strong_count(&shared) > 1 {
            return Err(shared);
        }
        let Some(slot) = Arc::get_mut(&mut shared) else {
            return Err(shared);
        };
        let page = std::mem::take(slot);
        if self.cells.len() < POOL_CELLS {
            self.cells.push(shared);
        }
        Ok(page)
    }

    /// Takes frame `id`'s page out as storage of its own, leaving the
    /// frame empty until the caller puts a page back. A page the frame
    /// shares is taken whole if no other frame holds it; else the frame
    /// gets other storage, holding a copy of the page if `keep`, zeros
    /// if not.
    fn own_page(&mut self, id: FrameId, keep: bool) -> Box<[u8]> {
        let taken = std::mem::replace(&mut self.frame_mut(id).data, Storage::Own(Box::default()));
        let shared = match taken {
            Storage::Own(page) => return page,
            Storage::Shared(shared) => shared,
        };
        match self.take_last(shared) {
            Ok(page) => page,
            Err(shared) => {
                let mut page = self.spare_page();
                if keep {
                    page.extend_from_slice(&shared);
                }
                page.resize(self.page_size(), 0);
                page.into_boxed_slice()
            }
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
            page.extend_from_slice(mem.bytes(src));
            None
        })?;
        clock.charge(CostCategory::DataMove, self.costs.page_copy);
        stats.inc_pages_copied();
        Ok(dst)
    }

    /// Reads bytes from a frame. No cost is charged here; the access engine
    /// charges TLB/cache costs at the translation layer.
    pub fn read(&self, id: FrameId, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.bytes(id)[offset..offset + out.len()]);
    }

    /// The `len` bytes of a frame starting at `offset`, borrowed in
    /// place. No cost is charged (see [`PhysMem::read`]).
    pub fn slice(&self, id: FrameId, offset: usize, len: usize) -> &[u8] {
        &self.bytes(id)[offset..offset + len]
    }

    /// Writes bytes into a frame. No cost is charged here (see
    /// [`PhysMem::read`]). Writing a shared page first gives the frame a
    /// page of its own.
    pub fn write(&mut self, id: FrameId, offset: usize, bytes: &[u8]) {
        match &mut self.frame_mut(id).data {
            Storage::Own(page) => page[offset..offset + bytes.len()].copy_from_slice(bytes),
            Storage::Shared(_) => self.write_shared(id, offset, bytes),
        }
    }

    /// [`PhysMem::write`] to a shared page: the frame's own page is a
    /// copy of the shared one, unless the write covers all of it.
    #[cold]
    #[inline(never)]
    fn write_shared(&mut self, id: FrameId, offset: usize, bytes: &[u8]) {
        let whole = offset == 0 && bytes.len() == self.page_size();
        let mut page = self.own_page(id, !whole);
        page[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.frame_mut(id).data = Storage::Own(page);
    }

    #[inline(always)]
    fn bytes(&self, id: FrameId) -> &[u8] {
        self.frame(id).data.bytes()
    }

    fn frame(&self, id: FrameId) -> &Frame {
        // Callers name only frames they hold a reference to, and a frame
        // with a reference is live.
        #[allow(clippy::expect_used)]
        let frame = self.frames[id.0 as usize]
            .as_ref()
            .expect("access to free frame");
        frame
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut Frame {
        // As in `frame`: a held frame is live.
        #[allow(clippy::expect_used)]
        let frame = self.frames[id.0 as usize]
            .as_mut()
            .expect("access to free frame");
        frame
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
                page.extend_from_slice(b"abc");
                None
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
            page.extend_from_slice(&[1; 4097]);
            None
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

    /// A frame of `m` that shares `src`'s page, as a device receive
    /// builds it.
    fn shared_from(m: &mut Mem, src: &mut PhysMem, f: FrameId) -> FrameId {
        let page = src.share(f);
        m.phys
            .alloc_from(&mut m.clock, &mut m.stats, |_| Some(page))
            .unwrap()
    }

    fn same_storage(a: &PhysMem, f: FrameId, b: &PhysMem, g: FrameId) -> bool {
        std::ptr::eq(a.slice(f, 0, 4096).as_ptr(), b.slice(g, 0, 4096).as_ptr())
    }

    #[test]
    fn a_shared_page_moves_no_bytes_and_the_first_write_copies_it() {
        let (mut tx, mut rx) = (mem(), mem());
        let f = tx.phys.alloc(&mut tx.clock, &mut tx.stats).unwrap();
        tx.phys.write(f, 0, b"sent");
        let before = (rx.clock.now(), rx.stats.snapshot());
        let g = shared_from(&mut rx, &mut tx.phys, f);
        assert!(same_storage(&tx.phys, f, &rx.phys, g));
        let mut alloc_only = mem();
        alloc_only
            .phys
            .alloc_from(&mut alloc_only.clock, &mut alloc_only.stats, |_| None)
            .unwrap();
        assert_eq!(rx.clock.now() - before.0, alloc_only.clock.now());
        assert_eq!(
            rx.stats.snapshot().delta(&before.1),
            alloc_only.stats.snapshot()
        );

        // Each side's write is its own: the receiver's copy keeps the
        // rest of the page, and the sender, the last holder, takes the
        // storage back without a copy.
        rx.phys.write(g, 1, b"X");
        assert!(!same_storage(&tx.phys, f, &rx.phys, g));
        assert_eq!(rx.phys.slice(g, 0, 5), b"sXnt\xA5");
        assert_eq!(tx.phys.slice(f, 0, 5), b"sent\xA5");
        let storage = tx.phys.slice(f, 0, 1).as_ptr();
        tx.phys.write(f, 0, b"T");
        assert_eq!(tx.phys.slice(f, 0, 1).as_ptr(), storage);
        assert_eq!(tx.phys.slice(f, 0, 4), b"Tent");
        assert_eq!(tx.phys.cells.len(), 1);

        // The next share reuses the kept cell.
        let h = shared_from(&mut rx, &mut tx.phys, f);
        assert!(tx.phys.cells.is_empty());
        tx.phys.write(f, 0, &[7; 4096]);
        assert_eq!(tx.phys.slice(f, 4095, 1), [7]);
        assert_eq!(rx.phys.slice(h, 0, 4), b"Tent");
    }

    #[test]
    fn the_last_holder_of_a_shared_page_pools_it() {
        let (mut tx, mut rx) = (mem(), mem());
        let f = tx.phys.alloc(&mut tx.clock, &mut tx.stats).unwrap();
        tx.phys.write(f, 0, b"page");
        let g = shared_from(&mut rx, &mut tx.phys, f);
        let (tx_pooled, rx_pooled) = (tx.phys.pooled(), rx.phys.pooled());
        assert!(tx.phys.drop_ref(&mut tx.clock, &mut tx.stats, f));
        assert_eq!(tx.phys.pooled(), tx_pooled, "another frame holds it");
        assert_eq!(rx.phys.slice(g, 0, 4), b"page");
        assert!(rx.phys.drop_ref(&mut rx.clock, &mut rx.stats, g));
        assert_eq!(rx.phys.pooled(), rx_pooled + 1);
    }

    #[test]
    fn clearing_a_shared_page_clears_only_its_frame() {
        let mut m = mem();
        let f = m.phys.alloc(&mut m.clock, &mut m.stats).unwrap();
        m.phys.write(f, 0, &[9; 4096]);
        let page = m.phys.share(f);
        let g = m
            .phys
            .alloc_from(&mut m.clock, &mut m.stats, |_| Some(page))
            .unwrap();
        m.phys.zero(&mut m.clock, &mut m.stats, g);
        assert_eq!(m.stats.pages_cleared(), 1);
        assert!(m.phys.slice(g, 0, 4096).iter().all(|&b| b == 0));
        assert!(m.phys.slice(f, 0, 4096).iter().all(|&b| b == 9));
        m.phys.clear(f);
        assert!(m.phys.slice(f, 0, 4096).iter().all(|&b| b == 0));
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
