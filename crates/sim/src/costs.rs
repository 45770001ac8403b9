//! The calibrated cost model.
//!
//! Every constant is the simulated price of one primitive operation. The
//! mechanisms in `fbuf-vm`, `fbuf`, `fbuf-ipc`, and `fbuf-net` execute their
//! *real* operation sequences (the step lists of Section 3.1 of the paper)
//! and charge these constants as they go; the paper's Table 1 rows and
//! figure curves then emerge from the sequences rather than being hard-coded.
//!
//! [`CostModel::decstation_5000_200`] is calibrated against the anchors that
//! survive in the paper text (see `DESIGN.md` §6):
//!
//! * cached/volatile fbufs: 3 µs/page (two TLB refills + two cache-fill
//!   stalls from touching one word per page in each domain);
//! * volatile (uncached) fbufs: 21 µs/page (adds physical allocation, two
//!   mapping installs, two removals, and two TLB consistency flushes);
//! * cached (secured) fbufs: 29 µs/page (adds a permission downgrade on
//!   send, an upgrade on free, and a TLB flush);
//! * page zero-fill: 57 µs (stated directly in the paper);
//! * Mach COW: lazy pmap update ⇒ two page faults per transfer;
//! * Osiris: 622 Mb/s link, 516 Mb/s net of ATM cell overhead, 367 Mb/s
//!   per-cell DMA start-up ceiling, ≈285 Mb/s after bus contention.

use crate::time::Ns;

/// Named per-primitive costs for the simulated machine.
///
/// All fields are public so experiments can construct ablated variants
/// (e.g. "what if TLB flushes were free"); [`CostModel::decstation_5000_200`]
/// is the calibrated default used by every reproduction experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // --- TLB and cache ---
    /// Software TLB-miss refill (R3000 handles TLB misses in software).
    pub tlb_refill: Ns,
    /// Per-entry TLB consistency flush after a mapping or permission change.
    pub tlb_flush_entry: Ns,
    /// Cache-fill stall charged when touching one word of a cold line
    /// ("the CPU was stalled waiting for cache fills approximately half of
    /// the time").
    pub cache_fill_word: Ns,

    // --- page tables (two-level: machine-independent map + pmap) ---
    /// Install a resident mapping through both VM levels.
    pub pte_map: Ns,
    /// Remove a resident mapping through both VM levels.
    pub pte_unmap: Ns,
    /// Downgrade permissions (e.g. remove write) on a resident page,
    /// including the machine-independent entry update.
    pub pte_protect: Ns,
    /// Restore permissions on a resident page.
    pub pte_unprotect: Ns,

    // --- faults ---
    /// Trap entry/exit overhead of taking any page fault.
    pub fault_trap: Ns,
    /// Extra work to resolve a copy-on-write fault (locate/copy the source
    /// frame, fix both pmaps). Mach's lazy physical-page-table update
    /// strategy causes two of these per COW transfer.
    pub cow_fault: Ns,

    // --- physical memory ---
    /// Take a frame from the free list.
    pub phys_alloc: Ns,
    /// Return a frame to the free list.
    pub phys_free: Ns,
    /// Zero-fill one 4 KB page ("filling a page with zeros takes 57 µs on
    /// the DecStation").
    pub page_zero: Ns,
    /// Copy one 4 KB page (read pass + write pass through the cache).
    pub page_copy: Ns,

    // --- DASH-style general remap facility (§2.2.1 reimplementation) ---
    /// Map one page into a domain through *both* VM levels of a general
    /// remap facility (unlike fbuf pmap updates, which skip the
    /// machine-independent layer because the fbuf region is permanently
    /// mapped everywhere).
    pub remap_map: Ns,
    /// Remove one page from a domain through both VM levels.
    pub remap_unmap: Ns,
    /// Find/reserve a virtual address range in the remap window (per page;
    /// the DASH-style facility manages its window page-granularly).
    pub remap_va_alloc: Ns,

    // --- kernel / allocator bookkeeping ---
    /// Enter the kernel for an (unoptimized) VM-system invocation; charged
    /// once per fbuf for the uncached regimes.
    pub vm_invoke: Ns,
    /// Find and reserve a free virtual address range (per fbuf, uncached).
    pub va_range_alloc: Ns,
    /// Release a virtual address range (per fbuf, uncached).
    pub va_range_free: Ns,
    /// Push/pop on a per-path LIFO free list (per fbuf, cached).
    pub freelist_op: Ns,
    /// Ask the kernel for another chunk of the fbuf region (rare).
    pub chunk_request: Ns,

    // --- IPC ---
    /// Control-transfer latency of one RPC (call + reply) between the kernel
    /// and a user domain.
    pub rpc_kernel_user: Ns,
    /// Control-transfer latency of one RPC between two user domains.
    pub rpc_user_user: Ns,
    /// Per-message dispatch/bookkeeping in the IPC layer.
    pub ipc_dispatch: Ns,
    /// Extra cache/TLB pollution charged per crossing when the data path
    /// spans three or more domains. The paper attributes the
    /// disproportionate penalty of the second crossing to "the exhaustion
    /// of cache and TLB when a third domain is added to the data path"
    /// (program text duplicated per domain absent shared libraries).
    pub crossing_cache_penalty: Ns,

    // --- protocol processing ---
    /// UDP per-PDU processing (header build/parse, port demux).
    pub proto_udp_pdu: Ns,
    /// IP per-PDU processing (header, routing, frag/reassembly bookkeeping).
    pub proto_ip_pdu: Ns,
    /// Fixed per-message cost of setting up fragmentation (the source of
    /// the >4 KB anomaly in the paper's Figure 4 single-domain curve).
    pub proto_frag_setup: Ns,
    /// Loopback pseudo-driver per-PDU turnaround.
    pub proto_loopback_pdu: Ns,
    /// Test/dummy protocol per-message overhead.
    pub proto_test_msg: Ns,
    /// Checksum cost per byte (used only when a protocol is configured to
    /// actually inspect the payload).
    pub checksum_per_byte: Ns,

    // --- Osiris ATM driver and link ---
    /// Per-interrupt driver overhead.
    pub driver_interrupt: Ns,
    /// Per-PDU driver processing (descriptor setup, demux, queueing).
    pub driver_pdu: Ns,
    /// ATM cell payload size in bytes (AAL5-style 48-byte payloads).
    pub atm_cell_payload: u64,
    /// Net link bandwidth in bits/s after ATM cell overhead (516 Mb/s).
    pub link_net_bps: u64,
    /// DMA ceiling from per-cell DMA start-up latency (367 Mb/s).
    pub dma_ceiling_bps: u64,
    /// Effective DMA bandwidth under CPU/memory bus contention (285 Mb/s).
    pub dma_contended_bps: u64,
}

impl CostModel {
    /// The calibrated DecStation 5000/200 (25 MHz MIPS R3000) instance.
    ///
    /// See the module documentation and `DESIGN.md` §6 for the calibration
    /// arithmetic tying each constant to the paper's anchors.
    pub fn decstation_5000_200() -> CostModel {
        CostModel {
            tlb_refill: Ns(1_000),
            tlb_flush_entry: Ns(3_500),
            cache_fill_word: Ns(500),
            pte_map: Ns(2_500),
            pte_unmap: Ns(2_500),
            pte_protect: Ns(11_250),
            pte_unprotect: Ns(11_250),
            fault_trap: Ns(10_000),
            cow_fault: Ns(30_000),
            phys_alloc: Ns(500),
            phys_free: Ns(500),
            page_zero: Ns(57_000),
            page_copy: Ns(115_000),
            remap_map: Ns(7_500),
            remap_unmap: Ns(7_500),
            remap_va_alloc: Ns(1_000),
            vm_invoke: Ns(20_000),
            va_range_alloc: Ns(5_000),
            va_range_free: Ns(2_000),
            freelist_op: Ns(500),
            chunk_request: Ns(30_000),
            rpc_kernel_user: Ns(95_000),
            rpc_user_user: Ns(160_000),
            ipc_dispatch: Ns(5_000),
            crossing_cache_penalty: Ns(200_000),
            proto_udp_pdu: Ns(25_000),
            proto_ip_pdu: Ns(45_000),
            proto_frag_setup: Ns(120_000),
            proto_loopback_pdu: Ns(10_000),
            proto_test_msg: Ns(15_000),
            checksum_per_byte: Ns(15),
            driver_interrupt: Ns(60_000),
            driver_pdu: Ns(280_000),
            atm_cell_payload: 48,
            link_net_bps: 516_000_000,
            dma_ceiling_bps: 367_000_000,
            dma_contended_bps: 285_000_000,
        }
    }

    /// A free cost model: every primitive costs zero, bandwidth ceilings are
    /// effectively infinite. Useful for functional tests that only care
    /// about semantics, not timing.
    pub fn free() -> CostModel {
        CostModel {
            tlb_refill: Ns::ZERO,
            tlb_flush_entry: Ns::ZERO,
            cache_fill_word: Ns::ZERO,
            pte_map: Ns::ZERO,
            pte_unmap: Ns::ZERO,
            pte_protect: Ns::ZERO,
            pte_unprotect: Ns::ZERO,
            fault_trap: Ns::ZERO,
            cow_fault: Ns::ZERO,
            phys_alloc: Ns::ZERO,
            phys_free: Ns::ZERO,
            page_zero: Ns::ZERO,
            page_copy: Ns::ZERO,
            remap_map: Ns::ZERO,
            remap_unmap: Ns::ZERO,
            remap_va_alloc: Ns::ZERO,
            vm_invoke: Ns::ZERO,
            va_range_alloc: Ns::ZERO,
            va_range_free: Ns::ZERO,
            freelist_op: Ns::ZERO,
            chunk_request: Ns::ZERO,
            rpc_kernel_user: Ns::ZERO,
            rpc_user_user: Ns::ZERO,
            ipc_dispatch: Ns::ZERO,
            crossing_cache_penalty: Ns::ZERO,
            proto_udp_pdu: Ns::ZERO,
            proto_ip_pdu: Ns::ZERO,
            proto_frag_setup: Ns::ZERO,
            proto_loopback_pdu: Ns::ZERO,
            proto_test_msg: Ns::ZERO,
            checksum_per_byte: Ns::ZERO,
            driver_interrupt: Ns::ZERO,
            driver_pdu: Ns::ZERO,
            atm_cell_payload: 48,
            link_net_bps: u64::MAX,
            dma_ceiling_bps: u64::MAX,
            dma_contended_bps: u64::MAX,
        }
    }

    /// Simulated time to move `bytes` over the link at the *contended* DMA
    /// rate — the end-to-end bandwidth ceiling the paper measures (285 Mb/s).
    pub fn wire_time(&self, bytes: u64) -> Ns {
        bps_time(bytes, self.dma_contended_bps)
    }

    /// Simulated time to move `bytes` at the uncontended DMA ceiling
    /// (367 Mb/s) — used by the bus-contention ablation.
    pub fn dma_time_uncontended(&self, bytes: u64) -> Ns {
        bps_time(bytes, self.dma_ceiling_bps)
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::decstation_5000_200()
    }
}

fn bps_time(bytes: u64, bps: u64) -> Ns {
    if bps == u64::MAX {
        return Ns::ZERO;
    }
    // bits * 1e9 / bps, computed in u128 to avoid overflow on large sizes.
    let ns = (bytes as u128 * 8 * 1_000_000_000) / bps as u128;
    Ns(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calibration arithmetic for Table 1, written out as a test so the
    /// constants cannot drift away from the paper's anchors.
    #[test]
    fn table1_anchor_cached_volatile() {
        let c = CostModel::decstation_5000_200();
        // Originator writes one word per page, receiver reads one word per
        // page: two TLB refills + two cache-fill stalls.
        let per_page = c.tlb_refill * 2 + c.cache_fill_word * 2;
        assert_eq!(per_page, Ns::from_us(3));
        assert!((per_page.mbps(4096) - 10_922.0).abs() < 1.0);
    }

    #[test]
    fn table1_anchor_volatile_uncached() {
        let c = CostModel::decstation_5000_200();
        let touches = c.tlb_refill * 2 + c.cache_fill_word * 2;
        // Uncached adds, per page: physical alloc, map in originator, map in
        // receiver, unmap from both, TLB consistency for both removals, and
        // the frame free.
        let uncached =
            c.phys_alloc + c.pte_map * 2 + c.pte_unmap * 2 + c.tlb_flush_entry * 2 + c.phys_free;
        assert_eq!(touches + uncached, Ns::from_us(21));
    }

    #[test]
    fn table1_anchor_cached_secured() {
        let c = CostModel::decstation_5000_200();
        let touches = c.tlb_refill * 2 + c.cache_fill_word * 2;
        // Securing adds a permission downgrade (+ TLB flush) on send and an
        // upgrade on free.
        let secured = c.pte_protect + c.tlb_flush_entry + c.pte_unprotect;
        assert_eq!(touches + secured, Ns::from_us(29));
    }

    #[test]
    fn page_zero_is_57us() {
        let c = CostModel::decstation_5000_200();
        assert_eq!(c.page_zero, Ns::from_us(57));
    }

    #[test]
    fn bandwidth_ceilings_match_paper() {
        let c = CostModel::decstation_5000_200();
        // 285 Mb/s is 55% of the 516 Mb/s net link bandwidth.
        let frac = c.dma_contended_bps as f64 / c.link_net_bps as f64;
        assert!((frac - 0.55).abs() < 0.01, "got {frac}");
        assert!(c.dma_ceiling_bps > c.dma_contended_bps);
        assert!(c.link_net_bps > c.dma_ceiling_bps);
    }

    #[test]
    fn wire_time_math() {
        let c = CostModel::decstation_5000_200();
        // 285 Mb/s: 1 Mbit should take ~3.509 ms.
        let t = c.wire_time(125_000);
        assert!((t.as_secs_f64() - 1e6 / 285e6).abs() < 1e-6, "got {t}");
        // Free model: everything instantaneous.
        assert_eq!(CostModel::free().wire_time(1 << 30), Ns::ZERO);
    }

    #[test]
    fn free_model_is_all_zero() {
        let c = CostModel::free();
        assert_eq!(c.pte_map, Ns::ZERO);
        assert_eq!(c.rpc_user_user, Ns::ZERO);
        assert_eq!(c.page_zero, Ns::ZERO);
    }

    #[test]
    fn mechanism_cost_ordering_matches_table1() {
        // Table 1's story: cached/volatile ≪ volatile < cached < plain fbufs
        // < Mach COW < copy.
        let c = CostModel::decstation_5000_200();
        let touches = c.tlb_refill * 2 + c.cache_fill_word * 2;
        let volatile_uncached = touches
            + c.phys_alloc
            + c.pte_map * 2
            + c.pte_unmap * 2
            + c.tlb_flush_entry * 2
            + c.phys_free;
        let cached_secured = touches + c.pte_protect + c.tlb_flush_entry + c.pte_unprotect;
        let plain = volatile_uncached + c.pte_protect + c.tlb_flush_entry + c.pte_unprotect;
        let cow = touches + c.cow_fault * 2 + c.pte_map + c.pte_unmap + c.tlb_flush_entry;
        let copy = touches + c.page_copy;
        assert!(touches < volatile_uncached);
        assert!(volatile_uncached < cached_secured);
        assert!(cached_secured < plain);
        assert!(plain < cow);
        assert!(cow < copy);
        // "an order of magnitude better than the uncached or non-volatile
        // cases".
        assert!(volatile_uncached.as_ns() >= 7 * touches.as_ns());
    }
}
