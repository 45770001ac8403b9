//! Structural machine parameters.

use crate::costs::CostModel;

/// The most TLB entries a machine may have: a page-table entry records
/// the TLB slot of its translation in 16 bits, one value of which means
/// "none".
pub const MAX_TLB_ENTRIES: usize = u16::MAX as usize;

/// Structural (non-timing) parameters of the simulated machine.
///
/// The defaults model the paper's DecStation 5000/200: 4 KB pages, a 64-entry
/// software-refilled R3000 TLB, and 32 MB of physical memory. The fbuf
/// region geometry follows Section 3.3 of the paper: a reserved range of
/// virtual addresses, globally shared among all domains, handed out to
/// per-domain allocators in fixed-size chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Page size in bytes.
    pub page_size: u64,
    /// Number of TLB entries (R3000: 64; at most [`MAX_TLB_ENTRIES`]).
    pub tlb_entries: usize,
    /// Physical memory size in bytes.
    pub phys_mem: u64,
    /// Base virtual address of the globally shared fbuf region.
    pub fbuf_region_base: u64,
    /// Size of the fbuf region in bytes.
    pub fbuf_region_size: u64,
    /// Size of one allocation chunk handed from the kernel to a per-domain
    /// allocator, in bytes.
    pub chunk_size: u64,
    /// Maximum chunks any single data-path allocator may hold (the paper's
    /// defence against a domain that never deallocates).
    pub max_chunks_per_path: usize,
    /// How many physical frames one pageout pass tries to reclaim when a
    /// frame allocation finds memory exhausted (the reclaim-then-retry
    /// batch in `FbufSystem::frame_with_reclaim`).
    pub reclaim_batch: usize,
    /// Timing constants.
    pub costs: CostModel,
}

impl MachineConfig {
    /// The calibrated DecStation 5000/200 configuration.
    pub fn decstation_5000_200() -> MachineConfig {
        MachineConfig {
            page_size: 4096,
            tlb_entries: 64,
            phys_mem: 32 << 20,
            fbuf_region_base: 0x4000_0000,
            fbuf_region_size: 64 << 20,
            chunk_size: 64 << 10,
            max_chunks_per_path: 64,
            reclaim_batch: 8,
            costs: CostModel::decstation_5000_200(),
        }
    }

    /// A small configuration with free costs, for fast functional tests.
    pub fn tiny() -> MachineConfig {
        MachineConfig {
            page_size: 4096,
            tlb_entries: 8,
            phys_mem: 2 << 20,
            fbuf_region_base: 0x4000_0000,
            fbuf_region_size: 1 << 20,
            chunk_size: 16 << 10,
            max_chunks_per_path: 8,
            reclaim_batch: 8,
            costs: CostModel::free(),
        }
    }

    /// Number of physical frames.
    pub fn frames(&self) -> usize {
        (self.phys_mem / self.page_size) as usize
    }

    /// Rounds `bytes` up to a whole number of pages.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }

    /// True if `va..va+len` lies entirely within the fbuf region.
    pub fn in_fbuf_region(&self, va: u64, len: u64) -> bool {
        va >= self.fbuf_region_base
            && va.saturating_add(len) <= self.fbuf_region_base + self.fbuf_region_size
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.page_size.is_power_of_two() {
            return Err(format!("page_size {} not a power of two", self.page_size));
        }
        if !self.chunk_size.is_multiple_of(self.page_size) {
            return Err("chunk_size not page-aligned".into());
        }
        if !self.fbuf_region_size.is_multiple_of(self.chunk_size) {
            return Err("fbuf region not a whole number of chunks".into());
        }
        if !self.fbuf_region_base.is_multiple_of(self.page_size) {
            return Err("fbuf region base not page-aligned".into());
        }
        if self.tlb_entries == 0 {
            return Err("tlb_entries must be positive".into());
        }
        if self.tlb_entries > MAX_TLB_ENTRIES {
            return Err(format!("tlb_entries above {MAX_TLB_ENTRIES}"));
        }
        if self.phys_mem < self.page_size {
            return Err("physical memory smaller than one page".into());
        }
        if self.reclaim_batch == 0 {
            return Err("reclaim_batch must be positive".into());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::decstation_5000_200()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MachineConfig::decstation_5000_200().validate().unwrap();
        MachineConfig::tiny().validate().unwrap();
    }

    #[test]
    fn geometry_helpers() {
        let c = MachineConfig::decstation_5000_200();
        assert_eq!(c.frames(), 8192);
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(4096), 1);
        assert_eq!(c.pages_for(4097), 2);
        assert_eq!(c.pages_for(0), 0);
    }

    #[test]
    fn fbuf_region_bounds() {
        let c = MachineConfig::decstation_5000_200();
        assert!(c.in_fbuf_region(c.fbuf_region_base, 1));
        assert!(c.in_fbuf_region(c.fbuf_region_base + c.fbuf_region_size - 1, 1));
        assert!(!c.in_fbuf_region(c.fbuf_region_base + c.fbuf_region_size, 1));
        assert!(!c.in_fbuf_region(c.fbuf_region_base - 1, 1));
        // Overflowing length must not wrap.
        assert!(!c.in_fbuf_region(c.fbuf_region_base, u64::MAX));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = MachineConfig::tiny();
        c.page_size = 3000;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::tiny();
        c.chunk_size = 5000;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::tiny();
        c.tlb_entries = 0;
        assert!(c.validate().is_err());
        c.tlb_entries = MAX_TLB_ENTRIES + 1;
        assert!(c.validate().is_err());
        c.tlb_entries = MAX_TLB_ENTRIES;
        assert!(c.validate().is_ok());

        let mut c = MachineConfig::tiny();
        c.fbuf_region_size = c.chunk_size + 1;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::tiny();
        c.reclaim_batch = 0;
        assert!(c.validate().is_err());
    }
}
