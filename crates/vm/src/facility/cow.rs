//! Mach-style lazy copy-on-write transfer.

use std::collections::HashMap;

use crate::facility::{window_base, TransferMechanism, BUF_WINDOW_SIZE};
use crate::machine::Machine;
use crate::types::{DomainId, Fault, VmResult};
use fbuf_sim::{CostCategory, EventKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Allocated the buffer; keeps it (for reuse) across transfers.
    Owner,
    /// Received the buffer via COW; freeing removes the mapping.
    Receiver,
}

/// Copy-on-write transfer in the style of Mach's `vm_map_copyin`/`copyout`.
///
/// The transfer itself only manipulates map entries and lazily invalidates
/// the sender's resident mappings; both the receiver's first read and the
/// sender's next write then take page faults through the COW machinery —
/// the "two page faults for each transfer" the paper measures. Senders
/// reuse their buffer across messages (a realistic sender does not
/// `vm_allocate` fresh zero-fill memory per message).
pub struct CowFacility {
    offset: u64,
    bump: HashMap<u32, u64>,
    live: HashMap<(u32, u64), Role>,
    /// Reusable sender buffers: (domain, pages) → va.
    cache: HashMap<(u32, u64), Vec<u64>>,
}

impl CowFacility {
    /// Creates the facility.
    pub fn new() -> CowFacility {
        CowFacility::with_offset(0)
    }

    /// Creates the facility carving from `offset` within each domain
    /// window (see [`crate::facility::MachNative`]).
    pub fn with_offset(offset: u64) -> CowFacility {
        assert!(offset < BUF_WINDOW_SIZE);
        CowFacility {
            offset,
            bump: HashMap::new(),
            live: HashMap::new(),
            cache: HashMap::new(),
        }
    }
}

impl Default for CowFacility {
    fn default() -> CowFacility {
        CowFacility::new()
    }
}

impl TransferMechanism for CowFacility {
    fn name(&self) -> &'static str {
        "mach-cow"
    }

    fn alloc(&mut self, m: &mut Machine, dom: DomainId, len: u64) -> VmResult<u64> {
        let t0 = m.now();
        let pages = m.config().pages_for(len).max(1);
        if let Some(va) = self.cache.get_mut(&(dom.0, pages)).and_then(|v| v.pop()) {
            self.live.insert((dom.0, va), Role::Owner);
            m.tracer()
                .span(t0, m.now(), EventKind::Alloc, dom.0, None, None);
            return Ok(va);
        }
        let bump = self.bump.entry(dom.0).or_insert(0);
        let va = window_base(dom) + self.offset + *bump;
        let need = (pages + 1) * m.page_size();
        if self.offset + *bump + need > BUF_WINDOW_SIZE {
            return Err(Fault::OutOfMemory);
        }
        *bump += need;
        m.map_anon_region(dom, va, pages)?;
        self.live.insert((dom.0, va), Role::Owner);
        m.tracer()
            .span(t0, m.now(), EventKind::Alloc, dom.0, None, None);
        Ok(va)
    }

    fn transfer(
        &mut self,
        m: &mut Machine,
        src: DomainId,
        va: u64,
        len: u64,
        dst: DomainId,
    ) -> VmResult<u64> {
        let _ = len;
        // The map-entry manipulation enters the kernel VM system once per
        // transfer.
        let t0 = m.now();
        m.charge(CostCategory::Vm, m.costs().vm_invoke);
        m.cow_share_region(src, va, dst)?;
        self.live.insert((dst.0, va), Role::Receiver);
        m.tracer().span_peer(
            t0,
            m.now(),
            EventKind::Transfer,
            src.0,
            Some(dst.0),
            None,
            None,
        );
        Ok(va)
    }

    fn free(&mut self, m: &mut Machine, dom: DomainId, va: u64, len: u64) -> VmResult<()> {
        let role = self
            .live
            .remove(&(dom.0, va))
            .ok_or(Fault::NoSuchRegion { va })?;
        m.tracer()
            .instant(m.now(), EventKind::Free, dom.0, None, None);
        match role {
            Role::Receiver => m.unmap_region(dom, va),
            Role::Owner => {
                // Owners keep the region for reuse by the next alloc.
                let pages = m.config().pages_for(len).max(1);
                self.cache.entry((dom.0, pages)).or_default().push(va);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MachineConfig;

    #[test]
    fn two_faults_per_transfer_in_steady_state() {
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CowFacility::new();

        // Warm up one full cycle so the buffer is in the reuse cache and
        // the region is COW-marked.
        for _ in 0..2 {
            let va = f.alloc(&mut m, a, 4096).unwrap();
            m.write(a, va, &[1u8; 64]).unwrap();
            let rva = f.transfer(&mut m, a, va, 4096, b).unwrap();
            m.read(b, rva, 64).unwrap();
            f.free(&mut m, b, rva, 4096).unwrap();
            f.free(&mut m, a, va, 4096).unwrap();
        }
        // Steady-state cycle: exactly two COW faults (sender re-write +
        // receiver read).
        let cow0 = m.stats().cow_faults();
        let va = f.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, &[2u8; 64]).unwrap();
        let rva = f.transfer(&mut m, a, va, 4096, b).unwrap();
        m.read(b, rva, 64).unwrap();
        f.free(&mut m, b, rva, 4096).unwrap();
        f.free(&mut m, a, va, 4096).unwrap();
        assert_eq!(m.stats().cow_faults() - cow0, 2);
    }

    #[test]
    fn no_physical_copy_when_receiver_only_reads() {
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CowFacility::new();
        let va = f.alloc(&mut m, a, 8192).unwrap();
        m.write(a, va, &[1u8; 8192]).unwrap();
        let copies0 = m.stats().pages_copied();
        let rva = f.transfer(&mut m, a, va, 8192, b).unwrap();
        assert_eq!(m.read(b, rva, 8192).unwrap(), vec![1u8; 8192]);
        f.free(&mut m, b, rva, 8192).unwrap();
        assert_eq!(m.stats().pages_copied(), copies0);
    }

    #[test]
    fn copy_semantics_across_reuse() {
        // The sender's buffer reuse must never leak new contents into a
        // previously transferred message.
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CowFacility::new();

        let va = f.alloc(&mut m, a, 64).unwrap();
        m.write(a, va, b"msg-1").unwrap();
        let rva1 = f.transfer(&mut m, a, va, 64, b).unwrap();
        f.free(&mut m, a, va, 64).unwrap();

        // Sender reuses the same buffer for the next message while the
        // receiver still holds the first.
        let va2 = f.alloc(&mut m, a, 64).unwrap();
        assert_eq!(va2, va, "buffer should be reused");
        m.write(a, va2, b"msg-2").unwrap();
        assert_eq!(m.read(b, rva1, 5).unwrap(), b"msg-1");
        f.free(&mut m, b, rva1, 64).unwrap();
    }

    #[test]
    fn sequential_messages_deliver_fresh_contents() {
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CowFacility::new();
        for i in 0..5u8 {
            let va = f.alloc(&mut m, a, 64).unwrap();
            m.write(a, va, &[i; 8]).unwrap();
            let rva = f.transfer(&mut m, a, va, 64, b).unwrap();
            assert_eq!(m.read(b, rva, 8).unwrap(), vec![i; 8]);
            f.free(&mut m, b, rva, 64).unwrap();
            f.free(&mut m, a, va, 64).unwrap();
        }
    }
}
