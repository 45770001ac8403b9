//! Kernel-mediated copy transfer (the pre-fbuf default path).

use std::collections::HashMap;

use crate::facility::{window_base, TransferMechanism, BUF_WINDOW_SIZE};
use crate::machine::Machine;
use crate::types::{DomainId, Fault, VmResult};
use fbuf_sim::EventKind;

/// Transfers data by physically copying it between per-domain private
/// buffers through the kernel.
///
/// This is the mechanism whose cost the whole paper is about avoiding: "as
/// network bandwidth approaches memory bandwidth, copying data from one
/// domain to another simply cannot keep up with improved network
/// performance."
pub struct CopyFacility {
    /// Offset of this facility's sub-window within each domain window (so
    /// two facilities can coexist, as in [`crate::facility::MachNative`]).
    offset: u64,
    /// Per-domain bump pointer within the domain's buffer window.
    bump: HashMap<u32, u64>,
    /// Live buffers: (domain, va) → pages.
    live: HashMap<(u32, u64), u64>,
    /// Freed buffers kept mapped for reuse, keyed by (domain, pages) — a
    /// realistic sender/receiver reuses its buffers rather than paying
    /// allocation and zero-fill per message.
    cache: HashMap<(u32, u64), Vec<u64>>,
}

impl CopyFacility {
    /// Creates the facility.
    pub fn new() -> CopyFacility {
        CopyFacility::with_offset(0)
    }

    /// Creates the facility carving from `offset` within each domain
    /// window.
    pub fn with_offset(offset: u64) -> CopyFacility {
        assert!(offset < BUF_WINDOW_SIZE);
        CopyFacility {
            offset,
            bump: HashMap::new(),
            live: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    fn carve(&mut self, m: &Machine, dom: DomainId, len: u64) -> VmResult<u64> {
        let pages = m.config().pages_for(len).max(1);
        let bump = self.bump.entry(dom.0).or_insert(0);
        let va = window_base(dom) + self.offset + *bump;
        // One guard page between buffers catches overruns in tests.
        let need = (pages + 1) * m.page_size();
        if self.offset + *bump + need > BUF_WINDOW_SIZE {
            return Err(Fault::OutOfMemory);
        }
        *bump += need;
        Ok(va)
    }
}

impl Default for CopyFacility {
    fn default() -> CopyFacility {
        CopyFacility::new()
    }
}

impl TransferMechanism for CopyFacility {
    fn name(&self) -> &'static str {
        "copy"
    }

    fn alloc(&mut self, m: &mut Machine, dom: DomainId, len: u64) -> VmResult<u64> {
        let t0 = m.now();
        let pages = m.config().pages_for(len).max(1);
        if let Some(va) = self.cache.get_mut(&(dom.0, pages)).and_then(|v| v.pop()) {
            self.live.insert((dom.0, va), pages);
            m.tracer().span(t0, m.now(), EventKind::Alloc, dom.0, None, None);
            return Ok(va);
        }
        let va = self.carve(m, dom, len)?;
        m.map_anon_region(dom, va, pages)?;
        self.live.insert((dom.0, va), pages);
        m.tracer().span(t0, m.now(), EventKind::Alloc, dom.0, None, None);
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
        let t0 = m.now();
        let dst_va = self.alloc(m, dst, len)?;
        m.copy_data(src, va, dst, dst_va, len)?;
        m.tracer()
            .span_peer(t0, m.now(), EventKind::Transfer, src.0, Some(dst.0), None, None);
        Ok(dst_va)
    }

    fn free(&mut self, m: &mut Machine, dom: DomainId, va: u64, _len: u64) -> VmResult<()> {
        let pages = self
            .live
            .remove(&(dom.0, va))
            .ok_or(Fault::NoSuchRegion { va })?;
        self.cache.entry((dom.0, pages)).or_default().push(va);
        m.tracer().instant(m.now(), EventKind::Free, dom.0, None, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MachineConfig;

    #[test]
    fn copy_charges_page_copy_cost() {
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CopyFacility::new();
        let va = f.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, &[9u8; 4096]).unwrap();
        let t0 = m.now();
        f.transfer(&mut m, a, va, 4096, b).unwrap();
        let dt = m.now() - t0;
        // At least one full page copy must have been charged.
        assert!(dt >= m.costs().page_copy, "copy too cheap: {dt}");
    }

    #[test]
    fn sender_buffer_unaffected_by_transfer() {
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = CopyFacility::new();
        let va = f.alloc(&mut m, a, 100).unwrap();
        m.write(a, va, b"before").unwrap();
        let rva = f.transfer(&mut m, a, va, 100, b).unwrap();
        // True copy semantics: mutating either side is invisible to the
        // other.
        m.write(a, va, b"AFTER!").unwrap();
        assert_eq!(m.read(b, rva, 6).unwrap(), b"before");
        f.free(&mut m, b, rva, 100).unwrap();
        assert_eq!(m.read(a, va, 6).unwrap(), b"AFTER!");
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let mut f = CopyFacility::new();
        let va = f.alloc(&mut m, a, 64).unwrap();
        f.free(&mut m, a, va, 64).unwrap();
        assert!(f.free(&mut m, a, va, 64).is_err());
    }

    #[test]
    fn window_exhaustion_reported() {
        let mut m = Machine::new(MachineConfig::tiny());
        let a = m.create_domain();
        let mut f = CopyFacility::new();
        // Each alloc consumes len+guard; a huge request must fail cleanly.
        assert!(matches!(
            f.alloc(&mut m, a, BUF_WINDOW_SIZE),
            Err(Fault::OutOfMemory)
        ));
    }
}
