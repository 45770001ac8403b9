//! A DASH-style page-remapping transfer facility (move semantics).
//!
//! Reimplements the facility the paper re-measures in §2.2.1: buffers live
//! in a globally reserved window mapped at the same virtual address in every
//! domain; a transfer unmaps the pages from the sender and maps them into
//! the receiver. Unlike fbuf pmap updates, each remap operation goes
//! through *both* levels of the VM system, which is what makes it cost
//! `remap_map`/`remap_unmap` rather than the cheaper `pte_map`/`pte_unmap`.
//!
//! Two measurement modes matter:
//!
//! * **ping-pong** (`transfer` back and forth over a live buffer): the
//!   Tzou/Anderson methodology, ~22 µs/page on the DecStation;
//! * **streaming** (`alloc` → `transfer` → `free` per message, with a
//!   configurable fraction of each page cleared for security): the paper's
//!   corrected methodology, 42–99 µs/page.

use std::collections::HashMap;

use crate::facility::TransferMechanism;
use crate::machine::Machine;
use crate::phys::FrameId;
use crate::types::{DomainId, Fault, Prot, VmResult};
use fbuf_sim::{CostCategory, EventKind, Ns};

/// Base of the globally shared remap window (distinct from the fbuf
/// region).
pub const REMAP_WINDOW_BASE: u64 = 0x8000_0000;
/// Size of the remap window.
pub const REMAP_WINDOW_SIZE: u64 = 64 << 20;

struct RemapBuf {
    frames: Vec<FrameId>,
    holder: DomainId,
}

/// The remapping facility.
pub struct RemapFacility {
    /// Fraction (0.0–1.0) of each freshly allocated page that must be
    /// cleared for security. The paper's 42 µs/page corresponds to 0.0 and
    /// 99 µs/page to 1.0.
    pub clear_fraction: f64,
    bump: u64,
    bufs: HashMap<u64, RemapBuf>,
    prepared: Vec<DomainId>,
}

impl RemapFacility {
    /// Creates the facility with the given security clearing fraction.
    pub fn new(clear_fraction: f64) -> RemapFacility {
        assert!((0.0..=1.0).contains(&clear_fraction));
        RemapFacility {
            clear_fraction,
            bump: 0,
            bufs: HashMap::new(),
            prepared: Vec::new(),
        }
    }

    /// Ensures `dom` has the remap window region installed.
    fn prepare(&mut self, m: &mut Machine, dom: DomainId) -> VmResult<()> {
        if self.prepared.contains(&dom) {
            return Ok(());
        }
        m.map_explicit_region(
            dom,
            REMAP_WINDOW_BASE,
            REMAP_WINDOW_SIZE / m.page_size(),
            Prot::ReadWrite,
        )?;
        self.prepared.push(dom);
        Ok(())
    }

    /// Extra per-page cost of a remap-facility map over a plain pmap
    /// update: the machine-independent layer's share.
    fn extra_map(m: &Machine) -> Ns {
        m.costs().remap_map - m.costs().pte_map
    }

    fn extra_unmap(m: &Machine) -> Ns {
        m.costs().remap_unmap - m.costs().pte_unmap
    }
}

impl TransferMechanism for RemapFacility {
    fn name(&self) -> &'static str {
        "remap"
    }

    fn alloc(&mut self, m: &mut Machine, dom: DomainId, len: u64) -> VmResult<u64> {
        let t0 = m.now();
        self.prepare(m, dom)?;
        let pages = m.config().pages_for(len).max(1);
        let page = m.page_size();
        if self.bump + pages * page > REMAP_WINDOW_SIZE {
            return Err(Fault::OutOfMemory);
        }
        let va = REMAP_WINDOW_BASE + self.bump;
        self.bump += pages * page;
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            // Reserve the VA slot, allocate a frame, and clear the
            // configured fraction.
            m.charge(CostCategory::Vm, m.costs().remap_va_alloc);
            let frame = m.alloc_frame()?;
            if self.clear_fraction > 0.0 {
                let cost = Ns((m.costs().page_zero.as_ns() as f64 * self.clear_fraction) as u64);
                m.charge(CostCategory::DataMove, cost);
            }
            // Functionally always clear the whole page: the fraction
            // models how much *time* the partial clear takes, but a
            // partially dirty page would be a security bug.
            m.zero_frame_quietly(frame);
            frames.push(frame);
        }
        // Map writable through both VM levels: the machine-independent
        // layer's share charged per page, the pmap share batched (same
        // totals as the per-page loop).
        m.charge(CostCategory::Vm, Self::extra_map(m) * pages);
        m.map_range(dom, va, &frames, Prot::ReadWrite)?;
        self.bufs.insert(
            va,
            RemapBuf {
                frames,
                holder: dom,
            },
        );
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
        self.prepare(m, dst)?;
        let _ = len;
        let buf = self.bufs.get_mut(&va).ok_or(Fault::NoSuchRegion { va })?;
        if buf.holder != src {
            return Err(Fault::AccessViolation {
                domain: src,
                va,
                access: crate::types::Access::Write,
            });
        }
        buf.holder = dst;
        let frames = &buf.frames;
        let n = frames.len() as u64;
        // Move semantics: unmap the whole buffer from the sender, map it
        // into the receiver at the same address — one range op each way
        // instead of two per page (no frame-list clone, same charges).
        m.charge(CostCategory::Vm, Self::extra_unmap(m) * n);
        m.unmap_range(src, va, n)?;
        m.charge(CostCategory::Vm, Self::extra_map(m) * n);
        m.map_range(dst, va, frames, Prot::ReadWrite)?;
        m.tracer()
            .span_peer(t0, m.now(), EventKind::Transfer, src.0, Some(dst.0), None, None);
        Ok(va)
    }

    fn free(&mut self, m: &mut Machine, dom: DomainId, va: u64, _len: u64) -> VmResult<()> {
        let buf = self.bufs.remove(&va).ok_or(Fault::NoSuchRegion { va })?;
        if buf.holder != dom {
            self.bufs.insert(va, buf);
            return Err(Fault::BadDomain(dom));
        }
        let n = buf.frames.len() as u64;
        m.charge(CostCategory::Vm, Self::extra_unmap(m) * n);
        m.unmap_range(dom, va, n)?;
        for frame in &buf.frames {
            m.release_frame(*frame);
        }
        m.tracer().instant(m.now(), EventKind::Free, dom.0, None, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MachineConfig;

    fn setup() -> (Machine, DomainId, DomainId) {
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let a = m.create_domain();
        let b = m.create_domain();
        (m, a, b)
    }

    #[test]
    fn move_semantics_sender_loses_access() {
        let (mut m, a, b) = setup();
        let mut f = RemapFacility::new(0.0);
        let va = f.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, b"moved").unwrap();
        f.transfer(&mut m, a, va, 4096, b).unwrap();
        // The sender's mapping is gone.
        assert!(m.read(a, va, 5).is_err());
        assert_eq!(m.read(b, va, 5).unwrap(), b"moved");
        f.free(&mut m, b, va, 4096).unwrap();
    }

    #[test]
    fn same_virtual_address_both_sides() {
        let (mut m, a, b) = setup();
        let mut f = RemapFacility::new(0.0);
        let va = f.alloc(&mut m, a, 8192).unwrap();
        let rva = f.transfer(&mut m, a, va, 8192, b).unwrap();
        assert_eq!(va, rva);
        f.free(&mut m, b, va, 8192).unwrap();
    }

    #[test]
    fn non_holder_cannot_transfer_or_free() {
        let (mut m, a, b) = setup();
        let mut f = RemapFacility::new(0.0);
        let va = f.alloc(&mut m, a, 4096).unwrap();
        assert!(f.transfer(&mut m, b, va, 4096, a).is_err());
        assert!(f.free(&mut m, b, va, 4096).is_err());
        f.free(&mut m, a, va, 4096).unwrap();
    }

    #[test]
    fn pingpong_page_cost_matches_paper() {
        // Touch-inclusive one-way remap of a hot page: ~22 µs (paper:
        // "it is possible to achieve an incremental overhead of 22 µs/page
        // in the ping-pong test").
        let (mut m, a, b) = setup();
        let mut f = RemapFacility::new(0.0);
        let va = f.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, &[1]).unwrap();
        // Warm-up bounce.
        f.transfer(&mut m, a, va, 4096, b).unwrap();
        m.read(b, va, 1).unwrap();
        f.transfer(&mut m, b, va, 4096, a).unwrap();
        m.write(a, va, &[2]).unwrap();
        let t0 = m.now();
        f.transfer(&mut m, a, va, 4096, b).unwrap();
        m.read(b, va, 1).unwrap();
        let one_way = (m.now() - t0).as_us_f64();
        assert!(
            (one_way - 22.0).abs() <= 2.0,
            "ping-pong one-way cost {one_way} µs, expected ≈22 µs"
        );
        f.free(&mut m, b, va, 4096).unwrap();
    }

    #[test]
    fn streaming_page_cost_range_matches_paper() {
        // Full allocate/transfer/deallocate cycle: 42 µs/page with no
        // clearing, 99 µs/page with full clearing.
        for (fraction, expect) in [(0.0, 42.0), (1.0, 99.0)] {
            let (mut m, a, b) = setup();
            let mut f = RemapFacility::new(fraction);
            // Warm-up cycle.
            let va = f.alloc(&mut m, a, 4096).unwrap();
            m.write(a, va, &[1]).unwrap();
            f.transfer(&mut m, a, va, 4096, b).unwrap();
            m.read(b, va, 1).unwrap();
            f.free(&mut m, b, va, 4096).unwrap();
            let t0 = m.now();
            let va = f.alloc(&mut m, a, 4096).unwrap();
            m.write(a, va, &[1]).unwrap();
            f.transfer(&mut m, a, va, 4096, b).unwrap();
            m.read(b, va, 1).unwrap();
            f.free(&mut m, b, va, 4096).unwrap();
            let cycle = (m.now() - t0).as_us_f64();
            assert!(
                (cycle - expect).abs() <= 3.0,
                "streaming cost {cycle} µs at clear fraction {fraction}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn fresh_buffers_are_always_functionally_clean() {
        // Even with clear_fraction 0 (no *charged* clearing) the facility
        // must not leak a previous owner's bytes.
        let (mut m, a, b) = setup();
        let mut f = RemapFacility::new(0.0);
        let va = f.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, b"secret").unwrap();
        f.transfer(&mut m, a, va, 4096, b).unwrap();
        f.free(&mut m, b, va, 4096).unwrap();
        let va2 = f.alloc(&mut m, b, 4096).unwrap();
        let data = m.read(b, va2, 4096).unwrap();
        assert!(data.iter().all(|&b| b == 0), "stale data leaked");
    }
}
