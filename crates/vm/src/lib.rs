//! Simulated memory and protection substrate for the fbufs reproduction.
//!
//! This crate provides what the paper's Mach 3.0 kernel provided: physical
//! memory, per-protection-domain virtual address spaces, and the primitives
//! a cross-domain transfer facility is built from. The structure mirrors the
//! paper's description of a "two-level virtual memory system":
//!
//! * a **machine-independent map** per domain ([`space::AddressSpace`]):
//!   region-granularity entries describing policy (lazy zero-fill, copy-on-
//!   write inheritance, null-read handling) and maximum protection;
//! * a **machine-dependent pmap** ([`space::Pmap`]): the resident
//!   page → frame + protection table that the (simulated) MMU consults;
//! * a finite, software-refilled, ASID-tagged [`tlb::Tlb`] (R3000-style);
//! * [`phys::PhysMem`]: real byte storage in reference-counted frames, so
//!   data integrity and protection are *testable*, not assumed.
//!
//! Every operation charges calibrated costs from [`fbuf_sim::CostModel`] to
//! the machine's [`fbuf_sim::Clock`] and bumps its [`fbuf_sim::Stats`] counters.
//!
//! The [`facility`] module implements the paper's three baseline transfer
//! mechanisms over this substrate — bounded copy, DASH-style page remapping,
//! and Mach-style lazy copy-on-write — which Table 1 and Figure 3 compare
//! against fbufs.
//!
//! Design notes: `DESIGN.md` §2 (the hardware the paper ran on and what
//! this substrate substitutes for each piece) and §4 (the full system
//! inventory, module by module).

pub mod facility;
pub mod machine;
pub mod phys;
pub mod space;
pub mod tlb;
pub mod types;

pub use machine::{Machine, ObjectId};
pub use phys::{FrameId, PhysMem, SharedPage};
pub use space::{AddressSpace, MapEntry, Pmap, RegionPolicy};
pub use types::{Access, DomainId, Fault, Prot, VmResult, Vpn, KERNEL_DOMAIN};

#[cfg(test)]
mod send_audit {
    //! The sharded multi-core engine (`fbuf::shard`) moves only plain
    //! data between threads. This pins the `Send` story at compile time:
    //! everything that crosses a shard boundary is `Send` (and stays
    //! that way), and so is the `Machine`, which owns its simulated state
    //! by value. The engine built on it, `fbuf::FbufSystem`, is `!Send`
    //! (see the `compile_fail` doctest there), so each shard builds its
    //! own engine inside its thread.

    fn crosses_threads<T: Send>() {}

    #[test]
    fn everything_a_shard_exports_is_send() {
        crosses_threads::<fbuf_sim::MachineConfig>();
        crosses_threads::<fbuf_sim::CostModel>();
        crosses_threads::<fbuf_sim::StatsSnapshot>();
        crosses_threads::<fbuf_sim::TraceEvent>();
        crosses_threads::<Vec<fbuf_sim::TraceEvent>>();
        crosses_threads::<fbuf_sim::Ns>();
        crosses_threads::<crate::DomainId>();
        crosses_threads::<crate::FrameId>();
        crosses_threads::<crate::Prot>();
        crosses_threads::<crate::Fault>();
    }

    #[test]
    fn the_machine_is_send() {
        crosses_threads::<crate::Machine>();
    }
}
