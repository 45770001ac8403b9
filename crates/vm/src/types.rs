//! Core identifier, protection, and fault types.

use core::fmt;

/// A protection domain identifier.
///
/// Domain 0 is the kernel ([`KERNEL_DOMAIN`]), which is *trusted*: buffers it
/// originates never need their immutability enforced (paper §2.1.3).
/// It is also the default id.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

/// The kernel's domain id.
pub const KERNEL_DOMAIN: DomainId = DomainId(0);

impl DomainId {
    /// True for the kernel domain.
    pub fn is_kernel(self) -> bool {
        self == KERNEL_DOMAIN
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_kernel() {
            write!(f, "kernel")
        } else {
            write!(f, "domain{}", self.0)
        }
    }
}

/// A virtual page number (virtual address divided by the page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The page containing virtual address `va`.
    pub fn containing(va: u64, page_size: u64) -> Vpn {
        Vpn(va / page_size)
    }

    /// The base virtual address of this page.
    pub fn base(self, page_size: u64) -> u64 {
        self.0 * page_size
    }

    /// The `n`th page after this one.
    pub fn offset(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

/// Page protection, ordered by privilege (`None < Read < ReadWrite`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prot {
    /// No access.
    None,
    /// Read-only.
    Read,
    /// Read and write.
    ReadWrite,
}

impl Prot {
    /// True if this protection permits `access`.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self >= Prot::Read,
            Access::Write => self == Prot::ReadWrite,
        }
    }
}

/// The kind of memory access being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A memory-management fault delivered to the accessing domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The domain attempted an access its protection does not permit —
    /// e.g. a receiver writing an fbuf, or the originator writing a secured
    /// fbuf.
    AccessViolation {
        /// The offending domain.
        domain: DomainId,
        /// The faulting virtual address.
        va: u64,
        /// What was attempted.
        access: Access,
    },
    /// The address is not mapped in the domain and no region policy can
    /// satisfy the access.
    Unmapped {
        /// The offending domain.
        domain: DomainId,
        /// The faulting virtual address.
        va: u64,
    },
    /// Physical memory is exhausted.
    OutOfMemory,
    /// The domain does not exist or has terminated.
    BadDomain(DomainId),
    /// A region operation conflicts with an existing region.
    RegionOverlap {
        /// Start of the conflicting existing region (virtual address).
        existing_va: u64,
    },
    /// The virtual range is not backed by any region.
    NoSuchRegion {
        /// The virtual address that was looked up.
        va: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::AccessViolation { domain, va, access } => {
                write!(f, "{domain}: {access:?} access violation at {va:#x}")
            }
            Fault::Unmapped { domain, va } => {
                write!(f, "{domain}: unmapped address {va:#x}")
            }
            Fault::OutOfMemory => write!(f, "out of physical memory"),
            Fault::BadDomain(d) => write!(f, "no such domain: {d}"),
            Fault::RegionOverlap { existing_va } => {
                write!(f, "region overlaps existing region at {existing_va:#x}")
            }
            Fault::NoSuchRegion { va } => write!(f, "no region at {va:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Result alias for VM operations.
pub type VmResult<T> = Result<T, Fault>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prot_ordering_and_allows() {
        assert!(Prot::None < Prot::Read);
        assert!(Prot::Read < Prot::ReadWrite);
        assert!(!Prot::None.allows(Access::Read));
        assert!(!Prot::None.allows(Access::Write));
        assert!(Prot::Read.allows(Access::Read));
        assert!(!Prot::Read.allows(Access::Write));
        assert!(Prot::ReadWrite.allows(Access::Read));
        assert!(Prot::ReadWrite.allows(Access::Write));
    }

    #[test]
    fn vpn_math() {
        let p = Vpn::containing(0x4000_1234, 4096);
        assert_eq!(p, Vpn(0x4000_1000 / 4096));
        assert_eq!(p.base(4096), 0x4000_1000);
        assert_eq!(p.offset(2).base(4096), 0x4000_3000);
    }

    #[test]
    fn kernel_domain_is_zero() {
        assert!(KERNEL_DOMAIN.is_kernel());
        assert!(!DomainId(3).is_kernel());
        assert_eq!(KERNEL_DOMAIN.to_string(), "kernel");
        assert_eq!(DomainId(3).to_string(), "domain3");
    }

    #[test]
    fn fault_display() {
        let f = Fault::AccessViolation {
            domain: DomainId(2),
            va: 0x1000,
            access: Access::Write,
        };
        assert!(f.to_string().contains("domain2"));
        assert!(f.to_string().contains("0x1000"));
    }
}
