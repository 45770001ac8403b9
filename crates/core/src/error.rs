//! Error type for fbuf operations.

use core::fmt;

use fbuf_vm::{DomainId, Fault};

use crate::buffer::FbufId;
use crate::path::PathId;

/// Errors surfaced by the fbuf facility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbufError {
    /// An underlying VM operation faulted.
    Vm(Fault),
    /// The per-path allocator hit its chunk quota ("the kernel limits the
    /// number of chunks that can be allocated to any data path-specific
    /// fbuf allocator", §3.3).
    QuotaExceeded {
        /// The path whose allocator was denied.
        path: Option<PathId>,
    },
    /// The fbuf region itself has no chunks left.
    RegionExhausted,
    /// The named fbuf does not exist (stale id).
    NoSuchFbuf(FbufId),
    /// The named path does not exist.
    NoSuchPath(PathId),
    /// The acting domain holds no reference to the fbuf.
    NotHolder {
        /// The acting domain.
        domain: DomainId,
        /// The fbuf in question.
        fbuf: FbufId,
    },
    /// The requested allocation is larger than a chunk.
    TooLarge {
        /// Requested length in bytes.
        requested: u64,
        /// Maximum supported length in bytes.
        max: u64,
    },
    /// The domain is not registered with the fbuf system.
    UnknownDomain(DomainId),
    /// The domain is jailed by the hoard detector: it holds more bytes
    /// than the jail threshold and has not freed anything for too many
    /// allocation rounds, so further allocations are denied until the
    /// jail escalates to revocation (or the tenant frees).
    TenantJailed(DomainId),
    /// A transfer was submitted with fewer than two domains on its
    /// route, so it has no hop to make.
    RouteTooShort {
        /// Domains on the submitted route.
        len: usize,
    },
    /// The transfer engine was called while it is pumping (from inside
    /// a hop handler), when it cannot accept a new transfer.
    EngineBusy,
}

impl fmt::Display for FbufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbufError::Vm(fault) => write!(f, "vm fault: {fault}"),
            FbufError::QuotaExceeded { path } => match path {
                Some(p) => write!(f, "chunk quota exceeded for path {}", p.0),
                None => write!(f, "chunk quota exceeded for default allocator"),
            },
            FbufError::RegionExhausted => write!(f, "fbuf region exhausted"),
            FbufError::NoSuchFbuf(id) => write!(f, "no such fbuf: {}", id.0),
            FbufError::NoSuchPath(id) => write!(f, "no such path: {}", id.0),
            FbufError::NotHolder { domain, fbuf } => {
                write!(f, "{domain} holds no reference to fbuf {}", fbuf.0)
            }
            FbufError::TooLarge { requested, max } => {
                write!(f, "allocation of {requested} bytes exceeds maximum {max}")
            }
            FbufError::UnknownDomain(d) => write!(f, "domain {d} not registered"),
            FbufError::TenantJailed(d) => {
                write!(f, "{d} jailed by the hoard detector: allocation denied")
            }
            FbufError::RouteTooShort { len } => {
                write!(f, "a transfer route needs at least 2 domains, got {len}")
            }
            FbufError::EngineBusy => write!(f, "transfer engine is busy pumping"),
        }
    }
}

impl std::error::Error for FbufError {}

impl From<Fault> for FbufError {
    fn from(fault: Fault) -> FbufError {
        FbufError::Vm(fault)
    }
}

/// Result alias for fbuf operations.
pub type FbufResult<T> = Result<T, FbufError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FbufError::RegionExhausted.to_string().contains("exhausted"));
        assert!(FbufError::NoSuchFbuf(FbufId(7)).to_string().contains('7'));
        assert!(FbufError::QuotaExceeded {
            path: Some(PathId(3))
        }
        .to_string()
        .contains('3'));
        let e = FbufError::NotHolder {
            domain: DomainId(2),
            fbuf: FbufId(9),
        };
        assert!(e.to_string().contains("domain2"));
        assert!(FbufError::RouteTooShort { len: 1 }
            .to_string()
            .contains("got 1"));
        assert!(FbufError::EngineBusy.to_string().contains("busy"));
    }

    #[test]
    fn from_fault() {
        let e: FbufError = Fault::OutOfMemory.into();
        assert_eq!(e, FbufError::Vm(Fault::OutOfMemory));
    }
}
