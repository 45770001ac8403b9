//! Fast buffers (fbufs): the paper's high-bandwidth cross-domain transfer
//! facility.
//!
//! An *fbuf* is an immutable, pageable I/O buffer of one or more contiguous
//! virtual-memory pages, living in a virtual address range (the *fbuf
//! region*) that is globally shared among all protection domains. The
//! facility combines two classic techniques — page remapping and shared
//! virtual memory — and layers three optimizations on the basic remapping
//! mechanism (paper §3.2):
//!
//! 1. **Restricted dynamic read sharing** — an fbuf occupies the same
//!    virtual address everywhere; receivers are read-only; writes by a
//!    receiver fault.
//! 2. **Fbuf caching** — on deallocation, an fbuf's mappings are retained
//!    and the buffer parks on a per-*I/O-data-path* LIFO free list; reuse
//!    for the same path skips allocation, page clearing, and every mapping
//!    update.
//! 3. **Volatile fbufs** — by default the originator keeps write
//!    permission; a receiver that must trust the contents calls
//!    [`FbufSystem::secure`], which removes the originator's write access
//!    lazily (a no-op when the originator is the trusted kernel).
//!
//! The combination means that in the common case — path known at
//! allocation time, a cached fbuf available, securing unnecessary — a
//! cross-domain transfer involves **no kernel work at all**: two TLB misses
//! per page is the entire incremental cost (Table 1's 3 µs/page row).
//!
//! [`FbufSystem`] is the facade over the whole mechanism; it owns the
//! simulated [`fbuf_vm::Machine`] and the [`fbuf_ipc::Rpc`] layer.
//! Cross-domain hops route through the per-shard event-loop engine
//! ([`engine`]): domains are actors with bounded inboxes, transfers are
//! events with explicit completion or overload, and the loop charges
//! exactly what one inline RPC per hop would.
//!
//! Design notes: `DESIGN.md` §1 (what the paper builds), §4 (system
//! inventory), §9 (hot-path engineering: arenas, batched range ops),
//! §10 (sharding model), §12 (the event-loop engine and the fbuf
//! lifecycle state machine), §13 (observability: transfer spans,
//! telemetry, and the per-tenant [`ledger`]), and §16 (hostile-tenant
//! containment, [`tenant`]).
//!
//! # Examples
//!
//! The common case end to end — allocate from a path cache, transfer,
//! release, reuse:
//!
//! ```
//! use fbuf::{AllocMode, FbufSystem, SendMode};
//! use fbuf_sim::MachineConfig;
//!
//! let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
//! let driver = fbuf_vm::KERNEL_DOMAIN;
//! let app = fbs.create_domain();
//! let path = fbs.create_path(vec![driver, app])?;
//!
//! // First packet builds the buffer; later packets reuse it for free.
//! for round in 0..3u8 {
//!     let buf = fbs.alloc(driver, AllocMode::Cached(path), 4096)?;
//!     fbs.write_fbuf(driver, buf, 0, &[round; 64])?;
//!     fbs.send(buf, driver, app, SendMode::Volatile)?;
//!     assert_eq!(fbs.read_fbuf(app, buf, 0, 64)?, vec![round; 64]);
//!     fbs.free(buf, app)?;
//!     fbs.free(buf, driver)?;
//! }
//! assert_eq!(fbs.stats().fbuf_cache_hits(), 2);
//! # Ok::<(), fbuf::FbufError>(())
//! ```

pub mod buffer;
pub mod engine;
pub mod error;
pub mod ledger;
pub mod path;
pub mod policy;
pub mod region;
pub mod shard;
pub mod system;
pub mod tenant;

pub use buffer::{Fbuf, FbufHot, FbufId, FbufState};
pub use engine::{run_offered_load, HopMsg, QueueConfig, QueueReport};
pub use error::{FbufError, FbufResult};
pub use ledger::{Ledger, TenantRow};
pub use path::{DataPath, PathId};
pub use policy::QuotaPolicy;
pub use region::ChunkAllocator;
pub use shard::{
    fleet_ledger, fleet_snapshot, fleet_telemetry, fleet_trace, run_fleet, shard_of_path,
    CrossShardMsg, FleetConfig, Links, NoticeBatch, Shard, ShardReport, NOTICE_BATCH_MAX,
};
pub use system::{AllocMode, FbufSystem, ReusePolicy, SendMode};
pub use tenant::JailConfig;
