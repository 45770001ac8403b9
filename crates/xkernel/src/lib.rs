//! x-kernel-style message aggregates over fbufs.
//!
//! The paper layers an *aggregate object* abstraction (x-kernel messages)
//! on top of fbufs: immutable buffer aggregates supporting join, split,
//! clip, and header push/pop — so protocols never mutate data in place and
//! fragmentation/reassembly never copy payload bytes.
//!
//! Two representations are implemented, matching §3.2.3:
//!
//! * [`msg::Msg`] — the *external* representation: the aggregate structure
//!   lives in domain-private memory; a cross-domain transfer passes a list
//!   of fbuf extents and the structure is rebuilt on the receiving side.
//! * [`integrated::IntegratedMsg`] — the *integrated* representation: the
//!   DAG's interior nodes themselves live in fbuf memory at
//!   position-independent (globally identical) virtual addresses, so a
//!   transfer passes only the root address. Receivers defend themselves
//!   with range checks, cycle detection, and the null-read policy
//!   ("invalid DAG references appear to the receiver as the absence of
//!   data", §3.2.4).
//!
//! [`generator`] implements the §5.2 application interface: retrieving
//! application-defined data units from an aggregate with copies only at
//! fragment boundaries. The rest of §5.2's high-bandwidth I/O interface
//! is the facility's own API (fill a path-allocated fbuf in place, wrap
//! it with [`Msg::from_fbuf`], read it back through a [`Generator`]);
//! `examples/image_retrieval.rs` shows it end to end. [`proxy`] moves messages across domains, charging
//! IPC and using the configured transfer regime — its hops route through
//! the event-loop transfer engine (`fbuf::engine`). [`refs::MsgRefs`]
//! gives messages x-kernel reference-counting semantics per domain.
//!
//! Design notes: `DESIGN.md` §4 (aggregate machinery in the system
//! inventory) and §12 (how proxy hops are scheduled).

pub mod generator;
pub mod integrated;
pub mod msg;
pub mod proxy;
pub mod refs;

pub use generator::{DataUnit, Generator};
pub use integrated::{IntegratedMsg, TraverseLimits, TraverseOutcome};
pub use msg::{Extent, Msg};
pub use proxy::deliver;
pub use refs::MsgRefs;
