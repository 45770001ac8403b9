//! Network substrate: the protocol stack and drivers of the paper's
//! evaluation.
//!
//! The paper measures fbufs under an x-kernel protocol graph: a test
//! protocol over UDP/IP, with either a local loopback protocol below IP
//! (simulating an infinitely fast network — Figure 4) or a driver for the
//! Osiris ATM board connected by a null modem (Figures 5 and 6). This
//! crate rebuilds that stack over the fbuf facility:
//!
//! * [`ip`] — fragmentation and reassembly at a configurable PDU size
//!   (4 KB for loopback, 16/32 KB for Osiris), all zero-copy via message
//!   splits and joins;
//! * [`udp`] — port demultiplexing (and an optional checksum that really
//!   touches every byte, for CPU-load experiments);
//! * [`host`] — a simulated host: an [`fbuf::FbufSystem`] plus the domain
//!   placement of the protocol stack (kernel-only, user, or
//!   user-netserver-user) and the buffer regime (cached/uncached ×
//!   volatile/secured);
//! * [`loopback`] — the Figure 4 harness: UDP/IP local loopback across one
//!   or three protection domains;
//! * [`osiris`] — the Osiris driver model (per-VCI queues of preallocated
//!   cached fbufs for the 16 most recent paths, per-cell DMA ceilings, bus
//!   contention) and the two-host end-to-end harness with sliding-window
//!   flow control (Figures 5 and 6, and the §4 CPU-load experiment).
//!
//! Every cross-domain hop in this stack goes through
//! `fbuf::FbufSystem::hop`, i.e. the event-loop transfer engine, whose
//! clock and counters are pinned per workload by the goldens in
//! `tests/counter_exactness.rs`.
//!
//! Design notes: `DESIGN.md` §4 (system inventory), §5 (which harness
//! regenerates which figure), and §12 (the event-loop engine).

pub mod host;
pub mod ip;
pub mod loopback;
pub mod osiris;
pub mod pdu;
pub mod reliable;
pub mod transform;
pub mod udp;

pub use host::{AllocStrategy, DomainSetup, Fill, Host};
pub use loopback::{LoopbackConfig, LoopbackStack};
pub use osiris::{EndToEnd, EndToEndConfig, EndToEndReport};
pub use pdu::WirePdu;
pub use reliable::{ReliableChannel, ReliableConfig, ReliableStats, TransportError};
