//! Cross-domain IPC for the fbufs reproduction.
//!
//! The paper's platform used Mach 3.0 IPC with x-kernel proxy objects
//! forwarding cross-domain invocations. The experiments depend on IPC in
//! exactly two ways, both reproduced here:
//!
//! * **control-transfer latency** — "the throughput rates shown for small
//!   messages ... are strongly influenced by the control transfer latency
//!   of the IPC mechanism" ([`Rpc::call`] charges the calibrated latency per
//!   domain pair);
//! * **deallocation notices** — "when an RPC call from the owning domain
//!   occurs, the reply message is used to carry deallocation notices from
//!   this list. When too many freed references have accumulated, an explicit
//!   message must be sent" (paper §3.3; [`NoticeBoard`]).
//!
//! Hops run on one execution model, the [`actor::EventLoop`]: each hop
//! is an event, posted to the destination domain's bounded inbox and
//! handled in deterministic `(time, id)` order, or booked directly when
//! the loop is idle and it would be served the instant it was posted.
//! [`Rpc::call`] is the per-hop charging primitive, invoked on the
//! machine that owns the clock and counters, so a drained hop charges
//! exactly the full round trip of a synchronous call on the single-CPU
//! DecStation, and the loop adds queueing delay, backpressure and the
//! explicit [`actor::SendOutcome::Overload`]. See `DESIGN.md` §12.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

pub mod actor;
pub mod notice;
pub mod rpc;

pub use actor::{Envelope, EventLoop, LoopContext, SendOutcome, DEFAULT_INBOX_DEPTH};
pub use notice::NoticeBoard;
pub use rpc::{Payload, Rpc};
