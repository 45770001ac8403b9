//! A reliable transport over a lossy link: why copy semantics matter.
//!
//! §2.1.3: "Copy semantics are required when the passing layer needs to
//! retain access to the buffer, for example, because it may need to
//! retransmit it sometime in the future. Note that there are no
//! performance advantages in providing move rather than copy semantics
//! since buffers are immutable" — and conversely, §2.2.1 faults page
//! remapping because "move ... semantics limits its utility to situations
//! where the sender needs no further access to the transferred data."
//!
//! [`ReliableChannel`] is a selective-repeat ARQ transport built on fbufs:
//! the sender *retains its reference* to every in-flight segment (free —
//! the buffer is shared, not copied) and retransmits from the very same
//! fbuf on loss. The companion test shows the same protocol is
//! unimplementable over the move-semantics remap facility.

use core::fmt;
use std::collections::BTreeMap;

use fbuf::{AllocMode, FbufError, FbufResult, FbufSystem, PathId, SendMode};
use fbuf_sim::{CostCategory, Ns};
use fbuf_vm::DomainId;
use fbuf_xkernel::{Msg, MsgRefs};

/// Retransmission timeout charged (as sender idle time) per lost segment.
const RTO: Ns = Ns(2_000_000);

/// Transport-level failures.
#[derive(Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A segment exceeded its retry budget.
    RetriesExhausted {
        /// Sequence number of the abandoned segment.
        seq: u64,
        /// Transmission attempts made.
        attempts: u32,
    },
    /// An underlying buffer operation failed.
    Fbuf(FbufError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::RetriesExhausted { seq, attempts } => {
                write!(f, "segment {seq} abandoned after {attempts} attempts")
            }
            TransportError::Fbuf(e) => write!(f, "buffer error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FbufError> for TransportError {
    fn from(e: FbufError) -> TransportError {
        TransportError::Fbuf(e)
    }
}

/// Configuration of the lossy reliable channel.
#[derive(Debug, Clone)]
pub struct ReliableConfig {
    /// Drop every Nth transmission on the simulated wire (0 = lossless).
    pub drop_every: u64,
    /// Give up after this many retransmissions of one segment.
    pub max_retries: u32,
    /// Segment size in bytes.
    pub segment: u64,
}

impl Default for ReliableConfig {
    fn default() -> ReliableConfig {
        ReliableConfig {
            drop_every: 0,
            max_retries: 8,
            segment: 4096,
        }
    }
}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Segments handed to the wire (including retransmissions).
    pub transmissions: u64,
    /// Segments the wire dropped.
    pub drops: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Segments delivered to the receiver, in order.
    pub delivered: u64,
}

/// A reliable, in-order byte channel between two domains over a lossy
/// simulated wire.
#[derive(Debug)]
pub struct ReliableChannel {
    cfg: ReliableConfig,
    sender: DomainId,
    receiver: DomainId,
    path: PathId,
    next_seq: u64,
    next_expected: u64,
    /// Out-of-order segments parked at the receiver.
    reorder: BTreeMap<u64, Msg>,
    /// In-order payload the receiver has accepted.
    received: Vec<u8>,
    tx_count: u64,
    /// Statistics.
    pub stats: ReliableStats,
}

impl ReliableChannel {
    /// Creates a channel (and its data path) between two registered
    /// domains.
    pub fn new(
        fbs: &mut FbufSystem,
        sender: DomainId,
        receiver: DomainId,
        cfg: ReliableConfig,
    ) -> FbufResult<ReliableChannel> {
        let path = fbs.create_path(vec![sender, receiver])?;
        Ok(ReliableChannel {
            cfg,
            sender,
            receiver,
            path,
            next_seq: 0,
            next_expected: 0,
            reorder: BTreeMap::new(),
            received: Vec::new(),
            tx_count: 0,
            stats: ReliableStats::default(),
        })
    }

    /// True if the wire eats this transmission.
    fn wire_drops(&mut self) -> bool {
        self.tx_count += 1;
        self.cfg.drop_every > 0 && self.tx_count.is_multiple_of(self.cfg.drop_every)
    }

    /// Sends `data` reliably; returns when every segment has been
    /// delivered and acknowledged (or fails after `max_retries`).
    pub fn send(
        &mut self,
        fbs: &mut FbufSystem,
        refs: &mut MsgRefs,
        data: &[u8],
    ) -> Result<(), TransportError> {
        for chunk in data.chunks(self.cfg.segment as usize) {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Build the segment in a cached fbuf and keep our reference —
            // that *is* the retransmission buffer; no copy is ever made.
            let id = fbs.alloc(
                self.sender,
                AllocMode::Cached(self.path),
                chunk.len() as u64,
            )?;
            fbs.write_fbuf(self.sender, id, 0, chunk)?;
            let msg = Msg::from_fbuf(id, 0, chunk.len() as u64);
            refs.adopt(self.sender, &msg);

            let mut attempt = 0;
            loop {
                self.stats.transmissions += 1;
                fbs.hop(self.sender, self.receiver);
                if self.wire_drops() {
                    self.stats.drops += 1;
                    attempt += 1;
                    if attempt > self.cfg.max_retries {
                        // Give up; release our retained reference.
                        refs.release(fbs, self.sender, &msg)?;
                        return Err(TransportError::RetriesExhausted {
                            seq,
                            attempts: attempt,
                        });
                    }
                    // Timeout, then retransmit *the same fbuf*.
                    fbs.machine_mut().clock_mut().idle_for(RTO);
                    self.stats.retransmissions += 1;
                    continue;
                }
                // Delivered: grant the receiver its reference.
                fbs.send(id, self.sender, self.receiver, SendMode::Volatile)?;
                refs.adopt(self.receiver, &msg);
                self.deliver(fbs, refs, seq, msg.clone())?;
                break;
            }
            // Acked (the synchronous model acknowledges on delivery): the
            // sender releases its retained reference; the cached buffer
            // parks for reuse.
            let ack_cost = fbs.machine().costs().ipc_dispatch;
            fbs.machine_mut().charge(CostCategory::Protocol, ack_cost);
            refs.release(fbs, self.sender, &msg)?;
        }
        Ok(())
    }

    /// Receiver-side segment processing with in-order delivery.
    fn deliver(
        &mut self,
        fbs: &mut FbufSystem,
        refs: &mut MsgRefs,
        seq: u64,
        msg: Msg,
    ) -> FbufResult<()> {
        self.reorder.insert(seq, msg);
        while let Some(msg) = self.reorder.remove(&self.next_expected) {
            // The receiver distrusts the (volatile) contents only at the
            // moment it commits them; a paranoid receiver would secure —
            // here it consumes immediately, which is equivalent.
            self.received.extend(msg.gather(fbs, self.receiver)?);
            refs.release(fbs, self.receiver, &msg)?;
            self.next_expected += 1;
            self.stats.delivered += 1;
        }
        Ok(())
    }

    /// Everything delivered in order so far.
    pub fn received(&self) -> &[u8] {
        &self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MachineConfig;
    use fbuf_vm::facility::{RemapFacility, TransferMechanism};
    use fbuf_vm::Machine;

    fn setup() -> (FbufSystem, MsgRefs, DomainId, DomainId) {
        let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
        let a = fbs.create_domain();
        let b = fbs.create_domain();
        (fbs, MsgRefs::new(), a, b)
    }

    #[test]
    fn lossless_delivery() {
        let (mut fbs, mut refs, a, b) = setup();
        let mut ch = ReliableChannel::new(&mut fbs, a, b, ReliableConfig::default()).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        ch.send(&mut fbs, &mut refs, &data).unwrap();
        assert_eq!(ch.received(), &data[..]);
        assert_eq!(ch.stats.retransmissions, 0);
        assert_eq!(ch.stats.delivered, 5);
    }

    #[test]
    fn lossy_wire_retransmits_from_the_retained_buffer() {
        let (mut fbs, mut refs, a, b) = setup();
        let cfg = ReliableConfig {
            drop_every: 3,
            ..ReliableConfig::default()
        };
        let mut ch = ReliableChannel::new(&mut fbs, a, b, cfg).unwrap();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
        let copies0 = fbs.stats().pages_copied();
        ch.send(&mut fbs, &mut refs, &data).unwrap();
        assert_eq!(ch.received(), &data[..]);
        assert!(ch.stats.drops > 0);
        assert_eq!(ch.stats.retransmissions, ch.stats.drops);
        // Retransmission never copied a byte: the retained fbuf is shared.
        assert_eq!(fbs.stats().pages_copied(), copies0);
        // And no buffers leaked: everything parked back on the path cache.
        assert_eq!(refs.outstanding(), 0);
    }

    #[test]
    fn heavy_loss_eventually_gives_up_cleanly() {
        let (mut fbs, mut refs, a, b) = setup();
        let cfg = ReliableConfig {
            drop_every: 1, // the wire drops everything
            max_retries: 3,
            ..ReliableConfig::default()
        };
        let mut ch = ReliableChannel::new(&mut fbs, a, b, cfg).unwrap();
        assert!(matches!(
            ch.send(&mut fbs, &mut refs, b"doomed"),
            Err(TransportError::RetriesExhausted {
                seq: 0,
                attempts: 4
            })
        ));
        // The failed segment's buffer was released, not leaked.
        assert_eq!(refs.outstanding(), 0);
        assert_eq!(ch.stats.delivered, 0);
    }

    #[test]
    fn retained_references_bound_not_grow() {
        let (mut fbs, mut refs, a, b) = setup();
        let cfg = ReliableConfig {
            drop_every: 4,
            ..ReliableConfig::default()
        };
        let mut ch = ReliableChannel::new(&mut fbs, a, b, cfg).unwrap();
        for round in 0..10u8 {
            ch.send(&mut fbs, &mut refs, &[round; 10_000]).unwrap();
        }
        // The cached path recycles segments: live buffers stay bounded by
        // one message's worth, not 10 rounds' worth.
        assert!(fbs.live_fbufs() <= 4, "live: {}", fbs.live_fbufs());
        assert_eq!(ch.stats.delivered, 30);
    }

    #[test]
    fn move_semantics_cannot_retransmit() {
        // The §2.2.1 argument, demonstrated: after a remap transfer the
        // sender has lost access, so a retransmission source is gone.
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut remap = RemapFacility::new(0.0);
        let va = remap.alloc(&mut m, a, 4096).unwrap();
        m.write(a, va, b"segment").unwrap();
        remap.transfer(&mut m, a, va, 4096, b).unwrap();
        // Suppose the wire dropped it: the sender tries to read its copy
        // for retransmission — and faults.
        assert!(m.read(a, va, 7).is_err(), "move semantics lost the data");
        // Whereas fbufs retain it for free.
        let (mut fbs, mut refs, a, b) = setup();
        let mut ch = ReliableChannel::new(&mut fbs, a, b, ReliableConfig::default()).unwrap();
        ch.send(&mut fbs, &mut refs, b"segment").unwrap();
        assert_eq!(ch.received(), b"segment");
    }
}
