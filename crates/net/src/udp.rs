//! UDP: port demultiplexing and an optional real checksum.

use std::collections::HashMap;

use fbuf::{FbufResult, FbufSystem};
use fbuf_sim::{CostCategory, Ns};
use fbuf_vm::DomainId;
use fbuf_xkernel::Msg;

/// The UDP header fields the reproduction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Datagram length.
    pub len: u64,
}

/// A UDP endpoint table: destination port → opaque endpoint token.
///
/// Real demultiplexing matters for the driver's path identification: "an
/// application can easily identify the I/O data path of a buffer at the
/// time of allocation by referring to the communication endpoint it
/// intends to use."
#[derive(Debug, Default)]
pub struct PortTable<T> {
    ports: HashMap<u16, T>,
    /// Datagrams dropped for want of a bound port.
    pub dropped: u64,
}

impl<T> PortTable<T> {
    /// Creates an empty table.
    pub fn new() -> PortTable<T> {
        PortTable {
            ports: HashMap::new(),
            dropped: 0,
        }
    }

    /// Binds `port`; returns `false` if already bound.
    pub fn bind(&mut self, port: u16, endpoint: T) -> bool {
        if self.ports.contains_key(&port) {
            return false;
        }
        self.ports.insert(port, endpoint);
        true
    }

    /// Demuxes a datagram; `None` counts a drop.
    pub fn demux(&mut self, port: u16) -> Option<&T> {
        if self.ports.contains_key(&port) {
            self.ports.get(&port)
        } else {
            self.dropped += 1;
            None
        }
    }
}

/// Computes the UDP checksum over a message by actually reading every byte
/// through `dom`'s mappings, charging the per-byte cost. Used by the
/// CPU-load experiments to model a protocol that inspects payloads.
pub fn checksum(fbs: &mut FbufSystem, dom: DomainId, msg: &Msg) -> FbufResult<u16> {
    let per_byte = fbs.machine().costs().checksum_per_byte;
    let bytes = msg.gather(fbs, dom)?;
    fbs.machine_mut().charge(
        CostCategory::Protocol,
        Ns(per_byte.as_ns() * bytes.len() as u64),
    );
    // Internet one's-complement sum.
    let mut sum: u32 = 0;
    for chunk in bytes.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]) as u32;
        sum += word;
        sum = (sum & 0xffff) + (sum >> 16);
    }
    Ok(!(sum as u16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::AllocMode;
    use fbuf_sim::MachineConfig;

    #[test]
    fn bind_and_demux() {
        let mut t: PortTable<u32> = PortTable::new();
        assert!(t.bind(53, 1));
        assert!(!t.bind(53, 2), "double bind rejected");
        assert_eq!(t.demux(53), Some(&1));
        assert_eq!(t.demux(99), None);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn checksum_reads_and_charges() {
        let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
        let a = fbs.create_domain();
        let id = fbs.alloc(a, AllocMode::Uncached, 1000).unwrap();
        fbs.write_fbuf(a, id, 0, &[0xABu8; 1000]).unwrap();
        let msg = Msg::from_fbuf(id, 0, 1000);
        let t0 = fbs.machine().clock().now();
        let sum = checksum(&mut fbs, a, &msg).unwrap();
        let dt = fbs.machine().clock().now() - t0;
        // Charged at least the per-byte cost for every byte.
        assert!(dt.as_ns() >= 15 * 1000, "checksum too cheap: {dt}");
        // Deterministic value for a constant payload.
        let again = checksum(&mut fbs, a, &msg).unwrap();
        assert_eq!(sum, again);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        let a = fbs.create_domain();
        let id = fbs.alloc(a, AllocMode::Uncached, 100).unwrap();
        fbs.write_fbuf(a, id, 0, &[1u8; 100]).unwrap();
        let msg = Msg::from_fbuf(id, 0, 100);
        let before = checksum(&mut fbs, a, &msg).unwrap();
        fbs.write_fbuf(a, id, 50, &[2u8]).unwrap();
        let after = checksum(&mut fbs, a, &msg).unwrap();
        assert_ne!(before, after);
    }
}
