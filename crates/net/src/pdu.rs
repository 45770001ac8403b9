//! Wire-format protocol data units.
//!
//! A [`WirePdu`] is what travels between the two simulated hosts: an
//! ATM-level VCI for demultiplexing, the IP fragment header, the UDP
//! header on the first fragment, and the payload. The payload is the
//! sender's fragment descriptor: the null modem's DMA reads its bytes
//! straight out of the sender's frames into the receiver's fbuf frames,
//! so each byte is copied once.

use fbuf_xkernel::Msg;

use crate::ip::IpHeader;
use crate::udp::UdpHeader;

/// One PDU on the wire.
#[derive(Debug, Clone)]
pub struct WirePdu {
    /// ATM virtual circuit identifier — what the Osiris board demuxes on
    /// *before* DMA ("the adapter board checks to see if there is a
    /// preallocated fbuf for the virtual circuit identifier of the
    /// incoming PDU").
    pub vci: u32,
    /// IP fragmentation header.
    pub ip: IpHeader,
    /// UDP header (first fragment of each datagram only, as in real IP
    /// fragmentation).
    pub udp: Option<UdpHeader>,
    /// The payload: the fragment of the sender's message whose bytes the
    /// receive DMA copies.
    pub payload: Msg,
}

impl WirePdu {
    /// Bytes this PDU occupies on the wire (payload + header overhead).
    pub fn wire_bytes(&self) -> u64 {
        // 20-byte IP header per fragment + 8-byte UDP header on the first.
        self.payload.len() + 20 + if self.udp.is_some() { 8 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::FbufId;

    #[test]
    fn wire_bytes_counts_headers() {
        let ip = IpHeader {
            datagram: 1,
            offset: 0,
            total_len: 100,
            more: false,
        };
        let with_udp = WirePdu {
            vci: 7,
            ip,
            udp: Some(UdpHeader {
                src_port: 1,
                dst_port: 2,
                len: 100,
            }),
            payload: Msg::from_fbuf(FbufId(1), 0, 100),
        };
        assert_eq!(with_udp.wire_bytes(), 128);
        let without = WirePdu {
            udp: None,
            ..with_udp
        };
        assert_eq!(without.wire_bytes(), 120);
    }
}
