//! The Figure 4 harness: UDP/IP local loopback throughput.
//!
//! "A test protocol in the originator domain repeatedly creates an
//! x-kernel message, and sends it using a UDP/IP protocol stack that
//! resides in a network server domain. IP fragments large messages into
//! PDUs of 4 KBytes. A local loopback protocol is configured below IP; it
//! turns PDUs around and sends them back up the protocol stack. Finally,
//! IP reassembles the message on the way back up, and sends it to a
//! receiver domain that contains the dummy protocol. ... The use of a
//! loopback protocol rather than a real device driver simulates an
//! infinitely fast network."

use fbuf::{AllocMode, FbufResult, FbufSystem, PathId, SendMode};
use fbuf_sim::{CostCategory, EventKind, MachineConfig, Ns};
use fbuf_vm::{DomainId, KERNEL_DOMAIN};
use fbuf_xkernel::{integrated, Extent, Msg, MsgRefs};

use crate::host::Fill;
use crate::ip::{fragment, Reassembler};

/// IP PDU size: "IP fragments large messages into PDUs of 4 KBytes".
/// Outgoing buffers are allocated at the same granularity ("an incoming
/// ADU is typically stored as a sequence of non-contiguous, PDU-sized
/// buffers"), so uncached per-buffer costs scale with it.
pub const PDU: u64 = 4096;

/// Configuration of one loopback experiment. Transfers are volatile.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Three protection domains (originator / network server / receiver)
    /// versus everything in a single domain.
    pub three_domains: bool,
    /// Cached (per-path) versus uncached (default-allocator) fbufs.
    pub cached: bool,
}

impl LoopbackConfig {
    /// The paper's configuration with 4 KB PDUs.
    pub fn paper(three_domains: bool, cached: bool) -> LoopbackConfig {
        LoopbackConfig {
            three_domains,
            cached,
        }
    }
}

/// The loopback protocol stack.
///
/// # Examples
///
/// ```
/// use fbuf_net::{LoopbackConfig, LoopbackStack};
/// use fbuf_sim::MachineConfig;
///
/// let mut cfg = MachineConfig::decstation_5000_200();
/// cfg.phys_mem = 16 << 20;
/// // Three domains, cached fbufs, the paper's 4 KB PDUs.
/// let mut stack = LoopbackStack::new(cfg, LoopbackConfig::paper(true, true));
/// let mbps = stack.throughput(64 << 10, 3)?;
/// assert!(mbps > 200.0);
/// # Ok::<(), fbuf::FbufError>(())
/// ```
#[derive(Debug)]
pub struct LoopbackStack {
    /// The fbuf facility.
    pub fbs: FbufSystem,
    /// Message references.
    pub refs: MsgRefs,
    cfg: LoopbackConfig,
    originator: DomainId,
    netserver: DomainId,
    receiver: DomainId,
    path: Option<PathId>,
    datagram: u64,
    reasm: Reassembler,
}

impl LoopbackStack {
    /// Builds the stack over a fresh machine.
    pub fn new(machine: MachineConfig, cfg: LoopbackConfig) -> LoopbackStack {
        let mut fbs = FbufSystem::new(machine);
        integrated::install_null_template(&mut fbs);
        let (originator, netserver, receiver) = if cfg.three_domains {
            (
                fbs.create_domain(),
                fbs.create_domain(),
                fbs.create_domain(),
            )
        } else {
            (KERNEL_DOMAIN, KERNEL_DOMAIN, KERNEL_DOMAIN)
        };
        let path = cfg.cached.then(|| {
            fbs.create_path(vec![originator, netserver, receiver])
                .expect("fresh domains")
        });
        LoopbackStack {
            fbs,
            refs: MsgRefs::new(),
            cfg,
            originator,
            netserver,
            receiver,
            path,
            datagram: 0,
            reasm: Reassembler::new(0),
        }
    }

    fn charge(&mut self, c: Ns) {
        self.fbs.machine_mut().charge(CostCategory::Protocol, c);
    }

    /// Sends one message through the stack; returns the elapsed simulated
    /// time. When `verify` is set the payload round-trip is checked
    /// byte-for-byte.
    ///
    /// Each message is one causal span: every event the stack records
    /// while it is in flight (allocs, PDU tx/rx, transfers, hops) is
    /// tagged with it, so a trace decomposes per message.
    pub fn send_message(&mut self, size: u64, verify: bool) -> FbufResult<Ns> {
        let span = self.fbs.mint_span();
        let m = self.fbs.machine();
        let path = self.path.map(|p| p.0);
        m.tracer()
            .span_start(m.now(), span, self.originator.0, path, None);
        let prev = m.tracer().set_current_span(Some(span));
        let out = self.send_message_in_span(size, verify);
        self.fbs.machine().tracer().set_current_span(prev);
        out
    }

    fn send_message_in_span(&mut self, size: u64, verify: bool) -> FbufResult<Ns> {
        let t0 = self.fbs.machine().clock().now();
        let costs = self.fbs.machine().costs().clone();

        // Test protocol: build the message.
        let seed = self.datagram;
        let fill = if verify {
            Fill::Pattern(seed)
        } else {
            Fill::Touch
        };
        let msg = self.build(size, fill)?;
        self.charge(costs.proto_test_msg);

        // Cross into the network server domain.
        self.cross(&msg, self.originator, self.netserver, false)?;

        // UDP down.
        self.charge(costs.proto_udp_pdu);

        // IP down: fragment.
        self.datagram += 1;
        if size > PDU {
            self.charge(costs.proto_frag_setup);
        }
        let path = self.path.map(|p| p.0);
        let mut reassembled = None;
        let mut dropped = Vec::new();
        for (hdr, body) in fragment(&msg, self.datagram, PDU) {
            self.charge(costs.proto_ip_pdu); // IP send processing
            self.trace_pdu(EventKind::PduTx, path);
            self.charge(costs.proto_loopback_pdu); // loopback turnaround
            self.trace_pdu(EventKind::PduRx, path);
            self.charge(costs.proto_ip_pdu); // IP receive processing
            if let Some(done) = self.reasm.add(hdr, body, &mut dropped) {
                reassembled = Some(done);
            }
        }
        // Every fragment is distinct, and one datagram is in flight at a
        // time, so the reassembler drops nothing; fragments hold no
        // references of their own, so there is nothing to release if it
        // did.
        debug_assert!(dropped.is_empty());
        let up = reassembled.expect("loopback reassembly always completes");

        // UDP up.
        self.charge(costs.proto_udp_pdu);

        // Cross to the receiver and consume (dummy protocol).
        // The reassembled message references the same fbufs, so adopt it in
        // the netserver before the original is dropped there.
        self.refs.adopt(self.netserver, &up);
        self.refs.release(&mut self.fbs, self.netserver, &msg)?;
        self.cross(&up, self.netserver, self.receiver, true)?;
        self.charge(costs.proto_test_msg);
        if verify {
            let got = up.gather(&mut self.fbs, self.receiver)?;
            let expected: Vec<u8> = (0..size).map(|i| Fill::pattern_byte(i, seed)).collect();
            assert_eq!(got, expected, "loopback corrupted the payload");
        } else {
            up.touch(&mut self.fbs, self.receiver)?;
        }

        // Tear down references: receiver, netserver (up), originator.
        self.refs.release(&mut self.fbs, self.receiver, &up)?;
        self.refs.release(&mut self.fbs, self.netserver, &up)?;
        self.refs.release(&mut self.fbs, self.originator, &msg)?;
        self.reasm.recycle(up);
        Ok(self.fbs.machine().clock().now() - t0)
    }

    /// Steady-state throughput in Mb/s at `size` bytes (after warm-up).
    pub fn throughput(&mut self, size: u64, iters: usize) -> FbufResult<f64> {
        for _ in 0..2 {
            self.send_message(size, false)?;
        }
        let t0 = self.fbs.machine().clock().now();
        for _ in 0..iters {
            self.send_message(size, false)?;
        }
        let dt = self.fbs.machine().clock().now() - t0;
        Ok(dt.mbps(size * iters as u64))
    }

    /// Records a PDU event in the network server at the simulated now.
    fn trace_pdu(&self, kind: EventKind, path: Option<u64>) {
        let m = self.fbs.machine();
        m.tracer()
            .instant(m.now(), kind, self.netserver.0, path, None);
    }

    fn build(&mut self, size: u64, fill: Fill) -> FbufResult<Msg> {
        let mode = match self.path {
            Some(p) => AllocMode::Cached(p),
            None => AllocMode::Uncached,
        };
        let mut msg = Msg::with_capacity(size.div_ceil(PDU) as usize);
        let mut buf = Vec::new();
        let mut pos = 0u64;
        while pos < size {
            let this = PDU.min(size - pos);
            let id = self.fbs.alloc(self.originator, mode, this)?;
            fill.write(&mut self.fbs, self.originator, id, (pos, this), &mut buf)?;
            msg.push(Extent {
                fbuf: id,
                off: 0,
                len: this,
            });
            pos += this;
        }
        self.refs.adopt(self.originator, &msg);
        Ok(msg)
    }

    fn cross(
        &mut self,
        msg: &Msg,
        from: DomainId,
        to: DomainId,
        body_access: bool,
    ) -> FbufResult<()> {
        if from == to {
            self.refs.adopt(to, msg);
            return Ok(());
        }
        self.fbs.hop(from, to);
        // Uncached transfers follow the base mechanism of §3.1: the
        // receive step updates the physical page tables eagerly in every
        // receiving domain ("VM map manipulations are necessary for each
        // domain transfer"). Cached transfers map only domains that access
        // the body — pass-through layers keep bare references.
        let full = body_access || !self.cfg.cached;
        for id in msg.distinct_fbufs() {
            if full {
                self.fbs.send(id, from, to, SendMode::Volatile)?;
            } else {
                self.fbs.send_reference(id, from, to)?;
            }
        }
        self.refs.adopt(to, msg);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        let mut cfg = MachineConfig::decstation_5000_200();
        cfg.phys_mem = 16 << 20;
        cfg
    }

    #[test]
    fn single_domain_roundtrip_verified() {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(false, true));
        s.send_message(20_000, true).unwrap();
        s.send_message(100, true).unwrap();
    }

    #[test]
    fn three_domain_roundtrip_verified() {
        for cached in [true, false] {
            let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, cached));
            s.send_message(20_000, true).unwrap();
        }
    }

    #[test]
    fn no_fbuf_leaks_across_messages() {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
        for _ in 0..5 {
            s.send_message(10_000, false).unwrap();
        }
        // Uncached buffers are fully retired after each message.
        assert_eq!(s.fbs.live_fbufs(), 0);
        assert_eq!(s.refs.outstanding(), 0);
    }

    #[test]
    fn cached_buffers_park_not_leak() {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        for _ in 0..5 {
            s.send_message(10_000, false).unwrap();
        }
        assert_eq!(s.refs.outstanding(), 0);
        // Parked on the free list, bounded by one message's worth.
        assert!(s.fbs.live_fbufs() <= 3);
        assert!(s.fbs.stats().fbuf_cache_hits() > 0);
    }

    #[test]
    fn cached_beats_uncached_by_over_2x() {
        // "The use of cached fbufs leads to a more than twofold improvement
        // in throughput over uncached fbufs for the entire range of message
        // sizes." Our calibration reaches 2x from 64 KB up; below that,
        // IPC latency (common to both curves) compresses the ratio — see
        // EXPERIMENTS.md.
        for size in [65_536u64, 1 << 20] {
            let mut c = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
            let mut u = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
            let tc = c.throughput(size, 3).unwrap();
            let tu = u.throughput(size, 3).unwrap();
            assert!(
                tc > 2.0 * tu,
                "cached {tc:.0} vs uncached {tu:.0} Mb/s at {size} bytes"
            );
        }
        // Cached still clearly ahead for small messages.
        let mut c = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        let mut u = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
        let tc = c.throughput(4096, 3).unwrap();
        let tu = u.throughput(4096, 3).unwrap();
        assert!(
            tc > 1.2 * tu,
            "cached {tc:.0} vs uncached {tu:.0} Mb/s at 4 KB"
        );
    }

    #[test]
    fn fragmentation_anomaly_in_single_domain_curve() {
        // The single-domain curve dips just past the 4 KB PDU size because
        // a fixed fragmentation overhead sets in.
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(false, true));
        let at_4k = s.throughput(4096, 3).unwrap();
        let at_8k = s.throughput(8192, 3).unwrap();
        assert!(
            at_4k > at_8k,
            "expected a dip: 4KB {at_4k:.0} vs 8KB {at_8k:.0} Mb/s"
        );
        // Amortized away for much larger messages.
        let at_1m = s.throughput(1 << 20, 2).unwrap();
        assert!(at_1m > at_4k);
    }

    #[test]
    fn large_message_crossings_nearly_free_with_cached_fbufs() {
        // Cached 3-domain throughput approaches the single-domain curve for
        // large messages.
        let size = 1 << 20;
        let mut one = LoopbackStack::new(machine(), LoopbackConfig::paper(false, true));
        let mut three = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        let t1 = one.throughput(size, 2).unwrap();
        let t3 = three.throughput(size, 2).unwrap();
        assert!(
            t3 > 0.9 * t1,
            "3-domain {t3:.0} should be >90% of single-domain {t1:.0} Mb/s"
        );
    }
}
