//! The Osiris ATM driver model and the two-host end-to-end harness
//! (Figures 5 and 6, and the §4 CPU-load experiment).
//!
//! The model captures the three bandwidth ceilings the paper identifies —
//! 516 Mb/s net link rate after ATM cell overhead, 367 Mb/s from per-cell
//! DMA start-up latency, and ≈285 Mb/s once CPU/memory traffic contends
//! for the TurboChannel — plus the driver's buffer strategy: "queues of
//! preallocated cached fbufs for the 16 most recently used data paths,
//! plus a single queue of preallocated uncached fbufs", selected by the
//! VCI of the arriving PDU *before* DMA.

use std::collections::VecDeque;

use fbuf::{FbufResult, SendMode};
use fbuf_sim::{CostCategory, EventKind, MachineConfig, Ns};
use fbuf_xkernel::Msg;

use crate::host::{DomainSetup, Fill, Host};
use crate::ip::{fragment, Reassembler};
use crate::pdu::WirePdu;
use crate::udp::{PortTable, UdpHeader};

/// Latency of an acknowledgement returning to the sender.
const ACK_LATENCY: Ns = Ns(100_000);

/// LRU table of the most recently used VCIs (data paths) for which the
/// driver keeps preallocated cached fbufs.
#[derive(Debug)]
pub struct VciTable {
    cap: usize,
    entries: Vec<u32>,
}

impl VciTable {
    /// Creates a table of `cap` entries (the paper's driver uses 16).
    pub fn new(cap: usize) -> VciTable {
        VciTable {
            cap,
            entries: Vec::new(),
        }
    }

    /// Records traffic on `vci`; returns whether it was already cached
    /// (a preallocated cached fbuf is available).
    pub fn touch(&mut self, vci: u32) -> bool {
        if let Some(pos) = self.entries.iter().position(|&v| v == vci) {
            let v = self.entries.remove(pos);
            self.entries.push(v);
            return true;
        }
        if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push(vci);
        false
    }

    /// Currently cached VCIs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no VCI is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Configuration of one end-to-end experiment.
#[derive(Debug, Clone)]
pub struct EndToEndConfig {
    /// Domain placement (same on both hosts).
    pub setup: DomainSetup,
    /// Receive-side driver buffers: per-VCI cached queues vs the uncached
    /// pool. ("Uncached fbufs incur additional cost only in the receiving
    /// host.")
    pub rx_cached: bool,
    /// Transmit-side protection: volatile vs eagerly secured. ("The use of
    /// non-volatile fbufs has a cost only in the transmitting host.")
    pub send_mode: SendMode,
    /// IP PDU size (16 KB in Figures 5/6; 32 KB in the CPU-load variant).
    pub pdu: u64,
    /// Sliding-window size in messages.
    pub window: usize,
    /// Model TurboChannel bus contention (285 Mb/s ceiling); disabling it
    /// is the A-series ablation exposing the raw 367 Mb/s DMA ceiling.
    pub contended: bool,
}

impl EndToEndConfig {
    /// The paper's Figure 5 configuration (cached/volatile).
    pub fn fig5(setup: DomainSetup) -> EndToEndConfig {
        EndToEndConfig {
            setup,
            rx_cached: true,
            send_mode: SendMode::Volatile,
            pdu: 16 << 10,
            window: 8,
            contended: true,
        }
    }

    /// The paper's Figure 6 configuration (uncached/non-volatile).
    pub fn fig6(setup: DomainSetup) -> EndToEndConfig {
        EndToEndConfig {
            rx_cached: false,
            send_mode: SendMode::Secure,
            ..EndToEndConfig::fig5(setup)
        }
    }
}

/// Results of a run.
#[derive(Debug, Clone)]
pub struct EndToEndReport {
    /// Application-to-application throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Receive-host CPU utilization over the measured interval.
    pub rx_cpu: f64,
    /// Transmit-host CPU utilization over the measured interval.
    pub tx_cpu: f64,
    /// Elapsed simulated time of the measured interval.
    pub elapsed: Ns,
    /// PDUs received into cached fbufs.
    pub cached_rx: u64,
    /// PDUs received into uncached fbufs.
    pub uncached_rx: u64,
}

/// Two hosts joined by an Osiris null modem.
///
/// # Examples
///
/// ```
/// use fbuf_net::{DomainSetup, EndToEnd, EndToEndConfig};
/// use fbuf_sim::MachineConfig;
///
/// let mut cfg = MachineConfig::decstation_5000_200();
/// cfg.phys_mem = 16 << 20;
/// let mut e = EndToEnd::new(cfg, EndToEndConfig::fig5(DomainSetup::User));
/// // Verified payload: what the app sent is what the sink got.
/// e.send_message(50_000, 1, true)?;
/// assert_eq!(e.received[0].len(), 50_000);
/// # Ok::<(), fbuf::FbufError>(())
/// ```
#[derive(Debug)]
pub struct EndToEnd {
    /// The transmitting host.
    pub tx: Host,
    /// The receiving host.
    pub rx: Host,
    cfg: EndToEndConfig,
    wire_free: Ns,
    datagram: u64,
    reasm: Reassembler,
    vci_table: VciTable,
    ports: PortTable<()>,
    acks: VecDeque<Ns>,
    /// Gathered payloads in verify mode.
    pub received: Vec<Vec<u8>>,
}

impl EndToEnd {
    /// The UDP port the sink listens on.
    pub const SINK_PORT: u16 = 7777;

    /// Builds the pair of hosts.
    pub fn new(machine: MachineConfig, cfg: EndToEndConfig) -> EndToEnd {
        let mut tx = Host::new(machine.clone(), cfg.setup, cfg.send_mode);
        let mut rx = Host::new(machine, cfg.setup, SendMode::Volatile);
        // Disjoint span-id spaces: the RX machine's child spans must not
        // collide with the TX machine's datagram spans they link to.
        tx.fbs.set_span_salt(1);
        rx.fbs.set_span_salt(2);
        let mut ports = PortTable::new();
        ports.bind(Self::SINK_PORT, ());
        // At most a window of acks is ever outstanding.
        let acks = VecDeque::with_capacity(cfg.window);
        EndToEnd {
            tx,
            rx,
            cfg,
            wire_free: Ns::ZERO,
            datagram: 0,
            reasm: Reassembler::new(64),
            vci_table: VciTable::new(16),
            ports,
            acks,
            received: Vec::new(),
        }
    }

    fn wire_time(&self, bytes: u64) -> Ns {
        let costs = &self.tx.fbs.machine().config().costs;
        if self.cfg.contended {
            costs.wire_time(bytes)
        } else {
            costs.dma_time_uncontended(bytes)
        }
    }

    /// Sends one message of `size` bytes on `vci`; `verify` fills it with
    /// real bytes and records what arrives.
    ///
    /// Each datagram is one causal span on the TX machine; receive-side
    /// processing runs in a per-machine child span linked to it, so a
    /// merged trace decomposes per datagram across both machines.
    pub fn send_message(&mut self, size: u64, vci: u32, verify: bool) -> FbufResult<()> {
        let span = self.tx.fbs.mint_span();
        let m = self.tx.fbs.machine();
        m.tracer()
            .span_start(m.now(), span, self.tx.app.0, None, None);
        let prev = m.tracer().set_current_span(Some(span));
        let out = self.send_message_in_span(size, vci, verify, span);
        self.tx.fbs.machine().tracer().set_current_span(prev);
        out
    }

    fn send_message_in_span(
        &mut self,
        size: u64,
        vci: u32,
        verify: bool,
        span: u64,
    ) -> FbufResult<()> {
        // Sliding window: block until an ack frees a slot.
        while self.acks.len() >= self.cfg.window {
            let done = self.acks.pop_front().expect("non-empty");
            self.tx
                .fbs
                .machine_mut()
                .clock_mut()
                .wait_until(done + ACK_LATENCY);
        }
        self.datagram += 1;
        let datagram = self.datagram;
        let fill = if verify {
            Fill::Pattern(datagram)
        } else {
            Fill::Touch
        };
        let msg = self.tx.build_message(size, &fill)?;
        let test_cost = self.tx.fbs.machine().costs().proto_test_msg;
        self.tx
            .fbs
            .machine_mut()
            .charge(CostCategory::Protocol, test_cost);

        // Outbound crossings: every layer below the test protocol passes
        // the message by reference (the kernel DMAs straight from the
        // frames).
        let out = self.tx.out_domains();
        for pair in out.windows(2) {
            self.tx.cross(&msg, pair[0], pair[1], false)?;
        }

        // UDP + IP on the way down.
        let costs = self.tx.fbs.machine().costs().clone();
        self.tx
            .fbs
            .machine_mut()
            .charge(CostCategory::Protocol, costs.proto_udp_pdu);
        if size > self.cfg.pdu {
            self.tx
                .fbs
                .machine_mut()
                .charge(CostCategory::Protocol, costs.proto_frag_setup);
        }
        for (i, (hdr, body)) in fragment(&msg, datagram, self.cfg.pdu).enumerate() {
            self.tx
                .fbs
                .machine_mut()
                .charge(CostCategory::Protocol, costs.proto_ip_pdu);
            self.tx
                .fbs
                .machine_mut()
                .charge(CostCategory::Driver, costs.driver_pdu);
            let pdu = WirePdu {
                vci,
                ip: hdr,
                udp: (i == 0).then_some(UdpHeader {
                    src_port: 1234,
                    dst_port: Self::SINK_PORT,
                    len: size,
                }),
                payload: body,
            };
            // Serialize onto the wire.
            self.tx.fbs.machine().tracer().instant(
                self.tx.fbs.machine().now(),
                EventKind::PduTx,
                self.tx.kernel().0,
                None,
                None,
            );
            let ready = self.tx.fbs.machine().clock().now();
            let arrive = ready.max(self.wire_free) + self.wire_time(pdu.wire_bytes());
            self.wire_free = arrive;
            self.receive_pdu(&pdu, arrive, verify, span)?;
        }

        // The test protocol is done with the message on the TX side.
        for dom in out.distinct() {
            self.tx.release(dom, &msg)?;
        }
        Ok(())
    }

    /// Receive-side processing of one PDU arriving at `arrive`, in a
    /// child span of the TX datagram span `parent`.
    fn receive_pdu(
        &mut self,
        pdu: &WirePdu,
        arrive: Ns,
        verify: bool,
        parent: u64,
    ) -> FbufResult<()> {
        let child = self.rx.fbs.mint_span();
        let m = self.rx.fbs.machine();
        m.tracer()
            .span_link(m.now(), child, parent, self.rx.kernel().0);
        let prev = m.tracer().set_current_span(Some(child));
        let out = self.receive_pdu_in_span(pdu, arrive, verify);
        self.rx.fbs.machine().tracer().set_current_span(prev);
        out
    }

    fn receive_pdu_in_span(&mut self, pdu: &WirePdu, arrive: Ns, verify: bool) -> FbufResult<()> {
        self.rx.fbs.machine_mut().clock_mut().wait_until(arrive);
        let costs = self.rx.fbs.machine().costs().clone();
        self.rx.fbs.machine_mut().charge(
            CostCategory::Driver,
            costs.driver_interrupt + costs.driver_pdu,
        );

        // VCI demux before DMA: cached per-path queue or uncached pool.
        let cached = self.cfg.rx_cached && self.vci_table.touch(pdu.vci);
        let stats = self.rx.fbs.machine_mut().stats_mut();
        if cached {
            stats.inc_driver_cached_rx();
        } else {
            stats.inc_driver_uncached_rx();
        }
        stats.inc_pdus_sent();
        let len = pdu.payload.len();
        let id = self.rx.alloc_rx(len, cached)?;
        self.rx.dma_from(id, &self.tx, &pdu.payload)?;
        let m = Msg::from_fbuf(id, 0, len);
        let kernel = self.rx.kernel();
        let rx = self.rx.fbs.machine();
        rx.tracer()
            .instant(rx.now(), EventKind::PduRx, kernel.0, None, Some(id.0));
        self.rx.refs.adopt(kernel, &m);

        // IP up. Fragments the reassembler lets go of (a duplicate, or an
        // evicted partial datagram) drop the kernel's references here.
        self.rx
            .fbs
            .machine_mut()
            .charge(CostCategory::Protocol, costs.proto_ip_pdu);
        let mut dropped = Vec::new();
        let full = self.reasm.add(pdu.ip, m, &mut dropped);
        for frag in &dropped {
            self.rx.release(kernel, frag)?;
        }
        let Some(full) = full else {
            return Ok(());
        };

        // UDP up: demux to the sink port.
        self.rx
            .fbs
            .machine_mut()
            .charge(CostCategory::Protocol, costs.proto_udp_pdu);
        if self.ports.demux(Self::SINK_PORT).is_none() {
            // Nobody listening: drop (releases the kernel's references).
            self.rx.release(kernel, &full)?;
            self.reasm.recycle(full);
            return Ok(());
        }

        // Up through the domains; only the app touches the body.
        let in_doms = self.rx.in_domains();
        let app = self.rx.app;
        for pair in in_doms.windows(2) {
            self.rx.cross(&full, pair[0], pair[1], pair[1] == app)?;
        }
        if verify {
            let data = self.rx.gather(app, &full)?;
            self.received.push(data);
            let test = costs.proto_test_msg;
            self.rx
                .fbs
                .machine_mut()
                .charge(CostCategory::Protocol, test);
            self.rx.release(app, &full)?;
        } else {
            self.rx.consume(app, &full)?;
        }
        // Intermediate domains drop their references (the app released
        // its own above; in the kernel-only setup the app is the kernel).
        for dom in in_doms.distinct() {
            if dom != app {
                self.rx.release(dom, &full)?;
            }
        }
        self.reasm.recycle(full);
        self.acks.push_back(self.rx.fbs.machine().clock().now());
        Ok(())
    }

    /// Runs `count` messages of `size` bytes after a warm-up, returning
    /// throughput and CPU loads over the measured interval.
    pub fn run(&mut self, size: u64, count: usize) -> FbufResult<EndToEndReport> {
        // Warm-up: populate caches and pipelines.
        for _ in 0..2 {
            self.send_message(size, 1, false)?;
        }
        let tx_mark = self.tx.fbs.machine().clock().mark();
        let rx_mark = self.rx.fbs.machine().clock().mark();
        let rx_before = self.rx.fbs.stats().snapshot();
        for _ in 0..count {
            self.send_message(size, 1, false)?;
        }
        let rx_clock = self.rx.fbs.machine().clock();
        let elapsed = rx_clock.since(rx_mark);
        let rx_after = self.rx.fbs.stats().snapshot().delta(&rx_before);
        Ok(EndToEndReport {
            throughput_mbps: elapsed.mbps(size * count as u64),
            rx_cpu: rx_clock.utilization_since(rx_mark),
            tx_cpu: self.tx.fbs.machine().clock().utilization_since(tx_mark),
            elapsed,
            cached_rx: rx_after.driver_cached_rx,
            uncached_rx: rx_after.driver_uncached_rx,
        })
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
    fn vci_table_lru() {
        let mut t = VciTable::new(2);
        assert!(!t.touch(1));
        assert!(!t.touch(2));
        assert!(t.touch(1)); // 1 now most recent
        assert!(!t.touch(3)); // evicts 2
        assert!(!t.touch(2));
        assert!(t.touch(3));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn end_to_end_data_integrity() {
        for setup in [
            DomainSetup::KernelOnly,
            DomainSetup::User,
            DomainSetup::UserNetserver,
        ] {
            for cfg in [EndToEndConfig::fig5(setup), EndToEndConfig::fig6(setup)] {
                let mut e = EndToEnd::new(machine(), cfg);
                e.send_message(50_000, 1, true).unwrap();
                assert_eq!(e.received.len(), 1, "{setup:?}");
                let expected: Vec<u8> = (0..50_000).map(|i| Fill::pattern_byte(i, 1)).collect();
                assert_eq!(e.received[0], expected, "{setup:?}");
            }
        }
    }

    #[test]
    fn plateau_near_285_mbps_for_large_cached_messages() {
        // Figure 5: "the maximal throughput achieved is 285 Mb/s ... due to
        // the capacity of the DecStation's TurboChannel bus".
        let mut e = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::KernelOnly));
        let r = e.run(1 << 20, 4).unwrap();
        assert!(
            (r.throughput_mbps - 285.0).abs() < 20.0,
            "got {:.0} Mb/s",
            r.throughput_mbps
        );
        assert!(r.rx_cpu < 1.0, "IO-bound, not CPU-saturated");
    }

    #[test]
    fn crossings_nearly_free_for_large_messages() {
        // "Domain crossings have virtually no effect on end-to-end
        // throughput for large messages (>256KB) when cached/volatile
        // fbufs are used."
        let size = 512 << 10;
        let mut kk = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::KernelOnly));
        let mut unu = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::UserNetserver));
        let t_kk = kk.run(size, 4).unwrap().throughput_mbps;
        let t_unu = unu.run(size, 4).unwrap().throughput_mbps;
        assert!(
            t_unu > 0.95 * t_kk,
            "user-netserver-user {t_unu:.0} vs kernel-kernel {t_kk:.0} Mb/s"
        );
    }

    #[test]
    fn uncached_rx_fbufs_cost_throughput() {
        // Figure 6: uncached/non-volatile fbufs degrade user-user
        // throughput by roughly 12%.
        let size = 1 << 20;
        let mut cached = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::User));
        let mut uncached = EndToEnd::new(machine(), EndToEndConfig::fig6(DomainSetup::User));
        let tc = cached.run(size, 4).unwrap();
        let tu = uncached.run(size, 4).unwrap();
        assert!(tu.throughput_mbps < tc.throughput_mbps);
        let degradation = 1.0 - tu.throughput_mbps / tc.throughput_mbps;
        assert!(
            (0.05..0.30).contains(&degradation),
            "degradation {degradation:.2}"
        );
        // The uncached receiver is CPU-saturated; the cached one is not.
        assert!(tu.rx_cpu > 0.98, "uncached rx load {:.2}", tu.rx_cpu);
        assert!(tc.rx_cpu < 0.95, "cached rx load {:.2}", tc.rx_cpu);
    }

    #[test]
    fn driver_uses_uncached_pool_for_unknown_vcis() {
        let mut e = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::User));
        // 20 distinct VCIs > 16-entry table: evictions force uncached use.
        for vci in 0..20u32 {
            e.send_message(4096, vci, false).unwrap();
        }
        let s = e.rx.fbs.stats().snapshot();
        assert!(s.driver_uncached_rx >= 20, "first touch of each VCI misses");
        // Re-touching a recent VCI hits the cached queue.
        e.send_message(4096, 19, false).unwrap();
        let s2 = e.rx.fbs.stats().snapshot();
        assert_eq!(s2.driver_cached_rx, s.driver_cached_rx + 1);
    }

    /// The PDUs of a `size`-byte datagram built on `e`'s sender.
    fn pdus(e: &mut EndToEnd, size: u64, datagram: u64) -> (Msg, Vec<WirePdu>) {
        let msg = e.tx.build_message(size, &Fill::Touch).unwrap();
        let pdus = fragment(&msg, datagram, e.cfg.pdu)
            .map(|(ip, payload)| WirePdu {
                vci: 1,
                ip,
                udp: None,
                payload,
            })
            .collect();
        (msg, pdus)
    }

    #[test]
    fn dropped_fragments_release_their_receive_buffers() {
        // Uncached receive buffers retire on their last release, so any
        // reference the kernel keeps shows in both counts.
        let mut e = EndToEnd::new(machine(), EndToEndConfig::fig6(DomainSetup::User));
        e.send_message(32 << 10, 1, false).unwrap();
        let baseline = |e: &EndToEnd| (e.rx.refs.outstanding(), e.rx.fbs.live_fbufs());
        let base = baseline(&e);
        let arrive = |e: &EndToEnd| e.rx.fbs.machine().clock().now();

        // A duplicate fragment.
        let (msg, p) = pdus(&mut e, 32 << 10, 100);
        for pdu in [&p[0], &p[0], &p[1]] {
            e.receive_pdu(pdu, arrive(&e), false, 0).unwrap();
        }
        assert_eq!(e.reasm.pending(), 0);
        assert_eq!(baseline(&e), base, "after a duplicate");
        e.tx.release(e.tx.app, &msg).unwrap();

        // A partial datagram evicted by the capacity bound.
        e.reasm.capacity = 1;
        let (old, a) = pdus(&mut e, 32 << 10, 101);
        let (new, b) = pdus(&mut e, 32 << 10, 102);
        for pdu in [&a[0], &b[0], &b[1]] {
            e.receive_pdu(pdu, arrive(&e), false, 0).unwrap();
        }
        assert_eq!(e.reasm.dropped(), 1);
        assert_eq!(e.reasm.pending(), 0);
        assert_eq!(baseline(&e), base, "after an eviction");
        e.tx.release(e.tx.app, &old).unwrap();
        e.tx.release(e.tx.app, &new).unwrap();
    }

    #[test]
    fn window_paces_the_sender() {
        let mut cfg = EndToEndConfig::fig5(DomainSetup::KernelOnly);
        cfg.window = 1;
        let mut e = EndToEnd::new(machine(), cfg);
        let r = e.run(64 << 10, 4).unwrap();
        // With a window of one, the sender idles waiting for acks.
        assert!(r.tx_cpu < 0.9, "tx load {:.2}", r.tx_cpu);
    }
}
