//! A simulated host: fbuf system + protocol-stack domain placement.

use fbuf::{AllocMode, FbufId, FbufResult, FbufSystem, PathId, SendMode};
use fbuf_sim::{CostCategory, MachineConfig};
use fbuf_vm::{DomainId, KERNEL_DOMAIN};
use fbuf_xkernel::{integrated, Msg, MsgRefs};

/// Where the protocol stack's layers live (paper §4, Figures 5/6 legends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSetup {
    /// Everything — driver, IP, UDP, test protocol — in the kernel
    /// ("kernel-kernel", the no-crossing baseline).
    KernelOnly,
    /// Driver, IP, UDP in the kernel; test protocol in a user domain
    /// ("user-user": one kernel/user crossing per host).
    User,
    /// Driver and IP in the kernel; UDP in a user-level network server;
    /// test protocol in a user application ("user-netserver-user": a
    /// kernel/user and a user/user crossing per host).
    UserNetserver,
}

impl DomainSetup {
    /// Number of protection domains the data path intersects.
    pub fn domains(self) -> usize {
        match self {
            DomainSetup::KernelOnly => 1,
            DomainSetup::User => 2,
            DomainSetup::UserNetserver => 3,
        }
    }
}

/// Which allocator the app's outgoing buffers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStrategy {
    /// Per-path allocator (cached fbufs).
    Cached,
    /// Default allocator (uncached fbufs).
    Uncached,
}

/// How outgoing messages are filled.
#[derive(Debug, Clone)]
pub enum Fill {
    /// Write one marker word per page (the paper's throughput tests:
    /// "writes one word in each VM page").
    Touch,
    /// Write real payload bytes (integrity tests).
    Bytes(Vec<u8>),
}

/// One simulated host.
#[derive(Debug)]
pub struct Host {
    /// The fbuf facility (owns machine + RPC).
    pub fbs: FbufSystem,
    /// Message reference counts.
    pub refs: MsgRefs,
    /// Domain placement.
    pub setup: DomainSetup,
    /// Outgoing-buffer allocation strategy.
    pub alloc: AllocStrategy,
    /// Outgoing-transfer protection mode (volatile vs eagerly secured).
    pub send_mode: SendMode,
    /// The application domain (== kernel for [`DomainSetup::KernelOnly`]).
    pub app: DomainId,
    /// The network-server domain, if any.
    pub netserver: Option<DomainId>,
    out_path: Option<PathId>,
    in_path: Option<PathId>,
}

impl Host {
    /// Builds a host with the given placement and buffer regime.
    pub fn new(
        cfg: MachineConfig,
        setup: DomainSetup,
        alloc: AllocStrategy,
        send_mode: SendMode,
    ) -> Host {
        let mut fbs = FbufSystem::new(cfg);
        integrated::install_null_template(&mut fbs);
        let (app, netserver) = match setup {
            DomainSetup::KernelOnly => (KERNEL_DOMAIN, None),
            DomainSetup::User => (fbs.create_domain(), None),
            DomainSetup::UserNetserver => {
                let ns = fbs.create_domain();
                let app = fbs.create_domain();
                (app, Some(ns))
            }
        };
        let mut host = Host {
            fbs,
            refs: MsgRefs::new(),
            setup,
            alloc,
            send_mode,
            app,
            netserver,
            out_path: None,
            in_path: None,
        };
        if alloc == AllocStrategy::Cached {
            host.out_path = Some(
                host.fbs
                    .create_path(host.out_domains())
                    .expect("fresh domains"),
            );
        }
        // The inbound path is always available: the driver identifies it
        // from the PDU's VCI; whether it *uses* it is the driver's choice.
        host.in_path = Some(
            host.fbs
                .create_path(host.in_domains())
                .expect("fresh domains"),
        );
        host
    }

    /// The kernel domain.
    pub fn kernel(&self) -> DomainId {
        KERNEL_DOMAIN
    }

    /// Outbound hop sequence: app, (netserver), kernel. Degenerates to
    /// `[kernel, kernel]` for the kernel-only setup so a data path can
    /// still be declared.
    pub fn out_domains(&self) -> Vec<DomainId> {
        match self.setup {
            DomainSetup::KernelOnly => vec![KERNEL_DOMAIN, KERNEL_DOMAIN],
            DomainSetup::User => vec![self.app, KERNEL_DOMAIN],
            DomainSetup::UserNetserver => vec![
                self.app,
                self.netserver.expect("netserver setup"),
                KERNEL_DOMAIN,
            ],
        }
    }

    /// Inbound hop sequence: kernel, (netserver), app.
    pub fn in_domains(&self) -> Vec<DomainId> {
        let mut v = self.out_domains();
        v.reverse();
        v
    }

    /// The inbound (driver-side) data path.
    pub fn in_path(&self) -> PathId {
        self.in_path.expect("in path always created")
    }

    /// Maximum bytes per fbuf (one chunk).
    fn max_fbuf(&self) -> u64 {
        self.fbs.machine().config().chunk_size
    }

    /// Builds an outgoing message of `size` bytes in the app domain,
    /// spread over as many fbufs as the chunk size requires, and fills it.
    pub fn build_message(&mut self, size: u64, fill: &Fill) -> FbufResult<Msg> {
        let max = self.max_fbuf();
        let mode = match (self.alloc, self.out_path) {
            (AllocStrategy::Cached, Some(p)) => AllocMode::Cached(p),
            _ => AllocMode::Uncached,
        };
        let mut msg = Msg::empty();
        let mut remaining = size;
        let mut written = 0u64;
        while remaining > 0 {
            let this = remaining.min(max);
            let id = self.fbs.alloc(self.app, mode, this)?;
            self.fill_fbuf(id, this, written, fill)?;
            msg = msg.concat(&Msg::from_fbuf(id, 0, this));
            remaining -= this;
            written += this;
        }
        self.refs.adopt(self.app, &msg);
        Ok(msg)
    }

    fn fill_fbuf(&mut self, id: FbufId, len: u64, base: u64, fill: &Fill) -> FbufResult<()> {
        match fill {
            Fill::Touch => {
                let page = self.fbs.machine().page_size();
                let mut off = 0;
                while off < len {
                    self.fbs.write_fbuf(self.app, id, off, &[0xA7])?;
                    off += page;
                }
                Ok(())
            }
            Fill::Bytes(data) => {
                let slice = &data[base as usize..(base + len) as usize];
                self.fbs.write_fbuf(self.app, id, 0, slice)
            }
        }
    }

    /// Carries a message across one domain boundary: one RPC plus a
    /// transfer per distinct fbuf. `body_access` decides whether the
    /// receiver gets mappings (false models pass-through layers like the
    /// netserver's UDP, which "does not access the message's body").
    /// Same-domain hops are free.
    pub fn cross(
        &mut self,
        msg: &Msg,
        from: DomainId,
        to: DomainId,
        body_access: bool,
    ) -> FbufResult<()> {
        if from == to {
            return Ok(());
        }
        self.fbs.hop(from, to);
        if self.setup.domains() >= 3 {
            // Cache/TLB pollution of the third domain (paper §4).
            let penalty = self.fbs.machine().costs().crossing_cache_penalty;
            self.fbs.machine_mut().charge(CostCategory::Other, penalty);
        }
        for id in msg.distinct_fbufs() {
            if body_access {
                self.fbs.send(id, from, to, SendMode::Volatile)?;
            } else {
                self.fbs.send_reference(id, from, to)?;
            }
            if self.send_mode == SendMode::Secure {
                self.fbs.secure(id, to)?;
            }
        }
        self.refs.adopt(to, msg);
        Ok(())
    }

    /// The dummy protocol: touches (reads) one word in each page of the
    /// message, then releases the domain's reference.
    pub fn consume(&mut self, dom: DomainId, msg: &Msg) -> FbufResult<()> {
        let test_cost = self.fbs.machine().costs().proto_test_msg;
        self.fbs
            .machine_mut()
            .charge(CostCategory::Protocol, test_cost);
        msg.touch(&mut self.fbs, dom)?;
        self.release(dom, msg)
    }

    /// Gathers the full message contents as `dom` (integrity checks).
    pub fn gather(&mut self, dom: DomainId, msg: &Msg) -> FbufResult<Vec<u8>> {
        msg.gather(&mut self.fbs, dom)
    }

    /// Releases `dom`'s message reference.
    pub fn release(&mut self, dom: DomainId, msg: &Msg) -> FbufResult<()> {
        self.refs.release(&mut self.fbs, dom, msg)
    }

    /// Allocates a driver receive buffer in the kernel: from the inbound
    /// path's cache if `cached`, else from the default allocator. Clearing
    /// is never charged — an arriving PDU overwrites the whole buffer by
    /// DMA.
    pub fn alloc_rx(&mut self, len: u64, cached: bool) -> FbufResult<FbufId> {
        let mode = if cached {
            AllocMode::Cached(self.in_path())
        } else {
            AllocMode::Uncached
        };
        let was = self.fbs.charge_clearing;
        self.fbs.charge_clearing = false;
        let r = self.fbs.alloc(KERNEL_DOMAIN, mode, len);
        self.fbs.charge_clearing = was;
        r
    }

    /// Appends a message's payload to `out` by DMA (transmit side; no
    /// CPU charge), copying each frame's slice straight into the buffer.
    pub fn dma_out_of_msg(&self, msg: &Msg, out: &mut Vec<u8>) -> FbufResult<()> {
        let machine = self.fbs.machine();
        let page = machine.page_size();
        for e in msg.extents() {
            let f = self.fbs.fbuf(e.fbuf)?;
            let mut pos = 0;
            while pos < e.len {
                let addr = f.va + e.off + pos;
                let page_idx = ((addr - f.va) / page) as usize;
                let page_off = (addr % page) as usize;
                let n = (page - addr % page).min(e.len - pos);
                let frame = f.frames[page_idx].expect("tx fbuf resident");
                machine.dma_read_append(frame, page_off, n as usize, out);
                pos += n;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_host(setup: DomainSetup) -> Host {
        Host::new(
            MachineConfig::tiny(),
            setup,
            AllocStrategy::Cached,
            SendMode::Volatile,
        )
    }

    #[test]
    fn domain_placement() {
        let h = tiny_host(DomainSetup::KernelOnly);
        assert_eq!(h.app, KERNEL_DOMAIN);
        assert_eq!(h.setup.domains(), 1);

        let h = tiny_host(DomainSetup::User);
        assert_ne!(h.app, KERNEL_DOMAIN);
        assert_eq!(h.out_domains(), vec![h.app, KERNEL_DOMAIN]);

        let h = tiny_host(DomainSetup::UserNetserver);
        let ns = h.netserver.unwrap();
        assert_eq!(h.out_domains(), vec![h.app, ns, KERNEL_DOMAIN]);
        assert_eq!(h.in_domains(), vec![KERNEL_DOMAIN, ns, h.app]);
    }

    #[test]
    fn build_message_spans_chunks() {
        let mut h = tiny_host(DomainSetup::User);
        // tiny chunk = 16 KB; a 40 KB message needs 3 fbufs.
        let msg = h.build_message(40 << 10, &Fill::Touch).unwrap();
        assert_eq!(msg.len(), 40 << 10);
        assert_eq!(msg.distinct_fbufs().len(), 3);
        h.release(h.app, &msg).unwrap();
    }

    #[test]
    fn message_bytes_roundtrip_through_dma() {
        let mut h = tiny_host(DomainSetup::User);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let msg = h.build_message(20_000, &Fill::Bytes(data.clone())).unwrap();
        assert_eq!(h.gather(h.app, &msg).unwrap(), data);
        // What the wire would carry matches exactly.
        let mut wire = Vec::new();
        h.dma_out_of_msg(&msg, &mut wire).unwrap();
        assert_eq!(wire, data);
        h.release(h.app, &msg).unwrap();
    }

    #[test]
    fn cross_moves_references_and_mappings() {
        let mut h = tiny_host(DomainSetup::User);
        let msg = h.build_message(100, &Fill::Bytes(vec![9; 100])).unwrap();
        let (app, kernel) = (h.app, h.kernel());
        h.cross(&msg, app, kernel, true).unwrap();
        assert_eq!(h.gather(kernel, &msg).unwrap(), vec![9; 100]);
        h.release(kernel, &msg).unwrap();
        h.release(app, &msg).unwrap();
    }

    #[test]
    fn same_domain_cross_is_free() {
        let mut h = tiny_host(DomainSetup::KernelOnly);
        let msg = h.build_message(100, &Fill::Touch).unwrap();
        let msgs0 = h.fbs.stats().ipc_messages();
        let k = h.kernel();
        h.cross(&msg, k, k, true).unwrap();
        assert_eq!(h.fbs.stats().ipc_messages(), msgs0);
        h.release(k, &msg).unwrap();
    }

    #[test]
    fn rx_alloc_cached_vs_uncached() {
        let mut h = tiny_host(DomainSetup::User);
        let cached = h.alloc_rx(4096, true).unwrap();
        assert!(h.fbs.fbuf_hot(cached).unwrap().is_cached());
        let uncached = h.alloc_rx(4096, false).unwrap();
        assert!(!h.fbs.fbuf_hot(uncached).unwrap().is_cached());
        // DMA never charges clearing.
        assert_eq!(h.fbs.stats().pages_cleared(), 0);
    }

    #[test]
    fn dma_into_rx_fbuf_delivers_bytes() {
        let mut h = tiny_host(DomainSetup::User);
        let id = h.alloc_rx(10_000, true).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 13) as u8).collect();
        h.fbs.dma_into_fbuf(id, &payload).unwrap();
        let msg = Msg::from_fbuf(id, 0, 10_000);
        h.refs.adopt(h.kernel(), &msg);
        assert_eq!(h.gather(h.kernel(), &msg).unwrap(), payload);
        let k = h.kernel();
        h.release(k, &msg).unwrap();
    }

    #[test]
    fn secure_mode_protects_after_first_cross() {
        let mut h = Host::new(
            MachineConfig::tiny(),
            DomainSetup::User,
            AllocStrategy::Cached,
            SendMode::Secure,
        );
        let msg = h.build_message(100, &Fill::Bytes(vec![1; 100])).unwrap();
        let (app, kernel) = (h.app, h.kernel());
        h.cross(&msg, app, kernel, true).unwrap();
        // The app (a user-domain originator) has lost write access.
        let id = msg.distinct_fbufs()[0];
        assert!(h.fbs.write_fbuf(app, id, 0, &[2]).is_err());
        h.release(kernel, &msg).unwrap();
        h.release(app, &msg).unwrap();
    }
}
