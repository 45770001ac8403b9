//! A simulated host: fbuf system + protocol-stack domain placement.

use std::ops::Deref;

use fbuf::{AllocMode, FbufError, FbufId, FbufResult, FbufSystem, PathId, SendMode};
use fbuf_sim::{CostCategory, MachineConfig};
use fbuf_vm::{DomainId, Fault, KERNEL_DOMAIN};
use fbuf_xkernel::{integrated, Extent, Msg, MsgRefs};

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

/// A host's hop sequence through its protection domains: at most three,
/// held inline, so naming the route of a message costs no allocation.
/// Dereferences to the domain slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    doms: [DomainId; 3],
    len: usize,
}

impl Route {
    fn new(doms: &[DomainId]) -> Route {
        let mut route = Route {
            doms: [KERNEL_DOMAIN; 3],
            len: doms.len(),
        };
        route.doms[..doms.len()].copy_from_slice(doms);
        route
    }

    /// The route walked backwards.
    pub fn reversed(mut self) -> Route {
        self.doms[..self.len].reverse();
        self
    }

    /// The domains along the route, each once: a domain that repeats its
    /// predecessor (the kernel-only `[kernel, kernel]`) is skipped.
    pub fn distinct(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.iter()
            .enumerate()
            .filter(|&(i, d)| i == 0 || self[i - 1] != *d)
            .map(|(_, &d)| d)
    }
}

impl Deref for Route {
    type Target = [DomainId];

    fn deref(&self) -> &[DomainId] {
        &self.doms[..self.len]
    }
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

/// The outbound hop sequence of a host placed by `setup`: app,
/// (netserver), kernel, or `[kernel, kernel]` for the kernel-only setup.
fn out_route(setup: DomainSetup, app: DomainId, netserver: Option<DomainId>) -> Route {
    match (setup, netserver) {
        (DomainSetup::KernelOnly, _) => Route::new(&[KERNEL_DOMAIN, KERNEL_DOMAIN]),
        (DomainSetup::UserNetserver, Some(ns)) => Route::new(&[app, ns, KERNEL_DOMAIN]),
        _ => Route::new(&[app, KERNEL_DOMAIN]),
    }
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
    /// Outgoing-transfer protection mode (volatile vs eagerly secured).
    pub send_mode: SendMode,
    /// The application domain (== kernel for [`DomainSetup::KernelOnly`]).
    pub app: DomainId,
    /// The network-server domain, if any.
    pub netserver: Option<DomainId>,
    /// The outbound data path: the app's outgoing buffers are cached
    /// fbufs from its allocator.
    out_path: PathId,
    in_path: PathId,
}

impl Host {
    /// Builds a host with the given placement and protection mode.
    pub fn new(cfg: MachineConfig, setup: DomainSetup, send_mode: SendMode) -> Host {
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
        let out = out_route(setup, app, netserver);
        let out_path = fbs.create_path(out.to_vec()).expect("fresh domains");
        // The inbound path is always available: the driver identifies it
        // from the PDU's VCI; whether it *uses* it is the driver's choice.
        let in_path = fbs
            .create_path(out.reversed().to_vec())
            .expect("fresh domains");
        Host {
            fbs,
            refs: MsgRefs::new(),
            setup,
            send_mode,
            app,
            netserver,
            out_path,
            in_path,
        }
    }

    /// The kernel domain.
    pub fn kernel(&self) -> DomainId {
        KERNEL_DOMAIN
    }

    /// Outbound hop sequence: app, (netserver), kernel. Degenerates to
    /// `[kernel, kernel]` for the kernel-only setup so a data path can
    /// still be declared.
    pub fn out_domains(&self) -> Route {
        out_route(self.setup, self.app, self.netserver)
    }

    /// Inbound hop sequence: kernel, (netserver), app.
    pub fn in_domains(&self) -> Route {
        self.out_domains().reversed()
    }

    /// The inbound (driver-side) data path.
    pub fn in_path(&self) -> PathId {
        self.in_path
    }

    /// Maximum bytes per fbuf (one chunk).
    fn max_fbuf(&self) -> u64 {
        self.fbs.machine().config().chunk_size
    }

    /// Builds an outgoing message of `size` bytes in the app domain,
    /// spread over as many fbufs as the chunk size requires, and fills it.
    pub fn build_message(&mut self, size: u64, fill: &Fill) -> FbufResult<Msg> {
        let max = self.max_fbuf();
        let mode = AllocMode::Cached(self.out_path);
        let mut msg = Msg::with_capacity(size.div_ceil(max) as usize);
        let mut remaining = size;
        let mut written = 0u64;
        while remaining > 0 {
            let this = remaining.min(max);
            let id = self.fbs.alloc(self.app, mode, this)?;
            self.fill_fbuf(id, this, written, fill)?;
            msg.push(Extent {
                fbuf: id,
                off: 0,
                len: this,
            });
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

    /// Receives `msg`, a message on the `src` host, into this host's
    /// fbuf `id` by DMA: each payload byte moves once, straight from the
    /// transmitting host's frames into the receive buffer's frames, with
    /// no staging buffer and no CPU charge (the driver accounts for wire
    /// and DMA time). A transmit page with no frame behind it is refused
    /// as [`Fault::Unmapped`].
    pub fn dma_from(&mut self, id: FbufId, src: &Host, msg: &Msg) -> FbufResult<()> {
        let tx = src.fbs.machine();
        let page = tx.page_size();
        let mut at = 0u64;
        for e in msg.extents() {
            let f = src.fbs.fbuf(e.fbuf)?;
            let end = e.off.saturating_add(e.len);
            if end > f.len {
                return Err(FbufError::TooLarge {
                    requested: end,
                    max: f.len,
                });
            }
            let mut pos = e.off;
            while pos < end {
                let (idx, off) = ((pos / page) as usize, pos % page);
                let n = (page - off).min(end - pos);
                let frame = f.frames[idx].ok_or(Fault::Unmapped {
                    domain: KERNEL_DOMAIN,
                    va: f.va + pos,
                })?;
                let bytes = tx.dma_slice(frame, off as usize, n as usize);
                self.fbs.dma_into_fbuf_at(id, at, bytes)?;
                pos += n;
                at += n;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_host(setup: DomainSetup) -> Host {
        Host::new(MachineConfig::tiny(), setup, SendMode::Volatile)
    }

    #[test]
    fn domain_placement() {
        let h = tiny_host(DomainSetup::KernelOnly);
        assert_eq!(h.app, KERNEL_DOMAIN);
        assert_eq!(h.setup.domains(), 1);

        let h = tiny_host(DomainSetup::User);
        assert_ne!(h.app, KERNEL_DOMAIN);
        assert_eq!(*h.out_domains(), [h.app, KERNEL_DOMAIN]);

        let h = tiny_host(DomainSetup::UserNetserver);
        let ns = h.netserver.unwrap();
        assert_eq!(*h.out_domains(), [h.app, ns, KERNEL_DOMAIN]);
        assert_eq!(*h.in_domains(), [KERNEL_DOMAIN, ns, h.app]);
        let k = tiny_host(DomainSetup::KernelOnly);
        assert_eq!(
            k.out_domains().distinct().collect::<Vec<_>>(),
            [KERNEL_DOMAIN]
        );
        assert_eq!(
            h.in_domains().distinct().collect::<Vec<_>>(),
            [KERNEL_DOMAIN, ns, h.app]
        );
    }

    #[test]
    fn build_message_spans_chunks() {
        let mut h = tiny_host(DomainSetup::User);
        // tiny chunk = 16 KB; a 40 KB message needs 3 fbufs.
        let msg = h.build_message(40 << 10, &Fill::Touch).unwrap();
        assert_eq!(msg.len(), 40 << 10);
        assert_eq!(msg.distinct_fbufs().count(), 3);
        h.release(h.app, &msg).unwrap();
    }

    #[test]
    fn message_bytes_roundtrip_through_dma() {
        let mut h = tiny_host(DomainSetup::User);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let msg = h.build_message(20_000, &Fill::Bytes(data.clone())).unwrap();
        assert_eq!(h.gather(h.app, &msg).unwrap(), data);
        // What the receiving host's buffer gets matches exactly, from an
        // extent that starts mid-page and spans both of the message's
        // fbufs (the tiny chunk is 16 KB).
        let mut rx = tiny_host(DomainSetup::User);
        let (_, body) = msg.split(12_000);
        assert_eq!(body.fragments(), 2);
        let id = rx.alloc_rx(8_000, true).unwrap();
        rx.dma_from(id, &h, &body).unwrap();
        let got = Msg::from_fbuf(id, 0, 8_000);
        let k = rx.kernel();
        rx.refs.adopt(k, &got);
        assert_eq!(rx.gather(k, &got).unwrap(), data[12_000..]);
        rx.release(k, &got).unwrap();
        // A receive buffer too short for the message is refused, and so
        // is a descriptor reaching past the end of its transmit buffer.
        let short = rx.alloc_rx(4096, false).unwrap();
        assert!(matches!(
            rx.dma_from(short, &h, &body),
            Err(FbufError::TooLarge { .. })
        ));
        let first = msg.extents()[0];
        let past = Msg::from_fbuf(first.fbuf, first.len - 100, 1000);
        assert!(matches!(
            rx.dma_from(short, &h, &past),
            Err(FbufError::TooLarge { .. })
        ));
        h.release(h.app, &msg).unwrap();
    }

    #[test]
    fn dma_from_a_page_without_a_frame_is_refused_as_unmapped() {
        let mut h = tiny_host(DomainSetup::User);
        let msg = h.build_message(8192, &Fill::Touch).unwrap();
        // The cached buffer parks on release, and the pageout daemon takes
        // its frames; a descriptor still naming it reads no frame.
        h.release(h.app, &msg).unwrap();
        assert_eq!(h.fbs.reclaim_frames(usize::MAX), 2);
        let mut rx = tiny_host(DomainSetup::User);
        let id = rx.alloc_rx(8192, false).unwrap();
        assert!(matches!(
            rx.dma_from(id, &h, &msg),
            Err(FbufError::Vm(Fault::Unmapped { .. }))
        ));
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
        let mut h = Host::new(MachineConfig::tiny(), DomainSetup::User, SendMode::Secure);
        let msg = h.build_message(100, &Fill::Bytes(vec![1; 100])).unwrap();
        let (app, kernel) = (h.app, h.kernel());
        h.cross(&msg, app, kernel, true).unwrap();
        // The app (a user-domain originator) has lost write access.
        let id = msg.distinct_fbufs().next().unwrap();
        assert!(h.fbs.write_fbuf(app, id, 0, &[2]).is_err());
        h.release(kernel, &msg).unwrap();
        h.release(app, &msg).unwrap();
    }
}
