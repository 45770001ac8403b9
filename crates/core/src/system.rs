//! The fbuf facility facade.
//!
//! [`FbufSystem`] owns the simulated machine and the RPC layer and
//! implements the full lifecycle of fast buffers under all four regimes the
//! paper measures:
//!
//! | regime | alloc | send | free |
//! |---|---|---|---|
//! | cached + volatile | free-list pop | *(nothing)* | free-list push |
//! | cached + secured | free-list pop | protect + TLB flush | unprotect, push |
//! | uncached + volatile | carve VA, frames, map | map receiver | unmap all, free frames |
//! | uncached + secured | as above | + protect + flush | + unprotect |
//!
//! Only mapping operations that the regime actually requires are performed;
//! the per-page costs of Table 1 emerge from these sequences.
//!
//! # Hot-path data structures
//!
//! The steady-state cycle (cached alloc → send → free) is the whole point
//! of the paper, so the bookkeeping around it is O(1) and allocation-free:
//!
//! * fbufs live in a generational slab ([`fbuf_sim::Arena`]); an [`FbufId`]
//!   *is* the arena handle, so a retired id can never silently alias a
//!   recycled slot — stale ids report [`FbufError::NoSuchFbuf`];
//! * every per-page `map_page`/`unmap_page`/`protect_page` loop became one
//!   batched range call on [`Machine`] (identical simulated charges, one
//!   ranged trace event instead of N);
//! * a release touches only the fbuf's own holder list: no per-domain
//!   index of held fbufs is kept, and domain termination (rare) collects
//!   the dying domain's references in one pass over the fbuf arena;
//! * parked (free-listed) fbufs form an intrusive doubly-linked list,
//!   coldest at the head, which is the pageout daemon's reclaim order —
//!   [`FbufSystem::reclaim_frames`] pops victims lazily instead of
//!   materializing a global victim vector.

use std::cell::Cell;

use fbuf_ipc::Rpc;
use fbuf_sim::metrics::{Gauge, Timeline};
use fbuf_sim::{
    slot_of, Arena, CostCategory, EventKind, FaultPlan, FaultSite, MachineConfig, Ns, Stats,
};
use fbuf_vm::{DomainId, FrameId, Machine, Prot, SharedPage};

use crate::buffer::{Fbuf, FbufHot, FbufId, FbufState, SmallList};
use crate::error::{FbufError, FbufResult};
use crate::path::{DataPath, PathId};
use crate::policy::QuotaPolicy;
use crate::region::{ChunkAllocator, LocalAllocator};
use crate::tenant::Tenants;

/// How a buffer is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// From the per-path allocator: eligible for caching. The paper's
    /// common case, available whenever "the I/O data path of a buffer is
    /// always known at the time of allocation".
    Cached(PathId),
    /// From the default allocator: "in those cases where the I/O data path
    /// cannot be determined, a default allocator is used. This allocator
    /// returns uncached fbufs, and as a consequence, VM map manipulations
    /// are necessary for each domain transfer."
    Uncached,
}

/// The bytes of a device receive, one fresh page per call: each call
/// appends the next page's bytes (at most a page) to the page's emptied
/// storage, or appends nothing and hands over a whole page, which the
/// new frame shares instead of copying. See [`FbufSystem::alloc_from`].
pub type PageSource<'a> = &'a mut dyn FnMut(&mut Vec<u8>) -> Option<SharedPage>;

impl AllocMode {
    /// The path a cached allocation is made on.
    pub(crate) fn path(self) -> Option<PathId> {
        match self {
            AllocMode::Cached(p) => Some(p),
            AllocMode::Uncached => None,
        }
    }
}

/// Protection behaviour of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Volatile (default): the originator keeps write permission; the
    /// receiver may call [`FbufSystem::secure`] later if it must trust the
    /// contents.
    Volatile,
    /// Non-volatile: eagerly remove the originator's write permission as
    /// part of the transfer (the paper's "eagerly enforce immutability"
    /// alternative).
    Secure,
}

/// The fast-buffer facility.
///
/// # Threading
///
/// An `FbufSystem` is **intentionally `!Send`**: the legs of one transfer
/// share an `Rc` route in its event loop, so an engine stays on the
/// thread that built it. The sharded design ([`crate::shard`]) relies on
/// this: each OS thread builds its own engine inside the thread, and only
/// plain data (config, snapshots, trace events, payload bytes) crosses a
/// thread boundary.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<fbuf::FbufSystem>(); // must not compile: Rc routes inside
/// ```
#[derive(Debug)]
pub struct FbufSystem {
    pub(crate) machine: Machine,
    pub(crate) rpc: Rpc,
    chunk_alloc: ChunkAllocator,
    /// Each path's allocator, indexed by `PathId.0`. Only the path's
    /// originator may allocate on it, so the path alone keys it.
    path_alloc: Vec<Option<LocalAllocator>>,
    /// Each domain's default (uncached) allocator, indexed by
    /// `DomainId.0`.
    dom_alloc: Vec<Option<LocalAllocator>>,
    /// Paths indexed directly by `PathId.0` (paths are never removed, only
    /// marked dead).
    paths: Vec<DataPath>,
    /// Paths still live — with `registered_doms`, the number of indexed
    /// gauges a telemetry pass refuses without visiting them.
    live_paths: u64,
    /// Domains registered and not terminated.
    registered_doms: u64,
    /// Paths (by count of ids) and domains the last full telemetry
    /// visit saw; anything newer joins at the next pass.
    seen: Cell<(usize, usize)>,
    /// Cold fbuf halves in a generational slab; an [`FbufId`] is the
    /// arena handle, so stale ids fail instead of aliasing recycled slots.
    fbufs: Arena<Fbuf>,
    /// Hot fbuf halves (state, path, park links, birth stamp) in a dense
    /// array parallel to the arena slots, indexed by
    /// [`fbuf_sim::slot_of`]. The steady-state cached cycle and the
    /// parked-list neighbor patching touch only this lane; entries for
    /// retired slots are stale and must never be read without first
    /// validating the handle against `fbufs`.
    hot: Vec<FbufHot>,
    /// Registration flag per domain id (kernel included).
    registered: Vec<bool>,
    /// Termination flag per domain id (zombie-chunk bookkeeping).
    terminated: Vec<bool>,
    /// Head (coldest) of the intrusive parked list — the pageout daemon's
    /// reclaim order. Links live in `FbufHot::park_prev`/`park_next`
    /// inside the dense hot lane.
    park_head: Option<FbufId>,
    /// Tail (hottest) of the intrusive parked list.
    park_tail: Option<FbufId>,
    /// The arena slot of the fbuf based at each page of the fbuf region,
    /// plus one (0: none), indexed by page from the region's base, for
    /// reverse lookups (integrated aggregate inspection maps DAG
    /// pointers back to buffers). The region sits at one address in
    /// every domain, so one dense table serves them all; it grows to the
    /// highest base page used.
    va_index: Vec<u32>,
    /// A frame list reused by every build and mapping install, so
    /// neither allocates a temporary one.
    frame_list: Vec<FrameId>,
    /// Whether page clears for freshly materialized fbuf frames are
    /// *charged* (they are always performed). Table 1 of the paper excludes
    /// clearing cost from the uncached rows, so benches set this to
    /// `false`; the default is the honest `true`.
    pub charge_clearing: bool,
    /// Free-list reuse order. The paper uses LIFO ("the LIFO ordering
    /// ensures that fbufs at the front of the free list are most likely to
    /// have physical memory mapped to them"); FIFO exists for the
    /// ablation quantifying that choice.
    pub reuse_policy: ReusePolicy,
    /// The per-shard event loop. Held in an `Option` so
    /// [`FbufSystem::pump`](crate::engine) can take it out while the
    /// handler borrows `self`; `None` only during a pump. Boxed, so
    /// taking it out and putting it back moves a pointer, not the loop.
    pub(crate) engine: Option<Box<fbuf_ipc::EventLoop<crate::engine::HopMsg>>>,
    /// How many notices the most recent event-loop hop drained, handed
    /// back to the [`FbufSystem::hop`](crate::engine) caller.
    pub(crate) hop_notices: usize,
    /// Transfers whose explicit completion event was serviced.
    pub(crate) xfer_completed: u64,
    /// Transfers aborted mid-route by an inbox overload.
    pub(crate) xfer_aborted: u64,
    /// Transfers whose revocation deadline expired before a leg was
    /// serviced (also counted in `xfer_aborted` for conservation).
    pub(crate) xfer_revoked: u64,
    /// First error a hop handler hit (handlers cannot propagate).
    pub(crate) engine_error: Option<FbufError>,
    /// Tenant containment and billing: the ledger, the quota jail and
    /// the revocation deadline (see [`crate::tenant`]).
    pub(crate) tenants: Tenants,
    /// High bits of every span this system mints; the fleet sets one
    /// salt per shard so transfer spans stay fleet-unique.
    span_salt: u64,
    /// Low bits of the next minted span.
    span_counter: u64,
    /// Parked (free-listed) fbufs right now — a telemetry gauge kept
    /// O(1) instead of walking the intrusive parked list.
    parked_count: u64,
    /// The chunk-admission policy consulted before every kernel chunk
    /// grant (see [`crate::policy`]). [`QuotaPolicy::Static`] reproduces
    /// the paper's fixed per-path cap bit-for-bit.
    policy: QuotaPolicy,
    /// Priority class per path id (parallel to `paths`; class 0 = best
    /// effort). Only [`QuotaPolicy::PriorityWeighted`] reads it.
    path_class: Vec<u8>,
}

/// Fixed gauges a telemetry pass holds: all five.
const HELD_FIXED: u64 = 5;

/// Free-list reuse order (see [`FbufSystem::reuse_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// Most recently freed first (the paper's choice).
    Lifo,
    /// Least recently freed first (ablation baseline).
    Fifo,
}

/// Records `dom` as a holder of `f`. No-op if already a holder.
fn add_holder(f: &mut Fbuf, dom: DomainId) {
    if !f.held_by(dom) {
        f.holders.push(dom);
    }
}

/// Fails unless `dom` holds `f`.
pub(crate) fn check_holder(f: &Fbuf, dom: DomainId) -> FbufResult<()> {
    if f.held_by(dom) {
        Ok(())
    } else {
        Err(FbufError::NotHolder {
            domain: dom,
            fbuf: f.id,
        })
    }
}

/// Removes the originator's write permission from `f` (hot half `h`);
/// a no-op when it is already secured or the kernel originated it.
fn secure_fbuf(machine: &mut Machine, f: &Fbuf, h: &mut FbufHot) -> FbufResult<()> {
    if h.state == FbufState::Secured || f.originator.is_kernel() {
        return Ok(());
    }
    machine.protect_range(f.originator, f.va, f.pages, Prot::Read)?;
    machine.stats_mut().inc_fbufs_secured();
    machine.tracer().instant(
        machine.now(),
        EventKind::Secure,
        f.originator.0,
        h.path.map(|p| p.0),
        Some(f.id.0),
    );
    h.state = FbufState::Secured;
    Ok(())
}

/// Installs read-only mappings of every page of `f` in `dom`, listing
/// the frames in the reused `frames`.
fn map_for_read(
    machine: &mut Machine,
    f: &mut Fbuf,
    dom: DomainId,
    frames: &mut Vec<FrameId>,
) -> FbufResult<()> {
    frames.clear();
    frames.extend(f.frames.iter().map(|s| s.expect("held fbuf is resident")));
    machine.map_range(dom, f.va, frames, Prot::Read)?;
    f.mapped_in.push(dom);
    Ok(())
}

impl FbufSystem {
    /// Builds the facility over a fresh machine; the kernel domain is
    /// created and registered.
    pub fn new(cfg: MachineConfig) -> FbufSystem {
        let machine = Machine::new(cfg);
        let cfg = machine.config().clone();
        let rpc = Rpc::new(cfg.costs.clone());
        let mut sys = FbufSystem {
            machine,
            rpc,
            chunk_alloc: ChunkAllocator::new(
                cfg.fbuf_region_base,
                cfg.fbuf_region_size,
                cfg.chunk_size,
            ),
            path_alloc: Vec::new(),
            dom_alloc: Vec::new(),
            paths: Vec::new(),
            live_paths: 0,
            registered_doms: 0,
            seen: Cell::new((0, 0)),
            fbufs: Arena::new(),
            hot: Vec::new(),
            registered: Vec::new(),
            terminated: Vec::new(),
            park_head: None,
            park_tail: None,
            va_index: Vec::new(),
            frame_list: Vec::new(),
            charge_clearing: true,
            reuse_policy: ReusePolicy::Lifo,
            engine: Some(Box::default()),
            hop_notices: 0,
            xfer_completed: 0,
            xfer_aborted: 0,
            xfer_revoked: 0,
            engine_error: None,
            tenants: Tenants::default(),
            span_salt: 0,
            span_counter: 0,
            parked_count: 0,
            policy: QuotaPolicy::Static,
            path_class: Vec::new(),
        };
        let kernel = fbuf_vm::KERNEL_DOMAIN;
        sys.machine
            .map_fbuf_region(kernel)
            .expect("fresh kernel fbuf region");
        sys.register(kernel);
        sys
    }

    /// Grows the per-domain tables to cover `dom` and marks it registered.
    fn register(&mut self, dom: DomainId) {
        let need = dom.0 as usize + 1;
        if self.registered.len() < need {
            self.registered.resize(need, false);
            self.terminated.resize(need, false);
            self.dom_alloc.resize_with(need, || None);
        }
        if !self.registered[dom.0 as usize] {
            self.registered_doms += 1;
        }
        self.registered[dom.0 as usize] = true;
        self.tenants.fresh_clock(dom);
    }

    fn is_registered(&self, dom: DomainId) -> bool {
        self.registered
            .get(dom.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Creates and registers a new protection domain (its slice of the
    /// shared fbuf region is mapped with the null-read policy).
    pub fn create_domain(&mut self) -> DomainId {
        let dom = self.machine.create_domain();
        self.machine
            .map_fbuf_region(dom)
            .expect("fresh domain fbuf region");
        self.register(dom);
        dom
    }

    /// The underlying machine (immutable).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine (mutable — protocols use this for data
    /// access).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The RPC layer.
    pub fn rpc_mut(&mut self) -> &mut Rpc {
        &mut self.rpc
    }

    /// The machine's operation counters.
    pub fn stats(&self) -> &Stats {
        self.machine.stats()
    }

    /// Sets the high bits of every span id this system mints. The fleet
    /// gives each shard a distinct salt so one transfer's spans stay
    /// unique after [`fleet_trace`](crate::fleet_trace) merges rings.
    pub fn set_span_salt(&mut self, salt: u64) {
        self.span_salt = salt & 0xffff;
    }

    /// Mints a fresh transfer span id: salt in the high 16 bits, a
    /// per-system counter below. Host-only bookkeeping — never charges
    /// the clock.
    pub fn mint_span(&mut self) -> u64 {
        self.span_counter += 1;
        (self.span_salt << 48) | self.span_counter
    }

    /// The raw path id an fbuf was allocated on, if any — used to tag
    /// span and telemetry records with the tenant path.
    pub(crate) fn fbuf_path_raw(&self, id: FbufId) -> Option<u64> {
        self.fbufs.get(id.0)?;
        self.hot_of(id).path.map(|p| p.0)
    }

    /// Takes a telemetry sample if one is due at the simulated now
    /// (no-op unless the machine's [`Metrics`](fbuf_sim::Metrics) are
    /// enabled and a cadence period has elapsed — one `Cell` read when
    /// disabled, and never any simulated cost).
    pub fn sample_metrics(&self) {
        let now = self.machine.now();
        let m = self.machine.metrics();
        if !m.due(now) {
            return;
        }
        m.advance(now);
        self.sample_gauges_at(now);
    }

    /// Takes one system telemetry pass at `now`, unconditionally.
    /// Callers that own the cadence (the shard loop, which adds
    /// ring-occupancy gauges of its own) use this directly; everyone
    /// else goes through [`FbufSystem::sample_metrics`].
    ///
    /// Most gauges are *held*: every mutation site writes its gauge's
    /// new value as it changes it, so a pass only stamps its timelines
    /// and counts the gauges the series cap refused in one addition.
    /// New paths and domains join through one full visit in first-seen
    /// order (fixed gauges, then per path `parked`/`chunks`/`threshold`,
    /// then `inbox<d>`), as does every pass after a
    /// [`Metrics::clear`](fbuf_sim::Metrics::clear) or re-enable.
    pub fn sample_gauges_at(&self, now: Ns) {
        let Some(mut s) = self.machine.metrics().sampler(now) else {
            return;
        };
        let resync = s.resync();
        // Inbox gauges are read only while the event loop is in place,
        // i.e. not from inside one of its handlers.
        let engine = self.engine.as_deref();
        // Read every pass: the loop's depth reads 0 while it is out of
        // place, and the drop counter lives in `Stats`, which can be
        // reset; both are one read.
        let pending = engine.map_or(0, fbuf_ipc::EventLoop::pending) as u64;
        let drops = self.machine.stats().overload_drops();
        let (paths_seen, doms_seen) = self.seen.get();
        let joined = self.paths.len() > paths_seen
            || (engine.is_some() && self.registered.len() > doms_seen);
        if resync || joined {
            let value = |g| self.gauge_value(g);
            s.hold(Gauge::LiveFbufs, || value(Gauge::LiveFbufs));
            s.hold(Gauge::ParkedFbufs, || value(Gauge::ParkedFbufs));
            s.hold(Gauge::EnginePending, || pending);
            s.hold(Gauge::OverloadDrops, || drops);
            s.hold(Gauge::FreeChunks, || value(Gauge::FreeChunks));
            for (i, p) in self.paths.iter().enumerate() {
                if p.live {
                    let i = i as u32;
                    for g in [
                        Gauge::PathParked(i),
                        Gauge::PathChunks(i),
                        Gauge::PathThreshold(i),
                    ] {
                        s.hold(g, || value(g));
                    }
                }
            }
            if engine.is_some() {
                s.tick(Timeline::Inbox);
                for d in 0..self.registered.len() {
                    if self.registered[d] {
                        let g = Gauge::Inbox(d as u32);
                        s.hold(g, || value(g));
                    }
                }
            }
            // A resync with the loop away leaves the inbox series to
            // rejoin at the next pass that can read them.
            let doms = match (engine, resync) {
                (Some(_), _) => self.registered.len(),
                (None, true) => 0,
                (None, false) => doms_seen,
            };
            self.seen.set((self.paths.len(), doms));
        } else {
            s.write(Gauge::EnginePending, pending);
            s.write(Gauge::OverloadDrops, drops);
            s.tick(Timeline::System);
            // Every live gauge without a held series was refused by the
            // cap: the held fixed gauges and three per live path on the
            // system timeline, one per registered domain on the inbox
            // one, whose pass only a held series needs.
            let mut refused = HELD_FIXED + 3 * self.live_paths - s.standing(Timeline::System);
            if engine.is_some() {
                let held = s.standing(Timeline::Inbox);
                if held > 0 {
                    s.tick(Timeline::Inbox);
                }
                refused += self.registered_doms - held;
            }
            s.refuse(refused);
        }
    }

    /// The current value of a held gauge.
    #[inline]
    fn gauge_value(&self, g: Gauge) -> u64 {
        match g {
            Gauge::LiveFbufs => self.fbufs.len() as u64,
            Gauge::ParkedFbufs => self.parked_count,
            Gauge::FreeChunks => self.chunk_alloc.available(),
            Gauge::PathParked(i) => self.paths[i as usize].parked() as u64,
            Gauge::PathChunks(i) => self.path_chunks(PathId(u64::from(i))) as u64,
            Gauge::PathThreshold(i) => self.policy.threshold(
                self.chunk_alloc.available(),
                self.machine.config().max_chunks_per_path,
                self.path_class[i as usize],
            ),
            Gauge::Inbox(d) => self
                .engine
                .as_deref()
                .map_or(0, |e| e.inbox_len(DomainId(d)) as u64),
            _ => 0,
        }
    }

    /// Records a held gauge on write: hands telemetry the value this
    /// mutation left it at (one flag read while telemetry is off).
    #[inline]
    fn write_gauge(&mut self, g: Gauge) {
        if self.machine.metrics().is_enabled() {
            let value = self.gauge_value(g);
            self.machine.metrics_mut().write(g, || value);
        }
    }

    /// Every path's admission threshold reads the policy and the free
    /// chunks, so a change to either rewrites them all; the policy is
    /// asked only for thresholds with a standing series.
    fn write_thresholds(&mut self) {
        if !self.machine.metrics().is_enabled() {
            return;
        }
        let free = self.chunk_alloc.available();
        let quota = self.machine.config().max_chunks_per_path;
        let policy = &self.policy;
        let metrics = self.machine.metrics_mut();
        for (i, &class) in self.path_class.iter().enumerate() {
            metrics.write(Gauge::PathThreshold(i as u32), || {
                policy.threshold(free, quota, class)
            });
        }
    }

    /// The free-chunk count changed: its gauge and every threshold,
    /// which reads it.
    fn write_free_chunks(&mut self) {
        self.write_gauge(Gauge::FreeChunks);
        self.write_thresholds();
    }

    /// Arms a fault-injection plan across the whole engine: the fbuf
    /// layer's hook points ([`FaultSite::ChunkGrant`],
    /// [`FaultSite::QuotaExhausted`], [`FaultSite::ReclaimRefusal`]) and
    /// the machine's frame allocator ([`FaultSite::FrameAlloc`]) all
    /// consult the machine's one plan, so one seed replays one schedule.
    /// With no plan armed, every hook point is a single `is_some()`
    /// branch, like `trace`.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.machine.arm_faults(plan);
    }

    /// Disarms fault injection everywhere.
    pub fn disarm_faults(&mut self) {
        self.machine.disarm_faults();
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.machine.fault_plan()
    }

    #[inline]
    fn fault_fires(&self, site: FaultSite) -> bool {
        match self.machine.fault_plan() {
            Some(plan) => plan.fires(site),
            None => false,
        }
    }

    /// Declares an I/O data path over `domains` (traversal order; first is
    /// the originator).
    pub fn create_path(&mut self, domains: Vec<DomainId>) -> FbufResult<PathId> {
        for d in &domains {
            if !self.is_registered(*d) || !self.machine.domain_alive(*d) {
                return Err(FbufError::UnknownDomain(*d));
            }
        }
        let id = PathId(self.paths.len() as u64);
        self.paths.push(DataPath::new(id, domains));
        self.path_class.push(0);
        self.path_alloc.push(None);
        self.live_paths += 1;
        Ok(id)
    }

    /// Sets the chunk-admission policy. Safe to change at any time: the
    /// policy is consulted per decision and keeps no state of its own.
    pub fn set_quota_policy(&mut self, policy: QuotaPolicy) {
        self.policy = policy;
        self.write_thresholds();
    }

    /// The active chunk-admission policy.
    pub fn quota_policy(&self) -> QuotaPolicy {
        self.policy
    }

    /// Assigns a priority class to a path (class 0 = best effort; only
    /// [`QuotaPolicy::PriorityWeighted`] distinguishes classes).
    pub fn set_path_class(&mut self, path: PathId, class: u8) -> FbufResult<()> {
        if path.0 as usize >= self.paths.len() {
            return Err(FbufError::NoSuchPath(path));
        }
        self.path_class[path.0 as usize] = class;
        self.write_gauge(Gauge::PathThreshold(path.0 as u32));
        Ok(())
    }

    /// The priority class of a path (0 when never set).
    pub fn path_class(&self, path: PathId) -> u8 {
        self.path_class.get(path.0 as usize).copied().unwrap_or(0)
    }

    /// Chunks the kernel dispenser still has available — the dynamic
    /// policies' pressure signal, exposed for harnesses and gauges.
    pub fn free_chunks(&self) -> u64 {
        self.chunk_alloc.available()
    }

    /// Chunks currently held by the allocator of `path` — the per-path
    /// buffer occupancy the fan-in harness and the `path{i}.chunks`
    /// gauge report.
    pub fn path_chunks(&self, path: PathId) -> usize {
        self.path_alloc
            .get(path.0 as usize)
            .and_then(Option::as_ref)
            .map_or(0, LocalAllocator::chunks_held)
    }

    /// The allocator slot a build by `dom` on `path` uses: the path's
    /// own, or the domain's default one.
    fn allocator(&mut self, dom: DomainId, path: Option<PathId>) -> &mut Option<LocalAllocator> {
        match path {
            Some(p) => &mut self.path_alloc[p.0 as usize],
            None => &mut self.dom_alloc[dom.0 as usize],
        }
    }

    /// Looks up a path.
    pub fn path(&self, id: PathId) -> FbufResult<&DataPath> {
        self.paths
            .get(id.0 as usize)
            .ok_or(FbufError::NoSuchPath(id))
    }

    /// Looks up an fbuf's cold half.
    pub fn fbuf(&self, id: FbufId) -> FbufResult<&Fbuf> {
        self.fbufs.get(id.0).ok_or(FbufError::NoSuchFbuf(id))
    }

    /// Looks up an fbuf's hot half (state, path, park links, birth).
    pub fn fbuf_hot(&self, id: FbufId) -> FbufResult<&FbufHot> {
        if self.fbufs.get(id.0).is_none() {
            return Err(FbufError::NoSuchFbuf(id));
        }
        Ok(&self.hot[slot_of(id.0)])
    }

    /// The hot lane entry of a *known-live* id. Callers must have
    /// validated the handle against the arena on this code path.
    #[inline]
    fn hot_of(&self, id: FbufId) -> &FbufHot {
        debug_assert!(self.fbufs.contains(id.0), "hot lane read of stale id");
        &self.hot[slot_of(id.0)]
    }

    /// Mutable hot lane entry of a *known-live* id.
    #[inline]
    fn hot_mut(&mut self, id: FbufId) -> &mut FbufHot {
        debug_assert!(self.fbufs.contains(id.0), "hot lane write of stale id");
        &mut self.hot[slot_of(id.0)]
    }

    /// Number of live fbuf objects (incl. parked ones).
    pub fn live_fbufs(&self) -> usize {
        self.fbufs.len()
    }

    /// The fbuf whose pages contain virtual address `va`, if any.
    ///
    /// An fbuf never spans more than a chunk, so its base lies at most a
    /// chunk's pages below `va`: the nearest base found probing page by
    /// page downwards is the only candidate.
    pub fn fbuf_at_va(&self, va: u64) -> Option<FbufId> {
        let page_size = self.machine.page_size();
        let chunk_pages = self.machine.config().chunk_size / page_size;
        let top = self.va_page(va)?;
        let slot = (0..=top.min(chunk_pages as usize - 1))
            .find_map(|i| self.va_index.get(top - i)?.checked_sub(1))?;
        let handle = self.fbufs.handle_at(slot as usize)?;
        let f = self.fbufs.get(handle)?;
        (va < f.va + f.pages * page_size).then_some(FbufId(handle))
    }

    /// The page of the fbuf region `va` falls in, counted from the
    /// region's base.
    fn va_page(&self, va: u64) -> Option<usize> {
        let cfg = self.machine.config();
        let off = va.checked_sub(cfg.fbuf_region_base)?;
        (off < cfg.fbuf_region_size).then_some((off / cfg.page_size) as usize)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates an fbuf of `len` bytes in `dom`.
    ///
    /// Cached allocations must come from the path's originator domain and
    /// are satisfied from the path's LIFO free list when possible —
    /// skipping clearing and all mapping work ("no clearing of the buffers
    /// is required, and the appropriate mappings already exist", §3.2.2).
    pub fn alloc(&mut self, dom: DomainId, mode: AllocMode, len: u64) -> FbufResult<FbufId> {
        self.alloc_body(dom, mode, len, None)
    }

    /// [`FbufSystem::alloc`] for a device receive when `source` is given:
    /// each frame the allocation builds fresh (every page of an uncached
    /// buffer, or of a cached miss) is made from the bytes `source`
    /// appends for it, called once per page in page order, and reads
    /// zero past them, or shares the whole page `source` hands over
    /// instead. No clear is charged for such a buffer, since the
    /// device writes it. A cached hit reuses its frames without calling
    /// `source` (any the pageout daemon took come back zeroed), so the
    /// caller writes those itself. Without `source` this is `alloc`.
    pub fn alloc_from(
        &mut self,
        dom: DomainId,
        mode: AllocMode,
        len: u64,
        source: Option<PageSource<'_>>,
    ) -> FbufResult<FbufId> {
        self.alloc_body(dom, mode, len, source)
    }

    /// The one body of [`FbufSystem::alloc`] and
    /// [`FbufSystem::alloc_from`]. It is inlined into both, so `alloc`'s
    /// compiled instance knows there is no page source and the cached
    /// hit does not carry one.
    #[inline(always)]
    fn alloc_body(
        &mut self,
        dom: DomainId,
        mode: AllocMode,
        len: u64,
        source: Option<PageSource<'_>>,
    ) -> FbufResult<FbufId> {
        self.check_domain(dom)?;
        self.admit(dom, mode)?;
        let t0 = self.machine.now();
        let pages = self.machine.config().pages_for(len).max(1);
        let (id, cache_event) = match mode {
            AllocMode::Cached(path_id) => {
                let reuse_policy = self.reuse_policy;
                let parked = {
                    let path = self
                        .paths
                        .get_mut(path_id.0 as usize)
                        .filter(|p| p.live)
                        .ok_or(FbufError::NoSuchPath(path_id))?;
                    if path.originator() != dom {
                        return Err(FbufError::NotHolder {
                            domain: dom,
                            fbuf: FbufId(u64::MAX),
                        });
                    }
                    match reuse_policy {
                        ReusePolicy::Lifo => path.take(pages),
                        ReusePolicy::Fifo => path.take_fifo(pages),
                    }
                };
                if let Some(id) = parked {
                    self.write_gauge(Gauge::PathParked(path_id.0 as u32));
                    self.park_unlink(id);
                    let id = match self.reuse_cached(id, dom, len, source.is_some()) {
                        Ok(id) => id,
                        Err(e) => {
                            // Re-materialization failed (memory pressure or
                            // an injected fault). Put the buffer back where
                            // it came from — still parked, still cached —
                            // so the failed attempt leaks nothing. No
                            // events were emitted for it, so the trace
                            // stays balanced too.
                            let pages = self.fbufs.get(id.0).expect("parked fbuf exists").pages;
                            self.paths[path_id.0 as usize].park(pages, id);
                            self.write_gauge(Gauge::PathParked(path_id.0 as u32));
                            self.park_push_tail(id);
                            return Err(e);
                        }
                    };
                    (id, Some(EventKind::CacheHit))
                } else {
                    self.machine.stats_mut().inc_fbuf_cache_misses();
                    let id = self.build(dom, Some(path_id), pages, len, source)?;
                    (id, Some(EventKind::CacheMiss))
                }
            }
            AllocMode::Uncached => {
                // The default allocator enters the kernel VM system.
                self.machine
                    .charge(CostCategory::Vm, self.machine.costs().vm_invoke);
                (self.build(dom, None, pages, len, source)?, None)
            }
        };
        // `reuse_cached`/`build` stamped the birth instant that hold-time
        // accounting measures from.
        let path = mode.path();
        self.tenants.ledger.bill(dom, path, |r| r.allocs += 1);
        let (tr, now) = (self.machine.tracer(), self.machine.now());
        if let Some(kind) = cache_event {
            tr.instant(now, kind, dom.0, path.map(|p| p.0), Some(id.0));
        }
        tr.span(
            t0,
            now,
            EventKind::Alloc,
            dom.0,
            path.map(|p| p.0),
            Some(id.0),
        );
        self.sample_metrics();
        Ok(id)
    }

    /// Allocates a physical frame, reclaiming from parked fbufs (coldest
    /// first) when memory is tight — "the amount of physical memory
    /// allocated to fbufs depends on the level of I/O traffic compared to
    /// other system activity" (§3.3). The pass reclaims up to
    /// [`MachineConfig::reclaim_batch`] frames before retrying.
    ///
    /// The frame's page is written once: from `source` and then zeros,
    /// unbilled, or else cleared, billed when
    /// [`FbufSystem::charge_clearing`] is set. `source` runs only for
    /// the allocation that succeeds.
    fn frame_with_reclaim(&mut self, mut source: Option<PageSource<'_>>) -> FbufResult<FrameId> {
        let charge = self.charge_clearing;
        let mut take = |m: &mut Machine| match source.as_deref_mut() {
            Some(fill) => m.alloc_frame_from(fill),
            None => m.alloc_zeroed_frame(charge),
        };
        match take(&mut self.machine) {
            Ok(f) => Ok(f),
            Err(fbuf_vm::Fault::OutOfMemory) => {
                if self.reclaim_frames(self.machine.config().reclaim_batch) == 0 {
                    return Err(fbuf_vm::Fault::OutOfMemory.into());
                }
                Ok(take(&mut self.machine)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Hands a parked fbuf back to the originator: the paper's steady-state
    /// hit path — a free-list charge and O(1) bookkeeping, no mapping work
    /// and no allocation. `received` marks a device receive: frames the
    /// daemon took come back zeroed without a clear charge.
    fn reuse_cached(
        &mut self,
        id: FbufId,
        dom: DomainId,
        len: u64,
        received: bool,
    ) -> FbufResult<FbufId> {
        self.machine.stats_mut().inc_fbuf_cache_hits();
        self.machine
            .charge(CostCategory::Alloc, self.machine.costs().freelist_op);
        if !self.fbufs.get(id.0).expect("parked fbuf exists").resident() {
            // The pageout daemon stole frames while the buffer sat parked:
            // re-materialize before handing it out.
            self.rematerialize(id, dom, received)?;
        }
        let now = self.machine.now();
        let FbufSystem { fbufs, hot, .. } = self;
        let f = fbufs.get_mut(id.0).expect("parked fbuf exists");
        let h = &mut hot[slot_of(id.0)];
        debug_assert!(f.holders.is_empty());
        debug_assert_eq!(h.state, FbufState::Volatile);
        f.len = len;
        h.born = now;
        add_holder(f, dom);
        Ok(id)
    }

    /// Re-materializes frames the pageout daemon reclaimed while the fbuf
    /// sat parked: allocate and clear each missing frame, then install the
    /// mappings with batched range ops over each contiguous missing run.
    /// The clears are unbilled for a device receive (`received`).
    fn rematerialize(&mut self, id: FbufId, dom: DomainId, received: bool) -> FbufResult<()> {
        let page_size = self.machine.page_size();
        let (va, missing): (u64, Vec<u64>) = {
            let f = self.fbufs.get(id.0).expect("parked fbuf exists");
            (
                f.va,
                (0..f.pages)
                    .filter(|&i| f.frames[i as usize].is_none())
                    .collect(),
            )
        };
        // On failure the buffer stays wholly non-resident.
        let mut fresh = Vec::with_capacity(missing.len());
        let mut zeros = |_: &mut Vec<u8>| None;
        let source = received.then_some(&mut zeros as PageSource<'_>);
        self.fresh_frames(missing.len(), &mut fresh, source)?;
        let mut i = 0usize;
        while i < missing.len() {
            let mut run = 1usize;
            while i + run < missing.len() && missing[i + run] == missing[i] + run as u64 {
                run += 1;
            }
            self.machine.map_range(
                dom,
                va + missing[i] * page_size,
                &fresh[i..i + run],
                Prot::ReadWrite,
            )?;
            i += run;
        }
        let f = self.fbufs.get_mut(id.0).expect("parked fbuf exists");
        for (k, &idx) in missing.iter().enumerate() {
            f.frames[idx as usize] = Some(fresh[k]);
        }
        if !f.mapped_in.contains(&dom) {
            f.mapped_in.push(dom);
        }
        Ok(())
    }

    /// Appends `n` frames for fbuf memory to `frames`, cleared or built
    /// from `source` (see [`FbufSystem::frame_with_reclaim`]). Partial
    /// failure must not strand the frames already taken, so on error
    /// they are released and `frames` is as it was.
    fn fresh_frames(
        &mut self,
        n: usize,
        frames: &mut Vec<FrameId>,
        mut source: Option<PageSource<'_>>,
    ) -> FbufResult<()> {
        let start = frames.len();
        for _ in 0..n {
            let page: Option<PageSource<'_>> = match source {
                Some(ref mut fill) => Some(&mut **fill),
                None => None,
            };
            match self.frame_with_reclaim(page) {
                Ok(f) => frames.push(f),
                Err(e) => {
                    for f in frames.drain(start..) {
                        self.machine.release_frame(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn build(
        &mut self,
        dom: DomainId,
        path: Option<PathId>,
        pages: u64,
        len: u64,
        source: Option<PageSource<'_>>,
    ) -> FbufResult<FbufId> {
        let page_size = self.machine.page_size();
        let chunk_size = self.machine.config().chunk_size;
        let quota = self.machine.config().max_chunks_per_path;
        let va = loop {
            let allocator = self
                .allocator(dom, path)
                .get_or_insert_with(|| LocalAllocator::new(path, chunk_size));
            match allocator.carve(pages, page_size)? {
                Some(va) => break va,
                None => {
                    let held = allocator.chunks_held();
                    let class = path.map_or(0, |p| self.path_class(p));
                    let admits =
                        self.policy
                            .admits(held, self.chunk_alloc.available(), quota, class);
                    let refused = if !admits {
                        // An organic admission denial: the policy refused
                        // growth. Only these count as quota denials —
                        // injected ones are the fault plan's to tally.
                        self.machine.stats_mut().inc_chunk_quota_denials();
                        Some(FbufError::QuotaExceeded { path })
                    } else if self.fault_fires(FaultSite::QuotaExhausted) {
                        Some(FbufError::QuotaExceeded { path })
                    } else if self.fault_fires(FaultSite::ChunkGrant) {
                        Some(FbufError::RegionExhausted)
                    } else {
                        None
                    };
                    if let Some(e) = refused {
                        // An absorbed fault, billed to the refused tenant.
                        self.tenants.ledger.bill(dom, path, |r| r.faults += 1);
                        return Err(e);
                    }
                    // Ask the kernel for another chunk.
                    self.machine
                        .charge(CostCategory::Alloc, self.machine.costs().chunk_request);
                    let chunk = self.chunk_alloc.grant()?;
                    self.machine.stats_mut().inc_chunks_granted();
                    if let Some(alloc) = self.allocator(dom, path) {
                        alloc.add_chunk(chunk);
                    }
                    self.write_free_chunks();
                    if let Some(p) = path {
                        self.write_gauge(Gauge::PathChunks(p.0 as u32));
                    }
                }
            }
        };
        let mut frames = std::mem::take(&mut self.frame_list);
        frames.clear();
        if let Err(e) = self.fresh_frames(pages as usize, &mut frames, source) {
            self.frame_list = frames;
            // Hand the carved window back to the local allocator: a
            // failed build leaks neither frames nor address space.
            if let Some(alloc) = self.allocator(dom, path) {
                alloc.release(va, pages);
            }
            return Err(e);
        }
        // One batched mapping install for the whole buffer.
        self.machine.map_range(dom, va, &frames, Prot::ReadWrite)?;
        let mut listed = SmallList::with_capacity(frames.len());
        for &f in &frames {
            listed.push(Some(f));
        }
        self.frame_list = frames;
        let mut holders = SmallList::new();
        holders.push(dom);
        let handle = self.fbufs.insert(Fbuf {
            id: FbufId(0), // patched below once the handle is known
            va,
            pages,
            len,
            originator: dom,
            holders: holders.clone(),
            mapped_in: holders,
            frames: listed,
        });
        let id = FbufId(handle);
        self.fbufs.get_mut(handle).expect("just inserted").id = id;
        self.write_gauge(Gauge::LiveFbufs);
        // Keep the hot lane dense over every slot the arena has ever
        // issued; a recycled slot just overwrites its stale entry.
        let slot = slot_of(handle);
        if self.hot.len() <= slot {
            self.hot.resize_with(slot + 1, || FbufHot::new(None, Ns(0)));
        }
        self.hot[slot] = FbufHot::new(path, self.machine.now());
        self.tenants.charge(dom, pages * page_size);
        let page = self.va_page(va).expect("fbufs lie in the fbuf region");
        if self.va_index.len() <= page {
            self.va_index.resize(page + 1, 0);
        }
        self.va_index[page] = slot as u32 + 1;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Transfer
    // ------------------------------------------------------------------

    /// Transfers the fbuf to `to` with copy semantics (`from` keeps its
    /// reference until it frees). The control transfer itself (IPC) is
    /// charged separately by whoever carries the reference across — see
    /// `fbuf_ipc::Rpc::call`.
    pub fn send(
        &mut self,
        id: FbufId,
        from: DomainId,
        to: DomainId,
        mode: SendMode,
    ) -> FbufResult<()> {
        self.transfer(id, from, to, Some(mode))
    }

    /// Transfers only the *reference* to `to`, without installing any
    /// mappings. Used for pass-through domains that never access the
    /// message body — the paper observes that UDP in the netserver domain
    /// "does not access the message's body. Thus, there is no need to ever
    /// map the corresponding pages into the netserver domain" (§4,
    /// Figure 6 discussion). If the receiver does need access later, call
    /// [`FbufSystem::ensure_mapped`].
    pub fn send_reference(&mut self, id: FbufId, from: DomainId, to: DomainId) -> FbufResult<()> {
        self.transfer(id, from, to, None)
    }

    /// Both transfer forms: `to` must be a live domain and `from` must
    /// hold `id`; the transfer is billed to `from` and `to` becomes a
    /// holder. `mapped` is a mapping send's mode (secure if asked, then
    /// map into `to` unless already there); `None` passes the reference
    /// only. The steady-state cached send is one arena lookup and no VM
    /// work.
    fn transfer(
        &mut self,
        id: FbufId,
        from: DomainId,
        to: DomainId,
        mapped: Option<SendMode>,
    ) -> FbufResult<()> {
        self.check_domain(to)?;
        let t0 = self.machine.now();
        let FbufSystem {
            fbufs,
            machine,
            hot,
            tenants,
            frame_list,
            ..
        } = self;
        let f = fbufs.get_mut(id.0).ok_or(FbufError::NoSuchFbuf(id))?;
        check_holder(f, from)?;
        let h = &mut hot[slot_of(id.0)];
        let path = h.path;
        tenants.bill_transfer(machine.stats_mut(), from, path, f.len);
        if let Some(mode) = mapped {
            if mode == SendMode::Secure {
                secure_fbuf(machine, f, h)?;
            }
            if !f.mapped_in.contains(&to) {
                // Mapping into the receiver requires the kernel; for cached
                // fbufs this happens once per buffer lifetime and then
                // never again.
                if path.is_none() {
                    machine.charge(CostCategory::Vm, machine.costs().vm_invoke);
                }
                map_for_read(machine, f, to, frame_list)?;
            }
        }
        add_holder(f, to);
        let (tracer, now, p) = (machine.tracer(), machine.now(), path.map(|p| p.0));
        match mapped {
            Some(_) => tracer.span_peer(
                t0,
                now,
                EventKind::Transfer,
                from.0,
                Some(to.0),
                p,
                Some(id.0),
            ),
            None => tracer.instant_peer(now, EventKind::Transfer, from.0, to.0, p, Some(id.0)),
        }
        Ok(())
    }

    /// Installs read mappings of the fbuf in `dom` if absent (the lazy
    /// counterpart of the mapping normally done by [`FbufSystem::send`];
    /// charged as a fault per page plus the mapping updates).
    pub fn ensure_mapped(&mut self, id: FbufId, dom: DomainId) -> FbufResult<()> {
        let FbufSystem {
            fbufs,
            machine,
            frame_list,
            ..
        } = self;
        let f = fbufs.get_mut(id.0).ok_or(FbufError::NoSuchFbuf(id))?;
        check_holder(f, dom)?;
        if f.mapped_in.contains(&dom) {
            return Ok(());
        }
        // Lazy mapping is driven by page faults: one trap per page, then a
        // single batched mapping install.
        machine.charge(CostCategory::Vm, machine.costs().fault_trap * f.pages);
        map_for_read(machine, f, dom, frame_list)
    }

    /// A receiver's request to make the buffer trustworthy: removes the
    /// originator's write permission. A no-op when the originator is the
    /// kernel ("this is a no-op if the originator is a trusted domain").
    pub fn secure(&mut self, id: FbufId, requester: DomainId) -> FbufResult<()> {
        let FbufSystem {
            fbufs,
            machine,
            hot,
            ..
        } = self;
        let f = fbufs.get(id.0).ok_or(FbufError::NoSuchFbuf(id))?;
        check_holder(f, requester)?;
        secure_fbuf(machine, f, &mut hot[slot_of(id.0)])
    }

    // ------------------------------------------------------------------
    // Deallocation
    // ------------------------------------------------------------------

    /// Releases `dom`'s reference; the last release deallocates the buffer
    /// (parking it on its path's free list if cached).
    pub fn free(&mut self, id: FbufId, dom: DomainId) -> FbufResult<()> {
        let FbufSystem {
            fbufs,
            machine,
            rpc,
            hot,
            ..
        } = self;
        let f = fbufs.get_mut(id.0).ok_or(FbufError::NoSuchFbuf(id))?;
        let Some(i) = f.holders.iter().position(|&d| d == dom) else {
            return Err(FbufError::NotHolder {
                domain: dom,
                fbuf: id,
            });
        };
        f.holders.swap_remove(i);
        let h = &hot[slot_of(id.0)];
        let (originator, now_empty, path, born) =
            (f.originator, f.holders.is_empty(), h.path, h.born);
        machine.tracer().instant(
            machine.now(),
            EventKind::Free,
            dom.0,
            path.map(|p| p.0),
            Some(id.0),
        );
        if dom != originator {
            // An external reference was dropped: queue a deallocation
            // notice for the owner (it rides the next RPC reply, or an
            // explicit message when the backlog grows too long).
            rpc.queue_dealloc_notice(machine, originator, dom, id.0);
        }
        if now_empty {
            // The buffer's whole incarnation ends here: bill its hold time
            // (birth to last release) to the originating tenant.
            let hold = (machine.now() - born).as_ns();
            self.tenants.bill_hold(originator, path, hold);
            self.dealloc(id)?;
        }
        self.tenants.progressed(dom);
        self.sample_metrics();
        Ok(())
    }

    fn dealloc(&mut self, id: FbufId) -> FbufResult<()> {
        let (cached_live_path, path, state, originator, va, pages) = {
            let f = self.fbufs.get(id.0).expect("dealloc of live fbuf");
            let h = self.hot_of(id);
            let live = h
                .path
                .and_then(|p| self.paths.get(p.0 as usize))
                .map(|p| p.live)
                .unwrap_or(false);
            (live, h.path, h.state, f.originator, f.va, f.pages)
        };
        if cached_live_path && self.machine.domain_alive(originator) {
            // Cached: return write permission to the originator and park on
            // the path free list; every mapping stays in place.
            if state == FbufState::Secured {
                self.machine
                    .protect_range(originator, va, pages, Prot::ReadWrite)?;
                self.hot_mut(id).state = FbufState::Volatile;
            }
            self.machine
                .charge(CostCategory::Alloc, self.machine.costs().freelist_op);
            let path = path.expect("cached fbuf has a path");
            self.paths[path.0 as usize].park(pages, id);
            self.write_gauge(Gauge::PathParked(path.0 as u32));
            self.park_push_tail(id);
            return Ok(());
        }
        self.retire(id)
    }

    /// Parked fbufs, coldest first — the pageout daemon's reclaim order.
    pub(crate) fn parked_fbufs(&self) -> impl Iterator<Item = FbufId> + '_ {
        std::iter::successors(self.park_head, |&id| self.hot_of(id).park_next)
    }

    /// Takes a parked fbuf off its path's free list and retires it.
    pub(crate) fn retire_parked(&mut self, id: FbufId) -> FbufResult<()> {
        if let Some(p) = self.hot_of(id).path {
            self.paths[p.0 as usize].unpark(id);
            self.write_gauge(Gauge::PathParked(p.0 as u32));
        }
        self.retire(id)
    }

    /// Fully destroys an fbuf: unmaps it everywhere, frees its frames, and
    /// returns its address space to the owning allocator.
    fn retire(&mut self, id: FbufId) -> FbufResult<()> {
        self.machine
            .charge(CostCategory::Vm, self.machine.costs().vm_invoke);
        self.park_unlink(id);
        // Snapshot the hot half before the remove retires the slot (the
        // lane entry becomes stale the moment the arena recycles it).
        let path = self.hot_of(id).path;
        let f = self.fbufs.remove(id.0).expect("retire of live fbuf");
        self.write_gauge(Gauge::LiveFbufs);
        debug_assert!(f.holders.is_empty(), "retire with outstanding references");
        if let Some(page) = self.va_page(f.va) {
            self.va_index[page] = 0;
        }
        for dom in &f.mapped_in {
            if !self.machine.domain_alive(*dom) {
                continue; // its mappings died with it
            }
            self.machine.unmap_range(*dom, f.va, f.pages)?;
        }
        for frame in f.frames.iter().flatten() {
            self.machine.release_frame(*frame);
        }
        if let Some(alloc) = self.allocator(f.originator, path) {
            alloc.release(f.va, f.pages);
        }
        self.tenants
            .uncharge(f.originator, f.pages * self.machine.page_size());
        let originator = f.originator;
        // If the originator terminated earlier, its chunks were parked
        // until all external references drained — check whether this was
        // the last one.
        if self.terminated[originator.0 as usize] {
            self.maybe_release_zombie_chunks(originator);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pageout
    // ------------------------------------------------------------------

    /// Reclaims up to `want` physical frames from parked (free-listed)
    /// fbufs, coldest first. Contents are discarded, never paged out
    /// ("when the kernel reclaims the physical memory of an fbuf that is on
    /// a free list, it discards the fbuf's contents").
    ///
    /// Victims pop lazily off the head of the intrusive parked list, so the
    /// walk stops the moment the request is met and already-reclaimed
    /// buffers never show up (they were unlinked when their frames were
    /// taken) — no victim vector, no residency re-checks.
    pub fn reclaim_frames(&mut self, want: usize) -> usize {
        let mut reclaimed = 0;
        while reclaimed < want {
            let Some(id) = self.park_head else { break };
            if self.fault_fires(FaultSite::ReclaimRefusal) {
                // The coldest parked buffer is (simulated as) pinned —
                // e.g. wired down for in-progress DMA. The daemon gives
                // up rather than skip ahead, exactly like a real pageout
                // pass blocked on a wired page.
                let orig = self.fbufs.get(id.0).expect("parked fbuf exists").originator;
                let pinned_path = self.hot_of(id).path;
                self.tenants
                    .ledger
                    .bill(orig, pinned_path, |r| r.faults += 1);
                break;
            }
            self.park_unlink(id);
            let FbufSystem {
                fbufs,
                machine,
                hot,
                ..
            } = self;
            let f = fbufs.get_mut(id.0).expect("parked fbuf exists");
            let path = hot[slot_of(id.0)].path;
            let (va, pages, originator) = (f.va, f.pages, f.originator);
            for &dom in f.mapped_in.iter() {
                if machine.domain_alive(dom) {
                    let _ = machine.unmap_range(dom, va, pages);
                }
            }
            f.mapped_in.clear();
            let mut took = 0u64;
            for slot in f.frames.iter_mut() {
                if let Some(frame) = slot.take() {
                    machine.release_frame(frame);
                    took += 1;
                }
            }
            if took > 0 {
                machine.stats_mut().add_frames_reclaimed(took);
                machine.tracer().instant(
                    machine.now(),
                    EventKind::Reclaim,
                    originator.0,
                    path.map(|p| p.0),
                    Some(id.0),
                );
                reclaimed += took as usize;
            }
        }
        reclaimed
    }

    /// Appends `id` at the hot end of the parked list.
    ///
    /// Every link lives in the dense hot lane, so the park/unpark cycle
    /// (twice per steady-state operation) and its neighbor patching index
    /// one packed array — no arena generation checks, and none of the
    /// cold half's holder/frame vectors pulled through the cache.
    fn park_push_tail(&mut self, id: FbufId) {
        debug_assert!(self.fbufs.contains(id.0), "park of stale id");
        let old_tail = self.park_tail;
        self.parked_count += 1;
        self.write_gauge(Gauge::ParkedFbufs);
        {
            let h = &mut self.hot[slot_of(id.0)];
            debug_assert!(!h.park_linked, "double park");
            h.park_prev = old_tail;
            h.park_next = None;
            h.park_linked = true;
        }
        match old_tail {
            Some(t) => self.hot[slot_of(t.0)].park_next = Some(id),
            None => self.park_head = Some(id),
        }
        self.park_tail = Some(id);
    }

    /// Removes `id` from the parked list if present (no-op otherwise).
    fn park_unlink(&mut self, id: FbufId) {
        debug_assert!(self.fbufs.contains(id.0), "unpark of stale id");
        let (prev, next) = {
            let h = &mut self.hot[slot_of(id.0)];
            if !h.park_linked {
                return;
            }
            h.park_linked = false;
            (h.park_prev.take(), h.park_next.take())
        };
        self.parked_count -= 1;
        self.write_gauge(Gauge::ParkedFbufs);
        match prev {
            Some(p) => self.hot[slot_of(p.0)].park_next = next,
            None => self.park_head = next,
        }
        match next {
            Some(n) => self.hot[slot_of(n.0)].park_prev = prev,
            None => self.park_tail = prev,
        }
    }

    // ------------------------------------------------------------------
    // Termination
    // ------------------------------------------------------------------

    /// Handles the termination of a domain, normal or abnormal (§3.3):
    /// its references are released (endpoint destruction), paths through it
    /// are torn down, and chunks it owns are retained until all external
    /// references to its fbufs are relinquished.
    pub fn terminate_domain(&mut self, dom: DomainId) -> FbufResult<()> {
        self.check_domain(dom)?;
        // 1. Release every reference the dying domain holds, collected in
        //    one pass over the fbuf arena (termination is rare, so no
        //    per-domain index is kept for it) and released in address
        //    order, which does not depend on how arena slots were reused.
        let mut mine: Vec<(u64, FbufId)> = self
            .fbufs
            .iter()
            .filter_map(|(h, f)| f.held_by(dom).then_some((f.va, FbufId(h))))
            .collect();
        mine.sort_unstable();
        for (_, id) in mine {
            self.free(id, dom)?;
        }
        // 2. Tear down paths through the domain; their parked fbufs are
        //    fully retired.
        let dead_paths: Vec<PathId> = self
            .paths
            .iter()
            .filter(|p| p.live && p.contains(dom))
            .map(|p| p.id)
            .collect();
        for pid in dead_paths {
            let parked = {
                let p = &mut self.paths[pid.0 as usize];
                p.live = false;
                p.drain()
            };
            self.live_paths -= 1;
            let i = pid.0 as u32;
            for g in [
                Gauge::PathParked(i),
                Gauge::PathChunks(i),
                Gauge::PathThreshold(i),
            ] {
                self.machine.metrics_mut().leave(g);
            }
            for id in parked {
                self.retire(id)?;
            }
        }
        // 3. Machine-level teardown (regions, pmap, TLB).
        self.machine.terminate_domain(dom)?;
        self.registered[dom.0 as usize] = false;
        self.registered_doms -= 1;
        self.machine.metrics_mut().leave(Gauge::Inbox(dom.0));
        self.terminated[dom.0 as usize] = true;
        // 4. Release the domain's chunks now, or park them until external
        //    references drain.
        self.maybe_release_zombie_chunks(dom);
        Ok(())
    }

    fn maybe_release_zombie_chunks(&mut self, dom: DomainId) {
        // O(1): a domain's charge is nonzero exactly while it has a live
        // originated buffer, so no scan over every fbuf is needed.
        if self.charged_bytes(dom) > 0 {
            return;
        }
        // The default allocator first, then the domain's paths in id
        // order: chunks return to the region allocator — and therefore
        // every future grant comes out — in one fixed order.
        let paths = self
            .paths
            .iter()
            .filter(|p| p.originator() == dom)
            .map(|p| p.id);
        let owned: Vec<Option<PathId>> = std::iter::once(None).chain(paths.map(Some)).collect();
        let mut reclaimed = false;
        for path in owned {
            let Some(mut alloc) = self.allocator(dom, path).take() else {
                continue;
            };
            for chunk in alloc.take_chunks() {
                self.chunk_alloc.reclaim(chunk);
                reclaimed = true;
            }
            if let Some(p) = path {
                self.write_gauge(Gauge::PathChunks(p.0 as u32));
            }
        }
        if reclaimed {
            self.write_free_chunks();
        }
    }

    fn check_domain(&self, dom: DomainId) -> FbufResult<()> {
        if self.is_registered(dom) && self.machine.domain_alive(dom) {
            Ok(())
        } else {
            Err(FbufError::UnknownDomain(dom))
        }
    }

    // ------------------------------------------------------------------
    // Data access convenience
    // ------------------------------------------------------------------

    /// Writes into an fbuf at byte offset `off` as `dom` (subject to the
    /// domain's actual page protections — a receiver or a secured
    /// originator will fault).
    pub fn write_fbuf(
        &mut self,
        dom: DomainId,
        id: FbufId,
        off: u64,
        bytes: &[u8],
    ) -> FbufResult<()> {
        let va = self.io_va(id, off, bytes.len() as u64)?;
        let path = self.hot_of(id).path;
        self.machine.write(dom, va + off, bytes)?;
        self.machine.tracer().instant(
            self.machine.now(),
            EventKind::Write,
            dom.0,
            path.map(|p| p.0),
            Some(id.0),
        );
        Ok(())
    }

    /// Reads from an fbuf at byte offset `off` as `dom`.
    pub fn read_fbuf(
        &mut self,
        dom: DomainId,
        id: FbufId,
        off: u64,
        len: u64,
    ) -> FbufResult<Vec<u8>> {
        let va = self.io_va(id, off, len)?;
        Ok(self.machine.read(dom, va + off, len)?)
    }

    /// Fills `out` from an fbuf at byte offset `off` as `dom`: the same
    /// translation, faults and charges as [`FbufSystem::read_fbuf`], into
    /// a caller's buffer instead of a new `Vec`.
    pub fn read_fbuf_into(
        &mut self,
        dom: DomainId,
        id: FbufId,
        off: u64,
        out: &mut [u8],
    ) -> FbufResult<()> {
        let va = self.io_va(id, off, out.len() as u64)?;
        Ok(self.machine.read_into(dom, va + off, out)?)
    }

    /// Writes `bytes` into an fbuf from offset 0 by device DMA: straight
    /// into its frames, page by page, with no translation and no CPU
    /// charge (the driver accounts for wire and DMA time). A page with
    /// no frame behind it refuses the transfer as unmapped.
    pub fn dma_into_fbuf(&mut self, id: FbufId, bytes: &[u8]) -> FbufResult<()> {
        self.dma_into_fbuf_at(id, 0, bytes)
    }

    /// [`FbufSystem::dma_into_fbuf`] at byte offset `off`, so a receive
    /// can be filled piece by piece as the bytes arrive.
    pub fn dma_into_fbuf_at(&mut self, id: FbufId, off: u64, bytes: &[u8]) -> FbufResult<()> {
        self.io_va(id, off, bytes.len() as u64)?;
        let page = self.machine.page_size();
        let FbufSystem { fbufs, machine, .. } = self;
        let f = fbufs.get(id.0).ok_or(FbufError::NoSuchFbuf(id))?;
        let (mut pos, mut rest) = (off, bytes);
        while !rest.is_empty() {
            let (idx, in_page) = (pos / page, pos % page);
            let n = ((page - in_page) as usize).min(rest.len());
            let frame = f.frames[idx as usize].ok_or(fbuf_vm::Fault::Unmapped {
                domain: fbuf_vm::KERNEL_DOMAIN,
                va: f.va + idx * page,
            })?;
            machine.dma_write(frame, in_page as usize, &rest[..n]);
            pos += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// The base address of `id` once `len` bytes at `off` are checked to
    /// lie inside the buffer. The end is computed saturating, so an
    /// offset near `u64::MAX` is refused instead of wrapping past the
    /// check into a neighbouring buffer.
    fn io_va(&self, id: FbufId, off: u64, len: u64) -> FbufResult<u64> {
        let f = self.fbuf(id)?;
        let end = off.saturating_add(len);
        if end > f.len {
            return Err(FbufError::TooLarge {
                requested: end,
                max: f.len,
            });
        }
        Ok(f.va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_vm::Fault;

    fn sys() -> (FbufSystem, DomainId, DomainId, DomainId) {
        let mut s = FbufSystem::new(MachineConfig::tiny());
        let a = s.create_domain();
        let b = s.create_domain();
        let c = s.create_domain();
        (s, a, b, c)
    }

    #[test]
    fn uncached_lifecycle_roundtrip() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 5000).unwrap();
        s.write_fbuf(a, id, 0, b"payload").unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        assert_eq!(s.read_fbuf(b, id, 0, 7).unwrap(), b"payload");
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
        // Fully retired.
        assert!(matches!(s.fbuf(id), Err(FbufError::NoSuchFbuf(_))));
    }

    #[test]
    fn receiver_cannot_write() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        let err = s.write_fbuf(b, id, 0, b"evil").unwrap_err();
        assert!(matches!(err, FbufError::Vm(Fault::AccessViolation { .. })));
    }

    #[test]
    fn volatile_originator_can_still_write_after_send() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(a, id, 0, b"v1").unwrap();
        let copies = s.stats().pages_copied();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        // Copy semantics (§2.1.3): the sender still holds its bytes, say
        // to retransmit them, and the send copied nothing.
        assert_eq!(s.read_fbuf(a, id, 0, 2).unwrap(), b"v1");
        assert_eq!(s.stats().pages_copied(), copies);
        // Volatile: the write succeeds and is visible to the receiver.
        s.write_fbuf(a, id, 0, b"v2").unwrap();
        assert_eq!(s.read_fbuf(b, id, 0, 2).unwrap(), b"v2");
    }

    #[test]
    fn secure_send_blocks_originator_writes() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(a, id, 0, b"v1").unwrap();
        s.send(id, a, b, SendMode::Secure).unwrap();
        let err = s.write_fbuf(a, id, 0, b"v2").unwrap_err();
        assert!(matches!(err, FbufError::Vm(Fault::AccessViolation { .. })));
        assert_eq!(s.read_fbuf(b, id, 0, 2).unwrap(), b"v1");
        assert_eq!(s.fbuf_hot(id).unwrap().state, FbufState::Secured);
    }

    #[test]
    fn lazy_secure_on_receiver_request() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(a, id, 0, b"v1").unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.write_fbuf(a, id, 0, b"v2").unwrap(); // still volatile
        s.secure(id, b).unwrap();
        assert!(s.write_fbuf(a, id, 0, b"v3").is_err());
        assert_eq!(s.read_fbuf(b, id, 0, 2).unwrap(), b"v2");
    }

    #[test]
    fn secure_is_noop_for_kernel_originator() {
        let (mut s, _, b, _) = sys();
        let kernel = fbuf_vm::KERNEL_DOMAIN;
        let id = s.alloc(kernel, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(kernel, id, 0, b"k").unwrap();
        s.send(id, kernel, b, SendMode::Volatile).unwrap();
        s.secure(id, b).unwrap();
        // Trusted originator: still volatile (writable) and not counted.
        assert_eq!(s.fbuf_hot(id).unwrap().state, FbufState::Volatile);
        s.write_fbuf(kernel, id, 0, b"K").unwrap();
        assert_eq!(s.stats().fbufs_secured(), 0);
    }

    #[test]
    fn cached_alloc_reuses_from_free_list() {
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        let id1 = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.send(id1, a, b, SendMode::Volatile).unwrap();
        s.free(id1, b).unwrap();
        s.free(id1, a).unwrap();
        // Parked, not destroyed.
        assert!(s.fbuf(id1).is_ok());
        assert_eq!(s.path(path).unwrap().parked(), 1);
        let id2 = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        assert_eq!(id2, id1, "same buffer reused");
        assert_eq!(s.stats().fbuf_cache_hits(), 1);
        assert_eq!(s.stats().fbuf_cache_misses(), 1);
    }

    #[test]
    fn cached_reuse_skips_all_mapping_work() {
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        // First cycle installs mappings.
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
        // Steady-state cycle: zero page-table updates (the paper's headline
        // property for cached/volatile fbufs).
        let ptes0 = s.stats().pte_updates();
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.write_fbuf(a, id, 0, b"hot").unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        assert_eq!(s.read_fbuf(b, id, 0, 3).unwrap(), b"hot");
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
        assert_eq!(s.stats().pte_updates(), ptes0);
    }

    #[test]
    fn cached_secured_costs_exactly_two_pte_updates() {
        // "It reduces the number of page table updates required to two,
        // irrespective of the number of transfers" (§3.2.2) — for a
        // one-page fbuf crossing two receivers with eager securing.
        let (mut s, a, b, c) = sys();
        let path = s.create_path(vec![a, b, c]).unwrap();
        // Warm up.
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.send(id, a, b, SendMode::Secure).unwrap();
        s.send(id, b, c, SendMode::Secure).unwrap();
        s.free(id, b).unwrap();
        s.free(id, c).unwrap();
        s.free(id, a).unwrap();
        let ptes0 = s.stats().pte_updates();
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.send(id, a, b, SendMode::Secure).unwrap();
        s.send(id, b, c, SendMode::Secure).unwrap();
        s.free(id, b).unwrap();
        s.free(id, c).unwrap();
        s.free(id, a).unwrap();
        assert_eq!(
            s.stats().pte_updates() - ptes0,
            2,
            "protect on first send + unprotect on dealloc"
        );
    }

    #[test]
    fn only_path_originator_may_use_cached_allocator() {
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        assert!(s.alloc(b, AllocMode::Cached(path), 100).is_err());
    }

    #[test]
    fn chunk_quota_enforced() {
        let (mut s, a, b, _) = sys();
        // tiny config: chunk 16 KB (4 pages), quota 8 chunks → at most 32
        // one-page buffers live at once from one allocator.
        let path = s.create_path(vec![a, b]).unwrap();
        let mut held = Vec::new();
        for _ in 0..32 {
            held.push(s.alloc(a, AllocMode::Cached(path), 4096).unwrap());
        }
        let err = s.alloc(a, AllocMode::Cached(path), 4096).unwrap_err();
        assert!(matches!(err, FbufError::QuotaExceeded { .. }));
        assert!(s.stats().chunk_quota_denials() > 0);
        // Freeing (parking) makes a buffer reusable again.
        s.free(held[0], a).unwrap();
        s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
    }

    #[test]
    fn dealloc_notice_queued_for_external_reference() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        assert_eq!(s.rpc_mut().pending_notices(a, b), 1);
        // The owner's own free carries no notice.
        s.free(id, a).unwrap();
        assert_eq!(s.rpc_mut().pending_notices(a, a), 0);
    }

    #[test]
    fn pageout_reclaims_cold_parked_buffers() {
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        let id = s.alloc(a, AllocMode::Cached(path), 2 * 4096).unwrap();
        s.write_fbuf(a, id, 0, b"will vanish").unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
        let free0 = s.machine().free_frames();
        let got = s.reclaim_frames(2);
        assert_eq!(got, 2);
        assert_eq!(s.machine().free_frames(), free0 + 2);
        assert!(!s.fbuf(id).unwrap().resident());
        // Reuse after reclaim re-materializes zeroed frames.
        let id2 = s.alloc(a, AllocMode::Cached(path), 2 * 4096).unwrap();
        assert_eq!(id2, id);
        assert_eq!(s.read_fbuf(a, id2, 0, 11).unwrap(), vec![0u8; 11]);
        assert!(s.fbuf(id2).unwrap().resident());
    }

    #[test]
    fn lifo_reuse_prefers_resident_buffers() {
        // "The LIFO ordering ensures that fbufs at the front of the free
        // list are most likely to have physical memory mapped to them."
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        let id1 = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        let id2 = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.free(id1, a).unwrap(); // parked first → cold end
        s.free(id2, a).unwrap(); // parked second → hot end
                                 // Reclaim one frame: the cold buffer (id1) loses its memory.
        s.reclaim_frames(1);
        assert!(!s.fbuf(id1).unwrap().resident());
        assert!(s.fbuf(id2).unwrap().resident());
        // The next allocation gets the hot, still-resident buffer.
        let got = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        assert_eq!(got, id2);
    }

    #[test]
    fn originator_termination_parks_chunks_until_refs_drain() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(a, id, 0, b"legacy").unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        let avail_before = s.chunk_alloc.available();
        s.terminate_domain(a).unwrap();
        // b can still read the data.
        assert_eq!(s.read_fbuf(b, id, 0, 6).unwrap(), b"legacy");
        // Chunks not yet released (external reference outstanding).
        assert_eq!(s.chunk_alloc.available(), avail_before);
        s.free(id, b).unwrap();
        assert!(s.chunk_alloc.available() > avail_before);
    }

    #[test]
    fn path_teardown_retires_parked_buffers() {
        let (mut s, a, b, _) = sys();
        let path = s.create_path(vec![a, b]).unwrap();
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
        assert!(s.fbuf(id).is_ok());
        s.terminate_domain(b).unwrap();
        // The parked buffer was retired with the path.
        assert!(s.fbuf(id).is_err());
        assert!(!s.path(path).unwrap().live);
        // The dead path can no longer allocate.
        assert!(s.alloc(a, AllocMode::Cached(path), 4096).is_err());
    }

    #[test]
    fn bounds_checked_fbuf_io() {
        let (mut s, a, _, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        assert!(s.write_fbuf(a, id, 90, &[0u8; 20]).is_err());
        assert!(s.read_fbuf(a, id, 0, 101).is_err());
        s.write_fbuf(a, id, 90, &[1u8; 10]).unwrap();
    }

    #[test]
    fn fbuf_io_offset_cannot_wrap_past_bounds_check() {
        // Two adjacent one-page buffers: an offset that wraps `off + len`
        // around zero would otherwise address the lower buffer's tail.
        let (mut s, a, _, _) = sys();
        let lo = s.alloc(a, AllocMode::Uncached, 4096).unwrap();
        let hi = s.alloc(a, AllocMode::Uncached, 4096).unwrap();
        assert_eq!(s.fbuf(hi).unwrap().va, s.fbuf(lo).unwrap().va + 4096);
        s.write_fbuf(a, lo, 4088, b"lowtail!").unwrap();
        let off = u64::MAX - 7;
        assert!(matches!(
            s.read_fbuf(a, hi, off, 8),
            Err(FbufError::TooLarge {
                requested: u64::MAX,
                max: 4096
            })
        ));
        assert!(matches!(
            s.write_fbuf(a, hi, off, b"clobber!"),
            Err(FbufError::TooLarge {
                requested: u64::MAX,
                max: 4096
            })
        ));
        assert_eq!(s.read_fbuf(a, lo, 4088, 8).unwrap(), b"lowtail!");
    }

    #[test]
    fn reference_only_transfer_skips_mapping() {
        let (mut s, a, b, c) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.write_fbuf(a, id, 0, b"body").unwrap();
        let ptes0 = s.stats().pte_updates();
        // Pass-through domain b gets the reference but no mappings.
        s.send_reference(id, a, b).unwrap();
        assert_eq!(s.stats().pte_updates(), ptes0);
        assert!(s.fbuf(id).unwrap().held_by(b));
        // b forwards to c, which does access the body.
        s.send(id, b, c, SendMode::Volatile).unwrap();
        assert_eq!(s.read_fbuf(c, id, 0, 4).unwrap(), b"body");
        // If b decides it needs access after all, lazy mapping works
        // (reading before ensure_mapped may or may not fault).
        let _ = s.read_fbuf(b, id, 0, 4);
        s.ensure_mapped(id, b).unwrap();
        assert_eq!(s.read_fbuf(b, id, 0, 4).unwrap(), b"body");
        // All three must free.
        s.free(id, b).unwrap();
        s.free(id, c).unwrap();
        s.free(id, a).unwrap();
        assert!(s.fbuf(id).is_err());
    }

    #[test]
    fn ensure_mapped_requires_holdership() {
        let (mut s, a, b, _) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        assert!(matches!(
            s.ensure_mapped(id, b),
            Err(FbufError::NotHolder { .. })
        ));
    }

    #[test]
    fn allocation_reclaims_parked_frames_under_pressure() {
        // Memory small enough that fresh allocations must steal frames
        // back from parked (cached) fbufs.
        let mut cfg = MachineConfig::tiny();
        cfg.phys_mem = 128 << 10; // 32 frames
        let mut s = FbufSystem::new(cfg);
        let a = s.create_domain();
        let b = s.create_domain();
        let path = s.create_path(vec![a, b]).unwrap();
        // Park 7 four-page buffers: 28 of 32 frames held by the cache.
        let mut ids = Vec::new();
        for _ in 0..7 {
            ids.push(s.alloc(a, AllocMode::Cached(path), 4 * 4096).unwrap());
        }
        for id in ids {
            s.free(id, a).unwrap();
        }
        assert!(s.machine().free_frames() < 8);
        // An uncached allocation larger than the remaining free memory
        // succeeds by reclaiming cold parked frames (tiny chunks are 4
        // pages, so allocate a full chunk twice).
        s.alloc(b, AllocMode::Uncached, 4 * 4096).unwrap();
        let big = s.alloc(b, AllocMode::Uncached, 4 * 4096).unwrap();
        assert!(s.stats().frames_reclaimed() > 0);
        s.write_fbuf(b, big, 0, b"fits").unwrap();
        s.free(big, b).unwrap();
    }

    #[test]
    fn transfers_are_counted() {
        let (mut s, a, b, c) = sys();
        let id = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.send(id, b, c, SendMode::Volatile).unwrap();
        assert_eq!(s.stats().fbuf_transfers(), 2);
        // c, which never allocated, is a holder and can read.
        assert!(s.read_fbuf(c, id, 0, 1).is_ok());
        // A stranger cannot send what it does not hold.
        let d = s.create_domain();
        assert!(matches!(
            s.send(id, d, a, SendMode::Volatile),
            Err(FbufError::NotHolder { .. })
        ));
    }

    #[test]
    fn stale_fbuf_id_never_resolves_after_slot_reuse() {
        // Generational handles: once retired, an FbufId must keep failing
        // even after the arena slot is recycled by a new buffer.
        let (mut s, a, b, _) = sys();
        let old = s.alloc(a, AllocMode::Uncached, 100).unwrap();
        s.free(old, a).unwrap();
        assert!(s.fbuf(old).is_err());
        let new = s.alloc(b, AllocMode::Uncached, 100).unwrap();
        assert_ne!(old, new, "recycled slot must carry a new generation");
        assert!(s.fbuf(old).is_err(), "stale id resolved to a recycled slot");
        assert!(s.fbuf(new).is_ok());
    }

    #[test]
    fn termination_releases_exactly_the_dying_domains_references() {
        // Cached buffers on three two-domain paths and uncached ones,
        // each held by all three domains, then a seeded interleaving of
        // frees that parks some cached buffers. Whichever domain dies,
        // its references go and every other holder keeps its own; a
        // buffer it held last parks if its path avoids it.
        for v in 0..3 {
            let (mut s, a, b, c) = sys();
            let doms = [a, b, c];
            let mut refs = Vec::new();
            for (i, &d) in doms.iter().enumerate() {
                let p = s.create_path(vec![d, doms[(i + 1) % 3]]).unwrap();
                for mode in [AllocMode::Cached(p), AllocMode::Uncached].repeat(2) {
                    let id = s.alloc(d, mode, 4096).unwrap();
                    refs.push((id, d));
                    for &to in doms.iter().filter(|&&to| to != d) {
                        s.send(id, d, to, SendMode::Volatile).unwrap();
                        refs.push((id, to));
                    }
                }
            }
            let mut rng = fbuf_sim::Rng::new(0x7e5d ^ v);
            // Half the references, and on until two buffers have parked.
            let half = refs.len() / 2;
            while refs.len() > half || s.parked_count < 2 {
                let (id, d) = refs.swap_remove(rng.index(refs.len()));
                s.free(id, d).unwrap();
            }
            let victim = doms[v as usize];
            let keeps = |s: &FbufSystem, h: u64, f: &Fbuf| {
                let path = s.hot[slot_of(h)].path;
                f.holders.iter().any(|&d| d != victim)
                    || path.is_some_and(|p| !s.paths[p.0 as usize].contains(victim))
            };
            let before: Vec<(FbufId, Vec<DomainId>, bool)> = s
                .fbufs
                .iter()
                .map(|(h, f)| (FbufId(h), f.holders.to_vec(), keeps(&s, h, f)))
                .collect();
            assert!(before.iter().any(|(_, h, _)| h.contains(&victim)));
            s.terminate_domain(victim).unwrap();
            for (id, mut holders, kept) in before.clone() {
                assert_eq!(s.fbuf(id).is_ok(), kept, "{id:?}");
                if let Ok(f) = s.fbuf(id) {
                    holders.retain(|&d| d != victim);
                    assert_eq!(holders.len(), f.holders.len(), "{id:?}");
                    assert!(holders.iter().all(|&d| f.held_by(d)), "{id:?}");
                }
            }
            assert_eq!(s.live_fbufs(), before.iter().filter(|b| b.2).count());
            assert!(s
                .ledger_snapshot()
                .conserves(&s.stats().snapshot())
                .is_empty());
        }
    }

    /// The reference pass: every live gauge recorded in every pass, into
    /// a second metric set.
    fn full_visit(s: &FbufSystem, m: &fbuf_sim::Metrics, now: Ns) {
        let Some(mut r) = m.sampler(now) else {
            return;
        };
        r.record(Gauge::LiveFbufs, || s.fbufs.len() as u64);
        r.record(Gauge::ParkedFbufs, || s.parked_count);
        r.record(Gauge::EnginePending, || {
            s.engine.as_deref().map_or(0, fbuf_ipc::EventLoop::pending) as u64
        });
        r.record(Gauge::OverloadDrops, || s.machine.stats().overload_drops());
        let free = s.chunk_alloc.available();
        let quota = s.machine.config().max_chunks_per_path;
        r.record(Gauge::FreeChunks, || free);
        for (i, p) in s.paths.iter().enumerate() {
            if p.live {
                let i = i as u32;
                r.record(Gauge::PathParked(i), || p.parked() as u64);
                r.record(Gauge::PathChunks(i), || s.path_chunks(p.id) as u64);
                r.record(Gauge::PathThreshold(i), || {
                    s.policy.threshold(free, quota, s.path_class(p.id))
                });
            }
        }
        if let Some(e) = &s.engine {
            for d in 0..s.registered.len() {
                if s.registered[d] {
                    r.record(Gauge::Inbox(d as u32), || {
                        e.inbox_len(DomainId(d as u32)) as u64
                    });
                }
            }
        }
    }

    #[test]
    fn change_driven_passes_render_what_full_visits_render() {
        // Every mutation that moves a held gauge must write it: after
        // each random operation both sets take a pass (sometimes with
        // the event loop out of place, as from inside a handler) and
        // must render identically, refusals included. Bursts of
        // transfers into shallow inboxes leave events pending, inboxes
        // deep and posts refused when a pass reads them, and a counter
        // reset rewrites the drop count.
        let mut seen = [false; 3];
        for case in 0..24u64 {
            let mut rng = fbuf_sim::Rng::new(0x3c6e_f372 ^ case);
            let mut s = FbufSystem::new(MachineConfig::tiny());
            let m = s.machine().metrics();
            // Only the explicit passes below sample: the checkpoints'
            // deadline is pushed out of reach (again after each clear).
            m.set_cadence(u64::MAX / 4);
            m.advance(Ns(0));
            m.set_enabled(true);
            let reference = fbuf_sim::Metrics::new();
            reference.set_enabled(true);
            let mut doms: Vec<DomainId> = (0..4).map(|_| s.create_domain()).collect();
            let mut paths: Vec<PathId> = Vec::new();
            let mut held: Vec<(FbufId, DomainId)> = Vec::new();
            for step in 0..250u64 {
                let pick = |rng: &mut fbuf_sim::Rng, v: &[DomainId]| v[rng.index(v.len())];
                match rng.below(100) {
                    0..=4 => doms.push(s.create_domain()),
                    5..=11 => {
                        let route: Vec<DomainId> = (0..2 + rng.index(2))
                            .map(|_| pick(&mut rng, &doms))
                            .collect();
                        if let Ok(p) = s.create_path(route) {
                            paths.push(p);
                        }
                    }
                    12..=44 if !paths.is_empty() => {
                        let p = paths[rng.index(paths.len())];
                        let orig = s.paths[p.0 as usize].originator();
                        if let Ok(id) =
                            s.alloc(orig, AllocMode::Cached(p), 4096 * (1 + rng.below(3)))
                        {
                            held.push((id, orig));
                        }
                    }
                    45..=52 => {
                        let d = pick(&mut rng, &doms);
                        if let Ok(id) = s.alloc(d, AllocMode::Uncached, 4096) {
                            held.push((id, d));
                        }
                    }
                    53..=62 if !held.is_empty() => {
                        let (id, from) = held[rng.index(held.len())];
                        let to = pick(&mut rng, &doms);
                        if s.send(id, from, to, SendMode::Volatile).is_ok() {
                            held.push((id, to));
                        }
                    }
                    63..=82 if !held.is_empty() => {
                        let (id, d) = held.swap_remove(rng.index(held.len()));
                        let _ = s.free(id, d);
                    }
                    83..=85 if !paths.is_empty() => {
                        let p = paths[rng.index(paths.len())];
                        s.set_path_class(p, rng.below(4) as u8).unwrap();
                    }
                    86 => s.set_quota_policy(match rng.below(3) {
                        0 => QuotaPolicy::Static,
                        1 => QuotaPolicy::fb_dynamic(),
                        _ => QuotaPolicy::priority_weighted(),
                    }),
                    87..=88 => {
                        let d = pick(&mut rng, &doms);
                        let _ = s.terminate_domain(d);
                    }
                    89..=92 => {
                        let (a, b) = (pick(&mut rng, &doms), pick(&mut rng, &doms));
                        s.hop(a, b);
                    }
                    93..=95 if !held.is_empty() => {
                        s.set_inbox_depth(1 + rng.index(2));
                        for _ in 0..1 + rng.index(4) {
                            let (id, from) = held[rng.index(held.len())];
                            let route = [from, pick(&mut rng, &doms), pick(&mut rng, &doms)];
                            let _ = s.submit_transfer(id, &route);
                        }
                        if rng.below(3) == 0 {
                            s.pump();
                        }
                    }
                    96 => {
                        s.machine().metrics().set_enabled(false);
                        reference.set_enabled(false);
                    }
                    97 => {
                        s.machine().metrics().clear();
                        s.machine().metrics().advance(Ns(0));
                        reference.clear();
                    }
                    98 => s.machine_mut().stats_mut().reset(),
                    _ => {}
                }
                if rng.below(4) != 0 {
                    s.machine().metrics().set_enabled(true);
                    reference.set_enabled(true);
                }
                if let Some(e) = s.engine.as_deref() {
                    seen[0] |= e.pending() > 0;
                    seen[1] |= doms.iter().any(|&d| e.inbox_len(d) > 0);
                }
                seen[2] |= s.machine().stats().overload_drops() > 0;
                let now = s.machine().now();
                let away = rng.below(5) == 0;
                let evl = if away { s.engine.take() } else { None };
                s.sample_gauges_at(now);
                full_visit(&s, &reference, now);
                if away {
                    s.engine = evl;
                }
                let m = s.machine().metrics();
                assert_eq!(m.series(), reference.series(), "case {case} step {step}");
                assert_eq!(
                    m.refused_names(),
                    reference.refused_names(),
                    "case {case} step {step}"
                );
            }
        }
        assert_eq!(
            seen, [true; 3],
            "passes saw pending events, a deep inbox and refused posts"
        );
    }
}
