//! The simulated machine: domains, translation, faults, and charged
//! mapping primitives.

use fbuf_sim::fxhash::FxHashMap;
use fbuf_sim::{
    Arena, Clock, CostCategory, CostModel, EventKind, FaultPlan, FaultSite, MachineConfig, Metrics,
    Ns, Stats, Tracer,
};

use crate::phys::{FrameId, PhysMem};
use crate::space::{AddressSpace, RegionPolicy};
use crate::tlb::Tlb;
use crate::types::{Access, DomainId, Fault, Prot, VmResult, Vpn};

#[derive(Debug)]
struct Domain {
    space: AddressSpace,
    alive: bool,
}

/// An anonymous memory object backing one or more `LazyZero` regions
/// (a much-simplified Mach VM object, sufficient for the copy/COW
/// baselines).
#[derive(Debug)]
struct VmObject {
    frames: Vec<Option<FrameId>>,
    refs: u32,
}

/// Identifier of an anonymous memory object; stored in region
/// bookkeeping. Generational: the arena slot half names where the object
/// lives, the generation half makes a retired id unresolvable even after
/// its slot is recycled for a new object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId(u64);

/// The simulated machine: physical memory, TLB, and per-domain address
/// spaces, with every operation charged to the machine's clock.
///
/// # Examples
///
/// Protection is real — a downgraded page faults on write:
///
/// ```
/// use fbuf_sim::MachineConfig;
/// use fbuf_vm::{Machine, Prot};
///
/// let mut m = Machine::new(MachineConfig::tiny());
/// let dom = m.create_domain();
/// m.map_explicit_region(dom, 0x10000, 1, Prot::ReadWrite)?;
/// let frame = m.alloc_frame()?;
/// m.zero_frame(frame);
/// m.map_page(dom, 0x10000, frame, Prot::ReadWrite)?;
/// m.write(dom, 0x10000, b"data")?;
/// m.protect_page(dom, 0x10000, Prot::Read)?;
/// assert!(m.write(dom, 0x10000, b"nope").is_err());
/// assert_eq!(m.read(dom, 0x10000, 4)?, b"data");
/// # m.release_frame(frame);
/// # Ok::<(), fbuf_vm::Fault>(())
/// ```
///
/// # Threading
///
/// The `Machine` owns the simulated state by value: the clock and
/// counters, the tracer, the telemetry and the armed fault plan. The
/// layers above read them through [`Machine::clock`], [`Machine::stats`],
/// [`Machine::tracer`], [`Machine::metrics`] and [`Machine::fault_plan`],
/// and charge them through `&mut Machine`; none of them is shared, so a
/// `Machine` holds no `Rc` and is `Send`. The engine built on it
/// (`fbuf::FbufSystem`) is not, and each shard builds its own engine
/// inside its thread.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    clock: Clock,
    stats: Stats,
    tracer: Tracer,
    /// Time-series gauge sampler (disabled by default, like the tracer).
    metrics: Metrics,
    phys: PhysMem,
    tlb: Tlb,
    /// Domain slots are never recycled (a `DomainId` stays meaningful for
    /// the life of the machine); termination just clears `alive`.
    domains: Vec<Domain>,
    /// Anonymous objects live in a generational slab: O(1) deref, and a
    /// stale `ObjectId` fails to resolve instead of aliasing a recycled
    /// slot.
    objects: Arena<VmObject>,
    /// Region start-vpn keyed object attachment: (domain, start vpn) → object.
    region_objects: FxHashMap<(u32, u64), ObjectId>,
    /// Per-(domain, region start, page index) private post-COW frames.
    cow_private: FxHashMap<(u32, u64, u64), FrameId>,
    null_template: Vec<u8>,
    /// Armed fault-injection plan, if any (`None` in production: the hook
    /// in [`Machine::alloc_frame`] is then a single branch, like `trace`).
    fault: Option<FaultPlan>,
}

/// The live domain `dom` in `domains`, borrowed apart from the rest of
/// the machine.
fn live_domain(domains: &mut [Domain], dom: DomainId) -> VmResult<&mut Domain> {
    domains
        .get_mut(dom.0 as usize)
        .filter(|d| d.alive)
        .ok_or(Fault::BadDomain(dom))
}

impl Machine {
    /// Builds a machine from `cfg` with the kernel (domain 0) created.
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate().expect("invalid machine configuration");
        let phys = PhysMem::new(cfg.frames(), cfg.page_size as usize, cfg.costs.clone());
        let tlb = Tlb::new(cfg.tlb_entries);
        let mut m = Machine {
            cfg,
            clock: Clock::new(),
            stats: Stats::new(),
            tracer: Tracer::new(),
            metrics: Metrics::new(),
            phys,
            tlb,
            domains: Vec::new(),
            objects: Arena::new(),
            region_objects: FxHashMap::default(),
            cow_private: FxHashMap::default(),
            null_template: Vec::new(),
            fault: None,
        };
        let kernel = m.create_domain();
        debug_assert!(kernel.is_kernel());
        m
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The calibrated cost model.
    pub fn costs(&self) -> &CostModel {
        &self.cfg.costs
    }

    /// The machine's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The machine's clock, to charge or idle.
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// The machine's operation counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The machine's operation counters, to count on.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The lifecycle tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The telemetry sampler (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The telemetry sampler, to record on write.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// [`Machine::metrics`] under its former name, which the benchmark
    /// package (`fbufbench/`) still calls.
    pub fn metrics_ref(&self) -> &Metrics {
        &self.metrics
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// Page size shorthand.
    pub fn page_size(&self) -> u64 {
        self.cfg.page_size
    }

    /// Charges an arbitrary cost (used by higher layers for their own
    /// primitives, e.g. protocol processing).
    pub fn charge(&mut self, category: CostCategory, cost: Ns) {
        self.clock.charge(category, cost);
    }

    /// Sets the byte pattern used to stamp null pages for the fbuf-region
    /// read-fault policy (paper §3.2.4). The integrated-aggregate layer sets
    /// this to a serialized empty leaf node.
    pub fn set_null_template(&mut self, template: Vec<u8>) {
        self.null_template = template;
    }

    // ------------------------------------------------------------------
    // Domains
    // ------------------------------------------------------------------

    /// Creates a new protection domain.
    pub fn create_domain(&mut self) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(Domain {
            space: AddressSpace::new(),
            alive: true,
        });
        id
    }

    /// True if `dom` exists and has not terminated.
    pub fn domain_alive(&self, dom: DomainId) -> bool {
        self.domains
            .get(dom.0 as usize)
            .map(|d| d.alive)
            .unwrap_or(false)
    }

    /// Number of domains ever created.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Terminates a domain: removes all its regions (dropping mapping and
    /// object references) and flushes its TLB entries. Higher layers
    /// (the fbuf system) perform their own cleanup around this call.
    pub fn terminate_domain(&mut self, dom: DomainId) -> VmResult<()> {
        let starts: Vec<Vpn> = self.domain(dom)?.space.regions().map(|r| r.start).collect();
        for start in starts {
            self.unmap_region(dom, start.base(self.cfg.page_size))?;
        }
        self.tlb.invalidate_domain(dom);
        self.domains[dom.0 as usize].alive = false;
        Ok(())
    }

    fn domain(&self, dom: DomainId) -> VmResult<&Domain> {
        self.domains
            .get(dom.0 as usize)
            .filter(|d| d.alive)
            .ok_or(Fault::BadDomain(dom))
    }

    fn domain_mut(&mut self, dom: DomainId) -> VmResult<&mut Domain> {
        live_domain(&mut self.domains, dom)
    }

    // ------------------------------------------------------------------
    // Regions (machine-independent map level)
    // ------------------------------------------------------------------

    /// Maps an anonymous, lazily zero-filled region (the buffer memory the
    /// copy/COW baselines use).
    pub fn map_anon_region(&mut self, dom: DomainId, va: u64, pages: u64) -> VmResult<()> {
        let vpn = self.vpn_of(va);
        self.domain_mut(dom)?.space.map_region(
            vpn,
            pages,
            Prot::ReadWrite,
            RegionPolicy::LazyZero,
        )?;
        let obj = self.alloc_object(pages);
        self.region_objects.insert((dom.0, vpn.0), obj);
        Ok(())
    }

    /// Maps the globally shared fbuf region into `dom` with the null-read
    /// policy: explicit mappings only, reads elsewhere inside the region
    /// return synthetic null pages, writes elsewhere fault.
    pub fn map_fbuf_region(&mut self, dom: DomainId) -> VmResult<()> {
        let base = self.cfg.fbuf_region_base;
        let pages = self.cfg.fbuf_region_size / self.cfg.page_size;
        let vpn = self.vpn_of(base);
        self.domain_mut(dom)?
            .space
            .map_region(vpn, pages, Prot::ReadWrite, RegionPolicy::NullRead)
    }

    /// Maps a region whose pages are only ever installed explicitly.
    pub fn map_explicit_region(
        &mut self,
        dom: DomainId,
        va: u64,
        pages: u64,
        max_prot: Prot,
    ) -> VmResult<()> {
        let vpn = self.vpn_of(va);
        self.domain_mut(dom)?
            .space
            .map_region(vpn, pages, max_prot, RegionPolicy::Explicit)
    }

    /// Removes the region starting at `va`, tearing down resident mappings
    /// (charged) and dropping object/private frame references.
    pub fn unmap_region(&mut self, dom: DomainId, va: u64) -> VmResult<()> {
        let vpn = self.vpn_of(va);
        let entry = self.domain_mut(dom)?.space.unmap_region(vpn)?;
        // Tear down resident pmap entries, batched per contiguous run.
        let resident = {
            let d = self.domain(dom)?;
            d.space.pmap.resident_in(entry.start, entry.pages)
        };
        self.unmap_resident_runs(dom, &resident)?;
        // Drop private COW frames.
        let keys: Vec<(u32, u64, u64)> = self
            .cow_private
            .keys()
            .filter(|(d, s, _)| *d == dom.0 && *s == entry.start.0)
            .copied()
            .collect();
        for k in keys {
            let frame = self.cow_private.remove(&k).expect("key just listed");
            self.phys.drop_ref(&mut self.clock, &mut self.stats, frame);
        }
        // Drop the object reference.
        if let Some(obj) = self.region_objects.remove(&(dom.0, entry.start.0)) {
            self.deref_object(obj);
        }
        Ok(())
    }

    fn alloc_object(&mut self, pages: u64) -> ObjectId {
        ObjectId(self.objects.insert(VmObject {
            frames: vec![None; pages as usize],
            refs: 1,
        }))
    }

    fn object(&self, id: ObjectId) -> &VmObject {
        self.objects.get(id.0).expect("live object")
    }

    fn object_mut(&mut self, id: ObjectId) -> &mut VmObject {
        self.objects.get_mut(id.0).expect("live object")
    }

    fn deref_object(&mut self, id: ObjectId) {
        let obj = self.object_mut(id);
        obj.refs -= 1;
        if obj.refs == 0 {
            let obj = self.objects.remove(id.0).expect("live object");
            for f in obj.frames.into_iter().flatten() {
                self.phys.drop_ref(&mut self.clock, &mut self.stats, f);
            }
        }
    }

    /// The object backing the anonymous region at `va` in `dom`, if any
    /// (diagnostics/tests; no cost).
    pub fn region_object(&self, dom: DomainId, va: u64) -> Option<ObjectId> {
        let vpn = Vpn::containing(va, self.cfg.page_size);
        let start = self.domain(dom).ok()?.space.region_at(vpn)?.start;
        self.region_objects.get(&(dom.0, start.0)).copied()
    }

    /// True while `id` resolves to a live object. A retired id stays false
    /// forever, even after its arena slot is reused.
    pub fn object_live(&self, id: ObjectId) -> bool {
        self.objects.contains(id.0)
    }

    /// Number of live anonymous objects (diagnostics/tests).
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Shares the object backing the region at `src_va` in `src` with a new
    /// copy-on-write region at the same address in `dst`, Mach-style.
    ///
    /// Per the paper, Mach's lazy physical-page-table update strategy means
    /// the transfer itself only manipulates map entries and invalidates the
    /// sender's resident mappings; the receiver's mappings (and the sender's
    /// restored mappings) are established by page faults later — "two page
    /// faults for each transfer".
    pub fn cow_share_region(&mut self, src: DomainId, va: u64, dst: DomainId) -> VmResult<()> {
        let vpn = self.vpn_of(va);
        let (start, pages) = {
            let d = self.domain(src)?;
            let r = d.space.region_at(vpn).ok_or(Fault::NoSuchRegion { va })?;
            if r.policy != RegionPolicy::LazyZero {
                return Err(Fault::NoSuchRegion { va });
            }
            (r.start, r.pages)
        };
        let obj = *self
            .region_objects
            .get(&(src.0, start.0))
            .expect("anon region has object");
        // Create the receiver region first so an overlap fails before any
        // sender state has been disturbed.
        self.domain_mut(dst)?.space.map_region(
            start,
            pages,
            Prot::ReadWrite,
            RegionPolicy::LazyZero,
        )?;
        self.domain_mut(dst)?
            .space
            .region_at_mut(vpn)
            .expect("region just created")
            .cow = true;
        // If the sender has privatized (post-COW) pages, or its object is
        // already shared with an earlier receiver, the receiver must get a
        // snapshot *view* object capturing the sender's current contents —
        // sharing the base object would leak pre-COW data. Otherwise the
        // base object is shared directly (the common fast path).
        let has_private = self
            .cow_private
            .keys()
            .any(|(d, s, _)| *d == src.0 && *s == start.0);
        let base_shared = self.object(obj).refs > 1;
        let dst_obj = if has_private || base_shared {
            let view = self.alloc_object(pages);
            for idx in 0..pages {
                let frame = self
                    .cow_private
                    .get(&(src.0, start.0, idx))
                    .copied()
                    .or(self.object(obj).frames[idx as usize]);
                if let Some(f) = frame {
                    self.phys.add_ref(f);
                    self.object_mut(view).frames[idx as usize] = Some(f);
                }
            }
            view
        } else {
            self.object_mut(obj).refs += 1;
            obj
        };
        self.region_objects.insert((dst.0, start.0), dst_obj);
        // Mark the sender copy-on-write and lazily invalidate its resident
        // mappings (charged per resident page: unmap + TLB consistency).
        self.domain_mut(src)?
            .space
            .region_at_mut(vpn)
            .expect("region present")
            .cow = true;
        let resident = self.domain(src)?.space.pmap.resident_in(start, pages);
        self.unmap_resident_runs(src, &resident)?;
        Ok(())
    }

    /// Unmaps a sorted resident-page listing via [`Machine::unmap_range`],
    /// one call per contiguous VPN run (identical charges to the per-page
    /// loop, since every page in a run is resident).
    fn unmap_resident_runs(
        &mut self,
        dom: DomainId,
        resident: &[(Vpn, crate::space::PmapEntry)],
    ) -> VmResult<()> {
        let mut i = 0;
        while i < resident.len() {
            let run_start = resident[i].0;
            let mut len: u64 = 1;
            while i + (len as usize) < resident.len()
                && resident[i + len as usize].0 .0 == run_start.0 + len
            {
                len += 1;
            }
            self.unmap_range(dom, run_start.base(self.cfg.page_size), len)?;
            i += len as usize;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page-level primitives (machine-dependent pmap level, charged)
    // ------------------------------------------------------------------

    /// Installs a mapping of `frame` at `va` with protection `prot`,
    /// charging the two-level page-table update. Adds a mapping reference
    /// to the frame. Replaces (and dereferences) any previous mapping.
    pub fn map_page(&mut self, dom: DomainId, va: u64, frame: FrameId, prot: Prot) -> VmResult<()> {
        let vpn = self.vpn_of(va);
        self.clock.charge(CostCategory::Vm, self.cfg.costs.pte_map);
        self.stats.inc_pte_updates();
        let old = {
            let d = self.domain_mut(dom)?;
            let old = d.space.pmap.remove(vpn);
            d.space.pmap.enter(vpn, frame, prot);
            old
        };
        self.phys.add_ref(frame);
        if let Some(old) = old {
            if self.tlb.invalidate(dom, vpn) {
                self.charge_tlb_flush();
            }
            self.phys
                .drop_ref(&mut self.clock, &mut self.stats, old.frame);
        }
        Ok(())
    }

    /// Removes the mapping at `va`, charging the page-table update and a
    /// TLB consistency flush if a translation was resident. Drops the
    /// mapping's frame reference. Returns the frame that was mapped.
    pub fn unmap_page(&mut self, dom: DomainId, va: u64) -> VmResult<Option<FrameId>> {
        let vpn = self.vpn_of(va);
        let old = self.domain_mut(dom)?.space.pmap.remove(vpn);
        let Some(old) = old else { return Ok(None) };
        self.clock
            .charge(CostCategory::Vm, self.cfg.costs.pte_unmap);
        self.stats.inc_pte_updates();
        // The consistency action (TLB probe + flush) is performed per
        // removed page whether or not a translation happens to be resident.
        self.tlb.invalidate(dom, vpn);
        self.charge_tlb_flush();
        let frame = old.frame;
        self.phys.drop_ref(&mut self.clock, &mut self.stats, frame);
        Ok(Some(frame))
    }

    /// Changes the protection of the resident page at `va`. Downgrades
    /// charge the (expensive) protect path plus a TLB consistency flush;
    /// upgrades charge the unprotect path and may leave a stale (more
    /// restrictive) TLB entry to be refreshed on next use.
    pub fn protect_page(&mut self, dom: DomainId, va: u64, prot: Prot) -> VmResult<Prot> {
        let vpn = self.vpn_of(va);
        let old = self
            .domain_mut(dom)?
            .space
            .pmap
            .protect(vpn, prot)
            .ok_or(Fault::Unmapped { domain: dom, va })?;
        self.stats.inc_pte_updates();
        if prot < old {
            self.clock
                .charge(CostCategory::Vm, self.cfg.costs.pte_protect);
            // Downgrades require the TLB consistency action per page.
            self.tlb.invalidate(dom, vpn);
            self.charge_tlb_flush();
        } else {
            self.clock
                .charge(CostCategory::Vm, self.cfg.costs.pte_unprotect);
        }
        Ok(old)
    }

    // ------------------------------------------------------------------
    // Batched range primitives
    //
    // Each is semantically identical to the per-page loop it replaces:
    // the simulated time charged and the counters incremented are
    // byte-for-byte the same totals (Ns addition is associative, so
    // `cost * n` equals n separate `cost` charges), and the pmap/TLB/frame
    // reference state afterwards is the same. What changes is the host
    // work — one charge per category instead of n, one TLB sweep instead
    // of n probes — and the trace: one ranged event instead of n (the
    // per-page primitives emit none; the ranged ops record page counts).
    //
    // The one deliberate divergence is on *error* paths: a per-page loop
    // charges page-by-page and can stop half-way through a bad range,
    // while a range op validates up front and charges nothing on failure.
    // No test pins error-path costs; the all-or-nothing behaviour is the
    // more defensible contract.
    // ------------------------------------------------------------------

    /// Installs `frames.len()` consecutive mappings starting at `va`, all
    /// with protection `prot` — the batched equivalent of that many
    /// [`Machine::map_page`] calls. Adds a mapping reference per frame;
    /// replaced mappings are dereferenced and, where resident, flushed
    /// (charged per flushed entry, exactly as `map_page` does).
    pub fn map_range(
        &mut self,
        dom: DomainId,
        va: u64,
        frames: &[FrameId],
        prot: Prot,
    ) -> VmResult<()> {
        let n = frames.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let start = self.vpn_of(va);
        self.domain(dom)?;
        self.clock
            .charge(CostCategory::Vm, self.cfg.costs.pte_map * n);
        self.stats.add_pte_updates(n);
        let mut replaced: Vec<(Vpn, FrameId)> = Vec::new();
        {
            let d = self.domain_mut(dom)?;
            for (i, &frame) in frames.iter().enumerate() {
                let vpn = Vpn(start.0 + i as u64);
                if let Some(old) = d.space.pmap.remove(vpn) {
                    replaced.push((vpn, old.frame));
                }
                d.space.pmap.enter(vpn, frame, prot);
            }
        }
        for &frame in frames {
            self.phys.add_ref(frame);
        }
        let mut flushes = 0u64;
        for (vpn, old_frame) in replaced {
            if self.tlb.invalidate(dom, vpn) {
                flushes += 1;
            }
            self.phys
                .drop_ref(&mut self.clock, &mut self.stats, old_frame);
        }
        if flushes > 0 {
            self.charge_tlb_flushes(flushes);
        }
        self.tracer
            .range_op(self.clock.now(), EventKind::MapRange, dom.0, n);
        Ok(())
    }

    /// Removes up to `pages` consecutive mappings starting at `va` — the
    /// batched equivalent of that many [`Machine::unmap_page`] calls.
    /// Unmapped holes in the window cost nothing (as with `unmap_page`'s
    /// `Ok(None)` path); each removed page is charged a page-table update
    /// plus the unconditional TLB consistency flush. Returns the number
    /// of mappings removed.
    pub fn unmap_range(&mut self, dom: DomainId, va: u64, pages: u64) -> VmResult<u64> {
        if pages == 0 {
            self.domain(dom)?;
            return Ok(0);
        }
        let start = self.vpn_of(va);
        let mut n = 0u64;
        {
            let Machine {
                domains,
                phys,
                clock,
                stats,
                ..
            } = self;
            let d = live_domain(domains, dom)?;
            for i in 0..pages {
                if let Some(old) = d.space.pmap.remove(Vpn(start.0 + i)) {
                    // Dropping the frame reference before the charges and
                    // the TLB sweep below changes no total: charges add,
                    // and nothing reads the frame in between.
                    phys.drop_ref(clock, stats, old.frame);
                    n += 1;
                }
            }
        }
        if n == 0 {
            return Ok(0);
        }
        self.clock
            .charge(CostCategory::Vm, self.cfg.costs.pte_unmap * n);
        self.stats.add_pte_updates(n);
        // One sweep over the TLB replaces n individual probes; the
        // consistency action is still charged once per removed page,
        // resident or not, exactly as the per-page loop does.
        self.tlb.invalidate_range(dom, start, pages);
        self.charge_tlb_flushes(n);
        self.tracer
            .range_op(self.clock.now(), EventKind::UnmapRange, dom.0, n);
        Ok(n)
    }

    /// Changes the protection of `pages` consecutive resident pages
    /// starting at `va` — the batched equivalent of that many
    /// [`Machine::protect_page`] calls. Downgrades charge the protect
    /// path plus a per-page TLB flush; upgrades (and no-op re-protects)
    /// charge the unprotect path, per page, exactly as the loop would.
    /// Fails without charging if any page in the window is not resident.
    pub fn protect_range(
        &mut self,
        dom: DomainId,
        va: u64,
        pages: u64,
        prot: Prot,
    ) -> VmResult<()> {
        if pages == 0 {
            self.domain(dom)?;
            return Ok(());
        }
        let start = self.vpn_of(va);
        let mut downs = 0u64;
        {
            let d = self.domain(dom)?;
            for i in 0..pages {
                match d.space.pmap.lookup(Vpn(start.0 + i)) {
                    None => {
                        return Err(Fault::Unmapped {
                            domain: dom,
                            va: va + i * self.cfg.page_size,
                        })
                    }
                    Some(e) if prot < e.prot => downs += 1,
                    Some(_) => {}
                }
            }
        }
        {
            let Machine { domains, tlb, .. } = self;
            let d = live_domain(domains, dom)?;
            for i in 0..pages {
                let vpn = Vpn(start.0 + i);
                let old = d
                    .space
                    .pmap
                    .protect(vpn, prot)
                    .expect("validated resident above");
                // A partial downgrade flushes page by page; a whole one
                // sweeps the TLB once below.
                if prot < old && downs < pages {
                    tlb.invalidate(dom, vpn);
                }
            }
        }
        self.stats.add_pte_updates(pages);
        let upgrades = pages - downs;
        if upgrades > 0 {
            self.clock
                .charge(CostCategory::Vm, self.cfg.costs.pte_unprotect * upgrades);
        }
        if downs > 0 {
            self.clock
                .charge(CostCategory::Vm, self.cfg.costs.pte_protect * downs);
            if downs == pages {
                self.tlb.invalidate_range(dom, start, pages);
            }
            self.charge_tlb_flushes(downs);
        }
        self.tracer
            .range_op(self.clock.now(), EventKind::ProtectRange, dom.0, pages);
        Ok(())
    }

    /// The resident translation at `va`, if any (no cost; for assertions).
    pub fn mapping_of(&self, dom: DomainId, va: u64) -> Option<(FrameId, Prot)> {
        let vpn = Vpn::containing(va, self.cfg.page_size);
        self.domain(dom)
            .ok()?
            .space
            .pmap
            .lookup(vpn)
            .map(|e| (e.frame, e.prot))
    }

    fn charge_tlb_flush(&mut self) {
        self.clock
            .charge(CostCategory::Tlb, self.cfg.costs.tlb_flush_entry);
        self.stats.inc_tlb_flushes();
    }

    fn charge_tlb_flushes(&mut self, n: u64) {
        self.clock
            .charge(CostCategory::Tlb, self.cfg.costs.tlb_flush_entry * n);
        self.stats.add_tlb_flushes(n);
    }

    // ------------------------------------------------------------------
    // Physical frames (for layers that manage frames explicitly)
    // ------------------------------------------------------------------

    /// Arms a fault-injection plan: [`Machine::alloc_frame`] starts
    /// consulting it at [`FaultSite::FrameAlloc`].
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Disarms fault injection.
    pub fn disarm_faults(&mut self) {
        self.fault = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Allocates a frame; the caller owns one reference.
    pub fn alloc_frame(&mut self) -> VmResult<FrameId> {
        self.consult_frame_fault()?;
        self.phys.alloc(&mut self.clock, &mut self.stats)
    }

    /// Allocates a cleared frame, filling it once; the caller owns one
    /// reference. `charge_clearing` bills the page clear as
    /// [`Machine::zero_frame`] does; without it the frame is cleared
    /// quietly, as [`Machine::zero_frame_quietly`] does.
    pub fn alloc_zeroed_frame(&mut self, charge_clearing: bool) -> VmResult<FrameId> {
        self.consult_frame_fault()?;
        self.phys
            .alloc_zeroed(&mut self.clock, &mut self.stats, charge_clearing)
    }

    /// The [`FaultSite::FrameAlloc`] hook: an armed plan may refuse.
    fn consult_frame_fault(&self) -> VmResult<()> {
        match &self.fault {
            Some(plan) if plan.fires(FaultSite::FrameAlloc) => Err(Fault::OutOfMemory),
            _ => Ok(()),
        }
    }

    /// Zero-fills a frame (charges the page-clear cost).
    pub fn zero_frame(&mut self, frame: FrameId) {
        self.phys.zero(&mut self.clock, &mut self.stats, frame);
    }

    /// Zero-fills a frame *without* charging the page-clear cost, for
    /// callers that model clearing time themselves (e.g. the remap
    /// facility's partial-clear accounting). The frame is still always
    /// functionally cleared — a partially dirty page would be a security
    /// bug, not a cost optimization.
    pub fn zero_frame_quietly(&mut self, frame: FrameId) {
        self.phys.fill_with_template(frame, &[]);
    }

    /// Drops a caller-held frame reference.
    pub fn release_frame(&mut self, frame: FrameId) {
        self.phys.drop_ref(&mut self.clock, &mut self.stats, frame);
    }

    /// Number of free physical frames (for pageout-pressure tests).
    pub fn free_frames(&self) -> usize {
        self.phys.free_frames()
    }

    /// Direct frame write (device DMA path: the adapter writes physical
    /// memory without a domain mapping). No translation cost is charged;
    /// the driver charges DMA costs itself.
    pub fn dma_write(&mut self, frame: FrameId, offset: usize, bytes: &[u8]) {
        self.phys.write(frame, offset, bytes);
    }

    /// Direct frame read (device DMA path): the `len` bytes of `frame`
    /// at `offset`, borrowed in place, so a transfer to another machine's
    /// frames copies each byte once. No cost is charged.
    pub fn dma_slice(&self, frame: FrameId, offset: usize, len: usize) -> &[u8] {
        self.phys.slice(frame, offset, len)
    }

    /// Pages of freed frame storage pooled for reuse (diagnostics).
    pub fn pooled_frames(&self) -> usize {
        self.phys.pooled()
    }

    // ------------------------------------------------------------------
    // The access engine
    // ------------------------------------------------------------------

    /// Writes `bytes` at `va` in `dom`, translating (and faulting) per page.
    pub fn write(&mut self, dom: DomainId, va: u64, bytes: &[u8]) -> VmResult<()> {
        let page = self.cfg.page_size;
        let len = bytes.len() as u64;
        let mut pos: u64 = 0;
        while pos < len {
            let cur = va + pos;
            let off = cur % page;
            let n = (page - off).min(len - pos);
            let frame = self.resolve(dom, cur, Access::Write)?;
            // One cold-line stall per page per access operation.
            self.clock
                .charge(CostCategory::DataTouch, self.cfg.costs.cache_fill_word);
            self.phys.write(
                frame,
                off as usize,
                &bytes[pos as usize..(pos + n) as usize],
            );
            pos += n;
        }
        Ok(())
    }

    /// Reads `len` bytes at `va` in `dom`.
    pub fn read(&mut self, dom: DomainId, va: u64, len: u64) -> VmResult<Vec<u8>> {
        let mut out = vec![0u8; len as usize];
        self.read_into(dom, va, &mut out)?;
        Ok(out)
    }

    /// Reads into a caller-provided buffer.
    pub fn read_into(&mut self, dom: DomainId, va: u64, out: &mut [u8]) -> VmResult<()> {
        let page = self.cfg.page_size;
        let len = out.len() as u64;
        let mut pos: u64 = 0;
        while pos < len {
            let cur = va + pos;
            let off = cur % page;
            let n = (page - off).min(len - pos);
            let frame = self.resolve(dom, cur, Access::Read)?;
            self.clock
                .charge(CostCategory::DataTouch, self.cfg.costs.cache_fill_word);
            self.phys.read(
                frame,
                off as usize,
                &mut out[pos as usize..(pos + n) as usize],
            );
            pos += n;
        }
        Ok(())
    }

    /// Translates a single access, taking faults as needed. Returns the
    /// backing frame.
    pub fn resolve(&mut self, dom: DomainId, va: u64, access: Access) -> VmResult<FrameId> {
        self.domain(dom)?;
        let vpn = self.vpn_of(va);
        // 1. TLB.
        let mut stale_hit = false;
        if let Some((frame, prot)) = self.tlb.lookup(dom, vpn) {
            if prot.allows(access) {
                return Ok(frame);
            }
            // Stale entry (e.g. after an upgrade): fall through to the pmap.
            stale_hit = true;
        } else {
            self.clock
                .charge(CostCategory::Tlb, self.cfg.costs.tlb_refill);
            self.stats.inc_tlb_refills();
        }
        // 2. Pmap.
        if let Some(e) = self.domain(dom)?.space.pmap.lookup(vpn) {
            if e.prot.allows(access) {
                if stale_hit {
                    // Refreshing a stale entry takes the software refill
                    // path just like a miss.
                    self.clock
                        .charge(CostCategory::Tlb, self.cfg.costs.tlb_refill);
                    self.stats.inc_tlb_refills();
                    self.tlb.insert(dom, vpn, e.frame, e.prot);
                } else {
                    self.tlb.refill(dom, vpn, e.frame, e.prot);
                }
                return Ok(e.frame);
            }
        }
        // 3. Fault.
        self.fault(dom, vpn, va, access)
    }

    fn fault(&mut self, dom: DomainId, vpn: Vpn, va: u64, access: Access) -> VmResult<FrameId> {
        let region = {
            let d = self.domain(dom)?;
            d.space.region_at(vpn).cloned()
        };
        let Some(region) = region else {
            self.stats.inc_access_violations();
            self.tracer
                .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
            return Err(Fault::Unmapped { domain: dom, va });
        };
        if !region.max_prot.allows(access) {
            self.stats.inc_access_violations();
            self.tracer
                .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
            return Err(Fault::AccessViolation {
                domain: dom,
                va,
                access,
            });
        }
        let idx = vpn.0 - region.start.0;
        match region.policy {
            RegionPolicy::LazyZero | RegionPolicy::FbufChunk => {
                let obj = *self
                    .region_objects
                    .get(&(dom.0, region.start.0))
                    .ok_or(Fault::Unmapped { domain: dom, va })?;
                if region.cow && access == Access::Write {
                    return self.cow_write_fault(dom, vpn, region.start, obj, idx);
                }
                // Soft fault: find or create the object page, then map it.
                // Faults in COW regions pay the extra object-chain lookup
                // (the paper's "lazy update strategy ... causes two page
                // faults for each transfer" — this is one of them).
                let mut trap = self.cfg.costs.fault_trap;
                if region.cow {
                    trap += self.cfg.costs.cow_fault;
                    self.stats.inc_cow_faults();
                }
                self.clock.charge(CostCategory::Vm, trap);
                self.stats.inc_soft_faults();
                self.tracer
                    .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
                // A domain that privatized this page post-COW must keep
                // seeing its private copy, not the shared object page.
                let frame = match self.cow_private.get(&(dom.0, region.start.0, idx)).copied() {
                    Some(private) => private,
                    None => self.object_page(obj, idx)?,
                };
                let prot = if region.cow {
                    Prot::Read
                } else {
                    region.max_prot
                };
                self.map_page(dom, vpn.base(self.cfg.page_size), frame, prot)?;
                self.tlb.insert(dom, vpn, frame, prot);
                Ok(frame)
            }
            RegionPolicy::NullRead => {
                if access == Access::Write {
                    self.stats.inc_access_violations();
                    self.tracer
                        .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
                    return Err(Fault::AccessViolation {
                        domain: dom,
                        va,
                        access,
                    });
                }
                // Map a synthetic null page so the read completes; "invalid
                // DAG references appear to the receiver as the absence of
                // data" (§3.2.4).
                self.clock
                    .charge(CostCategory::Vm, self.cfg.costs.fault_trap);
                self.stats.inc_wild_reads_nullified();
                self.tracer
                    .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
                let frame = self.phys.alloc(&mut self.clock, &mut self.stats)?;
                let template = self.null_template.clone();
                self.phys.fill_with_template(frame, &template);
                self.map_page(dom, vpn.base(self.cfg.page_size), frame, Prot::Read)?;
                // The mapping holds the only reference.
                self.phys.drop_ref(&mut self.clock, &mut self.stats, frame);
                self.tlb.insert(dom, vpn, frame, Prot::Read);
                Ok(frame)
            }
            RegionPolicy::Explicit => {
                self.stats.inc_access_violations();
                self.tracer
                    .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
                Err(Fault::AccessViolation {
                    domain: dom,
                    va,
                    access,
                })
            }
        }
    }

    /// Resolves a write fault in a COW region: if the backing object is
    /// shared, fork the page into a domain-private frame; otherwise write in
    /// place. Charges the Mach COW fault path.
    fn cow_write_fault(
        &mut self,
        dom: DomainId,
        vpn: Vpn,
        region_start: Vpn,
        obj: ObjectId,
        idx: u64,
    ) -> VmResult<FrameId> {
        self.clock.charge(
            CostCategory::Vm,
            self.cfg.costs.fault_trap + self.cfg.costs.cow_fault,
        );
        self.stats.inc_cow_faults();
        self.tracer
            .instant(self.clock.now(), EventKind::Fault, dom.0, None, None);
        let key = (dom.0, region_start.0, idx);
        let candidate = match self.cow_private.get(&key).copied() {
            Some(p) => p,
            None => self.object_page(obj, idx)?,
        };
        // The page may be written in place only when nothing else can see
        // it: the object is not shared with another region, and the frame
        // itself is not referenced by a snapshot view or a foreign mapping.
        let obj_shared = self.object(obj).refs > 1;
        let frame_shared = self.phys.refs(candidate) > 1;
        let frame = if !obj_shared && !frame_shared {
            candidate
        } else {
            let fresh = self
                .phys
                .fork(&mut self.clock, &mut self.stats, candidate)?;
            if let Some(old) = self.cow_private.remove(&key) {
                self.phys.drop_ref(&mut self.clock, &mut self.stats, old);
            }
            self.cow_private.insert(key, fresh);
            fresh
        };
        self.map_page(dom, vpn.base(self.cfg.page_size), frame, Prot::ReadWrite)?;
        self.tlb.insert(dom, vpn, frame, Prot::ReadWrite);
        Ok(frame)
    }

    /// Returns the frame backing object page `idx`, allocating and zeroing
    /// it on first use.
    fn object_page(&mut self, obj: ObjectId, idx: u64) -> VmResult<FrameId> {
        // Consult any private override first? Private frames are per-domain
        // and handled by the COW path; the object itself is shared.
        let existing = self.object(obj).frames[idx as usize];
        if let Some(f) = existing {
            return Ok(f);
        }
        let f = self.phys.alloc(&mut self.clock, &mut self.stats)?;
        self.phys.zero(&mut self.clock, &mut self.stats, f);
        self.object_mut(obj).frames[idx as usize] = Some(f);
        Ok(f)
    }

    /// Reads from a domain-private COW page if one exists (used by tests to
    /// verify fork isolation).
    pub fn has_private_cow_page(&self, dom: DomainId, region_va: u64, idx: u64) -> bool {
        let start = Vpn::containing(region_va, self.cfg.page_size);
        self.cow_private.contains_key(&(dom.0, start.0, idx))
    }

    /// Copies `len` bytes from (`src`, `src_va`) to (`dst`, `dst_va`)
    /// through the kernel, charging proportional copy cost. Both sides are
    /// translated (and may fault).
    pub fn copy_data(
        &mut self,
        src: DomainId,
        src_va: u64,
        dst: DomainId,
        dst_va: u64,
        len: u64,
    ) -> VmResult<()> {
        let data = self.read(src, src_va, len)?;
        // `read`/`write` charge touch costs; charge the bulk copy cost on
        // top, proportional to the bytes moved.
        let cost = Ns((self.cfg.costs.page_copy.as_ns() as u128 * len as u128
            / self.cfg.page_size as u128) as u64);
        self.clock.charge(CostCategory::DataMove, cost);
        for _ in 0..len.div_ceil(self.cfg.page_size).max(1) {
            self.stats.inc_pages_copied();
        }
        self.write(dst, dst_va, &data)
    }

    fn vpn_of(&self, va: u64) -> Vpn {
        Vpn::containing(va, self.cfg.page_size)
    }

    /// TLB hit/miss counters (diagnostics).
    pub fn tlb_hit_miss(&self) -> (u64, u64) {
        self.tlb.hit_miss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny())
    }

    fn machine_costed() -> Machine {
        let mut cfg = MachineConfig::decstation_5000_200();
        cfg.phys_mem = 4 << 20;
        Machine::new(cfg)
    }

    #[test]
    fn anon_region_lazy_zero_roundtrip() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_anon_region(d, 0x10000, 4).unwrap();
        m.write(d, 0x10010, b"hello world").unwrap();
        assert_eq!(m.read(d, 0x10010, 11).unwrap(), b"hello world");
        // Untouched bytes of a lazily zeroed page read as zero.
        assert_eq!(m.read(d, 0x10000, 4).unwrap(), vec![0; 4]);
        assert_eq!(m.stats().soft_faults(), 1);
    }

    #[test]
    fn access_crossing_pages() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_anon_region(d, 0x10000, 4).unwrap();
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        m.write(d, 0x10100, &data).unwrap();
        assert_eq!(m.read(d, 0x10100, 9000).unwrap(), data);
        // Three pages were faulted in.
        assert_eq!(m.stats().soft_faults(), 3);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = machine();
        let d = m.create_domain();
        assert!(matches!(
            m.read(d, 0xdead000, 1),
            Err(Fault::Unmapped { .. })
        ));
        assert_eq!(m.stats().access_violations(), 1);
    }

    #[test]
    fn bad_domain_rejected() {
        let mut m = machine();
        assert!(matches!(
            m.read(DomainId(42), 0, 1),
            Err(Fault::BadDomain(_))
        ));
    }

    #[test]
    fn explicit_mapping_and_protection() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 8, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d, 0x20000, f, Prot::ReadWrite).unwrap();
        m.write(d, 0x20000, b"data").unwrap();
        // Downgrade to read-only: writes fault, reads work.
        m.protect_page(d, 0x20000, Prot::Read).unwrap();
        assert!(matches!(
            m.write(d, 0x20000, b"x"),
            Err(Fault::AccessViolation { .. })
        ));
        assert_eq!(m.read(d, 0x20000, 4).unwrap(), b"data");
        // Upgrade back: writes work again.
        m.protect_page(d, 0x20000, Prot::ReadWrite).unwrap();
        m.write(d, 0x20000, b"XY").unwrap();
        assert_eq!(m.read(d, 0x20000, 4).unwrap(), b"XYta");
        m.release_frame(f);
    }

    #[test]
    fn downgrade_flushes_tlb_upgrade_does_not() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 1, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d, 0x20000, f, Prot::ReadWrite).unwrap();
        m.write(d, 0x20000, b"a").unwrap(); // loads the TLB
        let flushes0 = m.stats().tlb_flushes();
        m.protect_page(d, 0x20000, Prot::Read).unwrap();
        assert_eq!(m.stats().tlb_flushes(), flushes0 + 1);
        m.protect_page(d, 0x20000, Prot::ReadWrite).unwrap();
        assert_eq!(m.stats().tlb_flushes(), flushes0 + 1);
        m.release_frame(f);
    }

    #[test]
    fn stale_tlb_after_upgrade_recovers() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 1, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d, 0x20000, f, Prot::Read).unwrap();
        m.read(d, 0x20000, 1).unwrap(); // TLB now caches Read
        m.protect_page(d, 0x20000, Prot::ReadWrite).unwrap(); // no flush
                                                              // The stale read-only TLB entry must not deny the now-legal write.
        m.write(d, 0x20000, b"ok").unwrap();
        m.release_frame(f);
    }

    #[test]
    fn shared_frame_two_domains() {
        let mut m = machine();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        m.map_explicit_region(d1, 0x20000, 1, Prot::ReadWrite)
            .unwrap();
        m.map_explicit_region(d2, 0x20000, 1, Prot::Read).unwrap();
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d1, 0x20000, f, Prot::ReadWrite).unwrap();
        m.map_page(d2, 0x20000, f, Prot::Read).unwrap();
        m.write(d1, 0x20000, b"shared").unwrap();
        assert_eq!(m.read(d2, 0x20000, 6).unwrap(), b"shared");
        // Receiver cannot write.
        assert!(matches!(
            m.write(d2, 0x20000, b"x"),
            Err(Fault::AccessViolation { .. })
        ));
        m.release_frame(f);
    }

    #[test]
    fn unmap_page_returns_frame_and_flushes() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 1, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        m.map_page(d, 0x20000, f, Prot::ReadWrite).unwrap();
        m.write(d, 0x20000, b"x").unwrap();
        let flushes0 = m.stats().tlb_flushes();
        assert_eq!(m.unmap_page(d, 0x20000).unwrap(), Some(f));
        assert_eq!(m.stats().tlb_flushes(), flushes0 + 1);
        assert_eq!(m.unmap_page(d, 0x20000).unwrap(), None);
        m.release_frame(f);
    }

    #[test]
    fn fbuf_region_null_read_policy() {
        let mut m = machine();
        m.set_null_template(vec![0xEE]);
        let d = m.create_domain();
        m.map_fbuf_region(d).unwrap();
        let base = m.config().fbuf_region_base;
        // A read of an unmapped fbuf-region page completes with the null
        // template rather than faulting.
        let data = m.read(d, base + 0x2000, 4).unwrap();
        assert_eq!(data, vec![0xEE; 4]);
        assert_eq!(m.stats().wild_reads_nullified(), 1);
        // Writes still fault.
        assert!(matches!(
            m.write(d, base + 0x3000, b"x"),
            Err(Fault::AccessViolation { .. })
        ));
    }

    #[test]
    fn null_page_replaced_by_real_mapping() {
        let mut m = machine();
        m.set_null_template(vec![0xEE]);
        let d = m.create_domain();
        m.map_fbuf_region(d).unwrap();
        let base = m.config().fbuf_region_base;
        let free0 = m.free_frames();
        assert_eq!(m.read(d, base, 1).unwrap(), vec![0xEE]);
        assert_eq!(m.free_frames(), free0 - 1);
        // Installing a real mapping over the null page releases the null
        // frame (its only reference was the mapping).
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d, base, f, Prot::Read).unwrap();
        assert_eq!(m.read(d, base, 1).unwrap(), vec![0]);
        assert_eq!(m.free_frames(), free0 - 1); // null freed, f in use
        m.release_frame(f);
    }

    #[test]
    fn cow_transfer_shares_then_forks() {
        let mut m = machine();
        let a = m.create_domain();
        let b = m.create_domain();
        m.map_anon_region(a, 0x40000, 2).unwrap();
        m.write(a, 0x40000, b"original").unwrap();
        m.cow_share_region(a, 0x40000, b).unwrap();
        // Receiver sees the data (read fault installs a shared mapping).
        assert_eq!(m.read(b, 0x40000, 8).unwrap(), b"original");
        // Receiver writes: forks a private page; sender's view unchanged.
        // Two COW faults so far: the receiver's read fault through the COW
        // object plus its write (fork) fault.
        m.write(b, 0x40000, b"MUTATED!").unwrap();
        assert_eq!(m.stats().cow_faults(), 2);
        assert!(m.has_private_cow_page(b, 0x40000, 0));
        assert_eq!(m.read(b, 0x40000, 8).unwrap(), b"MUTATED!");
        assert_eq!(m.read(a, 0x40000, 8).unwrap(), b"original");
    }

    #[test]
    fn cow_sender_write_after_transfer_forks() {
        let mut m = machine();
        let a = m.create_domain();
        let b = m.create_domain();
        m.map_anon_region(a, 0x40000, 1).unwrap();
        m.write(a, 0x40000, b"v1").unwrap();
        m.cow_share_region(a, 0x40000, b).unwrap();
        m.write(a, 0x40000, b"v2").unwrap();
        // Copy semantics: the receiver still sees v1.
        assert_eq!(m.read(b, 0x40000, 2).unwrap(), b"v1");
        assert_eq!(m.read(a, 0x40000, 2).unwrap(), b"v2");
    }

    #[test]
    fn cow_unshared_writes_in_place() {
        let mut m = machine();
        let a = m.create_domain();
        let b = m.create_domain();
        m.map_anon_region(a, 0x40000, 1).unwrap();
        m.write(a, 0x40000, b"v1").unwrap();
        m.cow_share_region(a, 0x40000, b).unwrap();
        // Receiver unmaps its region: object no longer shared.
        m.unmap_region(b, 0x40000).unwrap();
        let copies0 = m.stats().pages_copied();
        m.write(a, 0x40000, b"v2").unwrap();
        // No fork was needed.
        assert_eq!(m.stats().pages_copied(), copies0);
        assert_eq!(m.read(a, 0x40000, 2).unwrap(), b"v2");
    }

    #[test]
    fn copy_data_between_domains() {
        let mut m = machine();
        let a = m.create_domain();
        let b = m.create_domain();
        m.map_anon_region(a, 0x40000, 2).unwrap();
        m.map_anon_region(b, 0x80000, 2).unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        m.write(a, 0x40000, &payload).unwrap();
        m.copy_data(a, 0x40000, b, 0x80000, 5000).unwrap();
        assert_eq!(m.read(b, 0x80000, 5000).unwrap(), payload);
    }

    #[test]
    fn terminate_domain_releases_memory() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_anon_region(d, 0x40000, 8).unwrap();
        let free0 = m.free_frames();
        m.write(d, 0x40000, &vec![1u8; 8 * 4096]).unwrap();
        assert_eq!(m.free_frames(), free0 - 8);
        m.terminate_domain(d).unwrap();
        assert_eq!(m.free_frames(), free0);
        assert!(!m.domain_alive(d));
        assert!(matches!(m.read(d, 0x40000, 1), Err(Fault::BadDomain(_))));
    }

    #[test]
    fn frame_shared_across_termination_survives() {
        // A frame mapped in two domains survives the death of one.
        let mut m = machine();
        let d1 = m.create_domain();
        let d2 = m.create_domain();
        m.map_explicit_region(d1, 0x20000, 1, Prot::ReadWrite)
            .unwrap();
        m.map_explicit_region(d2, 0x20000, 1, Prot::Read).unwrap();
        let f = m.alloc_frame().unwrap();
        m.zero_frame(f);
        m.map_page(d1, 0x20000, f, Prot::ReadWrite).unwrap();
        m.map_page(d2, 0x20000, f, Prot::Read).unwrap();
        m.write(d1, 0x20000, b"persist").unwrap();
        m.release_frame(f); // now held only by the two mappings
        m.terminate_domain(d1).unwrap();
        assert_eq!(m.read(d2, 0x20000, 7).unwrap(), b"persist");
        m.terminate_domain(d2).unwrap();
    }

    #[test]
    fn soft_fault_costs_are_charged() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_anon_region(d, 0x40000, 1).unwrap();
        let t0 = m.clock().now();
        m.write(d, 0x40000, b"x").unwrap();
        let dt = m.clock().now() - t0;
        let c = m.costs();
        // fault trap + phys alloc + zero + pte map + tlb refill + touch.
        let expected = c.fault_trap
            + c.phys_alloc
            + c.page_zero
            + c.pte_map
            + c.tlb_refill
            + c.cache_fill_word;
        assert_eq!(dt, expected, "got {dt}, expected {expected}");
    }

    #[test]
    fn range_ops_charge_identically_to_per_page_loops() {
        // The same mixed workload driven through the per-page primitives
        // and the batched range ops must land on the same simulated time
        // and the same counter totals, byte for byte.
        let run = |batched: bool| -> (Ns, fbuf_sim::StatsSnapshot) {
            let mut m = machine_costed();
            let d = m.create_domain();
            m.map_explicit_region(d, 0x20000, 8, Prot::ReadWrite)
                .unwrap();
            let frames: Vec<FrameId> = (0..4).map(|_| m.alloc_frame().unwrap()).collect();
            let page = m.page_size();
            // Fresh map, touch (loads the TLB), downgrade, upgrade,
            // replacement map, then unmap.
            if batched {
                m.map_range(d, 0x20000, &frames, Prot::ReadWrite).unwrap();
                for i in 0..4 {
                    m.write(d, 0x20000 + i * page, b"x").unwrap();
                }
                m.protect_range(d, 0x20000, 4, Prot::Read).unwrap();
                m.protect_range(d, 0x20000, 4, Prot::ReadWrite).unwrap();
                let repl: Vec<FrameId> = frames.iter().rev().copied().collect();
                m.map_range(d, 0x20000, &repl, Prot::ReadWrite).unwrap();
                assert_eq!(m.unmap_range(d, 0x20000, 8).unwrap(), 4);
            } else {
                for (i, &f) in frames.iter().enumerate() {
                    m.map_page(d, 0x20000 + i as u64 * page, f, Prot::ReadWrite)
                        .unwrap();
                }
                for i in 0..4 {
                    m.write(d, 0x20000 + i * page, b"x").unwrap();
                }
                for i in 0..4 {
                    m.protect_page(d, 0x20000 + i * page, Prot::Read).unwrap();
                }
                for i in 0..4 {
                    m.protect_page(d, 0x20000 + i * page, Prot::ReadWrite)
                        .unwrap();
                }
                for (i, &f) in frames.iter().rev().enumerate() {
                    m.map_page(d, 0x20000 + i as u64 * page, f, Prot::ReadWrite)
                        .unwrap();
                }
                for i in 0..8 {
                    m.unmap_page(d, 0x20000 + i * page).unwrap();
                }
            }
            for f in frames {
                m.release_frame(f);
            }
            (m.clock().now(), m.stats().snapshot())
        };
        let (t_loop, s_loop) = run(false);
        let (t_range, s_range) = run(true);
        assert_eq!(t_range, t_loop);
        assert_eq!(s_range, s_loop);
        assert!(s_loop.pte_updates > 0 && s_loop.tlb_flushes > 0);
    }

    #[test]
    fn unmap_range_skips_holes_for_free() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 8, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        let page = m.page_size();
        // Only page 2 of the 8-page window is mapped.
        m.map_page(d, 0x20000 + 2 * page, f, Prot::ReadWrite)
            .unwrap();
        let t0 = m.clock().now();
        let pte0 = m.stats().pte_updates();
        assert_eq!(m.unmap_range(d, 0x20000, 8).unwrap(), 1);
        // Exactly one page's unmap + flush was charged; the holes cost 0.
        assert_eq!(
            m.clock().now() - t0,
            m.costs().pte_unmap + m.costs().tlb_flush_entry
        );
        assert_eq!(m.stats().pte_updates(), pte0 + 1);
        // A fully-empty window charges nothing and removes nothing.
        let t1 = m.clock().now();
        assert_eq!(m.unmap_range(d, 0x20000, 8).unwrap(), 0);
        assert_eq!(m.clock().now(), t1);
        m.release_frame(f);
    }

    #[test]
    fn protect_range_flushes_exactly_the_downgraded_pages() {
        let mut m = machine_costed();
        let d = m.create_domain();
        let page = m.page_size();
        m.map_explicit_region(d, 0x20000, 4, Prot::ReadWrite)
            .unwrap();
        // Pages 0 and 1 writable, 2 and 3 read-only; all four cached in
        // the TLB by a read.
        let frames: Vec<FrameId> = (0..4).map(|_| m.alloc_frame().unwrap()).collect();
        m.map_range(d, 0x20000, &frames[..2], Prot::ReadWrite)
            .unwrap();
        m.map_range(d, 0x20000 + 2 * page, &frames[2..], Prot::Read)
            .unwrap();
        for i in 0..4 {
            m.read(d, 0x20000 + i * page, 1).unwrap();
        }
        m.protect_range(d, 0x20000, 4, Prot::Read).unwrap();
        // Only the two downgraded pages lost their TLB entries.
        let (_, misses) = m.tlb_hit_miss();
        for i in 0..4 {
            m.read(d, 0x20000 + i * page, 1).unwrap();
        }
        assert_eq!(m.tlb_hit_miss().1, misses + 2);
        assert!(
            m.write(d, 0x20000, &[1]).is_err(),
            "no stale writable entry"
        );
        for f in frames {
            m.release_frame(f);
        }
    }

    #[test]
    fn protect_range_validates_whole_window_before_charging() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 4, Prot::ReadWrite)
            .unwrap();
        let f = m.alloc_frame().unwrap();
        m.map_page(d, 0x20000, f, Prot::ReadWrite).unwrap();
        let t0 = m.clock().now();
        let s0 = m.stats().snapshot();
        // Page 1 of the window is not resident: the whole op fails with no
        // charge and no protection change.
        assert!(matches!(
            m.protect_range(d, 0x20000, 2, Prot::Read),
            Err(Fault::Unmapped { .. })
        ));
        assert_eq!(m.clock().now(), t0);
        assert_eq!(m.stats().snapshot(), s0);
        assert_eq!(m.mapping_of(d, 0x20000).unwrap().1, Prot::ReadWrite);
        m.release_frame(f);
    }

    #[test]
    fn range_ops_emit_one_ranged_trace_event() {
        let mut m = machine_costed();
        m.tracer().set_enabled(true);
        let d = m.create_domain();
        m.map_explicit_region(d, 0x20000, 4, Prot::ReadWrite)
            .unwrap();
        let frames: Vec<FrameId> = (0..4).map(|_| m.alloc_frame().unwrap()).collect();
        m.map_range(d, 0x20000, &frames, Prot::ReadWrite).unwrap();
        m.protect_range(d, 0x20000, 4, Prot::Read).unwrap();
        m.unmap_range(d, 0x20000, 4).unwrap();
        let tracer = m.tracer();
        assert_eq!(tracer.count_of(EventKind::MapRange), 1);
        assert_eq!(tracer.count_of(EventKind::ProtectRange), 1);
        assert_eq!(tracer.count_of(EventKind::UnmapRange), 1);
        let ev: Vec<_> = tracer.events();
        let map_ev = ev
            .iter()
            .find(|e| e.kind == EventKind::MapRange)
            .expect("map event");
        assert_eq!(map_ev.pages, Some(4));
        for f in frames {
            m.release_frame(f);
        }
    }

    #[test]
    fn stale_object_id_never_resolves_after_slot_reuse() {
        let mut m = machine();
        let d = m.create_domain();
        m.map_anon_region(d, 0x40000, 2).unwrap();
        let old = m.region_object(d, 0x40000).expect("object attached");
        assert!(m.object_live(old));
        let live0 = m.live_objects();
        m.unmap_region(d, 0x40000).unwrap();
        assert!(!m.object_live(old));
        assert_eq!(m.live_objects(), live0 - 1);
        // A new region recycles the arena slot; the retired id still
        // refuses to resolve (generation mismatch) and the new region gets
        // a distinct id.
        m.map_anon_region(d, 0x40000, 2).unwrap();
        let new = m.region_object(d, 0x40000).expect("object attached");
        assert!(!m.object_live(old));
        assert!(m.object_live(new));
        assert_ne!(old, new);
    }

    #[test]
    fn tlb_hit_is_free() {
        let mut m = machine_costed();
        let d = m.create_domain();
        m.map_anon_region(d, 0x40000, 1).unwrap();
        m.write(d, 0x40000, b"x").unwrap();
        let t0 = m.clock().now();
        m.write(d, 0x40000, b"y").unwrap();
        let dt = m.clock().now() - t0;
        // Only the cache-fill touch is charged on a warm TLB.
        assert_eq!(dt, m.costs().cache_fill_word);
    }
}
