//! The pure reference model of the fbuf lifecycle.
//!
//! [`Oracle`] re-implements every observable transition of
//! [`fbuf::FbufSystem`] — ownership, protection bits, park/cache state,
//! per-path quota, chunk granting, pageout reclaim, domain termination —
//! over plain vectors and maps, with **no** machine, clock, tracer, or
//! arena underneath. It is deliberately boring: where the real system
//! has an intrusive linked list, the model has a `Vec`; where the real
//! system has a generational slab, the model has indices that are never
//! reused. The two implementations share no code, so a bug must be made
//! *twice* (and identically) to escape the lockstep differ.
//!
//! # Observable state
//!
//! "Observable" means everything the lockstep harness diffs after each
//! command (see `crate::lockstep`):
//!
//! * per-buffer: existence, base VA, pages, byte length, originator,
//!   path, secured bit, residency, park linkage, the exact *order* of
//!   holders and of installed mappings;
//! * per-path: liveness and the exact cold-to-hot order of the parked
//!   free list;
//! * the eight lifecycle counters (cache hits/misses, secures,
//!   transfers, chunk grants, quota denials, frames reclaimed, pages
//!   cleared);
//! * every operation's outcome, collapsed to an error *kind* ([`MErr`]).
//!
//! Anything not in this list (simulated time, trace events, TLB state,
//! RPC notice queues) is a cost-model concern, not a lifecycle concern,
//! and is checked by other suites.
//!
//! # Fault lockstep
//!
//! The real system consults its armed [`fbuf_sim::FaultPlan`] at named
//! sites; with logging enabled the plan records every consult as a
//! [`FaultDecision`]. The harness drains that log into a [`Feed`] and
//! the model *replays* the recorded decisions positionally: each mirror
//! transition that corresponds to a real consult calls [`Feed::take`]
//! with the site it expects. A site mismatch, a missing decision, or a
//! leftover decision at the end of a command is itself a divergence —
//! the model proves not just *what* the system did, but that it asked
//! the fault plan exactly the questions it was supposed to ask.

use std::collections::{BTreeMap, VecDeque};

use fbuf::FbufError;
use fbuf_sim::{FaultDecision, FaultSite};

/// Error *kinds*, collapsing [`FbufError`] for outcome comparison. All
/// VM-level faults (dead domain, access violation, unmapped page, out of
/// memory) fold into [`MErr::Vm`]: the model predicts *that* the VM
/// refuses, not the refusal's exact flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MErr {
    /// Unknown or dead domain.
    UnknownDomain,
    /// Dead or never-created path.
    NoSuchPath,
    /// Retired or never-created fbuf.
    NoSuchFbuf,
    /// Caller does not hold the buffer.
    NotHolder,
    /// Per-path chunk quota exhausted (organic or injected).
    QuotaExceeded,
    /// Global fbuf region exhausted (organic or injected).
    RegionExhausted,
    /// Request exceeds a hard size limit.
    TooLarge,
    /// The allocating tenant is jailed by the hoard detector.
    Jailed,
    /// Any machine-level fault.
    Vm,
    /// The transfer engine refused a submission (a route too short, or
    /// a call while it pumps). The fuzzer's commands never submit
    /// transfers, so neither side should produce it.
    Engine,
}

impl MErr {
    /// The kind of a real error.
    pub fn of(e: &FbufError) -> MErr {
        match e {
            FbufError::UnknownDomain(_) => MErr::UnknownDomain,
            FbufError::NoSuchPath(_) => MErr::NoSuchPath,
            FbufError::NoSuchFbuf(_) => MErr::NoSuchFbuf,
            FbufError::NotHolder { .. } => MErr::NotHolder,
            FbufError::QuotaExceeded { .. } => MErr::QuotaExceeded,
            FbufError::RegionExhausted => MErr::RegionExhausted,
            FbufError::TooLarge { .. } => MErr::TooLarge,
            FbufError::TenantJailed(_) => MErr::Jailed,
            FbufError::Vm(_) => MErr::Vm,
            FbufError::RouteTooShort { .. } | FbufError::EngineBusy => MErr::Engine,
        }
    }
}

/// The recorded fault decisions of one real command, consumed
/// positionally by the model's mirror transitions.
#[derive(Debug, Default)]
pub struct Feed {
    q: VecDeque<FaultDecision>,
    poisoned: Option<String>,
}

impl Feed {
    /// Appends the decisions drained from the real plan's consult log.
    pub fn load(&mut self, decisions: Vec<FaultDecision>) {
        self.q.extend(decisions);
    }

    /// Takes the next decision, which must be for `site`. On mismatch or
    /// exhaustion the feed is poisoned (a divergence the harness reports)
    /// and the fault is treated as not fired.
    pub fn take(&mut self, site: FaultSite) -> bool {
        match self.q.pop_front() {
            Some(d) if d.site == site => d.fired,
            Some(d) => {
                self.poison(format!(
                    "model consulted {} but the real system consulted {}",
                    site.name(),
                    d.site.name()
                ));
                false
            }
            None => {
                self.poison(format!(
                    "model consulted {} but the real system consulted nothing",
                    site.name()
                ));
                false
            }
        }
    }

    fn poison(&mut self, why: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(why);
        }
    }

    /// Ends a command: every recorded decision must have been consumed
    /// and every model consult must have found its decision.
    pub fn finish(&mut self) -> Result<(), String> {
        if let Some(why) = self.poisoned.take() {
            self.q.clear();
            return Err(why);
        }
        if !self.q.is_empty() {
            let leftover: Vec<&'static str> = self.q.drain(..).map(|d| d.site.name()).collect();
            return Err(format!(
                "the real system consulted {} site(s) the model never reached: {}",
                leftover.len(),
                leftover.join(", ")
            ));
        }
        Ok(())
    }
}

/// A deliberately planted model bug, for proving the differ catches and
/// shrinks real divergences (the fuzzer's own acceptance test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// The model reuses parked buffers FIFO while the real system is
    /// LIFO — visible as soon as two same-size buffers are parked and
    /// one is reallocated.
    FifoReuse,
}

/// Structural parameters the model shares with the real machine.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Page size in bytes.
    pub page_size: u64,
    /// Chunk size in bytes.
    pub chunk_size: u64,
    /// Fbuf region base virtual address.
    pub region_base: u64,
    /// Fbuf region size in bytes.
    pub region_size: u64,
    /// Maximum chunks per (domain, path) allocator (the static cap; the
    /// active [`MPolicy`] decides whether it is the binding limit).
    pub quota: usize,
    /// Free-list reuse order of the real system (`true` = LIFO, the
    /// paper's policy).
    pub lifo: bool,
    /// The chunk-admission policy the real system runs.
    pub policy: MPolicy,
    /// Frames one pageout pass tries to reclaim on an injected frame
    /// allocation failure (mirror of `MachineConfig::reclaim_batch`).
    pub reclaim_batch: usize,
}

/// Mirror of the real system's chunk-admission policy
/// (`fbuf::QuotaPolicy`). The threshold arithmetic below is
/// reimplemented from scratch — the model must not call the real
/// implementation, or the differ would compare it against itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MPolicy {
    /// Static per-allocator cap at `quota` chunks.
    Static,
    /// FB-style dynamic threshold: cap = `num × free_chunks / den`,
    /// floored at one chunk.
    FbDynamic {
        /// Alpha numerator.
        num: u64,
        /// Alpha denominator.
        den: u64,
    },
    /// The dynamic threshold scaled by a per-priority-class percent
    /// weight (class indices wrap at the weight count).
    PriorityWeighted {
        /// Alpha numerator.
        num: u64,
        /// Alpha denominator.
        den: u64,
        /// Per-class weight, percent of base alpha.
        weights: [u64; 4],
    },
}

/// Mirror of the real hoard-detector configuration
/// (`fbuf::JailConfig`). Parameters cross the boundary; the detection
/// arithmetic below is reimplemented from scratch, like [`MPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MJail {
    /// Charged bytes at or above which a tenant is a hoard suspect.
    pub hoard_bytes: u64,
    /// Allocation rounds without a free before the suspect is jailed.
    pub hoard_age: u64,
    /// Jail denials before the escalation revokes the tenant's parked
    /// buffers.
    pub revoke_strikes: u32,
}

/// Model state of one buffer. Fields mirror the observable slice of
/// [`fbuf::Fbuf`].
#[derive(Debug, Clone)]
pub struct MBuf {
    /// Base virtual address.
    pub va: u64,
    /// Size in pages.
    pub pages: u64,
    /// Requested byte length.
    pub len: u64,
    /// Allocating domain.
    pub originator: u32,
    /// Owning path (`None` = uncached).
    pub path: Option<u64>,
    /// Originator write permission removed.
    pub secured: bool,
    /// Current holders, in acquisition order.
    pub holders: Vec<u32>,
    /// Back-pointers into the per-domain held index (parallel to
    /// `holders`).
    held_pos: Vec<usize>,
    /// Domains with installed mappings, in installation order.
    pub mapped_in: Vec<u32>,
    /// Frames present (binary: reclaim takes all, rematerialize restores
    /// all).
    pub resident: bool,
    /// Linked into the pageout daemon's parked list.
    pub park_linked: bool,
}

/// Model state of one data path.
#[derive(Debug, Clone)]
pub struct MPath {
    /// Member domains, traversal order.
    pub domains: Vec<u32>,
    /// Parked free list, cold to hot: `(pages, buffer index)`.
    pub free: Vec<(u64, usize)>,
    /// Still live.
    pub live: bool,
    /// Priority class (feeds [`MPolicy::PriorityWeighted`]).
    pub class: u8,
}

/// One (domain, path) local allocator.
#[derive(Debug, Default, Clone)]
struct MAlloc {
    chunks: Vec<u64>,
    bump: u64,
    free_slots: Vec<(u64, u64)>,
}

/// The eight lifecycle counters the differ compares against
/// [`fbuf_sim::Stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Cached allocations satisfied from a free list.
    pub hits: u64,
    /// Cached allocations that had to build a new buffer.
    pub misses: u64,
    /// Buffers secured (write permission removed).
    pub secured: u64,
    /// Reference transfers.
    pub transfers: u64,
    /// Chunks granted by the kernel dispenser.
    pub chunks_granted: u64,
    /// Allocation failures denied organically by the admission policy.
    /// Injected `QuotaExhausted` faults are *not* counted here — they
    /// are the fault plan's tally (`faults_injected`).
    pub quota_denials: u64,
    /// Frames reclaimed by pageout.
    pub frames_reclaimed: u64,
    /// Pages zero-filled.
    pub pages_cleared: u64,
    /// Allocations denied because the tenant was jailed by the hoard
    /// detector.
    pub jail_denials: u64,
    /// Buffers forcibly revoked (jail escalations and stalled-receiver
    /// timeouts alike).
    pub revoked: u64,
    /// Forged or stale tokens rejected before any dereference.
    pub rejected_tokens: u64,
}

/// How a buffer is allocated (mirror of [`fbuf::AllocMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MAllocMode {
    /// From path `0`'s allocator, free list first.
    Cached(u64),
    /// From the default allocator.
    Uncached,
}

/// The reference model. See the [module docs](self) for what it mirrors
/// and how fault decisions reach it.
#[derive(Debug)]
pub struct Oracle {
    cfg: OracleConfig,
    /// Kernel chunk dispenser: bump cursor + recycled stack.
    chunk_next: u64,
    chunk_recycled: Vec<u64>,
    total_chunks: u64,
    /// (domain, path) → local allocator. A `BTreeMap` so zombie-chunk
    /// release iterates in sorted key order, exactly like the real
    /// system's sorted-key sweep.
    allocators: BTreeMap<(u32, Option<u64>), MAlloc>,
    /// Paths by id.
    pub paths: Vec<MPath>,
    /// Buffers by model index; indices are never reused, a retired
    /// buffer leaves `None` (the analogue of a stale generational id).
    pub bufs: Vec<Option<MBuf>>,
    held: Vec<Vec<usize>>,
    originated_live: Vec<u64>,
    registered: Vec<bool>,
    terminated: Vec<bool>,
    alive: Vec<bool>,
    /// The pageout daemon's parked list, coldest first.
    pub park: Vec<usize>,
    /// Lifecycle counters.
    pub counters: Counters,
    /// Planted model bug, if any.
    pub sabotage: Option<Sabotage>,
    /// The hoard detector, when armed. The bookkeeping below is always
    /// on, exactly like the real system's.
    jail: Option<MJail>,
    alloc_seq: u64,
    jail_charged: Vec<u64>,
    jail_progress: Vec<u64>,
    jail_strikes: Vec<u32>,
    next_dom: u32,
}

impl Oracle {
    /// A fresh model with the kernel domain (id 0) registered.
    pub fn new(cfg: OracleConfig) -> Oracle {
        assert!(cfg.region_size.is_multiple_of(cfg.chunk_size));
        let total_chunks = cfg.region_size / cfg.chunk_size;
        Oracle {
            cfg,
            chunk_next: 0,
            chunk_recycled: Vec::new(),
            total_chunks,
            allocators: BTreeMap::new(),
            paths: Vec::new(),
            bufs: Vec::new(),
            held: vec![Vec::new()],
            originated_live: vec![0],
            registered: vec![true],
            terminated: vec![false],
            alive: vec![true],
            park: Vec::new(),
            counters: Counters::default(),
            sabotage: None,
            jail: None,
            alloc_seq: 0,
            jail_charged: vec![0],
            jail_progress: vec![0],
            jail_strikes: vec![0],
            next_dom: 1,
        }
    }

    /// Arms (or disarms) the mirror hoard detector.
    pub fn set_jail(&mut self, jail: Option<MJail>) {
        self.jail = jail;
    }

    /// Mirror of `FbufSystem::charged_bytes`.
    pub fn charged_bytes(&self, dom: u32) -> u64 {
        self.jail_charged.get(dom as usize).copied().unwrap_or(0)
    }

    /// Mirror of `FbufSystem::jail_strikes_of`.
    pub fn jail_strikes_of(&self, dom: u32) -> u32 {
        self.jail_strikes.get(dom as usize).copied().unwrap_or(0)
    }

    /// Creates and registers a new domain, returning its id (sequential,
    /// mirroring the real machine).
    pub fn create_domain(&mut self) -> u32 {
        let d = self.next_dom;
        self.next_dom += 1;
        let need = d as usize + 1;
        self.registered.resize(need, false);
        self.terminated.resize(need, false);
        self.alive.resize(need, false);
        self.held.resize_with(need, Vec::new);
        self.originated_live.resize(need, 0);
        self.jail_charged.resize(need, 0);
        self.jail_progress.resize(need, 0);
        self.jail_strikes.resize(need, 0);
        self.registered[d as usize] = true;
        self.alive[d as usize] = true;
        // A fresh tenant starts with a clean hoard clock (mirror of the
        // real `register`).
        self.jail_progress[d as usize] = self.alloc_seq;
        self.jail_strikes[d as usize] = 0;
        d
    }

    /// Declares a path over `domains`.
    pub fn create_path(&mut self, domains: Vec<u32>) -> Result<u64, MErr> {
        for &d in &domains {
            if !self.dom_ok(d) {
                return Err(MErr::UnknownDomain);
            }
        }
        self.paths.push(MPath {
            domains,
            free: Vec::new(),
            live: true,
            class: 0,
        });
        Ok(self.paths.len() as u64 - 1)
    }

    /// Assigns a priority class to a path (mirror of
    /// `FbufSystem::set_path_class`).
    pub fn set_path_class(&mut self, pid: u64, class: u8) -> Result<(), MErr> {
        match self.paths.get_mut(pid as usize) {
            Some(p) => {
                p.class = class;
                Ok(())
            }
            None => Err(MErr::NoSuchPath),
        }
    }

    /// Buffers currently live (parked included).
    pub fn live_count(&self) -> usize {
        self.bufs.iter().filter(|b| b.is_some()).count()
    }

    /// The buffer at model index `ix`, if still live.
    pub fn buf(&self, ix: usize) -> Option<&MBuf> {
        self.bufs.get(ix).and_then(|b| b.as_ref())
    }

    /// Whether domain `d` is registered and alive.
    pub fn dom_ok(&self, d: u32) -> bool {
        let i = d as usize;
        self.registered.get(i).copied().unwrap_or(false)
            && self.alive.get(i).copied().unwrap_or(false)
    }

    fn check_domain(&self, d: u32) -> Result<(), MErr> {
        if self.dom_ok(d) {
            Ok(())
        } else {
            Err(MErr::UnknownDomain)
        }
    }

    fn pages_for(&self, len: u64) -> u64 {
        len.div_ceil(self.cfg.page_size).max(1)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Mirror of `FbufSystem::alloc`. Returns the model index of the
    /// buffer handed out (an existing index on a cache hit, `bufs.len()`
    /// minus one on a build).
    pub fn alloc(
        &mut self,
        dom: u32,
        mode: MAllocMode,
        len: u64,
        feed: &mut Feed,
    ) -> Result<usize, MErr> {
        self.check_domain(dom)?;
        // Hoard-detector mirror: the round counter always ticks; the
        // check only runs when the jail is armed. Same order as the real
        // `alloc` — a jailed tenant is denied before the path lookup.
        self.alloc_seq += 1;
        if let Some(cfg) = self.jail {
            let d = dom as usize;
            let charged = self.jail_charged.get(d).copied().unwrap_or(0);
            let progress = self.jail_progress.get(d).copied().unwrap_or(0);
            if charged >= cfg.hoard_bytes && self.alloc_seq - progress >= cfg.hoard_age {
                self.jail_strikes[d] += 1;
                self.counters.jail_denials += 1;
                if self.jail_strikes[d] >= cfg.revoke_strikes {
                    self.revoke_hoard(dom)?;
                    self.jail_strikes[d] = 0;
                    self.jail_progress[d] = self.alloc_seq;
                }
                return Err(MErr::Jailed);
            }
        }
        let pages = self.pages_for(len);
        match mode {
            MAllocMode::Cached(pid) => {
                let lifo = self.cfg.lifo ^ (self.sabotage == Some(Sabotage::FifoReuse));
                let taken = {
                    let path = self
                        .paths
                        .get_mut(pid as usize)
                        .filter(|p| p.live)
                        .ok_or(MErr::NoSuchPath)?;
                    if path.domains[0] != dom {
                        return Err(MErr::NotHolder);
                    }
                    let pos = if lifo {
                        path.free.iter().rposition(|&(p, _)| p == pages)
                    } else {
                        path.free.iter().position(|&(p, _)| p == pages)
                    };
                    pos.map(|i| path.free.remove(i).1)
                };
                if let Some(ix) = taken {
                    self.park_remove(ix);
                    self.counters.hits += 1;
                    if !self.bufs[ix].as_ref().expect("parked buf exists").resident {
                        if let Err(e) = self.rematerialize(ix, dom, feed) {
                            // Mirror of the real re-park on failed
                            // rematerialization: back to the hot end.
                            let pages = self.bufs[ix].as_ref().expect("parked").pages;
                            self.paths[pid as usize].free.push((pages, ix));
                            self.park_push(ix);
                            return Err(e);
                        }
                    }
                    let b = self.bufs[ix].as_mut().expect("parked buf exists");
                    debug_assert!(b.holders.is_empty());
                    b.len = len;
                    self.add_holder(ix, dom);
                    Ok(ix)
                } else {
                    self.counters.misses += 1;
                    self.build(dom, Some(pid), pages, len, feed)
                }
            }
            MAllocMode::Uncached => self.build(dom, None, pages, len, feed),
        }
    }

    /// Mirror of `Machine::alloc_frame` behind `frame_with_reclaim`:
    /// consumes one `FrameAlloc` decision per real attempt, and on an
    /// injected failure mirrors the reclaim-then-retry path.
    fn frame_alloc(&mut self, feed: &mut Feed) -> Result<(), MErr> {
        if !feed.take(FaultSite::FrameAlloc) {
            return Ok(());
        }
        if self.reclaim(self.cfg.reclaim_batch, feed) == 0 {
            return Err(MErr::Vm);
        }
        if feed.take(FaultSite::FrameAlloc) {
            return Err(MErr::Vm);
        }
        Ok(())
    }

    fn rematerialize(&mut self, ix: usize, dom: u32, feed: &mut Feed) -> Result<(), MErr> {
        let pages = self.bufs[ix].as_ref().expect("live buf").pages;
        for _ in 0..pages {
            self.frame_alloc(feed)?;
            self.counters.pages_cleared += 1;
        }
        let b = self.bufs[ix].as_mut().expect("live buf");
        b.resident = true;
        if !b.mapped_in.contains(&dom) {
            b.mapped_in.push(dom);
        }
        Ok(())
    }

    fn build(
        &mut self,
        dom: u32,
        path: Option<u64>,
        pages: u64,
        len: u64,
        feed: &mut Feed,
    ) -> Result<usize, MErr> {
        let key = (dom, path);
        self.allocators.entry(key).or_default();
        let va = loop {
            // Mirror of LocalAllocator::carve.
            let bytes = pages * self.cfg.page_size;
            if bytes > self.cfg.chunk_size {
                return Err(MErr::TooLarge);
            }
            let a = self.allocators.get_mut(&key).expect("inserted above");
            if let Some(i) = a.free_slots.iter().position(|&(_, p)| p == pages) {
                break a.free_slots.swap_remove(i).0;
            }
            if let Some(&chunk) = a.chunks.last() {
                if a.bump + bytes <= self.cfg.chunk_size {
                    let va = chunk + a.bump;
                    a.bump += bytes;
                    break va;
                }
            }
            // Needs a chunk: the admission policy rules first (an
            // organic denial short-circuits the fault consult, exactly
            // like the real order in `FbufSystem::build`).
            let held = a.chunks.len() as u64;
            let free = self.total_chunks - self.chunk_next + self.chunk_recycled.len() as u64;
            let class = path
                .and_then(|p| self.paths.get(p as usize))
                .map_or(0, |p| p.class);
            if held >= self.threshold(free, class) {
                self.counters.quota_denials += 1;
                return Err(MErr::QuotaExceeded);
            }
            if feed.take(FaultSite::QuotaExhausted) {
                // Injected denial: the fault plan's tally, not the
                // organic quota counter's.
                return Err(MErr::QuotaExceeded);
            }
            if feed.take(FaultSite::ChunkGrant) {
                return Err(MErr::RegionExhausted);
            }
            let chunk = self.chunk_grant()?;
            self.counters.chunks_granted += 1;
            let a = self.allocators.get_mut(&key).expect("inserted above");
            a.chunks.push(chunk);
            a.bump = 0;
        };
        for _ in 0..pages {
            if let Err(e) = self.frame_alloc(feed) {
                // Mirror of the real build's cleanup: the carved window
                // returns to the allocator as a free slot.
                self.allocators
                    .get_mut(&key)
                    .expect("inserted above")
                    .free_slots
                    .push((va, pages));
                return Err(e);
            }
            self.counters.pages_cleared += 1;
        }
        let ix = self.bufs.len();
        let held_pos = self.held[dom as usize].len();
        self.bufs.push(Some(MBuf {
            va,
            pages,
            len,
            originator: dom,
            path,
            secured: false,
            holders: vec![dom],
            held_pos: vec![held_pos],
            mapped_in: vec![dom],
            resident: true,
            park_linked: false,
        }));
        self.held[dom as usize].push(ix);
        self.originated_live[dom as usize] += 1;
        self.jail_charged[dom as usize] += pages * self.cfg.page_size;
        Ok(ix)
    }

    /// The policy's current allocator-size cap. Deliberately NOT a call
    /// into `fbuf::QuotaPolicy::threshold` — the math is rewritten here
    /// so lockstep runs cross-check the real arithmetic instead of
    /// comparing it against itself.
    fn threshold(&self, free: u64, class: u8) -> u64 {
        match self.cfg.policy {
            MPolicy::Static => self.cfg.quota as u64,
            MPolicy::FbDynamic { num, den } => (num * free / den.max(1)).max(1),
            MPolicy::PriorityWeighted { num, den, weights } => {
                let w = weights[class as usize % weights.len()];
                (num * free * w / (den.max(1) * 100)).max(1)
            }
        }
    }

    /// Mirror of `ChunkAllocator::grant`.
    fn chunk_grant(&mut self) -> Result<u64, MErr> {
        if let Some(va) = self.chunk_recycled.pop() {
            return Ok(va);
        }
        if self.chunk_next == self.total_chunks {
            return Err(MErr::RegionExhausted);
        }
        let va = self.cfg.region_base + self.chunk_next * self.cfg.chunk_size;
        self.chunk_next += 1;
        Ok(va)
    }

    fn add_holder(&mut self, ix: usize, dom: u32) {
        let b = self.bufs[ix].as_mut().expect("live buf");
        if b.holders.contains(&dom) {
            return;
        }
        let hd = &mut self.held[dom as usize];
        b.held_pos.push(hd.len());
        b.holders.push(dom);
        hd.push(ix);
    }

    // ------------------------------------------------------------------
    // Transfer
    // ------------------------------------------------------------------

    /// Mirror of `FbufSystem::send`.
    pub fn send(&mut self, ix: usize, from: u32, to: u32, secure: bool) -> Result<(), MErr> {
        self.check_domain(to)?;
        let b = self
            .bufs
            .get_mut(ix)
            .and_then(|b| b.as_mut())
            .ok_or(MErr::NoSuchFbuf)?;
        if !b.holders.contains(&from) {
            return Err(MErr::NotHolder);
        }
        // Counted before any later failure, exactly like the real path.
        self.counters.transfers += 1;
        let needs_secure = secure && !b.secured && b.originator != 0;
        let needs_map = !b.mapped_in.contains(&to);
        if !needs_secure && !needs_map {
            self.add_holder(ix, to);
            return Ok(());
        }
        if secure {
            self.do_secure(ix)?;
        }
        if needs_map {
            self.bufs[ix]
                .as_mut()
                .expect("checked above")
                .mapped_in
                .push(to);
        }
        self.add_holder(ix, to);
        Ok(())
    }

    /// Mirror of `FbufSystem::secure`.
    pub fn secure(&mut self, ix: usize, requester: u32) -> Result<(), MErr> {
        let b = self
            .bufs
            .get(ix)
            .and_then(|b| b.as_ref())
            .ok_or(MErr::NoSuchFbuf)?;
        if !b.holders.contains(&requester) {
            return Err(MErr::NotHolder);
        }
        self.do_secure(ix)
    }

    fn do_secure(&mut self, ix: usize) -> Result<(), MErr> {
        let b = self.bufs[ix].as_ref().expect("caller checked");
        if b.secured || b.originator == 0 {
            return Ok(());
        }
        // protect_range on a dead originator's mapping is a VM fault and
        // leaves the state (and the counter) untouched.
        if !self.dom_ok(b.originator) {
            return Err(MErr::Vm);
        }
        self.counters.secured += 1;
        self.bufs[ix].as_mut().expect("caller checked").secured = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deallocation
    // ------------------------------------------------------------------

    /// Mirror of `FbufSystem::free`.
    pub fn free(&mut self, ix: usize, dom: u32) -> Result<(), MErr> {
        let b = self
            .bufs
            .get_mut(ix)
            .and_then(|b| b.as_mut())
            .ok_or(MErr::NoSuchFbuf)?;
        let Some(i) = b.holders.iter().position(|&d| d == dom) else {
            return Err(MErr::NotHolder);
        };
        b.holders.swap_remove(i);
        let pos = b.held_pos.swap_remove(i);
        let now_empty = b.holders.is_empty();
        // O(1) held-index removal with back-pointer re-aim, mirroring
        // the real swap_remove dance move for move.
        let hd = &mut self.held[dom as usize];
        debug_assert_eq!(hd[pos], ix);
        hd.swap_remove(pos);
        if pos < hd.len() {
            let moved = hd[pos];
            let mb = self.bufs[moved].as_mut().expect("held buf is live");
            let j = mb
                .holders
                .iter()
                .position(|&d| d == dom)
                .expect("held index consistent");
            mb.held_pos[j] = pos;
        }
        if now_empty {
            self.dealloc(ix)?;
        }
        // Any successful free is progress for the hoard detector.
        self.jail_progress[dom as usize] = self.alloc_seq;
        Ok(())
    }

    /// Mirror of `FbufSystem::revoke`: forcibly release `dom`'s
    /// reference (the timeout-revocation transition).
    pub fn revoke(&mut self, ix: usize, dom: u32) -> Result<(), MErr> {
        let b = self
            .bufs
            .get(ix)
            .and_then(|b| b.as_ref())
            .ok_or(MErr::NoSuchFbuf)?;
        if !b.holders.contains(&dom) {
            return Err(MErr::NotHolder);
        }
        self.counters.revoked += 1;
        self.free(ix, dom)
    }

    /// Mirror of `FbufSystem::revoke_hoard`: the jail escalation retires
    /// every parked buffer the jailed tenant originated, coldest first.
    fn revoke_hoard(&mut self, dom: u32) -> Result<(), MErr> {
        let victims: Vec<usize> = self
            .park
            .iter()
            .copied()
            .filter(|&ix| {
                self.bufs[ix]
                    .as_ref()
                    .expect("parked buf exists")
                    .originator
                    == dom
            })
            .collect();
        for ix in victims {
            let path = self.bufs[ix]
                .as_ref()
                .expect("parked buf exists")
                .path
                .expect("parked buf is cached");
            self.paths[path as usize].free.retain(|&(_, i)| i != ix);
            self.counters.revoked += 1;
            self.retire(ix)?;
        }
        Ok(())
    }

    /// Mirror of `FbufSystem::check_token` on the rejecting path: a
    /// forged or stale token is counted and nothing else changes.
    pub fn reject_token(&mut self) {
        self.counters.rejected_tokens += 1;
    }

    fn dealloc(&mut self, ix: usize) -> Result<(), MErr> {
        let (path, originator, pages, secured) = {
            let b = self.bufs[ix].as_ref().expect("dealloc of live buf");
            (b.path, b.originator, b.pages, b.secured)
        };
        let cached_live = path
            .and_then(|p| self.paths.get(p as usize))
            .map(|p| p.live)
            .unwrap_or(false)
            && self.alive[originator as usize];
        if cached_live {
            if secured {
                self.bufs[ix].as_mut().expect("live buf").secured = false;
            }
            self.paths[path.expect("cached buf has a path") as usize]
                .free
                .push((pages, ix));
            self.park_push(ix);
            return Ok(());
        }
        self.retire(ix)
    }

    fn retire(&mut self, ix: usize) -> Result<(), MErr> {
        self.park_remove(ix);
        let b = self.bufs[ix].take().expect("retire of live buf");
        debug_assert!(b.holders.is_empty());
        if let Some(a) = self.allocators.get_mut(&(b.originator, b.path)) {
            a.free_slots.push((b.va, b.pages));
        }
        self.originated_live[b.originator as usize] -= 1;
        let charge = b.pages * self.cfg.page_size;
        let c = &mut self.jail_charged[b.originator as usize];
        *c = c.saturating_sub(charge);
        if self.terminated[b.originator as usize] {
            self.maybe_release_zombie_chunks(b.originator);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pageout
    // ------------------------------------------------------------------

    /// Mirror of `FbufSystem::reclaim_frames`: coldest parked victims
    /// first, one `ReclaimRefusal` consult per victim considered.
    pub fn reclaim(&mut self, want: usize, feed: &mut Feed) -> usize {
        let mut reclaimed = 0;
        while reclaimed < want {
            if self.park.is_empty() {
                break;
            }
            if feed.take(FaultSite::ReclaimRefusal) {
                break;
            }
            let ix = self.park.remove(0);
            let b = self.bufs[ix].as_mut().expect("parked buf exists");
            b.park_linked = false;
            b.mapped_in.clear();
            let took = if b.resident { b.pages } else { 0 };
            b.resident = false;
            if took > 0 {
                self.counters.frames_reclaimed += took;
                reclaimed += took as usize;
            }
        }
        reclaimed
    }

    fn park_push(&mut self, ix: usize) {
        let b = self.bufs[ix].as_mut().expect("parked buf exists");
        debug_assert!(!b.park_linked, "double park");
        b.park_linked = true;
        self.park.push(ix);
    }

    fn park_remove(&mut self, ix: usize) {
        let b = self.bufs[ix].as_mut().expect("buf exists");
        if !b.park_linked {
            return;
        }
        b.park_linked = false;
        self.park.retain(|&p| p != ix);
    }

    // ------------------------------------------------------------------
    // Termination
    // ------------------------------------------------------------------

    /// Mirror of `FbufSystem::terminate_domain`.
    pub fn terminate(&mut self, dom: u32) -> Result<(), MErr> {
        self.check_domain(dom)?;
        // 1. Release every held reference, last acquired first.
        while let Some(&ix) = self.held[dom as usize].last() {
            self.free(ix, dom)?;
        }
        // 2. Kill paths through the domain; retire their parked buffers
        //    cold-first.
        let dead: Vec<usize> = self
            .paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.live && p.domains.contains(&dom))
            .map(|(i, _)| i)
            .collect();
        for pid in dead {
            let drained: Vec<usize> = {
                let p = &mut self.paths[pid];
                p.live = false;
                p.free.drain(..).map(|(_, ix)| ix).collect()
            };
            for ix in drained {
                self.retire(ix)?;
            }
        }
        // 3. Machine-level death, then zombie-chunk bookkeeping.
        self.alive[dom as usize] = false;
        self.registered[dom as usize] = false;
        self.terminated[dom as usize] = true;
        self.maybe_release_zombie_chunks(dom);
        Ok(())
    }

    fn maybe_release_zombie_chunks(&mut self, dom: u32) {
        if self.originated_live.get(dom as usize).copied().unwrap_or(0) > 0 {
            return;
        }
        // BTreeMap range iteration is sorted, matching the real system's
        // sorted-key sweep — chunk recycling order is identical.
        let keys: Vec<(u32, Option<u64>)> = self
            .allocators
            .range((dom, None)..=(dom, Some(u64::MAX)))
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            let a = self.allocators.remove(&k).expect("key just listed");
            for chunk in a.chunks {
                self.chunk_recycled.push(chunk);
            }
        }
    }

    // ------------------------------------------------------------------
    // Data-access predictions
    // ------------------------------------------------------------------

    /// Predicted outcome of `FbufSystem::write_fbuf` for a write of
    /// `len >= 1` bytes at `off` (zero-length writes are excluded: the
    /// real machine trivially accepts them without touching any page).
    pub fn write(&mut self, dom: u32, ix: usize, off: u64, len: u64) -> Result<(), MErr> {
        debug_assert!(len >= 1);
        let b = self
            .bufs
            .get(ix)
            .and_then(|b| b.as_ref())
            .ok_or(MErr::NoSuchFbuf)?;
        if off + len > b.len {
            return Err(MErr::TooLarge);
        }
        if !self.dom_ok(dom) {
            return Err(MErr::Vm);
        }
        if !b.mapped_in.contains(&dom) {
            // Writes never trigger the null-read policy: an unmapped
            // fbuf-region page faults.
            return Err(MErr::Vm);
        }
        if dom == b.originator && !b.secured {
            Ok(())
        } else {
            Err(MErr::Vm)
        }
    }

    /// Predicted outcome of a read of `len` bytes at `off` by a domain
    /// with an installed mapping (`Ok` means the bytes come back).
    pub fn read_predict(&self, dom: u32, ix: usize, off: u64, len: u64) -> Result<(), MErr> {
        let b = self
            .bufs
            .get(ix)
            .and_then(|b| b.as_ref())
            .ok_or(MErr::NoSuchFbuf)?;
        if off + len > b.len {
            return Err(MErr::TooLarge);
        }
        if !self.dom_ok(dom) {
            return Err(MErr::Vm);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OracleConfig {
        OracleConfig {
            page_size: 4096,
            chunk_size: 16 << 10,
            region_base: 0x4000_0000,
            region_size: 1 << 20,
            quota: 8,
            lifo: true,
            policy: MPolicy::Static,
            reclaim_batch: 8,
        }
    }

    fn quiet_feed() -> Feed {
        Feed::default()
    }

    fn dec(site: FaultSite, fired: bool) -> FaultDecision {
        FaultDecision { site, fired }
    }

    /// A feed that answers `n` FrameAlloc consults with "not fired" —
    /// the consult stream of a build inside an already-granted chunk.
    fn frames_ok(n: usize) -> Feed {
        let mut f = Feed::default();
        f.load((0..n).map(|_| dec(FaultSite::FrameAlloc, false)).collect());
        f
    }

    /// The consult stream of a build that must be granted a new chunk:
    /// quota check, chunk grant, then one frame per page.
    fn chunked_build(pages: usize) -> Feed {
        let mut f = Feed::default();
        let mut ds = vec![
            dec(FaultSite::QuotaExhausted, false),
            dec(FaultSite::ChunkGrant, false),
        ];
        ds.extend((0..pages).map(|_| dec(FaultSite::FrameAlloc, false)));
        f.load(ds);
        f
    }

    #[test]
    fn build_park_and_lifo_reuse() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let b = o.create_domain();
        let p = o.create_path(vec![a, b]).unwrap();
        let mut f = chunked_build(1);
        let i1 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        let mut f = frames_ok(1);
        let i2 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        assert_eq!((i1, i2), (0, 1));
        assert_eq!(o.counters.misses, 2);
        o.free(i1, a).unwrap();
        o.free(i2, a).unwrap();
        assert_eq!(o.paths[p as usize].free.len(), 2);
        assert_eq!(o.park, vec![0, 1]);
        // LIFO: the hot buffer (i2) comes back first.
        let mut f = quiet_feed();
        let got = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        assert_eq!(got, i2);
        assert_eq!(o.counters.hits, 1);
        f.finish().unwrap();
    }

    #[test]
    fn fifo_sabotage_flips_reuse_order() {
        let mut o = Oracle::new(cfg());
        o.sabotage = Some(Sabotage::FifoReuse);
        let a = o.create_domain();
        let b = o.create_domain();
        let p = o.create_path(vec![a, b]).unwrap();
        let mut f = chunked_build(1);
        let i1 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        let mut f = frames_ok(1);
        let i2 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        o.free(i1, a).unwrap();
        o.free(i2, a).unwrap();
        let mut f = quiet_feed();
        let got = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        assert_eq!(got, i1, "sabotaged model takes the cold buffer");
    }

    #[test]
    fn quota_and_region_mirror_counters() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        // 8-chunk quota × 4 pages per chunk = 32 one-page buffers.
        let mut ixs = Vec::new();
        for i in 0..32 {
            // Every 4th allocation opens a fresh chunk (4 pages each).
            let mut f = if i % 4 == 0 {
                chunked_build(1)
            } else {
                frames_ok(1)
            };
            ixs.push(o.alloc(a, MAllocMode::Uncached, 4096, &mut f).unwrap());
            f.finish().unwrap();
        }
        assert_eq!(o.counters.chunks_granted, 8);
        let mut f = quiet_feed();
        // Organic quota denial consumes no fault decision.
        assert_eq!(
            o.alloc(a, MAllocMode::Uncached, 4096, &mut f),
            Err(MErr::QuotaExceeded)
        );
        f.finish().unwrap();
        assert_eq!(o.counters.quota_denials, 1);
        // Retiring a buffer frees its exact-fit slot for reuse (no new
        // chunk consults: the slot satisfies the request).
        o.free(ixs[5], a).unwrap();
        let mut f = frames_ok(1);
        let re = o.alloc(a, MAllocMode::Uncached, 4096, &mut f).unwrap();
        f.finish().unwrap();
        let want_va = o.buf(ixs[4]).unwrap().va + 4096;
        assert_eq!(o.buf(re).unwrap().va, want_va, "exact-fit slot reused");
    }

    #[test]
    fn injected_quota_and_chunk_grant_decisions() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let mut f = Feed::default();
        f.load(vec![FaultDecision {
            site: FaultSite::QuotaExhausted,
            fired: true,
        }]);
        assert_eq!(
            o.alloc(a, MAllocMode::Uncached, 4096, &mut f),
            Err(MErr::QuotaExceeded)
        );
        f.finish().unwrap();
        // An injected denial is the fault plan's tally, not an organic
        // quota denial.
        assert_eq!(o.counters.quota_denials, 0);
        let mut f = Feed::default();
        f.load(vec![
            FaultDecision {
                site: FaultSite::QuotaExhausted,
                fired: false,
            },
            FaultDecision {
                site: FaultSite::ChunkGrant,
                fired: true,
            },
        ]);
        assert_eq!(
            o.alloc(a, MAllocMode::Uncached, 4096, &mut f),
            Err(MErr::RegionExhausted)
        );
        f.finish().unwrap();
        assert_eq!(o.counters.chunks_granted, 0);
    }

    #[test]
    fn dynamic_policy_tracks_the_free_pool_not_the_quota() {
        let mut c = cfg();
        c.policy = MPolicy::FbDynamic { num: 1, den: 1 };
        let mut o = Oracle::new(c);
        let a = o.create_domain();
        // Each 16 KB allocation consumes a whole chunk. 64 chunks total;
        // with alpha = 1 the k-th grant is admitted iff k < 64 - k, so
        // exactly 32 succeed — way past the static quota of 8.
        for _ in 0..32 {
            let mut f = chunked_build(4);
            o.alloc(a, MAllocMode::Uncached, 16 << 10, &mut f).unwrap();
            f.finish().unwrap();
        }
        assert_eq!(o.counters.chunks_granted, 32);
        // The 33rd is denied organically, consuming no fault decision.
        let mut f = quiet_feed();
        assert_eq!(
            o.alloc(a, MAllocMode::Uncached, 16 << 10, &mut f),
            Err(MErr::QuotaExceeded)
        );
        f.finish().unwrap();
        assert_eq!(o.counters.quota_denials, 1);
    }

    #[test]
    fn priority_class_scales_the_dynamic_threshold() {
        let mut c = cfg();
        c.policy = MPolicy::PriorityWeighted {
            num: 1,
            den: 1,
            weights: [50, 100, 150, 200],
        };
        let mut o = Oracle::new(c);
        let a = o.create_domain();
        let b = o.create_domain();
        let p = o.create_path(vec![a, b]).unwrap();
        o.set_path_class(p, 0).unwrap();
        // Class 0 halves alpha: the k-th grant is admitted iff
        // k < ⌊(64 - k) / 2⌋, so 21 chunk grants succeed before the
        // organic denial.
        for i in 0..21 {
            let mut f = chunked_build(4);
            let ix = o.alloc(a, MAllocMode::Cached(p), 16 << 10, &mut f).unwrap();
            f.finish().unwrap();
            assert_eq!(ix, i, "every allocation builds fresh");
        }
        let mut f = quiet_feed();
        assert_eq!(
            o.alloc(a, MAllocMode::Cached(p), 16 << 10, &mut f),
            Err(MErr::QuotaExceeded)
        );
        f.finish().unwrap();
        assert_eq!(o.counters.chunks_granted, 21);
        assert_eq!(o.counters.quota_denials, 1);
        assert_eq!(o.set_path_class(99, 1), Err(MErr::NoSuchPath));
    }

    #[test]
    fn secure_send_write_protection() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let b = o.create_domain();
        let mut f = chunked_build(1);
        let ix = o.alloc(a, MAllocMode::Uncached, 100, &mut f).unwrap();
        f.finish().unwrap();
        assert_eq!(o.write(a, ix, 0, 4), Ok(()));
        assert_eq!(o.write(b, ix, 0, 4), Err(MErr::Vm), "not mapped yet");
        o.send(ix, a, b, true).unwrap();
        assert_eq!(o.counters.secured, 1);
        assert_eq!(o.counters.transfers, 1);
        assert_eq!(o.write(a, ix, 0, 4), Err(MErr::Vm), "secured");
        assert_eq!(o.write(b, ix, 0, 4), Err(MErr::Vm), "read-only map");
        assert_eq!(o.write(a, ix, 99, 4), Err(MErr::TooLarge));
    }

    #[test]
    fn terminate_parks_then_releases_zombie_chunks() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let b = o.create_domain();
        let mut f = chunked_build(1);
        let ix = o.alloc(a, MAllocMode::Uncached, 100, &mut f).unwrap();
        f.finish().unwrap();
        o.send(ix, a, b, false).unwrap();
        let granted = o.chunk_next;
        o.terminate(a).unwrap();
        // b's reference keeps the buffer (and a's chunks) alive.
        assert!(o.buf(ix).is_some());
        assert_eq!(o.chunk_recycled.len(), 0);
        o.free(ix, b).unwrap();
        assert!(o.buf(ix).is_none());
        assert_eq!(o.chunk_recycled.len() as u64, granted);
        // The terminated domain errors out of everything.
        assert_eq!(
            o.alloc(a, MAllocMode::Uncached, 100, &mut quiet_feed()),
            Err(MErr::UnknownDomain)
        );
    }

    #[test]
    fn reclaim_strips_residency_and_mappings() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let b = o.create_domain();
        let p = o.create_path(vec![a, b]).unwrap();
        let mut f = chunked_build(2);
        let ix = o.alloc(a, MAllocMode::Cached(p), 2 * 4096, &mut f).unwrap();
        f.finish().unwrap();
        o.free(ix, a).unwrap();
        let mut f = Feed::default();
        f.load(vec![FaultDecision {
            site: FaultSite::ReclaimRefusal,
            fired: false,
        }]);
        assert_eq!(o.reclaim(2, &mut f), 2);
        f.finish().unwrap();
        let bf = o.buf(ix).unwrap();
        assert!(!bf.resident && !bf.park_linked && bf.mapped_in.is_empty());
        assert_eq!(o.counters.frames_reclaimed, 2);
        // Still parked on the path: a later alloc rematerializes.
        let mut f = frames_ok(2);
        let got = o.alloc(a, MAllocMode::Cached(p), 2 * 4096, &mut f).unwrap();
        f.finish().unwrap();
        assert_eq!(got, ix);
        assert!(o.buf(ix).unwrap().resident);
        assert_eq!(o.counters.pages_cleared, 4, "2 at build + 2 at remat");
    }

    #[test]
    fn reclaim_refusal_decision_stops_the_sweep() {
        let mut o = Oracle::new(cfg());
        let a = o.create_domain();
        let b = o.create_domain();
        let p = o.create_path(vec![a, b]).unwrap();
        let mut f = chunked_build(1);
        let i1 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        let mut f = frames_ok(1);
        let i2 = o.alloc(a, MAllocMode::Cached(p), 4096, &mut f).unwrap();
        f.finish().unwrap();
        o.free(i1, a).unwrap();
        o.free(i2, a).unwrap();
        let mut f = Feed::default();
        f.load(vec![FaultDecision {
            site: FaultSite::ReclaimRefusal,
            fired: true,
        }]);
        assert_eq!(o.reclaim(8, &mut f), 0, "pinned head blocks the pass");
        f.finish().unwrap();
        assert!(o.buf(i1).unwrap().resident);
    }

    #[test]
    fn feed_mismatch_poisons_instead_of_firing() {
        let mut f = Feed::default();
        f.load(vec![FaultDecision {
            site: FaultSite::RingFull,
            fired: true,
        }]);
        assert!(!f.take(FaultSite::FrameAlloc), "mismatch never fires");
        let err = f.finish().unwrap_err();
        assert!(err.contains("frame_alloc"), "{err}");
        // Leftover decisions are their own divergence.
        let mut f = Feed::default();
        f.load(vec![FaultDecision {
            site: FaultSite::ChunkGrant,
            fired: false,
        }]);
        let err = f.finish().unwrap_err();
        assert!(err.contains("chunk_grant"), "{err}");
    }
}
