//! Lockstep execution of the real system and the reference model.
//!
//! A [`Harness`] owns one real [`FbufSystem`] (with an armed, logging
//! [`FaultPlan`]) and one [`crate::Oracle`], and drives both with the
//! same [`Cmd`] stream:
//!
//! 1. the real operation runs, logging every fault-plan consult;
//! 2. the consult log is drained into the model's [`Feed`];
//! 3. the model's mirror transition runs, replaying the decisions;
//! 4. outcome kinds are compared, the feed must come up exactly empty,
//!    and the **entire observable state** is diffed (see
//!    [`crate::oracle`] for the definition).
//!
//! Any mismatch — a different error, a buffer field off by one, a parked
//! list in a different order, a counter drifting, a fault consult the
//! model did not predict — is a divergence, reported with the failing
//! step index so the fuzzer can shrink the sequence.
//!
//! # Topology
//!
//! Six domains on three paths: `P0 = [d0, d1, d2]`, `P1 = [d1, d3]`, and
//! an egress pair `PE = [d4, d5]` reserved for the cross-ring traffic.
//! The harness owns both ends of two small SPSC rings (data payloads,
//! and deallocation notices coalesced into [`NoticeBatch`] slots of up
//! to [`NOTICE_COALESCE`] tokens — flushed when the window fills or on
//! an explicit [`Cmd::FlushBatch`]), capacity [`RING_CAP`], and mirrors
//! their occupancy in plain `VecDeque`s — so ring-full backpressure at
//! batch boundaries, dropped batches, and crash-while-tokens-in-flight
//! are all part of the diffed state. Domains may be terminated (by command or by an injected crash)
//! and a bounded number respawned; every error path this opens up
//! (stale ids, dead paths, unknown domains) must reproduce identically
//! on both sides.

use std::collections::VecDeque;
use std::rc::Rc;

use fbuf::shard::{NoticeBatch, NOTICE_BATCH_MAX};
use fbuf::{
    AllocMode, FbufError, FbufId, FbufState, FbufSystem, JailConfig, PathId, QuotaPolicy, SendMode,
};
use fbuf_sim::spsc::{self, Consumer, Producer};
use fbuf_sim::{audit_tracer, FaultPlan, FaultSite, FaultSpec, MachineConfig};
use fbuf_vm::DomainId;

use crate::cmd::{Cmd, SLOTS};
use crate::oracle::{Feed, MAllocMode, MErr, MJail, MPolicy, Oracle, OracleConfig, Sabotage};

/// Priority classes the harness pins on its three paths (`P0`, `P1`,
/// `PE` in declaration order). Always assigned — [`QuotaPolicy::Static`]
/// and [`QuotaPolicy::FbDynamic`] ignore them, so the class plumbing is
/// lockstep-exercised under every policy.
pub const PATH_CLASSES: [u8; 3] = [1, 2, 3];

/// Translates the real policy into the model's independent mirror. Only
/// the *parameters* cross this boundary — the threshold math on the
/// model side is a from-scratch reimplementation.
fn mirror_policy(p: QuotaPolicy) -> MPolicy {
    match p {
        QuotaPolicy::Static => MPolicy::Static,
        QuotaPolicy::FbDynamic { alpha_num, alpha_den } => MPolicy::FbDynamic {
            num: alpha_num,
            den: alpha_den,
        },
        QuotaPolicy::PriorityWeighted {
            alpha_num,
            alpha_den,
            weights,
        } => MPolicy::PriorityWeighted {
            num: alpha_num,
            den: alpha_den,
            weights,
        },
    }
}

/// Capacity of the data and notice rings.
pub const RING_CAP: usize = 4;

/// Notice-coalescing window of the harness: tokens staged per
/// [`NoticeBatch`] before an automatic flush. Deliberately small (and
/// below [`NOTICE_BATCH_MAX`]) so command streams routinely exercise
/// partial batches, threshold flushes, and explicit [`Cmd::FlushBatch`]
/// flushes of leftovers.
pub const NOTICE_COALESCE: usize = 3;

/// A stamped payload in flight on the data ring: token, real id, model
/// index.
type CrossMsg = (u64, FbufId, usize);

/// The lockstep differ. See the [module docs](self).
pub struct Harness {
    sys: FbufSystem,
    model: Oracle,
    plan: Rc<FaultPlan>,
    feed: Feed,
    /// Counter baseline at construction (the real system clears pages
    /// during setup; the model starts at zero).
    base: [u64; 11],
    /// Model index → real id. Model indices are never reused, so this
    /// only grows.
    ids: Vec<FbufId>,
    slots: [Option<(FbufId, usize)>; SLOTS],
    roster: Vec<DomainId>,
    alloc_paths: [PathId; 2],
    egress: PathId,
    d4: DomainId,
    data_tx: Producer<CrossMsg>,
    data_rx: Consumer<CrossMsg>,
    notice_tx: Producer<NoticeBatch>,
    notice_rx: Consumer<NoticeBatch>,
    model_data: VecDeque<u64>,
    /// Mirror of the notice ring: one entry per in-flight batch, each
    /// the exact token sequence the real `NoticeBatch` slot carries.
    model_notice: VecDeque<Vec<u64>>,
    /// Tokens staged toward the next notice batch (host-plane state the
    /// real and model sides share by construction; what is diffed is the
    /// ring occupancy and every lifecycle effect of the acks).
    notice_stage: Vec<u64>,
    /// Tokens pushed but not yet acknowledged. A dropped notice leaves
    /// its entry (and its held buffer) here until the egress domain dies.
    pending: Vec<CrossMsg>,
    /// The hostile producer's stash: buffers allocated by [`Cmd::Hoard`]
    /// and never freed (until the jail revokes around them or their
    /// tenant dies). Bounded at [`SLOTS`] entries.
    hoard: [Option<(FbufId, usize)>; SLOTS],
    step: u64,
    respawns: u32,
}

impl Harness {
    /// Builds the pair under the [`QuotaPolicy::Static`] admission
    /// policy. See [`Harness::with_policy`].
    pub fn new(spec: &FaultSpec, sabotage: Option<Sabotage>) -> Harness {
        Harness::with_policy(spec, sabotage, QuotaPolicy::Static)
    }

    /// Builds the pair: a real system on a roomy `tiny()` machine (extra
    /// physical memory so out-of-memory only happens when injected), six
    /// domains, three paths (classes per [`PATH_CLASSES`]), armed fault
    /// plan, mirrored model running `policy` on both sides — parameters
    /// shared, arithmetic independent.
    pub fn with_policy(
        spec: &FaultSpec,
        sabotage: Option<Sabotage>,
        policy: QuotaPolicy,
    ) -> Harness {
        let mut cfg = MachineConfig::tiny();
        // The fbuf region holds at most 256 pages; 4096 frames make
        // organic frame exhaustion impossible, so every allocation
        // failure is either injected or a region/quota condition the
        // model predicts exactly.
        cfg.phys_mem = 16 << 20;
        let mut sys = FbufSystem::new(cfg.clone());
        sys.machine().tracer().set_enabled(true);
        sys.set_quota_policy(policy);
        let mut model = Oracle::new(OracleConfig {
            page_size: cfg.page_size,
            chunk_size: cfg.chunk_size,
            region_base: cfg.fbuf_region_base,
            region_size: cfg.fbuf_region_size,
            quota: cfg.max_chunks_per_path,
            lifo: true,
            policy: mirror_policy(policy),
            reclaim_batch: cfg.reclaim_batch,
        });
        model.sabotage = sabotage;

        let doms: Vec<DomainId> = (0..6).map(|_| sys.create_domain()).collect();
        for d in &doms {
            assert_eq!(model.create_domain(), d.0, "domain numbering lockstep");
        }
        let p0 = sys.create_path(vec![doms[0], doms[1], doms[2]]).unwrap();
        let p1 = sys.create_path(vec![doms[1], doms[3]]).unwrap();
        let pe = sys.create_path(vec![doms[4], doms[5]]).unwrap();
        for (pid, members) in [(p0, vec![0, 1, 2]), (p1, vec![1, 3]), (pe, vec![4, 5])] {
            let mdoms = members.iter().map(|&i: &usize| doms[i].0).collect();
            assert_eq!(model.create_path(mdoms), Ok(pid.0), "path numbering lockstep");
        }
        for (p, class) in [p0, p1, pe].into_iter().zip(PATH_CLASSES) {
            sys.set_path_class(p, class).unwrap();
            model.set_path_class(p.0, class).unwrap();
        }

        let plan = Rc::new(spec.arm());
        plan.set_log(true);
        sys.arm_faults(Rc::clone(&plan));

        let (data_tx, data_rx) = spsc::ring(RING_CAP);
        let (notice_tx, notice_rx) = spsc::ring(RING_CAP);
        let base = Self::counters_of(&sys);
        Harness {
            sys,
            model,
            plan,
            feed: Feed::default(),
            base,
            ids: Vec::new(),
            slots: [None; SLOTS],
            roster: doms.clone(),
            alloc_paths: [p0, p1],
            egress: pe,
            d4: doms[4],
            data_tx,
            data_rx,
            notice_tx,
            notice_rx,
            model_data: VecDeque::new(),
            model_notice: VecDeque::new(),
            notice_stage: Vec::new(),
            pending: Vec::new(),
            hoard: [None; SLOTS],
            step: 0,
            respawns: 0,
        }
    }

    /// Arms the hoard detector on both sides with thresholds aggressive
    /// enough that a fuzzed hostile producer actually trips it (charged
    /// bytes a third of the fbuf region, a short no-free window, two
    /// strikes to escalation). Only adversarial runs call this — the
    /// recorded benign corpus replays with the jail disarmed, so its
    /// byte-exact behavior is untouched.
    pub fn arm_containment(&mut self) {
        let cfg = JailConfig {
            hoard_bytes: 24 * 4096,
            hoard_age: 8,
            revoke_strikes: 2,
        };
        self.sys.set_jail(Some(cfg));
        self.model.set_jail(Some(MJail {
            hoard_bytes: cfg.hoard_bytes,
            hoard_age: cfg.hoard_age,
            revoke_strikes: cfg.revoke_strikes,
        }));
    }

    /// Containment counters after a run: `[jail_denials,
    /// fbufs_revoked, tokens_rejected]`. Both sides agree by the time a
    /// case finishes (the per-command diff covers all three), so
    /// reading the real side is authoritative.
    pub fn containment_counters(&self) -> [u64; 3] {
        let s = self.sys.stats();
        [s.jail_denials(), s.fbufs_revoked(), s.tokens_rejected()]
    }

    /// Total faults the armed plan injected so far, per site.
    pub fn injected(&self) -> [u64; fbuf_sim::fault::SITE_COUNT] {
        let mut out = [0; fbuf_sim::fault::SITE_COUNT];
        for (i, s) in FaultSite::ALL.iter().enumerate() {
            out[i] = self.plan.injected(*s);
        }
        out
    }

    /// Runs the whole sequence; `Err((index, why))` names the first
    /// diverging command (index `cmds.len()` = the end-of-case audit).
    pub fn run(&mut self, cmds: &[Cmd]) -> Result<(), (usize, String)> {
        for (i, &cmd) in cmds.iter().enumerate() {
            self.step_cmd(cmd).map_err(|e| (i, format!("{cmd:?}: {e}")))?;
        }
        self.finish_case().map_err(|e| (cmds.len(), e))
    }

    /// Executes one command on both sides and diffs everything.
    pub fn step_cmd(&mut self, cmd: Cmd) -> Result<(), String> {
        if self.plan.crash_due(self.step) && !self.roster.is_empty() {
            let victim = self.roster[self.step as usize % self.roster.len()];
            self.terminate(victim)?;
        }
        self.exec(cmd)?;
        self.sweep_slots();
        self.step += 1;
        self.diff()
    }

    /// End-of-case checks: the trace auditor replays every recorded
    /// lifecycle event, the per-tenant ledger must still conserve
    /// against the fleet counters (revocations and token rejections
    /// included — an adversarial run that unbalanced either is a bug),
    /// and the final states must still agree.
    pub fn finish_case(&mut self) -> Result<(), String> {
        let report = audit_tracer(self.sys.machine().tracer());
        if !report.is_clean() {
            let list: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            return Err(format!(
                "replay audit found {} violation(s): {}",
                list.len(),
                list.join("; ")
            ));
        }
        let unbalanced = self
            .sys
            .ledger_snapshot()
            .conserves(&self.sys.stats().snapshot());
        if !unbalanced.is_empty() {
            return Err(format!("ledger conservation broken: {}", unbalanced.join("; ")));
        }
        self.diff()
    }

    // ------------------------------------------------------------------
    // Command execution
    // ------------------------------------------------------------------

    fn exec(&mut self, cmd: Cmd) -> Result<(), String> {
        match cmd {
            Cmd::Alloc {
                slot,
                cached,
                path_sel,
                pages,
                dom_sel,
            } => self.do_alloc(slot, cached, path_sel, pages, dom_sel),
            Cmd::Send {
                slot,
                from_sel,
                to_sel,
                secure,
            } => self.do_send(slot, from_sel, to_sel, secure),
            Cmd::Free { slot, holder_sel } => self.do_free(slot, holder_sel),
            Cmd::Write {
                slot,
                dom_sel,
                off,
                len,
            } => self.do_write(slot, dom_sel, off, len),
            Cmd::Secure { slot, holder_sel } => self.do_secure_cmd(slot, holder_sel),
            Cmd::Pageout { want } => self.do_pageout(want),
            Cmd::CrossSend => self.do_cross_send(),
            Cmd::CrossPoll => self.do_cross_poll(),
            Cmd::FlushBatch => self.flush_notices(),
            Cmd::Terminate { dom_sel } => match self.pick(dom_sel) {
                Some(d) => {
                    self.terminate(d)?;
                    Ok(())
                }
                None => Ok(()),
            },
            Cmd::Respawn => self.do_respawn(),
            Cmd::Hop { from_sel, to_sel } => self.do_hop(from_sel, to_sel),
            Cmd::Hoard { slot, pages } => self.do_hoard(slot, pages),
            Cmd::Expire { slot } => self.do_expire(slot),
            Cmd::Forge { salt } => self.do_forge(salt),
        }
    }

    /// Hostile-producer persona: a cached allocation by `P0`'s
    /// originator that lands on the hoard list and is never freed. Once
    /// the hoarder's charged bytes cross the jail threshold and its
    /// no-free window ages out, both sides must deny with
    /// `TenantJailed` — and, at the strike limit, revoke the tenant's
    /// parked buffers identically.
    fn do_hoard(&mut self, slot: u8, pages: u8) -> Result<(), String> {
        let hs = slot as usize % SLOTS;
        if self.hoard[hs].is_some() {
            return Ok(());
        }
        let dom = DomainId(1); // P0's declared originator
        let pid = self.alloc_paths[0];
        let len = pages.clamp(1, 4) as u64 * 4096;
        let real = self.sys.alloc(dom, AllocMode::Cached(pid), len);
        self.sync();
        let model = self.model.alloc(dom.0, MAllocMode::Cached(pid.0), len, &mut self.feed);
        self.outcome("hoard alloc", &real, &model)?;
        self.feed.finish()?;
        if let (Ok(id), Ok(ix)) = (real, model) {
            if ix == self.ids.len() {
                self.ids.push(id);
            } else if self.ids[ix] != id {
                return Err(format!(
                    "hoard cache hit identity mismatch: model index {ix} is {:?}, real {id:?}",
                    self.ids[ix]
                ));
            }
            self.hoard[hs] = Some((id, ix));
        }
        Ok(())
    }

    /// Stalled-receiver persona: the revocation deadline fires on the
    /// buffer in `slot`, forcibly revoking its deepest holder — the same
    /// transition the engine's timeout takes, driven deterministically
    /// so both sides see the exact command position it happens at.
    fn do_expire(&mut self, slot: u8) -> Result<(), String> {
        let Some((id, ix)) = self.slots[slot as usize % SLOTS] else {
            return Ok(());
        };
        let Some(dom) = self.model.buf(ix).and_then(|b| b.holders.last().copied()) else {
            return Ok(());
        };
        let real = self.sys.revoke(id, DomainId(dom));
        self.sync();
        let model = self.model.revoke(ix, dom);
        self.outcome("expire revoke", &real, &model)?;
        self.feed.finish()
    }

    /// Token-forger persona: presents a stale handle — a live buffer's
    /// id with its generation bits perturbed, or a never-issued handle
    /// when nothing is live. The defense must refuse to resolve it,
    /// mutate nothing the differ tracks, and count exactly one
    /// rejection per attempt on each side.
    fn do_forge(&mut self, salt: u8) -> Result<(), String> {
        let raw = match self.slots.iter().flatten().next() {
            // Same arena slot, guaranteed-different generation.
            Some(&(id, _)) => id.0 ^ ((salt as u64 + 1) << 32),
            // Generation 0xffff_ffff is never reached by any slot.
            None => (0xffff_ffffu64 << 32) | salt as u64,
        };
        if self.sys.check_token(self.d4, None, raw) {
            return Err(format!("forged token {raw:#x} resolved to a live buffer"));
        }
        self.sync();
        self.model.reject_token();
        self.feed.finish()
    }

    /// Drives one bare hop through the event-loop engine. The oracle
    /// transition is the identity (RPC charging is outside the diffed
    /// state), so this command checks that scheduling a hop as an event
    /// — enqueue, dequeue, handler, completion — leaves every model-
    /// tracked observable untouched, drains the loop, and never takes
    /// the overload path on a sequential post.
    fn do_hop(&mut self, from_sel: u8, to_sel: u8) -> Result<(), String> {
        let Some(from) = self.pick(from_sel) else {
            return Ok(());
        };
        let Some(to) = self.pick(to_sel) else {
            return Ok(());
        };
        if from == to {
            return Ok(());
        }
        self.sys.hop(from, to);
        self.sync();
        if self.sys.engine_pending() != 0 {
            return Err(format!(
                "hop left {} event(s) pending — the loop must drain to completion",
                self.sys.engine_pending()
            ));
        }
        if self.sys.engine_overloads() != 0 || self.sys.stats().overload_drops() != 0 {
            return Err("a sequential hop tripped the overload path".to_string());
        }
        self.feed.finish()
    }

    fn do_alloc(
        &mut self,
        slot: u8,
        cached: bool,
        path_sel: u8,
        pages: u8,
        dom_sel: u8,
    ) -> Result<(), String> {
        let (dom, mode, mmode) = if cached {
            let pi = path_sel as usize % 2;
            let pid = self.alloc_paths[pi];
            // Mostly the path's declared originator (so cached allocation
            // actually exercises the free lists); occasionally any roster
            // domain, to hit the NotHolder path.
            let originator = DomainId(if pi == 0 { 1 } else { 2 });
            let dom = if dom_sel.is_multiple_of(4) {
                match self.pick(dom_sel / 4) {
                    Some(d) => d,
                    None => originator,
                }
            } else {
                originator
            };
            (dom, AllocMode::Cached(pid), MAllocMode::Cached(pid.0))
        } else {
            let Some(dom) = self.pick(dom_sel) else {
                return Ok(());
            };
            (dom, AllocMode::Uncached, MAllocMode::Uncached)
        };
        let trim = (slot as u64 * 13) % 100;
        let len = (pages as u64 * 4096).saturating_sub(trim).max(1);
        let real = self.sys.alloc(dom, mode, len);
        self.sync();
        let model = self.model.alloc(dom.0, mmode, len, &mut self.feed);
        self.outcome("alloc", &real, &model)?;
        self.feed.finish()?;
        if let (Ok(id), Ok(ix)) = (real, model) {
            if ix == self.ids.len() {
                self.ids.push(id);
            } else if self.ids[ix] != id {
                return Err(format!(
                    "cache hit identity mismatch: model index {ix} is {:?}, real returned {id:?}",
                    self.ids[ix]
                ));
            }
            self.slots[slot as usize % SLOTS] = Some((id, ix));
        }
        Ok(())
    }

    fn do_send(&mut self, slot: u8, from_sel: u8, to_sel: u8, secure: bool) -> Result<(), String> {
        let Some((id, ix)) = self.slots[slot as usize % SLOTS] else {
            return Ok(());
        };
        let Some(from) = self.holder_or_roster(ix, from_sel) else {
            return Ok(());
        };
        let Some(to) = self.pick(to_sel) else {
            return Ok(());
        };
        let mode = if secure {
            SendMode::Secure
        } else {
            SendMode::Volatile
        };
        let real = self.sys.send(id, from, to, mode);
        self.sync();
        let model = self.model.send(ix, from.0, to.0, secure);
        self.outcome("send", &real, &model)?;
        self.feed.finish()
    }

    fn do_free(&mut self, slot: u8, holder_sel: u8) -> Result<(), String> {
        let Some((id, ix)) = self.slots[slot as usize % SLOTS] else {
            return Ok(());
        };
        let Some(dom) = self.holder_or_roster(ix, holder_sel) else {
            return Ok(());
        };
        let real = self.sys.free(id, dom);
        self.sync();
        let model = self.model.free(ix, dom.0);
        self.outcome("free", &real, &model)?;
        self.feed.finish()
    }

    fn do_write(&mut self, slot: u8, dom_sel: u8, off: u16, len: u8) -> Result<(), String> {
        let Some((id, ix)) = self.slots[slot as usize % SLOTS] else {
            return Ok(());
        };
        let Some(dom) = self.holder_or_roster(ix, dom_sel) else {
            return Ok(());
        };
        let bytes = vec![0xabu8; len as usize];
        let real = self.sys.write_fbuf(dom, id, off as u64, &bytes);
        self.sync();
        let model = self.model.write(dom.0, ix, off as u64, len as u64);
        self.outcome("write", &real, &model)?;
        self.feed.finish()
    }

    fn do_secure_cmd(&mut self, slot: u8, holder_sel: u8) -> Result<(), String> {
        let Some((id, ix)) = self.slots[slot as usize % SLOTS] else {
            return Ok(());
        };
        let Some(dom) = self.holder_or_roster(ix, holder_sel) else {
            return Ok(());
        };
        let real = self.sys.secure(id, dom);
        self.sync();
        let model = self.model.secure(ix, dom.0);
        self.outcome("secure", &real, &model)?;
        self.feed.finish()
    }

    fn do_pageout(&mut self, want: u8) -> Result<(), String> {
        let real = self.sys.reclaim_frames(want as usize);
        self.sync();
        let model = self.model.reclaim(want as usize, &mut self.feed);
        if real != model {
            return Err(format!("pageout reclaimed {real} frames, model {model}"));
        }
        self.feed.finish()
    }

    fn do_cross_send(&mut self) -> Result<(), String> {
        let real = self.sys.alloc(self.d4, AllocMode::Cached(self.egress), 64);
        self.sync();
        let model = self
            .model
            .alloc(self.d4.0, MAllocMode::Cached(self.egress.0), 64, &mut self.feed);
        self.outcome("cross alloc", &real, &model)?;
        self.feed.finish()?;
        let (Ok(id), Ok(ix)) = (real, model) else {
            return Ok(());
        };
        if ix == self.ids.len() {
            self.ids.push(id);
        } else if self.ids[ix] != id {
            return Err(format!(
                "cross cache hit identity mismatch: model index {ix} is {:?}, real {id:?}",
                self.ids[ix]
            ));
        }
        let token = 0x7000_0000_0000_0000 | self.step;
        let real_w = self.sys.write_fbuf(self.d4, id, 0, &token.to_le_bytes());
        self.sync();
        let model_w = self.model.write(self.d4.0, ix, 0, 8);
        self.outcome("cross stamp", &real_w, &model_w)?;
        self.feed.finish()?;
        // Backpressure: one consult guards the push attempt; an injected
        // "full" and an organically full ring both bounce the buffer back
        // to its free list.
        let real_fired = self.plan.fires(FaultSite::RingFull);
        self.sync();
        let model_fired = self.feed.take(FaultSite::RingFull);
        self.feed.finish()?;
        if real_fired != model_fired {
            return Err("ring-full decision desynchronized".into());
        }
        let real_full = real_fired || self.data_tx.push((token, id, ix)).is_err();
        let model_full = model_fired || self.model_data.len() == RING_CAP;
        if real_full != model_full {
            return Err(format!(
                "data-ring occupancy diverged: real full={real_full}, model len={}",
                self.model_data.len()
            ));
        }
        if real_full {
            let real_f = self.sys.free(id, self.d4);
            self.sync();
            let model_f = self.model.free(ix, self.d4.0);
            self.outcome("cross bounce free", &real_f, &model_f)?;
            self.feed.finish()?;
        } else {
            self.pending.push((token, id, ix));
            self.model_data.push_back(token);
        }
        Ok(())
    }

    fn do_cross_poll(&mut self) -> Result<(), String> {
        // Data ring first: verify stamps and stage each token toward the
        // next coalesced notice batch; the window filling forces a
        // flush. A dropped batch (injected ring-full at the flush
        // boundary) pins every buffer it acknowledged until the egress
        // domain dies.
        while let Some((token, id, ix)) = self.data_rx.pop() {
            if self.model_data.pop_front() != Some(token) {
                return Err(format!("data ring order diverged at token {token:#x}"));
            }
            let real_r = self.sys.read_fbuf(self.d4, id, 0, 8);
            self.sync();
            let model_r = self.model.read_predict(self.d4.0, ix, 0, 8);
            self.outcome("cross read", &real_r, &model_r)?;
            self.feed.finish()?;
            if let Ok(bytes) = &real_r {
                if bytes.as_slice() != token.to_le_bytes() {
                    return Err(format!("payload corrupted: token {token:#x}, got {bytes:?}"));
                }
            }
            self.notice_stage.push(token);
            if self.notice_stage.len() >= NOTICE_COALESCE {
                self.flush_notices()?;
            }
        }
        // Notice ring second: each drained batch releases its pending
        // buffers in staged order (a buffer may already be gone if the
        // holder was terminated — that error must reproduce on both
        // sides).
        while let Some(batch) = self.notice_rx.pop() {
            let Some(model_batch) = self.model_notice.pop_front() else {
                return Err("notice ring holds a batch the model lacks".into());
            };
            if batch.tokens() != model_batch.as_slice() {
                return Err(format!(
                    "notice batch diverged: real {:?}, model {model_batch:?}",
                    batch.tokens()
                ));
            }
            for &token in batch.tokens() {
                let Some(p) = self.pending.iter().position(|&(t, _, _)| t == token) else {
                    return Err(format!("notice for unknown token {token:#x}"));
                };
                let (_, id, ix) = self.pending.swap_remove(p);
                let real = self.sys.free(id, self.d4);
                self.sync();
                let model = self.model.free(ix, self.d4.0);
                self.outcome("cross ack free", &real, &model)?;
                self.feed.finish()?;
            }
        }
        Ok(())
    }

    /// Flushes the staged notice tokens as one batch: a single
    /// ring-full consult guards the whole batch. Injected full drops the
    /// batch (every staged ack is lost, exactly like the per-token drops
    /// before coalescing, but at batch granularity); organic full keeps
    /// the stage intact for a later retry. A no-op when nothing is
    /// staged — [`Cmd::FlushBatch`] on an empty stage consults nothing.
    fn flush_notices(&mut self) -> Result<(), String> {
        if self.notice_stage.is_empty() {
            return Ok(());
        }
        debug_assert!(self.notice_stage.len() <= NOTICE_BATCH_MAX);
        let real_fired = self.plan.fires(FaultSite::RingFull);
        self.sync();
        let model_fired = self.feed.take(FaultSite::RingFull);
        self.feed.finish()?;
        if real_fired != model_fired {
            return Err("notice-ring decision desynchronized".into());
        }
        if real_fired {
            self.notice_stage.clear();
            return Ok(());
        }
        let mut batch = NoticeBatch::empty();
        for &t in &self.notice_stage {
            assert!(batch.push(t), "stage never outgrows a batch");
        }
        let real_full = self.notice_tx.push(batch).is_err();
        let model_full = self.model_notice.len() == RING_CAP;
        if real_full != model_full {
            return Err("notice-ring occupancy diverged".into());
        }
        if !real_full {
            self.model_notice
                .push_back(std::mem::take(&mut self.notice_stage));
        }
        Ok(())
    }

    fn terminate(&mut self, dom: DomainId) -> Result<(), String> {
        let real = self.sys.terminate_domain(dom);
        self.sync();
        let model = self.model.terminate(dom.0);
        self.outcome("terminate", &real, &model)?;
        self.feed.finish()?;
        self.roster.retain(|&d| d != dom);
        self.sweep_slots();
        Ok(())
    }

    fn do_respawn(&mut self) -> Result<(), String> {
        if self.respawns >= 10 {
            return Ok(());
        }
        self.respawns += 1;
        let d = self.sys.create_domain();
        self.sync();
        let m = self.model.create_domain();
        self.feed.finish()?;
        if d.0 != m {
            return Err(format!("domain numbering diverged: real {d:?}, model {m}"));
        }
        self.roster.push(d);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Roster pick; `None` when every domain is dead.
    fn pick(&self, sel: u8) -> Option<DomainId> {
        if self.roster.is_empty() {
            None
        } else {
            Some(self.roster[sel as usize % self.roster.len()])
        }
    }

    /// Resolves an actor for a buffer operation: one of the buffer's
    /// current holders when it has any (so the happy path dominates),
    /// otherwise any roster domain (so NotHolder/NoSuchFbuf paths are
    /// exercised too). Resolution reads only the model, so both sides
    /// see the same actor.
    fn holder_or_roster(&self, ix: usize, sel: u8) -> Option<DomainId> {
        if let Some(b) = self.model.buf(ix) {
            if !b.holders.is_empty() {
                return Some(DomainId(b.holders[sel as usize % b.holders.len()]));
            }
        }
        self.pick(sel)
    }

    /// Drains the plan's consult log into the model's feed.
    fn sync(&mut self) {
        self.feed.load(self.plan.drain_log());
    }

    /// Drops slot (and hoard) entries whose buffer has been retired.
    fn sweep_slots(&mut self) {
        for s in self.slots.iter_mut().chain(self.hoard.iter_mut()) {
            if let Some((_, ix)) = *s {
                if self.model.buf(ix).is_none() {
                    *s = None;
                }
            }
        }
    }

    fn outcome<T, U>(
        &self,
        what: &str,
        real: &Result<T, FbufError>,
        model: &Result<U, MErr>,
    ) -> Result<(), String> {
        let rk = real.as_ref().err().map(MErr::of);
        let mk = model.as_ref().err().copied();
        if rk == mk {
            return Ok(());
        }
        Err(format!(
            "{what} outcome mismatch: real {}, model {}",
            match real.as_ref().err() {
                Some(e) => format!("Err({e:?})"),
                None => "Ok".into(),
            },
            match mk {
                Some(e) => format!("Err({e:?})"),
                None => "Ok".into(),
            }
        ))
    }

    fn counters_of(sys: &FbufSystem) -> [u64; 11] {
        let s = sys.stats();
        [
            s.fbuf_cache_hits(),
            s.fbuf_cache_misses(),
            s.fbufs_secured(),
            s.fbuf_transfers(),
            s.chunks_granted(),
            s.chunk_quota_denials(),
            s.frames_reclaimed(),
            s.pages_cleared(),
            s.jail_denials(),
            s.fbufs_revoked(),
            s.tokens_rejected(),
        ]
    }

    // ------------------------------------------------------------------
    // The differ
    // ------------------------------------------------------------------

    /// Compares the entire observable state of the two implementations.
    pub fn diff(&self) -> Result<(), String> {
        if self.ids.len() != self.model.bufs.len() {
            return Err(format!(
                "buffer population diverged: harness tracked {} ids, model has {}",
                self.ids.len(),
                self.model.bufs.len()
            ));
        }
        let live = self.model.live_count();
        if self.sys.live_fbufs() != live {
            return Err(format!(
                "live count diverged: real {}, model {live}",
                self.sys.live_fbufs()
            ));
        }
        for (ix, &id) in self.ids.iter().enumerate() {
            match (self.sys.fbuf(id), self.model.buf(ix)) {
                (Ok(f), Some(m)) => {
                    let h = self.sys.fbuf_hot(id).expect("cold half was live");
                    let holders: Vec<u32> = f.holders.iter().map(|d| d.0).collect();
                    let mapped: Vec<u32> = f.mapped_in.iter().map(|d| d.0).collect();
                    let pairs: [(&str, String, String); 10] = [
                        ("va", format!("{:#x}", f.va), format!("{:#x}", m.va)),
                        ("pages", f.pages.to_string(), m.pages.to_string()),
                        ("len", f.len.to_string(), m.len.to_string()),
                        ("originator", f.originator.0.to_string(), m.originator.to_string()),
                        (
                            "path",
                            format!("{:?}", h.path.map(|p| p.0)),
                            format!("{:?}", m.path),
                        ),
                        (
                            "secured",
                            (h.state == FbufState::Secured).to_string(),
                            m.secured.to_string(),
                        ),
                        ("resident", f.resident().to_string(), m.resident.to_string()),
                        ("parked", h.park_linked.to_string(), m.park_linked.to_string()),
                        ("holders", format!("{holders:?}"), format!("{:?}", m.holders)),
                        ("mapped_in", format!("{mapped:?}"), format!("{:?}", m.mapped_in)),
                    ];
                    for (field, r, mm) in pairs {
                        if r != mm {
                            return Err(format!(
                                "buffer {id:?} (model {ix}) field `{field}` diverged: real {r}, model {mm}"
                            ));
                        }
                    }
                }
                (Err(_), None) => {}
                (Ok(_), None) => {
                    return Err(format!("buffer {id:?} live in real, retired in model"));
                }
                (Err(_), Some(_)) => {
                    return Err(format!("buffer {id:?} retired in real, live in model"));
                }
            }
        }
        for (i, mp) in self.model.paths.iter().enumerate() {
            let p = self
                .sys
                .path(PathId(i as u64))
                .map_err(|e| format!("path {i} missing in real: {e:?}"))?;
            if p.live != mp.live {
                return Err(format!(
                    "path {i} liveness diverged: real {}, model {}",
                    p.live, mp.live
                ));
            }
            let real_parked: Vec<FbufId> = p.parked_cold_first().collect();
            let model_parked: Vec<FbufId> =
                mp.free.iter().map(|&(_, ix)| self.ids[ix]).collect();
            if real_parked != model_parked {
                return Err(format!(
                    "path {i} free list diverged: real {real_parked:?}, model {model_parked:?}"
                ));
            }
        }
        let now = Self::counters_of(&self.sys);
        let got: Vec<u64> = now.iter().zip(self.base).map(|(n, b)| n - b).collect();
        let c = &self.model.counters;
        let want = [
            c.hits,
            c.misses,
            c.secured,
            c.transfers,
            c.chunks_granted,
            c.quota_denials,
            c.frames_reclaimed,
            c.pages_cleared,
            c.jail_denials,
            c.revoked,
            c.rejected_tokens,
        ];
        const NAMES: [&str; 11] = [
            "fbuf_cache_hits",
            "fbuf_cache_misses",
            "fbufs_secured",
            "fbuf_transfers",
            "chunks_granted",
            "chunk_quota_denials",
            "frames_reclaimed",
            "pages_cleared",
            "jail_denials",
            "fbufs_revoked",
            "tokens_rejected",
        ];
        for i in 0..11 {
            if got[i] != want[i] {
                return Err(format!(
                    "counter `{}` diverged: real {}, model {}",
                    NAMES[i], got[i], want[i]
                ));
            }
        }
        if self.data_rx.len() != self.model_data.len()
            || self.notice_rx.len() != self.model_notice.len()
        {
            return Err(format!(
                "ring occupancy diverged: data real {} vs model {}, notice real {} vs model {}",
                self.data_rx.len(),
                self.model_data.len(),
                self.notice_rx.len(),
                self.model_notice.len()
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("lockstep::Harness")
            .field("step", &self.step)
            .field("buffers", &self.ids.len())
            .field("roster", &self.roster.len())
            .field("pending_tokens", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd;

    #[test]
    fn quiet_plan_long_sequence_stays_in_lockstep() {
        let spec = FaultSpec::new(0x1ead_beef);
        let mut h = Harness::new(&spec, None);
        let cmds = cmd::generate(0xfeed_0001, 400);
        h.run(&cmds).unwrap_or_else(|(i, e)| {
            panic!("diverged at command {i}: {e}");
        });
    }

    #[test]
    fn noisy_plan_stays_in_lockstep() {
        let spec = FaultSpec::new(7)
            .rate(FaultSite::ChunkGrant, 2000)
            .rate(FaultSite::QuotaExhausted, 2000)
            .rate(FaultSite::FrameAlloc, 1500)
            .rate(FaultSite::ReclaimRefusal, 3000)
            .rate(FaultSite::RingFull, 8000)
            .crash_after(120);
        let mut h = Harness::new(&spec, None);
        let cmds = cmd::generate(0xfeed_0002, 400);
        h.run(&cmds).unwrap_or_else(|(i, e)| {
            panic!("diverged at command {i}: {e}");
        });
    }

    #[test]
    fn dynamic_policies_stay_in_lockstep() {
        // The same noisy stream under each non-static policy: the
        // model's independent threshold math must agree with the real
        // implementation on every admission, organic denial included.
        for policy in [QuotaPolicy::fb_dynamic(), QuotaPolicy::priority_weighted()] {
            let spec = FaultSpec::new(21)
                .rate(FaultSite::ChunkGrant, 1500)
                .rate(FaultSite::QuotaExhausted, 1500)
                .rate(FaultSite::FrameAlloc, 1000);
            let mut h = Harness::with_policy(&spec, None, policy);
            let cmds = cmd::generate(0xfeed_0003, 400);
            h.run(&cmds).unwrap_or_else(|(i, e)| {
                panic!("{} diverged at command {i}: {e}", policy.name());
            });
        }
    }

    #[test]
    fn sabotaged_model_is_caught() {
        // The FIFO sabotage needs two same-size parked buffers and a
        // reallocation; scan a few seeds so the test does not depend on
        // one particular stream shape.
        let caught = (0..8u64).any(|s| {
            let spec = FaultSpec::new(s);
            let mut h = Harness::new(&spec, Some(Sabotage::FifoReuse));
            let cmds = cmd::generate(0xbad0_0000 + s, 300);
            h.run(&cmds).is_err()
        });
        assert!(caught, "planted FIFO divergence never detected");
    }

    #[test]
    fn adversarial_personas_stay_in_lockstep() {
        // Hostile producer, stalled receiver, and token forger riding a
        // noisy benign stream with the jail armed: every jail denial,
        // escalation revocation, and token rejection must reproduce
        // bit-identically on both sides.
        for seed in [0xadb0_0001u64, 0xadb0_0002, 0xadb0_0003] {
            let spec = cmd::fault_spec(seed, 500);
            let mut h = Harness::with_policy(&spec, None, cmd::policy_spec(seed));
            h.arm_containment();
            let cmds = cmd::generate_adversarial(seed, 500, 3);
            h.run(&cmds).unwrap_or_else(|(i, e)| {
                panic!("seed {seed:#x} diverged at command {i}: {e}");
            });
        }
    }

    #[test]
    fn jail_actually_trips_under_a_dedicated_hoarder() {
        // A pure hoard loop must cross the threshold, strike out, and
        // revoke — exercising the whole escalation, not just the happy
        // path. The harness diffing after every command is the assert.
        let spec = FaultSpec::new(0);
        let mut h = Harness::new(&spec, None);
        h.arm_containment();
        let mut cmds = Vec::new();
        // Benign warm-up: park some of the hoarder's buffers so the
        // escalation has victims to revoke. Every free resets the hoard
        // clock, so this phase must come entirely before the hoard run.
        for _ in 0..8 {
            cmds.push(Cmd::Alloc {
                slot: 0,
                cached: true,
                path_sel: 0,
                pages: 2,
                dom_sel: 1,
            });
            cmds.push(Cmd::Free {
                slot: 0,
                holder_sel: 0,
            });
        }
        // Pure hoard pressure: charged bytes cross the threshold within
        // a few allocations and the no-free window ages out.
        for i in 0..60u32 {
            cmds.push(Cmd::Hoard {
                slot: (i % 16) as u8,
                pages: 4,
            });
        }
        h.run(&cmds).unwrap_or_else(|(i, e)| {
            panic!("diverged at command {i}: {e}");
        });
        assert!(
            h.sys.stats().jail_denials() > 0,
            "the hoarder was never jailed"
        );
        assert!(
            h.sys.stats().fbufs_revoked() > 0,
            "the jail never escalated to revocation"
        );
    }

    #[test]
    fn crash_mid_flight_keeps_cross_state_consistent() {
        // An early crash with cross traffic armed: tokens in flight when
        // their holder dies must not desynchronize the rings.
        let spec = FaultSpec::new(99).crash_after(10).rate(FaultSite::RingFull, 4000);
        let mut h = Harness::new(&spec, None);
        let mut cmds = Vec::new();
        for i in 0..120 {
            cmds.push(if i % 3 == 0 {
                Cmd::CrossSend
            } else if i % 7 == 0 {
                Cmd::CrossPoll
            } else {
                cmd::generate(i as u64, 1)[0]
            });
        }
        h.run(&cmds).unwrap_or_else(|(i, e)| {
            panic!("diverged at command {i}: {e}");
        });
    }
}
