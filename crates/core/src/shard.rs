//! Sharded multi-core engines: one complete machine per OS thread.
//!
//! The paper targets shared-memory multiprocessors and observes that the
//! per-path free lists need no locking as long as a data path stays
//! processor-local (§3.3). This module takes that design at its word:
//! a **shard** is a complete, independent engine — its own
//! [`FbufSystem`] over its own simulated [`Machine`](fbuf_vm::Machine),
//! which owns the clock, counters, tracer, telemetry and fault plan —
//! owned by exactly one OS thread. The engine is `!Send` (its transfer
//! legs share `Rc` routes), so a shard is *constructed inside* its
//! thread; the only types that cross are plain data ([`CrossShardMsg`],
//! notice tokens, [`StatsSnapshot`], [`TraceEvent`]).
//!
//! Data paths are partitioned across shards by path id
//! ([`shard_of_path`]), so the steady-state hot path — cached alloc,
//! volatile transfer, free — runs with zero synchronization of any kind.
//! When data must leave its shard, it crosses an [`spsc`] ring pair:
//! the sender serializes the fbuf's page payload plus a path token into
//! the fixed-capacity **data ring**, the receiver materializes it
//! through its *own* cached allocator (so §3.2.2 steady state — zero
//! PTE updates, zero clears, all cache hits — holds per shard), and the
//! deallocation notice flows back on the reverse **notice ring**, at
//! which point the sender parks its copy on its free list.
//!
//! The inter-core plane is **batched** (DESIGN.md §14): the receiver
//! drains its whole data-ring backlog under one acquire load
//! ([`spsc::Consumer::drain_into`]), and dealloc notices are coalesced
//! into [`NoticeBatch`] payloads — one reverse-ring slot carries up to
//! [`NOTICE_BATCH_MAX`] tokens in send order, staged per ingest and
//! flushed when the stage is full or at the poll boundary, whichever
//! comes first. Batching is host-plane only: it never touches the
//! simulated clock or counters, which the golden matrix in
//! `tests/counter_exactness.rs` pins (its fleet goldens were recorded at
//! one and at sixteen tokens per slot, and agreed).
//!
//! **Nothing a peer sends panics a shard.** A payload whose token does
//! not name the upstream shard, that is longer than the ingress buffer
//! or that is not led by its own token is refused as a rejected token
//! before anything is allocated for it. A notice with no matching
//! pending egress buffer is a typed audit violation
//! (`notice-without-pending`, a [`fbuf_sim::EventKind::NoticeOrphan`]
//! trace event). Local cycles and arrivals run one fallible walk that
//! releases what it took on an error and counts in [`Shard::failed`]; a
//! failed arrival is still acknowledged.
//!
//! [`run_fleet`] drives N shards concurrently over a ring topology
//! (shard *i* feeds shard *i*+1 mod N) with barrier-aligned warm-up and
//! measurement phases, and returns one [`ShardReport`] per shard;
//! [`fleet_snapshot`] and [`fleet_trace`] fold those into the single
//! coherent view a fleet-level report needs.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

use fbuf_sim::metrics::{self, Gauge, SeriesSnapshot};
use fbuf_sim::spsc::{self, Consumer, Producer};
use fbuf_sim::{
    trace, EventKind, FaultSite, FaultSpec, MachineConfig, Ns, StatsSnapshot, TraceEvent,
};
use fbuf_vm::DomainId;

use crate::engine;
use crate::ledger::Ledger;
use crate::{AllocMode, FbufId, FbufResult, FbufSystem, PathId, SendMode};

/// Which shard owns a data path: paths are partitioned round-robin by
/// path id, the scheme both the fleet and its tests rely on.
pub fn shard_of_path(path: u64, shards: usize) -> usize {
    (path % shards.max(1) as u64) as usize
}

/// One fbuf's worth of cross-shard traffic: the page payload and the
/// token the dealloc notice will echo back.
#[derive(Debug)]
pub struct CrossShardMsg {
    /// Sender-unique token: shard id in the high bits, sequence below.
    pub token: u64,
    /// The fbuf's byte payload, serialized out of the sender's pages.
    pub payload: Vec<u8>,
}

impl CrossShardMsg {
    /// Packs a token from a shard id, the arena **generation** of the
    /// egress buffer backing the payload, and a per-shard sequence
    /// number: `shard(15) | generation(16) | seq(32)`. The generation
    /// bits extend the arena's use-after-retire defense across the ring:
    /// a receiver (or a forger) replaying a token after the egress slot
    /// was reused presents stale generation bits, and the sender rejects
    /// the notice by bit comparison alone — the token is never used to
    /// reach a buffer (`DESIGN.md` §16).
    pub fn token_for(shard: usize, generation: u32, seq: u64) -> u64 {
        ((shard as u64) << 48) | ((generation as u64 & 0xffff) << 32) | (seq & 0xffff_ffff)
    }

    /// The shard-id bits of a token.
    pub fn shard_of_token(token: u64) -> usize {
        ((token >> 48) & 0x7fff) as usize
    }

    /// Strips the generation bits: what remains identifies the logical
    /// transfer (shard + sequence), which is the key for telling a
    /// stale-generation forgery (same transfer, wrong generation) from a
    /// plain orphan notice (no such transfer pending).
    pub fn transfer_of_token(token: u64) -> u64 {
        token & 0xffff_0000_ffff_ffff
    }

    /// The span id a cross-shard token acts as. Tokens reuse the
    /// shard-id high bits that span salts live in, so the top bit is
    /// set to keep token-derived spans disjoint from every minted span
    /// (salts are masked to 16 bits and never reach bit 63).
    pub fn span_of_token(token: u64) -> u64 {
        token | (1 << 63)
    }
}

/// Dealloc-notice tokens one reverse-ring slot carries: the staged batch
/// is flushed once it holds this many (or at the poll boundary), and the
/// bound keeps a batch a fixed-size, allocation-free value.
pub const NOTICE_BATCH_MAX: usize = 16;

/// A coalesced batch of dealloc-notice tokens: one reverse-ring slot
/// carrying up to [`NOTICE_BATCH_MAX`] tokens, in the exact order the
/// corresponding payloads were sent (the FIFO invariant the sender's
/// pending queue relies on spans batches: tokens within a batch are
/// ordered, and batches are ordered by the ring itself).
#[derive(Debug, Clone, Copy)]
pub struct NoticeBatch {
    len: u8,
    tokens: [u64; NOTICE_BATCH_MAX],
}

impl NoticeBatch {
    /// A batch holding no tokens.
    pub const fn empty() -> NoticeBatch {
        NoticeBatch {
            len: 0,
            tokens: [0; NOTICE_BATCH_MAX],
        }
    }

    /// Appends a token. Returns `false` (leaving the batch unchanged)
    /// when the batch already carries [`NOTICE_BATCH_MAX`] tokens.
    pub fn push(&mut self, token: u64) -> bool {
        if (self.len as usize) == NOTICE_BATCH_MAX {
            return false;
        }
        self.tokens[self.len as usize] = token;
        self.len += 1;
        true
    }

    /// Tokens carried, in send order.
    pub fn tokens(&self) -> &[u64] {
        &self.tokens[..self.len as usize]
    }

    /// Number of tokens carried.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no tokens are carried.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for NoticeBatch {
    fn default() -> NoticeBatch {
        NoticeBatch::empty()
    }
}

/// A shard's four channel endpoints in the fleet's ring topology. All
/// are `None` for a fleet without cross-shard traffic.
#[derive(Debug, Default)]
pub struct Links {
    /// Data ring to the next shard (this shard is the producer).
    pub data_tx: Option<Producer<CrossShardMsg>>,
    /// Reverse notice ring from the next shard: coalesced batches of
    /// tokens of payloads it has fully consumed.
    pub notice_rx: Option<Consumer<NoticeBatch>>,
    /// Data ring from the previous shard (this shard is the consumer).
    pub data_rx: Option<Consumer<CrossShardMsg>>,
    /// Reverse notice ring to the previous shard.
    pub notice_tx: Option<Producer<NoticeBatch>>,
    /// Fleet index of the shard feeding `data_rx`, when known. Ingest
    /// authenticates each payload's token against it: a token whose
    /// shard bits do not name the upstream producer is forged and the
    /// payload is dropped unmaterialized.
    pub upstream: Option<usize>,
}

/// The three domains of one local loopback path (originator →
/// netserver → receiver), mirroring the paper's Figure-4 cast.
#[derive(Debug, Clone, Copy)]
struct Triple {
    path: PathId,
    originator: DomainId,
    netserver: DomainId,
    receiver: DomainId,
}

impl Triple {
    /// Creates `hops` fresh domains and a path through them in that
    /// order: three make a loopback path, two the egress path, whose
    /// netserver is its receiver.
    fn create(sys: &mut FbufSystem, hops: usize) -> Triple {
        let doms: Vec<DomainId> = (0..hops).map(|_| sys.create_domain()).collect();
        let (originator, netserver, receiver) = (doms[0], doms[1], doms[hops - 1]);
        // Fresh, live, distinct domains always make a path.
        #[allow(clippy::expect_used)]
        let path = sys.create_path(doms).expect("fresh domains make a path");
        Triple {
            path,
            originator,
            netserver,
            receiver,
        }
    }
}

/// One complete engine owned by one OS thread. See the [module
/// docs](self) for the ownership rules.
#[derive(Debug)]
pub struct Shard {
    /// Fleet-wide shard index.
    pub id: usize,
    /// The shard's private engine (machine, clock, stats, tracer, RPC).
    pub sys: FbufSystem,
    /// Local loopback paths, cycled round-robin.
    locals: Vec<Triple>,
    /// Dedicated two-domain path whose buffers carry egress payloads
    /// (separate from `locals` so an in-flight egress buffer never
    /// steals a local path's parked buffer).
    egress: Triple,
    /// Dedicated path that materializes cross-shard arrivals.
    ingress: Triple,
    /// Bytes per buffer.
    len: u64,
    /// Egress buffers awaiting their dealloc notice, oldest first. The
    /// SPSC rings are FIFO and batches preserve send order, so notices
    /// return in send order.
    pending: VecDeque<(u64, FbufId)>,
    next_seq: u64,
    next_local: usize,
    /// Dealloc-notice tokens staged for the next batch flush (tokens of
    /// payloads this shard has fully consumed, send order).
    notice_stage: NoticeBatch,
    /// Scratch buffer for burst-draining the ingress data ring
    /// (capacity retained across polls — no steady-state allocation).
    drain_buf: Vec<CrossShardMsg>,
    /// Size of the last non-empty ingress drain burst (the
    /// `ring_batch_occupancy` gauge).
    last_drain: u64,
    /// The last ingested payload's bytes, kept to carry the next egress
    /// payload (so neither direction allocates in steady state).
    spare_payload: Vec<u8>,
    /// The shard's own gauge-sampling deadline. The system consumes the
    /// shared metrics cadence at its internal checkpoints (alloc, hop
    /// dispatch), so the shard-only gauges (ring occupancy, burst size,
    /// coalescing factor) would starve if they waited on `Metrics::due`.
    next_shard_sample: std::cell::Cell<u64>,
    /// Measured-window activity counters (reset by
    /// [`Shard::reset_activity`] after warm-up).
    pub cycles: u64,
    /// Cross-shard payloads sent.
    pub sent: u64,
    /// Cross-shard payloads materialized.
    pub received: u64,
    /// Notice batches flushed onto the reverse ring.
    pub notice_batches: u64,
    /// Notice tokens carried by those batches (`notice_tokens /
    /// notice_batches` is the realized coalescing factor).
    pub notice_tokens: u64,
    /// Notices that arrived with no matching pending egress buffer (or
    /// out of send order) — each one is also a `NoticeOrphan` trace
    /// event and a `notice-without-pending` audit violation.
    pub orphan_notices: u64,
    /// Forged or stale tokens rejected before any dereference — wrong
    /// shard bits on either ring, or stale generation bits on a notice.
    /// Each one is also a `TokenReject` trace event and a per-tenant
    /// `rejected_tokens` ledger charge. A malformed payload (longer than
    /// the ingress buffer, or not led by its own token) counts here too.
    pub rejected_tokens: u64,
    /// Local cycles and arrivals whose walk failed (whole-life). A
    /// failed walk released every reference it took; a failed arrival
    /// is not counted as received but is still acknowledged.
    pub failed: u64,
}

impl Shard {
    /// Builds a shard with `paths` local loopback paths plus the
    /// dedicated egress/ingress paths, each buffer `pages` pages long.
    /// Call this *inside* the owning thread: the engine is `!Send`, so it
    /// never crosses threads.
    pub fn new(id: usize, cfg: MachineConfig, paths: usize, pages: u64) -> Shard {
        let len = pages.max(1) * cfg.page_size;
        let mut sys = FbufSystem::new(cfg);
        // Distinct non-zero salts keep span ids fleet-unique after the
        // rings are merged (and distinct from raw cross-shard tokens,
        // whose high bits carry the shard id itself).
        sys.set_span_salt(id as u64 + 1);
        let locals: Vec<Triple> = (0..paths.max(1))
            .map(|_| Triple::create(&mut sys, 3))
            .collect();
        let ingress = Triple::create(&mut sys, 3);
        let egress = Triple::create(&mut sys, 2);
        Shard {
            id,
            sys,
            locals,
            egress,
            ingress,
            len,
            pending: VecDeque::new(),
            next_seq: 0,
            next_local: 0,
            notice_stage: NoticeBatch::empty(),
            drain_buf: Vec::new(),
            last_drain: 0,
            spare_payload: Vec::new(),
            next_shard_sample: std::cell::Cell::new(0),
            cycles: 0,
            sent: 0,
            received: 0,
            notice_batches: 0,
            notice_tokens: 0,
            orphan_notices: 0,
            rejected_tokens: 0,
            failed: 0,
        }
    }

    /// One cached loopback cycle on the next local path (round-robin):
    /// alloc at the originator, two RPC-carried sends down the path,
    /// free in every holding domain — 6 fbuf operations, the same shape
    /// `repro stress` has always measured. A failed cycle has released
    /// what it took and is not counted in `cycles`.
    pub fn local_cycle(&mut self) -> FbufResult<()> {
        let t = self.locals[self.next_local];
        self.next_local = (self.next_local + 1) % self.locals.len();
        self.walk(t, None)?;
        self.cycles += 1;
        Ok(())
    }

    /// Runs one warm-up cycle per local path, so every path enters
    /// §3.2.2 steady state before measurement. Stops at the first
    /// failed cycle.
    pub fn warm_local(&mut self) -> FbufResult<()> {
        (0..self.locals.len()).try_for_each(|_| self.local_cycle())
    }

    /// The one alloc → hop → send → hop → send → free ×3 walk down `t`.
    /// With a `payload` the walk materializes an arrival: the originator
    /// writes the payload after the alloc, and the receiver reads the
    /// stamp (its first word) back before the frees; the stamp is what
    /// the walk returns. The engine's unwind then releases the buffer at
    /// every domain of the route, deepest first, on success and on error
    /// alike; it skips a domain that holds no reference, so whatever leg
    /// failed, the buffer parks again.
    fn walk(&mut self, t: Triple, payload: Option<&[u8]>) -> FbufResult<[u8; 8]> {
        let s = &mut self.sys;
        let id = s.alloc(t.originator, AllocMode::Cached(t.path), self.len)?;
        let mut stamp = [0; 8];
        let mut legs = || {
            if let Some(bytes) = payload {
                s.write_fbuf(t.originator, id, 0, bytes)?;
            }
            s.hop(t.originator, t.netserver);
            s.send(id, t.originator, t.netserver, SendMode::Volatile)?;
            s.hop(t.netserver, t.receiver);
            s.send(id, t.netserver, t.receiver, SendMode::Volatile)?;
            if payload.is_some() {
                s.read_fbuf_into(t.receiver, id, 0, &mut stamp)?;
            }
            FbufResult::Ok(())
        };
        let walked = legs();
        engine::unwind(s, id, &[t.originator, t.netserver, t.receiver], false);
        walked.map(|()| stamp)
    }

    /// Sends one fbuf's payload to the next shard: allocates from the
    /// egress path's cache, stamps and serializes the payload, and
    /// pushes it onto the data ring. The buffer stays held until the
    /// receiver's dealloc notice returns (at most one in flight, so the
    /// egress cache always has the parked buffer ready — all hits).
    ///
    /// No-op if the fleet has no cross-shard links.
    pub fn egress(&mut self, links: &mut Links) {
        // Held here for the whole send: `poll` never touches the producer.
        let Some(mut tx) = links.data_tx.take() else {
            return;
        };
        // Cap in-flight egress at one buffer: wait for the previous
        // notice so this allocation is a guaranteed cache hit.
        while !self.pending.is_empty() {
            if self.poll(links) == 0 {
                std::thread::yield_now();
            }
        }
        let mut payload = std::mem::take(&mut self.spare_payload);
        payload.resize(self.len as usize, 0);
        let prev = self.sys.machine().tracer().current_span();
        // The wait above parked the egress path's one buffer (the first
        // egress builds it), and its owner writes and reads it whole.
        #[allow(clippy::expect_used)]
        let (token, id) = self
            .stamp_egress(&mut payload)
            .expect("egress reuses its parked buffer");
        let mut msg = CrossShardMsg { token, payload };
        while let Err(back) = self.offer(&mut tx, msg) {
            msg = back;
            // Ring full: keep consuming our own ingress so the fleet
            // cannot deadlock on mutually full rings.
            if self.poll(links) == 0 {
                std::thread::yield_now();
            }
        }
        links.data_tx = Some(tx);
        self.sys.machine().tracer().set_current_span(prev);
        self.pending.push_back((token, id));
        self.sent += 1;
    }

    /// Takes the egress path's buffer and serializes it into `payload`,
    /// stamped with the token this returns with the buffer.
    fn stamp_egress(&mut self, payload: &mut [u8]) -> FbufResult<(u64, FbufId)> {
        let t = self.egress;
        // The buffer comes first: its arena generation is baked into the
        // token, so the token cannot outlive the buffer it acknowledges.
        let id = self
            .sys
            .alloc(t.originator, AllocMode::Cached(t.path), self.len)?;
        let token = CrossShardMsg::token_for(self.id, (id.0 >> 32) as u32, self.next_seq);
        self.next_seq += 1;
        // The token doubles as the transfer's root span: the receiving
        // shard links its child span to it, which is the only causal
        // edge that survives the thread boundary (plain data).
        let span = CrossShardMsg::span_of_token(token);
        let m = self.sys.machine();
        m.tracer()
            .span_start(m.now(), span, t.originator.0, Some(t.path.0), None);
        m.tracer().set_current_span(Some(span));
        self.sys
            .write_fbuf(t.originator, id, 0, &token.to_le_bytes())?;
        self.sys.read_fbuf_into(t.originator, id, 0, payload)?;
        Ok((token, id))
    }

    /// Offers `item` to a ring once. An injected [`FaultSite::RingFull`]
    /// refuses it exactly like an organically full ring; either way the
    /// item comes back, for the caller to retry after its own back-off.
    fn offer<T>(&self, tx: &mut Producer<T>, item: T) -> Result<(), T> {
        if self
            .sys
            .fault_plan()
            .is_some_and(|p| p.fires(FaultSite::RingFull))
        {
            return Err(item);
        }
        tx.push(item)
    }

    /// Drains everything currently queued on the ingress and notice
    /// rings: the whole data backlog is consumed as one burst (a single
    /// acquire load), each payload materialized through this shard's
    /// own cached allocator, walked down the ingress path, freed, and
    /// its notice token staged for a coalesced acknowledgement; the
    /// stage is flushed at this poll boundary, and each returning
    /// notice batch frees (parks) the corresponding egress buffers.
    /// Returns how many messages and notices were processed.
    pub fn poll(&mut self, links: &mut Links) -> usize {
        let mut progressed = 0;
        // Burst-drain the data ring: one acquire covers every message
        // below, and the burst size is the `ring_batch_occupancy` gauge.
        let mut burst = std::mem::take(&mut self.drain_buf);
        if let Some(rx) = links.data_rx.as_mut() {
            rx.drain_into(&mut burst, usize::MAX);
        }
        let total = burst.len();
        if total > 0 {
            self.last_drain = total as u64;
        }
        for (i, msg) in burst.drain(..).enumerate() {
            // Occupancy *behind* this message: how much of the drained
            // burst still waits while we service it (a telemetry gauge
            // and the `pages` field of the RingCross span record).
            let behind = (total - 1 - i) as u64;
            self.ingest(msg, links, behind);
            progressed += 1;
        }
        // Capacity retained for the next poll.
        self.drain_buf = burst;
        // Poll boundary: anything staged goes out as one ring slot now.
        self.flush_notices(links);
        while let Some(batch) = links.notice_rx.as_mut().and_then(Consumer::pop) {
            for &token in batch.tokens() {
                self.retire_notice(token);
                progressed += 1;
            }
        }
        progressed
    }

    /// Retires one returned dealloc notice against the pending egress
    /// queue. The production invariant is that `token` is exactly the
    /// front of `pending` (FIFO rings, order-preserving batches); a
    /// token that is out of order or matches nothing is recorded as a
    /// [`EventKind::NoticeOrphan`] trace event (the typed
    /// `notice-without-pending` audit violation) and counted, instead
    /// of aborting — fault-injection campaigns must report, not panic.
    ///
    /// Before any of that, the token is **authenticated**: its shard
    /// bits must name this shard and its generation bits must match the
    /// pending buffer they claim to acknowledge. A forged or stale token
    /// is rejected by bit comparison (counted per tenant, `TokenReject`
    /// trace event) without ever selecting a buffer — the pending entry
    /// it aimed at stays queued for the genuine notice.
    fn retire_notice(&mut self, token: u64) {
        // Wrong shard, or right transfer with the wrong generation: a
        // replayed or fabricated token aimed at a live pending buffer.
        // Reject; do not touch the pending queue.
        let forged = CrossShardMsg::shard_of_token(token) != self.id
            || (self.pending.iter().all(|&(t, _)| t != token)
                && self.pending.iter().any(|&(t, _)| {
                    CrossShardMsg::transfer_of_token(t) == CrossShardMsg::transfer_of_token(token)
                }));
        if forged {
            self.rejected_tokens += 1;
            self.sys
                .reject_token(self.egress.originator, Some(self.egress.path), token);
            return;
        }
        let at = self.pending.iter().position(|&(t, _)| t == token);
        if at != Some(0) {
            // Out of send order, or matching nothing: flag the ordering
            // violation, and still free a matched buffer below so
            // nothing leaks.
            self.orphan_notices += 1;
            let m = self.sys.machine();
            m.tracer().instant(
                m.now(),
                EventKind::NoticeOrphan,
                self.egress.originator.0,
                None,
                Some(token),
            );
        }
        if let Some((_, id)) = at.and_then(|i| self.pending.remove(i)) {
            // Only the egress originator holds an egress buffer, so a
            // failed free means its termination already released it.
            let _ = self.sys.free(id, self.egress.originator);
        }
    }

    /// Publishes the staged notice tokens as one coalesced ring slot.
    /// Consults the [`FaultSite::RingFull`] site once per *batch*
    /// boundary (not per token): backpressure faults now land where the
    /// real ring interaction happens.
    fn flush_notices(&mut self, links: &mut Links) {
        if self.notice_stage.is_empty() {
            return;
        }
        // Only `ingest` stages tokens, for payloads off a data ring, and
        // a data ring comes with its reverse notice ring.
        #[allow(clippy::expect_used)]
        let tx = links
            .notice_tx
            .as_mut()
            .expect("staged notices imply a notice ring");
        let mut batch = std::mem::take(&mut self.notice_stage);
        self.notice_batches += 1;
        self.notice_tokens += batch.len() as u64;
        while let Err(back) = self.offer(tx, batch) {
            batch = back;
            // The peer drains notices every cycle; just wait for room.
            std::thread::yield_now();
        }
    }

    /// Egress buffers still awaiting their dealloc notice.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Materializes one arrival down the ingress path and stages its
    /// dealloc notice.
    fn ingest(&mut self, msg: CrossShardMsg, links: &mut Links, occupancy: u64) {
        let t = self.ingress;
        // Authenticate before materializing: a payload whose token does
        // not name the upstream producer is forged, and one longer than
        // the ingress buffer or not led by its own token (the stamp
        // egress writes) is malformed. Either is dropped here — never
        // written into a buffer, never acknowledged — and the rejection
        // is billed to the ingress tenant that absorbed it.
        let stamp = msg.token.to_le_bytes();
        if links
            .upstream
            .is_some_and(|up| CrossShardMsg::shard_of_token(msg.token) != up)
            || msg.payload.len() as u64 > self.len
            || !msg.payload.starts_with(&stamp)
        {
            self.rejected_tokens += 1;
            self.sys.reject_token(t.originator, Some(t.path), msg.token);
            return;
        }
        // The receiver half of the cross-shard span tree: a child span
        // minted here, linked to the sender's token-derived root, with
        // the whole materialization (the ring-crossing stage) timed.
        let child = self.sys.mint_span();
        let m = self.sys.machine();
        let t0 = m.now();
        let parent = CrossShardMsg::span_of_token(msg.token);
        m.tracer().span_link(t0, child, parent, t.originator.0);
        let prev = m.tracer().set_current_span(Some(child));
        match self.walk(t, Some(&msg.payload)) {
            Ok(read) => {
                assert_eq!(
                    read, stamp,
                    "payload must survive the cross-shard hop intact"
                );
                self.received += 1;
            }
            // The walk released what it took, and the engine billed the
            // error where it arose.
            Err(_) => self.failed += 1,
        }
        self.spare_payload = msg.payload;
        // Everything charged since t0 is this transfer's ring-crossing
        // stage (the sender's clock is independent, so receiver-side
        // ingest cost is the honest cross-shard measure — DESIGN §13).
        let m = self.sys.machine();
        m.tracer()
            .ring_cross(t0, m.now(), t.originator.0, occupancy);
        m.tracer().set_current_span(prev);
        // Stage the acknowledgement, for a failed walk too, so the
        // sender's buffer always comes home. Tokens coalesce into one
        // ring slot, flushed when the stage fills or at the next poll
        // boundary, whichever comes first.
        assert!(
            self.notice_stage.push(msg.token),
            "a full stage was flushed"
        );
        if self.notice_stage.len() == NOTICE_BATCH_MAX {
            self.flush_notices(links);
        }
    }

    /// Takes a due telemetry sample: the system gauges plus this
    /// shard's SPSC ring-occupancy gauges (`ring.out`/`ring.in` are the
    /// data rings to the next and from the previous shard). One `Cell`
    /// read when the sampler is disabled or not yet due.
    ///
    /// The system gauges ride the shared [`fbuf_sim::Metrics`] cadence
    /// (and are usually taken by the system's own checkpoints before
    /// this runs); the shard gauges keep an independent deadline at the
    /// same cadence so they cannot be starved by those checkpoints.
    pub fn sample_telemetry(&self, links: &Links) {
        let now = self.sys.machine().now();
        let m = self.sys.machine().metrics();
        if m.due(now) {
            m.advance(now);
            self.sys.sample_gauges_at(now);
        }
        if !m.is_enabled() || now.0 < self.next_shard_sample.get() {
            return;
        }
        self.next_shard_sample
            .set(now.0.saturating_add(m.cadence()));
        let Some(mut s) = m.sampler(now) else {
            return;
        };
        if let Some(tx) = &links.data_tx {
            s.record(Gauge::RingOut, || tx.len() as u64);
        }
        if let Some(rx) = &links.data_rx {
            s.record(Gauge::RingIn, || rx.len() as u64);
        }
        s.record(Gauge::EgressInFlight, || self.pending.len() as u64);
        s.record(Gauge::RingBatchOccupancy, || self.last_drain);
        // Fixed-point hundredths: 100 = one token per flushed slot.
        s.record(Gauge::NoticeCoalesceFactor, || {
            (self.notice_tokens * 100)
                .checked_div(self.notice_batches)
                .unwrap_or(0)
        });
    }

    /// Zeroes the measured-window activity counters (after warm-up).
    /// `orphan_notices`, `rejected_tokens` and `failed` are whole-life:
    /// each is an anomaly wherever it happens.
    pub fn reset_activity(&mut self) {
        self.cycles = 0;
        self.sent = 0;
        self.received = 0;
        self.notice_batches = 0;
        self.notice_tokens = 0;
        self.last_drain = 0;
    }
}

/// Configuration of a shard fleet run. See [`run_fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// OS threads, each owning one complete engine.
    pub shards: usize,
    /// Machine configuration every shard instantiates privately.
    pub machine: MachineConfig,
    /// Total logical data paths, partitioned by [`shard_of_path`]
    /// (every shard gets at least one).
    pub paths: usize,
    /// Pages per buffer.
    pub pages: u64,
    /// Total local cycles across the fleet, split evenly (remainder to
    /// the lowest shard ids).
    pub cycles: u64,
    /// Send one cross-shard payload every `cross_every` local cycles;
    /// 0 disables cross-shard traffic (no rings are built).
    pub cross_every: u64,
    /// Capacity of each data/notice ring.
    pub channel_capacity: usize,
    /// Enable each shard's tracer over the measured window.
    pub trace: bool,
    /// Enable each shard's telemetry sampler ([`fbuf_sim::Metrics`])
    /// over the measured window; the shard loop owns the cadence and
    /// adds SPSC ring-occupancy gauges on top of the system gauges.
    pub metrics: bool,
    /// Fault-injection spec, armed per shard (the per-shard seed is the
    /// spec seed xor the shard id, so shards draw distinct schedules).
    /// A backpressure fault ([`FaultSite::RingFull`]) only delays a push,
    /// one that fails a cycle or an arrival counts in
    /// [`ShardReport::failed`], and one that fails the egress buffer
    /// panics its shard. The lockstep fuzzer exercises the full fault
    /// surface on single engines.
    pub fault: Option<FaultSpec>,
}

impl FleetConfig {
    /// A fleet over `shards` engines with the defaults `repro stress`
    /// uses: 4 logical paths per shard, 1-page buffers, cross-shard
    /// traffic every 64 cycles, 16-slot rings, tracing off.
    pub fn new(shards: usize, machine: MachineConfig, cycles: u64) -> FleetConfig {
        FleetConfig {
            shards: shards.max(1),
            machine,
            paths: 4 * shards.max(1),
            pages: 1,
            cycles,
            cross_every: 64,
            channel_capacity: 16,
            trace: false,
            metrics: false,
            fault: None,
        }
    }

    /// Local paths shard `id` owns: its share of the [`shard_of_path`]
    /// partition, at least one.
    fn paths_of(&self, id: usize) -> usize {
        let n = self.shards.max(1);
        (0..self.paths.max(1) as u64)
            .filter(|&p| shard_of_path(p, n) == id)
            .count()
            .max(1)
    }

    /// Local cycles shard `id` runs: an even split, the remainder to the
    /// lowest ids.
    fn cycles_of(&self, id: usize) -> u64 {
        let n = self.shards.max(1) as u64;
        self.cycles / n + u64::from((id as u64) < self.cycles % n)
    }
}

/// What one shard did over its measured window. Plain data — this is
/// what crosses back from the worker threads.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Fleet-wide shard index.
    pub shard: usize,
    /// Local paths the shard owned.
    pub paths: usize,
    /// Domains the shard's machine created (for fleet-unique domain
    /// offsets when merging traces).
    pub domains: u32,
    /// Local cycles executed.
    pub cycles: u64,
    /// Cross-shard payloads sent.
    pub sent: u64,
    /// Cross-shard payloads materialized.
    pub received: u64,
    /// Fbuf operations: 6 per local cycle and ingested payload
    /// (alloc + 2 sends + 3 frees), 2 per egress (alloc + free).
    pub fbuf_ops: u64,
    /// Counter delta over the measured window.
    pub delta: StatsSnapshot,
    /// Whole-life counter snapshot (warm-up included) — what the
    /// always-on ledger conserves against.
    pub life: StatsSnapshot,
    /// Simulated time the measured window covered.
    pub sim_elapsed: Ns,
    /// Host wall-clock of the measured window (barrier-aligned start).
    pub host_ns: u64,
    /// The shard's trace ring (empty unless `FleetConfig::trace`).
    pub events: Vec<TraceEvent>,
    /// Trace events the ring dropped because it wrapped (zero unless
    /// tracing was on and the window outran the ring).
    pub events_dropped: u64,
    /// The shard's per-tenant accounting ledger over its whole life
    /// (always on; fold fleet-wide with [`fleet_ledger`]).
    pub ledger: Ledger,
    /// The shard's telemetry series (empty unless
    /// `FleetConfig::metrics`; fold fleet-wide with [`fleet_telemetry`]).
    pub telemetry: Vec<SeriesSnapshot>,
    /// Faults injected into this shard over its whole life (zero unless
    /// `FleetConfig::fault` was set).
    pub faults_injected: u64,
    /// Notice batches this shard flushed onto its reverse ring.
    pub notice_batches: u64,
    /// Notice tokens those batches carried (`notice_tokens /
    /// notice_batches` is the realized coalescing factor).
    pub notice_tokens: u64,
    /// Notices with no matching pending egress buffer (each one also a
    /// `notice-without-pending` audit violation; zero in a fault-free
    /// fleet).
    pub orphan_notices: u64,
    /// Local cycles and arrivals whose walk failed, over the shard's
    /// whole life (zero in a fault-free fleet).
    pub failed: u64,
}

impl ShardReport {
    /// The §3.2.2 steady-state violations of this shard's measured
    /// window: an empty vector is the per-shard invariant the fleet
    /// harness asserts — zero failed walks, zero PTE updates, zero page
    /// clears, and every allocation (local, egress, and ingress alike) a
    /// cache hit.
    pub fn steady_state_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let expected_allocs = self.cycles + self.sent + self.received;
        if self.failed != 0 {
            v.push(format!("failed = {} (want 0)", self.failed));
        }
        if self.delta.pte_updates != 0 {
            v.push(format!("pte_updates = {} (want 0)", self.delta.pte_updates));
        }
        if self.delta.pages_cleared != 0 {
            v.push(format!(
                "pages_cleared = {} (want 0)",
                self.delta.pages_cleared
            ));
        }
        if self.delta.fbuf_cache_misses != 0 {
            v.push(format!(
                "fbuf_cache_misses = {} (want 0)",
                self.delta.fbuf_cache_misses
            ));
        }
        if self.delta.fbuf_cache_hits != expected_allocs {
            v.push(format!(
                "fbuf_cache_hits = {} (want {expected_allocs})",
                self.delta.fbuf_cache_hits
            ));
        }
        v
    }
}

/// Merges every shard's counter delta into one fleet snapshot.
pub fn fleet_snapshot(reports: &[ShardReport]) -> StatsSnapshot {
    StatsSnapshot::merge_all(reports.iter().map(|r| &r.delta))
}

/// Merges every shard's trace ring into one time-ordered stream with
/// fleet-unique domain ids (shard *i*'s domains are offset by the sum
/// of earlier shards' domain counts).
pub fn fleet_trace(reports: &[ShardReport]) -> Vec<TraceEvent> {
    let mut base = 0u32;
    let mut rings = Vec::with_capacity(reports.len());
    for r in reports {
        rings.push((base, r.events.clone()));
        base += r.domains;
    }
    trace::merge_rings(&rings)
}

/// Folds every shard's ledger into one fleet ledger with fleet-unique
/// tenant ids, using the same domain-offset scheme as [`fleet_trace`]
/// (shard *i*'s paths are likewise offset by the sum of earlier shards'
/// path-table lengths).
pub fn fleet_ledger(reports: &[ShardReport]) -> Ledger {
    let mut fleet = Ledger::new();
    let (mut dom_base, mut path_base) = (0u32, 0u64);
    for r in reports {
        fleet.merge_offset(&r.ledger, dom_base, path_base);
        dom_base += r.domains;
        path_base += r.ledger.paths.len() as u64;
    }
    fleet
}

/// Merges every shard's telemetry series into one namespace-prefixed
/// fleet set (`s0.live_fbufs`, `s1.live_fbufs`, …).
pub fn fleet_telemetry(reports: &[ShardReport]) -> Vec<SeriesSnapshot> {
    let shards: Vec<(u32, &[SeriesSnapshot])> = reports
        .iter()
        .map(|r| (r.shard as u32, r.telemetry.as_slice()))
        .collect();
    metrics::merge_shards(&shards)
}

/// Runs a fleet of shards to completion and returns their reports,
/// shard 0 first.
///
/// Topology: shard *i*'s egress ring feeds shard *i*+1 mod N (for
/// N = 1 with cross traffic, the shard feeds itself — the workload
/// shape stays identical across thread counts, which is what makes the
/// scaling curve comparable). Three phases, barrier-aligned:
///
/// 1. **warm** — every local path runs one cycle, and one warm payload
///    enters each data ring;
/// 2. **settle** — every shard materializes its warm arrival and drains
///    the returning warm notice, so ingress and egress caches are in
///    steady state too;
/// 3. **measure** — the counted window: local cycles with a cross-shard
///    payload every `cross_every`-th, followed by a flush that ingests
///    the peer's remaining payloads and collects outstanding notices.
pub fn run_fleet(cfg: &FleetConfig) -> Vec<ShardReport> {
    let n = cfg.shards.max(1);
    let mut links: Vec<Links> = (0..n).map(|_| Links::default()).collect();
    if cfg.cross_every > 0 {
        for i in 0..n {
            let cap = cfg.channel_capacity.max(1);
            let (data_tx, data_rx) = spsc::ring::<CrossShardMsg>(cap);
            let (notice_tx, notice_rx) = spsc::ring::<NoticeBatch>(cap);
            links[i].data_tx = Some(data_tx);
            links[i].notice_rx = Some(notice_rx);
            links[(i + 1) % n].data_rx = Some(data_rx);
            links[(i + 1) % n].notice_tx = Some(notice_tx);
            links[(i + 1) % n].upstream = Some(i);
        }
    }

    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(id, links)| scope.spawn(move || shard_main(cfg, id, links, barrier)))
            .collect();
        // A shard that panics takes the fleet down with it (ROADMAP
        // item 4, shard isolation).
        #[allow(clippy::expect_used)]
        let reports = handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        reports
    })
}

/// Shard `id`'s whole life on its worker thread. The engine is built
/// here, inside the thread, and never leaves it.
fn shard_main(cfg: &FleetConfig, id: usize, mut links: Links, barrier: &Barrier) -> ShardReport {
    let paths = cfg.paths_of(id);
    let mut sh = Shard::new(id, cfg.machine.clone(), paths, cfg.pages);
    if cfg.trace {
        sh.sys.machine().tracer().set_enabled(true);
    }
    if cfg.metrics {
        sh.sys.machine().metrics().set_enabled(true);
    }
    if let Some(mut spec) = cfg.fault.clone() {
        // The plan is built inside the thread and armed on the machine,
        // its one owner.
        spec.seed ^= id as u64;
        sh.sys.arm_faults(spec.arm());
    }

    // Phase 1: warm every allocator this shard will touch.
    if sh.warm_local().is_err() {
        sh.failed += 1;
    }
    sh.egress(&mut links);
    barrier.wait();

    // Phase 2: settle the cross-shard warm traffic.
    let warm_rx = u64::from(links.data_rx.is_some());
    drain(&mut sh, &mut links, warm_rx);
    barrier.wait();

    // Phase 3: the measured window. Ring topology: shard `id` ingests
    // what shard `id - 1` sends.
    let n = cfg.shards.max(1);
    let upstream_cycles = cfg.cycles_of((id + n - 1) % n);
    let expected_rx = upstream_cycles.checked_div(cfg.cross_every).unwrap_or(0);
    sh.reset_activity();
    let mark = sh.sys.stats().snapshot();
    let sim0 = sh.sys.machine().clock().now();
    let t0 = Instant::now();
    for i in 0..cfg.cycles_of(id) {
        sh.poll(&mut links);
        if sh.local_cycle().is_err() {
            sh.failed += 1;
        }
        if cfg.cross_every > 0 && (i + 1) % cfg.cross_every == 0 {
            sh.egress(&mut links);
        }
        sh.sample_telemetry(&links);
    }
    drain(&mut sh, &mut links, expected_rx);
    let host_ns = t0.elapsed().as_nanos() as u64;
    let sim_elapsed = sh.sys.machine().clock().now() - sim0;
    let delta = sh.sys.stats().snapshot().delta(&mark);

    ShardReport {
        shard: id,
        paths,
        domains: sh.sys.machine().domain_count() as u32,
        cycles: sh.cycles,
        sent: sh.sent,
        received: sh.received,
        fbuf_ops: sh.cycles * 6 + sh.sent * 2 + sh.received * 6,
        delta,
        life: sh.sys.stats().snapshot(),
        sim_elapsed,
        host_ns,
        events: sh.sys.machine().tracer().events(),
        events_dropped: sh.sys.machine().tracer().dropped(),
        ledger: sh.sys.ledger_snapshot(),
        telemetry: sh.sys.machine().metrics().series(),
        faults_injected: sh.sys.fault_plan().map_or(0, |p| p.total_injected()),
        notice_batches: sh.notice_batches,
        notice_tokens: sh.notice_tokens,
        orphan_notices: sh.orphan_notices,
        failed: sh.failed,
    }
}

/// Polls until `arrivals` payloads are acknowledged and every egress
/// notice is home. A failed arrival is acknowledged too, so this counts
/// flushed notice tokens, not `received`.
fn drain(sh: &mut Shard, links: &mut Links, arrivals: u64) {
    while sh.notice_tokens < arrivals || sh.in_flight() > 0 {
        if sh.poll(links) == 0 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        let mut cfg = MachineConfig::decstation_5000_200();
        cfg.phys_mem = 16 << 20;
        cfg.chunk_size = 1 << 20;
        cfg
    }

    #[test]
    fn paths_partition_round_robin() {
        assert_eq!(shard_of_path(0, 4), 0);
        assert_eq!(shard_of_path(5, 4), 1);
        assert_eq!(shard_of_path(7, 4), 3);
        assert_eq!(shard_of_path(7, 1), 0, "one shard owns everything");
        // Every path lands on exactly one shard, and all shards are hit.
        let n = 3;
        let mut per_shard = vec![0; n];
        for p in 0..12u64 {
            per_shard[shard_of_path(p, n)] += 1;
        }
        assert_eq!(per_shard, vec![4, 4, 4]);
    }

    #[test]
    fn single_shard_fleet_matches_the_legacy_stress_shape() {
        let cfg = FleetConfig {
            cross_every: 0,
            ..FleetConfig::new(1, machine(), 500)
        };
        let reports = run_fleet(&cfg);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.cycles, 500);
        assert_eq!((r.sent, r.received), (0, 0));
        assert_eq!(r.fbuf_ops, 3_000, "6 fbuf ops per cycle");
        assert_eq!(r.delta.fbuf_cache_hits, 500, "every alloc a hit");
        assert!(
            r.steady_state_violations().is_empty(),
            "{:?}",
            r.steady_state_violations()
        );
        assert!(r.sim_elapsed > Ns::ZERO);
    }

    #[test]
    fn self_linked_single_shard_keeps_steady_state_with_cross_traffic() {
        let cfg = FleetConfig {
            cross_every: 8,
            ..FleetConfig::new(1, machine(), 256)
        };
        let r = &run_fleet(&cfg)[0];
        assert_eq!(r.cycles, 256);
        assert_eq!(r.sent, 256 / 8);
        assert_eq!(r.received, r.sent, "self-link: every payload comes home");
        assert!(
            r.steady_state_violations().is_empty(),
            "{:?}",
            r.steady_state_violations()
        );
    }

    #[test]
    fn two_shard_fleet_holds_per_shard_invariants_and_conserves_payloads() {
        let cfg = FleetConfig {
            cross_every: 16,
            ..FleetConfig::new(2, machine(), 600)
        };
        let reports = run_fleet(&cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.steady_state_violations().is_empty(),
                "shard {}: {:?}",
                r.shard,
                r.steady_state_violations()
            );
        }
        assert_eq!(reports[0].cycles + reports[1].cycles, 600);
        // Conservation: everything sent somewhere was received elsewhere.
        let sent: u64 = reports.iter().map(|r| r.sent).sum();
        let received: u64 = reports.iter().map(|r| r.received).sum();
        assert_eq!(sent, received);
        assert!(sent > 0, "cross traffic actually flowed");
        // The merged snapshot is the fieldwise sum.
        let merged = fleet_snapshot(&reports);
        assert_eq!(
            merged.fbuf_cache_hits,
            reports.iter().map(|r| r.delta.fbuf_cache_hits).sum::<u64>()
        );
        assert_eq!(merged.pte_updates, 0);
    }

    #[test]
    fn uneven_cycle_split_gives_remainder_to_low_shards() {
        let cfg = FleetConfig {
            cross_every: 0,
            ..FleetConfig::new(3, machine(), 100)
        };
        let reports = run_fleet(&cfg);
        let cycles: Vec<u64> = reports.iter().map(|r| r.cycles).collect();
        assert_eq!(cycles, vec![34, 33, 33]);
    }

    #[test]
    fn fleet_trace_merges_rings_with_unique_domains() {
        let cfg = FleetConfig {
            trace: true,
            cross_every: 0,
            cycles: 40,
            ..FleetConfig::new(2, machine(), 40)
        };
        let reports = run_fleet(&cfg);
        for r in &reports {
            assert!(!r.events.is_empty(), "tracing was on");
        }
        let merged = fleet_trace(&reports);
        assert_eq!(
            merged.len(),
            reports.iter().map(|r| r.events.len()).sum::<usize>()
        );
        // Domain ids from shard 1 sit above shard 0's whole range, so
        // the merged stream never aliases two shards' domains.
        let shard0_max = reports[0]
            .events
            .iter()
            .map(|e| e.dom)
            .max()
            .expect("shard 0 traced");
        assert!(shard0_max < reports[0].domains);
        let shard1_events = merged.len() - reports[0].events.len();
        let above: usize = merged
            .iter()
            .filter(|e| e.dom >= reports[0].domains)
            .count();
        assert_eq!(above, shard1_events);
        // Sequence numbers are the merged order.
        for (i, e) in merged.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn four_shard_fleet_runs_and_reports_coherently() {
        let cfg = FleetConfig {
            cross_every: 32,
            ..FleetConfig::new(4, machine(), 400)
        };
        let reports = run_fleet(&cfg);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.cycles).sum::<u64>(), 400);
        for r in &reports {
            assert!(
                r.steady_state_violations().is_empty(),
                "shard {}: {:?}",
                r.shard,
                r.steady_state_violations()
            );
            assert_eq!(r.fbuf_ops, r.cycles * 6 + r.sent * 2 + r.received * 6);
        }
        let sent: u64 = reports.iter().map(|r| r.sent).sum();
        let received: u64 = reports.iter().map(|r| r.received).sum();
        assert_eq!(sent, received);
    }

    /// The whole-life ledger's conservation violations (empty = holds).
    fn unconserved(sh: &Shard) -> Vec<String> {
        sh.sys
            .ledger_snapshot()
            .conserves(&sh.sys.stats().snapshot())
    }

    #[test]
    fn a_failed_local_cycle_leaks_nothing_and_other_paths_keep_cycling() {
        let mut sh = Shard::new(0, machine(), 2, 1);
        sh.warm_local().expect("warm cycles");
        // Tearing the path down retires its parked buffer.
        sh.sys
            .terminate_domain(sh.locals[0].netserver)
            .expect("terminate");
        let (live, hits) = (
            sh.sys.live_fbufs(),
            sh.sys.stats().snapshot().fbuf_cache_hits,
        );
        for _ in 0..2 {
            assert!(sh.local_cycle().is_err(), "path 0 is gone");
            assert!(sh.local_cycle().is_ok(), "path 1 keeps cycling");
        }
        assert_eq!(sh.cycles, 2 + 2, "warm-up plus path 1's cycles");
        assert_eq!(sh.sys.live_fbufs(), live);
        assert_eq!(sh.sys.stats().snapshot().fbuf_cache_hits - hits, 2);
        assert!(unconserved(&sh).is_empty(), "{:?}", unconserved(&sh));
    }

    #[test]
    fn a_walk_that_fails_mid_route_parks_its_buffer_again() {
        let mut sh = Shard::new(0, machine(), 1, 1);
        sh.warm_local().expect("warm cycle");
        // A netserver off every path, so terminating it leaves the path
        // live: the alloc hits, and the send down to it fails.
        let dead = sh.sys.create_domain();
        sh.sys.terminate_domain(dead).expect("terminate");
        let t = Triple {
            netserver: dead,
            ..sh.locals[0]
        };
        let (live, before) = (sh.sys.live_fbufs(), sh.sys.stats().snapshot());
        assert!(sh.walk(t, None).is_err());
        assert_eq!(sh.sys.live_fbufs(), live);
        assert!(unconserved(&sh).is_empty(), "{:?}", unconserved(&sh));
        // Parked again: the next cycle on the path is a hit.
        sh.local_cycle().expect("cached cycle");
        let d = sh.sys.stats().snapshot().delta(&before);
        assert_eq!((d.fbuf_cache_hits, d.fbuf_cache_misses), (2, 0));
        assert_eq!(sh.sys.live_fbufs(), live);
    }

    #[test]
    fn an_arrival_that_fails_its_walk_is_counted_and_still_acknowledged() {
        let (mut sh, mut links) = warm_shard();
        sh.sys
            .terminate_domain(sh.ingress.netserver)
            .expect("terminate");
        let (live, received, tokens) = (sh.sys.live_fbufs(), sh.received, sh.notice_tokens);
        sh.egress(&mut links);
        sh.poll(&mut links);
        assert_eq!(sh.failed, 1);
        assert_eq!(sh.received, received, "a failed arrival is not received");
        assert_eq!(sh.notice_tokens, tokens + 1, "its notice went back");
        assert_eq!(sh.in_flight(), 0, "and retired the egress buffer");
        assert_eq!(sh.sys.live_fbufs(), live);
        assert!(unconserved(&sh).is_empty(), "{:?}", unconserved(&sh));
    }

    #[test]
    fn a_fleet_whose_cycles_fail_reports_them_instead_of_panicking() {
        // Every frame allocation fails, so no path ever gets a buffer.
        let cfg = FleetConfig {
            cross_every: 0,
            fault: Some(FaultSpec::new(3).rate(FaultSite::FrameAlloc, u16::MAX)),
            ..FleetConfig::new(1, machine(), 20)
        };
        let r = &run_fleet(&cfg)[0];
        assert_eq!(r.cycles, 0);
        assert_eq!(r.failed, 1 + 20, "the warm-up stops at its first failure");
        assert!(r.steady_state_violations()[0].starts_with("failed = 21"));
        assert!(r.ledger.conserves(&r.life).is_empty());
    }

    /// Links that feed a shard's own data ring back into itself.
    fn self_links() -> Links {
        let (data_tx, data_rx) = spsc::ring(16);
        let (notice_tx, notice_rx) = spsc::ring(16);
        Links {
            data_tx: Some(data_tx),
            notice_rx: Some(notice_rx),
            data_rx: Some(data_rx),
            notice_tx: Some(notice_tx),
            upstream: Some(0),
        }
    }

    /// A self-linked shard with 1 path and 1-page buffers, its local,
    /// ingress and egress caches warmed by one cycle and one payload.
    fn warm_shard() -> (Shard, Links) {
        let mut sh = Shard::new(0, machine(), 1, 1);
        let mut links = self_links();
        sh.warm_local().expect("warm cycle");
        sh.egress(&mut links);
        sh.poll(&mut links);
        assert_eq!(sh.in_flight(), 0);
        (sh, links)
    }

    /// Sends one payload and takes it back off the data ring, so its
    /// egress buffer stays in flight until the payload is fed back.
    /// Older held payloads are hidden from `egress`, which would wait
    /// for their notices.
    fn egress_held(sh: &mut Shard, links: &mut Links) -> CrossShardMsg {
        let mut pending = std::mem::take(&mut sh.pending);
        sh.egress(links);
        pending.append(&mut sh.pending);
        sh.pending = pending;
        links
            .data_rx
            .as_mut()
            .and_then(Consumer::pop)
            .expect("egress pushed a payload")
    }

    /// A `len`-byte payload whose first word is `token`, as egress
    /// stamps it.
    fn stamped(token: u64, len: usize) -> CrossShardMsg {
        let mut payload = vec![0x5a; len];
        payload[..8].copy_from_slice(&token.to_le_bytes());
        CrossShardMsg { token, payload }
    }

    /// What a hostile peer pushes at the shard.
    enum Input {
        /// A message onto the data ring, built from the page size.
        Data(fn(usize) -> CrossShardMsg),
        /// One notice token onto the notice ring, built from the tokens
        /// of the payloads held in flight (oldest first).
        Notice(fn(&[u64]) -> u64),
    }

    /// One hostile input and the exact deltas `poll` must show for it.
    struct Row {
        name: &'static str,
        /// Genuine payloads held in flight before the input arrives.
        held: usize,
        input: Input,
        rejected: u64,
        orphans: u64,
        in_flight: i64,
    }

    #[test]
    fn hostile_ring_input_is_refused_without_a_panic_or_a_leak() {
        #[rustfmt::skip]
        let rows = [
            Row { name: "data: wrong upstream shard bits", held: 0, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Data(|page| stamped(CrossShardMsg::token_for(1, 0, 0), page)) },
            Row { name: "data: page + 1 bytes", held: 0, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Data(|page| stamped(CrossShardMsg::token_for(0, 0, 0), page + 1)) },
            Row { name: "data: 3 bytes", held: 0, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Data(|_| CrossShardMsg { token: CrossShardMsg::token_for(0, 0, 0), payload: vec![1, 2, 3] }) },
            Row { name: "data: first word is not its token", held: 0, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Data(|page| CrossShardMsg { token: CrossShardMsg::token_for(0, 0, 0), ..stamped(7, page) }) },
            Row { name: "notice: stale generation bits", held: 1, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Notice(|held| held[0] ^ (1 << 32)) },
            Row { name: "notice: unknown sequence", held: 1, rejected: 0, orphans: 1, in_flight: 0,
                  input: Input::Notice(|held| held[0] + 1) },
            Row { name: "notice: another shard's bits", held: 1, rejected: 1, orphans: 0, in_flight: 0,
                  input: Input::Notice(|held| held[0] | (1 << 48)) },
            Row { name: "notice: genuine, out of order", held: 2, rejected: 0, orphans: 1, in_flight: -1,
                  input: Input::Notice(|held| held[1]) },
        ];
        let mut failures = Vec::new();
        for row in &rows {
            let (mut sh, mut links) = warm_shard();
            let held: Vec<CrossShardMsg> = (0..row.held)
                .map(|_| egress_held(&mut sh, &mut links))
                .collect();
            let tokens: Vec<u64> = held.iter().map(|m| m.token).collect();
            let (rejected, orphans, in_flight, live) = (
                sh.rejected_tokens,
                sh.orphan_notices,
                sh.in_flight() as i64,
                sh.sys.live_fbufs(),
            );
            match row.input {
                Input::Data(build) => {
                    let msg = build(sh.len as usize);
                    links.data_tx.as_mut().unwrap().push(msg).unwrap();
                }
                Input::Notice(build) => {
                    let mut batch = NoticeBatch::empty();
                    assert!(batch.push(build(&tokens)));
                    links.notice_tx.as_mut().unwrap().push(batch).unwrap();
                }
            }
            let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sh.poll(&mut links);
            }));
            if polled.is_err() {
                failures.push(format!("{}: poll panicked", row.name));
                continue;
            }
            let got = (
                sh.rejected_tokens - rejected,
                sh.orphan_notices - orphans,
                sh.in_flight() as i64 - in_flight,
            );
            if got != (row.rejected, row.orphans, row.in_flight) {
                failures.push(format!(
                    "{}: (rejected, orphans, in flight) deltas {got:?}, want {:?}",
                    row.name,
                    (row.rejected, row.orphans, row.in_flight)
                ));
            }
            // Feed the held payloads back: their notices retire what is
            // still in flight, and every buffer parks again.
            for msg in held {
                links.data_tx.as_mut().unwrap().push(msg).unwrap();
            }
            sh.poll(&mut links);
            if (sh.in_flight(), sh.sys.live_fbufs()) != (0, live) {
                failures.push(format!(
                    "{}: in flight {} and live fbufs {} after the held payloads came home, want 0 and {live}",
                    row.name,
                    sh.in_flight(),
                    sh.sys.live_fbufs()
                ));
            }
            let conserved = sh
                .sys
                .ledger_snapshot()
                .conserves(&sh.sys.stats().snapshot());
            if !conserved.is_empty() {
                failures.push(format!("{}: ledger {conserved:?}", row.name));
            }
        }
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
