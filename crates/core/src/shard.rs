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
//! one and at sixteen tokens per slot, and agreed). A notice that comes
//! back with no matching pending egress buffer is not a panic but a
//! typed audit violation (`notice-without-pending`, recorded as a
//! [`fbuf_sim::EventKind::NoticeOrphan`] trace event), so fuzzing under
//! fault injection reports instead of aborting.
//!
//! [`run_fleet`] drives N shards concurrently over a ring topology
//! (shard *i* feeds shard *i*+1 mod N) with barrier-aligned warm-up and
//! measurement phases, and returns one [`ShardReport`] per shard;
//! [`fleet_snapshot`] and [`fleet_trace`] fold those into the single
//! coherent view a fleet-level report needs.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

use fbuf_sim::metrics::{self, Gauge, SeriesSnapshot};
use fbuf_sim::spsc::{self, Consumer, Producer};
use fbuf_sim::{
    trace, EventKind, FaultSite, FaultSpec, MachineConfig, Ns, StatsSnapshot, TraceEvent,
};
use fbuf_vm::DomainId;

use crate::ledger::Ledger;
use crate::{AllocMode, FbufId, FbufSystem, PathId, SendMode};

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
    /// `rejected_tokens` ledger charge.
    pub rejected_tokens: u64,
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
        let triple = |sys: &mut FbufSystem| {
            let originator = sys.create_domain();
            let netserver = sys.create_domain();
            let receiver = sys.create_domain();
            let path = sys
                .create_path(vec![originator, netserver, receiver])
                .expect("fresh domains make a path");
            Triple {
                path,
                originator,
                netserver,
                receiver,
            }
        };
        let locals: Vec<Triple> = (0..paths.max(1)).map(|_| triple(&mut sys)).collect();
        let ingress = triple(&mut sys);
        let egress = {
            let originator = sys.create_domain();
            let receiver = sys.create_domain();
            let path = sys
                .create_path(vec![originator, receiver])
                .expect("fresh domains make a path");
            Triple {
                path,
                originator,
                netserver: receiver,
                receiver,
            }
        };
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
            next_shard_sample: std::cell::Cell::new(0),
            cycles: 0,
            sent: 0,
            received: 0,
            notice_batches: 0,
            notice_tokens: 0,
            orphan_notices: 0,
            rejected_tokens: 0,
        }
    }

    /// One cached loopback cycle on the next local path (round-robin):
    /// alloc at the originator, two RPC-carried sends down the path,
    /// free in every holding domain — 6 fbuf operations, the same shape
    /// `repro stress` has always measured.
    pub fn local_cycle(&mut self) {
        let t = self.locals[self.next_local];
        self.next_local = (self.next_local + 1) % self.locals.len();
        let s = &mut self.sys;
        let id = s
            .alloc(t.originator, AllocMode::Cached(t.path), self.len)
            .expect("cached alloc");
        s.hop(t.originator, t.netserver);
        s.send(id, t.originator, t.netserver, SendMode::Volatile)
            .expect("send down");
        s.hop(t.netserver, t.receiver);
        s.send(id, t.netserver, t.receiver, SendMode::Volatile)
            .expect("send up");
        s.free(id, t.receiver).expect("free receiver");
        s.free(id, t.netserver).expect("free netserver");
        s.free(id, t.originator).expect("free originator");
        self.cycles += 1;
    }

    /// Runs one warm-up cycle per local path, so every path enters
    /// §3.2.2 steady state before measurement.
    pub fn warm_local(&mut self) {
        for _ in 0..self.locals.len() {
            self.local_cycle();
        }
    }

    /// Sends one fbuf's payload to the next shard: allocates from the
    /// egress path's cache, stamps and serializes the payload, and
    /// pushes it onto the data ring. The buffer stays held until the
    /// receiver's dealloc notice returns (at most one in flight, so the
    /// egress cache always has the parked buffer ready — all hits).
    ///
    /// No-op if the fleet has no cross-shard links.
    pub fn egress(&mut self, links: &mut Links) {
        if links.data_tx.is_none() {
            return;
        }
        // Cap in-flight egress at one buffer: wait for the previous
        // notice so this allocation is a guaranteed cache hit.
        while !self.pending.is_empty() {
            if self.poll(links) == 0 {
                std::thread::yield_now();
            }
        }
        let t = self.egress;
        // The buffer comes first: its arena generation is baked into the
        // token, so the token cannot outlive the buffer it acknowledges.
        let id = self
            .sys
            .alloc(t.originator, AllocMode::Cached(t.path), self.len)
            .expect("cached egress alloc");
        let token = CrossShardMsg::token_for(self.id, (id.0 >> 32) as u32, self.next_seq);
        self.next_seq += 1;
        // The token doubles as the transfer's root span: the receiving
        // shard links its child span to it, which is the only causal
        // edge that survives the thread boundary (plain data).
        let span = CrossShardMsg::span_of_token(token);
        let m = self.sys.machine();
        m.tracer()
            .span_start(m.now(), span, t.originator.0, Some(t.path.0), None);
        let prev = m.tracer().set_current_span(Some(span));
        self.sys
            .write_fbuf(t.originator, id, 0, &token.to_le_bytes())
            .expect("stamp egress payload");
        let payload = self
            .sys
            .read_fbuf(t.originator, id, 0, self.len)
            .expect("serialize egress payload");
        let mut msg = CrossShardMsg { token, payload };
        loop {
            // An injected RingFull behaves exactly like an organically
            // full ring: back off, keep draining, retry.
            let injected = self
                .sys
                .fault_plan()
                .is_some_and(|p| p.fires(FaultSite::RingFull));
            if !injected {
                match links.data_tx.as_mut().expect("checked above").push(msg) {
                    Ok(()) => break,
                    Err(back) => msg = back,
                }
            }
            // Ring full: keep consuming our own ingress so the fleet
            // cannot deadlock on mutually full rings.
            if self.poll(links) == 0 {
                std::thread::yield_now();
            }
        }
        self.sys.machine().tracer().set_current_span(prev);
        self.pending.push_back((token, id));
        self.sent += 1;
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
        self.drain_buf = burst; // capacity retained for the next poll
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
        match self.pending.iter().position(|&(t, _)| t == token) {
            Some(0) => {
                let (_, id) = self.pending.pop_front().expect("position 0 exists");
                self.sys
                    .free(id, self.egress.originator)
                    .expect("free acknowledged egress buffer");
            }
            Some(i) => {
                // Out of send order: recover (free the matched buffer so
                // nothing leaks) but flag the ordering violation.
                self.orphan_notices += 1;
                self.sys.machine().tracer().instant(
                    self.sys.machine().now(),
                    EventKind::NoticeOrphan,
                    self.egress.originator.0,
                    None,
                    Some(token),
                );
                let (_, id) = self.pending.remove(i).expect("position i exists");
                self.sys
                    .free(id, self.egress.originator)
                    .expect("free acknowledged egress buffer");
            }
            None => {
                self.orphan_notices += 1;
                self.sys.machine().tracer().instant(
                    self.sys.machine().now(),
                    EventKind::NoticeOrphan,
                    self.egress.originator.0,
                    None,
                    Some(token),
                );
            }
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
        let tx = links
            .notice_tx
            .as_mut()
            .expect("staged notices imply a notice ring");
        let mut batch = std::mem::take(&mut self.notice_stage);
        self.notice_batches += 1;
        self.notice_tokens += batch.len() as u64;
        loop {
            // An injected RingFull behaves exactly like an organically
            // full ring: back off and retry the whole batch.
            let injected = self
                .sys
                .fault_plan()
                .is_some_and(|p| p.fires(FaultSite::RingFull));
            if !injected {
                match tx.push(batch) {
                    Ok(()) => break,
                    Err(back) => batch = back,
                }
            }
            // The peer drains notices every cycle; just wait for room.
            std::thread::yield_now();
        }
    }

    /// Egress buffers still awaiting their dealloc notice.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn ingest(&mut self, msg: CrossShardMsg, links: &mut Links, occupancy: u64) {
        let t = self.ingress;
        // Authenticate before materializing: a payload whose token does
        // not name the upstream producer is forged. It is dropped here —
        // never written into a buffer, never acknowledged — and the
        // rejection is billed to the ingress tenant that absorbed it.
        if links
            .upstream
            .is_some_and(|up| CrossShardMsg::shard_of_token(msg.token) != up)
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
        let s = &mut self.sys;
        let id = s
            .alloc(t.originator, AllocMode::Cached(t.path), self.len)
            .expect("cached ingress alloc");
        s.write_fbuf(t.originator, id, 0, &msg.payload)
            .expect("materialize payload");
        s.hop(t.originator, t.netserver);
        s.send(id, t.originator, t.netserver, SendMode::Volatile)
            .expect("send down");
        s.hop(t.netserver, t.receiver);
        s.send(id, t.netserver, t.receiver, SendMode::Volatile)
            .expect("send up");
        let stamp = s
            .read_fbuf(t.receiver, id, 0, 8)
            .expect("read materialized stamp");
        assert_eq!(
            stamp,
            msg.token.to_le_bytes(),
            "payload must survive the cross-shard hop intact"
        );
        s.free(id, t.receiver).expect("free receiver");
        s.free(id, t.netserver).expect("free netserver");
        s.free(id, t.originator).expect("free originator");
        self.received += 1;
        // Everything charged since t0 is this transfer's ring-crossing
        // stage (the sender's clock is independent, so receiver-side
        // ingest cost is the honest cross-shard measure — DESIGN §13).
        let m = self.sys.machine();
        m.tracer()
            .ring_cross(t0, m.now(), t.originator.0, occupancy);
        m.tracer().set_current_span(prev);
        assert!(
            links.notice_tx.is_some(),
            "an ingress link implies a notice ring"
        );
        // Stage the acknowledgement instead of pushing it: tokens
        // coalesce into one ring slot, flushed when the stage fills or
        // at the next poll boundary, whichever comes first.
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
    /// `orphan_notices` is whole-life: an orphan is an anomaly wherever
    /// it happens.
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
    /// Under the fleet's expect-everything workload only backpressure
    /// faults ([`FaultSite::RingFull`]) are survivable; the lockstep
    /// fuzzer exercises the full fault surface on single engines.
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
}

impl ShardReport {
    /// The §3.2.2 steady-state violations of this shard's measured
    /// window: an empty vector is the per-shard invariant the fleet
    /// harness asserts — zero PTE updates, zero page clears, and every
    /// allocation (local, egress, and ingress alike) a cache hit.
    pub fn steady_state_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let expected_allocs = self.cycles + self.sent + self.received;
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

/// Everything one worker thread needs, bundled so it can be moved into
/// the thread in one piece.
struct ShardSpec {
    id: usize,
    machine: MachineConfig,
    paths: usize,
    pages: u64,
    cycles: u64,
    cross_every: u64,
    expected_rx: u64,
    trace: bool,
    metrics: bool,
    fault: Option<FaultSpec>,
    links: Links,
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
    let cross = cfg.cross_every > 0;
    let total_paths = cfg.paths.max(1);
    let paths_of: Vec<usize> = (0..n)
        .map(|s| {
            (0..total_paths)
                .filter(|p| shard_of_path(*p as u64, n) == s)
                .count()
                .max(1)
        })
        .collect();
    let cycles_of: Vec<u64> = (0..n as u64)
        .map(|s| cfg.cycles / n as u64 + u64::from(s < cfg.cycles % n as u64))
        .collect();
    let sent_of: Vec<u64> = cycles_of
        .iter()
        .map(|&c| if cross { c / cfg.cross_every } else { 0 })
        .collect();

    let mut links: Vec<Links> = (0..n).map(|_| Links::default()).collect();
    if cross {
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
    let mut specs: Vec<ShardSpec> = links
        .into_iter()
        .enumerate()
        .map(|(id, links)| ShardSpec {
            id,
            machine: cfg.machine.clone(),
            paths: paths_of[id],
            pages: cfg.pages,
            cycles: cycles_of[id],
            cross_every: cfg.cross_every,
            // Ring topology: shard `id` ingests what shard `id - 1` sends.
            expected_rx: sent_of[(id + n - 1) % n],
            trace: cfg.trace,
            metrics: cfg.metrics,
            fault: cfg.fault.clone().map(|mut f| {
                f.seed ^= id as u64;
                f
            }),
            links,
        })
        .collect();

    std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = specs
            .drain(..)
            .map(|spec| scope.spawn(move || shard_main(spec, barrier)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

/// One worker thread's whole life. The engine is built here, inside the
/// thread, and never leaves it.
fn shard_main(spec: ShardSpec, barrier: &Barrier) -> ShardReport {
    let ShardSpec {
        id,
        machine,
        paths,
        pages,
        cycles,
        cross_every,
        expected_rx,
        trace,
        metrics,
        fault,
        mut links,
    } = spec;
    let mut sh = Shard::new(id, machine, paths, pages);
    if trace {
        sh.sys.machine().tracer().set_enabled(true);
    }
    if metrics {
        sh.sys.machine().metrics().set_enabled(true);
    }
    if let Some(spec) = &fault {
        // The plan is built inside the thread and armed on the machine,
        // its one owner.
        sh.sys.arm_faults(spec.arm());
    }

    // Phase 1: warm every allocator this shard will touch.
    sh.warm_local();
    sh.egress(&mut links);
    barrier.wait();

    // Phase 2: settle the cross-shard warm traffic.
    if links.data_rx.is_some() {
        while sh.received < 1 {
            if sh.poll(&mut links) == 0 {
                std::thread::yield_now();
            }
        }
    }
    while sh.in_flight() > 0 {
        if sh.poll(&mut links) == 0 {
            std::thread::yield_now();
        }
    }
    barrier.wait();

    // Phase 3: the measured window.
    sh.reset_activity();
    let mark = sh.sys.stats().snapshot();
    let sim0 = sh.sys.machine().clock().now();
    let t0 = Instant::now();
    for i in 0..cycles {
        sh.poll(&mut links);
        sh.local_cycle();
        if cross_every > 0 && (i + 1) % cross_every == 0 {
            sh.egress(&mut links);
        }
        sh.sample_telemetry(&links);
    }
    while sh.received < expected_rx || sh.in_flight() > 0 {
        if sh.poll(&mut links) == 0 {
            std::thread::yield_now();
        }
    }
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
}
