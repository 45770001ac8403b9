//! `cached-loop`: the paper's §3.2.2 steady state on one engine.
//!
//! Sixty-four three-domain cached paths (originator → netserver →
//! receiver) share one engine. Each cycle takes the next seeded path and
//! runs alloc → hop → send → hop → send → three frees; every
//! 64th cycle also pushes one payload through the engine's
//! self-linked shard ring (`Shard::egress`, then `Shard::poll`, which
//! materializes it, reads its stamp back and returns the notice).
//! Telemetry and tracing are off. Every round asserts the steady state:
//! zero PTE updates, zero page clears, every allocation a cache hit, and
//! every ring payload received and acknowledged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fbuf::{AllocMode, FbufResult, Links, PathId, SendMode, Shard};
use fbuf_sim::spsc;
use fbuf_sim::{Json, MachineConfig, Rng, ToJson};
use fbuf_vm::DomainId;

use crate::probe::{Layer, Probe};
use crate::workload::{digest, geometry, Extra, Round, Sim, Workload};

/// Three-domain cached paths on the engine.
const PATHS: usize = 64;
/// One ring payload every this many cycles.
const CROSS_EVERY: usize = 64;
/// Cycles (transfers) per round.
const CYCLES_PER_ROUND: usize = 32_768;

#[derive(Debug, Clone, Copy)]
struct Triple {
    path: PathId,
    originator: DomainId,
    netserver: DomainId,
    receiver: DomainId,
}

/// The workload's engine and its seeded path order.
pub struct CachedLoop {
    shard: Shard,
    links: Links,
    paths: Vec<Triple>,
    order: Vec<u16>,
    len: u64,
}

/// Links that feed the shard's own data ring back into itself.
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

impl CachedLoop {
    /// One cycle on path `i`.
    fn cycle(&mut self, i: usize, probe: &mut Probe) -> FbufResult<()> {
        let t = self.paths[i];
        let len = self.len;
        let s = &mut self.shard.sys;
        let id = probe.call(Layer::SystemAlloc, || {
            s.alloc(t.originator, AllocMode::Cached(t.path), len)
        })?;
        probe.call(Layer::EngineHop, || s.hop(t.originator, t.netserver));
        probe.call(Layer::SystemSend, || {
            s.send(id, t.originator, t.netserver, SendMode::Volatile)
        })?;
        probe.call(Layer::EngineHop, || s.hop(t.netserver, t.receiver));
        probe.call(Layer::SystemSend, || {
            s.send(id, t.netserver, t.receiver, SendMode::Volatile)
        })?;
        for dom in [t.receiver, t.netserver, t.originator] {
            probe.call(Layer::SystemFree, || s.free(id, dom))?;
        }
        Ok(())
    }

    /// One payload around the self-linked ring. `Shard::poll` panics if
    /// the stamp it reads back differs from the one sent.
    fn ring_payload(&mut self, probe: &mut Probe) -> Result<(), String> {
        let (shard, links) = (&mut self.shard, &mut self.links);
        catch_unwind(AssertUnwindSafe(|| {
            probe.call(Layer::ShardEgress, || shard.egress(links));
            probe.call(Layer::ShardPoll, || shard.poll(links));
        }))
        .map_err(|_| "cross-shard payload failed its stamp check".to_string())?;
        if shard.in_flight() != 0 {
            return Err("ring payload not acknowledged after one poll".into());
        }
        Ok(())
    }
}

impl Workload for CachedLoop {
    fn setup(seed: u64) -> Result<CachedLoop, String> {
        // The calibrated geometry: 1024 chunks of 64 KB, so the 64 paths,
        // the shard's own path and its ingress and egress paths all fit.
        let cfg = MachineConfig::decstation_5000_200();
        let len = cfg.page_size;
        let mut shard = Shard::new(0, cfg, 1, 1);
        let mut paths = Vec::with_capacity(PATHS);
        for _ in 0..PATHS {
            let s = &mut shard.sys;
            let (originator, netserver, receiver) =
                (s.create_domain(), s.create_domain(), s.create_domain());
            let path = s
                .create_path(vec![originator, netserver, receiver])
                .map_err(|e| format!("create_path: {e}"))?;
            paths.push(Triple {
                path,
                originator,
                netserver,
                receiver,
            });
        }
        let mut rng = Rng::new(seed ^ 0xcac4_ed10_0b00_0001);
        let order = (0..CYCLES_PER_ROUND)
            .map(|_| rng.index(PATHS) as u16)
            .collect();
        let mut w = CachedLoop {
            shard,
            links: self_links(),
            paths,
            order,
            len,
        };
        // Warm every path's free list and the ingress and egress caches.
        let mut warm = Probe::default();
        for i in 0..w.paths.len() {
            w.cycle(i, &mut warm)
                .map_err(|e| format!("warm cycle: {e}"))?;
        }
        w.ring_payload(&mut warm)?;
        Ok(w)
    }

    fn round(&mut self, probe: &mut Probe) -> Result<Round, String> {
        let before = self.shard.sys.stats().snapshot();
        let (sent0, received0) = (self.shard.sent, self.shard.received);
        let mut out = Round::default();
        for k in 0..self.order.len() {
            probe.begin_transfer();
            let cycle = self.cycle(self.order[k] as usize, probe);
            let ring = if (k + 1) % CROSS_EVERY == 0 {
                self.ring_payload(probe)
            } else {
                Ok(())
            };
            probe.end_transfer(cycle.is_ok() && ring.is_ok());
            out.attempted += 1;
            match (cycle, ring) {
                (Ok(()), Ok(())) => {
                    out.transfers += 1;
                    out.bytes += self.len;
                }
                (Err(e), _) => return Err(format!("cached cycle failed: {e}")),
                (_, Err(e)) => return Err(e),
            }
        }
        let sent = self.shard.sent - sent0;
        let received = self.shard.received - received0;
        out.bytes += received * self.len;
        // §3.2.2 over the round: no VM work at all, every alloc a hit.
        let d = self.shard.sys.stats().snapshot().delta(&before);
        let allocs = out.transfers + sent + received;
        let mut broken = Vec::new();
        if d.pte_updates != 0 || d.pages_cleared != 0 {
            broken.push(format!(
                "{} PTE updates, {} page clears",
                d.pte_updates, d.pages_cleared
            ));
        }
        if d.fbuf_cache_misses != 0 || d.fbuf_cache_hits != allocs {
            broken.push(format!(
                "{} cache hits of {allocs} allocs",
                d.fbuf_cache_hits
            ));
        }
        if sent != received || self.shard.orphan_notices + self.shard.rejected_tokens != 0 {
            broken.push(format!("{sent} ring payloads sent, {received} received"));
        }
        if !broken.is_empty() {
            return Err(format!(
                "cached loop left steady state: {}",
                broken.join("; ")
            ));
        }
        Ok(out)
    }

    fn sim(&self) -> Sim {
        let mut sim = Sim::default();
        sim.add_machine(self.shard.sys.machine(), true);
        sim.extra = Extra {
            ring_payloads: self.shard.sent,
            notice_batches: self.shard.notice_batches,
            notice_tokens: self.shard.notice_tokens,
            ..Extra::default()
        };
        sim
    }

    fn describe(&self) -> Json {
        let sys = &self.shard.sys;
        Json::obj(vec![
            ("paths", PATHS.to_json()),
            ("domains_per_path", 3u64.to_json()),
            ("cycles_per_round", CYCLES_PER_ROUND.to_json()),
            ("ring_payload_every", CROSS_EVERY.to_json()),
            ("bytes_per_buffer", self.len.to_json()),
            ("telemetry", false.to_json()),
            (
                "machine",
                geometry(sys.machine().config(), sys.quota_policy()),
            ),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        digest(self.order.iter().map(|&p| p as u64))
    }
}
