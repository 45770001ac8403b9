//! Design-choice ablations.
//!
//! The paper's design (§3.2) is a stack of optimizations over a base
//! remapping mechanism; §3.3 adds policy choices (LIFO free lists, the
//! 16-entry driver path cache, piggybacked deallocation notices). Each
//! ablation here isolates one of those choices.

use fbuf::{AllocMode, FbufSystem, ReusePolicy, SendMode};
use fbuf_ipc::Rpc;
use fbuf_net::{DomainSetup, EndToEnd, EndToEndConfig};
use fbuf_sim::{Json, MachineConfig, ToJson};
use fbuf_vm::facility::{RemapFacility, TransferMechanism};
use fbuf_vm::{DomainId, Machine};

use crate::rows::CostRow;
use crate::table1;

fn machine_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

// ---------------------------------------------------------------------
// A2: the optimization stack
// ---------------------------------------------------------------------

/// Cumulative per-page cost as each §3.2 optimization is applied:
/// base remap with clearing → drop clearing → fbufs uncached/secured
/// (restricted dynamic read sharing) → uncached/volatile → cached/secured
/// (fbuf caching) → cached/volatile (the full design).
pub fn optimization_stack() -> Vec<CostRow> {
    let remap = |fraction: f64| {
        let mut m = Machine::new(machine_cfg());
        let a = m.create_domain();
        let b = m.create_domain();
        let mut f = RemapFacility::new(fraction);
        let page = m.page_size();
        let mut cycle = |m: &mut Machine, pages: u64| {
            let len = pages * page;
            let t0 = m.clock().now();
            let va = f.alloc(m, a, len).expect("alloc");
            for i in 0..pages {
                m.write(a, va + i * page, &[1]).expect("write");
            }
            f.transfer(m, a, va, len, b).expect("transfer");
            for i in 0..pages {
                m.read(b, va + i * page, 1).expect("read");
            }
            f.free(m, b, va, len).expect("free");
            (m.clock().now() - t0).as_us_f64()
        };
        for _ in 0..2 {
            cycle(&mut m, table1::SMALL_PAGES);
            cycle(&mut m, table1::LARGE_PAGES);
        }
        (cycle(&mut m, table1::LARGE_PAGES) - cycle(&mut m, table1::SMALL_PAGES))
            / (table1::LARGE_PAGES - table1::SMALL_PAGES) as f64
    };
    vec![
        CostRow::new("base remap, full clearing", remap(1.0)),
        CostRow::new("+ no security clearing", remap(0.0)),
        CostRow::new(
            "+ shared fbuf region (uncached, secured)",
            table1::fbuf_slope(false, SendMode::Secure),
        ),
        CostRow::new(
            "+ volatile fbufs (uncached)",
            table1::fbuf_slope(false, SendMode::Volatile),
        ),
        CostRow::new(
            "+ fbuf caching (full design)",
            table1::fbuf_slope(true, SendMode::Volatile),
        ),
    ]
}

// ---------------------------------------------------------------------
// A1: LIFO vs FIFO free lists under memory pressure
// ---------------------------------------------------------------------

/// Result of the free-list-order ablation.
#[derive(Debug, Clone)]
pub struct LifoRow {
    /// `lifo` or `fifo`.
    pub policy: String,
    /// Allocations that found a fully resident buffer.
    pub resident_hits: u64,
    /// Allocations that had to re-materialize reclaimed frames (each one
    /// pays allocation + clearing + mapping again).
    pub rematerializations: u64,
}

impl ToJson for LifoRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", self.policy.to_json()),
            ("resident_hits", self.resident_hits.to_json()),
            ("rematerializations", self.rematerializations.to_json()),
        ])
    }
}

/// Runs a pool of parked fbufs under pageout pressure: each round
/// allocates/frees a few buffers while the pageout daemon reclaims from
/// the cold end. LIFO keeps reusing the hot (resident) buffers; FIFO
/// churns through reclaimed ones.
pub fn lifo_vs_fifo(rounds: usize) -> Vec<LifoRow> {
    [ReusePolicy::Lifo, ReusePolicy::Fifo]
        .into_iter()
        .map(|policy| {
            let mut s = FbufSystem::new(machine_cfg());
            s.charge_clearing = true;
            s.reuse_policy = policy;
            let a = s.create_domain();
            let b = s.create_domain();
            let path = s.create_path(vec![a, b]).expect("fresh domains");
            // Build a pool of 8 parked one-page buffers.
            let mut ids = Vec::new();
            for _ in 0..8 {
                ids.push(s.alloc(a, AllocMode::Cached(path), 4096).expect("alloc"));
            }
            for id in ids {
                s.free(id, a).expect("free");
            }
            let mut hits = 0;
            let mut remat = 0;
            for _ in 0..rounds {
                // Memory pressure: reclaim two frames from the cold end.
                s.reclaim_frames(2);
                // The workload reuses two buffers per round.
                for _ in 0..2 {
                    let before = s.stats().frames_allocated();
                    let id = s.alloc(a, AllocMode::Cached(path), 4096).expect("alloc");
                    if s.stats().frames_allocated() > before {
                        remat += 1;
                    } else {
                        hits += 1;
                    }
                    s.send(id, a, b, SendMode::Volatile).expect("send");
                    s.free(id, b).expect("free b");
                    s.free(id, a).expect("free a");
                }
            }
            LifoRow {
                policy: match policy {
                    ReusePolicy::Lifo => "lifo".to_string(),
                    ReusePolicy::Fifo => "fifo".to_string(),
                },
                resident_hits: hits,
                rematerializations: remat,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A3: driver path-cache size vs offered working set
// ---------------------------------------------------------------------

/// Result of the VCI-cache ablation.
#[derive(Debug, Clone)]
pub struct PathCacheRow {
    /// Number of concurrently active VCIs.
    pub active_vcis: u32,
    /// Fraction of PDUs received into cached fbufs.
    pub cached_fraction: f64,
    /// Achieved throughput in Mb/s.
    pub throughput_mbps: f64,
}

impl ToJson for PathCacheRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("active_vcis", self.active_vcis.to_json()),
            ("cached_fraction", self.cached_fraction.to_json()),
            ("throughput_mbps", self.throughput_mbps.to_json()),
        ])
    }
}

/// Sweeps the number of active VCIs across the driver's 16-entry cache.
pub fn path_cache(vcis: &[u32], messages: usize) -> Vec<PathCacheRow> {
    vcis.iter()
        .map(|&n| {
            let mut e = EndToEnd::new(machine_cfg(), EndToEndConfig::fig5(DomainSetup::User));
            // Warm all VCIs once.
            for v in 0..n {
                e.send_message(16 << 10, v, false).expect("warm");
            }
            let before = e.rx.fbs.stats().snapshot();
            let mark = e.rx.fbs.machine().clock().mark();
            for i in 0..messages {
                e.send_message(16 << 10, (i as u32) % n, false)
                    .expect("send");
            }
            let elapsed = e.rx.fbs.machine().clock().since(mark);
            let d = e.rx.fbs.stats().snapshot().delta(&before);
            let total = d.driver_cached_rx + d.driver_uncached_rx;
            PathCacheRow {
                active_vcis: n,
                cached_fraction: d.driver_cached_rx as f64 / total.max(1) as f64,
                throughput_mbps: elapsed.mbps((16 << 10) * messages as u64),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A4: deallocation-notice threshold
// ---------------------------------------------------------------------

/// Result of the notice-threshold ablation.
#[derive(Debug, Clone)]
pub struct NoticeRow {
    /// Explicit-message threshold.
    pub threshold: usize,
    /// Notices that rode RPC replies.
    pub piggybacked: u64,
    /// Explicit messages that had to be sent.
    pub explicit: u64,
}

impl ToJson for NoticeRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("threshold", self.threshold.to_json()),
            ("piggybacked", self.piggybacked.to_json()),
            ("explicit", self.explicit.to_json()),
        ])
    }
}

/// Queues `frees` deallocation notices with an owner RPC every
/// `rpc_every` frees, across thresholds.
pub fn notice_thresholds(thresholds: &[usize], frees: u64, rpc_every: u64) -> Vec<NoticeRow> {
    thresholds
        .iter()
        .map(|&threshold| {
            let mut m = Machine::new(machine_cfg());
            let mut rpc = Rpc::new(m.costs().clone());
            rpc.set_notice_threshold(threshold);
            let owner = DomainId(1);
            let holder = DomainId(2);
            for i in 0..frees {
                rpc.queue_dealloc_notice(&mut m, owner, holder, i);
                if i % rpc_every == rpc_every - 1 {
                    rpc.call(&mut m, owner, holder);
                }
            }
            NoticeRow {
                threshold,
                piggybacked: m.stats().piggybacked_notices(),
                explicit: m.stats().explicit_notice_messages(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Bus contention (Osiris ceilings)
// ---------------------------------------------------------------------

/// Throughput with and without the TurboChannel bus-contention derating,
/// exposing the 367 Mb/s DMA ceiling the paper derives.
pub fn bus_contention() -> Vec<(String, f64)> {
    [true, false]
        .into_iter()
        .map(|contended| {
            let mut cfg = EndToEndConfig::fig5(DomainSetup::KernelOnly);
            cfg.contended = contended;
            let mut e = EndToEnd::new(machine_cfg(), cfg);
            let r = e.run(1 << 20, 4).expect("run");
            (
                if contended {
                    "contended (285 Mb/s ceiling)".to_string()
                } else {
                    "uncontended (367 Mb/s DMA ceiling)".to_string()
                },
                r.throughput_mbps,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_stack_is_monotone() {
        let rows = optimization_stack();
        for w in rows.windows(2) {
            assert!(
                w[1].per_page_us < w[0].per_page_us,
                "each optimization must help: {} ({:.1}) -> {} ({:.1})",
                w[0].mechanism,
                w[0].per_page_us,
                w[1].mechanism,
                w[1].per_page_us
            );
        }
        // Full design an order of magnitude better than the base.
        assert!(rows[0].per_page_us > 10.0 * rows.last().expect("rows").per_page_us);
    }

    #[test]
    fn lifo_avoids_rematerialization() {
        let rows = lifo_vs_fifo(12);
        let lifo = &rows[0];
        let fifo = &rows[1];
        assert!(
            lifo.rematerializations < fifo.rematerializations,
            "LIFO {lifo:?} vs FIFO {fifo:?}"
        );
        assert!(lifo.resident_hits > fifo.resident_hits);
    }

    #[test]
    fn path_cache_degrades_past_16_vcis() {
        let rows = path_cache(&[8, 16, 24], 48);
        assert!(rows[0].cached_fraction > 0.95, "{:?}", rows[0]);
        assert!(rows[1].cached_fraction > 0.95, "{:?}", rows[1]);
        // Round-robin over 24 VCIs with a 16-entry LRU misses every time.
        assert!(rows[2].cached_fraction < 0.1, "{:?}", rows[2]);
        assert!(rows[2].throughput_mbps < rows[0].throughput_mbps);
    }

    #[test]
    fn small_thresholds_force_explicit_messages() {
        let rows = notice_thresholds(&[4, 64, 1024], 1000, 16);
        assert!(rows[0].explicit > 0);
        assert_eq!(rows[2].explicit, 0);
        assert!(rows[2].piggybacked > 900);
        // Higher thresholds monotonically reduce explicit traffic.
        assert!(rows[0].explicit >= rows[1].explicit);
        assert!(rows[1].explicit >= rows[2].explicit);
    }

    #[test]
    fn contention_ablation_exposes_dma_ceiling() {
        let rows = bus_contention();
        let contended = rows[0].1;
        let free = rows[1].1;
        assert!((contended - 285.0).abs() < 25.0, "contended {contended:.0}");
        assert!(free > contended + 40.0, "uncontended {free:.0}");
        assert!((free - 367.0).abs() < 40.0, "uncontended {free:.0}");
    }
}
