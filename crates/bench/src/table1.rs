//! Table 1: incremental per-page cost and asymptotic throughput of six
//! transfer mechanisms across a single protection boundary.
//!
//! The methodology follows the paper's first experiment: "a test protocol
//! in the originator domain repeatedly allocates an x-kernel message,
//! writes one word in each VM page of the associated fbuf, and passes the
//! message to a dummy protocol in the receiver domain. The dummy protocol
//! touches (reads) one word in each page of the received message,
//! deallocates the message, and returns." The incremental per-page cost is
//! the slope between two message sizes (both larger than the TLB), which
//! cancels all per-message constants including IPC latency.

use fbuf::{AllocMode, FbufSystem, SendMode};
use fbuf_sim::MachineConfig;
use fbuf_vm::facility::{CopyFacility, CowFacility, TransferMechanism};
use fbuf_vm::Machine;

use crate::rows::CostRow;

/// Message sizes (pages) for the slope: both sweeps exceed the 64-entry
/// TLB so every touch misses, as on the real machine under load.
pub const SMALL_PAGES: u64 = 40;
pub const LARGE_PAGES: u64 = 104;

fn bench_config() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 16 << 20;
    // A single fbuf larger than the TLB needs chunks beyond the 64 KB
    // production default.
    cfg.chunk_size = 1 << 20;
    cfg
}

/// Per-page slope of an fbuf regime.
pub fn fbuf_slope(cached: bool, send: SendMode) -> f64 {
    let mut s = FbufSystem::new(bench_config());
    // Table 1 of the paper excludes page-clearing cost ("the cost for
    // clearing pages in the uncached case is not included in the table").
    s.charge_clearing = false;
    let a = s.create_domain();
    let b = s.create_domain();
    let mode = if cached {
        AllocMode::Cached(s.create_path(vec![a, b]).expect("fresh domains"))
    } else {
        AllocMode::Uncached
    };
    let mut cycle = |pages: u64| -> f64 {
        let page = s.machine().page_size();
        let t0 = s.machine().clock().now();
        let id = s.alloc(a, mode, pages * page).expect("alloc");
        for i in 0..pages {
            s.write_fbuf(a, id, i * page, &[7u8]).expect("write");
        }
        s.send(id, a, b, send).expect("send");
        for i in 0..pages {
            s.read_fbuf(b, id, i * page, 1).expect("read");
        }
        s.free(id, b).expect("free b");
        s.free(id, a).expect("free a");
        (s.machine().clock().now() - t0).as_us_f64()
    };
    for _ in 0..2 {
        cycle(SMALL_PAGES);
        cycle(LARGE_PAGES);
    }
    (cycle(LARGE_PAGES) - cycle(SMALL_PAGES)) / (LARGE_PAGES - SMALL_PAGES) as f64
}

/// Per-page slope of a baseline facility (Mach COW or copy).
pub fn facility_slope(mech: &mut dyn TransferMechanism) -> f64 {
    let mut m = Machine::new(bench_config());
    let a = m.create_domain();
    let b = m.create_domain();
    let mut cycle = |m: &mut Machine, pages: u64| -> f64 {
        let page = m.page_size();
        let len = pages * page;
        let t0 = m.clock().now();
        let va = mech.alloc(m, a, len).expect("alloc");
        for i in 0..pages {
            m.write(a, va + i * page, &[7u8]).expect("write");
        }
        let rva = mech.transfer(m, a, va, len, b).expect("transfer");
        for i in 0..pages {
            m.read(b, rva + i * page, 1).expect("read");
        }
        mech.free(m, b, rva, len).expect("free b");
        mech.free(m, a, va, len).expect("free a");
        (m.clock().now() - t0).as_us_f64()
    };
    for _ in 0..2 {
        cycle(&mut m, SMALL_PAGES);
        cycle(&mut m, LARGE_PAGES);
    }
    (cycle(&mut m, LARGE_PAGES) - cycle(&mut m, SMALL_PAGES)) / (LARGE_PAGES - SMALL_PAGES) as f64
}

/// Produces the six Table 1 rows.
pub fn run() -> Vec<CostRow> {
    vec![
        CostRow::new(
            "fbufs, cached/volatile",
            fbuf_slope(true, SendMode::Volatile),
        ),
        CostRow::new("fbufs, volatile", fbuf_slope(false, SendMode::Volatile)),
        CostRow::new("fbufs, cached", fbuf_slope(true, SendMode::Secure)),
        CostRow::new("fbufs", fbuf_slope(false, SendMode::Secure)),
        CostRow::new("Mach COW", facility_slope(&mut CowFacility::new())),
        CostRow::new("Copy", facility_slope(&mut CopyFacility::new())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_reproduce_paper_anchors_and_ordering() {
        let rows = run();
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.mechanism == n)
                .unwrap_or_else(|| panic!("missing row {n}"))
        };
        // Surviving anchors.
        assert!((by_name("fbufs, cached/volatile").per_page_us - 3.0).abs() < 0.3);
        assert!((by_name("fbufs, volatile").per_page_us - 21.0).abs() < 1.0);
        assert!((by_name("fbufs, cached").per_page_us - 29.0).abs() < 1.0);
        // The OCR of the paper lost the uncached/secured row; the
        // mechanism's step list (map originator + protect/flush at send +
        // map receiver + unmap both with consistency actions + frame
        // alloc/free + two touches) prices it at 35.75 µs/page — between
        // the cached/secured row (29) and the best general remap facility
        // (42), as the prose requires.
        assert!((by_name("fbufs").per_page_us - 35.75).abs() < 1.0);
        // Ordering: each row strictly worse than the previous, and
        // cached/volatile an order of magnitude ahead of everything else.
        let costs: Vec<f64> = rows.iter().map(|r| r.per_page_us).collect();
        for w in costs.windows(2) {
            assert!(w[0] < w[1], "rows out of order: {costs:?}");
        }
        assert!(costs[1] >= 7.0 * costs[0]);
        // Asymptotic throughput of the headline row ≈ 10,922 Mb/s.
        assert!((by_name("fbufs, cached/volatile").mbps - 10_922.0).abs() < 1_000.0);
    }
}
