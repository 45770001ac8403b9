//! Shared observation helpers for the paper experiments.
//!
//! Every `BENCH_*.json` report carries two observability blocks next to
//! its timing results: the operation-**counter delta** of a
//! representative workload, and **latency percentiles** from the
//! tracer's span histograms. The helpers here run such a workload with
//! the tracer enabled and hand both back, so each experiment attaches them
//! with [`BenchRunner::counters`] and [`BenchRunner::latency`] in two
//! lines.

use fbuf::{AllocMode, FbufSystem, SendMode};
use fbuf_net::{EndToEnd, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbuf_sim::{Histogram, MachineConfig, StatsSnapshot};
use fbuf_vm::facility::TransferMechanism;
use fbuf_vm::Machine;

use crate::report::BenchRunner;

/// What a representative traced workload yields: the counter delta over
/// its measured section plus the merged span histograms.
pub struct Observation {
    /// Counter delta (measured section only, after warm-up).
    pub counters: StatsSnapshot,
    /// Allocation service time, merged across paths.
    pub alloc: Histogram,
    /// Transfer latency, merged across paths.
    pub transfer: Histogram,
}

/// Attaches an observation to a report the standard way: the counter
/// delta accumulates into the `counters` object, and the two span
/// histograms land under `latency` as `alloc_<label>` and
/// `transfer_<label>`. Every experiment uses this instead of hand-rolling
/// the same three calls.
pub fn attach(r: &mut BenchRunner, label: &str, obs: &Observation) {
    r.counters(&obs.counters);
    r.latency(&format!("alloc_{label}"), &obs.alloc);
    r.latency(&format!("transfer_{label}"), &obs.transfer);
}

fn bench_config() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

/// A Table-1/Figure-3-style single boundary crossing: alloc, touch every
/// page, one RPC, send, touch, free on both sides.
pub fn crossing(cached: bool, send: SendMode, size: u64, iters: usize) -> Observation {
    let mut s = FbufSystem::new(bench_config());
    s.charge_clearing = false;
    let a = s.create_domain();
    let b = s.create_domain();
    let mode = if cached {
        AllocMode::Cached(s.create_path(vec![a, b]).expect("fresh domains"))
    } else {
        AllocMode::Uncached
    };
    let page = s.machine().page_size();
    let cycle = |s: &mut FbufSystem| {
        let id = s.alloc(a, mode, size).expect("alloc");
        let mut off = 0;
        while off < size {
            s.write_fbuf(a, id, off, &[7u8]).expect("write");
            off += page;
        }
        s.hop(a, b);
        s.send(id, a, b, send).expect("send");
        s.free(id, b).expect("free b");
        s.free(id, a).expect("free a");
    };
    for _ in 0..2 {
        cycle(&mut s);
    }
    let tracer = s.machine().tracer().clone();
    tracer.set_enabled(true);
    let mark = s.stats().snapshot();
    for _ in 0..iters {
        cycle(&mut s);
    }
    Observation {
        counters: s.stats().snapshot().delta(&mark),
        alloc: tracer.merged_alloc_latency(),
        transfer: tracer.merged_transfer_latency(),
    }
}

/// The Figure-4 loopback workload (warm-up excluded from the delta).
pub fn loopback(cfg: LoopbackConfig, size: u64, msgs: usize) -> Observation {
    let mut s = LoopbackStack::new(bench_config(), cfg);
    for _ in 0..2 {
        s.send_message(size, false).expect("warm-up");
    }
    let tracer = s.fbs.machine().tracer().clone();
    tracer.set_enabled(true);
    let mark = s.fbs.stats().snapshot();
    for _ in 0..msgs {
        s.send_message(size, false).expect("message");
    }
    Observation {
        counters: s.fbs.stats().snapshot().delta(&mark),
        alloc: tracer.merged_alloc_latency(),
        transfer: tracer.merged_transfer_latency(),
    }
}

/// The Figure-5/6 end-to-end workload; counters and histograms are
/// summed over the two hosts.
pub fn endtoend(cfg: EndToEndConfig, size: u64, msgs: usize) -> Observation {
    let mut e = EndToEnd::new(bench_config(), cfg);
    e.send_message(size, 0, false).expect("warm-up");
    let (tx, rx) = (e.tx.fbs.machine().tracer().clone(), e.rx.fbs.machine().tracer().clone());
    tx.set_enabled(true);
    rx.set_enabled(true);
    let tx_mark = e.tx.fbs.stats().snapshot();
    let rx_mark = e.rx.fbs.stats().snapshot();
    for _ in 0..msgs {
        e.send_message(size, 0, false).expect("message");
    }
    let tx_delta = e.tx.fbs.stats().snapshot().delta(&tx_mark);
    let rx_delta = e.rx.fbs.stats().snapshot().delta(&rx_mark);
    let mut alloc = tx.merged_alloc_latency();
    alloc.merge(&rx.merged_alloc_latency());
    let mut transfer = tx.merged_transfer_latency();
    transfer.merge(&rx.merged_transfer_latency());
    Observation {
        counters: tx_delta.plus(&rx_delta),
        alloc,
        transfer,
    }
}

/// A baseline-facility streaming workload (alloc → touch → transfer →
/// free per round), for the §2.2.1 remap experiment.
pub fn facility(mech: &mut dyn TransferMechanism, pages: u64, rounds: usize) -> Observation {
    let mut m = Machine::new(bench_config());
    let a = m.create_domain();
    let b = m.create_domain();
    let page = m.page_size();
    let len = pages * page;
    let mut cycle = |m: &mut Machine| {
        let va = mech.alloc(m, a, len).expect("alloc");
        for i in 0..pages {
            m.write(a, va + i * page, &[1]).expect("write");
        }
        let rva = mech.transfer(m, a, va, len, b).expect("transfer");
        for i in 0..pages {
            m.read(b, rva + i * page, 1).expect("read");
        }
        mech.free(m, b, rva, len).expect("free");
    };
    cycle(&mut m);
    let tracer = m.tracer().clone();
    tracer.set_enabled(true);
    let mark = m.stats().snapshot();
    for _ in 0..rounds {
        cycle(&mut m);
    }
    Observation {
        counters: m.stats().snapshot().delta(&mark),
        alloc: tracer.merged_alloc_latency(),
        transfer: tracer.merged_transfer_latency(),
    }
}
