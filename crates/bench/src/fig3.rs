//! Figure 3: throughput of a single domain-boundary crossing as a
//! function of message size.
//!
//! "Unlike Table 1, the throughput rates shown for small messages in these
//! graphs are strongly influenced by the control transfer latency of the
//! IPC mechanism." Five curves: Mach native (copy below 2 KB, COW above),
//! and the four fbuf regimes.

use fbuf::{AllocMode, FbufSystem, SendMode};
use fbuf_ipc::Rpc;
use fbuf_sim::MachineConfig;
use fbuf_vm::facility::{MachNative, TransferMechanism};
use fbuf_vm::Machine;

use crate::rows::{Curve, CurvePoint};
use crate::sweep_sizes;

fn bench_config() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

/// Default size sweep: 64 B to 1 MB.
pub fn default_sizes() -> Vec<u64> {
    sweep_sizes(64, 1 << 20)
}

/// Throughput of one fbuf regime at one size (one IPC round trip per
/// message, as through an x-kernel proxy).
pub fn fbuf_throughput(cached: bool, send: SendMode, size: u64, iters: usize) -> f64 {
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
        loop {
            s.write_fbuf(a, id, off, &[7u8]).expect("write");
            if off + page >= size {
                break;
            }
            off += page;
        }
        s.hop(a, b);
        s.send(id, a, b, send).expect("send");
        let mut off = 0;
        loop {
            s.read_fbuf(b, id, off, 1).expect("read");
            if off + page >= size {
                break;
            }
            off += page;
        }
        s.free(id, b).expect("free b");
        s.free(id, a).expect("free a");
    };
    for _ in 0..2 {
        cycle(&mut s);
    }
    let t0 = s.machine().clock().now();
    for _ in 0..iters {
        cycle(&mut s);
    }
    (s.machine().clock().now() - t0).mbps(size * iters as u64)
}

/// Throughput of the Mach-native composite at one size.
pub fn mach_throughput(size: u64, iters: usize) -> f64 {
    let mut m = Machine::new(bench_config());
    let a = m.create_domain();
    let b = m.create_domain();
    let mut rpc = Rpc::new(m.costs().clone());
    let mut mech = MachNative::new();
    let page = m.page_size();
    let mut cycle = |m: &mut Machine| {
        let va = mech.alloc(m, a, size).expect("alloc");
        let mut off = 0;
        loop {
            m.write(a, va + off, &[7u8]).expect("write");
            if off + page >= size {
                break;
            }
            off += page;
        }
        rpc.call(m, a, b);
        let rva = mech.transfer(m, a, va, size, b).expect("transfer");
        let mut off = 0;
        loop {
            m.read(b, rva + off, 1).expect("read");
            if off + page >= size {
                break;
            }
            off += page;
        }
        mech.free(m, b, rva, size).expect("free b");
        mech.free(m, a, va, size).expect("free a");
    };
    for _ in 0..2 {
        cycle(&mut m);
    }
    let t0 = m.clock().now();
    for _ in 0..iters {
        cycle(&mut m);
    }
    (m.clock().now() - t0).mbps(size * iters as u64)
}

/// Produces the five Figure 3 curves over `sizes`.
pub fn run(sizes: &[u64], iters: usize) -> Vec<Curve> {
    let regimes: [(&str, Option<(bool, SendMode)>); 5] = [
        ("Mach", None),
        ("cached, volatile fbufs", Some((true, SendMode::Volatile))),
        (
            "volatile, uncached fbufs",
            Some((false, SendMode::Volatile)),
        ),
        ("non-volatile, cached fbufs", Some((true, SendMode::Secure))),
        (
            "non-volatile, uncached fbufs",
            Some((false, SendMode::Secure)),
        ),
    ];
    regimes
        .iter()
        .map(|(label, regime)| Curve {
            label: label.to_string(),
            points: sizes
                .iter()
                .map(|&size| CurvePoint {
                    size,
                    mbps: match regime {
                        None => mach_throughput(size, iters),
                        Some((cached, send)) => fbuf_throughput(*cached, *send, size, iters),
                    },
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_volatile_dominates_everywhere() {
        // "cached/volatile fbufs outperform Mach's transfer facility even
        // for very small message sizes. Consequently, no special-casing is
        // necessary to efficiently transfer small messages."
        for size in [256u64, 1024, 65_536, 1 << 20] {
            let fb = fbuf_throughput(true, SendMode::Volatile, size, 3);
            let mach = mach_throughput(size, 3);
            assert!(fb > mach, "size {size}: fbufs {fb:.1} vs Mach {mach:.1}");
        }
    }

    #[test]
    fn mach_beats_uncached_fbufs_below_2kb() {
        // "For message sizes under 2KB, Mach's native data transfer
        // facility is slightly faster than uncached or non-volatile fbufs;
        // this is due to the latency associated with invoking the virtual
        // memory system."
        let mach = mach_throughput(1024, 3);
        let uncached = fbuf_throughput(false, SendMode::Volatile, 1024, 3);
        assert!(
            mach > uncached,
            "Mach {mach:.1} vs uncached fbufs {uncached:.1} at 1KB"
        );
        // But the relationship flips by 8 KB.
        let mach = mach_throughput(8192, 3);
        let uncached = fbuf_throughput(false, SendMode::Volatile, 8192, 3);
        assert!(uncached > mach);
    }

    #[test]
    fn throughput_grows_with_size() {
        let small = fbuf_throughput(true, SendMode::Volatile, 4096, 3);
        let big = fbuf_throughput(true, SendMode::Volatile, 1 << 20, 2);
        assert!(big > 3.0 * small, "amortizing IPC: {small:.1} -> {big:.1}");
    }
}
