//! Figure 4: throughput of a UDP/IP local loopback test.

use fbuf_net::{LoopbackConfig, LoopbackStack};
use fbuf_sim::MachineConfig;

use crate::rows::{Curve, CurvePoint};
use crate::sweep_sizes;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

/// Default size sweep: 1 KB to 1 MB.
pub fn default_sizes() -> Vec<u64> {
    sweep_sizes(1 << 10, 1 << 20)
}

/// One curve: loopback throughput over `sizes` for a configuration.
pub fn curve(label: &str, cfg: LoopbackConfig, sizes: &[u64], iters: usize) -> Curve {
    Curve {
        label: label.to_string(),
        points: sizes
            .iter()
            .map(|&size| {
                let mut stack = LoopbackStack::new(machine(), cfg.clone());
                CurvePoint {
                    size,
                    mbps: stack.throughput(size, iters).expect("loopback run"),
                }
            })
            .collect(),
    }
}

/// Produces the three Figure 4 curves.
pub fn run(sizes: &[u64], iters: usize) -> Vec<Curve> {
    vec![
        curve(
            "single domain",
            LoopbackConfig::paper(false, true),
            sizes,
            iters,
        ),
        curve(
            "3 domains, cached fbufs",
            LoopbackConfig::paper(true, true),
            sizes,
            iters,
        ),
        curve(
            "3 domains, uncached fbufs",
            LoopbackConfig::paper(true, false),
            sizes,
            iters,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape() {
        let sizes = [4096u64, 8192, 65_536, 1 << 20];
        let curves = run(&sizes, 2);
        let get = |c: usize, i: usize| curves[c].points[i].mbps;
        // Single-domain anomaly: dip just past the 4 KB PDU size.
        assert!(get(0, 0) > get(0, 1), "expected 4KB->8KB dip");
        // Cached 3-domain > 2x uncached 3-domain at 64 KB and 1 MB.
        assert!(get(1, 2) > 2.0 * get(2, 2));
        assert!(get(1, 3) > 2.0 * get(2, 3));
        // Cached converges toward the single-domain curve at 1 MB.
        assert!(get(1, 3) > 0.9 * get(0, 3));
        // Single domain always on top.
        for i in 0..sizes.len() {
            assert!(get(0, i) >= get(1, i));
            assert!(get(1, i) >= get(2, i));
        }
    }
}
