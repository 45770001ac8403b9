//! Figures 5 and 6: UDP/IP end-to-end throughput over the Osiris model.
//!
//! Figure 5 uses cached/volatile fbufs, Figure 6 uncached/non-volatile;
//! both plot kernel-kernel, user-user, and user-netserver-user
//! configurations against message size.

use fbuf_net::{DomainSetup, EndToEnd, EndToEndConfig};
use fbuf_sim::MachineConfig;

use crate::rows::{Curve, CurvePoint};
use crate::sweep_sizes;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

/// Default size sweep: 4 KB to 1 MB.
pub fn default_sizes() -> Vec<u64> {
    sweep_sizes(4 << 10, 1 << 20)
}

/// The three domain placements, with the paper's curve labels.
pub const SETUPS: [(&str, DomainSetup); 3] = [
    ("kernel-kernel", DomainSetup::KernelOnly),
    ("user-user", DomainSetup::User),
    ("user-netserver-user", DomainSetup::UserNetserver),
];

/// End-to-end throughput at one size for one configuration.
pub fn throughput(cfg: EndToEndConfig, size: u64, count: usize) -> f64 {
    let mut e = EndToEnd::new(machine(), cfg);
    e.run(size, count).expect("end-to-end run").throughput_mbps
}

/// Produces the three curves of Figure 5 (`cached = true`) or Figure 6
/// (`cached = false`).
pub fn run(cached: bool, sizes: &[u64], count: usize) -> Vec<Curve> {
    SETUPS
        .iter()
        .map(|(label, setup)| Curve {
            label: label.to_string(),
            points: sizes
                .iter()
                .map(|&size| {
                    let cfg = if cached {
                        EndToEndConfig::fig5(*setup)
                    } else {
                        EndToEndConfig::fig6(*setup)
                    };
                    CurvePoint {
                        size,
                        mbps: throughput(cfg, size, count),
                    }
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape() {
        let sizes = [16_384u64, 262_144, 1 << 20];
        let curves = run(true, &sizes, 3);
        let get = |c: usize, i: usize| curves[c].points[i].mbps;
        // Plateau near 285 Mb/s for large messages, all placements.
        for (c, curve) in curves.iter().enumerate() {
            assert!(
                (get(c, 2) - 285.0).abs() < 25.0,
                "{}: {:.0} Mb/s at 1MB",
                curve.label,
                get(c, 2)
            );
        }
        // Medium sizes: each crossing costs, the second more than the
        // first.
        let first = get(0, 0) - get(1, 0);
        let second = get(1, 0) - get(2, 0);
        assert!(
            first > 0.0 && second > first,
            "penalties at 16KB: first {first:.1}, second {second:.1}"
        );
    }

    #[test]
    fn figure6_shape() {
        let sizes = [1u64 << 20];
        let cached = run(true, &sizes, 3);
        let uncached = run(false, &sizes, 3);
        // user-user degraded roughly 12% versus cached.
        let c = cached[1].points[0].mbps;
        let u = uncached[1].points[0].mbps;
        let degradation = 1.0 - u / c;
        assert!(
            (0.05..0.30).contains(&degradation),
            "degradation {degradation:.2} (cached {c:.0}, uncached {u:.0})"
        );
        // user-netserver-user "only marginally lower" than user-user
        // (UDP never maps the body, so the extra hop adds little).
        let unu = uncached[2].points[0].mbps;
        assert!(unu > 0.9 * u, "netserver case {unu:.0} vs user-user {u:.0}");
    }
}
