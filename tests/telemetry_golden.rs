//! Golden pin for a shard's rendered telemetry block.
//!
//! One single-threaded [`Shard`] with self-linked rings (the shape the
//! benchmark's `cached-loop` builds) runs with telemetry on. Its system
//! pass (taken at the system's own alloc/free/hop checkpoints and by
//! `Shard::sample_telemetry`) and the shard's independently-deadlined
//! pass of ring gauges interleave on one series store. The per-path
//! families overflow the series cap, and the point capacity is small
//! enough that every long series evicts, so the pin covers first-seen
//! order, refusal counting, eviction and every recorded value.

use fbufs::fbuf::shard::{Links, Shard};
use fbufs::sim::metrics::{self, telemetry_json};
use fbufs::sim::{spsc, MachineConfig};

/// FNV-1a (64-bit): a dependency-free digest for pinning rendered
/// artifacts byte for byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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

#[test]
fn shard_telemetry_block_is_byte_identical_to_its_golden_digest() {
    let mut shard = Shard::new(0, MachineConfig::decstation_5000_200(), 24, 1);
    let mut links = self_links();
    let m = shard.sys.machine().metrics().clone();
    m.set_enabled(true);
    m.set_capacity(600);
    shard.warm_local();
    shard.egress(&mut links);
    shard.poll(&mut links);
    for i in 0..1_200u64 {
        shard.poll(&mut links);
        shard.local_cycle();
        if i % 16 == 15 {
            shard.egress(&mut links);
        }
        shard.sample_telemetry(&links);
    }
    while shard.in_flight() > 0 {
        shard.poll(&mut links);
    }
    shard.sample_telemetry(&links);
    let series = m.series();
    assert_eq!(series.len(), metrics::DEFAULT_MAX_SERIES + 5, "cap full, shard gauges kept");
    assert!(series.iter().any(|s| s.dropped > 0), "long series evicted");
    let rendered = telemetry_json(m.cadence(), &series).render();
    assert_eq!(
        (fnv1a(rendered.as_bytes()), rendered.len(), m.refused_names()),
        (0x05ee_10b1_2107_2a44, 598_112, 128_622),
        "telemetry block changed"
    );
}
