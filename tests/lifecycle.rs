//! Buffer lifecycle under stress: pageout pressure, chunk recycling,
//! deallocation notices, and domain churn combined.

use fbufs::fbuf::{AllocMode, FbufSystem, SendMode};
use fbufs::sim::{audit_tracer, MachineConfig};
use fbufs::vm::KERNEL_DOMAIN;

fn small_memory_system() -> FbufSystem {
    let mut cfg = MachineConfig::decstation_5000_200();
    // Tight memory: 128 frames total.
    cfg.phys_mem = 512 << 10;
    FbufSystem::new(cfg)
}

#[test]
fn pageout_keeps_io_running_under_memory_pressure() {
    let mut fbs = small_memory_system();
    fbs.machine().tracer().set_enabled(true);
    let app = fbs.create_domain();
    let path = fbs.create_path(vec![KERNEL_DOMAIN, app]).unwrap();
    // Occupy most of memory with parked fbufs, then keep allocating:
    // reclamation must kick in rather than running out of memory.
    let mut parked = Vec::new();
    for _ in 0..20 {
        let id = fbs
            .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4 * 4096)
            .unwrap();
        parked.push(id);
    }
    for id in parked {
        fbs.free(id, KERNEL_DOMAIN).unwrap();
    }
    // Competing system activity eats most of the remaining memory ("the
    // amount of physical memory allocated to fbufs depends on the level of
    // I/O traffic compared to other system activity").
    let hog_pages = (fbs.machine().free_frames() as u64).saturating_sub(6);
    fbs.machine_mut()
        .map_anon_region(KERNEL_DOMAIN, 0x1000_0000, hog_pages)
        .unwrap();
    for i in 0..hog_pages {
        fbs.machine_mut()
            .write(KERNEL_DOMAIN, 0x1000_0000 + i * 4096, &[1])
            .unwrap();
    }
    for round in 0..30 {
        if fbs.machine().free_frames() < 8 {
            let got = fbs.reclaim_frames(16);
            assert!(got > 0, "round {round}: nothing reclaimable");
        }
        let id = fbs
            .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4 * 4096)
            .unwrap();
        fbs.write_fbuf(KERNEL_DOMAIN, id, 0, &[round as u8; 16])
            .unwrap();
        fbs.send(id, KERNEL_DOMAIN, app, SendMode::Volatile)
            .unwrap();
        assert_eq!(
            fbs.read_fbuf(app, id, 0, 16).unwrap(),
            vec![round as u8; 16]
        );
        fbs.free(id, app).unwrap();
        fbs.free(id, KERNEL_DOMAIN).unwrap();
    }
    assert!(
        fbs.stats().frames_reclaimed() > 0,
        "pressure exercised pageout"
    );
    // The full alloc/transfer/free/reclaim stream obeys the lifecycle
    // invariants.
    audit_tracer(fbs.machine().tracer()).assert_clean();
}

#[test]
fn reclaimed_buffers_come_back_zeroed() {
    let mut fbs = small_memory_system();
    let app = fbs.create_domain();
    let path = fbs.create_path(vec![KERNEL_DOMAIN, app]).unwrap();
    let id = fbs
        .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 8192)
        .unwrap();
    fbs.write_fbuf(KERNEL_DOMAIN, id, 0, b"sensitive secret")
        .unwrap();
    fbs.free(id, KERNEL_DOMAIN).unwrap();
    assert_eq!(fbs.reclaim_frames(2), 2);
    // Reuse: the buffer must not leak the old contents (its frames are
    // fresh and cleared).
    let id2 = fbs
        .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 8192)
        .unwrap();
    assert_eq!(id2, id);
    let data = fbs.read_fbuf(KERNEL_DOMAIN, id2, 0, 16).unwrap();
    assert_eq!(data, vec![0u8; 16], "old contents must be discarded");
}

#[test]
fn chunks_recycle_through_domain_generations() {
    // Domains come and go; the fbuf region must not leak chunks.
    let mut fbs = small_memory_system();
    for generation in 0..10 {
        let app = fbs.create_domain();
        let id = fbs.alloc(app, AllocMode::Uncached, 16 << 10).unwrap();
        fbs.write_fbuf(app, id, 0, &[generation as u8]).unwrap();
        fbs.terminate_domain(app).unwrap();
    }
    // If chunks leaked, ten generations of 64 KB-chunk allocators would
    // eat 640 KB of a small region; instead everything was reclaimed.
    let app = fbs.create_domain();
    assert!(fbs.alloc(app, AllocMode::Uncached, 16 << 10).is_ok());
}

#[test]
fn notices_flow_back_through_regular_traffic() {
    let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();
    for _ in 0..200 {
        let id = fbs.alloc(producer, AllocMode::Uncached, 4096).unwrap();
        fbs.hop(producer, consumer);
        fbs.send(id, producer, consumer, SendMode::Volatile)
            .unwrap();
        fbs.free(id, consumer).unwrap();
        fbs.free(id, producer).unwrap();
    }
    let s = fbs.stats().snapshot();
    assert!(
        s.piggybacked_notices >= 190,
        "steady traffic piggybacks notices: {}",
        s.piggybacked_notices
    );
    assert_eq!(
        s.explicit_notice_messages, 0,
        "no explicit messages needed under regular RPC traffic"
    );
}

#[test]
fn mixed_cached_uncached_traffic_coexists() {
    let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
    let app = fbs.create_domain();
    let path = fbs.create_path(vec![KERNEL_DOMAIN, app]).unwrap();
    for i in 0..20u64 {
        let mode = if i % 3 == 0 {
            AllocMode::Uncached
        } else {
            AllocMode::Cached(path)
        };
        let id = fbs.alloc(KERNEL_DOMAIN, mode, 4096 + i * 100).unwrap();
        fbs.write_fbuf(KERNEL_DOMAIN, id, 0, &i.to_le_bytes())
            .unwrap();
        fbs.send(id, KERNEL_DOMAIN, app, SendMode::Volatile)
            .unwrap();
        assert_eq!(
            fbs.read_fbuf(app, id, 0, 8).unwrap(),
            i.to_le_bytes().to_vec()
        );
        fbs.free(id, app).unwrap();
        fbs.free(id, KERNEL_DOMAIN).unwrap();
    }
    let s = fbs.stats().snapshot();
    assert!(s.fbuf_cache_hits > 0);
    // Distinct sizes form distinct free-list size classes; all coexist.
    assert!(fbs.live_fbufs() > 0, "cached buffers parked");
}

#[test]
fn many_paths_are_independent() {
    let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
    let apps: Vec<_> = (0..8).map(|_| fbs.create_domain()).collect();
    let paths: Vec<_> = apps
        .iter()
        .map(|&a| fbs.create_path(vec![KERNEL_DOMAIN, a]).unwrap())
        .collect();
    // Interleave traffic over all paths.
    for round in 0..5 {
        for (i, (&app, &path)) in apps.iter().zip(&paths).enumerate() {
            let id = fbs
                .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
                .unwrap();
            fbs.write_fbuf(KERNEL_DOMAIN, id, 0, &[round, i as u8])
                .unwrap();
            fbs.send(id, KERNEL_DOMAIN, app, SendMode::Volatile)
                .unwrap();
            assert_eq!(fbs.read_fbuf(app, id, 0, 2).unwrap(), vec![round, i as u8]);
            fbs.free(id, app).unwrap();
            fbs.free(id, KERNEL_DOMAIN).unwrap();
        }
    }
    // Killing one path's app doesn't disturb the others.
    fbs.terminate_domain(apps[3]).unwrap();
    for (i, (&app, &path)) in apps.iter().zip(&paths).enumerate() {
        if i == 3 {
            assert!(fbs
                .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
                .is_err());
            continue;
        }
        let id = fbs
            .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
            .unwrap();
        fbs.send(id, KERNEL_DOMAIN, app, SendMode::Volatile)
            .unwrap();
        fbs.free(id, app).unwrap();
        fbs.free(id, KERNEL_DOMAIN).unwrap();
    }
}
