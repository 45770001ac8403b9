//! Integration pins for the observability stack (DESIGN.md §13):
//! merged fleet traces, the Chrome export schema, causal span
//! propagation across shard rings, per-tenant ledger conservation, and
//! the telemetry sampler's series registry.

use fbufs::fbuf::shard::{fleet_ledger, fleet_trace, run_fleet, FleetConfig};
use fbufs::fbuf::{AllocMode, FbufError, FbufSystem, QuotaPolicy, SendMode};
use fbufs::sim::metrics::{self, telemetry_json};
use fbufs::sim::spans::reconstruct;
use fbufs::sim::workload::{OnOff, Zipf};
use fbufs::sim::{EventKind, Json, MachineConfig, Rng, StatsSnapshot};

fn fleet_machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 32 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

fn traced_fleet(shards: usize, cycles: u64) -> FleetConfig {
    FleetConfig {
        trace: true,
        metrics: true,
        cross_every: 2,
        ..FleetConfig::new(shards, fleet_machine(), cycles)
    }
}

#[test]
fn merged_fleet_trace_is_lossless_and_time_ordered() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let merged = fleet_trace(&reports);

    // Lossless: every shard event survives the merge (ring overflow
    // would show up in `events_dropped`, not as silent loss here).
    let per_shard: usize = reports.iter().map(|r| r.events.len()).sum();
    assert!(per_shard > 0, "traced fleet produced events");
    assert_eq!(merged.len(), per_shard, "merge drops nothing");

    // Time-ordered and re-sequenced 0..n.
    assert!(
        merged.windows(2).all(|w| w[0].at <= w[1].at),
        "merged events sorted by simulated time"
    );
    for (i, e) in merged.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "merge re-sequences densely");
    }

    // Domain offsetting: shard 1's events must not collide with shard
    // 0's domain ids (shard 0 created `reports[0].domains` domains).
    let base = reports[0].domains;
    assert!(
        merged.iter().any(|e| e.dom >= base),
        "second shard's events landed past the first shard's domain base"
    );
}

#[test]
fn chrome_trace_export_has_the_documented_schema() {
    let mut s = FbufSystem::new(fleet_machine());
    let tracer = s.machine().tracer().clone();
    tracer.set_enabled(true);
    let a = s.create_domain();
    let b = s.create_domain();
    let path = s.create_path(vec![a, b]).unwrap();
    for _ in 0..4 {
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.hop(a, b);
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
    }

    let doc = tracer.chrome_trace();
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("chrome trace renders valid JSON");

    assert!(parsed.get("displayTimeUnit").is_some());
    assert_eq!(
        parsed.get("dropped_events").and_then(Json::as_f64),
        Some(0.0),
        "an un-wrapped ring reports zero drops"
    );
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ph").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        // Span events use their *start* instant as ts, so the stream is
        // not globally sorted — but no event starts before time zero.
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts present");
        assert!(ts >= 0.0);
    }
}

#[test]
fn cross_shard_transfers_reconstruct_as_connected_span_trees() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let merged = fleet_trace(&reports);
    let crossings = merged
        .iter()
        .filter(|e| e.kind == EventKind::RingCross)
        .count();
    assert!(crossings > 0, "cross traffic actually crossed rings");

    let trees = reconstruct(&merged);
    assert!(!trees.is_empty());
    let mut crossing_trees = 0;
    for tree in &trees {
        let has_crossing = tree
            .nodes
            .iter()
            .flat_map(|n| n.events.iter())
            .any(|e| e.kind == EventKind::RingCross);
        if !has_crossing {
            continue;
        }
        crossing_trees += 1;
        // The sender's token span and the receiver's child span must have
        // folded into ONE tree — a disconnected forest means the span id
        // broke somewhere across the SPSC ring.
        assert!(
            tree.is_connected(),
            "span tree {:#x} reconstructs connected",
            tree.root
        );
        assert!(
            tree.nodes.len() >= 2,
            "a ring crossing spans both sides (tree {:#x})",
            tree.root
        );
    }
    assert!(
        crossing_trees > 0,
        "at least one reconstructed tree covers a ring crossing"
    );
}

#[test]
fn ledger_conserves_on_a_single_system_workload() {
    // Mixed cached/uncached traffic across two tenants; the always-on
    // ledger's totals must reproduce the system's own counters exactly.
    let mut s = FbufSystem::new(fleet_machine());
    let a = s.create_domain();
    let b = s.create_domain();
    let path = s.create_path(vec![a, b]).unwrap();
    for round in 0..6u64 {
        let mode = if round % 2 == 0 {
            AllocMode::Cached(path)
        } else {
            AllocMode::Uncached
        };
        let id = s.alloc(a, mode, 8192).unwrap();
        s.write_fbuf(a, id, 0, &[round as u8]).unwrap();
        s.hop(a, b);
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
    }

    let ledger = s.ledger_snapshot();
    let violations = ledger.conserves(&s.stats().snapshot());
    assert!(violations.is_empty(), "conservation violated: {violations:?}");

    let totals = ledger.totals();
    assert!(totals.bytes > 0, "tenants were charged for bytes");
    assert!(totals.transfers > 0);
    assert!(totals.hold_ns > 0, "freed buffers accumulated hold time");
    // Attribution went to the tenants that did the work.
    assert!(ledger.domains[a.0 as usize].transfers > 0);
    assert!(ledger.paths[path.0 as usize].bytes > 0);
}

#[test]
fn fleet_ledger_conserves_against_whole_life_counters() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let ledger = fleet_ledger(&reports);
    let life = StatsSnapshot::merge_all(reports.iter().map(|r| &r.life));
    let violations = ledger.conserves(&life);
    assert!(violations.is_empty(), "fleet conservation violated: {violations:?}");
    assert!(ledger.totals().bytes > 0);
    // Telemetry rode along: the metrics flag filled per-shard series.
    assert!(reports.iter().all(|r| !r.telemetry.is_empty()));
}

/// FNV-1a (64-bit): a dependency-free digest for pinning rendered
/// artifacts byte for byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn fanin_telemetry_block_is_byte_identical_to_its_golden_digest() {
    // A cold-start Zipf fan-in over 128 two-domain paths under
    // fb-dynamic admission, sampling every gauge once per step. The
    // per-path families overflow the series cap, so the pin covers
    // first-seen order, the cap and per-attempt refusal counting as
    // well as every recorded value.
    const PATHS: usize = 128;
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 64 << 20;
    cfg.fbuf_region_size = 6 << 20;
    let mut sys = FbufSystem::new(cfg);
    sys.set_quota_policy(QuotaPolicy::fb_dynamic());
    let m = sys.machine().metrics().clone();
    m.set_enabled(true);
    let paths: Vec<_> = (0..PATHS)
        .map(|_| {
            let (prod, cons) = (sys.create_domain(), sys.create_domain());
            (sys.create_path(vec![prod, cons]).unwrap(), prod, cons)
        })
        .collect();
    let zipf = Zipf::new(PATHS, 1.1);
    let mut rng = Rng::new(0x00fa_9101);
    let mut flows: Vec<(usize, OnOff)> = (0..1000)
        .map(|_| (zipf.sample(&mut rng), OnOff::new(&mut rng, 40, 160)))
        .collect();
    let len = sys.machine().config().page_size;
    let mut held: Vec<Vec<_>> = vec![Vec::new(); 5];
    let mut refusals = 0u64;
    for step in 0..40usize {
        for (id, prod, cons) in std::mem::take(&mut held[step % 5]) {
            sys.free(id, cons).unwrap();
            sys.free(id, prod).unwrap();
        }
        for (path, gate) in &mut flows {
            if !gate.step(&mut rng) {
                continue;
            }
            let (path, prod, cons) = paths[*path];
            match sys.alloc(prod, AllocMode::Cached(path), len) {
                Ok(id) => {
                    sys.send(id, prod, cons, SendMode::Volatile).unwrap();
                    sys.hop(prod, cons);
                    held[(step + 4) % 5].push((id, prod, cons));
                }
                Err(FbufError::QuotaExceeded { .. } | FbufError::RegionExhausted) => refusals += 1,
                Err(e) => panic!("alloc: {e}"),
            }
        }
        sys.sample_gauges_at(sys.machine().now());
    }
    assert!(refusals > 0, "admission refused some arrivals");
    let series = m.series();
    assert_eq!(series.len(), metrics::DEFAULT_MAX_SERIES, "the path families fill the cap");
    let rendered = telemetry_json(m.cadence(), &series).render();
    assert_eq!(
        (fnv1a(rendered.as_bytes()), rendered.len(), m.refused_names()),
        (0x1674_f7ab_0a67_6c49, 3_837_300, 4_591_398),
        "telemetry block changed"
    );
}

#[test]
fn shard_gauges_survive_a_full_series_registry() {
    // 32 paths on one shard: the system's per-path gauges alone would
    // fill the series cap before the shard samples its own gauges.
    let cfg = FleetConfig {
        paths: 32,
        metrics: true,
        ..FleetConfig::new(1, fleet_machine(), 2_000)
    };
    let reports = run_fleet(&cfg);
    let names: Vec<&str> = reports[0].telemetry.iter().map(|s| s.name.as_str()).collect();
    assert!(names.len() >= metrics::DEFAULT_MAX_SERIES, "per-path gauges filled the cap");
    for gauge in [
        "ring.out",
        "ring.in",
        "egress_in_flight",
        metrics::GAUGE_RING_BATCH_OCCUPANCY,
        metrics::GAUGE_NOTICE_COALESCE_FACTOR,
    ] {
        assert!(names.contains(&gauge), "shard gauge `{gauge}` was refused: {names:?}");
    }
}
