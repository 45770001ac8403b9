//! Crash consistency: `terminate_domain` in awkward states.
//!
//! The paper's termination story (§3.2.3) has three hard cases: the
//! dying domain still *holds* buffers, still has buffers *parked* on its
//! paths' free lists, and still has payloads *in flight* toward another
//! shard. These tests pin that every frame is reclaimed exactly once
//! (physical free-frame count returns to its baseline), that the replay
//! auditor stays clean through the teardown, and that a sharded fleet
//! under injected ring backpressure keeps its per-shard steady-state
//! invariants.

use fbufs::fbuf::shard::{run_fleet, FleetConfig};
use fbufs::fbuf::{AllocMode, FbufError, FbufSystem, SendMode};
use fbufs::model::cmd::{self, Cmd};
use fbufs::model::lockstep::Harness;
use fbufs::sim::{audit_tracer, FaultSite, FaultSpec, MachineConfig, Ns};

#[test]
fn terminate_with_held_and_parked_buffers_reclaims_frames_exactly_once() {
    let mut sys = FbufSystem::new(MachineConfig::tiny());
    sys.machine().tracer().set_enabled(true);
    let a = sys.create_domain();
    let b = sys.create_domain();
    let p = sys.create_path(vec![a, b]).unwrap();
    let frames0 = sys.machine().free_frames();

    // Allocate all three up front (freeing first would make the next
    // cached alloc a cache *hit* of the same buffer).
    let parked = sys.alloc(a, AllocMode::Cached(p), 4096).unwrap();
    let shared = sys.alloc(a, AllocMode::Cached(p), 4096).unwrap();
    let held = sys.alloc(a, AllocMode::Cached(p), 4096).unwrap();
    // Parked: returned to the path's free list before the crash.
    sys.free(parked, a).unwrap();
    // Shared: transferred to b, then released by a — survives a's death.
    sys.send(shared, a, b, SendMode::Secure).unwrap();
    sys.free(shared, a).unwrap();
    // `held` is still owned solely by the dying domain.

    sys.terminate_domain(a).unwrap();
    // The path died with its originator; the parked and held buffers are
    // gone, the shared one lives on b's reference alone.
    assert!(!sys.path(p).unwrap().live);
    assert!(sys.fbuf(parked).is_err());
    assert!(sys.fbuf(held).is_err());
    assert!(sys.fbuf(shared).is_ok());
    assert_eq!(sys.live_fbufs(), 1);

    // A second termination of the same domain is an error, not a second
    // reclamation pass.
    assert!(matches!(
        sys.terminate_domain(a),
        Err(FbufError::UnknownDomain(_))
    ));

    sys.free(shared, b).unwrap();
    assert_eq!(sys.live_fbufs(), 0);
    assert_eq!(
        sys.machine().free_frames(),
        frames0,
        "every frame reclaimed exactly once"
    );
    audit_tracer(sys.machine().tracer()).assert_clean();
}

#[test]
fn terminate_the_receiver_keeps_the_path_dead_and_frames_balanced() {
    let mut sys = FbufSystem::new(MachineConfig::tiny());
    sys.machine().tracer().set_enabled(true);
    let a = sys.create_domain();
    let b = sys.create_domain();
    let p = sys.create_path(vec![a, b]).unwrap();
    let frames0 = sys.machine().free_frames();

    // b holds a reference and then dies; a still holds its own.
    let id = sys.alloc(a, AllocMode::Cached(p), 2 * 4096).unwrap();
    sys.send(id, a, b, SendMode::Volatile).unwrap();
    sys.terminate_domain(b).unwrap();
    // a's reference survives; the buffer is now uncacheable (dead path)
    // so a's free retires it.
    let f = sys.fbuf(id).unwrap();
    assert_eq!(f.holders.len(), 1);
    assert!(!sys.path(p).unwrap().live);
    sys.free(id, a).unwrap();
    assert!(sys.fbuf(id).is_err(), "dead path ⇒ retire, not park");
    assert_eq!(sys.machine().free_frames(), frames0);
    audit_tracer(sys.machine().tracer()).assert_clean();
}

#[test]
fn crash_with_tokens_in_flight_stays_in_lockstep() {
    // An injected crash (driver-level DomainCrash) lands while payload
    // tokens sit unacknowledged in the data/notice rings. The lockstep
    // differ checks ring occupancy, buffer population, and all eight
    // counters after every command, and the replay auditor runs at the
    // end — any double-free or leaked token would surface as a
    // divergence or an audit violation.
    for crash_at in [5u64, 12, 23] {
        let spec = FaultSpec::new(0xc4a5_4000 + crash_at)
            .crash_after(crash_at)
            .rate(FaultSite::RingFull, 6000);
        let mut h = Harness::new(&spec, None);
        let mut cmds = Vec::new();
        for i in 0..80u64 {
            cmds.push(match i % 4 {
                0 | 2 => Cmd::CrossSend,
                1 => cmd::generate(i, 1)[0],
                _ => Cmd::CrossPoll,
            });
        }
        h.run(&cmds).unwrap_or_else(|(i, e)| {
            panic!("crash_at {crash_at}: diverged at command {i}: {e}");
        });
    }
}

#[test]
fn revocation_deadline_mid_route_reclaims_frames_exactly_once() {
    // A burst of deadline-stamped transfers through a three-domain
    // chain, serviced late: the tail of the burst blows its deadline
    // while legs are still queued, and the engine revokes the stalled
    // buffers mid-route instead of delivering them. Every frame must
    // come back exactly once, the replay auditor must accept the
    // Revoked lifecycle, and the ledger must conserve — revocations
    // included. (The paper machine, not `tiny`: deadline expiry needs a
    // clock that actually charges for work.)
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    sys.machine().tracer().set_enabled(true);
    let a = sys.create_domain();
    let b = sys.create_domain();
    let c = sys.create_domain();
    let route = vec![a, b, c];
    let p = sys.create_path(route.clone()).unwrap();
    let frames0 = sys.machine().free_frames();

    // Tight enough that queued legs at the tail of the burst expire,
    // generous enough that the head is delivered.
    sys.set_revoke_timeout(Some(Ns(400_000)));
    let mut refused = Vec::new();
    for _ in 0..8 {
        let id = sys.alloc(a, AllocMode::Cached(p), 4096).unwrap();
        if sys.submit_transfer(id, &route).is_overload() {
            refused.push(id);
        }
    }
    sys.pump();
    for id in refused {
        sys.free(id, a).unwrap();
    }

    assert!(
        sys.transfers_revoked() > 0,
        "the burst tail must blow the 400 µs deadline"
    );
    assert_eq!(sys.stats().snapshot().fbufs_revoked, sys.transfers_revoked());
    let violations = sys.ledger_snapshot().conserves(&sys.stats().snapshot());
    assert!(violations.is_empty(), "ledger must conserve: {violations:?}");

    // Tear the chain down: parked buffers retire with their path, and
    // the physical frame count returns to its pre-workload baseline.
    sys.terminate_domain(a).unwrap();
    sys.terminate_domain(b).unwrap();
    sys.terminate_domain(c).unwrap();
    assert_eq!(sys.live_fbufs(), 0);
    assert_eq!(
        sys.machine().free_frames(),
        frames0,
        "every frame reclaimed exactly once"
    );
    audit_tracer(sys.machine().tracer()).assert_clean();
}

#[test]
fn revocation_deadline_during_terminate_reclaims_frames_exactly_once() {
    // The other hard interleaving: deadline-stamped transfers sit
    // queued toward a receiver that is torn down *before* the engine
    // services them. The teardown and the expired deadlines race over
    // the same buffers; each frame must still be reclaimed exactly
    // once, with a clean audit and a conserving ledger.
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    sys.machine().tracer().set_enabled(true);
    let a = sys.create_domain();
    let b = sys.create_domain();
    let route = vec![a, b];
    let p = sys.create_path(route.clone()).unwrap();
    let frames0 = sys.machine().free_frames();

    sys.set_revoke_timeout(Some(Ns(1)));
    let mut refused = Vec::new();
    for _ in 0..4 {
        let id = sys.alloc(a, AllocMode::Cached(p), 4096).unwrap();
        if sys.submit_transfer(id, &route).is_overload() {
            refused.push(id);
        }
    }
    // The receiver dies with every transfer still in its inbox, every
    // deadline already blown (1 ns). Only then is the engine pumped.
    sys.terminate_domain(b).unwrap();
    sys.pump();
    for id in refused {
        sys.free(id, a).unwrap();
    }

    let violations = sys.ledger_snapshot().conserves(&sys.stats().snapshot());
    assert!(violations.is_empty(), "ledger must conserve: {violations:?}");
    sys.terminate_domain(a).unwrap();
    assert_eq!(sys.live_fbufs(), 0);
    assert_eq!(
        sys.machine().free_frames(),
        frames0,
        "every frame reclaimed exactly once"
    );
    audit_tracer(sys.machine().tracer()).assert_clean();
}

#[test]
fn receiver_death_releases_queued_transfers_at_the_next_pump() {
    // Transfers sit queued toward a receiver that is torn down before
    // the engine services them, and no revocation deadline is armed. The
    // leg that finds its receiver gone must release every reference the
    // transfer already took, as an overloaded leg does. Otherwise the
    // buffers stay live, charged to the surviving originator's quota and
    // hoard bytes, until the originator itself dies.
    for domains in [2, 3] {
        let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
        sys.machine().tracer().set_enabled(true);
        let route: Vec<_> = (0..domains).map(|_| sys.create_domain()).collect();
        let (origin, receiver) = (route[0], route[domains - 1]);
        let p = sys.create_path(route.clone()).unwrap();
        let frames0 = sys.machine().free_frames();

        for _ in 0..4 {
            let id = sys.alloc(origin, AllocMode::Cached(p), 4096).unwrap();
            assert!(!sys.submit_transfer(id, &route).is_overload());
        }
        sys.terminate_domain(receiver).unwrap();
        sys.pump();

        assert_eq!(sys.live_fbufs(), 0, "{domains}-domain route: queued transfers leaked");
        assert_eq!(sys.charged_bytes(origin), 0, "{domains}-domain route: origin still charged");
        assert_eq!(sys.transfers_aborted(), 4);
        let violations = sys.ledger_snapshot().conserves(&sys.stats().snapshot());
        assert!(violations.is_empty(), "ledger must conserve: {violations:?}");
        sys.terminate_domain(origin).unwrap();
        assert_eq!(
            sys.machine().free_frames(),
            frames0,
            "every frame reclaimed exactly once"
        );
        audit_tracer(sys.machine().tracer()).assert_clean();
    }
}

#[test]
fn fleet_under_injected_backpressure_keeps_steady_state_invariants() {
    let mut machine = MachineConfig::tiny();
    machine.phys_mem = 8 << 20;
    let cfg = FleetConfig {
        cross_every: 8,
        channel_capacity: 4,
        fault: Some(FaultSpec::new(0xbacc_9e55).rate(FaultSite::RingFull, 12_000)),
        ..FleetConfig::new(2, machine, 600)
    };
    let reports = run_fleet(&cfg);
    assert_eq!(reports.len(), 2);
    let mut injected = 0;
    for r in &reports {
        assert!(
            r.steady_state_violations().is_empty(),
            "shard {}: {:?}",
            r.shard,
            r.steady_state_violations()
        );
        injected += r.faults_injected;
    }
    assert!(injected > 0, "backpressure faults actually fired");
    // Conservation holds even with injected ring-full stalls: the
    // engines retry, so nothing is lost or duplicated.
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let received: u64 = reports.iter().map(|r| r.received).sum();
    assert_eq!(sent, received);
    assert!(sent > 0);
}
