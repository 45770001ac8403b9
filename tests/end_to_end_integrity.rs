//! Cross-crate integration: every byte written by a source application
//! arrives intact at the sink, through every mechanism and every domain
//! placement.

use fbufs::net::{DomainSetup, EndToEnd, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbufs::sim::{audit_tracer, MachineConfig};

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

#[test]
fn osiris_delivers_every_configuration() {
    for setup in [
        DomainSetup::KernelOnly,
        DomainSetup::User,
        DomainSetup::UserNetserver,
    ] {
        for cached in [true, false] {
            let cfg = if cached {
                EndToEndConfig::fig5(setup)
            } else {
                EndToEndConfig::fig6(setup)
            };
            let mut e = EndToEnd::new(machine(), cfg);
            e.tx.fbs.machine().tracer().set_enabled(true);
            e.rx.fbs.machine().tracer().set_enabled(true);
            // Several messages, odd sizes spanning fragment boundaries.
            for (i, size) in [1u64, 100, 4096, 16_384, 16_385, 100_000]
                .iter()
                .enumerate()
            {
                e.send_message(*size, 1, true)
                    .unwrap_or_else(|err| panic!("{setup:?}/{cached}: {err}"));
                assert_eq!(
                    e.received[i].len() as u64,
                    *size,
                    "{setup:?} cached={cached} size={size}"
                );
            }
            // Payloads differ per message (datagram-seeded), so any
            // cross-message buffer aliasing would show up here.
            assert_ne!(e.received[2], e.received[3][..4096].to_vec());
            // The traced event streams obey the lifecycle invariants on
            // both hosts.
            audit_tracer(e.tx.fbs.machine().tracer()).assert_clean();
            audit_tracer(e.rx.fbs.machine().tracer()).assert_clean();
        }
    }
}

#[test]
fn loopback_delivers_all_configurations() {
    for three in [false, true] {
        for cached in [true, false] {
            let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(three, cached));
            s.fbs.machine().tracer().set_enabled(true);
            for size in [1u64, 4095, 4096, 4097, 50_000, 300_000] {
                s.send_message(size, true)
                    .unwrap_or_else(|err| panic!("three={three} cached={cached}: {err}"));
            }
            audit_tracer(s.fbs.machine().tracer()).assert_clean();
        }
    }
}

#[test]
fn sustained_traffic_does_not_leak() {
    let mut e = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::UserNetserver));
    for i in 0..50 {
        e.send_message(64 << 10, 1, false).unwrap();
        let _ = i;
    }
    // All message references drained on both hosts.
    assert_eq!(e.tx.refs.outstanding(), 0);
    assert_eq!(e.rx.refs.outstanding(), 0);
    // Cached buffers park rather than accumulate: the live set is bounded
    // by the window's worth of buffers, not by the number of messages.
    assert!(e.tx.fbs.live_fbufs() < 40, "tx {}", e.tx.fbs.live_fbufs());
    assert!(e.rx.fbs.live_fbufs() < 80, "rx {}", e.rx.fbs.live_fbufs());
}

#[test]
fn uncached_traffic_retires_buffers_completely() {
    let mut cfg = EndToEndConfig::fig6(DomainSetup::User);
    cfg.window = 1;
    let mut e = EndToEnd::new(machine(), cfg);
    for _ in 0..10 {
        e.send_message(64 << 10, 1, false).unwrap();
    }
    // The receiver allocates uncached buffers per PDU; all must be gone.
    // (The sender's cached buffers may park.)
    let parked_rx = e.rx.fbs.live_fbufs();
    assert!(parked_rx == 0, "rx live fbufs: {parked_rx}");
}

#[test]
fn interleaved_flows_on_distinct_vcis() {
    let mut e = EndToEnd::new(machine(), EndToEndConfig::fig5(DomainSetup::User));
    // Alternate two flows; both must deliver intact data.
    for round in 0..6 {
        e.send_message(30_000, round % 2, true).unwrap();
    }
    assert_eq!(e.received.len(), 6);
    for r in &e.received {
        assert_eq!(r.len(), 30_000);
    }
}
