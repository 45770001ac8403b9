//! `osiris-mix`: UDP/IP over two Osiris host pairs.
//!
//! Both pairs place the stack user-netserver-user. One runs Figure 5's
//! configuration (cached receive buffers, volatile sends) and the other
//! Figure 6's (uncached receive buffers, secured sends), each with the
//! paper's window of 8. Message sizes are log-uniform from 4 KB to
//! 256 KB (1 to 16 PDUs), drawn stratified — one size from each equal
//! slice of the log range per pair — so every seed gets a different but
//! equally heavy mix, in a seeded order. The paper's curves run to 1 MB;
//! the cap is lower because a message larger than the host's caches
//! makes host time swing with the load of the host's other tenants. One
//! message in eight, spread over the smaller half of the strata (one or
//! two PDUs), is sent in verify mode and its payload byte-compared on
//! arrival; so is one largest (16-PDU) message per pair at set-up, which
//! checks fragmentation and reassembly outside the timed rounds.

use fbuf_net::{DomainSetup, EndToEnd, EndToEndConfig};
use fbuf_sim::{Json, MachineConfig, Rng, ToJson};

use crate::probe::{Layer, Probe};
use crate::workload::{digest, geometry, Round, Sim, Workload};

/// Messages up to this size fit one IP PDU.
const PDU_BYTES: u64 = 16 << 10;

/// The virtual circuit every message uses.
const VCI: u32 = 1;

/// Smallest message, bytes.
const MIN_BYTES: u64 = 4 << 10;
/// Largest message, bytes.
const MAX_BYTES: u64 = 256 << 10;
/// Messages per pair per round.
const MESSAGES_PER_PAIR: usize = 64;
/// One message in this many is verified.
const VERIFY_EVERY: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Message {
    pair: usize,
    size: u64,
    verify: bool,
}

struct Pair {
    e: EndToEnd,
    /// Datagrams sent so far: the sender numbers them from 1, and a
    /// verified payload's bytes derive from its number.
    sent: u64,
}

/// The two host pairs and the seeded message plan.
pub struct Osiris {
    pairs: [Pair; 2],
    plan: Vec<Message>,
}

/// The payload byte `i` of datagram `datagram` in verify mode.
fn expected(i: u64, datagram: u64) -> u8 {
    i.wrapping_mul(131).wrapping_add(datagram) as u8
}

impl Osiris {
    fn send(&mut self, m: Message, probe: &mut Probe) -> Result<(), String> {
        let pair = &mut self.pairs[m.pair];
        let layer = if m.size <= PDU_BYTES {
            Layer::NetSendSmall
        } else {
            Layer::NetSendLarge
        };
        probe.begin_transfer();
        let sent = probe.call(layer, || pair.e.send_message(m.size, VCI, m.verify));
        probe.end_transfer(sent.is_ok());
        pair.sent += 1;
        sent.map_err(|e| format!("send_message of {} bytes: {e}", m.size))?;
        if m.verify {
            let ok = pair.e.received.len() == 1
                && pair.e.received[0].len() as u64 == m.size
                && pair.e.received[0]
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == expected(i as u64, pair.sent));
            pair.e.received.clear();
            if !ok {
                return Err(format!(
                    "datagram {} of {} bytes arrived corrupted",
                    pair.sent, m.size
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Osiris {
    fn setup(seed: u64) -> Result<Osiris, String> {
        let cfg = MachineConfig::decstation_5000_200();
        let setup = DomainSetup::UserNetserver;
        let pair = |c| Pair {
            e: EndToEnd::new(cfg.clone(), c),
            sent: 0,
        };
        let pairs = [
            pair(EndToEndConfig::fig5(setup)),
            pair(EndToEndConfig::fig6(setup)),
        ];

        let mut rng = Rng::new(seed ^ 0x051e_15a1_0000_0001);
        let n = MESSAGES_PER_PAIR;
        let (lo, hi) = ((MIN_BYTES as f64).ln(), (MAX_BYTES as f64).ln());
        let mut plan = Vec::with_capacity(2 * n);
        for pair in 0..2 {
            for s in 0..n {
                let u = (s as f64 + rng.next_f64()) / n as f64;
                let size = ((lo + u * (hi - lo)).exp() as u64).clamp(MIN_BYTES, MAX_BYTES);
                // The same strata are verified on every seed, so peak
                // memory does not depend on the seed; all lie in the
                // smaller half, so verification stays out of the tail.
                let verify = s < n / 2 && s % (VERIFY_EVERY / 2) == 0;
                plan.push(Message { pair, size, verify });
            }
        }
        rng.shuffle(&mut plan);

        let mut w = Osiris { pairs, plan };
        // Warm each pair's buffer caches and pipeline with its largest
        // message size, as `EndToEnd::run` does before measuring; the
        // second of the two is verified.
        let mut warm = Probe::default();
        for pair in 0..2 {
            for verify in [false, true] {
                let size = MAX_BYTES;
                w.send(Message { pair, size, verify }, &mut warm)?;
            }
        }
        Ok(w)
    }

    fn round(&mut self, probe: &mut Probe) -> Result<Round, String> {
        let mut out = Round::default();
        for k in 0..self.plan.len() {
            let m = self.plan[k];
            out.attempted += 1;
            self.send(m, probe)?;
            out.transfers += 1;
            out.bytes += m.size;
        }
        Ok(out)
    }

    fn sim(&self) -> Sim {
        let mut sim = Sim::default();
        for pair in &self.pairs {
            sim.add_machine(pair.e.tx.fbs.machine(), false);
            sim.add_machine(pair.e.rx.fbs.machine(), true);
        }
        sim
    }

    fn describe(&self) -> Json {
        let fbs = &self.pairs[0].e.tx.fbs;
        Json::obj(vec![
            (
                "pairs",
                "fig5 (cached rx, volatile) + fig6 (uncached rx, secure)".to_json(),
            ),
            ("placement", "user-netserver-user".to_json()),
            ("window", 8u64.to_json()),
            ("pdu_bytes", PDU_BYTES.to_json()),
            ("messages_per_pair_per_round", MESSAGES_PER_PAIR.to_json()),
            ("min_bytes", MIN_BYTES.to_json()),
            ("max_bytes", MAX_BYTES.to_json()),
            ("verify_every", VERIFY_EVERY.to_json()),
            ("verified_at_setup", "one max_bytes message per pair".to_json()),
            (
                "machine",
                geometry(fbs.machine().config(), fbs.quota_policy()),
            ),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        digest(
            self.plan
                .iter()
                .map(|m| (m.size << 2) | ((m.pair as u64) << 1) | m.verify as u64),
        )
    }
}
