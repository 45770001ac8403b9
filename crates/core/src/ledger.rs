//! The per-tenant accounting ledger.
//!
//! Every fleet counter ([`fbuf_sim::Stats`]) answers *how much work the
//! system did*; the ledger answers *on whose behalf*.
//! [`FbufSystem`](crate::FbufSystem) keeps a [`Ledger`] of per-domain
//! and per-path accumulators — bytes
//! carried by transfers, transfer and allocation counts, buffer-hold
//! time, queueing delay contributed, IPC calls originated, and faults
//! absorbed — billed by [`crate::tenant`] on the same operations that
//! bump the fleet counters, so the two views stay **conserved**: summing a ledger
//! column over every tenant reproduces the matching
//! [`fbuf_sim::StatsSnapshot`] total exactly
//! ([`Ledger::conserves`], asserted by `tests/observability.rs` and
//! `repro check`).
//!
//! The ledger is always on: each update is a plain integer add into a
//! pre-sized vector — it never charges the [`Clock`](fbuf_sim::Clock),
//! never touches [`Stats`](fbuf_sim::Stats), and therefore cannot
//! perturb the simulated-time or counter-exactness pins. Fleet-wide,
//! each shard's ledger crosses back as plain data in its
//! [`ShardReport`](crate::ShardReport) and
//! [`fleet_ledger`](crate::fleet_ledger) folds them with the same
//! offset scheme [`fleet_trace`](crate::fleet_trace) uses for domains.
//! `repro ledger` renders the result as a top-style table and
//! a `LEDGER_*.json` artifact. See `DESIGN.md` §13.

use fbuf_sim::{Json, StatsSnapshot, ToJson};
use fbuf_vm::DomainId;

use crate::path::PathId;

/// One tenant's accumulated account — a row of the ledger. A tenant is
/// either a protection domain or an I/O data path, depending on which
/// table the row lives in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantRow {
    /// Bytes carried across domain boundaries by this tenant's
    /// transfers (conserved against `StatsSnapshot::bytes_transferred`).
    pub bytes: u64,
    /// Fbuf transfers performed (conserved against
    /// `StatsSnapshot::fbuf_transfers`).
    pub transfers: u64,
    /// Fbuf allocations satisfied (cache hits and misses alike).
    pub allocs: u64,
    /// Simulated ns buffers originated by this tenant were held live
    /// (allocation to last release).
    pub hold_ns: u64,
    /// Simulated ns of queueing delay absorbed by events handled in
    /// this tenant's inbox.
    pub queue_ns: u64,
    /// IPC calls this tenant originated (conserved against
    /// `StatsSnapshot::ipc_messages`).
    pub ipc_calls: u64,
    /// Faults absorbed: quota denials and injected failures charged to
    /// this tenant's requests.
    pub faults: u64,
    /// Fbufs forcibly revoked from this tenant — cached buffers retired
    /// by a jail escalation, or in-flight buffers taken back when a
    /// transfer's revocation deadline expired on it (conserved against
    /// `StatsSnapshot::fbufs_revoked`).
    pub revocations: u64,
    /// Forged or stale ring tokens rejected on this tenant's ingress
    /// (conserved against `StatsSnapshot::tokens_rejected`).
    pub rejected_tokens: u64,
}

impl TenantRow {
    /// Fieldwise sum.
    pub fn add(&mut self, other: &TenantRow) {
        self.bytes += other.bytes;
        self.transfers += other.transfers;
        self.allocs += other.allocs;
        self.hold_ns += other.hold_ns;
        self.queue_ns += other.queue_ns;
        self.ipc_calls += other.ipc_calls;
        self.faults += other.faults;
        self.revocations += other.revocations;
        self.rejected_tokens += other.rejected_tokens;
    }

    /// True when every column is zero (the row never accrued anything).
    pub fn is_empty(&self) -> bool {
        *self == TenantRow::default()
    }
}

impl ToJson for TenantRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bytes", self.bytes.to_json()),
            ("transfers", self.transfers.to_json()),
            ("allocs", self.allocs.to_json()),
            ("hold_ns", self.hold_ns.to_json()),
            ("queue_ns", self.queue_ns.to_json()),
            ("ipc_calls", self.ipc_calls.to_json()),
            ("faults", self.faults.to_json()),
            ("revocations", self.revocations.to_json()),
            ("rejected_tokens", self.rejected_tokens.to_json()),
        ])
    }
}

/// Per-domain and per-path accounting tables. See the [module
/// docs](self).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Rows indexed by `DomainId.0`.
    pub domains: Vec<TenantRow>,
    /// Rows indexed by `PathId.0`.
    pub paths: Vec<TenantRow>,
}

fn row(rows: &mut Vec<TenantRow>, idx: usize) -> &mut TenantRow {
    if rows.len() <= idx {
        rows.resize(idx + 1, TenantRow::default());
    }
    &mut rows[idx]
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// The (growing) row for domain `dom`.
    pub fn dom_mut(&mut self, dom: u32) -> &mut TenantRow {
        row(&mut self.domains, dom as usize)
    }

    /// The (growing) row for path `path`.
    pub fn path_mut(&mut self, path: u64) -> &mut TenantRow {
        row(&mut self.paths, path as usize)
    }

    /// Bills one event to domain `dom` and, when the buffer is cached, to
    /// its path: `charge` applies the same update to both rows.
    pub(crate) fn bill(
        &mut self,
        dom: DomainId,
        path: Option<PathId>,
        charge: impl Fn(&mut TenantRow),
    ) {
        charge(self.dom_mut(dom.0));
        if let Some(p) = path {
            charge(self.path_mut(p.0));
        }
    }

    /// The domain row, zero when the domain never accrued anything.
    pub fn dom(&self, dom: u32) -> TenantRow {
        self.domains.get(dom as usize).copied().unwrap_or_default()
    }

    /// The path row, zero when the path never accrued anything.
    pub fn path(&self, path: u64) -> TenantRow {
        self.paths.get(path as usize).copied().unwrap_or_default()
    }

    /// Column-wise total over the domain table (the per-path table is a
    /// second attribution of the same flows, so totals are computed over
    /// domains only).
    pub fn totals(&self) -> TenantRow {
        let mut t = TenantRow::default();
        for r in &self.domains {
            t.add(r);
        }
        t
    }

    /// Folds `other` into `self` with its domain ids offset by
    /// `dom_base` and its path ids by `path_base` — the fleet-merge
    /// step, mirroring [`fleet_trace`](crate::fleet_trace)'s domain
    /// offsetting so ledger rows and merged trace events name the same
    /// tenants.
    pub fn merge_offset(&mut self, other: &Ledger, dom_base: u32, path_base: u64) {
        for (d, r) in other.domains.iter().enumerate() {
            row(&mut self.domains, dom_base as usize + d).add(r);
        }
        for (p, r) in other.paths.iter().enumerate() {
            row(&mut self.paths, path_base as usize + p).add(r);
        }
    }

    /// Checks conservation against a fleet counter snapshot: summed
    /// per-domain bytes, transfers, and IPC calls must equal the
    /// matching fleet totals. Returns the violations (empty = conserved).
    pub fn conserves(&self, fleet: &StatsSnapshot) -> Vec<String> {
        let t = self.totals();
        let mut v = Vec::new();
        if t.bytes != fleet.bytes_transferred {
            v.push(format!(
                "ledger bytes {} != fleet bytes_transferred {}",
                t.bytes, fleet.bytes_transferred
            ));
        }
        if t.transfers != fleet.fbuf_transfers {
            v.push(format!(
                "ledger transfers {} != fleet fbuf_transfers {}",
                t.transfers, fleet.fbuf_transfers
            ));
        }
        if t.ipc_calls != fleet.ipc_messages {
            v.push(format!(
                "ledger ipc_calls {} != fleet ipc_messages {}",
                t.ipc_calls, fleet.ipc_messages
            ));
        }
        if t.revocations != fleet.fbufs_revoked {
            v.push(format!(
                "ledger revocations {} != fleet fbufs_revoked {}",
                t.revocations, fleet.fbufs_revoked
            ));
        }
        if t.rejected_tokens != fleet.tokens_rejected {
            v.push(format!(
                "ledger rejected_tokens {} != fleet tokens_rejected {}",
                t.rejected_tokens, fleet.tokens_rejected
            ));
        }
        v
    }
}

impl ToJson for Ledger {
    fn to_json(&self) -> Json {
        let table = |rows: &[TenantRow], label: &str| {
            Json::Arr(
                rows.iter()
                    .enumerate()
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(i, r)| {
                        let mut obj = vec![(label.to_string(), Json::Num(i as f64))];
                        if let Json::Obj(fields) = r.to_json() {
                            obj.extend(fields);
                        }
                        Json::Obj(obj)
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            ("domains", table(&self.domains, "domain")),
            ("paths", table(&self.paths, "path")),
            ("totals", self.totals().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut l = Ledger::new();
        l.dom_mut(1).bytes += 4096;
        l.dom_mut(1).transfers += 1;
        l.dom_mut(3).ipc_calls += 2;
        l.path_mut(0).bytes += 4096;
        l
    }

    #[test]
    fn totals_sum_the_domain_table() {
        let l = sample();
        let t = l.totals();
        assert_eq!(t.bytes, 4096);
        assert_eq!(t.transfers, 1);
        assert_eq!(t.ipc_calls, 2);
        assert_eq!(l.dom(2), TenantRow::default());
    }

    #[test]
    fn merge_offset_relabels_tenants_like_fleet_trace() {
        let mut fleet = sample();
        fleet.merge_offset(&sample(), 10, 5);
        assert_eq!(fleet.dom(1).bytes, 4096, "shard 0 rows untouched");
        assert_eq!(fleet.dom(11).bytes, 4096, "shard 1 domain 1 → 11");
        assert_eq!(fleet.path(5).bytes, 4096, "shard 1 path 0 → 5");
        assert_eq!(fleet.totals().bytes, 8192);
    }

    #[test]
    fn conservation_detects_mismatches() {
        let l = sample();
        let mut snap = StatsSnapshot {
            bytes_transferred: 4096,
            fbuf_transfers: 1,
            ipc_messages: 2,
            ..StatsSnapshot::default()
        };
        assert!(l.conserves(&snap).is_empty());
        snap.bytes_transferred = 1;
        let v = l.conserves(&snap);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bytes"));
    }

    #[test]
    fn json_skips_empty_rows_and_carries_totals() {
        let j = sample().to_json();
        let doms = match j.get("domains") {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("domains not an array: {other:?}"),
        };
        assert_eq!(doms.len(), 2, "only non-empty rows rendered");
        assert!(j.get("totals").is_some());
        assert!(j.get("paths").is_some());
    }
}
