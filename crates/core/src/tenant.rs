//! Tenant containment and billing, the hostile-tenant edge of the
//! facility: the quota jail ([`JailConfig`]), revocation
//! ([`FbufSystem::revoke`]), forged-token defense
//! ([`FbufSystem::check_token`]) and the per-tenant [`Ledger`]. The
//! paper's only tenant defense is the per-path chunk quota; the rest
//! follows "Safe Sharing of Fast Kernel-Bypass I/O Among Nontrusting
//! Applications" (PAPERS.md, `DESIGN.md` §16).
//!
//! `system.rs` calls in at each lifecycle site: register
//! (`Tenants::fresh_clock`), alloc (admission), build
//! (`Tenants::charge`), free (`Tenants::bill_hold` before the last
//! release deallocates, `Tenants::progressed` after) and retire
//! (`Tenants::uncharge`). Every bill goes through one ledger call that
//! bills a domain and, when present, its path; each bill whose column
//! [`Ledger::conserves`] checks bumps the matching fleet counter in the
//! same function.

use fbuf_sim::{EventKind, Ns, Stats};
use fbuf_vm::DomainId;

use crate::buffer::FbufId;
use crate::error::{FbufError, FbufResult};
use crate::ledger::Ledger;
use crate::path::PathId;
use crate::system::{check_holder, AllocMode, FbufSystem};

/// Configuration of the per-tenant hoard detector (the "quota jail").
///
/// A tenant is **hoarding** when the bytes charged to it (live buffers it
/// originated, held *or* parked) stay at or above `hoard_bytes` while it
/// goes `hoard_age` allocation rounds without freeing anything. Each
/// allocation a hoarding tenant attempts is denied
/// ([`FbufError::TenantJailed`], counted in `jail_denials`) and earns a
/// strike; at `revoke_strikes` strikes the jail escalates and forcibly
/// revokes the tenant's **cached** (parked) fbufs, retiring them through
/// the normal reclaim path so their chunks return to the kernel.
///
/// Detection is pure integer arithmetic over counters the system keeps
/// anyway — it never draws randomness, charges the clock, or touches the
/// fleet counters unless it actually denies, so arming it with no
/// adversary present is byte-invisible (pinned by
/// `tests/counter_exactness.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JailConfig {
    /// Charged-byte threshold at which a tenant can be considered
    /// hoarding.
    pub hoard_bytes: u64,
    /// Allocation rounds without a free before a charged-over tenant is
    /// jailed.
    pub hoard_age: u64,
    /// Jail denials before the jail escalates to forced revocation of
    /// the tenant's cached fbufs.
    pub revoke_strikes: u32,
}

impl Default for JailConfig {
    /// Generous defaults: a tenant must pin a megabyte across 64
    /// allocation rounds without a single free before the jail notices.
    fn default() -> JailConfig {
        JailConfig {
            hoard_bytes: 1 << 20,
            hoard_age: 64,
            revoke_strikes: 4,
        }
    }
}

/// All per-tenant state of one [`FbufSystem`]: the ledger, the jail and
/// the revocation deadline. The jail's bookkeeping is kept whether or not
/// the jail is armed — plain integer adds, like the ledger — so arming it
/// mid-run starts with full history.
#[derive(Debug, Default)]
pub(crate) struct Tenants {
    /// Per-tenant accounting accumulators (always on; plain adds that
    /// never charge the clock — see [`crate::ledger`]).
    pub(crate) ledger: Ledger,
    /// Hoard-detector configuration; `None` (the default) disarms the
    /// jail.
    jail: Option<JailConfig>,
    /// Allocation rounds so far: incremented on every
    /// [`FbufSystem::alloc`] attempt. The jail's notion of time (the
    /// oracle mirrors rounds, not the simulated clock).
    rounds: u64,
    /// Per-domain accounts, indexed by `DomainId.0`.
    accounts: Vec<Account>,
    /// Revocation deadline applied to every transfer submitted through
    /// the engine ([`FbufSystem::submit_transfer`]); `None` disables
    /// timeout-driven reclaim.
    revoke_timeout: Option<Ns>,
}

/// One domain's jail account.
#[derive(Debug, Clone, Copy, Default)]
struct Account {
    /// Page bytes of every live buffer the domain originated, held or
    /// parked (charged at build, released at retire). Every buffer has
    /// at least one page, so this is nonzero exactly while the domain
    /// has a live originated buffer.
    charged: u64,
    /// The allocation round of the domain's most recent free — its last
    /// observed progress.
    progress: u64,
    /// Jail strikes since the last escalation.
    strikes: u32,
}

impl Tenants {
    /// `dom`'s account; zero for a domain never registered.
    fn account(&self, dom: DomainId) -> Account {
        self.accounts
            .get(dom.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Register hook: covers `dom` and starts it on a clean hoard clock,
    /// so a fresh tenant is not penalized for rounds that passed before
    /// it existed. A jail escalation restarts the clock the same way.
    pub(crate) fn fresh_clock(&mut self, dom: DomainId) {
        let d = dom.0 as usize;
        if self.accounts.len() <= d {
            self.accounts.resize(d + 1, Account::default());
        }
        let a = &mut self.accounts[d];
        a.progress = self.rounds;
        a.strikes = 0;
    }

    /// Build hook: a new buffer's page bytes stay charged to its
    /// originator until [`Tenants::uncharge`] returns them.
    pub(crate) fn charge(&mut self, dom: DomainId, bytes: u64) {
        if let Some(a) = self.accounts.get_mut(dom.0 as usize) {
            a.charged += bytes;
        }
    }

    /// Retire hook: returns a retired buffer's page bytes to its
    /// originator's account.
    pub(crate) fn uncharge(&mut self, dom: DomainId, bytes: u64) {
        if let Some(a) = self.accounts.get_mut(dom.0 as usize) {
            a.charged = a.charged.saturating_sub(bytes);
        }
    }

    /// Free hook, last release: bills the ended incarnation's hold time
    /// (birth to last release) to its originator.
    pub(crate) fn bill_hold(&mut self, originator: DomainId, path: Option<PathId>, ns: u64) {
        self.ledger.bill(originator, path, |r| r.hold_ns += ns);
    }

    /// Free hook: `dom` released a reference, so it made progress (the
    /// jail only ever fires on tenants that allocate without freeing).
    pub(crate) fn progressed(&mut self, dom: DomainId) {
        if let Some(a) = self.accounts.get_mut(dom.0 as usize) {
            a.progress = self.rounds;
        }
    }

    /// Bills one transfer of `len` bytes to the sending domain (and the
    /// buffer's path): the fleet `fbuf_transfers` and `bytes_transferred`
    /// counters and their ledger columns, bumped together so the ledger
    /// conserves by construction.
    pub(crate) fn bill_transfer(
        &mut self,
        stats: &mut Stats,
        from: DomainId,
        path: Option<PathId>,
        len: u64,
    ) {
        stats.inc_fbuf_transfers();
        stats.add_bytes_transferred(len);
        self.ledger.bill(from, path, |r| {
            r.transfers += 1;
            r.bytes += len;
        });
    }
}

impl FbufSystem {
    /// Arms (or, with `None`, disarms) the per-tenant hoard detector.
    /// The underlying bookkeeping is always on, so arming mid-run starts
    /// with full history.
    pub fn set_jail(&mut self, cfg: Option<JailConfig>) {
        self.tenants.jail = cfg;
    }

    /// The hoard-detector configuration, if armed.
    pub fn jail(&self) -> Option<JailConfig> {
        self.tenants.jail
    }

    /// Arms (or disarms) the revocation deadline stamped on every
    /// transfer submitted through the engine: a leg serviced after its
    /// deadline revokes the buffer from the stalled holder chain instead
    /// of delivering it.
    pub fn set_revoke_timeout(&mut self, timeout: Option<Ns>) {
        self.tenants.revoke_timeout = timeout;
    }

    /// The armed revocation deadline, if any.
    pub fn revoke_timeout(&self) -> Option<Ns> {
        self.tenants.revoke_timeout
    }

    /// Bytes currently charged to `dom` by the hoard detector's
    /// bookkeeping (page bytes of live buffers it originated, held or
    /// parked).
    pub fn charged_bytes(&self, dom: DomainId) -> u64 {
        self.tenants.account(dom).charged
    }

    /// Jail strikes `dom` has accrued since its last escalation.
    pub fn jail_strikes_of(&self, dom: DomainId) -> u32 {
        self.tenants.account(dom).strikes
    }

    /// The per-tenant accounting ledger as of now: the inline
    /// accumulators plus the engine's per-domain queueing delay and the
    /// RPC layer's per-domain call counts (folded in at snapshot time so
    /// they are never double-counted).
    pub fn ledger_snapshot(&self) -> Ledger {
        let mut l = self.tenants.ledger.clone();
        if let Some(e) = &self.engine {
            for (d, &ns) in e.queue_delay_by_dom().iter().enumerate() {
                if ns > 0 {
                    l.dom_mut(d as u32).queue_ns += ns;
                }
            }
        }
        for (d, &calls) in self.rpc.calls_by_dom().iter().enumerate() {
            if calls > 0 {
                l.dom_mut(d as u32).ipc_calls += calls;
            }
        }
        l
    }

    /// Alloc hook: ticks the jail's allocation clock and admits `dom`
    /// unless the armed jail finds it hoarding — at or over its byte
    /// threshold with no free for `hoard_age` rounds. A hoarder's
    /// request is denied (an organic fault, billed to the tenant) and
    /// earns a strike; at `revoke_strikes` strikes the jail revokes its
    /// cached buffers and restarts its hoard clock.
    pub(crate) fn admit(&mut self, dom: DomainId, mode: AllocMode) -> FbufResult<()> {
        let t = &mut self.tenants;
        t.rounds += 1;
        let (Some(cfg), Some(a)) = (t.jail, t.accounts.get_mut(dom.0 as usize)) else {
            return Ok(());
        };
        if a.charged < cfg.hoard_bytes || t.rounds - a.progress < cfg.hoard_age {
            return Ok(());
        }
        a.strikes += 1;
        let escalate = a.strikes >= cfg.revoke_strikes;
        self.machine.stats_mut().inc_jail_denials();
        self.tenants
            .ledger
            .bill(dom, mode.path(), |r| r.faults += 1);
        if escalate {
            self.revoke_hoard(dom)?;
            self.tenants.fresh_clock(dom);
        }
        Err(FbufError::TenantJailed(dom))
    }

    /// Forcibly revokes `dom`'s reference to `id` — the containment path
    /// used when a transfer's revocation deadline expires on a stalled
    /// holder chain. Semantically a forced [`free`](Self::free), but
    /// audited distinctly: a `Revoked` trace instant precedes the `Free`,
    /// the fleet `fbufs_revoked` counter ticks, and the ledger bills the
    /// revocation to the tenant that lost its reference.
    pub fn revoke(&mut self, id: FbufId, dom: DomainId) -> FbufResult<()> {
        check_holder(self.fbuf(id)?, dom)?;
        let path = self.fbuf_hot(id)?.path;
        self.bill_revocation(id, dom, path);
        self.free(id, dom)
    }

    /// Jail escalation: revokes every **parked** fbuf the hoarding tenant
    /// originated, retiring each through the normal teardown path so its
    /// frames and address space return to the kernel. Held buffers are
    /// left to admission denial — benign peers sharing the tenant's paths
    /// never lose a live reference — and buffers whose frames the pageout
    /// daemon already reclaimed are off the parked list, so they keep
    /// only address space (path teardown or termination recovers it).
    fn revoke_hoard(&mut self, dom: DomainId) -> FbufResult<()> {
        let victims: Vec<FbufId> = self
            .parked_fbufs()
            .filter(|&id| self.fbuf(id).is_ok_and(|f| f.originator == dom))
            .collect();
        for id in victims {
            let path = self.fbuf_hot(id)?.path;
            self.bill_revocation(id, dom, path);
            self.retire_parked(id)?;
        }
        Ok(())
    }

    /// Bills one revocation of `id` from `dom`: the fleet `fbufs_revoked`
    /// counter, the tenant's `revocations` column, and a `Revoked` trace
    /// instant.
    fn bill_revocation(&mut self, id: FbufId, dom: DomainId, path: Option<PathId>) {
        self.machine.stats_mut().inc_fbufs_revoked();
        self.tenants.ledger.bill(dom, path, |r| r.revocations += 1);
        let (tracer, now) = (self.machine.tracer(), self.machine.now());
        tracer.instant(
            now,
            EventKind::Revoked,
            dom.0,
            path.map(|p| p.0),
            Some(id.0),
        );
    }

    /// Validates a raw fbuf handle presented by (or on behalf of) `dom`
    /// before anything dereferences it. The arena's generation bits make
    /// this the forged-token check: a stale handle (slot reused) or a
    /// fabricated one (generation never issued) fails [`Arena::get`]
    /// without touching any buffer state. A rejection ticks the fleet
    /// `tokens_rejected` counter, bills the presenting tenant's
    /// `rejected_tokens` ledger column, and emits a `TokenReject` trace
    /// instant carrying the raw token — the buffer the forger aimed at is
    /// never named, because it was never resolved.
    ///
    /// [`Arena::get`]: fbuf_sim::Arena::get
    pub fn check_token(&mut self, dom: DomainId, path: Option<PathId>, raw: u64) -> bool {
        if self.fbuf(FbufId(raw)).is_ok() {
            return true;
        }
        self.reject_token(dom, path, raw);
        false
    }

    /// Records one forged/stale-token rejection against `dom` (and
    /// `path`, when the token arrived on a ring bound to one).
    pub fn reject_token(&mut self, dom: DomainId, path: Option<PathId>, raw: u64) {
        self.machine.stats_mut().inc_tokens_rejected();
        self.tenants
            .ledger
            .bill(dom, path, |r| r.rejected_tokens += 1);
        let (tracer, now) = (self.machine.tracer(), self.machine.now());
        tracer.instant(
            now,
            EventKind::TokenReject,
            dom.0,
            path.map(|p| p.0),
            Some(raw),
        );
    }
}
