//! The fuzzer's command language.
//!
//! A [`Cmd`] is a *state-independent* description of one lifecycle
//! operation: selectors (`slot`, `dom_sel`, …) are raw draws that the
//! lockstep harness resolves against current model state at execution
//! time. State-independence is what makes shrinking sound — removing a
//! command from a sequence never invalidates the commands after it, it
//! only changes what their selectors resolve to (identically on both
//! sides of the diff, since resolution consults only the model).

use fbuf::QuotaPolicy;
use fbuf_sim::{FaultSite, FaultSpec, Rng};

/// Number of buffer slots the harness tracks.
pub const SLOTS: usize = 16;

/// One fuzzer command. All fields are raw selector material; see
/// `crate::lockstep` for how each resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Allocate an fbuf into `slot`.
    Alloc {
        /// Target slot (`% SLOTS`).
        slot: u8,
        /// Cached (per-path) or uncached allocation.
        cached: bool,
        /// Which path (`%` the harness's path count).
        path_sel: u8,
        /// Buffer size in pages (1..=5; 5 exceeds a chunk → `TooLarge`).
        pages: u8,
        /// Allocating-domain selector.
        dom_sel: u8,
    },
    /// Transfer the buffer in `slot` to another domain.
    Send {
        /// Source slot.
        slot: u8,
        /// Sender selector (resolved against current holders).
        from_sel: u8,
        /// Receiver selector (resolved against the roster).
        to_sel: u8,
        /// Secure (eagerly immutable) transfer.
        secure: bool,
    },
    /// Release one reference to the buffer in `slot`.
    Free {
        /// Source slot.
        slot: u8,
        /// Holder selector.
        holder_sel: u8,
    },
    /// Write bytes into the buffer in `slot`.
    Write {
        /// Source slot.
        slot: u8,
        /// Writing-domain selector.
        dom_sel: u8,
        /// Byte offset.
        off: u16,
        /// Byte count (1..=16; zero-length writes are excluded — the
        /// machine accepts them without touching a page).
        len: u8,
    },
    /// Secure the buffer in `slot`.
    Secure {
        /// Source slot.
        slot: u8,
        /// Requesting-holder selector.
        holder_sel: u8,
    },
    /// Run the pageout daemon for up to `want` frames.
    Pageout {
        /// Frames wanted.
        want: u8,
    },
    /// Allocate, stamp, and push a buffer onto the cross-shard data ring
    /// (fixed egress pair of domains).
    CrossSend,
    /// Drain the data ring (verifying stamps and staging coalesced
    /// notice tokens), then the notice ring (freeing acknowledged
    /// buffers batch by batch).
    CrossPoll,
    /// Flush the staged notice tokens as one [`fbuf::shard::NoticeBatch`]
    /// onto the notice ring, consulting ring-full backpressure once at
    /// the batch boundary. A no-op when nothing is staged.
    FlushBatch,
    /// Terminate a roster domain.
    Terminate {
        /// Victim selector.
        dom_sel: u8,
    },
    /// Create a fresh domain and add it to the roster (bounded).
    Respawn,
    /// Drive one bare cross-domain hop through the event-loop engine
    /// (`FbufSystem::hop`: post → dequeue → handler → completion). The
    /// oracle's mirror transition is the identity — RPC charging is not
    /// part of the diffed state — so what this fuzzes is that routing
    /// hops through the scheduler perturbs *nothing* the model tracks,
    /// drains the loop completely, and never trips the overload path.
    Hop {
        /// Sender selector (resolved against the roster).
        from_sel: u8,
        /// Receiver selector (resolved against the roster).
        to_sel: u8,
    },
    /// Adversarial hostile-producer persona: allocate a cached buffer
    /// and park it on the harness's hoard list, never to be freed — the
    /// pressure that trips the quota jail. Only
    /// [`generate_adversarial`] emits this.
    Hoard {
        /// Target hoard-list slot (`% SLOTS`; an occupied slot makes
        /// this a no-op, keeping the hoard bounded).
        slot: u8,
        /// Buffer size in pages (1..=4).
        pages: u8,
    },
    /// Adversarial stalled-receiver persona: the revocation deadline
    /// fires on the buffer in `slot` — its deepest holder is forcibly
    /// revoked (`FbufSystem::revoke`, mirrored by `Oracle::revoke`).
    /// Only [`generate_adversarial`] emits this.
    Expire {
        /// Source slot.
        slot: u8,
    },
    /// Adversarial token-forger persona: present a stale handle (a live
    /// buffer's id with its generation bits flipped by `salt`) to the
    /// defense. It must never resolve, never mutate diffed state, and
    /// count exactly one rejection. Only [`generate_adversarial`] emits
    /// this.
    Forge {
        /// Generation perturbation (`% 0xffff`, +1 so it never aliases
        /// the genuine generation).
        salt: u8,
    },
}

/// Draws `n` commands from `seed`. The stream is a pure function of the
/// seed: replaying a seed reproduces the exact sequence, and a corpus
/// file only needs the seed plus the indices kept by shrinking.
pub fn generate(seed: u64, n: usize) -> Vec<Cmd> {
    // Domain-separated from the fault-plan stream below: the same case
    // seed drives both without correlation.
    let mut rng = Rng::new(seed ^ 0xc0dd_5717_ea44_0001);
    (0..n).map(|_| draw(&mut rng)).collect()
}

/// Draws `n` commands from `seed` and overlays `k` adversary personas.
///
/// The base stream is [`generate`] verbatim — same RNG, same draws — so
/// `k = 0` is the identity and the adversarial dimension can never
/// perturb an existing corpus case. A *separate*, domain-separated
/// adversary RNG then substitutes hostile commands ([`Cmd::Hoard`],
/// [`Cmd::Expire`], [`Cmd::Forge`]) into the stream at a density that
/// scales with `k`, modelling `k` concurrent hostile tenants riding a
/// benign workload.
pub fn generate_adversarial(seed: u64, n: usize, k: u32) -> Vec<Cmd> {
    let mut cmds = generate(seed, n);
    if k == 0 {
        return cmds;
    }
    // Adversary stream tag: domain-separated from the command, fault,
    // and policy streams.
    let mut rng = Rng::new(seed ^ 0xadbe_ef01_7e44_0004);
    let sel = |rng: &mut Rng| rng.below(256) as u8;
    let density = (k as u64 * 8).min(40); // percent of commands replaced
    for c in cmds.iter_mut() {
        if rng.below(100) >= density {
            continue;
        }
        *c = match rng.below(3) {
            0 => Cmd::Hoard {
                slot: sel(&mut rng),
                pages: rng.range(1, 4) as u8,
            },
            1 => Cmd::Expire {
                slot: sel(&mut rng),
            },
            _ => Cmd::Forge {
                salt: sel(&mut rng),
            },
        };
    }
    cmds
}

fn draw(rng: &mut Rng) -> Cmd {
    let sel = |rng: &mut Rng| rng.below(256) as u8;
    match rng.below(1000) {
        // 25% allocations, 80% of them cached; rare oversized requests
        // exercise the TooLarge path.
        0..=249 => Cmd::Alloc {
            slot: sel(rng),
            cached: rng.chance(0.8),
            path_sel: sel(rng),
            pages: if rng.chance(0.05) {
                5
            } else {
                rng.range(1, 5) as u8
            },
            dom_sel: sel(rng),
        },
        250..=449 => Cmd::Send {
            slot: sel(rng),
            from_sel: sel(rng),
            to_sel: sel(rng),
            secure: rng.chance(0.4),
        },
        450..=699 => Cmd::Free {
            slot: sel(rng),
            holder_sel: sel(rng),
        },
        700..=779 => Cmd::Write {
            slot: sel(rng),
            dom_sel: sel(rng),
            off: rng.below(5000) as u16,
            len: rng.range(1, 17) as u8,
        },
        780..=829 => Cmd::Secure {
            slot: sel(rng),
            holder_sel: sel(rng),
        },
        830..=869 => Cmd::Pageout {
            want: rng.range(1, 9) as u8,
        },
        870..=929 => Cmd::CrossSend,
        // CrossPoll's original 930..=964 bucket, split so FlushBatch
        // costs no extra RNG draw — streams from seeds recorded before
        // the split keep every other command (and the fault plan)
        // bit-aligned.
        930..=949 => Cmd::CrossPoll,
        950..=964 => Cmd::FlushBatch,
        965..=984 => Cmd::Hop {
            from_sel: sel(rng),
            to_sel: sel(rng),
        },
        985..=994 => Cmd::Terminate { dom_sel: sel(rng) },
        _ => Cmd::Respawn,
    }
}

/// Derives the per-case fault plan from the case seed. Rates come from a
/// small menu (off / rare / occasional / frequent per 64 Ki draws) so
/// most cases mix a few active sites; ~30% of cases also schedule a
/// domain crash.
pub fn fault_spec(seed: u64, cmds: usize) -> FaultSpec {
    let mut rng = Rng::new(seed ^ 0xfa17_91a4_0000_0002); // fault-plan stream tag
    let menu = [0u16, 300, 1200, 3000];
    let mut spec = FaultSpec::new(seed ^ 0xd1ce);
    for site in [
        FaultSite::ChunkGrant,
        FaultSite::QuotaExhausted,
        FaultSite::FrameAlloc,
        FaultSite::ReclaimRefusal,
        FaultSite::RingFull,
    ] {
        spec = spec.rate(site, menu[rng.index(menu.len())]);
    }
    if rng.chance(0.3) && cmds > 0 {
        spec = spec.crash_after(rng.below(cmds as u64));
    }
    spec
}

/// Derives the per-case chunk-admission policy from the case seed.
/// Domain-separated from the command and fault streams (its own tag, its
/// own RNG), so adding the policy dimension left every pre-existing
/// stream — and therefore the recorded corpus — bit-aligned. Half the
/// cases keep the static quota; the rest fuzz the dynamic families over
/// a small alpha menu.
pub fn policy_spec(seed: u64) -> QuotaPolicy {
    let mut rng = Rng::new(seed ^ 0x9011_c75e_ed00_0003); // policy stream tag
    let menu = [(1u64, 1u64), (1, 2), (2, 1), (1, 4)];
    match rng.below(10) {
        0..=4 => QuotaPolicy::Static,
        5..=7 => {
            let (alpha_num, alpha_den) = menu[rng.index(menu.len())];
            QuotaPolicy::FbDynamic {
                alpha_num,
                alpha_den,
            }
        }
        _ => {
            let (alpha_num, alpha_den) = menu[rng.index(menu.len())];
            QuotaPolicy::PriorityWeighted {
                alpha_num,
                alpha_den,
                weights: fbuf::policy::DEFAULT_WEIGHTS,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = generate(42, 500);
        let b = generate(42, 500);
        assert_eq!(a, b);
        let c = generate(43, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn every_variant_appears_in_a_long_stream() {
        let cmds = generate(7, 4000);
        let mut seen = [false; 13];
        for c in &cmds {
            let i = match c {
                Cmd::Alloc { cached: true, .. } => 0,
                Cmd::Alloc { cached: false, .. } => 1,
                Cmd::Send { secure: false, .. } => 2,
                Cmd::Send { secure: true, .. } => 3,
                Cmd::Free { .. } => 4,
                Cmd::Write { .. } => 5,
                Cmd::Secure { .. } => 6,
                Cmd::Pageout { .. } => 7,
                Cmd::CrossSend => 8,
                Cmd::CrossPoll => 9,
                Cmd::Terminate { .. } | Cmd::Respawn => 10,
                Cmd::Hop { .. } => 11,
                Cmd::FlushBatch => 12,
                Cmd::Hoard { .. } | Cmd::Expire { .. } | Cmd::Forge { .. } => {
                    panic!("generate never emits adversarial commands")
                }
            };
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage gap: {seen:?}");
    }

    #[test]
    fn adversarial_generation_is_an_overlay_on_the_base_stream() {
        // k = 0 is the identity: the adversary RNG is never even seeded.
        assert_eq!(generate_adversarial(42, 500, 0), generate(42, 500));
        // k > 0 substitutes in place: same length, untouched positions
        // bit-identical to the base stream, and every persona appears.
        let base = generate(42, 2000);
        let adv = generate_adversarial(42, 2000, 3);
        assert_eq!(adv.len(), base.len());
        let (mut hoard, mut expire, mut forge, mut benign) = (0, 0, 0, 0);
        for (a, b) in adv.iter().zip(&base) {
            match a {
                Cmd::Hoard { .. } => hoard += 1,
                Cmd::Expire { .. } => expire += 1,
                Cmd::Forge { .. } => forge += 1,
                _ => {
                    assert_eq!(a, b, "benign positions must ride the base stream");
                    benign += 1;
                }
            }
        }
        assert!(
            hoard > 0 && expire > 0 && forge > 0,
            "{hoard}/{expire}/{forge}"
        );
        assert!(benign > adv.len() / 2, "adversaries ride a benign majority");
        // Deterministic: same seed, same overlay.
        assert_eq!(adv, generate_adversarial(42, 2000, 3));
    }

    #[test]
    fn fault_spec_is_deterministic_and_sometimes_noisy() {
        assert_eq!(
            format!("{:?}", fault_spec(9, 100)),
            format!("{:?}", fault_spec(9, 100))
        );
        let noisy = (0..64).filter(|&s| !fault_spec(s, 100).is_quiet()).count();
        assert!(noisy > 32, "most cases should inject something: {noisy}");
    }

    #[test]
    fn policy_spec_is_deterministic_and_covers_every_family() {
        let mut names = std::collections::BTreeSet::new();
        for s in 0..64u64 {
            assert_eq!(policy_spec(s), policy_spec(s));
            names.insert(policy_spec(s).name());
        }
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            vec!["fb-dynamic", "priority", "static"]
        );
    }

    #[test]
    fn write_lengths_are_never_zero() {
        for c in generate(11, 4000) {
            if let Cmd::Write { len, .. } = c {
                assert!(len >= 1);
            }
        }
    }
}
