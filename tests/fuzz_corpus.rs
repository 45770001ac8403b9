//! Tier-1 fuzzer gates: corpus replay, a small always-on campaign, and
//! the planted-divergence self-test.
//!
//! Every `.case` file under `tests/corpus/` is a seed+keep-list record
//! (see `fbuf_model::fuzz` for the format) that once exercised a
//! hard-won execution — it replays here forever. The campaign test runs
//! a bounded number of fresh seeded cases on every `cargo test`; long
//! campaigns live in `repro fuzz` behind `FBUF_FUZZ_CASES`. The planted
//! divergence proves the whole detection-and-shrinking pipeline still
//! has teeth: a deliberately wrong model transition must be caught and
//! shrunk to a handful of commands.

use std::path::PathBuf;

use fbufs::model::fuzz::{self, CorpusCase};
use fbufs::model::oracle::Sabotage;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_case_replays_clean() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the corpus ships with seed cases");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = fuzz::parse_corpus(&text)
            .unwrap_or_else(|e| panic!("{}: malformed: {e}", path.display()));
        let out = fuzz::replay(&case, None).unwrap_or_else(|fail| {
            panic!(
                "{}: diverged at command {}: {}",
                path.display(),
                fail.fail_index,
                fail.message
            )
        });
        assert!(out.commands > 0, "{}: empty case", path.display());
    }
}

#[test]
fn smoke_campaign_stays_divergence_free() {
    // Small but real: every command type, every fault site reachable.
    let report = fuzz::campaign(0x7e57_0c0d_e001, 8, 150, None, 0);
    assert!(
        report.failures.is_empty(),
        "divergences: {:?}",
        report.failures
    );
    assert_eq!(report.commands, 8 * 150);
}

#[test]
fn adversarial_smoke_campaign_stays_divergence_free() {
    // Hostile personas overlaid, containment armed on both sides of the
    // differ: the jail, revocation, and token-defense paths must agree.
    let report = fuzz::campaign(0x7e57_adbe_e002, 4, 150, None, 3);
    assert!(
        report.failures.is_empty(),
        "adversarial divergences: {:?}",
        report.failures
    );
    assert_eq!(report.commands, 4 * 150);
}

#[test]
fn adversarial_corpus_cases_exercise_the_containment_paths() {
    // The two pinned adversarial cases aren't just divergence-free —
    // each must still trip the specific mechanism it was shrunk to
    // witness, and replay twice bit-identically.
    let load = |name: &str| {
        let text = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        fuzz::parse_corpus(&text).unwrap()
    };
    let jail = load("adv-jail-000000000000000d.case");
    assert_eq!(jail.adv, 3);
    let a = fuzz::replay(&jail, None).expect("jail pin replays clean");
    let b = fuzz::replay(&jail, None).expect("jail pin replays clean twice");
    assert_eq!(a.containment, b.containment, "replay is deterministic");
    assert!(a.containment[0] >= 1, "jail pin no longer trips the jail: {:?}", a.containment);

    let rev = load("adv-revoke-000000000000001b.case");
    assert_eq!(rev.adv, 3);
    let a = fuzz::replay(&rev, None).expect("revocation pin replays clean");
    let b = fuzz::replay(&rev, None).expect("revocation pin replays clean twice");
    assert_eq!(a.containment, b.containment, "replay is deterministic");
    assert!(a.containment[1] >= 1, "revocation pin no longer revokes: {:?}", a.containment);
    assert_eq!(a.containment[0], 0, "revocation pin must not involve the jail: {:?}", a.containment);
}

#[test]
fn planted_model_bug_is_caught_and_shrunk_to_a_short_witness() {
    let sab = Some(Sabotage::FifoReuse);
    let mut caught = None;
    for seed in 0..16u64 {
        if let Err(fail) = fuzz::run_case(seed, 250, sab, 0) {
            caught = Some((seed, fail));
            break;
        }
    }
    let (seed, fail) = caught.expect("the sabotaged model must diverge");
    let keep = fuzz::shrink(seed, 250, &fail, sab, 0);
    assert!(
        keep.len() <= 10,
        "minimal witness should be a handful of commands, got {}: {keep:?}",
        keep.len()
    );
    let case = CorpusCase {
        seed,
        cmds: 250,
        keep: Some(keep),
        adv: 0,
    };
    assert!(
        fuzz::replay(&case, sab).is_err(),
        "shrunk witness must still diverge under the sabotage"
    );
    assert!(
        fuzz::replay(&case, None).is_ok(),
        "the same witness is clean on the honest model"
    );
}
