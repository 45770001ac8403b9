//! `repro fuzz`: long seeded lockstep campaigns against the reference
//! model, with automatic shrinking of divergences.
//!
//! Each case is one seed: it fixes the command stream, the fault plan
//! (which sites can fail, how often, whether a domain crash is
//! scheduled), and therefore the whole execution on both sides of the
//! differ (`fbuf_model::Harness`). A campaign runs many cases; any
//! divergence is shrunk to a 1-minimal failing subsequence and written
//! to the corpus directory as a replayable `.case` file, and the run
//! exits nonzero.
//!
//! Environment knobs:
//!
//! * `FBUF_FUZZ_CASES` — cases per campaign (default 64);
//! * `FBUF_FUZZ_CMDS`  — commands per case (default 200);
//! * `FBUF_FUZZ_SEED`  — campaign seed (default a fixed constant, so CI
//!   runs are reproducible; set a fresh value to explore);
//! * `FBUF_FUZZ_CORPUS` — where to write shrunk failures (default
//!   `tests/corpus` under the current directory);
//! * `FBUF_FUZZ_ADV` — hostile personas overlaid on every case's
//!   command stream (default 0 = benign). Nonzero arms the harness's
//!   containment machinery (quota jail, revocation, token defense) and
//!   records `adv` in any shrunk corpus case so replay is bit-identical.
//!
//! Replay mode: `repro fuzz --replay <dir>` re-runs every `*.case` file
//! in `<dir>` and fails if any of them diverges — the regression gate
//! that keeps once-found bugs fixed forever.

use std::path::Path;

use fbuf_bench::knobs::env_parse;
use fbuf_model::fuzz;

/// Fuzzer knobs take hex (`0x…`) as well as decimal, and zero is a
/// value (`FBUF_FUZZ_ADV=0` disables the adversaries).
fn env_u64(name: &str, default: u64) -> u64 {
    env_parse::<String>(name)
        .and_then(|s| match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(default)
}

/// Replays every `*.case` file in `dir`; fails if any is unreadable,
/// malformed or diverges.
fn replay_dir(dir: &Path) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .case files in {}", dir.display()));
    }
    let mut bad = 0;
    for path in &entries {
        let case = match std::fs::read_to_string(path) {
            Ok(text) => fuzz::parse_corpus(&text).map_err(|e| format!("malformed: {e}")),
            Err(e) => Err(e.to_string()),
        };
        let case = match case {
            Ok(c) => c,
            Err(e) => {
                eprintln!("replay {}: {e}", path.display());
                bad += 1;
                continue;
            }
        };
        match fuzz::replay(&case, None) {
            Ok(out) => println!(
                "replay {} — OK ({} commands, seed {:#x})",
                path.file_name().unwrap_or_default().to_string_lossy(),
                out.commands,
                case.seed
            ),
            Err(fail) => {
                eprintln!(
                    "replay {} — DIVERGED at command {}: {}",
                    path.display(),
                    fail.fail_index,
                    fail.message
                );
                bad += 1;
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad}/{} corpus case(s) failed", entries.len()));
    }
    println!("repro fuzz: all {} corpus case(s) clean", entries.len());
    Ok(())
}

/// `fuzz` runs a campaign; `fuzz --replay <dir>` replays a corpus.
pub fn run(args: &[String]) -> Result<(), String> {
    match args {
        [] => {}
        [flag, dir] if flag == "--replay" => return replay_dir(Path::new(dir)),
        _ => return Err("usage: repro fuzz [--replay <corpus-dir>]".into()),
    }

    let cases = env_u64("FBUF_FUZZ_CASES", 64) as usize;
    let cmds = env_u64("FBUF_FUZZ_CMDS", 200) as usize;
    let seed = env_u64("FBUF_FUZZ_SEED", 0xfb0f_5eed_2026_0801);
    let corpus = std::env::var("FBUF_FUZZ_CORPUS").unwrap_or_else(|_| "tests/corpus".into());
    let adv = env_u64("FBUF_FUZZ_ADV", 0) as u32;

    println!("repro fuzz: {cases} case(s) × {cmds} command(s), seed {seed:#x}, adv {adv}");
    let report = fuzz::campaign(seed, cases, cmds, None, adv);
    println!(
        "repro fuzz: {} command(s) executed across {} case(s)",
        report.commands, report.cases
    );
    println!("faults injected:");
    for line in report.injected_lines() {
        println!("{line}");
    }
    if report.failures.is_empty() {
        println!("repro fuzz: zero divergences");
        return Ok(());
    }

    for (case_seed, fail) in &report.failures {
        eprintln!(
            "case seed {case_seed:#x} DIVERGED at command {}: {}",
            fail.fail_index, fail.message
        );
        let keep = fuzz::shrink(*case_seed, cmds, fail, None, adv);
        eprintln!("shrunk to {} command(s): {keep:?}", keep.len());
        let note = format!(
            "found by campaign seed {seed:#x}\ndiverged: {}",
            fail.message
        );
        let entry = fuzz::corpus_entry(*case_seed, cmds, Some(&keep), &note, adv);
        let dir = Path::new(&corpus);
        let file = dir.join(format!("fuzz-{case_seed:016x}.case"));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, entry)) {
            Ok(()) => eprintln!("wrote {}", file.display()),
            Err(e) => eprintln!("cannot write {}: {e}", file.display()),
        }
    }
    Err(format!(
        "{} divergence(s) in {} case(s)",
        report.failures.len(),
        report.cases
    ))
}
