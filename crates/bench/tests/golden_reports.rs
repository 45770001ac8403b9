//! Golden simulated reports.
//!
//! `repro all` writes eight `BENCH_*.json` reports. Everything in them
//! outside the `host` block is simulated and deterministic at the default
//! seed and iteration count, so it is committed under `tests/golden/` at
//! the repository root, with `host` removed and one value per line. This
//! test reruns `repro all`, strips the fresh reports the same way, and
//! requires them to match the committed files byte for byte: a change
//! that moves any simulated number, count or curve fails here.
//!
//! A change that means to move simulated output regenerates the files
//! on purpose and commits them, so every moved number shows in its diff:
//!
//! ```text
//! FBUF_GOLDEN_BLESS=1 cargo test -p fbuf-bench --test golden_reports
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use fbuf_sim::Json;

/// The committed goldens.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A report without its `host` block, one value per line: objects and
/// arrays that hold containers open one line per member, and arrays of
/// plain values stay on one line.
fn render_golden(report: &Json) -> String {
    fn write(j: &Json, depth: usize, out: &mut String) {
        let pad = |n: usize| "  ".repeat(n);
        match j {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    out.push_str(&Json::Str(k.clone()).render());
                    out.push_str(": ");
                    write(v, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push('}');
            }
            Json::Arr(items)
                if items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    write(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push(']');
            }
            leaf => out.push_str(&leaf.render()),
        }
    }
    let Json::Obj(pairs) = report else {
        panic!("a report is a JSON object");
    };
    let simulated = Json::Obj(pairs.iter().filter(|(k, _)| k != "host").cloned().collect());
    let mut out = String::new();
    write(&simulated, 0, &mut out);
    out.push('\n');
    out
}

/// Runs `repro all` into `dir` at the default seed and iteration count.
fn repro_all(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .env("FBUF_BENCH_DIR", dir)
        .env_remove("FBUF_BENCH_ITERS")
        .env_remove("FBUF_BENCH_SEED")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run repro all");
    assert!(status.success(), "repro all failed: {status}");
}

/// The `BENCH_*.json` file names in `dir`, sorted.
fn reports(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

#[test]
fn repro_all_matches_the_committed_simulated_reports() {
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-reports");
    repro_all(&fresh);
    let golden = golden_dir();
    let bless = std::env::var_os("FBUF_GOLDEN_BLESS").is_some();
    if bless {
        fs::create_dir_all(&golden).expect("create tests/golden");
        for stale in reports(&golden) {
            fs::remove_file(golden.join(stale)).expect("remove stale golden");
        }
    }
    let names = reports(&fresh);
    assert_eq!(names.len(), 8, "repro all writes eight reports: {names:?}");
    let mut differ = Vec::new();
    for name in &names {
        let text = fs::read_to_string(fresh.join(name)).expect("read fresh report");
        let rendered = render_golden(&Json::parse(&text).expect("fresh report parses"));
        let path = golden.join(name);
        if bless {
            fs::write(&path, rendered).expect("write golden");
            continue;
        }
        let committed = fs::read_to_string(&path).unwrap_or_default();
        if committed != rendered {
            let line = committed
                .lines()
                .zip(rendered.lines())
                .position(|(a, b)| a != b)
                .map_or(
                    committed.lines().count().min(rendered.lines().count()),
                    |i| i,
                );
            differ.push(format!(
                "{name}: first difference at line {}: committed {:?}, fresh {:?}",
                line + 1,
                committed.lines().nth(line).unwrap_or("<end>"),
                rendered.lines().nth(line).unwrap_or("<end>"),
            ));
        }
    }
    assert_eq!(
        reports(&golden),
        names,
        "tests/golden holds exactly the reports repro all writes"
    );
    assert!(
        differ.is_empty(),
        "simulated output moved; if on purpose, rerun with FBUF_GOLDEN_BLESS=1 \
         and commit tests/golden:\n{}",
        differ.join("\n")
    );
}
