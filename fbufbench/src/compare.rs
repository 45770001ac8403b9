//! `compare`: two result sets side by side.
//!
//! For every workload and metric it prints both sets' medians with their
//! quartiles, flags each end-to-end metric whose median moved the wrong
//! way by more than its bound in `BENCHMARK.json`, and lists beside the
//! end-to-end table the per-layer metrics that moved most — so that a
//! regression is explained layer by layer.

use std::collections::BTreeMap;
use std::path::Path;

use fbuf_sim::Json;

use crate::runner::median;

/// Per-layer deltas listed under each workload.
const TOP_LAYERS: usize = 12;

/// workload -> metric -> values, one per result file.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json") || name.starts_with("spans-") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("repro")
            .and_then(|r| r.get("workload"))
            .and_then(Json::as_str)
            .ok_or(format!("{}: no repro.workload", path.display()))?;
        let metrics = set.entry(workload.to_string()).or_default();
        if let Some(f) = doc.get("failed_frac").and_then(Json::as_f64) {
            metrics.entry("failed_frac".into()).or_default().push(f);
        }
        if let Some(Json::Obj(pairs)) = doc.get("result").and_then(|r| r.get("metrics")) {
            for (k, v) in pairs {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    metrics.entry(k.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(set)
}

fn load_bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec lacks end_to_end")?;
    rows.iter()
        .map(|r| {
            Ok(Bound {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_is_better: r.get("better").and_then(Json::as_str) == Some("higher"),
                bound: r
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn fmt(values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    format!("{med:.4} [{q1:.4}, {q3:.4}]")
}

fn change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

/// Prints the comparison of result directories `a` and `b` under the
/// bounds of `spec`; returns how many end-to-end metrics regressed.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<usize, String> {
    let (set_a, set_b, bounds) = (load(a)?, load(b)?, load_bounds(spec)?);
    let mut flagged = 0;
    for (workload, ma) in &set_a {
        let Some(mb) = set_b.get(workload) else {
            println!("== {workload}: only in A ==");
            continue;
        };
        println!("== {workload} ==");
        println!(
            "{:<28} {:>34} {:>34} {:>9}",
            "end-to-end", "A median [q1, q3]", "B median [q1, q3]", "change"
        );
        let mut e2e_names = vec!["failed_frac".to_string()];
        for bound in &bounds {
            e2e_names.push(bound.name.clone());
            let (Some(va), Some(vb)) = (ma.get(&bound.name), mb.get(&bound.name)) else {
                continue;
            };
            let delta = change(median(va), median(vb));
            let worse = if bound.higher_is_better {
                -delta
            } else {
                delta
            };
            let flag = if worse > bound.bound {
                flagged += 1;
                format!("  REGRESSED beyond {:.0}%", bound.bound * 100.0)
            } else {
                String::new()
            };
            println!(
                "{:<28} {:>34} {:>34} {:>+8.1}%{flag}",
                bound.name,
                fmt(va),
                fmt(vb),
                delta * 100.0
            );
        }
        if let (Some(va), Some(vb)) = (ma.get("failed_frac"), mb.get("failed_frac")) {
            let flag = if median(vb) > median(va) {
                "  MORE FAILURES"
            } else {
                ""
            };
            println!(
                "{:<28} {:>34} {:>34} {:>9}{flag}",
                "failed_frac",
                fmt(va),
                fmt(vb),
                ""
            );
        }
        let mut layers: Vec<(&String, f64, &Vec<f64>, &Vec<f64>)> = ma
            .iter()
            .filter(|(k, _)| !e2e_names.contains(k))
            .filter_map(|(k, va)| {
                mb.get(k)
                    .map(|vb| (k, change(median(va), median(vb)), va, vb))
            })
            .filter(|(_, d, _, _)| *d != 0.0)
            .collect();
        layers.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()));
        if !layers.is_empty() {
            println!(
                "{:<28} {:>34} {:>34} {:>9}",
                "per-layer (largest moves)", "", "", ""
            );
            for (k, d, va, vb) in layers.into_iter().take(TOP_LAYERS) {
                println!(
                    "{k:<28} {:>34} {:>34} {:>+8.1}%",
                    fmt(va),
                    fmt(vb),
                    d * 100.0
                );
            }
        }
        println!();
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]),
            (2.75, 5.5, 8.25)
        );
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3., 1., 2.]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
