//! The repro header, the result file, the span file and the result line.

use std::path::{Path, PathBuf};

use fbuf_sim::{Json, ToJson};

use crate::probe::Probe;
use crate::runner::{Metric, Outcome};

/// The seed reserved for confirming a claimed gain: never use it while
/// developing a change.
pub const HELD_OUT_SEED: u64 = 0x05ee_d0ff_1993;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(reference) {
        return commit.trim().to_string();
    }
    read("packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Seed, workload parameters, machine geometry, build and host.
pub fn repro(req: &Request, outcome: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj(vec![
        ("workload", req.workload.to_json()),
        ("seed", req.seed.to_json()),
        ("held_out_seed", HELD_OUT_SEED.to_json()),
        ("run_seconds", req.seconds.to_json()),
        ("trace", req.trace.to_json()),
        ("params", outcome.describe.clone()),
        (
            "inputs_digest",
            format!("{:016x}", outcome.inputs_digest).to_json(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_json(),
        ),
        ("nproc", nproc.to_json()),
        ("cpu_model", cpu_model().to_json()),
        ("git_commit", git_commit().to_json()),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", m.value.to_json()),
                    ("unit", m.unit.to_json()),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// this mode (end-to-end untraced, per-layer traced). `failed` counts
/// transfers that failed or did not verify; arrivals the admission
/// policy dropped are outcomes, counted in `failed_frac` of the result
/// file.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", outcome.error.is_none().to_json()),
        ("attempted", outcome.total.attempted.max(1).to_json()),
        ("failed", outcome.total.failed.to_json()),
        ("metrics", metrics_json(metrics)),
    ])
}

fn spans_json(probe: &Probe) -> Json {
    let (spans, dropped) = probe.spans();
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", s.id.to_json()),
                ("parent", s.parent.to_json()),
                ("name", s.layer.name().to_json()),
                ("transfer", s.transfer.to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("spans", Json::Arr(rows)),
        ("not_kept", dropped.to_json()),
    ])
}

/// Writes the full result (and, traced, the kept spans) under the
/// request's output directory; returns the result file's path.
pub fn write(req: &Request, outcome: &Outcome, line: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&req.out_dir).map_err(|e| format!("{}: {e}", req.out_dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{}-s{}-t{}-{stamp}-{}",
        req.workload,
        req.seed,
        u8::from(req.trace),
        std::process::id()
    );
    let (untraced, traced, latency_samples) = outcome.samples();
    let doc = Json::obj(vec![
        ("repro", repro(req, outcome)),
        ("result", line.clone()),
        ("failed_frac", outcome.failed_frac().to_json()),
        (
            "error",
            outcome.error.clone().map_or(Json::Null, |e| e.to_json()),
        ),
        ("setup_s", outcome.setup_s.to_json()),
        ("rounds_untraced", untraced.to_json()),
        ("rounds_traced", traced.to_json()),
        ("latency_samples", latency_samples.to_json()),
        ("cpus", outcome.cpus.to_json()),
        ("exact_transfers", outcome.exact_round.transfers.to_json()),
    ]);
    let path = req.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    if req.trace {
        let spans = req.out_dir.join(format!("spans-{stem}.json"));
        std::fs::write(&spans, spans_json(&outcome.probe).render())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    Ok(path)
}
