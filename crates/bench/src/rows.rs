//! The paper's row and curve formats, their text tables, and their JSON
//! encodings for the `artifacts` of the `BENCH_*.json` reports.

use fbuf_sim::{Json, ToJson};

/// One mechanism row of Table 1.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Mechanism name as the paper labels it.
    pub mechanism: String,
    /// Incremental per-page cost in microseconds.
    pub per_page_us: f64,
    /// Asymptotic throughput in Mb/s (page bits / per-page cost).
    pub mbps: f64,
}

impl CostRow {
    /// Builds a row from a per-page cost, deriving the asymptotic
    /// throughput for a 4 KB page.
    pub fn new(mechanism: &str, per_page_us: f64) -> CostRow {
        CostRow {
            mechanism: mechanism.to_string(),
            per_page_us,
            mbps: 4096.0 * 8.0 / per_page_us,
        }
    }
}

impl ToJson for CostRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mechanism", self.mechanism.to_json()),
            ("per_page_us", self.per_page_us.to_json()),
            ("mbps", self.mbps.to_json()),
        ])
    }
}

/// One point of a throughput-vs-size curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Message size in bytes.
    pub size: u64,
    /// Throughput in Mb/s.
    pub mbps: f64,
}

/// A named curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// The series.
    pub points: Vec<CurvePoint>,
}

impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("size", self.size.to_json()),
            ("mbps", self.mbps.to_json()),
        ])
    }
}

impl ToJson for Curve {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

/// Prints a set of curves as an aligned text table (sizes down, curves
/// across).
pub fn print_curves(title: &str, curves: &[Curve]) {
    println!("\n== {title} ==");
    print!("{:>10}", "size");
    for c in curves {
        print!("  {:>24}", c.label);
    }
    println!();
    let n = curves.first().map(|c| c.points.len()).unwrap_or(0);
    for i in 0..n {
        print!("{:>10}", human_size(curves[0].points[i].size));
        for c in curves {
            print!("  {:>19.1} Mb/s", c.points[i].mbps);
        }
        println!();
    }
}

/// Prints Table-1-style cost rows.
pub fn print_cost_rows(title: &str, rows: &[CostRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>18} {:>22}",
        "mechanism", "per-page cost", "asymptotic throughput"
    );
    for r in rows {
        println!(
            "{:<28} {:>12.2} us/page {:>17.0} Mb/s",
            r.mechanism, r.per_page_us, r.mbps
        );
    }
}

/// Human-readable byte size.
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_row_derives_throughput() {
        let r = CostRow::new("x", 3.0);
        assert!((r.mbps - 10_922.0).abs() < 1.0);
    }

    #[test]
    fn rows_encode_to_json_and_back() {
        let row = CostRow::new("fbufs, cached/volatile", 3.0);
        let doc = Json::parse(&row.to_json().render()).unwrap();
        assert_eq!(
            doc.get("mechanism").unwrap().as_str(),
            Some("fbufs, cached/volatile")
        );
        assert_eq!(doc.get("per_page_us").unwrap().as_f64(), Some(3.0));
        let curve = Curve {
            label: "user-user".to_string(),
            points: vec![CurvePoint {
                size: 4096,
                mbps: 284.7,
            }],
        };
        let doc = Json::parse(&curve.to_json().render()).unwrap();
        let pt = &doc.get("points").unwrap().as_arr().unwrap()[0];
        assert_eq!(pt.get("size").unwrap().as_f64(), Some(4096.0));
        assert_eq!(pt.get("mbps").unwrap().as_f64(), Some(284.7));
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(512), "512B");
        assert_eq!(human_size(8192), "8KB");
        assert_eq!(human_size(2 << 20), "2MB");
    }
}
