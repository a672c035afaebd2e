//! `fc-benchmark compare`: judges one set of result files against
//! another with the bounds of `BENCHMARK.json`, one row per (workload,
//! metric), every ratio with its base.
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the runs spread wider than the bound, so neither
//!   "unchanged" nor "regressed" can be claimed (unless every run of B
//!   sits on one side of every run of A);
//! * `changed` — the medians differ by more than the runs spread (and
//!   more than half the bound), within the bound if for the worse;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::harness::{iqr_share, median};
use crate::json::Value;
use crate::metrics::{Better, END_TO_END, PER_LAYER};

/// Metrics that are counts of a deterministic program: an A/A pair
/// must print them identically.
const EXACT: [&str; 2] = ["sim_cycles_per_op", "virtual_us_per_op"];

/// Share by which `allocs_per_op` may differ in an A/A pair. It is a
/// count too, but not quite a deterministic one: a receive that has to
/// block registers a waker, which allocates, and whether the generator
/// blocks at a window boundary depends on where a timer tick falls — a
/// handful of allocations in two million per round.
const ALLOCS_AA_SHARE: f64 = 5e-4;

/// Verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound and the noise.
    Unchanged,
    /// Moved by more than the noise, not worse than the bound.
    Changed,
    /// Worse than the bound.
    Regressed,
    /// The noise is wider than the bound.
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Unchanged => "unchanged",
            Status::Changed => "changed",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Median of set A (the base of the ratio).
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// Wider of the two sets' run-to-run spreads, as a share.
    pub spread: f64,
    /// Verdict.
    pub status: Status,
}

/// Run-to-run spread of one side: quartile distance over the median
/// from four runs up, the full range below that, 0 for a single run.
fn spread_of(values: &[f64]) -> f64 {
    if let Some(share) = iqr_share(values) {
        return share;
    }
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    (hi - lo) / med.abs()
}

/// Judges B against A for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Row {
    let (ma, mb) = (median(a), median(b));
    let delta = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (mb - ma) / ma.abs()
    };
    let worse = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let spread = spread_of(a).max(spread_of(b));
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    // Every run of one set beyond every run of the other.
    let separated = max(a) < min(b) || max(b) < min(a);
    let status = match bound {
        Some(bound) if worse > bound && (spread <= bound || separated) => Status::Regressed,
        Some(bound) if worse > bound => Status::Unresolved,
        Some(bound) if spread > bound && !separated => Status::Unresolved,
        Some(bound) if delta.abs() > spread.max(bound / 2.0) => Status::Changed,
        None if delta.abs() > spread && delta != 0.0 => Status::Changed,
        _ => Status::Unchanged,
    };
    Row {
        a: ma,
        b: mb,
        spread,
        status,
    }
}

/// `workload → metric → values`, plus attempted/failed per workload.
#[derive(Default)]
struct ResultSet {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: BTreeMap<String, f64>,
    failed: BTreeMap<String, f64>,
    files: usize,
}

fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        Ok(files)
    } else {
        Ok(vec![path.to_owned()])
    }
}

fn load(paths: &[String]) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for path in paths {
        for file in result_files(Path::new(path))? {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let workload = doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{}: no workload", file.display()))?
                .to_owned();
            let number = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            *set.attempted.entry(workload.clone()).or_default() += number("attempted");
            *set.failed.entry(workload.clone()).or_default() += number("failed");
            let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
            for (name, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                    set.metrics
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
            set.files += 1;
        }
    }
    if set.files == 0 {
        return Err(format!("no result files under {paths:?}"));
    }
    Ok(set)
}

/// `metric → bound` from the `end_to_end` list of `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text)?;
    let listed = doc.get("end_to_end").and_then(Value::as_arr).unwrap_or(&[]);
    Ok(listed
        .iter()
        .filter_map(|m| {
            let name = m.get("name").and_then(Value::as_str)?;
            Some((name.to_owned(), m.get("bound").and_then(Value::as_f64)?))
        })
        .collect())
}

/// Entry point of the subcommand.
pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let aa = args.iter().any(|a| a == "--aa");
    let paths: Vec<String> = args.iter().filter(|a| *a != "--aa").cloned().collect();
    let split = paths
        .iter()
        .position(|a| a == "--")
        .ok_or("compare: separate the two result sets with `--`")?;
    let (a, b) = (load(&paths[..split])?, load(&paths[split + 1..])?);
    let bounds = bounds()?;
    let mut bad = Vec::new();
    println!(
        "{:<18} {:<42} {:>14} {:>14} {:>8} {:>8} {:>7}  status",
        "workload", "metric", "A (median)", "B (median)", "B/A", "spread%", "bound%"
    );
    for (workload, metrics) in &a.metrics {
        for (name, va) in metrics {
            let Some(vb) = b.metrics.get(workload).and_then(|m| m.get(name)) else {
                continue;
            };
            let better = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|m| m.name == name)
                .map_or(Better::Lower, |m| m.better);
            let bound = bounds.get(name).copied();
            let row = judge(va, vb, better, bound);
            println!(
                "{:<18} {:<42} {:>14.4} {:>14.4} {:>8.4} {:>8.3} {:>7}  {}",
                workload,
                name,
                row.a,
                row.b,
                if row.a == 0.0 { 1.0 } else { row.b / row.a },
                row.spread * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.2}", b * 100.0)),
                row.status.as_str()
            );
            if matches!(row.status, Status::Regressed) {
                bad.push(format!("{workload}/{name}: regressed"));
            }
            if aa {
                // Two builds of one source: timing rows agree within
                // half their bound, counts to the printed digit.
                if matches!(row.status, Status::Unresolved) {
                    bad.push(format!("{workload}/{name}: unresolved"));
                }
                let delta = if row.a == 0.0 {
                    0.0
                } else {
                    (row.b - row.a).abs() / row.a.abs()
                };
                if EXACT.contains(&name.as_str()) && row.a != row.b {
                    bad.push(format!(
                        "{workload}/{name}: {} vs {} (must be identical)",
                        row.a, row.b
                    ));
                } else if name == "allocs_per_op" && delta > ALLOCS_AA_SHARE {
                    bad.push(format!("{workload}/{name}: {} vs {}", row.a, row.b));
                } else if END_TO_END.iter().any(|m| m.name == name)
                    && bound.is_some_and(|b| delta > b / 2.0)
                {
                    bad.push(format!(
                        "{workload}/{name}: differs by {:.2} %",
                        delta * 100.0
                    ));
                }
            }
        }
        let share = |set: &ResultSet| {
            set.failed.get(workload).copied().unwrap_or(0.0)
                / set.attempted.get(workload).copied().unwrap_or(0.0).max(1.0)
        };
        if share(&b) > share(&a) {
            bad.push(format!(
                "{workload}: failed share rose from {} to {}",
                share(&a),
                share(&b)
            ));
        }
    }
    println!("{} result file(s) in A, {} in B", a.files, b.files);
    if bad.is_empty() {
        println!("compare: ok");
        Ok(ExitCode::SUCCESS)
    } else {
        for line in &bad {
            println!("compare: {line}");
        }
        Ok(ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = Better::Lower;
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same numbers: unchanged.
        assert_eq!(
            judge(&base, &base, lower, Some(0.05)).status,
            Status::Unchanged
        );
        // 2 % worse with 1.5 % spread and a 5 % bound: within half the
        // bound, unchanged; 4 % worse: changed but not regressed.
        let b2: Vec<f64> = base.iter().map(|v| v * 1.02).collect();
        assert_eq!(
            judge(&base, &b2, lower, Some(0.05)).status,
            Status::Unchanged
        );
        let b4: Vec<f64> = base.iter().map(|v| v * 1.04).collect();
        assert_eq!(judge(&base, &b4, lower, Some(0.05)).status, Status::Changed);
        // 8 % worse: regressed; 8 % better on a higher-is-better
        // metric: changed, never regressed.
        let b8: Vec<f64> = base.iter().map(|v| v * 1.08).collect();
        let row = judge(&base, &b8, lower, Some(0.05));
        assert_eq!(row.status, Status::Regressed);
        assert!((row.b / row.a - 1.08).abs() < 1e-9);
        assert_eq!(
            judge(&base, &b8, Better::Higher, Some(0.05)).status,
            Status::Changed
        );
        assert_eq!(
            judge(&b8, &base, Better::Higher, Some(0.05)).status,
            Status::Regressed
        );
        // Spread wider than the bound with overlapping runs: unresolved,
        // whichever way the medians lean.
        let noisy_a = [100.0, 120.0, 90.0, 110.0, 95.0];
        let noisy_b = [104.0, 125.0, 92.0, 118.0, 99.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, lower, Some(0.05)).status,
            Status::Unresolved
        );
        // ... unless every run of B beats every run of A.
        let clear_b = [60.0, 70.0, 65.0, 62.0, 68.0];
        assert_eq!(
            judge(&noisy_a, &clear_b, lower, Some(0.05)).status,
            Status::Changed
        );
        // No bound (per-layer): never regressed.
        assert_eq!(judge(&base, &b8, lower, None).status, Status::Changed);
        // Single runs: judged by the bound alone.
        assert_eq!(
            judge(&[100.0], &[101.0], lower, Some(0.05)).status,
            Status::Unchanged
        );
        assert_eq!(
            judge(&[100.0], &[106.0], lower, Some(0.05)).status,
            Status::Regressed
        );
        assert_eq!(
            judge(&[0.0], &[0.0], lower, Some(0.05)).status,
            Status::Unchanged
        );
    }
}
