//! `compare <a.json> <b.json>`: is run set B worse than run set A?
//!
//! Per workload and end-to-end metric, both sets' medians and quartiles
//! and one of three verdicts:
//!
//! * `ok` — B's median is not worse than A's by more than the metric's
//!   bound;
//! * `regressed` — it is;
//! * `unresolved` — either set's inter-quartile spread is wider than the
//!   bound, so these runs cannot tell. Never read it as "unchanged":
//!   measure again with more repeats or a quieter machine.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;
use std::process::ExitCode;

/// The values of one metric on one workload across a run set.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn total(doc: &Json, workload: &str, key: &str) -> f64 {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload)?.get(key)?.as_f64())
        .sum()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and, from two values up, the quartiles.
fn summary(xs: &[f64]) -> (f64, Option<(f64, f64)>) {
    match stats::quartiles(xs) {
        Some((q1, med, q3)) => (med, Some((q1, q3))),
        None => (stats::median(xs), None),
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, iqr_a) = summary(a);
    let (med_b, iqr_b) = summary(b);
    let wide = |med: f64, iqr: Option<(f64, f64)>| {
        iqr.is_some_and(|(q1, q3)| (q3 - q1) > def.bound * med.abs())
    };
    if wide(med_a, iqr_a) || wide(med_b, iqr_b) {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => med_b - med_a,
        Better::Higher => med_a - med_b,
    };
    if worse_by > def.bound * med_a.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn show(xs: &[f64]) -> String {
    match (summary(xs), stats::spread(xs)) {
        ((med, Some((q1, q3))), Some(spread)) => {
            format!("{med:>12.4} [{q1:.4} .. {q3:.4}, {:.1} %]", spread * 100.0)
        }
        ((med, _), _) => format!("{med:>12.4} [n={}]", xs.len()),
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: {} {}",
            if label == "A" { path_a } else { path_b },
            doc.get("machine").map_or_else(String::new, Json::render)
        );
    }
    if a.get("machine") != b.get("machine") {
        println!("note: the two sets differ in machine, build or commit");
    }
    let mut bad = false;
    for workload in crate::workloads::NAMES {
        println!("\n{workload}");
        for def in END_TO_END {
            let (va, vb) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{} is missing from a run set", def.name));
            }
            let verdict = judge(def, &va, &vb);
            bad |= verdict == Verdict::Regressed;
            println!(
                "  {:<16} {:<5} A {}   B {}   {} is better, bound {:.0} %   {}",
                def.name,
                def.unit,
                show(&va),
                show(&vb),
                def.better.name(),
                def.bound * 100.0,
                verdict.name()
            );
        }
        for (label, doc) in [("A", &a), ("B", &b)] {
            let (attempted, failed) = (
                total(doc, workload, "attempted"),
                total(doc, workload, "failed"),
            );
            println!(
                "  {label}: ops_attempted {attempted}  ops_failed {failed}  fail_ratio {:.6}",
                failed / attempted.max(1.0)
            );
            bad |= failed > 0.0;
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let qps = find("queries_per_s").unwrap(); // higher is better
        let p50 = find("query_p50_ms").unwrap(); // lower is better
        assert_eq!(qps.bound, p50.bound);
        let scaled = |f: f64| [100.0 * f, 101.0 * f, 99.0 * f, 100.5 * f, 99.5 * f];
        let steady = scaled(1.0);
        let lower = scaled(1.0 - qps.bound - 0.02);
        let higher = scaled(1.0 + qps.bound + 0.02);
        let within = scaled(1.0 + qps.bound - 0.02);
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(qps, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(qps, &steady, &higher), Verdict::Ok);
        assert_eq!(judge(qps, &steady, &lower), Verdict::Regressed);
        assert_eq!(judge(p50, &steady, &lower), Verdict::Ok);
        assert_eq!(judge(p50, &steady, &within), Verdict::Ok);
        assert_eq!(judge(p50, &steady, &higher), Verdict::Regressed);
        // A wide spread on either side is never "ok".
        assert_eq!(judge(qps, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(qps, &noisy, &steady), Verdict::Unresolved);
        // Single runs have no spread: judged on the values alone.
        assert_eq!(
            judge(p50, &[100.0], &[100.0 + 90.0 * p50.bound]),
            Verdict::Ok
        );
        assert_eq!(
            judge(p50, &[100.0], &[100.0 + 110.0 * p50.bound]),
            Verdict::Regressed
        );
    }

    #[test]
    fn values_are_read_per_workload_and_metric() {
        let doc = Json::parse(
            r#"{"runs": [
                {"seed": 1, "workloads": {"match-enum": {"attempted": 10, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}},
                {"seed": 2, "workloads": {"match-enum": {"attempted": 12, "failed": 1,
                    "metrics": {"setup_s": {"value": 0.75, "unit": "s"}}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "match-enum", "setup_s"), vec![0.5, 0.75]);
        assert!(values(&doc, "serve-hot", "setup_s").is_empty());
        assert_eq!(total(&doc, "match-enum", "attempted"), 22.0);
        assert_eq!(total(&doc, "match-enum", "failed"), 1.0);
    }
}
