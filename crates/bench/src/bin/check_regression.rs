//! `check_regression` — gate CI on `RESULT` lines from the perf benchmarks.
//!
//! Reads bench output from stdin, extracts every `RESULT <id> <json>` line,
//! and compares the metrics named in a baseline file against their recorded
//! floors/ceilings. A higher-is-better metric regresses when it drops below
//! `baseline / factor`; a lower-is-better metric regresses when it exceeds
//! `baseline * factor` (factor defaults to 2, i.e. a >2× regression fails).
//!
//! Baseline format (JSON, one entry per RESULT id):
//!
//! ```json
//! {
//!   "perf_trace_ingest": {
//!     "metric": "serial_events_per_sec",
//!     "direction": "higher",
//!     "baseline": 100000.0
//!   }
//! }
//! ```
//!
//! Entries may also carry informational fields (ignored here) such as the
//! measured value the baseline was derived from. A gated id with no RESULT
//! line carrying its metric fails, so a bench that stops reporting cannot
//! pass silently; a malformed baseline file fails too.
//!
//! Usage: `cargo bench ... | cargo run -p tracer-bench --bin check_regression -- BENCH.json`

use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

struct Check {
    metric: String,
    direction: Direction,
    baseline: f64,
    factor: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Higher,
    Lower,
}

fn as_str(value: Option<&serde_json::Value>) -> Option<&str> {
    match value {
        Some(serde_json::Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn parse_baselines(raw: &str) -> Result<HashMap<String, Check>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(raw).map_err(|e| format!("baseline file is not JSON: {e}"))?;
    let serde_json::Value::Map(entries) = doc else {
        return Err("baseline file must be a JSON object".to_string());
    };
    let mut checks = HashMap::new();
    for (id, spec) in &entries {
        let metric =
            as_str(spec.get("metric")).ok_or_else(|| format!("{id}: missing \"metric\""))?;
        let direction = match as_str(spec.get("direction")) {
            Some("higher") => Direction::Higher,
            Some("lower") => Direction::Lower,
            other => return Err(format!("{id}: direction must be higher/lower, got {other:?}")),
        };
        let baseline = spec
            .get("baseline")
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{id}: missing numeric \"baseline\""))?;
        let factor = spec.get("factor").and_then(serde_json::Value::as_f64).unwrap_or(2.0);
        // NaN must be rejected too, hence the explicit is_nan checks.
        if baseline.is_nan() || baseline <= 0.0 || factor.is_nan() || factor < 1.0 {
            return Err(format!("{id}: baseline must be > 0 and factor >= 1"));
        }
        checks
            .insert(id.clone(), Check { metric: metric.to_string(), direction, baseline, factor });
    }
    Ok(checks)
}

fn results_from(input: &str) -> HashMap<String, serde_json::Value> {
    let mut results = HashMap::new();
    for line in input.lines() {
        let Some(rest) = line.trim().strip_prefix("RESULT ") else { continue };
        let Some((id, json)) = rest.split_once(' ') else { continue };
        if let Ok(value) = serde_json::from_str::<serde_json::Value>(json) {
            // Later lines win: reruns within one bench invocation supersede.
            results.insert(id.to_string(), value);
        }
    }
    results
}

/// Judge every gated id against `results`, in id order: one report line per
/// id, plus whether any failed.
fn evaluate(
    checks: &HashMap<String, Check>,
    results: &HashMap<String, serde_json::Value>,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut failed = false;
    let mut ids: Vec<&String> = checks.keys().collect();
    ids.sort();
    for id in ids {
        let check = &checks[id];
        let Some(value) =
            results.get(id).and_then(|r| r.get(&check.metric)).and_then(serde_json::Value::as_f64)
        else {
            lines.push(format!("FAIL  {id}: no RESULT line carrying {:?}", check.metric));
            failed = true;
            continue;
        };
        let (ok, bound) = match check.direction {
            Direction::Higher => {
                (value >= check.baseline / check.factor, check.baseline / check.factor)
            }
            Direction::Lower => {
                (value <= check.baseline * check.factor, check.baseline * check.factor)
            }
        };
        if ok {
            lines.push(format!("OK    {id}: {} = {value:.3} (bound {bound:.3})", check.metric));
        } else {
            lines.push(format!(
                "FAIL  {id}: {} = {value:.3} regressed past {bound:.3} \
                 (baseline {:.3}, factor {})",
                check.metric, check.baseline, check.factor
            ));
            failed = true;
        }
    }
    (lines, failed)
}

fn main() -> ExitCode {
    let Some(baseline_path) = std::env::args().nth(1) else {
        eprintln!("usage: check_regression <baseline.json>  (bench output on stdin)");
        return ExitCode::FAILURE;
    };
    let raw = match std::fs::read_to_string(&baseline_path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("check_regression: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checks = match parse_baselines(&raw) {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("check_regression: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        eprintln!("check_regression: failed to read stdin");
        return ExitCode::FAILURE;
    }
    let (lines, failed) = evaluate(&checks, &results_from(&input));
    for line in lines {
        println!("{line}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINES: &str = r#"{
        "fast": {"metric": "events_per_sec", "direction": "higher", "baseline": 100.0},
        "slow": {"metric": "seconds", "direction": "lower", "baseline": 1.0, "factor": 1.5}
    }"#;

    fn judge(bench_output: &str) -> (Vec<String>, bool) {
        let checks = parse_baselines(BASELINES).unwrap();
        evaluate(&checks, &results_from(bench_output))
    }

    #[test]
    fn missing_id_fails() {
        let (lines, failed) = judge("RESULT fast {\"events_per_sec\": 100.0}\n");
        assert!(failed);
        assert!(lines.iter().any(|l| l.starts_with("FAIL  slow: no RESULT line")), "{lines:?}");
        // A line for the id without the gated metric is as good as missing.
        let (_, failed) =
            judge("RESULT fast {\"events_per_sec\": 100.0}\nRESULT slow {\"x\": 1}\n");
        assert!(failed);
    }

    #[test]
    fn higher_is_better_bound_is_baseline_over_factor() {
        let pass = "RESULT fast {\"events_per_sec\": 50.0}\nRESULT slow {\"seconds\": 1.0}\n";
        assert!(!judge(pass).1);
        let fail = "RESULT fast {\"events_per_sec\": 49.9}\nRESULT slow {\"seconds\": 1.0}\n";
        let (lines, failed) = judge(fail);
        assert!(failed);
        assert!(lines.iter().any(|l| l.starts_with("FAIL  fast: events_per_sec")), "{lines:?}");
    }

    #[test]
    fn lower_is_better_bound_is_baseline_times_factor() {
        let pass = "RESULT fast {\"events_per_sec\": 100.0}\nRESULT slow {\"seconds\": 1.5}\n";
        assert!(!judge(pass).1);
        let fail = "RESULT fast {\"events_per_sec\": 100.0}\nRESULT slow {\"seconds\": 1.51}\n";
        let (lines, failed) = judge(fail);
        assert!(failed);
        assert!(lines.iter().any(|l| l.starts_with("FAIL  slow: seconds")), "{lines:?}");
    }

    #[test]
    fn later_result_line_wins() {
        let rerun = "RESULT fast {\"events_per_sec\": 1.0}\n\
                     RESULT slow {\"seconds\": 1.0}\n\
                     RESULT fast {\"events_per_sec\": 100.0}\n";
        assert!(!judge(rerun).1);
        let regressed = "RESULT fast {\"events_per_sec\": 100.0}\n\
                         RESULT slow {\"seconds\": 1.0}\n\
                         RESULT fast {\"events_per_sec\": 1.0}\n";
        assert!(judge(regressed).1);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        for bad in [
            "not json",
            "[1, 2]",
            r#"{"a": {"direction": "higher", "baseline": 1.0}}"#,
            r#"{"a": {"metric": "m", "direction": "sideways", "baseline": 1.0}}"#,
            r#"{"a": {"metric": "m", "direction": "higher"}}"#,
            r#"{"a": {"metric": "m", "direction": "higher", "baseline": 0.0}}"#,
            r#"{"a": {"metric": "m", "direction": "lower", "baseline": 1.0, "factor": 0.5}}"#,
        ] {
            assert!(parse_baselines(bad).is_err(), "accepted {bad}");
        }
    }
}
