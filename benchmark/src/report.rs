//! Result files: host facts, the per-run record, the suite ledger that
//! `--all` writes, and the two readers of those files — `compare` and
//! `validate`.

use crate::json::{self, Json};
use crate::spec::{self, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Facts about the machine and build that decide whether two results may
/// be compared at all.
pub fn host_facts() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unknown".to_string(), |g| g.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::object([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("governor", Json::Str(governor)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
    ])
}

/// The commit of the tree being measured, when it is a git checkout.
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::object([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The one-line result the driver reads from the end of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

pub fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_file(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_values(block: Option<&Json>) -> BTreeMap<String, f64> {
    block
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// `compare <base.json> <new.json>` over two suite ledgers: per workload ×
/// end-to-end metric prints base, new, their ratio, and whether the new
/// value is worse than the base by more than the metric's bound. Returns
/// how many pairs exceeded their bound.
pub fn compare(base_path: &str, new_path: &str) -> Result<usize, String> {
    let base = read_file(base_path)?;
    let new = read_file(new_path)?;
    for fact in ["host", "seconds"] {
        let (a, b) = (base.get(fact), new.get(fact));
        if a.is_none() || a != b {
            return Err(format!(
                "refusing to compare: `{fact}` differs\n  {base_path}: {}\n  {new_path}: {}",
                a.map_or("missing".to_string(), Json::render),
                b.map_or("missing".to_string(), Json::render),
            ));
        }
    }
    println!(
        "base {base_path} (commit {}, seed {})",
        base.get("git_commit").and_then(Json::as_str).unwrap_or("?"),
        base.get("seed").map_or("?".to_string(), Json::render),
    );
    println!(
        "new  {new_path} (commit {}, seed {})",
        new.get("git_commit").and_then(Json::as_str).unwrap_or("?"),
        new.get("seed").map_or("?".to_string(), Json::render),
    );
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut exceeded = 0;
    for workload in &spec::WORKLOADS {
        let side = |doc: &Json| {
            metric_values(
                doc.get("workloads")
                    .and_then(|w| w.get(workload.name))
                    .and_then(|w| w.get("end_to_end")),
            )
        };
        let (base_metrics, new_metrics) = (side(&base), side(&new));
        for metric in &spec::END_TO_END {
            let (Some(&a), Some(&b)) =
                (base_metrics.get(metric.name), new_metrics.get(metric.name))
            else {
                return Err(format!(
                    "{}/{} is missing from a ledger",
                    workload.name, metric.name
                ));
            };
            let worse_by = match metric.better {
                Better::Lower => b / a - 1.0,
                Better::Higher => 1.0 - b / a,
            };
            let verdict = if worse_by > metric.bound {
                exceeded += 1;
                "EXCEEDS BOUND"
            } else {
                "within"
            };
            println!(
                "{:<18} {:<20} {:>12.4} {:>12.4} {:>8.4} {:>6.2}  {verdict}",
                workload.name,
                metric.name,
                a,
                b,
                b / a,
                metric.bound
            );
        }
    }
    println!("{exceeded} pair(s) exceed their bound (base of every ratio: {base_path})");
    Ok(exceeded)
}

/// Checks one block of metrics: exactly the `expected` names, every name
/// well formed, every value a finite non-negative number, and — where
/// `nonzero` — not zero either.
fn validate_block<'a>(
    at: &str,
    block: Option<&Json>,
    expected: impl Iterator<Item = &'a str>,
    nonzero: bool,
    problems: &mut Vec<String>,
) {
    let Some(block) = block else {
        return problems.push(format!("{at}: missing"));
    };
    let expected: Vec<&str> = expected.collect();
    let names: Vec<&str> = block
        .fields()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    if names != expected {
        problems.push(format!(
            "{at}: metric names differ from BENCHMARK.json (got {}, want {})",
            names.len(),
            expected.len()
        ));
    }
    for (name, metric) in block.fields() {
        if !spec::valid_name(name) {
            problems.push(format!("{at}: bad metric name {name:?}"));
        }
        match metric.get("value").and_then(Json::as_f64) {
            None => problems.push(format!("{at}/{name}: value is not a number (NaN?)")),
            Some(v) if v < 0.0 => problems.push(format!("{at}/{name}: negative ({v})")),
            Some(v) if nonzero && v == 0.0 => problems.push(format!("{at}/{name}: zero")),
            Some(_) => {}
        }
    }
}

fn validate_counts(at: &str, run: &Json, problems: &mut Vec<String>) {
    if run.get("correct") != Some(&Json::Bool(true)) {
        problems.push(format!("{at}: output checks failed"));
    }
    if run.get("failed").and_then(Json::as_f64) != Some(0.0) {
        problems.push(format!("{at}: failed operations (failed_fraction != 0)"));
    }
    if run
        .get("attempted")
        .and_then(Json::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        problems.push(format!("{at}: nothing attempted"));
    }
}

/// `validate <file>`: a suite ledger (`--all`) or a single run's record
/// carries exactly the metric names of `BENCHMARK.json`, well-formed,
/// with no NaN, negative or (for end-to-end and probe metrics) zero
/// value, and no failed operation. Returns the problems found.
pub fn validate(path: &str) -> Result<Vec<String>, String> {
    let doc = read_file(path)?;
    let mut problems = Vec::new();
    let e2e = || spec::END_TO_END.iter().map(|m| m.name);
    if let Some(workloads) = doc.get("workloads") {
        let names: Vec<&str> = workloads.fields().iter().map(|(n, _)| n.as_str()).collect();
        if names != spec::WORKLOADS.map(|w| w.name) {
            problems.push(format!("workloads differ from BENCHMARK.json: {names:?}"));
        }
        for (name, run) in workloads.fields() {
            validate_counts(name, run, &mut problems);
            validate_block(
                &format!("{name}/end_to_end"),
                run.get("end_to_end"),
                e2e(),
                true,
                &mut problems,
            );
            validate_block(
                &format!("{name}/per_layer"),
                run.get("per_layer"),
                spec::TRACED.iter().map(|m| m.name),
                false,
                &mut problems,
            );
        }
        validate_block(
            "layers",
            doc.get("layers"),
            spec::PROBES.iter().map(|m| m.name),
            true,
            &mut problems,
        );
    } else {
        validate_counts("run", &doc, &mut problems);
        let traced = doc.get("trace") == Some(&Json::Bool(true));
        if traced {
            validate_block(
                "metrics",
                doc.get("metrics"),
                spec::per_layer().map(|m| m.name),
                false,
                &mut problems,
            );
        } else {
            validate_block("metrics", doc.get("metrics"), e2e(), true, &mut problems);
        }
    }
    Ok(problems)
}
