//! The gateway benchmark: builds the real gateway in-process, drives it
//! from outside through its public API, checks every output, and prints
//! every metric as `name value unit`. See `README.md` beside this package.
//!
//! ```text
//! gateway_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gateway_benchmark --all [--seed <n>] [--seconds <s>] [--smoke] [--label <name>]
//! gateway_benchmark --layers [--smoke]
//! gateway_benchmark compare <base.json> <new.json>
//! gateway_benchmark validate <result.json>...
//! gateway_benchmark print-spec
//! ```

mod fixture;
mod gen;
mod inproc;
mod json;
mod probes;
mod report;
mod socket;
mod spec;
mod stats;
mod trace;

use fixture::Outcome;
use json::Json;
use probes::Budget;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-up is repeated this often per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// `--smoke`: every phase a fiftieth of the default length.
const SMOKE_SECONDS: f64 = spec::RUN_SECONDS as f64 / 50.0;
/// The host runs about a tenth slower straight after a build, so the
/// suite lets it settle before the first measurement.
const SETTLE: Duration = Duration::from_secs(5);
/// Spans kept per thread in a trace file; the summary uses all of them.
const TRACE_FILE_SPANS: usize = 20_000;

/// What one workload run is asked to do.
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Taken first thing in `main`: `setup_s` counts from here.
    pub process_start: Instant,
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
    layers: bool,
    probes: bool,
    label: String,
    out_dir: PathBuf,
    rest: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 12,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        all: false,
        layers: false,
        probes: true,
        label: "run".to_string(),
        out_dir: PathBuf::from("benchmark/out"),
        rest: Vec::new(),
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => cli.trace = value("0 or 1")? == "1",
            "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--label" => cli.label = value("a name")?,
            "--smoke" => cli.smoke = true,
            "--all" => cli.all = true,
            "--layers" => cli.layers = true,
            "--no-probes" => cli.probes = false,
            other => cli.rest.push(other.to_string()),
        }
    }
    if cli.smoke && !seconds_given {
        cli.seconds = SMOKE_SECONDS;
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(cli)
}

fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload {
        "steady_small" => socket::steady(
            opts,
            &socket::Steady {
                dim: gen::SMALL_DIM,
                sessions_per_conn: 32,
                outstanding: 32,
            },
        ),
        "steady_bulk" => socket::steady(
            opts,
            &socket::Steady {
                dim: gen::BULK_DIM,
                sessions_per_conn: 32,
                outstanding: 8,
            },
        ),
        "session_churn" => socket::churn(opts),
        "checkpoint_serve" => inproc::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One workload, one mode: the driver's entry point.
fn single(cli: &Cli, process_start: Instant) -> Result<(), String> {
    let name = cli.workload.as_deref().unwrap_or_default();
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .name;
    let opts = Opts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        process_start,
    };
    let outcome = run_workload(&opts)?;
    let mut measured: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    // Read before the probes run: they build pools of their own.
    measured.insert("peak_rss_mib", peak_rss_mib());
    let selected: Vec<(&str, f64, &str)> = if cli.trace {
        let mut selected: Vec<_> = spec::TRACED
            .iter()
            // A layer the workload never enters reports 0.
            .map(|m| (m.name, measured.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect();
        if cli.probes {
            selected.extend(probes::run(Budget::BRIEF));
        }
        selected
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let value = measured.get(m.name).copied();
                value.map(|v| (m.name, v, m.unit)).ok_or(m.name)
            })
            .collect::<Result<_, _>>()
            .map_err(|name| format!("{workload} did not measure {name}"))?
    };
    for problem in &outcome.tally.problems {
        eprintln!("check failed: {problem}");
    }
    for (name, value, unit) in &selected {
        println!("{name} {value} {unit}");
    }
    let tally = &outcome.tally;
    let metrics = report::metrics_json(selected.iter().copied());
    let result = report::result_line(tally.failed == 0, tally.attempted, tally.failed, metrics);
    let mut record = vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Num(cli.seed as f64)),
        ("seconds".to_string(), Json::Num(cli.seconds)),
        ("trace".to_string(), Json::Bool(cli.trace)),
        ("loop".to_string(), Json::str("closed")),
        // Two runs with the same digest were given the same inputs.
        (
            "request_stream_hash".to_string(),
            Json::Str(format!(
                "{:016x}",
                gen::stream_hash(cli.seed, workload, gen::SMALL_DIM, 8, 64)
            )),
        ),
        ("host".to_string(), report::host_facts()),
    ];
    record.extend(result.fields().iter().cloned());
    let stem = format!("{workload}_seed{}_trace{}", cli.seed, u8::from(cli.trace));
    report::write_file(
        &cli.out_dir.join(format!("{stem}.json")),
        &Json::Obj(record),
    )?;
    if cli.trace {
        report::write_file(
            &cli.out_dir.join(format!("trace_{workload}.json")),
            &trace::to_json(&outcome.tracers, TRACE_FILE_SPANS),
        )?;
    }
    println!("{}", result.render());
    Ok(())
}

/// Runs the probes at the mode's budget, prints them under `prefix`, and
/// returns them as a metrics block.
fn probe_block(cli: &Cli, prefix: &str) -> Json {
    let budget = if cli.smoke {
        Budget::BRIEF
    } else {
        Budget::FULL
    };
    let results = probes::run(budget);
    for (name, value, unit) in &results {
        println!("{prefix}{name} {value} {unit}");
    }
    report::metrics_json(results.into_iter())
}

fn layers(cli: &Cli) -> Result<(), String> {
    let block = probe_block(cli, "");
    let doc = Json::object([("host", report::host_facts()), ("layers", block.clone())]);
    report::write_file(&cli.out_dir.join("layers.json"), &doc)?;
    println!("{}", block.render());
    Ok(())
}

/// Runs this executable again for one workload and returns the result
/// line it printed. A process per run keeps `peak_rss_mib` and `setup_s`
/// honest: both are per-process facts.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--no-probes"])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cli.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

/// `--all`: every workload untraced then traced, then the probes, folded
/// into one ledger under `out/` that `compare` and `validate` read.
fn suite(cli: &Cli) -> Result<(), String> {
    if !cli.smoke {
        std::thread::sleep(SETTLE);
    }
    let mut workloads = Vec::new();
    for workload in &spec::WORKLOADS {
        eprintln!("== {} (untraced, then traced) ==", workload.name);
        let untraced = child(cli, workload.name, false)?;
        let traced = child(cli, workload.name, true)?;
        let value = |run: &Json, name: &str| {
            run.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        // Tracing overhead, by the guide's definition: what the same run
        // loses in throughput with spans on.
        let overhead = 1.0
            - stats::ratio(
                value(&traced, "traced_endorse_per_s"),
                value(&untraced, "endorse_per_s"),
            );
        let both_correct = untraced.get("correct") == Some(&Json::Bool(true))
            && traced.get("correct") == Some(&Json::Bool(true));
        let count = |name: &str| {
            let of = |run: &Json| run.get(name).and_then(Json::as_f64).unwrap_or(0.0);
            Json::Num(of(&untraced) + of(&traced))
        };
        for (name, metric) in untraced
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
        {
            println!("{}/{name} {}", workload.name, render_metric(metric));
        }
        for (name, metric) in traced.get("metrics").map(Json::fields).unwrap_or_default() {
            println!("{}/{name} {}", workload.name, render_metric(metric));
        }
        println!("{}/trace_overhead_fraction {overhead} ratio", workload.name);
        workloads.push((
            workload.name.to_string(),
            Json::object([
                ("why", Json::str(workload.why)),
                ("correct", Json::Bool(both_correct)),
                ("attempted", count("attempted")),
                ("failed", count("failed")),
                (
                    "end_to_end",
                    untraced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("trace_overhead_fraction", Json::Num(overhead)),
            ]),
        ));
    }
    eprintln!("== layer probes ==");
    let layers = probe_block(cli, "layers/");
    let ledger = Json::object([
        ("host", report::host_facts()),
        ("git_commit", Json::Str(report::git_commit())),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("loop", Json::str("closed")),
        ("client_threads", Json::Num(2.0)),
        ("workloads", Json::Obj(workloads)),
        ("layers", layers),
    ]);
    let path = cli.out_dir.join(format!("ledger_{}.json", cli.label));
    report::write_file(&path, &ledger)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn render_metric(metric: &Json) -> String {
    format!(
        "{} {}",
        metric.get("value").map_or("?".to_string(), Json::render),
        metric.get("unit").and_then(Json::as_str).unwrap_or("?")
    )
}

fn dispatch(cli: &Cli, process_start: Instant) -> Result<ExitCode, String> {
    match cli.rest.first().map(String::as_str) {
        Some("print-spec") => print!("{}", spec::benchmark_json().render_pretty()),
        Some("compare") => {
            let [_, base, new] = cli.rest.as_slice() else {
                return Err("usage: compare <base.json> <new.json>".to_string());
            };
            if report::compare(base, new)? > 0 {
                return Ok(ExitCode::from(2));
            }
        }
        Some("validate") => {
            let mut bad = 0;
            for path in &cli.rest[1..] {
                let problems = report::validate(path)?;
                for problem in &problems {
                    eprintln!("{path}: {problem}");
                }
                println!(
                    "{path}: {}",
                    if problems.is_empty() { "ok" } else { "INVALID" }
                );
                bad += problems.len();
            }
            if bad > 0 || cli.rest.len() < 2 {
                return Ok(ExitCode::from(2));
            }
        }
        Some(other) => return Err(format!("unknown argument {other}")),
        None if cli.all => suite(cli)?,
        None if cli.layers => layers(cli)?,
        None if cli.workload.is_some() => single(cli, process_start)?,
        None => {
            return Err("nothing to do: give --workload, --all, --layers or a subcommand".into())
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli, process_start)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gateway_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
