//! The perf ledger: a standalone end-to-end + per-layer benchmark of the
//! subgraph-matching workspace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result as one JSON object (the form BENCHMARK.json's driver
//!     uses)
//! benchmark run [--seed <n>] [--seconds <s>] [--traced] [--repeat <k>]
//!     every workload, each in a fresh child process; writes
//!     benchmark/out/run-<seed>.json
//! benchmark run --quick        tiny sizes, all oracles, nothing recorded
//! benchmark run --self-check   sabotaged runs must report failures
//! benchmark compare <a.json> <b.json>
//! ```

mod compare;
mod env;
mod inputs;
mod json;
mod layers;
mod metrics;
mod oracle;
mod span;
mod stats;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Report, RunOpts};

/// Seconds of timed passes when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 8.0;
/// `--quick` measures this long per workload.
const QUICK_SECONDS: f64 = 0.2;
/// Exit code of a `--self-check` whose sabotage was caught everywhere:
/// the run failed, as designed.
const EXIT_SABOTAGE_CAUGHT: u8 = 3;

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--seed <n>] [--seconds <s>] [--traced] [--repeat <k>] [--quick] [--self-check]
  benchmark compare <a.json> <b.json>";

#[derive(Debug, Default)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    quick: bool,
    self_check: bool,
    sabotage: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        seed: 42,
        repeat: 1,
        ..RunArgs::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--traced" => out.trace = true,
            "--repeat" => {
                out.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if out.repeat == 0 || out.repeat > 100 {
                    return Err("--repeat must be between 1 and 100".into());
                }
            }
            "--quick" => out.quick = true,
            "--self-check" => out.self_check = true,
            "--sabotage" => out.sabotage = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    // Numbers from an unoptimised build describe nothing a user runs.
    if cfg!(debug_assertions) {
        return Err("refusing to measure a non-release build; use `cargo run --release`".into());
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None if args.self_check => self_check(&args),
        None => run_all(&args),
    }
}

fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One workload in this process. Prints every metric by name with its
/// unit, then the result object as the last line.
fn run_one(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        quick: args.quick,
        sabotage: args.sabotage,
    };
    let Report {
        attempted,
        failed,
        metrics,
        notes,
    } = workloads::run(name, &opts)?;
    let defs = metric_defs(opts.trace);
    let rendered = metrics.to_json(defs)?;
    println!(
        "workload {name}  seed {}  {} s  {}",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    for note in &notes {
        println!("  {note}");
    }
    for d in defs {
        let v = metrics.get(d.name).expect("rendered above");
        println!("  {:<40} {:>16.4} {}", d.name, v, d.unit);
    }
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", rendered),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a fresh child process (a re-exec of this binary,
/// so peak memory and allocator state are the workload's own) and parse
/// the result object off its last line.
fn spawn_one(name: &str, args: &RunArgs, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    if args.self_check {
        cmd.args(["--quick", "--sabotage"]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("workload {name} exited with {}", out.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    Json::parse(last).map_err(|e| format!("{name}: result line does not parse: {e}"))
}

fn failed_of(result: &Json) -> u64 {
    result.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64
}

/// Every workload, `--repeat` times with seeds `seed, seed+1, …`; the
/// run set `compare` consumes.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut failures = 0u64;
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        let mut per_workload = Vec::new();
        for name in workloads::NAMES {
            let mut entry = spawn_one(name, args, seed, false)?;
            failures += failed_of(&entry);
            if args.trace {
                let traced = spawn_one(name, args, seed, true)?;
                failures += failed_of(&traced);
                if let (Json::Obj(pairs), Some(layers)) = (&mut entry, traced.get("metrics")) {
                    pairs.push(("layers".to_string(), layers.clone()));
                }
            }
            let (attempted, failed) = (
                entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
                failed_of(&entry) as f64,
            );
            println!(
                "  fail_ratio {:.6} ({failed} of {attempted})\n",
                failed / attempted.max(1.0)
            );
            per_workload.push((name.to_string(), entry));
        }
        runs.push(Json::obj(vec![
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::Obj(per_workload)),
        ]));
    }
    if args.quick {
        println!("quick run: all oracles checked, no numbers recorded");
    } else {
        let doc = Json::obj(vec![
            ("schema", Json::str("sm-perf-ledger/v1")),
            ("machine", env::machine()),
            (
                "seconds",
                Json::Num(args.seconds.unwrap_or(DEFAULT_SECONDS)),
            ),
            ("runs", Json::Arr(runs)),
        ]);
        let path = env::out_dir()
            .map_err(|e| format!("benchmark/out: {e}"))?
            .join(format!("run-{}.json", args.seed));
        std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("write run file: {e}"))?;
        println!("wrote {}", path.display());
    }
    if failures > 0 {
        eprintln!("{failures} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Corrupt one expected answer per workload (and one WAL tail byte where
/// there is a WAL): every workload must then report failures.
fn self_check(args: &RunArgs) -> Result<ExitCode, String> {
    let mut missed = Vec::new();
    for name in workloads::NAMES {
        let result = spawn_one(name, args, args.seed, false)?;
        let failed = failed_of(&result);
        println!("  sabotaged {name}: {failed} operations reported failed\n");
        if failed == 0 || result.get("correct").and_then(Json::as_bool) != Some(false) {
            missed.push(name);
        }
    }
    if missed.is_empty() {
        eprintln!("self-check: every sabotaged workload reported fail_ratio > 0; failing the run as designed");
        Ok(ExitCode::from(EXIT_SABOTAGE_CAUGHT))
    } else {
        Err(format!(
            "self-check: sabotage went unnoticed in {}",
            missed.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_is_the_benchmark_files_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command.last(), Some(&"run"));
    }

    #[test]
    fn driver_arguments_parse() {
        let args: Vec<String> = "--workload serve-hot --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run_args(&args).unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve-hot"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, Some(10.0), true)
        );
        assert!(parse_run_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_run_args(&["--bogus".into()]).is_err());
    }
}
