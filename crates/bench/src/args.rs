//! A tiny dependency-free argument parser for the `experiments` binary.
//!
//! ```text
//! experiments <subcommand> [--datasets ye,hu,...] [--queries N]
//!             [--time-limit-ms N] [--orders N] [--threads N] [--clients N]
//!             [--seed N] [--shards 1,2,4,8] [--partitioner hash|label]
//!             [--duration-ms N] [--refresh-ms N]
//!             [--full] [--trace] [--profile-out PATH]
//! ```

use std::time::Duration;

/// Parsed harness options with laptop-friendly defaults.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Subcommand (e.g. `fig7`, `table5`, `all`).
    pub command: String,
    /// Dataset abbreviations to run on (`None` = each experiment's
    /// default).
    pub datasets: Option<Vec<String>>,
    /// Queries per query set (paper: 200; default here: 20).
    pub queries: usize,
    /// Per-query kill limit (paper: 5 min; default here: 1 s).
    pub time_limit: Duration,
    /// Random-order samples for the spectrum experiments (paper: 1000).
    pub orders: usize,
    /// Worker threads for query-set evaluation.
    pub threads: usize,
    /// Concurrent client threads for the `top` live view.
    pub clients: usize,
    /// Seed for workload generation (`top` client schedules and
    /// partitioning, the `planner` and `metrics-overhead` graphs and
    /// queries) — same seed, same workload, run to run.
    pub seed: u64,
    /// Shard counts; the `top` live view runs the first count ≥ 2.
    pub shards: Vec<usize>,
    /// Partition strategy for the `top` live view (`hash` | `label`).
    pub partitioner: String,
    /// How long the `top` live view keeps its workload running.
    pub duration: Duration,
    /// Refresh interval of the `top` live view.
    pub refresh: Duration,
    /// Attach an sm-runtime [`sm_runtime::Trace`] to supported experiments
    /// and print the per-phase span tree after each traced run.
    pub trace: bool,
    /// Write machine-readable JSONL run profiles here (implies tracing in
    /// the experiments that support it).
    pub profile_out: Option<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            command: "all".to_string(),
            datasets: None,
            queries: 20,
            time_limit: Duration::from_millis(1000),
            orders: 100,
            threads: 1,
            clients: 2,
            seed: 42,
            shards: vec![1, 2, 4, 8],
            partitioner: "label".to_string(),
            duration: Duration::from_millis(2000),
            refresh: Duration::from_millis(500),
            trace: false,
            profile_out: None,
        }
    }
}

impl HarnessOptions {
    /// Parse from an argument iterator (excluding `argv[0]`). Returns an
    /// error string for unknown/malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        let mut it = args.into_iter();
        let mut saw_command = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--datasets" => {
                    let v = it.next().ok_or("--datasets needs a value")?;
                    opts.datasets = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--queries" => {
                    opts.queries = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--queries needs an integer")?;
                }
                "--time-limit-ms" => {
                    let ms: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--time-limit-ms needs an integer")?;
                    opts.time_limit = Duration::from_millis(ms);
                }
                "--orders" => {
                    opts.orders = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--orders needs an integer")?;
                }
                "--threads" => {
                    opts.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t: &usize| t >= 1)
                        .ok_or("--threads needs a positive integer")?;
                }
                "--clients" => {
                    opts.clients = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&c: &usize| c >= 1)
                        .ok_or("--clients needs a positive integer")?;
                }
                "--seed" => {
                    opts.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an unsigned integer")?;
                }
                "--shards" => {
                    let v = it.next().ok_or("--shards needs a comma list")?;
                    let parsed: Result<Vec<usize>, _> =
                        v.split(',').map(|s| s.trim().parse()).collect();
                    opts.shards = parsed
                        .ok()
                        .filter(|s: &Vec<usize>| !s.is_empty() && s.iter().all(|&k| k >= 1))
                        .ok_or("--shards needs a comma list of positive integers")?;
                }
                "--partitioner" => {
                    let v = it.next().ok_or("--partitioner needs hash|label")?;
                    if v != "hash" && v != "label" {
                        return Err(format!("--partitioner must be hash or label, got {v}"));
                    }
                    opts.partitioner = v;
                }
                "--duration-ms" => {
                    let ms: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&d| d >= 1)
                        .ok_or("--duration-ms needs a positive integer")?;
                    opts.duration = Duration::from_millis(ms);
                }
                "--refresh-ms" => {
                    let ms: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&d| d >= 1)
                        .ok_or("--refresh-ms needs a positive integer")?;
                    opts.refresh = Duration::from_millis(ms);
                }
                "--trace" => {
                    opts.trace = true;
                }
                "--profile-out" => {
                    let v = it.next().ok_or("--profile-out needs a path")?;
                    opts.profile_out = Some(v);
                }
                "--full" => {
                    // Paper-scale settings (slow!).
                    opts.queries = 200;
                    opts.time_limit = Duration::from_secs(300);
                    opts.orders = 1000;
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}"));
                }
                cmd if !saw_command => {
                    opts.command = cmd.to_string();
                    saw_command = true;
                }
                extra => return Err(format!("unexpected argument {extra}")),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.command, "all");
        assert_eq!(o.queries, 20);
        assert_eq!(o.threads, 1);
    }

    #[test]
    fn full_parse() {
        let o = parse(&[
            "fig7",
            "--datasets",
            "ye,hu",
            "--queries",
            "50",
            "--time-limit-ms",
            "2000",
            "--orders",
            "500",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(o.command, "fig7");
        assert_eq!(
            o.datasets.as_deref(),
            Some(&["ye".to_string(), "hu".to_string()][..])
        );
        assert_eq!(o.queries, 50);
        assert_eq!(o.time_limit, Duration::from_secs(2));
        assert_eq!(o.orders, 500);
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn full_preset() {
        let o = parse(&["table5", "--full"]).unwrap();
        assert_eq!(o.queries, 200);
        assert_eq!(o.time_limit, Duration::from_secs(300));
        assert_eq!(o.orders, 1000);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--queries"]).is_err());
        assert!(parse(&["--queries", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["fig7", "extra"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--clients", "0"]).is_err());
        assert!(parse(&["--profile-out"]).is_err());
    }

    #[test]
    fn clients_flag() {
        let o = parse(&["top", "--clients", "4"]).unwrap();
        assert_eq!(o.command, "top");
        assert_eq!(o.clients, 4);
        assert_eq!(parse(&[]).unwrap().clients, 2);
    }

    #[test]
    fn seed_flag() {
        let o = parse(&["planner", "--seed", "7"]).unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(parse(&[]).unwrap().seed, 42);
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn shards_and_partitioner_flags() {
        let o = parse(&["top", "--shards", "1,2,4", "--partitioner", "hash"]).unwrap();
        assert_eq!(o.command, "top");
        assert_eq!(o.shards, vec![1, 2, 4]);
        assert_eq!(o.partitioner, "hash");
        let d = parse(&[]).unwrap();
        assert_eq!(d.shards, vec![1, 2, 4, 8]);
        assert_eq!(d.partitioner, "label");
        assert!(parse(&["--shards"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
        assert!(parse(&["--shards", "2,0"]).is_err());
        assert!(parse(&["--shards", ""]).is_err());
        assert!(parse(&["--partitioner", "bogus"]).is_err());
        assert!(parse(&["--partitioner"]).is_err());
    }

    #[test]
    fn duration_and_refresh_flags() {
        let o = parse(&["top", "--duration-ms", "800", "--refresh-ms", "100"]).unwrap();
        assert_eq!(o.command, "top");
        assert_eq!(o.duration, Duration::from_millis(800));
        assert_eq!(o.refresh, Duration::from_millis(100));
        let d = parse(&[]).unwrap();
        assert_eq!(d.duration, Duration::from_millis(2000));
        assert_eq!(d.refresh, Duration::from_millis(500));
        assert!(parse(&["--duration-ms"]).is_err());
        assert!(parse(&["--duration-ms", "0"]).is_err());
        assert!(parse(&["--refresh-ms", "x"]).is_err());
    }

    #[test]
    fn trace_flags() {
        let o = parse(&["parallel", "--trace", "--profile-out", "/tmp/p.jsonl"]).unwrap();
        assert!(o.trace);
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.jsonl"));
        let d = parse(&[]).unwrap();
        assert!(!d.trace);
        assert!(d.profile_out.is_none());
    }
}
