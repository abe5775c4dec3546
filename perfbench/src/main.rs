//! Served-path benchmark for rtim.
//!
//! Runs one traffic mix against a real `RtimServer` in a child process
//! over loopback TCP and prints its metrics; with `--trace 1` it instead
//! replays the mix's inputs down the layer ladder (see `ladder.rs`).
//!
//! ```text
//! perfbench --workload reddit-ingest --seed 1 --seconds 20 --trace 0
//! perfbench --workload all --seed 1 --seconds 20 --trace 0
//! perfbench --selftest
//! ```
//!
//! The last line of stdout is the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Unknown flags, missing values and unparseable values exit with code 2.

mod e2e;
mod host;
mod ladder;
mod report;
mod server;
mod workload;

use report::Report;
use server::ServeOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// End-to-end metrics every `--trace 0` run reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_aps", "actions/s"),
    ("ack_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("fresh_ms_p50", "ms"),
    ("server_cpu_us_per_action", "us"),
    ("setup_rss_mb", "MiB"),
];

/// Per-layer metrics every `--trace 1` run reports, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("ladder.wire_us_per_frame", "us"),
    ("ladder.handle_us_per_frame", "us"),
    ("ladder.engine_us_per_frame", "us"),
    ("ladder.framework_us_per_frame", "us"),
    ("server.self_us_per_frame", "us"),
    ("handle.self_us_per_batch", "us"),
    ("engine.self_us_per_slide", "us"),
    ("unattributed_share", "ratio"),
    ("protocol.decode_ns_per_action", "ns"),
    ("handle.query_us_p50", "us"),
    ("handle.query_us_p99", "us"),
    ("handle.queue_depth_max", "count"),
    ("handle.full_retries", "count"),
    ("journal.append_us_per_batch", "us"),
    ("journal.bytes_per_action", "bytes"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("recover.ms", "ms"),
    ("engine.resolve_ns_per_action", "ns"),
    ("propagation.ancestors_per_action", "count"),
    ("engine.query_us", "us"),
    ("framework.us_per_slide_t1", "us"),
    ("framework.query_us_t1", "us"),
    ("framework.checkpoints_mean", "count"),
    ("framework.oracle_updates_per_action", "count"),
    ("pool.us_per_slide", "us"),
    ("pool.speedup", "x"),
    ("pool.query_overhead_us", "us"),
    ("pool.migrations", "count"),
    ("pool.ewma_skew", "ratio"),
    ("coverage.marginal_ns_per_op", "ns"),
    ("coverage.absorb_ns_per_op", "ns"),
    ("arena.hit_ratio", "ratio"),
    ("trace.parse_us_per_frame", "us"),
    ("trace.queue_wait_us_per_frame", "us"),
    ("trace.journal_append_us_per_frame", "us"),
    ("trace.resolve_us_per_frame", "us"),
    ("trace.shard_feed_us_per_frame", "us"),
    ("trace.oracle_query_us_per_frame", "us"),
    ("trace.snapshot_dispatch_us_per_frame", "us"),
    ("trace.reply_drain_us_per_frame", "us"),
];

const USAGE: &str = "usage: perfbench --workload <reddit-ingest|twitter-query|durable-frames|all> \
[--seed N] [--seconds N] [--trace 0|1]\n       perfbench --selftest";

/// Parsed command line.
#[derive(Debug)]
enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Serve(ServeOptions),
    SelfTest,
}

/// Strict flag parsing: every flag is known, every value present and
/// well-formed; anything else is a usage error.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut toy = false;
    let mut serve = false;
    let mut selftest = false;
    let mut dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bool01 = |v: String| match v.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => {
                seconds = number(value()?)?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => trace = bool01(value()?)?,
            "--toy" => toy = bool01(value()?)?,
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--serve" => serve = true,
            "--selftest" => selftest = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if selftest {
        return Ok(Mode::SelfTest);
    }
    let workload = workload.ok_or("--workload is required")?;
    if toy && !serve {
        return Err("--toy belongs to the server role of the self-test".into());
    }
    let known = workload == "all" || workload::by_name(&workload).is_some();
    if !known || (serve && workload == "all") {
        return Err(format!("unknown workload {workload:?}"));
    }
    if serve {
        return Ok(Mode::Serve(ServeOptions {
            workload,
            toy,
            dir,
            trace,
        }));
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn resolve(name: &str, toy: bool) -> Workload {
    let w = workload::by_name(name).expect("validated workload name");
    if toy {
        w.toy()
    } else {
        w
    }
}

/// Runs one workload and prints its detail lines.
fn run_one(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Report {
    let report = if trace {
        ladder::run(w, false, seed)
    } else {
        e2e::run(w, false, seed, seconds, false)
    };
    println!("{}", report.detail_line(w.name));
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Serve(opts) => {
            let w = resolve(&opts.workload, opts.toy);
            match server::serve(&w, &opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench server: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::SelfTest => {
            println!("{}", host::host_line());
            selftest()
        }
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let names: Vec<&str> = if workload == "all" {
                workload::NAMES.to_vec()
            } else {
                vec![workload.as_str()]
            };
            let workloads: Vec<Workload> = names.iter().map(|n| resolve(n, false)).collect();
            if let Some(w) = workloads.iter().find(|w| w.threads > host::nproc()) {
                eprintln!(
                    "perfbench: {} needs pool width {} but this host has {} cores; refusing to run",
                    w.name,
                    w.threads,
                    host::nproc()
                );
                return ExitCode::from(3);
            }
            println!("{}", host::host_line());
            let mut reports: Vec<Report> = workloads
                .iter()
                .map(|w| run_one(w, seed, seconds, trace))
                .collect();
            let result = if reports.len() == 1 {
                reports.remove(0)
            } else {
                merge(&names, reports)
            };
            println!("{}", result.result_line());
            ExitCode::SUCCESS
        }
    }
}

/// Folds per-workload reports into one, naming each metric
/// `<workload>.<metric>`.
fn merge(names: &[&str], reports: Vec<Report>) -> Report {
    let mut all = Report::default();
    for (name, r) in names.iter().zip(reports) {
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.errors
            .extend(r.errors.into_iter().map(|e| format!("{name}: {e}")));
        for m in r.metrics {
            all.metric(format!("{name}.{}", m.name), m.unit, m.value);
        }
    }
    all
}

/// Checks that `report` carries exactly the `expected` metrics, each
/// finite and with its unit.
fn check_metrics(report: &Report, expected: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in expected {
        match report.metrics.iter().find(|m| m.name == *name) {
            None => problems.push(format!("missing metric {name}")),
            Some(m) if !m.value.is_finite() => problems.push(format!("{name} is {}", m.value)),
            Some(m) if m.unit != *unit => {
                problems.push(format!("{name} has unit {} instead of {unit}", m.unit))
            }
            Some(_) => {}
        }
    }
    if report.metrics.len() != expected.len() {
        problems.push(format!(
            "{} metrics reported, {} expected",
            report.metrics.len(),
            expected.len()
        ));
    }
    problems
}

/// Toy-size self-test: every workload end to end and traced, checking
/// that every metric is present, finite and carries its unit, and that
/// the correctness gate fires when the expected answer is perturbed.
fn selftest() -> ExitCode {
    let mut problems = Vec::new();
    for name in workload::NAMES {
        let w = resolve(name, true);
        if w.threads > host::nproc() {
            println!(
                "{{\"selftest\": {}, \"skipped\": \"pool width exceeds nproc\"}}",
                report::json_str(name)
            );
            continue;
        }
        let e2e = e2e::run(&w, true, 7, 2, false);
        println!("{}", e2e.detail_line(name));
        if !e2e.correct() {
            problems.push(format!("{name}: toy run incorrect: {:?}", e2e.errors));
        }
        problems.extend(
            check_metrics(&e2e, END_TO_END)
                .into_iter()
                .map(|p| format!("{name}: {p}")),
        );

        let perturbed = e2e::run(&w, true, 7, 1, true);
        if perturbed.correct() || perturbed.failed == 0 {
            problems.push(format!(
                "{name}: the gate let a perturbed expected answer pass"
            ));
        }

        let traced = ladder::run(&w, true, 7);
        println!("{}", traced.detail_line(name));
        if !traced.correct() {
            problems.push(format!(
                "{name}: toy traced run incorrect: {:?}",
                traced.errors
            ));
        }
        problems.extend(
            check_metrics(&traced, PER_LAYER)
                .into_iter()
                .map(|p| format!("{name}: {p}")),
        );
    }
    for p in &problems {
        eprintln!("selftest: {p}");
    }
    println!(
        "{{\"selftest\": \"{}\", \"problems\": {}}}",
        if problems.is_empty() { "pass" } else { "fail" },
        problems.len()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn strict_flags() {
        assert!(matches!(
            parse_args(&args(
                "--workload twitter-query --seed 3 --seconds 5 --trace 1"
            )),
            Ok(Mode::Run {
                seed: 3,
                seconds: 5,
                trace: true,
                ..
            })
        ));
        for bad in [
            "--workload twitter-query --seed abc",
            "--workload twitter-query --seconds -1",
            "--workload twitter-query --seconds 0",
            "--workload twitter-query --trace 2",
            "--workload twitter-query --seed",
            "--workload nope",
            "--workload all --serve",
            "--workload twitter-query --toy 1",
            "--seed 1",
            "--workload twitter-query --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn metric_lists_match_the_benchmark_contract() {
        let contract =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(contract.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = contract.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
