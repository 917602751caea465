//! `perfbench`: the serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` starts a real `sketches_serve::Server` in-process, drives
//! the workload over loopback HTTP with tracing off, runs the correctness
//! gate, and reports the end-to-end metrics. `--trace 1` makes the
//! separate traced run: the same HTTP phase untraced and then with every
//! request traced, plus the in-process layer ladder, and reports the
//! per-layer metrics. Either way the second-to-last line of standard
//! output is a full report (host facts, parameters, every metric, and
//! every metric dropped with its reason), and the last line is the
//! result: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! The exit code is 1 on any wrong answer, 2 on bad arguments.

mod check;
mod drive;
mod http;
mod ladder;
mod pass;
mod report;
mod stats;
mod traces;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;

use sketches_serve::Sampling;

use crate::ladder::Spans;
use crate::pass::Pass;
use crate::report::{metrics_json, object, quote, Report};
use crate::stats::median;
use crate::workload::{Inputs, Mode, Params};

/// The metrics a `--trace 0` run reports on its result line.
const END_TO_END: [(&str, &str); 8] = [
    ("ingest_rows_per_s", "rows/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("report_p50_ms", "ms"),
    ("view_p50_ms", "ms"),
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The metrics a `--trace 1` run reports on its result line.
const PER_LAYER: [(&str, &str); 48] = [
    ("cardinality.hll_update_ns_per_row", "ns"),
    ("quantiles.kll_update_ns_per_row", "ns"),
    ("frequency.sf_update_ns_per_row", "ns"),
    ("engine.touched_group_share", "ratio"),
    ("engine.process_batch_ms.p50", "ms"),
    ("engine.process_batch_ms.p90", "ms"),
    ("sharded.process_batch_ms.p50", "ms"),
    ("sharded.process_batch_ms.p90", "ms"),
    ("concurrent.batch_ms.p50", "ms"),
    ("concurrent.batch_ms.p90", "ms"),
    ("concurrent.over_sharded", "ratio"),
    ("concurrent.snapshots_published_per_batch", "count"),
    ("concurrent.report_us.p50", "us"),
    ("concurrent.report_us.p99", "us"),
    ("concurrent.query_view_ms", "ms"),
    ("view.encode_ms", "ms"),
    ("view.bytes", "bytes"),
    ("durable.batch_ms.p50", "ms"),
    ("durable.batch_ms.p90", "ms"),
    ("durable.wal_bytes_per_row", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("durable.recover_s", "s"),
    ("json.parse_ms_per_batch", "ms"),
    ("serve.stage.parse_ms.p50", "ms"),
    ("serve.stage.parse_ms.p90", "ms"),
    ("serve.stage.queue_wait_ms.p50", "ms"),
    ("serve.stage.queue_wait_ms.p90", "ms"),
    ("serve.stage.engine_apply_ms.p50", "ms"),
    ("serve.stage.engine_apply_ms.p90", "ms"),
    ("serve.stage.publish_ms.p50", "ms"),
    ("serve.stage.publish_ms.p90", "ms"),
    ("serve.stage.wal_append_ms.p50", "ms"),
    ("serve.stage.wal_append_ms.p90", "ms"),
    ("serve.stage.fsync_ms.p50", "ms"),
    ("serve.stage.fsync_ms.p90", "ms"),
    ("serve.stage.write_ms.p50", "ms"),
    ("serve.stage.write_ms.p90", "ms"),
    ("serve.stage.checkpoint_ms.p50", "ms"),
    ("serve.unattributed_ms.p50", "ms"),
    ("serve.unattributed_ms.p90", "ms"),
    ("serve.client_gap_ms.p50", "ms"),
    ("serve.traces_checked", "count"),
    ("serve.shed_total", "count"),
    ("serve.retry_attempts_total", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.traced_ingest_rows_per_s", "rows/s"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Restarts per untraced run; `restart_s` is their median.
const RESTARTS: usize = 15;
/// The seed kept out of tuning, for confirming a claim.
const HELD_OUT_SEED: u64 = 20_231_018;

const USAGE: &str =
    "usage: perfbench --workload <ingest-durable-fewgroups|ingest-manygroups|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Params,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output of a one-line command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    // Run from the checkout root, and keep git from searching above it:
    // a checkout that is not a repository reports `unknown`, not the sha
    // of some enclosing one.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let mut command = Command::new(program);
    if let Some(ceiling) = root.parent() {
        command.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    command
        .current_dir(root)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` CPU ticks since boot, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Host facts, plus the share of CPU time the hypervisor took from this
/// machine while the run lasted (`steal`): a noisy neighbour shows there
/// before it shows as a slower run.
fn host_json(ticks_at_start: Option<(u64, u64)>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let steal = match (ticks_at_start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            ((s1 - s0) as f64 / (t1 - t0) as f64).to_string()
        }
        _ => "null".to_string(),
    };
    object(
        [
            ("steal_share", steal),
            (
                "git_sha",
                quote(&command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("nproc", nproc.to_string()),
            ("rustc", quote(&command_line("rustc", &["-V"]))),
            (
                "profile",
                quote(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
        ]
        .into_iter(),
    )
}

fn params_json(p: &Params, args: &Args) -> String {
    let mode = match p.mode {
        Mode::Closed { clients } => format!("\"closed loop, {clients} client(s)\""),
        Mode::Open {
            slots_per_s,
            views_per_s,
            reports_per_s,
        } => format!(
            "\"open loop: writer {slots_per_s} slots/s ({views_per_s} views), reader {reports_per_s} reports/s\""
        ),
    };
    object(
        [
            ("workload", quote(p.name)),
            ("seed", args.seed.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("groups", p.groups.to_string()),
            ("batch_rows", p.batch_rows.to_string()),
            ("shards", workload::SHARDS.to_string()),
            ("zipf_skew", workload::SKEW.to_string()),
            ("frequency", p.frequency.to_string()),
            ("durable", p.durable.to_string()),
            ("checkpoint_rows", p.checkpoint_rows.to_string()),
            ("mode", mode),
        ]
        .into_iter(),
    )
}

/// The untraced run: end-to-end metrics.
fn untraced(
    p: &Params,
    inputs: &Inputs,
    args: &Args,
    dir: &Path,
    out: &mut Report,
) -> Result<Pass, String> {
    let pass = pass::run(
        p,
        inputs,
        Sampling::Off,
        args.seconds,
        SETUPS,
        RESTARTS,
        dir,
    )?;
    out.put("ingest_rows_per_s", pass.rows_per_s(), "rows/s");
    out.latencies("ingest", &pass.load.ingest_ms, &[0.5, 0.9, 0.99]);
    let reads = pass.reads(p);
    out.latencies("report", &reads.report_ms, &[0.5, 0.99]);
    out.latencies("view", &reads.view_ms, &[0.5, 0.9]);
    out.put(
        "failed_ops_ratio",
        pass.failed() as f64 / pass.attempted().max(1) as f64,
        "ratio",
    );
    out.put_opt("setup_s", median(&pass.setup_s), "s");
    out.put_opt("restart_s", median(&pass.restart_s), "s");
    Ok(pass)
}

/// The traced run: the HTTP phase untraced, then with every request
/// traced, then the in-process ladder. Returns both passes' outcomes.
fn traced(
    p: &Params,
    inputs: &Inputs,
    args: &Args,
    dir: &Path,
    out: &mut Report,
) -> Result<(Pass, Pass), String> {
    let off = pass::run(p, inputs, Sampling::Off, args.seconds, 1, 0, dir)?;
    let mut on = pass::run(p, inputs, Sampling::Always, args.seconds, 1, 0, dir)?;
    out.put("obs.traced_ingest_rows_per_s", on.rows_per_s(), "rows/s");
    out.put(
        "obs.tracing_overhead",
        on.rows_per_s() / off.rows_per_s(),
        "ratio",
    );
    if let Some(m) = &on.metrics {
        traces::stages(m, out);
    }
    if let Some(t) = &on.traces {
        traces::requests(t, &on.load.client_ms, out, &mut on.gate);
    }
    out.put(
        "serve.shed_total",
        (off.shed_total + on.shed_total) as f64,
        "count",
    );
    out.put(
        "serve.retry_attempts_total",
        (off.retry_total + on.retry_total) as f64,
        "count",
    );
    match p.mode {
        Mode::Open { .. } => out.latencies("loadgen.lag", &on.load.lag_ms, &[0.99]),
        Mode::Closed { .. } => {
            out.put("loadgen.lag_p99_ms", 0.0, "ms");
            out.drop_metric(
                "loadgen.lag_p99_ms",
                "closed loop has no schedule (reads 0)",
            );
        }
    }
    let mut spans = Spans::default();
    let ladder = ladder::run(p, inputs, &dir.join("ladder"), &mut spans, out);
    let spans_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("spans-{}-{}.jsonl", p.name, args.seed));
    if let Err(e) = std::fs::write(&spans_path, spans.to_json_lines()) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }
    if let Err(e) = ladder {
        on.gate.fail(format!("ladder: {e}"));
    }
    Ok((off, on))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let p = args.workload.clone();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("run")
        .join(format!("{}-{}", p.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let ticks_at_start = cpu_ticks();
    let inputs = Inputs::generate(&p, args.seed);
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        p.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut out = Report::default();
    let outcome = if args.trace {
        traced(&p, &inputs, &args, &dir, &mut out).map(|(a, b)| vec![a, b])
    } else {
        untraced(&p, &inputs, &args, &dir, &mut out).map(|a| vec![a])
    };
    let _ = std::fs::remove_dir_all(&dir);
    out.put_opt("peak_rss_mib", peak_rss_mib(), "MiB");

    let (attempted, failed, mut errors) = match &outcome {
        Ok(passes) => (
            passes.iter().map(Pass::attempted).sum::<u64>(),
            passes.iter().map(Pass::failed).sum::<u64>(),
            passes.iter().flat_map(Pass::errors).collect::<Vec<_>>(),
        ),
        Err(e) => (1, 1, vec![e.clone()]),
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut result = Vec::new();
    for &(name, unit) in wanted {
        match out.value(name) {
            Some(v) => result.push((name, v, unit)),
            None => errors.push(format!("metric {name} missing")),
        }
    }
    let correct = failed == 0 && errors.is_empty();
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }

    println!(
        "{}",
        object(
            [
                ("host", host_json(ticks_at_start)),
                ("params", params_json(&p, &args)),
                ("metrics", out.all_json()),
                ("dropped", out.dropped_json()),
                ("samples", out.samples_json()),
                (
                    "errors",
                    format!(
                        "[{}]",
                        errors
                            .iter()
                            .map(|e| quote(e))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                ),
            ]
            .into_iter()
        )
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        attempted.max(1),
        failed,
        metrics_json(&result)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
