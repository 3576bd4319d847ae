//! The repository benchmark: four workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run.
//!
//! ```text
//! cedar-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cedar-perfbench --pins
//! ```
//!
//! Run from the repository root (it writes scratch files under
//! `.perfbench/`). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it give provenance and every metric by name with its unit. The exit
//! code is nonzero when any output check fails. `README.md` beside this
//! file defines every metric on every workload.

mod common;
mod fabric;
mod pins;
mod regen;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use common::{peak_rss_mb, percentile, Ctx, Digest, Outcome, Tracer};

const WORKLOADS: [&str; 4] = [
    "fabric_healthy",
    "fabric_degraded",
    "serve_mixed",
    "paper_regen",
];

/// Seed used when `--seed` is not given. Claims are confirmed on the
/// held-back seed `HELD_BACK_SEED`, which is not used while tuning.
const DEFAULT_SEED: u64 = 1;
const HELD_BACK_SEED: u64 = 7;

/// End-to-end metrics, reported with tracing off: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// User-visible metrics reported with the per-layer ones, ungated:
/// their run-to-run spread on a shared two-core host is wider than any
/// bound the benchmark may gate on (see README), or, for
/// `failed_frac`, zero on every correct run.
const UNGATED: [(&str, &str); 8] = [
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("hit_us_p50", "us"),
    ("hit_us_p99", "us"),
    ("miss_us_p50", "us"),
    ("miss_us_p99", "us"),
    ("max_rps_slo", "1/s"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics, reported by the traced run after `UNGATED`:
/// (name, unit).
const PER_LAYER: [(&str, &str); 39] = [
    ("trace.spans", "count"),
    ("net.build_us", "us"),
    ("net.drive_us", "us"),
    ("net.ns_per_sim_cycle", "ns"),
    ("net.finish_us", "us"),
    ("net.specialized_share", "ratio"),
    ("net.sim_cycles", "count"),
    ("net.requests", "count"),
    ("faults.plan_us", "us"),
    ("faults.retries", "count"),
    ("faults.failed", "count"),
    ("faults.words_dropped", "count"),
    ("faults.useful_ratio", "ratio"),
    ("sim.watchdog_trips", "count"),
    ("obs.export_us", "us"),
    ("obs.trace_events", "count"),
    ("obs.traced_drive_us", "us"),
    ("exec.sweep_us", "us"),
    ("exec.busy_ratio", "ratio"),
    ("exec.point_us_max", "us"),
    ("zoo.fabric_cell_us", "us"),
    ("zoo.analytic_cell_us", "us"),
    ("zoo.words_combined", "count"),
    ("core.table1_us", "us"),
    ("core.scaleup_us", "us"),
    ("perfect.tables_us", "us"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.job_service_us_mean", "us"),
    ("serve.server_latency_us_mean", "us"),
    ("serve.wakeups_per_request", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.gen_late_us_p99", "us"),
    ("serve.execute_us_p50", "us"),
    ("snap.load_us_p50", "us"),
    ("snap.store_us_p50", "us"),
    ("snap.cache_bytes", "bytes"),
];

/// Per-layer means read from spans: (metric, span name).
const SPAN_MEANS: [(&str, &str); 12] = [
    ("net.build_us", "net.build"),
    ("net.drive_us", "net.drive"),
    ("net.finish_us", "net.finish"),
    ("faults.plan_us", "faults.plan"),
    ("obs.export_us", "obs.export"),
    ("obs.traced_drive_us", "obs.traced_drive"),
    ("exec.sweep_us", "exec.sweep"),
    ("zoo.fabric_cell_us", "zoo.fabric_cell"),
    ("zoo.analytic_cell_us", "zoo.analytic_cell"),
    ("core.table1_us", "core.table1"),
    ("core.scaleup_us", "core.scaleup"),
    ("perfect.tables_us", "perfect.tables"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--pins" => {
                fabric::print_pins();
                regen::print_pins();
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Runs one workload for `budget` with tracing on or off.
fn run_workload(args: &Args, budget: Duration, traced: bool, work_dir: &Path) -> (Outcome, Ctx) {
    let ctx = Ctx {
        seed: args.seed,
        budget,
        tracer: Tracer::new(traced),
        work_dir: work_dir.to_path_buf(),
    };
    let outcome = match args.workload.as_str() {
        "fabric_healthy" => fabric::run(&ctx, false),
        "fabric_degraded" => fabric::run(&ctx, true),
        "serve_mixed" => serve::run(&ctx),
        _ => regen::run(&ctx),
    };
    (outcome, ctx)
}

fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let class = |hit: bool| -> Vec<f64> {
        o.ops
            .iter()
            .filter(|op| op.hit == hit)
            .map(|op| op.us)
            .collect()
    };
    let (hits, misses) = (class(true), class(false));
    let mut m = BTreeMap::from([
        ("setup_s", o.setup_s),
        ("sim_cycles_per_s", o.sim_cycles as f64 / o.sim_s.max(1e-9)),
        ("points_per_s", o.points as f64 / o.measured_s.max(1e-9)),
        ("run_ms_p50", percentile(&o.run_ms, 0.5)),
        ("run_ms_p90", percentile(&o.run_ms, 0.9)),
        ("hit_us_p50", percentile(&hits, 0.5)),
        ("hit_us_p99", percentile(&hits, 0.99)),
        ("miss_us_p50", percentile(&misses, 0.5)),
        ("miss_us_p99", percentile(&misses, 0.99)),
        ("max_rps_slo", o.max_rps_slo),
        (
            "peak_rss_mb",
            if o.peak_rss_mb > 0.0 {
                o.peak_rss_mb
            } else {
                peak_rss_mb()
            },
        ),
    ]);
    m.extend(o.computed.iter().map(|(k, v)| (*k, *v)));
    m
}

fn per_layer(o: &Outcome, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    m.extend(end_to_end(o));
    let summary = tracer.summary();
    m.insert(
        "trace.spans",
        summary.values().map(|s| s.0).sum::<u64>() as f64,
    );
    for (metric, span) in SPAN_MEANS {
        m.insert(metric, tracer.mean_us(span));
    }
    for (k, v) in &o.layers {
        m.insert(k, *v);
    }
    m
}

/// Commit (when run inside a git checkout), a digest of the sources
/// the benchmark builds, and the host.
fn provenance(args: &Args) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let mut files = Vec::new();
    for root in [
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
        "Cargo.lock",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{commit}\",\
         \"source_fnv\":\"{:016x}\",\"source_files\":{},\"nproc\":{nproc},\"cpu\":\"{}\",\
         \"cedar_threads\":{},\"default_seed\":{DEFAULT_SEED},\"held_back_seed\":{HELD_BACK_SEED}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        d.finish(),
        files.len(),
        cpu.replace('"', "'"),
        cedar_exec::threads(),
    )
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.filter_map(Result::ok) {
                collect_files(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn metrics_json(metrics: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("cedar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cedar-perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "cedar-perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(report, "provenance {}", provenance(&args));

    let (correct, attempted, failed, metrics, units): (bool, u64, u64, _, Vec<(&str, &str)>) =
        if args.trace {
            // Same seed twice: untraced, then traced, each for half the
            // budget. Per-layer numbers come from the traced half; the
            // difference between the halves is the tracing overhead.
            let (plain, _) = run_workload(&args, budget / 2, false, &work_dir);
            let plain_e2e = end_to_end(&plain);
            let (traced, ctx) = run_workload(&args, budget / 2, true, &work_dir);
            let traced_e2e = end_to_end(&traced);
            let exact_same = plain.exact == traced.exact;
            for (name, unit) in END_TO_END.iter().chain(&UNGATED) {
                if let (Some(t), Some(p)) = (traced_e2e.get(name), plain_e2e.get(name)) {
                    let _ = writeln!(
                        report,
                        "overhead {name} = {:+.4} {unit} (traced {t:.4} - untraced {p:.4})",
                        t - p
                    );
                }
            }
            let _ = writeln!(
                report,
                "exact counts {} between traced and untraced runs: {:?}",
                if exact_same { "identical" } else { "DIFFER" },
                traced.exact
            );
            let summary = ctx.tracer.summary();
            for (name, (n, total, own)) in &summary {
                let _ = writeln!(
                    report,
                    "span {name}: n={n} total_ms={:.3} self_ms={:.3}",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                );
            }
            let spans_path =
                work_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            if let Err(e) = ctx.tracer.write(&spans_path) {
                let _ = writeln!(report, "could not write {}: {e}", spans_path.display());
            }
            for note in plain.notes.iter().chain(&traced.notes) {
                let _ = writeln!(report, "note {note}");
            }
            let attempted = plain.attempted + traced.attempted;
            let failed = plain.failed + traced.failed;
            let mut layers = per_layer(&traced, &ctx.tracer);
            layers.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
            let ok = exact_same && plain.self_test_ok && traced.self_test_ok && failed == 0;
            let units: Vec<(&str, &str)> = UNGATED.iter().chain(&PER_LAYER).copied().collect();
            (ok, attempted, failed, layers, units)
        } else {
            let (outcome, _) = run_workload(&args, budget, false, &work_dir);
            for note in &outcome.notes {
                let _ = writeln!(report, "note {note}");
            }
            let ok = outcome.self_test_ok && outcome.failed == 0;
            let _ = writeln!(
                report,
                "checks: {} attempted, {} failed, self-test {}",
                outcome.attempted,
                outcome.failed,
                if outcome.self_test_ok {
                    "caught the corrupted output"
                } else {
                    "MISSED the corrupted output"
                }
            );
            (
                ok,
                outcome.attempted,
                outcome.failed,
                end_to_end(&outcome),
                END_TO_END.to_vec(),
            )
        };
    for (name, unit) in &units {
        let _ = writeln!(
            report,
            "metric {name} = {} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics, &units)
    );
    let result_path = work_dir.join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&result_path, format!("{report}{result}\n"));
    print!("{report}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
