//! One benchmark for the ATLAHS toolchain: four workloads, six end-to-end
//! host-time metrics, and a traced mode that attributes time to layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trace_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Load is closed-loop and batch: each iteration runs one workload from
//! its spec to a written report, and the next starts when it ends. One
//! unmeasured warm-up iteration comes first; measured iterations follow
//! until `--seconds` have passed (at least [`MIN_ITERS`]). Every
//! end-to-end time is the 10%-trimmed mean over the measured iterations,
//! every per-layer figure their median. The last line of standard output
//! is the JSON result; README.md documents the metrics.

mod cells;
mod cluster;
mod replay;
mod storage;
mod trace;
mod whatif;

use std::time::Instant;

use atlahs_bench::json::Json;

/// Measured iterations a run makes even when `--seconds` is shorter.
const MIN_ITERS: usize = 3;

/// Worker threads of the pooled executors. One: on a shared two-core
/// machine, two workers raised the run-to-run spread of `storage_cc`'s
/// wall time from 3% to 19% (README.md, "Threads").
pub fn threads() -> usize {
    1
}

/// Set-up passes per iteration of the grid workloads, whose set-up takes
/// milliseconds; an iteration's set-up time is the median of its passes.
pub const SETUP_REPS: usize = 5;

/// Output checks and simulations of one run: `fail_frac` is
/// `failed / attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one check; a failing one is also printed to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One measured iteration.
#[derive(Debug, Clone, Copy)]
pub struct Iter {
    /// Workload spec to written report.
    pub wall_s: f64,
    /// Host time of the set-up stages (see README.md, "setup_s").
    pub setup_s: f64,
    /// GOAL ops completed in the reported results.
    pub ops: u64,
}

/// A workload: inputs generated from the seed, then iterated.
pub trait Workload {
    /// Run one iteration. `first` marks the warm-up, which also records
    /// the reference outputs later iterations must repeat. `corrupt`
    /// injects a wrong result into this iteration (self-test).
    fn iteration(&mut self, first: bool, corrupt: bool, checks: &mut Checks) -> Iter;

    /// GOAL binary bytes per op of the schedules the workload simulates.
    fn goal_bytes_per_op(&self) -> f64;

    /// Checks made once per run, after the measured iterations (traced
    /// runs also time `goal.text_roundtrip_s` here).
    fn final_checks(&mut self, _checks: &mut Checks) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, corrupt: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--corrupt" => args.corrupt = value()? == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `v` without its lowest and highest tenth. A shared host can
/// alternate between a fast and a slow state for seconds at a time; a
/// run's median snaps to whichever state held most of the run, while the
/// trimmed mean weights the two by time spent, so it varies far less
/// from run to run and still ignores single outliers.
pub fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile of `v` (`q` in 0..=100).
pub fn percentile(mut v: Vec<f64>, q: usize) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where reports are written: inside the benchmark's own directory.
pub fn out_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the report directory");
    dir.join(name)
}

/// Write a report and return its text.
pub fn write_report(name: &str, doc: &Json) -> String {
    let text = doc.pretty();
    std::fs::write(out_path(name), &text).expect("write the report");
    text
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance recorded with every result.
fn provenance(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string();
    let mut doc = Json::obj();
    doc.set("workload", Json::Str(args.workload.clone()));
    doc.set("seed", Json::Num(args.seed as f64));
    doc.set("seconds", Json::Num(args.seconds));
    doc.set("trace", Json::Bool(args.trace));
    doc.set("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"])));
    doc.set("rustc", Json::Str(command_line("rustc", &["--version"])));
    doc.set(
        "nproc",
        Json::Num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64),
    );
    doc.set("threads", Json::Num(threads() as f64));
    doc.set("cpu", Json::Str(cpu));
    doc.set(
        "profile",
        Json::Str(if cfg!(debug_assertions) {
            "debug (not comparable)".into()
        } else {
            "release, lto=fat, codegen-units=1".into()
        }),
    );
    doc
}

/// Every per-layer metric, with its unit. Layers a workload does not
/// exercise report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tracers.parse_s", "s"),
    ("tracers.trace_bytes", "B"),
    ("schedgen.lower_s", "s"),
    ("schedgen.ops_out", "count"),
    ("schedgen.ops_per_s", "ops/s"),
    ("directdrive.lower_s", "s"),
    ("goal.encode_s", "s"),
    ("goal.decode_s", "s"),
    ("goal.bin_bytes", "B"),
    ("goal.arena_bytes", "B"),
    ("goal.text_roundtrip_s", "s"),
    ("core.sim_s", "s"),
    ("core.sched_self_s", "s"),
    ("core.issues", "count"),
    ("core.completions", "count"),
    ("core.ideal_busy_s", "s"),
    ("lgs.busy_s", "s"),
    ("lgs.messages", "count"),
    ("lgs.rendezvous", "count"),
    ("htsim.build_s", "s"),
    ("htsim.busy_s", "s"),
    ("htsim.events", "count"),
    ("htsim.events_per_s", "1/s"),
    ("htsim.packets", "count"),
    ("htsim.rtx_frac", "ratio"),
    ("htsim.timeouts", "count"),
    ("htsim.stochastic_draws", "count"),
    ("eventq.pops", "count"),
    ("sweep.expand_s", "s"),
    ("sweep.build_jobs_s", "s"),
    ("sweep.prepare_s", "s"),
    ("sweep.execute_s", "s"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p90_ms", "ms"),
    ("sweep.cell_samples", "count"),
    ("sweep.pool_eff", "ratio"),
    ("snapshot.checkpoint_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.htsim.checkpoint_s", "s"),
    ("snapshot.htsim.restore_s", "s"),
    ("snapshot.lgs.checkpoint_s", "s"),
    ("snapshot.lgs.restore_s", "s"),
    ("snapshot.ideal.checkpoint_s", "s"),
    ("snapshot.ideal.restore_s", "s"),
    ("branch.branched_s", "s"),
    ("branch.straight_s", "s"),
    ("branch.apply_s", "s"),
    ("branch.prefix_runs", "count"),
    ("branch.prefix_reuse_x", "ratio"),
    ("cluster.run_s", "s"),
    ("cluster.jobs", "count"),
    ("cluster.jobs_per_s", "1/s"),
    ("report.json_s", "s"),
    ("report.bytes", "B"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced iteration: `it` is what the
/// iteration reported, `elapsed` its whole duration (checks and the
/// per-layer replay included).
fn layer_values(s: &trace::Sample, it: &Iter, elapsed: f64) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "schedgen.ops_per_s" => ratio(s.count("schedgen.ops_out"), s.total("schedgen.lower_s")),
            "core.sim_s" => s.total("core.sim_s"),
            "core.sched_self_s" => s.self_time("core.sim_s"),
            "htsim.events_per_s" => ratio(s.count("htsim.events"), s.total("htsim.busy_s")),
            "htsim.rtx_frac" => ratio(s.count("htsim.rtx"), s.count("htsim.packets")),
            "sweep.pool_eff" => ratio(
                s.count("sweep.cell_wall_s"),
                threads() as f64 * (s.total("sweep.execute_s") + s.total("branch.branched_s")),
            ),
            "snapshot.checkpoint_s" => ["htsim", "lgs", "ideal"]
                .iter()
                .map(|b| s.total(&format!("snapshot.{b}.checkpoint_s")))
                .sum(),
            "snapshot.restore_s" => ["htsim", "lgs", "ideal"]
                .iter()
                .map(|b| s.total(&format!("snapshot.{b}.restore_s")))
                .sum(),
            "branch.prefix_reuse_x" => {
                ratio(s.total("branch.straight_s"), s.total("branch.branched_s"))
            }
            "cluster.jobs_per_s" => ratio(s.count("cluster.jobs"), s.total("cluster.run_s")),
            "trace.wall_s" => it.wall_s,
            "trace.coverage" => ratio(s.covered(), elapsed),
            other if other.ends_with("_s") => s.total(other),
            other => s.count(other),
        })
        .collect()
}

fn metric(name: &str, unit: &str, value: f64) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut bench: Box<dyn Workload> = match args.workload.as_str() {
        "trace_replay" => Box::new(replay::Replay::new(args.seed)),
        "storage_cc" => Box::new(storage::StorageCc::new(args.seed)),
        "whatif_grid" => Box::new(whatif::WhatIf::new(args.seed)),
        "cluster_online" => Box::new(cluster::ClusterOnline::new(args.seed)),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` \
                 (trace_replay|storage_cc|whatif_grid|cluster_online)"
            );
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    println!("# provenance {}", prov.pretty().replace('\n', " "));
    trace::set_enabled(args.trace);

    let mut checks = Checks::default();
    bench.iteration(true, false, &mut checks);
    trace::take();

    let mut iters: Vec<Iter> = Vec::new();
    let mut layers: Vec<Vec<f64>> = Vec::new();
    let t0 = Instant::now();
    while iters.len() < MIN_ITERS || t0.elapsed().as_secs_f64() < args.seconds {
        let corrupt = args.corrupt && iters.is_empty();
        let t_it = Instant::now();
        let it = bench.iteration(false, corrupt, &mut checks);
        if args.trace {
            layers.push(layer_values(&trace::take(), &it, t_it.elapsed().as_secs_f64()));
        }
        iters.push(it);
    }
    bench.final_checks(&mut checks);
    let text_roundtrip = trace::take().total("goal.text_roundtrip_s");

    let avg = |f: fn(&Iter) -> f64| trimmed_mean(iters.iter().map(f).collect());
    let mut metrics: Vec<String> = Vec::new();
    if args.trace {
        for (i, &(name, unit)) in PER_LAYER.iter().enumerate() {
            let v = if name == "goal.text_roundtrip_s" {
                text_roundtrip
            } else {
                median(layers.iter().map(|l| l[i]).collect())
            };
            metrics.push(metric(name, unit, v));
        }
    } else {
        let fail_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
        metrics.push(metric("wall_s", "s", avg(|i| i.wall_s)));
        metrics.push(metric("setup_s", "s", avg(|i| i.setup_s)));
        metrics.push(metric(
            "sim_ops_per_s",
            "ops/s",
            avg(|i| i.ops as f64 / (i.wall_s - i.setup_s).max(1e-9)),
        ));
        metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb()));
        metrics.push(metric("goal_bytes_per_op", "B/op", bench.goal_bytes_per_op()));
        metrics.push(metric("pass_frac", "ratio", 1.0 - fail_frac));
    }

    let mut summary = Json::obj();
    summary.set("provenance", prov);
    summary.set("iterations", Json::Num(iters.len() as f64));
    summary.set("wall_s", Json::Arr(iters.iter().map(|i| Json::Num(i.wall_s)).collect()));
    summary.set("setup_s", Json::Arr(iters.iter().map(|i| Json::Num(i.setup_s)).collect()));
    summary.set("attempted", Json::Num(checks.attempted as f64));
    summary.set("failed", Json::Num(checks.failed as f64));
    write_report(
        &format!("{}-{}.run.json", args.workload, if args.trace { "traced" } else { "untraced" }),
        &summary,
    );
    println!(
        "# {} iterations, wall_s {:.4}, {} of {} checks failed",
        iters.len(),
        avg(|i| i.wall_s),
        checks.failed,
        checks.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
}
