//! The BQSim-RS benchmark harness (see `README.md`).
//!
//! End-to-end numbers are taken from outside the program: a closed-loop
//! driver spawns the release `bqsim` binary per op and times it on the
//! host wall clock with tracing off. Per-layer numbers come from a
//! separate traced run that replays the same ops in this process.

mod driver;
mod estimator;
mod layers;
mod reference;
mod report;
mod trace;
mod workloads;

use bqsim_core::{BqSimOptions, RunBreakdown};
use driver::{Driver, Sample};
use estimator::{geometric_mean, median};
use layers::Replay;
use reference::References;
use report::{Value, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Action, Op, Role, Store, NAMES};

/// A one-batch twin repeats within a round while its repeats fit this
/// many seconds, so a 4 ms op (routing-6, mostly process start) gets the
/// samples its median needs and a 300 ms one is not multiplied.
const TWIN_SECONDS: f64 = 0.15;

/// Most repeats of a twin per round.
const TWIN_MAX_REPEATS: usize = 10;

/// `bqsim --help` invocations behind `proc.spawn_ms`.
const SPAWN_PROBES: usize = 5;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed S] [--seconds T] \
[--trace 0|1|both] [--trace-out P] [--out P] [--check-repeat] [--print-manifest]
  --workload W    one of cold_start, warm_start, sweep, small_batches, fleet
                  (default: all five); with it, the last stdout line is the
                  driver's result object
  --seed S        workload seed, passed to the program only as --seed/seed=
                  (default 42)
  --seconds T     seconds of timed ops per workload (default 12)
  --trace 0       end-to-end metrics only (tracing off)
  --trace 1       per-layer metrics: one untraced round, then the traced replay
  --trace both    the full untraced pass, then the traced replay (default)
  --trace-out P   write the traced run's spans and counters as JSON lines
  --out P         write every metric of the run as one JSON document
  --check-repeat  run the end-to-end pass twice and compare against the bounds
  --print-manifest  print the BENCHMARK.json this schema implies, and exit";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Off,
    Only,
    Both,
}

#[derive(Debug)]
struct Args {
    bqsim: PathBuf,
    tmp_root: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bqsim: PathBuf::new(),
        tmp_root: PathBuf::new(),
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: TraceMode::Both,
        trace_out: None,
        out: None,
        check_repeat: false,
        print_manifest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value after {flag}"));
        match flag.as_str() {
            "--bqsim" => args.bqsim = value()?.into(),
            "--tmp-root" => args.tmp_root = value()?.into(),
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (want one of {NAMES:?})"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::Only,
                    "both" => TraceMode::Both,
                    other => return Err(format!("--trace must be 0, 1 or both, got `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.print_manifest
        && (args.bqsim.as_os_str().is_empty() || args.tmp_root.as_os_str().is_empty())
    {
        return Err(
            "run through benchmark/run.sh, which builds and locates the binaries".to_string(),
        );
    }
    Ok(args)
}

/// All of a run's on-disk state; removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create(parent: &Path) -> Result<Self, String> {
        let dir = parent.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }

    /// A fresh empty directory under the root.
    fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the numbers depend on besides the code.
struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
    threads: usize,
}

impl Host {
    fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu,
            rustc,
            threads: bqsim_core::default_threads(),
        }
    }
}

/// The timed samples of one op kind.
struct OpRow {
    op: Op,
    samples: Vec<Sample>,
}

impl OpRow {
    fn walls_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_s * 1e3).collect()
    }

    fn median_ms(&self) -> f64 {
        median(&self.walls_ms())
    }

    fn peak_rss_mib(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.peak_rss_mib)
            .fold(0.0, f64::max)
    }
}

/// The traced half of a workload's result.
struct Layers {
    values: Vec<Value>,
    /// Self time per span name on the ops' path, in ms.
    attribution: BTreeMap<&'static str, f64>,
    spans: usize,
}

/// Everything one workload produced.
struct WorkloadRun {
    name: &'static str,
    rounds: usize,
    rows: Vec<OpRow>,
    end_to_end: Vec<Value>,
    layers: Option<Layers>,
    oracle_error: f64,
    attempted: u64,
    failed: u64,
}

impl WorkloadRun {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs one workload: set-up, the closed-loop end-to-end pass for
/// `seconds` (one round when only the traced numbers are wanted), then
/// the traced replay if asked for.
fn run_workload(
    args: &Args,
    name: &str,
    trace: TraceMode,
    tmp: &TempRoot,
    driver: &mut Driver,
) -> Result<WorkloadRun, String> {
    let setup_started = Instant::now();
    let workload = workloads::workload(name, args.seed).expect("validated by parse_args");
    let opts = BqSimOptions::default();
    let warm_store = tmp.subdir("store")?;
    let scratch = tmp.subdir("scratch")?;
    let refs = References::build(&workload, &warm_store, &opts)?;
    let virtuals = workload
        .ops
        .iter()
        .filter(|op| op.feeds_throughput())
        .flat_map(|op| op.specs())
        .map(|spec| refs.virtual_breakdown(spec))
        .collect::<Result<Vec<RunBreakdown>, String>>()?;
    driver.scratch.clone_from(&scratch);
    driver.warm_store.clone_from(&warm_store);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let seconds = if trace == TraceMode::Only {
        0.0
    } else {
        args.seconds
    };
    let mut rows: Vec<OpRow> = workload
        .ops
        .iter()
        .map(|op| OpRow {
            op: op.clone(),
            samples: Vec::new(),
        })
        .collect();
    let measure_started = Instant::now();
    let mut rounds = 0usize;
    loop {
        for row in &mut rows {
            let first = driver.run_op(&row.op, &refs);
            row.samples.push(first);
            if row.op.role == Role::Ttfb {
                let fit = (TWIN_SECONDS / first.wall_s) as usize;
                for _ in 1..fit.min(TWIN_MAX_REPEATS) {
                    row.samples.push(driver.run_op(&row.op, &refs));
                }
            }
        }
        rounds += 1;
        // Stop at the round count nearest the budget: another round only
        // if at least half of it still fits.
        let elapsed = measure_started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rounds as f64 > seconds {
            break;
        }
    }

    let mut attempted: u64 = rows.iter().map(|r| r.samples.len() as u64).sum();
    let mut failed: u64 = rows
        .iter()
        .map(|r| r.samples.iter().filter(|s| !s.ok).count() as u64)
        .sum();
    let end_to_end = end_to_end_values(&rows, &virtuals, setup_s, &warm_store, attempted, failed);

    let layers = if trace == TraceMode::Off {
        None
    } else {
        let spawn_ms: Vec<f64> = (0..SPAWN_PROBES)
            .map(|_| driver.spawn_floor_s() * 1e3)
            .collect();
        let mut replay = Replay::new(opts, &refs, &warm_store, &scratch);
        replay.workload(&workload)?;
        attempted += replay.attempted;
        failed += replay.failed;
        if let Some(path) = &args.trace_out {
            let path = match &args.workload {
                Some(_) => path.clone(),
                None => PathBuf::from(format!("{}.{name}", path.display())),
            };
            std::fs::File::create(&path)
                .and_then(|f| replay.tracer.write_jsonl(std::io::BufWriter::new(f)))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let throughput: Vec<&OpRow> = rows.iter().filter(|r| r.op.feeds_throughput()).collect();
        let untraced_ms: f64 = throughput.iter().map(|r| r.median_ms()).sum();
        Some(Layers {
            values: layer_values(&replay, &spawn_ms, untraced_ms, throughput.len(), &virtuals),
            attribution: replay.tracer.on_path_self_ms(),
            spans: replay.tracer.len(),
        })
    };

    Ok(WorkloadRun {
        name: workload.name,
        rounds,
        rows,
        end_to_end,
        layers,
        oracle_error: refs.oracle_error(),
        attempted,
        failed,
    })
}

fn end_to_end_values(
    rows: &[OpRow],
    virtuals: &[RunBreakdown],
    setup_s: f64,
    warm_store: &Path,
    attempted: u64,
    failed: u64,
) -> Vec<Value> {
    let samples_of = |pick: fn(&Op) -> bool| -> usize {
        rows.iter()
            .filter(|r| pick(&r.op))
            .map(|r| r.samples.len())
            .sum()
    };
    let ttfb: Vec<f64> = rows
        .iter()
        .filter(|r| r.op.feeds_ttfb())
        .map(OpRow::median_ms)
        .collect();
    let states_per_s: Vec<f64> = rows
        .iter()
        .filter(|r| r.op.feeds_throughput())
        .map(|r| r.op.states() as f64 / (r.median_ms() / 1e3))
        .collect();
    let peak_rss = rows.iter().map(OpRow::peak_rss_mib).fold(0.0, f64::max);
    // Cold ops publish into a fresh directory each: sum what the last
    // round's ops wrote. Warm ops share the store set-up populated.
    let fresh: Vec<&OpRow> = rows
        .iter()
        .filter(|r| {
            matches!(
                r.op.action,
                Action::Campaign {
                    store: Store::Fresh,
                    ..
                }
            )
        })
        .collect();
    let artifact_bytes: u64 = if fresh.is_empty() {
        driver::dir_bytes(warm_store)
    } else {
        fresh
            .iter()
            .filter_map(|r| r.samples.last())
            .map(|s| s.published_bytes)
            .sum()
    };
    let virtual_ns: u64 = virtuals.iter().map(RunBreakdown::total_ns).sum();
    let all = attempted as usize;
    report::values(
        &END_TO_END,
        &[
            ("ttfb_ms", geometric_mean(&ttfb), samples_of(Op::feeds_ttfb)),
            (
                "states_per_s",
                geometric_mean(&states_per_s),
                samples_of(Op::feeds_throughput),
            ),
            ("peak_rss_mb", peak_rss, all),
            ("artifact_mb", artifact_bytes as f64 / (1 << 20) as f64, 1),
            ("virtual_ms", virtual_ns as f64 / 1e6, 1),
            ("success_ratio", 1.0 - failed as f64 / attempted as f64, all),
            ("setup_s", setup_s, 1),
        ],
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_values(
    replay: &Replay<'_>,
    spawn_ms: &[f64],
    untraced_ms: f64,
    ops: usize,
    virtuals: &[RunBreakdown],
) -> Vec<Value> {
    let t = &replay.tracer;
    let spawn = median(spawn_ms);
    let ms = |name: &str| t.total_ms(name);
    let c = |name: &str| t.counter(name);
    // A timed metric: summed duration of its spans, one sample per span.
    let timed = |metric: &'static str, spans: &[&str]| {
        let total: f64 = spans.iter().map(|s| t.total_ms(s)).sum();
        let count: usize = spans.iter().map(|s| t.count(s)).sum();
        (metric, total, count)
    };
    // A counter or a derived number.
    let one = |metric: &'static str, value: f64| (metric, value, 1);
    let exec = ["exec.first_batch", "exec.batch"];
    let exec_run = ms("exec.first_batch") + ms("exec.batch");
    let exec_self = t.self_ms("exec.first_batch") + t.self_ms("exec.batch");
    let on_path: f64 = t.on_path_self_ms().values().sum();
    let on_path_compile = t.on_path_ms("fusion") + t.on_path_ms("convert");
    let virtual_ms = |stage: fn(&RunBreakdown) -> u64| -> f64 {
        virtuals.iter().map(stage).sum::<u64>() as f64 / 1e6
    };
    let mib = (1u64 << 20) as f64;
    let fusion_hits = 1.0 - ratio(c("fusion.cache_misses"), c("fusion.cache_lookups"));
    let measured = [
        ("proc.spawn_ms", spawn, spawn_ms.len()),
        timed("qcir.build_ms", &["qcir.build"]),
        one("qcir.gates", c("qcir.gates")),
        timed("qdd.lower_ms", &["qdd.lower"]),
        one("qdd.lowered_gates", c("qdd.lowered_gates")),
        timed("fusion.ms", &["fusion"]),
        one("fusion.dd_nodes", c("fusion.dd_nodes")),
        one("fusion.cache_misses", c("fusion.cache_misses")),
        one("fusion.cache_hit_ratio", fusion_hits),
        one("fusion.fused_gates", c("fusion.fused_gates")),
        one("fusion.mac_per_input", c("fusion.mac_per_input")),
        one("fusion.max_nzr", c("fusion.max_nzr")),
        timed("convert.ms", &["convert"]),
        one("convert.distinct_gates", c("convert.distinct_gates")),
        one(
            "convert.cache_hit_ratio",
            ratio(c("convert.cache_hits"), c("convert.cache_lookups")),
        ),
        one("convert.ell_mb", c("convert.ell_bytes") / mib),
        one(
            "convert.pad_ratio",
            ratio(c("convert.stored_nonzeros"), c("convert.slots")),
        ),
        one("convert.gpu_path_gates", c("convert.gpu_path_gates")),
        one("convert.cpu_path_gates", c("convert.cpu_path_gates")),
        timed("artifact.publish_ms", &["artifact.publish"]),
        timed("artifact.load_ms", &["artifact.load"]),
        one("artifact.bytes", c("artifact.bytes")),
        one(
            "artifact.hit_ratio",
            ratio(c("artifact.hits"), c("artifact.lookups")),
        ),
        timed("tune.probe_ms", &["tune.probe"]),
        one("tune.probes", c("tune.probes")),
        timed("tune.stored_ms", &["tune.stored"]),
        timed("inputs.gen_ms", &["inputs.gen"]),
        timed("ell.spmm_ms", &["ell.spmm"]),
        one("ell.macs", c("ell.macs")),
        one("ell.gmac_per_s", ratio(c("ell.macs"), ms("ell.spmm") * 1e6)),
        one("ell.bytes_moved_mb", c("ell.bytes_moved") / mib),
        one(
            "ell.macs_per_byte",
            ratio(c("ell.macs"), c("ell.bytes_moved")),
        ),
        timed("ell.pack_ms", &["ell.pack"]),
        timed("ell.unpack_ms", &["ell.unpack"]),
        timed("exec.first_run_ms", &["exec.first_batch"]),
        timed("exec.run_ms", &exec),
        ("exec.self_ms", exec_self, c("exec.batches") as usize),
        one(
            "exec.per_batch_us",
            ratio(exec_run * 1e3, c("exec.batches")),
        ),
        one(
            "exec.pool_hit_ratio",
            ratio(c("exec.pool_hits"), c("exec.pool_lookups")),
        ),
        timed("exec.run_ms_t1", &["exec.t1"]),
        one("exec.thread_speedup", ratio(ms("exec.t1"), ms("exec.tn"))),
        one("gpu.virtual_fusion_ms", virtual_ms(|b| b.fusion_ns)),
        one("gpu.virtual_convert_ms", virtual_ms(|b| b.conversion_ns)),
        one("gpu.virtual_sim_ms", virtual_ms(|b| b.simulation_ns)),
        timed("campaign.run_ms", &["campaign.run"]),
        (
            "campaign.self_ms",
            t.self_ms("campaign.run"),
            t.count("campaign.run"),
        ),
        timed("campaign.journal_ms", &["campaign.journal"]),
        timed("campaign.checksum_ms", &["campaign.checksum"]),
        one("campaign.journal_bytes", c("campaign.journal_bytes")),
        timed("serve.session_ms", &["serve.session"]),
        one("serve.sched_events", c("serve.sched_events")),
        one("serve.warm_compiles", c("serve.warm_compiles")),
        one("serve.cold_compiles", c("serve.cold_compiles")),
        one("serve.requeues", c("serve.requeues")),
        one(
            "serve.parallel_efficiency",
            ratio(c("serve.serial_ms"), c("serve.device_ms")),
        ),
        one(
            "trace.attributed_share",
            (on_path + ops as f64 * spawn) / untraced_ms,
        ),
        one("trace.overhead_ratio", ms("op") / untraced_ms),
        one("trace.compile_share", on_path_compile / untraced_ms),
    ];
    report::values(&PER_LAYER, &measured)
}

fn print_workload(run: &WorkloadRun, seed: u64) {
    println!(
        "\n== {} — seed {seed}, {} round(s), {} op(s) attempted, {} failed, \
         oracle error {:.2e} ==",
        run.name, run.rounds, run.attempted, run.failed, run.oracle_error
    );
    println!("end-to-end (tracing off, closed loop, 1 client, host wall clock):");
    print!("{}", report::table(&run.end_to_end));
    for row in &run.rows {
        println!(
            "    {:<20} {}  peak rss {:>7.1} MiB",
            row.op.label,
            estimator::row(&row.walls_ms(), "ms"),
            row.peak_rss_mib()
        );
    }
    if let Some(layers) = &run.layers {
        println!(
            "per-layer (traced replay of one round, {} spans):",
            layers.spans
        );
        print!("{}", report::table(&layers.values));
        println!("  self time on the ops' path, ms:");
        for (name, ms) in &layers.attribution {
            println!("    {name:<24} {ms:>12.3}");
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn document(host: &Host, args: &Args, runs: &[WorkloadRun]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"bqsim_threads\": {}}}, \
         \"seed\": {}, \"seconds\": {}, \"workloads\": [",
        host.nproc,
        json_escape(&host.cpu),
        json_escape(&host.rustc),
        host.threads,
        args.seed,
        args.seconds
    );
    for (i, run) in runs.iter().enumerate() {
        let ops: Vec<String> = run
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"label\": \"{}\", \"samples\": {}, \"median_ms\": {}, \"peak_rss_mib\": {}}}",
                    r.op.label,
                    r.samples.len(),
                    r.median_ms(),
                    r.peak_rss_mib()
                )
            })
            .collect();
        let layers = run.layers.as_ref().map_or("null".to_string(), |l| {
            format!("{{{}}}", report::metrics_json(&l.values))
        });
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {{{}}}, \"per_layer\": {layers}, \"ops\": [{}]}}",
            if i == 0 { "" } else { ", " },
            run.name,
            run.rounds,
            run.attempted,
            run.failed,
            report::metrics_json(&run.end_to_end),
            ops.join(", ")
        );
    }
    s.push_str("]}\n");
    s
}

/// Two end-to-end sets back to back; every metric of the second must
/// agree with the first within its own bound.
fn check_repeat(
    args: &Args,
    names: &[&str],
    tmp: &TempRoot,
    driver: &mut Driver,
) -> Result<bool, String> {
    let mut all_within = true;
    println!(
        "\n{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for name in names {
        let first = run_workload(args, name, TraceMode::Off, tmp, driver)?;
        let second = run_workload(args, name, TraceMode::Off, tmp, driver)?;
        for (a, b) in first.end_to_end.iter().zip(&second.end_to_end) {
            let diff = (b.value - a.value).abs() / a.value.abs();
            let within = diff <= a.def.bound && first.correct() && second.correct();
            all_within &= within;
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>8.3}% {:>6.1}% {}",
                name,
                a.def.name,
                a.value,
                b.value,
                diff * 100.0,
                a.def.bound * 100.0,
                if within { "ok" } else { "MISS" }
            );
        }
    }
    Ok(all_within)
}

fn run(args: &Args) -> Result<bool, String> {
    // First, while this process is still small (see `driver`).
    let mut driver = Driver::start(args.bqsim.clone()).map_err(|e| format!("spawner: {e}"))?;
    let host = Host::probe();
    println!(
        "host: nproc={} cpu=\"{}\" {} — bqsim threads={}",
        host.nproc, host.cpu, host.rustc, host.threads
    );
    if host.threads > host.nproc {
        return Err(format!(
            "BQSIM_THREADS asks for {} threads on {} core(s); the benchmark does not oversubscribe",
            host.threads, host.nproc
        ));
    }
    let tmp = TempRoot::create(&args.tmp_root)?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    if args.check_repeat {
        return check_repeat(args, &names, &tmp, &mut driver);
    }
    let mut runs = Vec::new();
    for name in &names {
        let run = run_workload(args, name, args.trace, &tmp, &mut driver)?;
        print_workload(&run, args.seed);
        runs.push(run);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, document(&host, args, &runs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let (Some(_), [run]) = (&args.workload, runs.as_slice()) {
        let mut values = Vec::new();
        if args.trace != TraceMode::Only {
            values.extend(&run.end_to_end);
        }
        if let Some(layers) = &run.layers {
            values.extend(&layers.values);
        }
        println!(
            "{}",
            report::result_line(run.correct(), run.attempted, run.failed, &values)
        );
    }
    Ok(runs.iter().all(WorkloadRun::correct))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        return driver::spawner_main();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
