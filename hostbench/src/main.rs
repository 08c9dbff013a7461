//! `hostbench` — the host wall-time benchmark of graffix.
//!
//! ```text
//! hostbench --workload <paper-cells|prepare-cold|serve-mixed> --seed N
//!           --seconds S --trace <0|1> [--scale full|toy]
//! hostbench manifest        # prints BENCHMARK.json
//! ```
//!
//! Each run generates its input graphs from `--seed` (untimed), hands the
//! program only the GFX1 files, measures for `--seconds`, checks every
//! result, and prints one JSON object as the last stdout line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from the
//! span recorder) with `--trace 1`. See `hostbench/README.md`.

mod cells;
mod cold;
mod inputs;
mod manifest;
mod probe;
mod serve;
mod spans;
mod stats;

use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Engine threads for the closed-loop workloads (capped by the host).
pub const ENGINE_THREADS: usize = 2;

/// Input sizes: `Full` is the benchmark, `Toy` the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Everything a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for this run (inputs, caches); removed at exit.
    pub work: PathBuf,
    pub rec: Recorder,
}

impl Ctx {
    /// Engine threads for closed-loop runs: [`ENGINE_THREADS`], at most the
    /// host's parallelism.
    pub fn engine_threads(&self) -> usize {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        ENGINE_THREADS.min(host)
    }

    pub fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
    }
}

/// A workload's measurements and checks.
#[derive(Default)]
pub struct Results {
    /// Metric name -> (value, sample count).
    values: BTreeMap<String, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Messages for failed checks (printed, first few only).
    failures: Vec<String>,
    /// A run whose load generator fell behind is invalid, not slow.
    pub invalid: Option<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Results {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    /// Sets `name` to the median of `samples`.
    pub fn set_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.set(name, stats::median(samples), samples.len());
    }

    /// Counts one checked op; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let workload = get("workload")?.to_string();
    if !manifest::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
    };
    let scale = match flags.get("scale").copied().unwrap_or("full") {
        "full" => Scale::Full,
        "toy" => Scale::Toy,
        other => return Err(format!("--scale wants full or toy, not `{other}`")),
    };
    for k in flags.keys() {
        if !matches!(*k, "workload" | "seed" | "seconds" | "trace" | "scale") {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
        scale,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <paper-cells|prepare-cold|serve-mixed> --seed N --seconds S --trace <0|1> [--scale full|toy]"
            );
            return ExitCode::from(2);
        }
    };

    let root = PathBuf::from(".hostbench");
    let work = root.join(format!("work-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("hostbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let guard = WorkDir(work.clone());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        scale: args.scale,
        work,
        rec: Recorder::new(args.trace),
    };

    let outcome = match args.workload.as_str() {
        "paper-cells" => cells::run(&mut ctx),
        "prepare-cold" => cold::run(&mut ctx),
        "serve-mixed" => serve::run(&mut ctx),
        _ => unreachable!("workload names are validated"),
    };
    let mut res = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hostbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(mb) = probe::peak_rss_mb() {
        res.set("peak_rss_mb", mb, 1);
    }
    if args.trace {
        // Self time per traced op keeps runs of different length comparable.
        let ops = ctx.rec.op_count();
        for (layer, secs) in ctx.rec.self_seconds() {
            res.set(format!("{layer}.self_s"), secs / ops.max(1) as f64, ops);
        }
        let dir = root.join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ctx.rec.to_json_lines()));
        match written {
            Ok(()) => res.note(format!(
                "spans: {} written to {}",
                ctx.rec.spans().len(),
                path.display()
            )),
            Err(e) => res.note(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    res.note(format!(
        "host parallelism {}, engine threads {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ctx.engine_threads()
    ));
    drop(guard);
    print_result(&args, &res);
    ExitCode::SUCCESS
}

fn print_result(args: &Args, res: &Results) {
    for line in &res.notes {
        println!("{line}");
    }
    for f in &res.failures {
        println!("FAILED: {f}");
    }
    if let Some(why) = &res.invalid {
        println!("INVALID RUN: {why}");
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        manifest::per_layer()
    } else {
        manifest::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        let (value, n) = res.values.get(name).copied().unwrap_or((0.0, 0));
        println!("metric {name:<40} {value:>18.6} {unit:<7} n={n}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = res.attempted > 0 && res.failed == 0 && res.invalid.is_none();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted,
        res.failed,
        metrics.join(", ")
    );
}
