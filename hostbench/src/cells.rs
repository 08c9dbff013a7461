//! `paper-cells`: a closed loop with one caller over the paper's
//! simulation cells, exact technique. Each cell derives its plan, runs the
//! simulation, computes the exact CPU reference and checks the values.
//! One op is one pass over all four cells.

use crate::inputs::{self, Input};
use crate::spans::Recorder;
use crate::{stats, Ctx, Results, Scale};
use graffix::graph::serialize;
use graffix::observe::{assemble_report, instrument_plan};
use graffix::prelude::*;
use std::io;
use std::time::Instant;

/// A simulated algorithm the cells run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Pr,
    Sssp,
    Bfs,
}

struct Cell {
    name: &'static str,
    /// Index into the workload's inputs.
    input: usize,
    kernel: Kernel,
    baseline: Baseline,
    direction: Direction,
    /// Run the `graffix profile` path: instrumented plan, report assembly
    /// and JSON encoding.
    report: bool,
}

const CELLS: [Cell; 4] = [
    Cell {
        name: "pr",
        input: 0,
        kernel: Kernel::Pr,
        baseline: Baseline::Lonestar,
        direction: Direction::Push,
        report: false,
    },
    Cell {
        name: "sssp",
        input: 0,
        kernel: Kernel::Sssp,
        baseline: Baseline::Lonestar,
        direction: Direction::Push,
        report: false,
    },
    Cell {
        name: "bfs",
        input: 0,
        kernel: Kernel::Bfs,
        baseline: Baseline::Lonestar,
        direction: Direction::Auto,
        report: true,
    },
    Cell {
        name: "sssp-road",
        input: 1,
        kernel: Kernel::Sssp,
        baseline: Baseline::Gunrock,
        direction: Direction::Push,
        report: false,
    },
];

fn inputs(scale: Scale) -> [Input; 2] {
    let (rmat, road) = match scale {
        Scale::Full => (1 << 15, 1 << 15),
        Scale::Toy => (1 << 9, 1 << 9),
    };
    [
        Input {
            name: "rmat",
            kind: GraphKind::Rmat,
            nodes: rmat,
        },
        Input {
            name: "road",
            kind: GraphKind::Road,
            nodes: road,
        },
    ]
}

/// Setup repetitions; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// Single-thread runs per cell behind `algos.scaling.<cell>` (traced run).
pub const SCALING_RUNS: usize = 3;

/// A loaded input: the original graph, its exact preparation, the
/// deterministic traversal source.
struct Loaded {
    graph: Csr,
    prepared: Prepared,
    source: NodeId,
}

/// Runs one kernel on a plan.
pub fn run_kernel(kernel: Kernel, plan: &Plan, source: NodeId) -> SimRun {
    match kernel {
        Kernel::Pr => pagerank::run_sim(plan),
        Kernel::Sssp => sssp::run_sim(plan, source),
        Kernel::Bfs => bfs::run_sim(plan, source),
    }
}

/// The exact CPU reference of a kernel on the original graph.
pub fn reference(kernel: Kernel, g: &Csr, source: NodeId) -> Vec<f64> {
    match kernel {
        Kernel::Pr => pagerank::exact_cpu(g),
        Kernel::Sssp => sssp::exact_cpu(g, source),
        Kernel::Bfs => bfs::exact_cpu(g, source),
    }
}

/// Exact equality, infinities included.
pub fn same_values(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// Bit-for-bit equality (the 1-vs-2-thread identity check).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-cell samples gathered over a run.
#[derive(Default)]
pub struct CellSamples {
    pub wall: Vec<f64>,
    pub plan: Vec<f64>,
    pub run: Vec<f64>,
    pub run_cpu: Vec<f64>,
    pub ns_per_step: Vec<f64>,
    pub us_per_launch: Vec<f64>,
    pub scaling: Vec<f64>,
    pub reference: Vec<f64>,
    pub stats: KernelStats,
    pub cycles: Option<u64>,
    pub inaccuracy: f64,
}

impl CellSamples {
    /// Adds one simulation call's timing; its CPU time only counts when
    /// the call was traced (the CPU clock is read only then).
    pub fn add_run(&mut self, call: crate::spans::Call, traced: bool, stats: &KernelStats) {
        let wall_s = call.wall_s;
        self.run.push(wall_s);
        if traced {
            self.run_cpu.push(call.cpu_s);
        }
        self.ns_per_step
            .push(wall_s * 1e9 / stats.steps.max(1) as f64);
        self.us_per_launch
            .push(wall_s * 1e6 / stats.launches.max(1) as f64);
    }

    /// Records the run's deterministic counts; a change between ops is a
    /// determinism failure.
    pub fn add_counts(&mut self, res: &mut Results, cell: &str, stats: KernelStats, cycles: u64) {
        let same = self
            .cycles
            .is_none_or(|c| c == cycles && self.stats == stats);
        res.check(same, || {
            format!("{cell}: simulated counts changed between ops")
        });
        self.stats = stats;
        self.cycles = Some(cycles);
    }

    /// Emits the cell's per-layer metrics.
    pub fn emit(&self, res: &mut Results, cell: &str) {
        res.set_median(format!("baselines.plan_s.{cell}"), &self.plan);
        res.set_median(format!("algos.run_s.{cell}"), &self.run);
        res.set_median(format!("algos.run_cpu_s.{cell}"), &self.run_cpu);
        res.set_median(format!("algos.ns_per_step.{cell}"), &self.ns_per_step);
        res.set_median(format!("algos.us_per_launch.{cell}"), &self.us_per_launch);
        res.set_median(format!("algos.scaling.{cell}"), &self.scaling);
        res.set_median(format!("algos.ref_s.{cell}"), &self.reference);
        res.set(format!("algos.inaccuracy.{cell}"), self.inaccuracy, 1);
        let s = &self.stats;
        let n = usize::from(self.cycles.is_some());
        res.set(
            format!("sim.cycles.{cell}"),
            self.cycles.unwrap_or(0) as f64,
            n,
        );
        res.set(format!("sim.steps.{cell}"), s.steps as f64, n);
        res.set(format!("sim.launches.{cell}"), s.launches as f64, n);
        res.set(
            format!("sim.global_transactions.{cell}"),
            s.global_transactions as f64,
            n,
        );
        res.set(format!("sim.atomic_ops.{cell}"), s.atomic_ops as f64, n);
        res.set(
            format!("sim.divergent_slots.{cell}"),
            s.divergent_slots as f64,
            n,
        );
    }
}

/// Useful/attempted ratios over the summed counts of a workload's cells:
/// lane accesses per 32 paid transactions, and idle issue slots per lane
/// slot.
pub fn emit_efficiency(res: &mut Results, total: &KernelStats, warp_size: usize) {
    let lanes = warp_size.max(1) as f64;
    res.set(
        "sim.coalescing_eff",
        total.global_accesses as f64 / (lanes * total.global_transactions.max(1) as f64),
        1,
    );
    res.set(
        "sim.divergence_waste",
        total.divergent_slots as f64 / (lanes * total.steps.max(1) as f64),
        1,
    );
}

/// One cell's outputs from one pass.
struct CellOut {
    run: SimRun,
    run_call: crate::spans::Call,
    plan_s: f64,
    transpose_s: Option<f64>,
    ref_s: f64,
    reference: Vec<f64>,
    report: Option<(f64, f64, usize)>,
    report_ok: Result<(), String>,
}

fn run_cell(cell: &Cell, input: &Loaded, gpu: &GpuConfig, rec: &mut Recorder) -> CellOut {
    let (mut plan, plan_call) = rec.call("baselines", "plan", || {
        cell.baseline
            .plan(&input.prepared, gpu)
            .with_direction(cell.direction)
    });
    // Pull-capable directions read the CSC mirror; build it explicitly so
    // the transpose is timed on its own rather than inside the first run.
    let transpose_s = (cell.direction != Direction::Push).then(|| {
        rec.call("graph", "transpose", || {
            plan.csc();
        })
        .1
        .wall_s
    });
    let trace = if cell.report {
        rec.call("report", "instrument", || {
            instrument_plan(&mut plan, &input.prepared)
        })
        .0
    } else {
        plan.trace.clone()
    };
    let (run, run_call) = rec.call("algos", "run_sim", || {
        run_kernel(cell.kernel, &plan, input.source)
    });
    let (reference, ref_call) = rec.call("algos", "exact_cpu", || {
        reference(cell.kernel, &input.graph, input.source)
    });
    let mut report = None;
    let mut report_ok = Ok(());
    if cell.report {
        let (rep, assemble) = rec.call("report", "assemble", || {
            assemble_report(
                "profile",
                cell.name,
                &input.prepared,
                cell.baseline,
                &plan,
                &run,
                &trace,
            )
        });
        let (text, encode) = rec.call("report", "encode", || rep.to_pretty_string());
        report_ok = rep.verify();
        report = Some((assemble.wall_s, encode.wall_s, text.len()));
    }
    CellOut {
        run,
        run_call,
        plan_s: plan_call.wall_s,
        transpose_s,
        ref_s: ref_call.wall_s,
        reference,
        report,
        report_ok,
    }
}

/// What the passes of a run measured.
struct Tally {
    samples: Vec<CellSamples>,
    transpose: Vec<f64>,
    assemble: Vec<f64>,
    encode: Vec<f64>,
    report_bytes: usize,
    /// Simulated cycles of one pass (identical in every pass).
    cycles: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            samples: CELLS.iter().map(|_| CellSamples::default()).collect(),
            transpose: Vec::new(),
            assemble: Vec::new(),
            encode: Vec::new(),
            report_bytes: 0,
            cycles: 0,
        }
    }

    /// One pass over every cell, each checked against its reference.
    fn pass(
        &mut self,
        loaded: &[Loaded],
        gpu: &GpuConfig,
        rec: &mut Recorder,
        res: &mut Results,
        traced: bool,
    ) -> Vec<CellOut> {
        let mut cycles = 0;
        let mut outs = Vec::new();
        for (cell, s) in CELLS.iter().zip(&mut self.samples) {
            let cell_start = Instant::now();
            let out = run_cell(cell, &loaded[cell.input], gpu, rec);
            let inaccuracy = relative_l1(&out.run.values, &out.reference);
            let ok = match cell.kernel {
                Kernel::Pr => inaccuracy <= PR_TOLERANCE,
                Kernel::Sssp | Kernel::Bfs => same_values(&out.run.values, &out.reference),
            };
            res.check(ok, || {
                format!(
                    "{}: values differ from the exact reference (relative L1 {inaccuracy:.3e})",
                    cell.name
                )
            });
            if let Err(e) = &out.report_ok {
                res.check(false, || {
                    format!("{}: run report fails verify: {e}", cell.name)
                });
            }
            s.wall.push(cell_start.elapsed().as_secs_f64());
            s.plan.push(out.plan_s);
            s.add_run(out.run_call, traced, &out.run.stats);
            s.reference.push(out.ref_s);
            s.inaccuracy = inaccuracy;
            let c = out.run.elapsed_cycles(gpu);
            s.add_counts(res, cell.name, out.run.stats, c);
            cycles += c;
            self.transpose.extend(out.transpose_s);
            if let Some((assemble, encode, bytes)) = out.report {
                self.assemble.push(assemble);
                self.encode.push(encode);
                self.report_bytes = bytes;
            }
            outs.push(out);
        }
        self.cycles = cycles;
        outs
    }
}

/// Relative L1 bound for PageRank against its exact reference.
const PR_TOLERANCE: f64 = 1e-3;

pub fn run(ctx: &mut Ctx) -> io::Result<Results> {
    let mut res = Results::default();
    let specs = inputs(ctx.scale);
    let paths = inputs::generate(&ctx.work, ctx.seed, &specs)?;
    crate::probe::reset_peak_rss();
    let gpu = GpuConfig::k40c();

    // Setup: open and validate every input, prepare it exactly, pick its
    // source and derive every cell's plan. The warm-up pass (engine
    // threads, first touch of the mapped inputs, allocator growth) runs
    // after the setup clock stops and its timings are not kept.
    let threads = ctx.engine_threads();
    let engine = Ctx::pool(threads);
    let single = Ctx::pool(1);
    let mut setup = Vec::new();
    let mut opens = Vec::new();
    let mut loaded = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        loaded.clear();
        for path in &paths {
            let (graph, open) = ctx
                .rec
                .call("graph", "open", || serialize::open_mapped(path));
            opens.push(open.wall_s);
            let graph = graph?;
            graph
                .check()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let (prepared, _) = ctx
                .rec
                .call("core", "prepare", || Prepared::exact(graph.clone()));
            let source = sssp::default_source(&graph);
            loaded.push(Loaded {
                graph,
                prepared,
                source,
            });
        }
        for cell in &CELLS {
            let plan = cell
                .baseline
                .plan(&loaded[cell.input].prepared, &gpu)
                .with_direction(cell.direction);
            std::hint::black_box(plan);
        }
        setup.push(start.elapsed().as_secs_f64());
    }
    let mut warm = Tally::new();
    ctx.rec.set_enabled(false);
    engine.install(|| warm.pass(&loaded, &gpu, &mut ctx.rec, &mut res, false));
    ctx.rec.set_enabled(ctx.trace);
    res.set_median("setup_s", &setup);
    res.set_median("graph.open_s", &opens);
    res.set(
        "graph.bytes",
        paths.iter().map(|p| inputs::file_bytes(p)).sum::<u64>() as f64,
        paths.len(),
    );

    let mut tally = Tally::new();
    let (mut passes_traced, mut passes_plain) = (Vec::new(), Vec::new());
    let mut last = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || started.elapsed() < ctx.seconds {
        // The traced run alternates traced and untraced passes; the
        // difference of their medians is the tracing overhead.
        let traced = ctx.trace && pass.is_multiple_of(2);
        ctx.rec.set_enabled(traced);
        ctx.rec.set_op(pass);
        let open = ctx.rec.begin("harness", "pass");
        let outs = engine.install(|| tally.pass(&loaded, &gpu, &mut ctx.rec, &mut res, traced));
        let wall = ctx.rec.end(open).wall_s;
        if traced {
            passes_traced.push(wall);
        } else {
            passes_plain.push(wall);
        }
        last = outs;
        pass += 1;
    }
    if ctx.trace {
        // Thread scaling and the 1-vs-2-thread identity check, untraced and
        // after the timed loop so they disturb neither.
        ctx.rec.set_enabled(false);
        for ((cell, s), out) in CELLS.iter().zip(&mut tally.samples).zip(&last) {
            let input = &loaded[cell.input];
            let plan = cell
                .baseline
                .plan(&input.prepared, &gpu)
                .with_direction(cell.direction);
            let engine_wall = stats::median(&s.run);
            for _ in 0..SCALING_RUNS {
                let start = Instant::now();
                let one = single.install(|| run_kernel(cell.kernel, &plan, input.source));
                s.scaling
                    .push(start.elapsed().as_secs_f64() / engine_wall.max(1e-9));
                res.check(
                    same_bits(&one.values, &out.run.values) && one.stats == out.run.stats,
                    || {
                        format!(
                            "{}: 1-thread run differs from {threads}-thread run",
                            cell.name
                        )
                    },
                );
            }
        }
    }
    ctx.rec.set_enabled(ctx.trace);

    // End to end: one op is one pass (untraced passes only).
    let ops = &passes_plain;
    let ops_ms: Vec<f64> = ops.iter().map(|s| s * 1e3).collect();
    res.set_median("op_p50_ms", &ops_ms);
    res.set(
        "ops_per_s",
        ops.len() as f64 / ops.iter().sum::<f64>().max(1e-9),
        ops.len(),
    );
    res.set("sim_cycles", tally.cycles as f64, 1);

    // Per layer.
    let mut total = KernelStats::default();
    for (cell, s) in CELLS.iter().zip(&tally.samples) {
        s.emit(&mut res, cell.name);
        total += s.stats;
        res.note(format!(
            "cell {:<10} {:>9.1} ms median wall over {} ops, {} simulated cycles, inaccuracy {:.2}%",
            cell.name,
            stats::median(&s.wall) * 1e3,
            s.wall.len(),
            s.cycles.unwrap_or(0),
            s.inaccuracy * 100.0
        ));
    }
    emit_efficiency(&mut res, &total, gpu.warp_size);
    res.set_median("graph.transpose_s", &tally.transpose);
    res.set_median("report.assemble_s", &tally.assemble);
    res.set_median("report.encode_s", &tally.encode);
    res.set(
        "report.bytes",
        tally.report_bytes as f64,
        tally.assemble.len(),
    );
    if ctx.trace {
        res.set(
            "trace.overhead_ms",
            (stats::median(&passes_traced) - stats::median(&passes_plain)) * 1e3,
            passes_traced.len().min(passes_plain.len()),
        );
    }
    Ok(res)
}
