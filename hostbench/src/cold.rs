//! `prepare-cold`: a closed loop with one caller. Each op opens a
//! twitter-like graph afresh (no in-memory memo carries over), tunes the
//! knobs, runs the combined prepare into a fresh empty disk cache, derives
//! the plan, and runs one BFS with its exact reference.

use crate::cells::{emit_efficiency, same_bits, CellSamples, SCALING_RUNS, SETUP_REPEATS};
use crate::inputs::{self, Input};
use crate::manifest::STAGES;
use crate::spans::{Call, Recorder};
use crate::{stats, Ctx, Results, Scale};
use graffix::graph::serialize;
use graffix::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

fn input(scale: Scale) -> Input {
    Input {
        name: "twitter",
        kind: GraphKind::SocialTwitter,
        nodes: match scale {
            Scale::Full => 1 << 13,
            Scale::Toy => 1 << 8,
        },
    }
}

/// The knob seed the CLI tunes with, so results match `graffix run`.
const TUNE_SEED: u64 = 7;

/// The `--technique combined` pipeline for the tuned knobs.
pub fn combined(tuned: &TunedKnobs) -> Pipeline {
    Pipeline {
        coalesce: Some(tuned.coalesce),
        latency: Some(tuned.latency),
        divergence: Some(tuned.divergence),
    }
}

/// Everything one cold op produced.
struct ColdOp {
    wall_s: f64,
    open: Call,
    tune: Call,
    prepare: Call,
    outcome: CacheOutcome,
    plan: Plan,
    plan_call: Call,
    run: SimRun,
    run_call: Call,
    exact: Vec<f64>,
    ref_call: Call,
    cache_bytes: u64,
}

/// One cold op into the fresh cache directory `cache_dir`, removed after.
fn cold_op(
    path: &Path,
    source: NodeId,
    gpu: &GpuConfig,
    cache_dir: &Path,
    rec: &mut Recorder,
) -> io::Result<ColdOp> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = CacheConfig::at(cache_dir);
    let outer = rec.begin("harness", "cold-op");
    let (g, open) = rec.call("graph", "open", || serialize::open_mapped(path));
    let g = g?;
    let (tuned, tune) = rec.call("core", "tune", || auto_tune(&g, TUNE_SEED));
    let pipeline = combined(&tuned);
    let (prepared, prepare) = rec.call("core", "prepare", || {
        prepare_with_cache(&g, &pipeline, gpu, &cache)
    });
    let (prepared, outcome) =
        prepared.map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let (plan, plan_call) = rec.call("baselines", "plan", || {
        Baseline::Lonestar.plan(&prepared, gpu)
    });
    let (run, run_call) = rec.call("algos", "run_sim", || bfs::run_sim(&plan, source));
    let (exact, ref_call) = rec.call("algos", "exact_cpu", || bfs::exact_cpu(&g, source));
    let wall_s = rec.end(outer).wall_s;
    let cache_bytes = inputs::dir_bytes(cache_dir);
    let _ = std::fs::remove_dir_all(cache_dir);
    Ok(ColdOp {
        wall_s,
        open,
        tune,
        prepare,
        outcome,
        plan,
        plan_call,
        run,
        run_call,
        exact,
        ref_call,
        cache_bytes,
    })
}

/// The op's checks: a cold store, a valid plan, finite values.
fn check_op(res: &mut Results, op: &str, out: &ColdOp) {
    res.check(out.outcome.status == CacheStatus::MissStored, || {
        format!(
            "{op}: cold prepare reported `{}`",
            out.outcome.status.label()
        )
    });
    res.check(out.plan.validate().is_ok(), || {
        format!("{op}: plan fails validate: {:?}", out.plan.validate().err())
    });
    // Unreached vertices are infinite in the reference too; every value
    // the reference reaches must be finite in the run.
    let finite = out.run.values.len() == out.exact.len()
        && out
            .run
            .values
            .iter()
            .zip(&out.exact)
            .all(|(v, e)| v.is_finite() || !e.is_finite());
    res.check(finite, || format!("{op}: BFS produced non-finite values"));
}

pub fn run(ctx: &mut Ctx) -> io::Result<Results> {
    let mut res = Results::default();
    let path = inputs::generate(&ctx.work, ctx.seed, &[input(ctx.scale)])?.remove(0);
    crate::probe::reset_peak_rss();
    let gpu = GpuConfig::k40c();
    let threads = ctx.engine_threads();
    let engine = Ctx::pool(threads);
    let single = Ctx::pool(1);

    // Setup: open and validate the input, pick the BFS source. The warm-up
    // op (engine threads, allocator growth) runs after the setup clock
    // stops and its timings are not kept.
    let mut setup = Vec::new();
    let mut source = 0;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let g = serialize::open_mapped(&path)?;
        g.check()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        source = sssp::default_source(&g);
        setup.push(start.elapsed().as_secs_f64());
    }
    ctx.rec.set_enabled(false);
    let warm =
        engine.install(|| cold_op(&path, source, &gpu, &ctx.work.join("warm"), &mut ctx.rec))?;
    ctx.rec.set_enabled(ctx.trace);
    check_op(&mut res, "warm-up op", &warm);
    res.set_median("setup_s", &setup);

    let mut cell = CellSamples::default();
    let mut ops_plain = Vec::new();
    let mut ops_traced = Vec::new();
    let mut open_s = Vec::new();
    let mut tune_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut prepare_total = Vec::new();
    let mut other_s = Vec::new();
    let mut stage_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cache_bytes = 0u64;
    let mut last = None;
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0 || started.elapsed() < ctx.seconds {
        let traced = ctx.trace && op.is_multiple_of(2);
        ctx.rec.set_enabled(traced);
        ctx.rec.set_op(op);
        let cache_dir = ctx.work.join(format!("cache-{op}"));
        let out = engine.install(|| cold_op(&path, source, &gpu, &cache_dir, &mut ctx.rec))?;
        check_op(&mut res, &format!("op {op}"), &out);
        let ColdOp {
            wall_s: wall,
            open,
            tune,
            prepare: prep,
            outcome,
            plan,
            plan_call,
            run,
            run_call,
            exact,
            ref_call,
            cache_bytes: bytes,
        } = out;
        cache_bytes = bytes;

        open_s.push(open.wall_s);
        tune_s.push(tune.wall_s);
        prepare_s.push(prep.wall_s);
        prepare_total.push(open.wall_s + tune.wall_s + prep.wall_s);
        let mut staged = 0.0;
        for r in &outcome.stages {
            stage_s.entry(r.stage).or_default().push(r.seconds);
            staged += r.seconds;
        }
        other_s.push(prep.wall_s - staged);

        cell.wall.push(wall);
        cell.plan.push(plan_call.wall_s);
        cell.add_run(run_call, traced, &run.stats);
        cell.reference.push(ref_call.wall_s);
        cell.inaccuracy = relative_l1(&run.values, &exact);
        cell.add_counts(&mut res, "cold-bfs", run.stats, run.elapsed_cycles(&gpu));
        if traced {
            ops_traced.push(wall);
        } else {
            ops_plain.push(wall);
        }
        last = Some((plan, run));
        op += 1;
    }
    if let (true, Some((plan, run))) = (ctx.trace, &last) {
        // Thread scaling and the 1-vs-2-thread identity check, untraced and
        // after the timed loop.
        ctx.rec.set_enabled(false);
        let engine_wall = stats::median(&cell.run);
        for _ in 0..SCALING_RUNS {
            let start = Instant::now();
            let one = single.install(|| bfs::run_sim(plan, source));
            cell.scaling
                .push(start.elapsed().as_secs_f64() / engine_wall.max(1e-9));
            res.check(
                same_bits(&one.values, &run.values) && one.stats == run.stats,
                || format!("1-thread BFS differs from {threads}-thread BFS"),
            );
        }
    }
    ctx.rec.set_enabled(ctx.trace);

    let ops_ms: Vec<f64> = ops_plain.iter().map(|s| s * 1e3).collect();
    res.set_median("op_p50_ms", &ops_ms);
    res.set(
        "ops_per_s",
        ops_plain.len() as f64 / ops_plain.iter().sum::<f64>().max(1e-9),
        ops_plain.len(),
    );
    res.set("sim_cycles", cell.cycles.unwrap_or(0) as f64, 1);

    res.set_median("graph.open_s", &open_s);
    res.set(
        "graph.bytes",
        inputs::file_bytes(&path) as f64,
        open_s.len(),
    );
    res.set_median("core.tune_s", &tune_s);
    res.set_median("core.prepare_s", &prepare_s);
    for stage in STAGES {
        if let Some(s) = stage_s.get(stage) {
            res.set_median(format!("core.stage_s.{stage}"), s);
        }
    }
    res.set_median("core.prepare_other_s", &other_s);
    res.set("core.cache_bytes", cache_bytes as f64, 1);
    cell.emit(&mut res, "cold-bfs");
    emit_efficiency(&mut res, &cell.stats, gpu.warp_size);
    res.note(format!(
        "prepare {:>9.1} ms median (open + tune + prepare) over {} ops; cold-bfs {} simulated cycles, inaccuracy {:.2}%",
        stats::median(&prepare_total) * 1e3,
        prepare_total.len(),
        cell.cycles.unwrap_or(0),
        cell.inaccuracy * 100.0
    ));
    if ctx.trace {
        res.set(
            "trace.overhead_ms",
            (stats::median(&ops_traced) - stats::median(&ops_plain)) * 1e3,
            ops_traced.len().min(ops_plain.len()),
        );
    }
    Ok(res)
}
