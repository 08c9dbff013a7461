//! The benchmark's metric and workload tables — the single source of
//! `BENCHMARK.json` (`hostbench manifest` prints it; the smoke test checks
//! the committed file against it).

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// Workload names with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper-cells",
        "simulation-bound: closed loop of pr/sssp/bfs on rmat and gunrock sssp on a road grid; bulk warp replay vs many small supersteps",
    ),
    (
        "prepare-cold",
        "transform-bound: each op opens a twitter-like graph afresh and runs a cold combined prepare into an empty disk cache",
    ),
    (
        "serve-mixed",
        "reads and a mutate every 25 events on an in-process server: open loop at 25 and 50 req/s, then a closed-loop peak rate; pool hits, invalidation, re-prepare stalls",
    ),
];

/// An end-to-end metric: every workload reports each of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: "lower",
        bound: 0.17,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// Simulated cells, named as the per-layer metrics name them. The first
/// four run in `paper-cells`; `cold-bfs` is the BFS of `prepare-cold`.
pub const CELLS: [&str; 5] = ["pr", "sssp", "bfs", "sssp-road", "cold-bfs"];

/// Prepare stages, in `StageRecord` naming.
pub const STAGES: [&str; 8] = [
    "renumber",
    "replicate",
    "cc",
    "boost",
    "tile-select",
    "bucket",
    "normalize",
    "relabel",
];

/// The two fixed offered rates of `serve-mixed`.
pub const RATES: [&str; 2] = ["low", "high"];

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 7] = [
    "graph",
    "core",
    "baselines",
    "algos",
    "report",
    "server",
    "harness",
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("graph.open_s".into(), "s");
    add("graph.bytes".into(), "bytes");
    add("graph.transpose_s".into(), "s");
    add("core.tune_s".into(), "s");
    add("core.prepare_s".into(), "s");
    for s in STAGES {
        add(format!("core.stage_s.{s}"), "s");
    }
    add("core.prepare_other_s".into(), "s");
    add("core.cache_bytes".into(), "bytes");
    for c in CELLS {
        add(format!("baselines.plan_s.{c}"), "s");
    }
    for c in CELLS {
        add(format!("algos.run_s.{c}"), "s");
        add(format!("algos.run_cpu_s.{c}"), "s");
        add(format!("algos.ns_per_step.{c}"), "ns");
        add(format!("algos.us_per_launch.{c}"), "us");
        add(format!("algos.scaling.{c}"), "ratio");
        add(format!("algos.ref_s.{c}"), "s");
        add(format!("algos.inaccuracy.{c}"), "ratio");
    }
    for c in CELLS {
        add(format!("sim.cycles.{c}"), "cycles");
        add(format!("sim.steps.{c}"), "count");
        add(format!("sim.launches.{c}"), "count");
        add(format!("sim.global_transactions.{c}"), "count");
        add(format!("sim.atomic_ops.{c}"), "count");
        add(format!("sim.divergent_slots.{c}"), "count");
    }
    add("sim.coalescing_eff".into(), "ratio");
    add("sim.divergence_waste".into(), "ratio");
    add("report.assemble_s".into(), "s");
    add("report.encode_s".into(), "s");
    add("report.bytes".into(), "bytes");
    for r in RATES {
        add(format!("server.read_p50_ms.{r}"), "ms");
        add(format!("server.read_p90_ms.{r}"), "ms");
        add(format!("server.queue_checkout_ms.p50.{r}"), "ms");
        add(format!("server.queue_checkout_ms.p90.{r}"), "ms");
        add(format!("server.exec_ms.p50.{r}"), "ms");
        add(format!("server.exec_ms.p90.{r}"), "ms");
        add(format!("server.wire_ms.p50.{r}"), "ms");
        add(format!("server.mutates.{r}"), "count");
        add(format!("server.mutate_ms.p50.{r}"), "ms");
    }
    add("server.read_p90_ms.peak".into(), "ms");
    add("server.miss_ms.p50".into(), "ms");
    add("server.hot_read_p90_ms.during_miss".into(), "ms");
    add("server.pool_hit_ratio".into(), "ratio");
    add("server.invalidations".into(), "count");
    add("server.batch_ratio".into(), "ratio");
    add("server.fused_saved".into(), "count");
    add("server.queue_peak".into(), "count");
    add("server.rejected".into(), "count");
    add("server.stage_hits".into(), "count");
    add("server.stage_recomputed".into(), "count");
    add("server.gen_late_ms.p99".into(), "ms");
    for l in LAYERS {
        add(format!("{l}.self_s"), "s");
    }
    add("trace.overhead_ms".into(), "ms");
    m
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"hostbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"hostbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layer = per_layer();
    for (i, (name, unit)) in layer.iter().enumerate() {
        let sep = if i + 1 < layer.len() { "," } else { "" };
        let better = if higher_is_better(name) {
            "higher"
        } else {
            "lower"
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-layer metrics where a larger value is the improvement.
fn higher_is_better(name: &str) -> bool {
    [
        "algos.scaling.",
        "sim.coalescing_eff",
        "server.pool_hit_ratio",
        "server.batch_ratio",
        "server.fused_saved",
        "server.stage_hits",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let layer = per_layer();
        assert!(!layer.is_empty() && layer.len() <= 128, "{}", layer.len());
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(layer.iter().map(|(n, _)| n.as_str()))
            .chain(WORKLOADS.iter().map(|(n, _)| *n));
        for n in names {
            assert!(valid_name(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
