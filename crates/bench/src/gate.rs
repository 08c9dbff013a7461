//! The noise-aware regression gate: compare a fresh corpus measurement
//! against a committed [`BenchBaseline`] and fail loudly on perf
//! regressions or accuracy drift.
//!
//! For each gated metric the allowance is
//! `max(rel_tol · base, sigma_k · stddev, abs_floor)` — a relative band
//! for healthy signals, a sigma band when the baseline recorded noise,
//! and an absolute floor so near-zero baselines (exact cells have ~0
//! inaccuracy) don't produce hair-trigger thresholds. A cell regresses
//! when its current value exceeds `base + allowance`; it improves when it
//! drops below `base − allowance`. Improvements and regressions are both
//! reported, but only regressions (and missing cells) fail the gate.
//!
//! Output is a human diff table plus a machine-readable
//! `graffix.gate-report` v1 document.

use crate::baseline::{
    BenchBaseline, CellMeasurement, LargeCellMeasurement, PreprocessMeasurement,
};
use crate::suite::Suite;
use crate::tables::TextTable;
use graffix_sim::Json;

/// Schema identifier for gate reports.
pub const GATE_SCHEMA: &str = "graffix.gate-report";
/// Gate report schema version.
pub const GATE_VERSION: u64 = 1;

/// Gate thresholds.
#[derive(Clone, Copy, Debug)]
pub struct GateOptions {
    /// Relative tolerance on each gated metric (0.05 = 5%).
    pub rel_tol: f64,
    /// Sigma multiplier on the baseline's recorded noise envelope.
    pub sigma_k: f64,
    /// Absolute cycle allowance floor (launch-overhead granularity).
    pub abs_floor_cycles: f64,
    /// Absolute inaccuracy allowance floor (guards exact cells whose
    /// baseline inaccuracy is ~0).
    pub abs_floor_inaccuracy: f64,
    /// Relative tolerance on preprocess wall seconds. Deliberately coarse
    /// (0.5 = +50%): wall clocks are noisy across machines and loads, so
    /// these cells only catch order-of-magnitude preprocessing blowups.
    pub rel_tol_preprocess: f64,
    /// Absolute preprocess allowance floor in seconds, so microsecond-scale
    /// transforms on tiny CI corpora never produce hair-trigger thresholds.
    pub abs_floor_preprocess_seconds: f64,
    /// The preprocess floor scales with the baseline: the effective floor
    /// is `max(abs_floor_preprocess_seconds, preprocess_floor_frac · base)`.
    /// A fixed 0.05 s floor sized for microsecond CI transforms is far too
    /// tight for multi-second 2^20-node cells — scheduler jitter alone
    /// exceeds it — so large cells get a floor proportional to their own
    /// magnitude instead of flapping on noise.
    pub preprocess_floor_frac: f64,
    /// Coarse relative tolerance on the large-graph cells' cycles. These
    /// cells exist to catch out-of-core path collapses, not to pin pricing
    /// to the cycle: a wide band means routine cost-model tweaks don't
    /// force a 2^20 baseline refresh.
    pub rel_tol_large: f64,
    /// Absolute cycle allowance floor for large cells.
    pub abs_floor_large_cycles: f64,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            rel_tol: 0.05,
            sigma_k: 3.0,
            abs_floor_cycles: 500.0,
            abs_floor_inaccuracy: 1e-6,
            rel_tol_preprocess: 0.5,
            abs_floor_preprocess_seconds: 0.05,
            preprocess_floor_frac: 0.1,
            rel_tol_large: 0.25,
            abs_floor_large_cycles: 1e6,
        }
    }
}

impl GateOptions {
    /// The allowance band around a baseline value.
    fn allowance(&self, base: f64, stddev: f64, abs_floor: f64) -> f64 {
        (self.rel_tol * base.abs())
            .max(self.sigma_k * stddev)
            .max(abs_floor)
    }
}

/// Verdict for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Within the allowance band on both metrics.
    Ok,
    /// At least one metric improved beyond the band (and none regressed).
    Improved,
    /// Current cycles exceed baseline + allowance.
    PerfRegression,
    /// Current inaccuracy exceeds baseline + allowance.
    AccuracyDrift,
    /// Cell present in the baseline but not measured now.
    Missing,
    /// Cell measured now but absent from the baseline (not a failure —
    /// save a new baseline to start tracking it).
    New,
}

impl CellStatus {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Improved => "improved",
            CellStatus::PerfRegression => "perf-regression",
            CellStatus::AccuracyDrift => "accuracy-drift",
            CellStatus::Missing => "missing",
            CellStatus::New => "new",
        }
    }

    /// Does this status fail the gate?
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            CellStatus::PerfRegression | CellStatus::AccuracyDrift | CellStatus::Missing
        )
    }
}

/// One gate comparison row.
#[derive(Clone, Debug)]
pub struct CellVerdict {
    pub id: String,
    pub status: CellStatus,
    pub base_cycles: u64,
    pub cur_cycles: u64,
    pub cycles_allowance: f64,
    pub base_inaccuracy: f64,
    pub cur_inaccuracy: f64,
    pub inaccuracy_allowance: f64,
}

/// One preprocess-time comparison row. Statuses reuse [`CellStatus`]
/// (inaccuracy never applies, so `AccuracyDrift` cannot occur here).
#[derive(Clone, Debug)]
pub struct PreprocessVerdict {
    pub id: String,
    pub status: CellStatus,
    pub base_seconds: f64,
    pub cur_seconds: f64,
    pub allowance: f64,
}

/// One large-graph comparison row. Statuses reuse [`CellStatus`]
/// (inaccuracy never applies here either).
#[derive(Clone, Debug)]
pub struct LargeVerdict {
    pub id: String,
    pub status: CellStatus,
    pub base_cycles: u64,
    pub cur_cycles: u64,
    pub allowance: f64,
}

/// The whole gate outcome.
#[derive(Clone, Debug)]
pub struct GateReport {
    pub options: GateOptions,
    pub verdicts: Vec<CellVerdict>,
    pub preprocess: Vec<PreprocessVerdict>,
    pub large: Vec<LargeVerdict>,
}

impl GateReport {
    /// Cells that fail the gate, in order.
    pub fn failures(&self) -> Vec<&CellVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.status.is_failure())
            .collect()
    }

    /// Preprocess-time cells that fail the gate, in order.
    pub fn preprocess_failures(&self) -> Vec<&PreprocessVerdict> {
        self.preprocess
            .iter()
            .filter(|v| v.status.is_failure())
            .collect()
    }

    /// Large-graph cells that fail the gate, in order.
    pub fn large_failures(&self) -> Vec<&LargeVerdict> {
        self.large
            .iter()
            .filter(|v| v.status.is_failure())
            .collect()
    }

    /// One line per failing verdict of every kind — algorithm cells, then
    /// preprocess-time cells, then large-graph cells — naming the cell, its
    /// status and the baseline and current figures it was judged on.
    pub fn failure_lines(&self) -> Vec<String> {
        let cells = self.failures().into_iter().map(|v| {
            format!(
                "cell {} [{}]: cycles {} -> {}, inaccuracy {:.6} -> {:.6}",
                v.id,
                v.status.label(),
                v.base_cycles,
                v.cur_cycles,
                v.base_inaccuracy,
                v.cur_inaccuracy
            )
        });
        let preprocess = self.preprocess_failures().into_iter().map(|v| {
            format!(
                "preprocess {} [{}]: {:.4} s -> {:.4} s (allowance {:.4} s)",
                v.id,
                v.status.label(),
                v.base_seconds,
                v.cur_seconds,
                v.allowance
            )
        });
        let large = self.large_failures().into_iter().map(|v| {
            format!(
                "large {} [{}]: cycles {} -> {}",
                v.id,
                v.status.label(),
                v.base_cycles,
                v.cur_cycles
            )
        });
        cells.chain(preprocess).chain(large).collect()
    }

    /// True when nothing regressed, drifted, or went missing — on the
    /// algorithm cells, the preprocess-time cells, and the large-graph
    /// cells.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
            && self.preprocess_failures().is_empty()
            && self.large_failures().is_empty()
    }

    /// Count of verdicts with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.verdicts.iter().filter(|v| v.status == status).count()
    }

    /// The human-facing diff table: one row per cell that is not plain
    /// `Ok` (an unchanged tree produces an empty table), plus a summary
    /// row section via [`TextTable::render`].
    pub fn diff_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!(
                "Regression gate: {} cells — {} ok, {} improved, {} failed",
                self.verdicts.len(),
                self.count(CellStatus::Ok),
                self.count(CellStatus::Improved),
                self.failures().len()
            ),
            &[
                "Cell",
                "Status",
                "Cycles (base)",
                "Cycles (now)",
                "Inaccuracy (base)",
                "Inaccuracy (now)",
            ],
        );
        for v in &self.verdicts {
            if v.status == CellStatus::Ok {
                continue;
            }
            t.row(vec![
                v.id.clone(),
                v.status.label().to_string(),
                v.base_cycles.to_string(),
                v.cur_cycles.to_string(),
                format!("{:.3e}", v.base_inaccuracy),
                format!("{:.3e}", v.cur_inaccuracy),
            ]);
        }
        t
    }

    /// The preprocess-time diff table: one row per non-`Ok` preprocess
    /// cell, same shape as [`GateReport::diff_table`].
    pub fn preprocess_table(&self) -> TextTable {
        let failed = self.preprocess_failures().len();
        let mut t = TextTable::new(
            format!(
                "Preprocess gate: {} cells — {} ok, {} improved, {} failed",
                self.preprocess.len(),
                self.preprocess
                    .iter()
                    .filter(|v| v.status == CellStatus::Ok)
                    .count(),
                self.preprocess
                    .iter()
                    .filter(|v| v.status == CellStatus::Improved)
                    .count(),
                failed
            ),
            &[
                "Cell",
                "Status",
                "Seconds (base)",
                "Seconds (now)",
                "Allowance",
            ],
        );
        for v in &self.preprocess {
            if v.status == CellStatus::Ok {
                continue;
            }
            t.row(vec![
                v.id.clone(),
                v.status.label().to_string(),
                format!("{:.4}", v.base_seconds),
                format!("{:.4}", v.cur_seconds),
                format!("{:.4}", v.allowance),
            ]);
        }
        t
    }

    /// The large-cell diff table: one row per non-`Ok` large cell, same
    /// shape as [`GateReport::diff_table`].
    pub fn large_table(&self) -> TextTable {
        let failed = self.large_failures().len();
        let mut t = TextTable::new(
            format!(
                "Large-graph gate: {} cells — {} ok, {} improved, {} failed",
                self.large.len(),
                self.large
                    .iter()
                    .filter(|v| v.status == CellStatus::Ok)
                    .count(),
                self.large
                    .iter()
                    .filter(|v| v.status == CellStatus::Improved)
                    .count(),
                failed
            ),
            &[
                "Cell",
                "Status",
                "Cycles (base)",
                "Cycles (now)",
                "Allowance",
            ],
        );
        for v in &self.large {
            if v.status == CellStatus::Ok {
                continue;
            }
            t.row(vec![
                v.id.clone(),
                v.status.label().to_string(),
                v.base_cycles.to_string(),
                v.cur_cycles.to_string(),
                format!("{:.3e}", v.allowance),
            ]);
        }
        t
    }

    /// Serializes the `graffix.gate-report` document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str(GATE_SCHEMA.to_string()));
        root.set("version", Json::U64(GATE_VERSION));
        let mut opts = Json::obj();
        opts.set("rel_tol", Json::F64(self.options.rel_tol));
        opts.set("sigma_k", Json::F64(self.options.sigma_k));
        opts.set("abs_floor_cycles", Json::F64(self.options.abs_floor_cycles));
        opts.set(
            "abs_floor_inaccuracy",
            Json::F64(self.options.abs_floor_inaccuracy),
        );
        opts.set(
            "rel_tol_preprocess",
            Json::F64(self.options.rel_tol_preprocess),
        );
        opts.set(
            "abs_floor_preprocess_seconds",
            Json::F64(self.options.abs_floor_preprocess_seconds),
        );
        opts.set(
            "preprocess_floor_frac",
            Json::F64(self.options.preprocess_floor_frac),
        );
        opts.set("rel_tol_large", Json::F64(self.options.rel_tol_large));
        opts.set(
            "abs_floor_large_cycles",
            Json::F64(self.options.abs_floor_large_cycles),
        );
        root.set("options", opts);
        root.set("passed", Json::Bool(self.passed()));
        let mut summary = Json::obj();
        for status in [
            CellStatus::Ok,
            CellStatus::Improved,
            CellStatus::PerfRegression,
            CellStatus::AccuracyDrift,
            CellStatus::Missing,
            CellStatus::New,
        ] {
            summary.set(status.label(), Json::U64(self.count(status) as u64));
        }
        root.set("summary", summary);
        let cells = self
            .verdicts
            .iter()
            .map(|v| {
                let mut o = Json::obj();
                o.set("id", Json::Str(v.id.clone()));
                o.set("status", Json::Str(v.status.label().to_string()));
                o.set("base_cycles", Json::U64(v.base_cycles));
                o.set("cur_cycles", Json::U64(v.cur_cycles));
                o.set("cycles_allowance", Json::F64(v.cycles_allowance));
                o.set("base_inaccuracy", Json::F64(v.base_inaccuracy));
                o.set("cur_inaccuracy", Json::F64(v.cur_inaccuracy));
                o.set("inaccuracy_allowance", Json::F64(v.inaccuracy_allowance));
                o
            })
            .collect();
        root.set("cells", Json::Arr(cells));
        let preprocess = self
            .preprocess
            .iter()
            .map(|v| {
                let mut o = Json::obj();
                o.set("id", Json::Str(v.id.clone()));
                o.set("status", Json::Str(v.status.label().to_string()));
                o.set("base_seconds", Json::F64(v.base_seconds));
                o.set("cur_seconds", Json::F64(v.cur_seconds));
                o.set("allowance", Json::F64(v.allowance));
                o
            })
            .collect();
        root.set("preprocess", Json::Arr(preprocess));
        let large = self
            .large
            .iter()
            .map(|v| {
                let mut o = Json::obj();
                o.set("id", Json::Str(v.id.clone()));
                o.set("status", Json::Str(v.status.label().to_string()));
                o.set("base_cycles", Json::U64(v.base_cycles));
                o.set("cur_cycles", Json::U64(v.cur_cycles));
                o.set("allowance", Json::F64(v.allowance));
                o
            })
            .collect();
        root.set("large", Json::Arr(large));
        root
    }

    /// The serialized document (pretty JSON, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }
}

/// Compares one cell pair.
fn judge(opts: &GateOptions, base: &CellMeasurement, cur: &CellMeasurement) -> CellVerdict {
    let cycles_allowance = opts.allowance(
        base.elapsed_cycles as f64,
        base.cycles_stddev,
        opts.abs_floor_cycles,
    );
    let inaccuracy_allowance = opts.allowance(base.inaccuracy, 0.0, opts.abs_floor_inaccuracy);
    let dc = cur.elapsed_cycles as f64 - base.elapsed_cycles as f64;
    let di = cur.inaccuracy - base.inaccuracy;
    let status = if dc > cycles_allowance {
        CellStatus::PerfRegression
    } else if di > inaccuracy_allowance {
        CellStatus::AccuracyDrift
    } else if dc < -cycles_allowance || di < -inaccuracy_allowance {
        CellStatus::Improved
    } else {
        CellStatus::Ok
    };
    CellVerdict {
        id: base.key.id(),
        status,
        base_cycles: base.elapsed_cycles,
        cur_cycles: cur.elapsed_cycles,
        cycles_allowance,
        base_inaccuracy: base.inaccuracy,
        cur_inaccuracy: cur.inaccuracy,
        inaccuracy_allowance,
    }
}

/// Compares one preprocess-time cell pair. The floor scales with the
/// baseline (`preprocess_floor_frac`), so a 0.05 s floor sized for
/// microsecond CI transforms doesn't turn multi-second 2^20 cells into
/// noise-flappers.
fn judge_preprocess(
    opts: &GateOptions,
    base: &PreprocessMeasurement,
    cur: &PreprocessMeasurement,
) -> PreprocessVerdict {
    let floor = opts
        .abs_floor_preprocess_seconds
        .max(opts.preprocess_floor_frac * base.seconds_mean.abs());
    let allowance = (opts.rel_tol_preprocess * base.seconds_mean.abs())
        .max(opts.sigma_k * base.seconds_stddev)
        .max(floor);
    let ds = cur.seconds_mean - base.seconds_mean;
    let status = if ds > allowance {
        CellStatus::PerfRegression
    } else if ds < -allowance {
        CellStatus::Improved
    } else {
        CellStatus::Ok
    };
    PreprocessVerdict {
        id: base.id(),
        status,
        base_seconds: base.seconds_mean,
        cur_seconds: cur.seconds_mean,
        allowance,
    }
}

/// Compares one large-graph cell pair behind the coarse band.
fn judge_large(
    opts: &GateOptions,
    base: &LargeCellMeasurement,
    cur: &LargeCellMeasurement,
) -> LargeVerdict {
    let allowance =
        (opts.rel_tol_large * base.elapsed_cycles as f64).max(opts.abs_floor_large_cycles);
    let dc = cur.elapsed_cycles as f64 - base.elapsed_cycles as f64;
    let status = if dc > allowance {
        CellStatus::PerfRegression
    } else if dc < -allowance {
        CellStatus::Improved
    } else {
        CellStatus::Ok
    };
    LargeVerdict {
        id: base.id(),
        status,
        base_cycles: base.elapsed_cycles,
        cur_cycles: cur.elapsed_cycles,
        allowance,
    }
}

/// Evaluates current measurements against a saved baseline. Order follows
/// the baseline's cells; purely-new cells are appended.
pub fn evaluate(
    opts: GateOptions,
    baseline: &BenchBaseline,
    current: &[CellMeasurement],
    current_preprocess: &[PreprocessMeasurement],
    current_large: &[LargeCellMeasurement],
) -> GateReport {
    let mut verdicts = Vec::new();
    for base in &baseline.cells {
        match current.iter().find(|c| c.key == base.key) {
            Some(cur) => verdicts.push(judge(&opts, base, cur)),
            None => verdicts.push(CellVerdict {
                id: base.key.id(),
                status: CellStatus::Missing,
                base_cycles: base.elapsed_cycles,
                cur_cycles: 0,
                cycles_allowance: 0.0,
                base_inaccuracy: base.inaccuracy,
                cur_inaccuracy: f64::NAN,
                inaccuracy_allowance: 0.0,
            }),
        }
    }
    for cur in current {
        if !baseline.cells.iter().any(|b| b.key == cur.key) {
            verdicts.push(CellVerdict {
                id: cur.key.id(),
                status: CellStatus::New,
                base_cycles: 0,
                cur_cycles: cur.elapsed_cycles,
                cycles_allowance: 0.0,
                base_inaccuracy: f64::NAN,
                cur_inaccuracy: cur.inaccuracy,
                inaccuracy_allowance: 0.0,
            });
        }
    }
    let mut preprocess = Vec::new();
    for base in &baseline.preprocess {
        match current_preprocess.iter().find(|c| c.id() == base.id()) {
            Some(cur) => preprocess.push(judge_preprocess(&opts, base, cur)),
            None => preprocess.push(PreprocessVerdict {
                id: base.id(),
                status: CellStatus::Missing,
                base_seconds: base.seconds_mean,
                cur_seconds: f64::NAN,
                allowance: 0.0,
            }),
        }
    }
    for cur in current_preprocess {
        if !baseline.preprocess.iter().any(|b| b.id() == cur.id()) {
            preprocess.push(PreprocessVerdict {
                id: cur.id(),
                status: CellStatus::New,
                base_seconds: f64::NAN,
                cur_seconds: cur.seconds_mean,
                allowance: 0.0,
            });
        }
    }
    let mut large = Vec::new();
    for base in &baseline.large {
        match current_large.iter().find(|c| c.id() == base.id()) {
            Some(cur) => large.push(judge_large(&opts, base, cur)),
            None => large.push(LargeVerdict {
                id: base.id(),
                status: CellStatus::Missing,
                base_cycles: base.elapsed_cycles,
                cur_cycles: 0,
                allowance: 0.0,
            }),
        }
    }
    for cur in current_large {
        if !baseline.large.iter().any(|b| b.id() == cur.id()) {
            large.push(LargeVerdict {
                id: cur.id(),
                status: CellStatus::New,
                base_cycles: 0,
                cur_cycles: cur.elapsed_cycles,
                allowance: 0.0,
            });
        }
    }
    GateReport {
        options: opts,
        verdicts,
        preprocess,
        large,
    }
}

/// Re-measures the corpus pinned by `baseline`'s fingerprint and gates it.
/// The suite is rebuilt from the recorded `nodes`/`seed`/`bc_sources`, so
/// the comparison is apples-to-apples on any machine.
pub fn run_gate(opts: GateOptions, baseline: &BenchBaseline) -> GateReport {
    run_gate_on(
        opts,
        baseline,
        &Suite::new(baseline.fingerprint.suite_options()),
    )
}

/// [`run_gate`] on a caller-provided suite — the CLI uses this to enable
/// the on-disk prepared-graph cache for the algorithm cells. Preprocess
/// cells always re-transform from scratch regardless of the cache.
pub fn run_gate_on(opts: GateOptions, baseline: &BenchBaseline, suite: &Suite) -> GateReport {
    let repeats = baseline.fingerprint.repeats;
    let current = crate::baseline::measure_corpus(suite, repeats);
    let current_preprocess = crate::baseline::measure_preprocess(suite, repeats);
    // Large cells share one (nodes, segment_bytes) configuration per
    // baseline; the generator seed comes from the fingerprint so the
    // re-measured graph is the recorded one.
    let current_large = match baseline.large.first() {
        Some(c) => {
            crate::baseline::measure_large(c.nodes, baseline.fingerprint.seed, c.segment_bytes)
        }
        None => Vec::new(),
    };
    evaluate(
        opts,
        baseline,
        &current,
        &current_preprocess,
        &current_large,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{measure_corpus, measure_preprocess};
    use crate::suite::SuiteOptions;

    fn tiny_baseline() -> BenchBaseline {
        let suite = Suite::new(SuiteOptions {
            nodes: 200,
            seed: 3,
            bc_sources: 2,
        });
        BenchBaseline {
            fingerprint: crate::baseline::Fingerprint::capture(&suite.options, 1),
            cells: measure_corpus(&suite, 1),
            preprocess: measure_preprocess(&suite, 1),
            large: Vec::new(),
        }
    }

    #[test]
    fn unchanged_tree_passes() {
        let b = tiny_baseline();
        let report = run_gate(GateOptions::default(), &b);
        assert!(
            report.passed(),
            "failing cells: {:#?}",
            report.failure_lines()
        );
        assert_eq!(report.count(CellStatus::Ok), b.cells.len());
        // And again — the gate must be replayable without false positives.
        let again = run_gate(GateOptions::default(), &b);
        assert!(
            again.passed(),
            "failing cells: {:#?}",
            again.failure_lines()
        );
    }

    #[test]
    fn doubled_cycles_fail_naming_the_cell() {
        let mut b = tiny_baseline();
        let cur = b.cells.clone();
        // Halve one baseline cell's cycles: the current (unchanged) run
        // now looks 2x slower than the recorded baseline.
        b.cells[3].elapsed_cycles /= 2;
        let report = evaluate(GateOptions::default(), &b, &cur, &b.preprocess, &b.large);
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].status, CellStatus::PerfRegression);
        assert_eq!(failures[0].id, b.cells[3].key.id());
        assert!(report.to_pretty_string().contains(&b.cells[3].key.id()));
    }

    #[test]
    fn doubled_inaccuracy_fails_as_drift() {
        let b = tiny_baseline();
        let mut cur = b.cells.clone();
        // Find a cell with measurable inaccuracy and double it.
        let i = cur
            .iter()
            .position(|c| c.inaccuracy > 1e-3)
            .expect("corpus has an approximate cell with real inaccuracy");
        cur[i].inaccuracy *= 2.0;
        let report = evaluate(GateOptions::default(), &b, &cur, &b.preprocess, &b.large);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].status, CellStatus::AccuracyDrift);
        assert_eq!(failures[0].id, cur[i].key.id());
    }

    #[test]
    fn missing_and_new_cells_are_flagged() {
        let b = tiny_baseline();
        let mut cur = b.cells.clone();
        let dropped = cur.remove(0);
        let mut extra = dropped.clone();
        extra.key.graph = "extra-graph".into();
        cur.push(extra);
        let report = evaluate(GateOptions::default(), &b, &cur, &b.preprocess, &b.large);
        assert_eq!(report.count(CellStatus::Missing), 1);
        assert_eq!(report.count(CellStatus::New), 1);
        assert!(!report.passed(), "missing cells must fail the gate");
    }

    #[test]
    fn improvement_does_not_fail() {
        let b = tiny_baseline();
        let mut cur = b.cells.clone();
        cur[0].elapsed_cycles = (cur[0].elapsed_cycles / 2).max(1);
        let report = evaluate(GateOptions::default(), &b, &cur, &b.preprocess, &b.large);
        assert!(report.passed(), "{:#?}", report.failure_lines());
        assert_eq!(report.count(CellStatus::Improved), 1);
    }

    #[test]
    fn preprocess_blowup_fails_gate_naming_the_cell() {
        let b = tiny_baseline();
        let mut cur = b.preprocess.clone();
        // +10s of preprocessing clears any allowance band.
        cur[0].seconds_mean += 10.0;
        let report = evaluate(GateOptions::default(), &b, &b.cells, &cur, &b.large);
        assert!(!report.passed());
        assert!(report.failures().is_empty(), "algorithm cells unaffected");
        let failures = report.preprocess_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].status, CellStatus::PerfRegression);
        assert_eq!(failures[0].id, b.preprocess[0].id());
        assert!(report.to_pretty_string().contains(&b.preprocess[0].id()));
        assert!(report
            .preprocess_table()
            .render()
            .contains("perf-regression"));
    }

    #[test]
    fn preprocess_jitter_within_floor_is_ok() {
        let b = tiny_baseline();
        let mut cur = b.preprocess.clone();
        // Tiny-corpus transforms take microseconds; +10ms of jitter sits
        // under the absolute floor and must not trip the gate.
        for c in &mut cur {
            c.seconds_mean += 0.01;
        }
        let report = evaluate(GateOptions::default(), &b, &b.cells, &cur, &b.large);
        assert!(report.passed(), "{:#?}", report.failure_lines());
    }

    /// The scaled preprocess floor: multi-second baseline cells get an
    /// allowance floor proportional to their own magnitude, not the fixed
    /// 0.05 s sized for microsecond CI transforms. Relative and sigma
    /// bands are zeroed so the floor is the only thing under test.
    #[test]
    fn preprocess_floor_scales_with_baseline_magnitude() {
        let opts = GateOptions {
            rel_tol_preprocess: 0.0,
            sigma_k: 0.0,
            ..GateOptions::default()
        };
        let mut b = tiny_baseline();
        b.preprocess[0].seconds_mean = 4.0;
        b.preprocess[0].seconds_stddev = 0.0;
        let mut cur = b.preprocess.clone();
        // +0.3 s: far above the fixed 0.05 s floor, within the scaled
        // 10%-of-baseline floor (0.4 s).
        cur[0].seconds_mean = 4.3;
        let report = evaluate(opts, &b, &b.cells, &cur, &b.large);
        assert!(report.passed(), "{:#?}", report.failure_lines());
        // +0.5 s clears the scaled floor and must still fail.
        cur[0].seconds_mean = 4.5;
        let report = evaluate(opts, &b, &b.cells, &cur, &b.large);
        let failures = report.preprocess_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].id, b.preprocess[0].id());
    }

    fn large_cell(algo: &str, cycles: u64) -> LargeCellMeasurement {
        LargeCellMeasurement {
            graph: "rmat26".into(),
            nodes: 1 << 20,
            algo: algo.into(),
            segment_bytes: 1536 * 1024,
            segments: 5580,
            elapsed_cycles: cycles,
            wall_seconds: 1.0,
        }
    }

    /// Large cells sit behind the coarse band: ±25% drift is tolerated,
    /// beyond it the gate fails naming the cell, and a missing large cell
    /// fails like any missing corpus cell.
    #[test]
    fn large_cells_judged_behind_coarse_band() {
        let mut b = tiny_baseline();
        b.large = vec![
            large_cell("bfs", 1_000_000_000),
            large_cell("pr", 2_000_000_000),
        ];
        let mut cur = b.large.clone();
        cur[0].elapsed_cycles = 1_200_000_000; // +20%: inside the band
        let report = evaluate(GateOptions::default(), &b, &b.cells, &b.preprocess, &cur);
        assert!(report.passed(), "{:#?}", report.failure_lines());
        cur[0].elapsed_cycles = 1_300_000_000; // +30%: regression
        let report = evaluate(GateOptions::default(), &b, &b.cells, &b.preprocess, &cur);
        assert!(!report.passed());
        let failures = report.large_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].status, CellStatus::PerfRegression);
        assert_eq!(failures[0].id, b.large[0].id());
        assert!(report.large_table().render().contains("perf-regression"));
        assert!(report.to_pretty_string().contains(&b.large[0].id()));
        let report = evaluate(GateOptions::default(), &b, &b.cells, &b.preprocess, &[]);
        assert_eq!(report.large_failures().len(), 2);
        assert!(!report.passed(), "missing large cells must fail the gate");
    }

    /// A failing algorithm cell, preprocess cell and large cell all show
    /// up in the one failure listing, in that order.
    #[test]
    fn failure_lines_name_every_failing_kind() {
        let mut b = tiny_baseline();
        b.large = vec![large_cell("bfs", 1_000_000_000)];
        let cells = b.cells.clone();
        b.cells[0].elapsed_cycles /= 2;
        let mut pre = b.preprocess.clone();
        pre[0].seconds_mean += 10.0;
        let report = evaluate(GateOptions::default(), &b, &cells, &pre, &[]);
        let lines = report.failure_lines();
        assert_eq!(lines.len(), 3, "{lines:#?}");
        assert!(lines[0].starts_with(&format!("cell {} [perf-regression]", b.cells[0].key.id())));
        assert!(lines[1].starts_with(&format!("preprocess {} [perf-regression]", pre[0].id())));
        assert!(lines[2].starts_with(&format!("large {} [missing]", b.large[0].id())));
    }

    #[test]
    fn gate_report_json_is_well_formed() {
        let b = tiny_baseline();
        let report = evaluate(
            GateOptions::default(),
            &b,
            &b.cells,
            &b.preprocess,
            &b.large,
        );
        let doc = Json::parse(&report.to_pretty_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(GATE_SCHEMA));
        assert_eq!(doc.get("passed"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.path(&["summary", "ok"]).and_then(Json::as_u64),
            Some(b.cells.len() as u64)
        );
    }
}
