//! Smoke test: every workload at toy size, untraced and traced. Each run
//! must pass every check and report exactly the metrics `BENCHMARK.json`
//! names, with their units; the committed `BENCHMARK.json` must match what
//! `hostbench manifest` generates.

use graffix::sim::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hostbench"))
}

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn committed_manifest() -> Json {
    let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) pairs of one metric list of the manifest.
fn metric_list(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn committed_manifest_is_generated() {
    let out = bin().arg("manifest").output().unwrap();
    assert!(out.status.success());
    let generated = String::from_utf8(out.stdout).unwrap();
    let committed = std::fs::read_to_string(manifest_path()).unwrap();
    assert_eq!(
        committed, generated,
        "BENCHMARK.json is stale: regenerate it with `hostbench manifest`"
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper-cells", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "paper-cells",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn every_workload_reports_every_metric_at_toy_size() {
    let manifest = committed_manifest();
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, ["paper-cells", "prepare-cold", "serve-mixed"]);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    // One workload at a time: concurrent runs would make the open-loop
    // generator late.
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bin()
                .current_dir(&dir)
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "toy"])
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}:\n{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let want = metric_list(&manifest, list);
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace {trace}: metric set differs");
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
    assert!(
        !dir.join(".hostbench").exists()
            || std::fs::read_dir(dir.join(".hostbench"))
                .unwrap()
                .flatten()
                .all(|e| e.file_name() == "spans"),
        "a run left its scratch directory behind"
    );
}
