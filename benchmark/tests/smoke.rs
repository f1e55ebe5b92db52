//! `run --quick` end to end: every workload runs in its child processes,
//! no op fails, and every metric `BENCHMARK.json` declares comes out for
//! every workload, as a finite number with its unit.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(spec: &Value, section: &str) -> Vec<String> {
    spec[section]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

#[test]
fn quick_run_emits_every_declared_metric_for_every_workload() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
    let spec = read_json(&repo.join("BENCHMARK.json"));
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out_dir);

    let status = Command::new(env!("CARGO_BIN_EXE_hatbench"))
        .args(["run", "--quick", "--seed", "7", "--out-dir"])
        .arg(&out_dir)
        .current_dir(repo)
        .status()
        .expect("spawn hatbench");
    assert!(status.success(), "hatbench run --quick exited with {status}");

    let results = read_json(&out_dir.join("results.json"));
    let repro = &results["reproducibility"];
    assert_eq!(repro["seed"].as_u64(), Some(7));
    for key in ["nproc", "git_revision", "rustc", "cost_model", "time_scale", "window_s"] {
        assert!(!repro[key].is_null(), "reproducibility record lacks {key}");
    }

    let declared: Vec<String> =
        names(&spec, "end_to_end").into_iter().chain(names(&spec, "per_layer")).collect();
    for workload in names(&spec, "workloads") {
        let row = &results["workloads"][workload.as_str()];
        assert_eq!(row["failed"].as_u64(), Some(0), "{workload}: failed ops");
        assert!(row["attempted"].as_u64().unwrap_or(0) > 0, "{workload}: nothing attempted");
        assert_eq!(row["metrics"]["failed_ops_ratio"]["value"].as_f64(), Some(0.0));
        for name in &declared {
            let metric = &row["metrics"][name.as_str()];
            let value = metric["value"].as_f64();
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name} missing: {metric}");
            assert!(metric["unit"].is_string(), "{workload}: {name} has no unit");
            assert!(metric["n"].as_u64().unwrap_or(0) >= 1, "{workload}: {name} has no samples");
        }
        for name in names(&spec, "end_to_end") {
            let value = row["metrics"][name.as_str()]["value"].as_f64().unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: end-to-end metric {name} reads {value}");
        }

        let trace = read_json(&out_dir.join(format!("{workload}.trace.json")));
        assert!(trace["spans"].as_array().is_some_and(|s| !s.is_empty()), "{workload}: no spans");
        assert!(trace["summary"]["bench.op"]["count"].as_u64().unwrap_or(0) > 0);
        if workload.starts_with("rpc_") {
            // Span self times must account for the traced windows' op time.
            let residual = row["metrics"]["span.residual_ratio"]["value"].as_f64().unwrap_or(1.0);
            assert!(residual < 0.05, "{workload}: span self times miss {residual} of the op time");
            assert!(trace["summary"]["server.handler"]["count"].as_u64().unwrap_or(0) > 0);
        }
    }

    // A results file compared with itself has nothing regressed.
    let results_path = out_dir.join("results.json");
    let compare = Command::new(env!("CARGO_BIN_EXE_hatbench"))
        .arg("compare")
        .args([&results_path, &results_path])
        .arg("--spec")
        .arg(repo.join("BENCHMARK.json"))
        .output()
        .expect("spawn hatbench compare");
    assert!(compare.status.success(), "self-compare failed");
    assert!(String::from_utf8_lossy(&compare.stdout).contains("0 regressed"));
}
