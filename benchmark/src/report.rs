//! Output: the driver's one-line result, the detailed per-run JSON, the
//! `run` subcommand that measures every workload in child processes and
//! writes `results.json`, and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use hatrpc::rdma::SimConfig;
use serde_json::{Map, Value};

use crate::measure::{Metric, RunResult};
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::workloads::Workload;

pub fn num(v: f64) -> Value {
    // JSON has no NaN or infinity; a metric that came out non-finite is a
    // harness bug worth seeing as null rather than as a broken file.
    if v.is_finite() {
        Value::Number(v.into())
    } else {
        Value::Null
    }
}

fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn contract_line(result: &RunResult) -> String {
    let metrics: Map<String, Value> = result
        .metrics
        .iter()
        .map(|(name, m)| {
            (name.to_string(), obj([("value", num(m.value)), ("unit", text(unit_of(name)))]))
        })
        .collect();
    obj([
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Number(result.attempted.into())),
        ("failed", Value::Number(result.failed.into())),
        ("metrics", Value::Object(metrics)),
    ])
    .to_string()
}

fn metric_detail(name: &str, m: &Metric) -> Value {
    let (q1, q3) = quartiles(&m.samples);
    obj([
        ("value", num(m.value)),
        ("unit", text(unit_of(name))),
        ("n", Value::Number((m.samples.len() as u64).into())),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("samples", Value::Array(m.samples.iter().map(|&s| num(s)).collect())),
    ])
}

/// Everything one run measured, with the per-window samples beside each
/// median. `run` merges two of these (untraced, traced) per workload.
pub fn detail(result: &RunResult) -> Value {
    let metrics: Map<String, Value> =
        result.metrics.iter().map(|(n, m)| (n.to_string(), metric_detail(n, m))).collect();
    obj([
        ("attempted", Value::Number(result.attempted.into())),
        ("failed", Value::Number(result.failed.into())),
        ("metrics", Value::Object(metrics)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{value}\n"))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// What a reader needs to reproduce the numbers.
fn reproducibility(seed: u64, seconds: u64) -> Value {
    let sim = SimConfig::default();
    let c = &sim.cost;
    let cost = obj([
        ("post_wr_ns", num(c.post_wr_ns as f64)),
        ("doorbell_ns", num(c.doorbell_ns as f64)),
        ("nic_process_ns", num(c.nic_process_ns as f64)),
        ("wire_latency_ns", num(c.wire_latency_ns as f64)),
        ("link_bytes_per_ns", num(c.link_bytes_per_ns)),
        ("memcpy_bytes_per_ns", num(c.memcpy_bytes_per_ns)),
        ("memcpy_base_ns", num(c.memcpy_base_ns as f64)),
        ("event_wakeup_ns", num(c.event_wakeup_ns as f64)),
        ("poll_cqe_ns", num(c.poll_cqe_ns as f64)),
        ("post_recv_ns", num(c.post_recv_ns as f64)),
        ("inbound_rdma_turnaround_ns", num(c.inbound_rdma_turnaround_ns as f64)),
    ]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("seed", Value::Number(seed.into())),
        ("nproc", Value::Number((nproc as u64).into())),
        ("git_revision", text(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(&command_line("rustc", &["-V"]))),
        ("cost_model", cost),
        ("modelled_write_imm_rtt_ns_64", num(crate::probes::model_write_imm_rtt_ns(c, 64))),
        ("modelled_read_rtt_ns_1k", num(crate::probes::model_read_rtt_ns(c, 1024))),
        ("time_scale", num(sim.time_scale)),
        ("seconds_per_run", Value::Number(seconds.into())),
        ("window_s", num(crate::measure::WINDOW.as_secs_f64())),
        ("warmup_s", num(crate::measure::WINDOW.as_secs_f64())),
    ])
}

/// The metric tables, so a results file explains itself: direction and
/// bound of each end-to-end metric; layer of each layer metric and the
/// end-to-end metric and workload it should move.
fn metric_tables() -> Value {
    let end_to_end = END_TO_END.iter().map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("layer", text(m.layer)),
            ("moves", text(m.moves)),
        ])
    });
    obj([
        ("end_to_end", Value::Array(end_to_end.collect())),
        ("per_layer", Value::Array(per_layer.collect())),
    ])
}

pub struct RunAll {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Measure every workload, each run in a child process of its own, print
/// every metric by name with its unit, write `results.json`. Fails if any
/// op failed or any child did.
pub fn run_all(cfg: &RunAll) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut workloads = Map::new();
    let mut failed_ops = 0u64;
    for workload in Workload::ALL {
        let mut merged = Map::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for trace in ["0", "1"] {
            let detail_path = cfg.out_dir.join(format!("{}.run{trace}.json", workload.name()));
            eprintln!("hatbench: {} (trace {trace}) ...", workload.name());
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &cfg.seed.to_string(), "--seconds", &cfg.seconds.to_string()])
                .arg("--detail")
                .arg(&detail_path)
                .arg("--out-dir")
                .arg(&cfg.out_dir)
                .stdout(std::process::Stdio::null());
            if cfg.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", workload.name()));
            }
            let run = read_json(&detail_path)?;
            let _ = std::fs::remove_file(&detail_path);
            attempted += run["attempted"].as_u64().unwrap_or(0);
            failed += run["failed"].as_u64().unwrap_or(0);
            if let Some(metrics) = run["metrics"].as_object() {
                merged.extend(metrics.clone());
            }
        }
        failed_ops += failed;
        merged.insert(
            "failed_ops_ratio".into(),
            obj([("value", num(failed as f64 / attempted.max(1) as f64)), ("unit", text("ratio"))]),
        );
        print_workload(workload, &merged);
        workloads.insert(
            workload.name().into(),
            obj([
                ("why", text(crate::spec::why(workload))),
                ("attempted", Value::Number(attempted.into())),
                ("failed", Value::Number(failed.into())),
                ("metrics", Value::Object(merged)),
            ]),
        );
    }
    let results = obj([
        ("reproducibility", reproducibility(cfg.seed, cfg.seconds)),
        ("metrics", metric_tables()),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = cfg.out_dir.join("results.json");
    write_json(&path, &results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if failed_ops > 0 {
        return Err(format!("{failed_ops} ops failed or returned a wrong answer"));
    }
    Ok(())
}

fn print_workload(workload: Workload, metrics: &Map<String, Value>) {
    println!("== {} ==", workload.name());
    let row = |name: &str, note: &str| {
        let m = &metrics[name];
        let value = m["value"].as_f64().unwrap_or(f64::NAN);
        let n = m["n"].as_u64().unwrap_or(1);
        let spread = if n > 1 {
            format!(
                "  [q1 {:.4} q3 {:.4} n {n}]",
                m["q1"].as_f64().unwrap_or(f64::NAN),
                m["q3"].as_f64().unwrap_or(f64::NAN)
            )
        } else {
            String::new()
        };
        println!(
            "  {name:<40} {value:>16.4} {:<6}{spread}{note}",
            m["unit"].as_str().unwrap_or("")
        );
    };
    println!(" end to end (untraced run):");
    for m in &END_TO_END {
        row(m.name, "");
    }
    row("failed_ops_ratio", "");
    println!(" per layer (traced run and probes):");
    for m in PER_LAYER {
        row(m.name, &format!("  [{}]", m.layer));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judge one metric of one workload: `a` is the baseline, `b` the change,
/// each as (reported value, spread across windows). A row whose spread is
/// wider than the bound on either side cannot resolve a change of that size.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    let ((a_med, a_spread), (b_med, b_spread)) = (a, b);
    if a_spread > bound || b_spread > bound {
        return Verdict::Unresolved;
    }
    if a_med == 0.0 {
        return if b_med == 0.0 { Verdict::Unchanged } else { Verdict::Unresolved };
    }
    let worse_by = match better {
        Better::Lower => (b_med - a_med) / a_med,
        Better::Higher => (a_med - b_med) / a_med,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Reported value of a metric as `results.json` stores it, and the spread
/// (interquartile range over median) of the better half of its samples:
/// the half the reported value is drawn from. The slower half is mostly
/// other tenants' load, which the reported value already steps over.
fn value_and_spread(metric: &Value, better: Better) -> Option<(f64, f64)> {
    let value = metric["value"].as_f64()?;
    let mut samples: Vec<f64> =
        metric["samples"].as_array()?.iter().filter_map(Value::as_f64).collect();
    samples.sort_by(f64::total_cmp);
    if better == Better::Higher {
        samples.reverse();
    }
    samples.truncate(samples.len().div_ceil(2));
    Some((value, if samples.len() > 1 { spread(&samples) } else { 0.0 }))
}

/// Bounds and directions as `BENCHMARK.json` declares them.
fn declared_bounds(spec: &Value) -> BTreeMap<String, (Better, f64)> {
    spec["end_to_end"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|m| {
            let better =
                if m["better"].as_str()? == "higher" { Better::Higher } else { Better::Lower };
            Some((m["name"].as_str()?.to_string(), (better, m["bound"].as_f64()?)))
        })
        .collect()
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric).
/// Returns the number of regressed and of unresolved rows.
pub fn compare(a_path: &Path, b_path: &Path, spec_path: &Path) -> Result<(usize, usize), String> {
    let (a, b, spec) = (read_json(a_path)?, read_json(b_path)?, read_json(spec_path)?);
    let bounds = declared_bounds(&spec);
    if bounds.is_empty() {
        return Err(format!("{}: no end_to_end metrics declared", spec_path.display()));
    }
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let Some(&(better, bound)) = bounds.get(m.name) else { continue };
            let path = |doc: &Value| {
                value_and_spread(&doc["workloads"][workload.name()]["metrics"][m.name], better)
            };
            let (Some(ra), Some(rb)) = (path(&a), path(&b)) else {
                return Err(format!(
                    "{} / {} missing from a results file",
                    workload.name(),
                    m.name
                ));
            };
            let verdict = judge(better, bound, ra, rb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {:?}",
                workload.name(),
                m.name,
                ra.0,
                rb.0,
                100.0 * (rb.0 - ra.0) / ra.0,
                100.0 * bound,
                verdict
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_direction() {
        let tight = 0.01;
        let v = |a, b| judge(Better::Lower, 0.10, (a, tight), (b, tight));
        assert_eq!(v(100.0, 105.0), Verdict::Unchanged);
        assert_eq!(v(100.0, 111.0), Verdict::Regressed);
        assert_eq!(v(100.0, 89.0), Verdict::Improved);
        let h = |a, b| judge(Better::Higher, 0.10, (a, tight), (b, tight));
        assert_eq!(h(100.0, 89.0), Verdict::Regressed);
        assert_eq!(h(100.0, 111.0), Verdict::Improved);
        assert_eq!(h(100.0, 95.0), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(judge(Better::Lower, 0.10, (100.0, 0.15), (100.0, 0.01)), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.10, (100.0, 0.01), (150.0, 0.2)), Verdict::Unresolved);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let result = RunResult {
            attempted: 10,
            failed: 0,
            metrics: BTreeMap::from([(
                "setup_s",
                Metric { value: 0.25, samples: vec![0.2, 0.25, 0.3] },
            )]),
            trace: None,
        };
        let line: Value = serde_json::from_str(&contract_line(&result)).unwrap();
        let keys: Vec<_> = line.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(line["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        let d = detail(&result);
        assert_eq!(d["metrics"]["setup_s"]["n"].as_u64(), Some(3));
    }
}
