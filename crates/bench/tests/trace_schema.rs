//! Structural round-trip of `repro trace`'s Chrome-trace JSON: capture
//! a traced micro workload, parse the export back through the vendored
//! `serde_json`, and check the trace-event schema invariants that
//! Perfetto relies on.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use serde_json::Value;

/// Capture once: the trace globals (enable flag, ring, histograms) are
/// process-wide, so two parallel captures would interleave.
fn micro() -> &'static hat_bench::MicroTrace {
    static TRACE: OnceLock<hat_bench::MicroTrace> = OnceLock::new();
    TRACE.get_or_init(hat_bench::capture_micro_trace)
}

#[test]
fn micro_trace_round_trips_with_valid_schema() {
    let trace = micro();
    assert!(trace.events > 0, "the workload must record events");

    let doc: Value = serde_json::from_str(&trace.json).expect("export is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // Every entry carries the mandatory trace-event fields.
    for e in events {
        let ph = e["ph"].as_str().expect("event has ph");
        assert!(matches!(ph, "M" | "B" | "E" | "i" | "s" | "f"), "unexpected phase {ph:?}");
        assert!(e["ts"].as_f64().is_some(), "event has numeric ts: {e}");
        assert!(e["pid"].as_u64().is_some(), "event has pid: {e}");
    }

    // Span begins and ends balance per lane (tid = call id).
    let mut balance: HashMap<u64, i64> = HashMap::new();
    for e in events {
        match e["ph"].as_str().unwrap() {
            "B" => *balance.entry(e["tid"].as_u64().unwrap()).or_default() += 1,
            "E" => *balance.entry(e["tid"].as_u64().unwrap()).or_default() -= 1,
            _ => {}
        }
    }
    assert!(!balance.is_empty(), "spans were exported");
    for (tid, delta) in &balance {
        assert_eq!(*delta, 0, "B/E imbalance on call {tid}");
    }

    // Timestamps are sorted, so every per-track view reads monotonically.
    let mut prev = f64::MIN;
    for e in events {
        let ts = e["ts"].as_f64().unwrap();
        assert!(ts >= prev, "ts regressed: {ts} after {prev}");
        prev = ts;
    }

    // At least one RPC shows >= 5 distinct sim-level phases on its lane.
    let mut sim_phases: HashMap<u64, HashSet<String>> = HashMap::new();
    for e in events {
        if e["ph"].as_str() == Some("i") && e["cat"].as_str() == Some("sim") {
            sim_phases
                .entry(e["tid"].as_u64().unwrap())
                .or_default()
                .insert(e["name"].as_str().unwrap().to_string());
        }
    }
    let richest = sim_phases.values().map(HashSet::len).max().unwrap_or(0);
    assert!(richest >= 5, "want >=5 distinct sim phases on one call, got {richest}");

    // Flow arrows: a start and a finish with the same id on different
    // nodes (client post -> server delivery).
    let starts: HashMap<u64, u64> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("s"))
        .map(|e| (e["id"].as_u64().unwrap(), e["pid"].as_u64().unwrap()))
        .collect();
    let cross_node = events.iter().filter(|e| e["ph"].as_str() == Some("f")).any(|e| {
        let id = e["id"].as_u64().unwrap();
        starts.get(&id).is_some_and(|spid| *spid != e["pid"].as_u64().unwrap())
    });
    assert!(cross_node, "no cross-node flow arrow found");

    // Track metadata names both nodes of the micro fabric.
    let names: HashSet<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M"))
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(names.contains("client") && names.contains("server"), "tracks named: {names:?}");
}

#[test]
fn micro_trace_histograms_key_by_protocol_scope_and_size() {
    let trace = micro();

    let echo = trace.latency.iter().find(|r| r.fn_scope == "echo").expect("echo histogram row");
    assert_eq!(echo.snapshot.count, 4, "four sequential echo calls");
    let piped = trace.latency.iter().find(|r| r.fn_scope == "piped").expect("piped histogram row");
    assert_eq!(piped.snapshot.count, 16, "one 16-call pipelined window");
    assert_ne!(echo.size_class, piped.size_class, "256 B vs 128 B payloads classed apart");

    for row in &trace.latency {
        assert!(!row.protocol.is_empty());
        let s = &row.snapshot;
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }
}
