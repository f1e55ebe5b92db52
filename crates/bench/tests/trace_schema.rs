//! Structural round-trip of the two trace-event documents a micro run
//! writes — `repro trace`'s spans and `repro metrics`' counter tracks:
//! capture each micro workload once, parse the export back through the
//! vendored `serde_json`, and check the trace-event schema invariants that
//! Perfetto relies on.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

use hat_rdma_sim::stats::{MetricKind, FIELD_KINDS};
use serde_json::Value;

/// The trace globals (enable flag, ring, histograms) are process-wide,
/// so the two captures run one at a time, each once.
static CAPTURE: Mutex<()> = Mutex::new(());

fn micro() -> &'static hat_bench::MicroTrace {
    static TRACE: OnceLock<hat_bench::MicroTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let _one_at_a_time = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        hat_bench::capture_micro_trace()
    })
}

fn micro_metrics() -> &'static hat_bench::MicroMetrics {
    static METRICS: OnceLock<hat_bench::MicroMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let _one_at_a_time = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
        hat_bench::capture_micro_metrics()
    })
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

/// `repro metrics`' document: every sampled series a counter track on the
/// trace-event timeline, reconciling with what the load loop did.
#[test]
fn micro_metrics_are_perfetto_counter_tracks() {
    let m = micro_metrics();
    assert!(m.ticks > 0, "the sampler ticked");
    assert!(m.ops > 0, "the load loop ran");

    let doc: Value = serde_json::from_str(&m.json).expect("export is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let mut processes: HashMap<&str, u64> = HashMap::new();
    // (pid, name) -> the track's samples, in document (= time) order.
    let mut tracks: HashMap<(u64, &str), Vec<&Value>> = HashMap::new();
    for e in events {
        let pid = e["pid"].as_u64().expect("event has pid");
        match e["ph"].as_str() {
            Some("M") => {
                processes.insert(e["args"]["name"].as_str().expect("process name"), pid);
            }
            Some("C") => {
                assert!(e["ts"].as_f64().is_some(), "counter has numeric ts: {e}");
                let name = e["name"].as_str().expect("counter name");
                tracks.entry((pid, name)).or_default().push(e);
            }
            other => panic!("unexpected phase {other:?} in a metrics document: {e}"),
        }
    }
    let arg = |e: &Value, key: &str| -> u64 {
        e["args"][key].as_u64().unwrap_or_else(|| panic!("no `{key}` arg: {e}"))
    };
    // A per-interval arg sits at the tick opening its interval, so it
    // carries the track's running total to the next sample: a dropped
    // tick breaks the chain, and the newest sample closes the track.
    let chained = |samples: &[&Value], step: &str, total: &str| {
        for pair in samples.windows(2) {
            assert_eq!(
                arg(pair[0], total) + arg(pair[0], step),
                arg(pair[1], total),
                "`{step}` does not carry `{total}` from {} to {}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(arg(samples.last().unwrap(), step), 0, "the newest sample closes the track");
    };

    // 1. Every `NodeStats` field of every sampled node is a counter track
    //    on the node's process, its timestamps strictly increasing, and it
    //    carries what the sampler's rings hold: the first and newest tick,
    //    and every tick at which the field moved, with the ring's value.
    let nodes: HashSet<&str> =
        processes.keys().copied().filter(|name| *name != "micro latency").collect();
    assert_eq!(nodes, HashSet::from(["micro client", "micro server"]), "{processes:?}");
    assert_eq!(m.nodes.len(), nodes.len(), "one process per sampled node");
    for ring in &m.nodes {
        let node = format!("micro {}", ring.node);
        let pid = processes[node.as_str()];
        for (fi, (field, kind)) in FIELD_KINDS.iter().enumerate() {
            let samples = tracks
                .get(&(pid, *field))
                .unwrap_or_else(|| panic!("{node}: no counter track for {field}"));
            let ts: Vec<f64> = samples.iter().map(|e| e["ts"].as_f64().unwrap()).collect();
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "{node}.{field}: ts not increasing");
            let key = match kind {
                MetricKind::Counter => {
                    chained(samples, "delta", "total");
                    "total"
                }
                MetricKind::Gauge => "value",
            };
            let at: HashMap<u64, u64> = samples
                .iter()
                .map(|e| ((e["ts"].as_f64().unwrap() * 1000.0).round() as u64, arg(e, key)))
                .collect();
            let last = ring.samples.len() - 1;
            for (i, tick) in ring.samples.iter().enumerate() {
                let v = tick.values[fi];
                if i == 0 || i == last || v != ring.samples[i - 1].values[fi] {
                    assert_eq!(at.get(&tick.ts_ns), Some(&v), "{node}.{field}: tick {i} missing");
                }
            }
        }
    }

    // 2. The client's final `calls_ok` total is exactly the ops the load
    //    loop counted (call bumps it by 1, call_many by the batch size).
    let client = processes["micro client"];
    let calls_ok = tracks[&(client, "calls_ok")].last().unwrap();
    assert_eq!(arg(calls_ok, "total"), m.ops, "sampled calls_ok reconciles with the load loop");

    // 3. Both functions' latency histograms carry per-interval count and
    //    p99 on the latency process.
    let latency = processes["micro latency"];
    for scope in ["echo", "piped"] {
        let (_, samples) = tracks
            .iter()
            .find(|((pid, name), _)| *pid == latency && name.starts_with(&format!("{scope} [")))
            .unwrap_or_else(|| panic!("no {scope} histogram track: {:?}", tracks.keys()));
        chained(samples, "count", "count_total");
        assert!(samples.iter().any(|e| arg(e, "count") > 0 && arg(e, "p99_ns") > 0), "{scope}");
    }
}
