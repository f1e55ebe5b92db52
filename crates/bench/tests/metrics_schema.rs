//! Structural round-trip of `repro metrics`' timeline JSON: capture a
//! sampled micro workload once, parse the timeline back through the
//! vendored `serde_json`, and reconcile the sampled counters against what
//! the load loop actually did.

use std::sync::OnceLock;

use serde_json::Value;

/// Capture once: the sampler configuration and histogram registry are
/// process-wide, so two parallel captures would interleave.
fn micro() -> &'static hat_bench::MicroMetrics {
    static METRICS: OnceLock<hat_bench::MicroMetrics> = OnceLock::new();
    METRICS.get_or_init(hat_bench::capture_micro_metrics)
}

#[test]
fn timeline_json_round_trips_with_valid_schema() {
    let m = micro();
    assert!(m.ticks > 0, "the sampler ticked");
    assert!(m.ops > 0, "the load loop ran");

    let doc: Value = serde_json::from_str(&m.timeline).expect("timeline is valid JSON");
    assert_eq!(doc["schema"].as_str(), Some("hat-metrics-timeline-v1"));
    assert_eq!(doc["interval_ns"].as_u64(), Some(500_000), "micro capture interval");
    assert_eq!(doc["ticks"].as_u64(), Some(m.ticks));
    assert!(doc["started_ns"].as_u64().is_some());

    let nodes = doc["nodes"].as_array().expect("nodes array");
    assert!(!nodes.is_empty());
    for node in nodes {
        let name = node["node"].as_str().expect("node name");
        let ts = node["ts_ns"].as_array().expect("ts_ns array");
        assert!(!ts.is_empty(), "node {name} retained samples");
        // Sample timestamps read monotonically.
        let mut prev = 0u64;
        for t in ts {
            let t = t.as_u64().expect("ts is u64");
            assert!(t >= prev, "ts regressed on {name}");
            prev = t;
        }
        let series = node["series"].as_object().expect("series map");
        assert!(series.contains_key("calls_ok"), "NodeStats fields keyed by name");
        for (field, entry) in series {
            match entry["kind"].as_str() {
                Some("counter") => {
                    let total = entry["total"].as_u64().expect("counter total");
                    let delta = entry["delta"].as_array().expect("counter delta");
                    assert_eq!(delta.len() + 1, ts.len(), "{name}.{field}: one delta per interval");
                    // Deltas never exceed the exact cumulative total
                    // (late discovery may make them undercount it).
                    let sum: u64 = delta.iter().map(|d| d.as_u64().unwrap()).sum();
                    assert!(sum <= total, "{name}.{field}: delta sum {sum} > total {total}");
                }
                Some("gauge") => {
                    let values = entry["value"].as_array().expect("gauge values");
                    assert_eq!(values.len(), ts.len(), "{name}.{field}: one value per sample");
                }
                other => panic!("{name}.{field}: unexpected series kind {other:?}"),
            }
        }
    }

    let hists = doc["histograms"].as_array().expect("histograms array");
    assert!(!hists.is_empty(), "the workload recorded latency histograms");
    let mut scopes = Vec::new();
    for h in hists {
        scopes.push(h["fn_scope"].as_str().expect("fn_scope").to_string());
        let ts = h["ts_ns"].as_array().expect("ts_ns array");
        let count_total = h["count_total"].as_u64().expect("count_total");
        let count_delta = h["count_delta"].as_array().expect("count_delta");
        let sum_delta = h["sum_delta"].as_array().expect("sum_delta");
        let p99 = h["p99_ns"].as_array().expect("p99_ns");
        assert_eq!(count_delta.len() + 1, ts.len());
        assert_eq!(sum_delta.len(), count_delta.len());
        assert_eq!(p99.len(), count_delta.len());
        let delta_sum: u64 = count_delta.iter().map(|d| d.as_u64().unwrap()).sum();
        assert!(delta_sum <= count_total);
        assert!(h["size_label"].as_str().is_some());
    }
    assert!(scopes.iter().any(|s| s == "echo"), "echo histogram sampled: {scopes:?}");
    assert!(scopes.iter().any(|s| s == "piped"), "piped histogram sampled: {scopes:?}");

    // The intentionally impossible 1 ns target on `piped` exercised the
    // breach path; the loose echo target is configured alongside it.
    let slos = doc["slos"].as_array().expect("slos array");
    let slo = |scope: &str| -> &Value {
        slos.iter()
            .find(|s| s["fn_scope"].as_str() == Some(scope))
            .unwrap_or_else(|| panic!("slo for {scope}"))
    };
    let piped = slo("piped");
    assert_eq!(piped["p99_target_ns"].as_u64(), Some(1));
    // `breached` is level-triggered over the rolling window, so by the
    // post-shutdown tail ticks (load loop stopped, window drained) it may
    // read false again — the rising-edge counter is the durable record.
    assert!(piped["breached"].as_bool().is_some());
    assert!(piped["breach_events"].as_u64().unwrap() >= 1, "impossible target breached: {piped}");
    assert_eq!(slo("echo")["p99_target_ns"].as_u64(), Some(50_000_000));
}

#[test]
fn timeline_reconciles_with_the_run() {
    let m = micro();
    let doc: Value = serde_json::from_str(&m.timeline).expect("timeline is valid JSON");

    // The client node's calls_ok total is exactly the ops the load loop
    // counted (call bumps it by 1, call_many by the batch size).
    let client = doc["nodes"]
        .as_array()
        .unwrap()
        .iter()
        .find(|n| n["node"].as_str() == Some("client"))
        .expect("client node sampled");
    assert_eq!(
        client["series"]["calls_ok"]["total"].as_u64(),
        Some(m.ops),
        "sampled calls_ok reconciles with the load loop's own count"
    );

    // The SLO engine recorded the engineered breach (the level-triggered
    // `breached` flag may have cleared during the idle tail ticks, but the
    // rising-edge counter keeps the record).
    let piped = doc["slos"]
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s["fn_scope"].as_str() == Some("piped"))
        .expect("piped SLO exported");
    assert!(piped["breach_events"].as_u64().unwrap() >= 1, "breach edge recorded: {piped}");

    // The dashboard frame renders both tables.
    assert!(m.top.contains("NODE"), "top frame has the node table: {}", m.top);
    assert!(m.top.contains("SLO"), "top frame has the SLO table: {}", m.top);
    assert!(m.top.contains("piped"), "top frame lists the piped SLO: {}", m.top);
}
