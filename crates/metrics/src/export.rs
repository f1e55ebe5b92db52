//! The timeline-JSON artifact (`METRICS_*.json`): the sampler's one file
//! format, written by `repro metrics` and by the bench sweeps next to
//! their `BENCH_*.json`.

use std::fmt::Write as _;

use hat_rdma_sim::stats::{MetricKind, FIELD_KINDS};
use hat_trace::hist::{percentile_of, size_class_label, NUM_BUCKETS};

use crate::{HistTimeline, Sampler};

/// Escape a JSON string value.
fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-interval p99 of one histogram timeline (bucket deltas between
/// consecutive samples).
fn interval_p99s(h: &HistTimeline) -> Vec<u64> {
    h.samples
        .windows(2)
        .map(|w| {
            let mut delta = [0u64; NUM_BUCKETS];
            for (i, d) in delta.iter_mut().enumerate() {
                *d = w[1].values[2 + i].saturating_sub(w[0].values[2 + i]);
            }
            percentile_of(&delta, 0.99)
        })
        .collect()
}

fn push_u64_array(out: &mut String, values: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The `METRICS_*.json` artifact: the full readable history of every
/// series, counters as per-interval deltas, gauges raw, histograms as
/// per-interval count/sum deltas plus interval p99 — so a regression
/// report can show *when* within a run a rate collapsed.
pub fn timeline_json(s: &Sampler) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"hat-metrics-timeline-v1\",");
    let _ = writeln!(out, "  \"interval_ns\": {},", s.interval_ns());
    let _ = writeln!(out, "  \"started_ns\": {},", s.started_ns());
    let _ = writeln!(out, "  \"ticks\": {},", s.ticks());

    out.push_str("  \"nodes\": [\n");
    let nodes = s.node_timelines();
    for (ni, node) in nodes.iter().enumerate() {
        let _ = write!(out, "    {{\"node\": \"{}\", \"ts_ns\": ", escape_json(&node.node));
        push_u64_array(&mut out, node.samples.iter().map(|s| s.ts_ns));
        out.push_str(", \"series\": {");
        for (fi, (field, kind)) in FIELD_KINDS.iter().enumerate() {
            if fi > 0 {
                out.push_str(", ");
            }
            match kind {
                MetricKind::Counter => {
                    // `total` is the newest cumulative value — exact even
                    // when the ring wrapped or the node was discovered
                    // late (its birth-to-first-sample interval is not in
                    // `delta`), so consumers reconcile against it.
                    let total = node.samples.last().map_or(0, |s| s.values[fi]);
                    let _ = write!(
                        out,
                        "\"{field}\": {{\"kind\": \"counter\", \"total\": {total}, \"delta\": "
                    );
                    push_u64_array(
                        &mut out,
                        node.samples
                            .windows(2)
                            .map(|w| w[1].values[fi].saturating_sub(w[0].values[fi])),
                    );
                }
                MetricKind::Gauge => {
                    let _ = write!(out, "\"{field}\": {{\"kind\": \"gauge\", \"value\": ");
                    push_u64_array(&mut out, node.samples.iter().map(|s| s.values[fi]));
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out.push_str(if ni + 1 < nodes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"histograms\": [\n");
    let hists = s.hist_timelines();
    for (hi, h) in hists.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"protocol\": \"{}\", \"fn_scope\": \"{}\", \"size_class\": {}, \"size_label\": \"{}\", \"ts_ns\": ",
            escape_json(&h.protocol),
            escape_json(&h.fn_scope),
            h.size_class,
            escape_json(&size_class_label(h.size_class)),
        );
        push_u64_array(&mut out, h.samples.iter().map(|s| s.ts_ns));
        let _ = write!(
            out,
            ", \"count_total\": {}, \"sum_total\": {}",
            h.samples.last().map_or(0, |s| s.values[0]),
            h.samples.last().map_or(0, |s| s.values[1]),
        );
        out.push_str(", \"count_delta\": ");
        push_u64_array(
            &mut out,
            h.samples.windows(2).map(|w| w[1].values[0].saturating_sub(w[0].values[0])),
        );
        out.push_str(", \"sum_delta\": ");
        push_u64_array(
            &mut out,
            h.samples.windows(2).map(|w| w[1].values[1].saturating_sub(w[0].values[1])),
        );
        out.push_str(", \"p99_ns\": ");
        push_u64_array(&mut out, interval_p99s(h).into_iter());
        out.push('}');
        out.push_str(if hi + 1 < hists.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"slos\": [\n");
    let slos = s.slo_statuses();
    for (si, st) in slos.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"fn_scope\": \"{}\", \"p99_target_ns\": {}, \"window_p99_ns\": {}, \"window_total\": {}, \"window_bad\": {}, \"burn_rate_milli\": {}, \"breached\": {}, \"breach_events\": {}}}",
            escape_json(&st.fn_scope),
            st.p99_target_ns,
            st.window_p99_ns,
            st.window_total,
            st.window_bad,
            st.burn_rate_milli,
            st.breached,
            st.breach_events,
        );
        out.push_str(if si + 1 < slos.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `NodeStats` field reaches the timeline, under each node's
    /// `series`, keyed by name and tagged with its kind.
    #[test]
    fn timeline_json_covers_every_counter() {
        let fabric = hat_rdma_sim::Fabric::new(hat_rdma_sim::SimConfig::fast_test());
        fabric.add_node("n0");
        let mut sampler = Sampler::attach_paused(&fabric, crate::SamplerConfig::default());
        sampler.tick();
        sampler.stop();
        let json = timeline_json(&sampler);
        let node = json.lines().find(|l| l.contains("{\"node\": \"n0\"")).expect("node n0 row");
        for (field, kind) in FIELD_KINDS.iter() {
            let kind = match kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            let entry = format!("\"{field}\": {{\"kind\": \"{kind}\"");
            assert!(node.contains(&entry), "no {kind} series for {field}");
        }
    }
}
