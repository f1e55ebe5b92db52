//! Prometheus text exposition, exposition well-formedness checking, and
//! the timeline-JSON artifact (`METRICS_*.json`) the bench sweeps write
//! next to their `BENCH_*.json`.

use std::collections::HashMap;
use std::fmt::Write as _;

use hat_rdma_sim::stats::{MetricKind, FIELD_KINDS};
use hat_trace::hist::{bucket_upper_bound, percentile_of, size_class_label, NUM_BUCKETS};

use crate::{HistTimeline, Sampler};

/// Escape a Prometheus label value (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

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

/// Render the latest sample of every series in Prometheus text
/// exposition format (classic `text/plain; version=0.0.4` flavour:
/// `# TYPE` names match the sample name, counters carry `_total`).
pub fn prometheus_text(s: &Sampler) -> String {
    let mut out = String::new();

    out.push_str(
        "# HELP hatrpc_sampler_ticks_total Sampling ticks taken by the hat-metrics sampler.\n",
    );
    out.push_str("# TYPE hatrpc_sampler_ticks_total counter\n");
    let _ = writeln!(out, "hatrpc_sampler_ticks_total {}", s.ticks());
    out.push_str("# HELP hatrpc_sampler_interval_ns Configured sampling interval.\n");
    out.push_str("# TYPE hatrpc_sampler_interval_ns gauge\n");
    let _ = writeln!(out, "hatrpc_sampler_interval_ns {}", s.interval_ns());

    // Per-node counters and gauges: one family per NodeStats field, one
    // sample per node, from each node's newest retained sample.
    let nodes = s.node_timelines();
    for (fi, (field, kind)) in FIELD_KINDS.iter().enumerate() {
        let (family, kind_str) = match kind {
            MetricKind::Counter => (format!("hatrpc_node_{field}_total"), "counter"),
            MetricKind::Gauge => (format!("hatrpc_node_{field}"), "gauge"),
        };
        let _ = writeln!(out, "# HELP {family} Simulated per-node NodeStats field `{field}`.");
        let _ = writeln!(out, "# TYPE {family} {kind_str}");
        for node in &nodes {
            let Some(latest) = node.samples.last() else { continue };
            let _ = writeln!(
                out,
                "{family}{{node=\"{}\"}} {}",
                escape_label(&node.node),
                latest.values[fi]
            );
        }
    }

    // RPC latency histograms: cumulative log2 buckets per
    // protocol × fn_scope × size-class, from the newest sample.
    let hists = s.hist_timelines();
    out.push_str(
        "# HELP hatrpc_rpc_latency_ns RPC latency by protocol, fn scope, and payload size class.\n",
    );
    out.push_str("# TYPE hatrpc_rpc_latency_ns histogram\n");
    for h in &hists {
        let Some(latest) = h.samples.last() else { continue };
        let labels = format!(
            "protocol=\"{}\",fn_scope=\"{}\",size_class=\"{}\"",
            escape_label(&h.protocol),
            escape_label(&h.fn_scope),
            escape_label(&size_class_label(h.size_class)),
        );
        let count = latest.values[0];
        let sum = latest.values[1];
        let mut cumulative = 0u64;
        for (i, c) in latest.values[2..].iter().enumerate() {
            cumulative += c;
            // Keep the exposition compact: only buckets that hold data
            // (plus +Inf below) — still a valid non-decreasing series.
            if *c > 0 && i < NUM_BUCKETS - 1 {
                let _ = writeln!(
                    out,
                    "hatrpc_rpc_latency_ns_bucket{{{labels},le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
        }
        let _ = writeln!(out, "hatrpc_rpc_latency_ns_bucket{{{labels},le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "hatrpc_rpc_latency_ns_sum{{{labels}}} {sum}");
        let _ = writeln!(out, "hatrpc_rpc_latency_ns_count{{{labels}}} {count}");
    }

    // SLO engine derived gauges.
    let slos = s.slo_statuses();
    if !slos.is_empty() {
        for (family, kind, help) in [
            ("hatrpc_slo_target_p99_ns", "gauge", "Configured p99 objective."),
            ("hatrpc_slo_window_p99_ns", "gauge", "Rolling-window p99."),
            ("hatrpc_slo_burn_rate_milli", "gauge", "Error-budget burn rate x1000."),
            ("hatrpc_slo_breached", "gauge", "1 while the window p99 exceeds target."),
            ("hatrpc_slo_breach_events_total", "counter", "Rising-edge breach count."),
        ] {
            let _ = writeln!(out, "# HELP {family} {help}");
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for st in &slos {
                let v = match family {
                    "hatrpc_slo_target_p99_ns" => st.p99_target_ns,
                    "hatrpc_slo_window_p99_ns" => st.window_p99_ns,
                    "hatrpc_slo_burn_rate_milli" => st.burn_rate_milli,
                    "hatrpc_slo_breached" => st.breached as u64,
                    _ => st.breach_events,
                };
                let _ =
                    writeln!(out, "{family}{{fn_scope=\"{}\"}} {v}", escape_label(&st.fn_scope));
            }
        }
    }
    out
}

/// Well-formedness check for Prometheus text exposition: sample-line
/// grammar, `# TYPE` declared before (and matching) each sample family,
/// and histogram buckets cumulative/non-decreasing ending in `+Inf`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // Histogram bucket state per family+labelset: (last le, last count).
    let mut buckets: HashMap<String, (f64, f64)> = HashMap::new();
    let mut inf_seen: HashMap<String, bool> = HashMap::new();

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name =
                    it.next().ok_or_else(|| format!("line {n}: TYPE without a name"))?.to_string();
                let kind = it.next().ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
                }
                if types.insert(name.clone(), kind.to_string()).is_some() {
                    return Err(format!("line {n}: duplicate TYPE for {name}"));
                }
            }
            continue; // HELP and free comments are fine
        }

        let (name, labels, value) =
            parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = resolve_family(&name, &types)
            .ok_or_else(|| format!("line {n}: sample {name} has no preceding # TYPE"))?;

        if name.ends_with("_bucket") && types.get(&family).map(String::as_str) == Some("histogram")
        {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("line {n}: histogram bucket without an le label"))?;
            let le_num = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>().map_err(|_| format!("line {n}: unparseable le {le:?}"))?
            };
            let mut key_labels: Vec<String> =
                labels.iter().filter(|(k, _)| k != "le").map(|(k, v)| format!("{k}={v}")).collect();
            key_labels.sort();
            let key = format!("{family}|{}", key_labels.join(","));
            let (last_le, last_count) = buckets.get(&key).copied().unwrap_or((f64::MIN, -1.0));
            if le_num <= last_le {
                return Err(format!("line {n}: le not increasing within {key}"));
            }
            if value < last_count {
                return Err(format!("line {n}: bucket counts not cumulative within {key}"));
            }
            buckets.insert(key.clone(), (le_num, value));
            if le_num.is_infinite() {
                inf_seen.insert(key, true);
            } else {
                inf_seen.entry(key).or_insert(false);
            }
        }
    }

    for (key, seen) in &inf_seen {
        if !seen {
            return Err(format!("histogram series {key} never emitted its +Inf bucket"));
        }
    }
    Ok(())
}

/// Parse `name{labels} value [timestamp]`; returns (name, labels, value).
#[allow(clippy::type_complexity)]
fn parse_sample_line(line: &str) -> Result<(String, Vec<(String, String)>, f64), String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len()
        && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_' || bytes[pos] == b':')
    {
        pos += 1;
    }
    if pos == 0 || bytes[0].is_ascii_digit() {
        return Err(format!("invalid metric name in {line:?}"));
    }
    let name = line[..pos].to_string();
    let mut labels = Vec::new();
    let rest = &line[pos..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let end = body.find('}').ok_or_else(|| format!("unterminated label set in {line:?}"))?;
        let label_str = &body[..end];
        let mut chars = label_str.char_indices().peekable();
        while chars.peek().is_some() {
            // key
            let start = chars.peek().map(|(i, _)| *i).unwrap();
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or_else(|| format!("label without '=' in {line:?}"))?;
            let key = label_str[start..eq].trim().to_string();
            if key.is_empty()
                || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                || key.starts_with(|c: char| c.is_ascii_digit())
            {
                return Err(format!("invalid label name {key:?} in {line:?}"));
            }
            // quoted value
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label value not quoted in {line:?}")),
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some((_, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, e)) => value.push(e),
                        None => return Err(format!("dangling escape in {line:?}")),
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => value.push(c),
                }
            }
            if !closed {
                return Err(format!("unterminated label value in {line:?}"));
            }
            labels.push((key, value));
            if let Some((_, ',')) = chars.peek() {
                chars.next();
            }
        }
        &body[end + 1..]
    } else {
        rest
    };
    let mut parts = rest.split_whitespace();
    let value_str = parts.next().ok_or_else(|| format!("missing value in {line:?}"))?;
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("unparseable value {v:?} in {line:?}"))?,
    };
    if let Some(ts) = parts.next() {
        ts.parse::<i64>().map_err(|_| format!("unparseable timestamp {ts:?} in {line:?}"))?;
    }
    if parts.next().is_some() {
        return Err(format!("trailing garbage in {line:?}"));
    }
    Ok((name, labels, value))
}

/// Map a sample name onto its `# TYPE` family (histograms contribute
/// `_bucket` / `_sum` / `_count` samples under the family name).
fn resolve_family(name: &str, types: &HashMap<String, String>) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem).map(String::as_str) == Some("histogram") {
                return Some(stem.to_string());
            }
        }
    }
    None
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

    #[test]
    fn sample_line_grammar() {
        let (name, labels, value) =
            parse_sample_line("foo_total{node=\"a\",x=\"b\\\"c\"} 42").unwrap();
        assert_eq!(name, "foo_total");
        assert_eq!(labels, vec![("node".into(), "a".into()), ("x".into(), "b\"c".into())]);
        assert_eq!(value, 42.0);

        let (name, labels, value) = parse_sample_line("bare_metric 1.5 1700000000").unwrap();
        assert_eq!(name, "bare_metric");
        assert!(labels.is_empty());
        assert_eq!(value, 1.5);

        assert!(parse_sample_line("9bad 1").is_err());
        assert!(parse_sample_line("no_value{a=\"b\"}").is_err());
        assert!(parse_sample_line("unquoted{a=b} 1").is_err());
        assert!(parse_sample_line("open{a=\"b\" 1").is_err());
    }

    #[test]
    fn validator_accepts_well_formed_and_rejects_malformed() {
        let good = "\
# HELP m_total a counter
# TYPE m_total counter
m_total{node=\"a\"} 3
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"2\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 3
h_count 2
";
        validate_exposition(good).expect("well-formed");

        let untyped = "m_total 3\n";
        assert!(validate_exposition(untyped).is_err(), "sample without TYPE");

        let non_monotonic = "\
# TYPE h histogram
h_bucket{le=\"2\"} 5
h_bucket{le=\"1\"} 6
h_bucket{le=\"+Inf\"} 6
";
        assert!(validate_exposition(non_monotonic).is_err(), "le must increase");

        let shrinking = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
";
        assert!(validate_exposition(shrinking).is_err(), "cumulative counts");

        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
";
        assert!(validate_exposition(no_inf).is_err(), "+Inf bucket required");
    }

    /// Every `NodeStats` field reaches the exposition, one sample per
    /// node, under its family's name.
    #[test]
    fn prometheus_text_covers_every_counter() {
        let fabric = hat_rdma_sim::Fabric::new(hat_rdma_sim::SimConfig::fast_test());
        fabric.add_node("n0");
        let mut sampler = Sampler::attach_paused(&fabric, crate::SamplerConfig::default());
        sampler.tick();
        sampler.stop();
        let text = prometheus_text(&sampler);
        validate_exposition(&text).expect("well-formed");
        for (field, kind) in FIELD_KINDS.iter() {
            let family = match kind {
                MetricKind::Counter => format!("hatrpc_node_{field}_total"),
                MetricKind::Gauge => format!("hatrpc_node_{field}"),
            };
            let sample = format!("{family}{{node=\"n0\"}} ");
            assert!(text.lines().any(|l| l.starts_with(&sample)), "no sample for {field}");
        }
        assert!(text.contains("hatrpc_node_doorbells_total{node=\"n0\"}"));
        assert!(text.contains("hatrpc_node_pipeline_doorbells_total{node=\"n0\"}"));
    }

    #[test]
    fn label_escaping_roundtrips_through_the_parser() {
        let line = format!("m{{k=\"{}\"}} 1", escape_label("a\"b\\c\nd"));
        let (_, labels, _) = parse_sample_line(&line).unwrap();
        assert_eq!(labels[0].1, "a\"b\\cnd", "escapes parse without breaking the line grammar");
    }
}
