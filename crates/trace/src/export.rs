//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders the captured virtual-time timeline in the [trace-event
//! format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! that both `chrome://tracing` and <https://ui.perfetto.dev> open
//! directly:
//!
//! * one *process* (track group) per simulated node, named via the
//!   registered track table;
//! * one *thread* lane per RPC call id, holding the call's `B`/`E` span
//!   and its sim-level instant events (`i`);
//! * async **flow arrows** (`s` → `f`, id = call id) from the client's
//!   first WR post to the payload's delivery on the remote node;
//! * **counter tracks** (`C`) on a node's process: the sampled series a
//!   `hat-metrics` sampler hands in as [`Counter`]s.
//!
//! Timestamps are the simulator's virtual nanoseconds rendered as
//! fractional microseconds (the format's `ts` unit), so spans and
//! counters share one clock.
//!
//! JSON is emitted by hand — the workspace builds offline and the trace
//! schema is flat; the round-trip test in `hat-bench` parses the output
//! back through the vendored `serde_json` and checks it structurally.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{CallMeta, Event, Phase};

/// One sample of a counter series: a `"ph":"C"` event on process `pid`.
/// Perfetto draws one counter track per `args` key, named
/// `"{name} {key}"`, and holds each value until the series' next sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    pub pid: u64,
    pub ts_ns: u64,
    pub name: String,
    pub args: Vec<(&'static str, u64)>,
}

/// Export everything captured since the last [`crate::reset`] as a
/// Chrome-trace JSON object (`{"traceEvents": [...]}`).
pub fn chrome_trace_json() -> String {
    build(&crate::snapshot_events(), &crate::tracks(), &crate::calls(), &crate::annotations(), &[])
}

/// Pure builder over explicit inputs (unit-testable): the one writer of
/// every trace-event document, spans and counters alike.
pub fn build(
    events: &[Event],
    tracks: &[(u64, String)],
    calls: &[CallMeta],
    annotations: &[(u64, u64, String)],
    counters: &[Counter],
) -> String {
    let meta: HashMap<u64, &CallMeta> = calls.iter().map(|c| (c.call_id, c)).collect();

    // (ts_ns, json) entries; stable-sorted by timestamp at the end so
    // every track reads monotonically.
    let mut entries: Vec<(u64, String)> = Vec::new();

    for (id, name) in tracks {
        entries.push((
            0,
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{id},"tid":0,"ts":0,"args":{{"name":"{}"}}}}"#,
                esc(name)
            ),
        ));
    }

    // Span pairing: first Begin and first matching End per call id, with
    // a synthetic End at the call's last event when the ring lost the
    // real one — exported begin/end always balance.
    let mut span_state: HashMap<(u64, bool), SpanState> = HashMap::new();
    for e in events {
        let key = match e.phase {
            Phase::CallBegin | Phase::CallEnd => (e.call_id, false),
            Phase::ServerBegin | Phase::ServerEnd => (e.call_id, true),
            _ => continue,
        };
        let s = span_state.entry(key).or_default();
        match e.phase {
            Phase::CallBegin | Phase::ServerBegin if s.begin.is_none() => s.begin = Some(*e),
            Phase::CallEnd | Phase::ServerEnd if s.begin.is_some() && s.end.is_none() => {
                s.end = Some(*e)
            }
            _ => {}
        }
    }
    // Per-call last timestamp (for synthetic span ends) and flow anchors.
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut flow_post: HashMap<u64, Event> = HashMap::new();
    let mut flow_delivery: HashMap<u64, Event> = HashMap::new();
    for e in events {
        if e.call_id == 0 {
            continue;
        }
        let t = last_ts.entry(e.call_id).or_insert(e.ts_ns);
        *t = (*t).max(e.ts_ns);
        match e.phase {
            Phase::WrPost => {
                flow_post.entry(e.call_id).or_insert(*e);
            }
            Phase::Delivered => {
                // The arrow should land on the *remote* side: keep the
                // first delivery on a node other than where the post
                // happened (the response's delivery back home is later).
                let entry = flow_delivery.entry(e.call_id).or_insert(*e);
                let posted_node = flow_post.get(&e.call_id).map(|p| p.node);
                if Some(entry.node) == posted_node && Some(e.node) != posted_node {
                    *entry = *e;
                }
            }
            _ => {}
        }
    }

    for ((call_id, is_server), s) in &span_state {
        let Some(begin) = s.begin else { continue };
        let name = match meta.get(call_id) {
            Some(m) if !m.fn_scope.is_empty() => {
                format!("{} [{}]", esc(&m.fn_scope), esc(m.protocol))
            }
            Some(m) => format!("call#{call_id} [{}]", esc(m.protocol)),
            None => format!("{}#{call_id}", if *is_server { "serve" } else { "call" }),
        };
        let name = if *is_server { format!("serve {name}") } else { name };
        let end_ts = s
            .end
            .map(|e| e.ts_ns)
            .or_else(|| last_ts.get(call_id).copied())
            .unwrap_or(begin.ts_ns)
            .max(begin.ts_ns);
        entries.push((
            begin.ts_ns,
            format!(
                r#"{{"name":"{name}","cat":"rpc","ph":"B","ts":{},"pid":{},"tid":{call_id},"args":{{"bytes":{}}}}}"#,
                us(begin.ts_ns),
                begin.node,
                begin.arg
            ),
        ));
        entries.push((
            end_ts,
            format!(
                r#"{{"name":"{name}","cat":"rpc","ph":"E","ts":{},"pid":{},"tid":{call_id}}}"#,
                us(end_ts),
                begin.node
            ),
        ));
    }

    for e in events {
        match e.phase {
            // Spans handled above; notes carried by the annotation table.
            Phase::CallBegin
            | Phase::CallEnd
            | Phase::ServerBegin
            | Phase::ServerEnd
            | Phase::Note => {}
            _ => {
                entries.push((
                    e.ts_ns,
                    format!(
                        r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{{"arg":{}}}}}"#,
                        e.phase.name(),
                        e.phase.category(),
                        us(e.ts_ns),
                        e.node,
                        e.call_id,
                        e.arg
                    ),
                ));
            }
        }
    }

    for (call_id, post) in &flow_post {
        let Some(delivery) = flow_delivery.get(call_id) else { continue };
        if delivery.node == post.node || delivery.ts_ns < post.ts_ns {
            continue;
        }
        entries.push((
            post.ts_ns,
            format!(
                r#"{{"name":"rpc","cat":"flow","ph":"s","id":{call_id},"ts":{},"pid":{},"tid":{call_id}}}"#,
                us(post.ts_ns),
                post.node
            ),
        ));
        entries.push((
            delivery.ts_ns,
            format!(
                r#"{{"name":"rpc","cat":"flow","ph":"f","bp":"e","id":{call_id},"ts":{},"pid":{},"tid":{call_id}}}"#,
                us(delivery.ts_ns),
                delivery.node
            ),
        ));
    }

    for (node, ts_ns, msg) in annotations {
        entries.push((
            *ts_ns,
            format!(
                r#"{{"name":"{}","cat":"note","ph":"i","s":"p","ts":{},"pid":{node},"tid":0}}"#,
                esc(msg),
                us(*ts_ns)
            ),
        ));
    }

    for c in counters {
        let mut args = String::new();
        for (i, (key, value)) in c.args.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(args, r#"{sep}"{key}":{value}"#);
        }
        entries.push((
            c.ts_ns,
            format!(
                r#"{{"name":"{}","cat":"metrics","ph":"C","ts":{},"pid":{},"args":{{{args}}}}}"#,
                esc(&c.name),
                us(c.ts_ns),
                c.pid
            ),
        ));
    }

    entries.sort_by_key(|(ts, _)| *ts);
    let mut out = String::with_capacity(entries.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, (_, json)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(json);
    }
    out.push_str("\n]}\n");
    out
}

#[derive(Default)]
struct SpanState {
    begin: Option<Event>,
    end: Option<Event>,
}

/// Nanoseconds → the format's microsecond `ts`, with sub-µs precision.
fn us(ts_ns: u64) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}.{:03}", ts_ns / 1000, ts_ns % 1000);
    s
}

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_meta(call_id: u64) -> CallMeta {
        CallMeta { call_id, protocol: "Eager-SendRecv", fn_scope: "Svc.get".into(), bytes: 64 }
    }

    fn ev(phase: Phase, node: u64, call_id: u64, arg: u64, ts_ns: u64) -> Event {
        Event { ts_ns, call_id, node, phase, arg }
    }

    /// One synthetic RPC: client node 1 posts, server node 2 receives.
    fn one_rpc() -> Vec<Event> {
        vec![
            ev(Phase::CallBegin, 1, 7, 64, 1_000),
            ev(Phase::WrPost, 1, 7, 1, 1_100),
            ev(Phase::Doorbell, 1, 7, 1, 1_150),
            ev(Phase::NicTx, 1, 7, 0, 1_400),
            ev(Phase::Wire, 1, 7, 64, 1_900),
            ev(Phase::Delivered, 2, 7, 64, 2_600),
            ev(Phase::Completion, 1, 7, 1, 3_200),
            ev(Phase::CallEnd, 1, 7, 1, 3_300),
        ]
    }

    #[test]
    fn spans_flows_and_tracks_are_emitted() {
        let json = build(
            &one_rpc(),
            &[(1, "client".into()), (2, "server".into())],
            &[call_meta(7)],
            &[],
            &[],
        );
        assert!(json.contains(r#""ph":"M""#), "process metadata present");
        assert!(json.contains(r#""name":"Svc.get [Eager-SendRecv]""#), "span named from meta");
        assert!(json.contains(r#""ph":"B""#) && json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"s""#), "flow start present");
        assert!(json.contains(r#""ph":"f""#), "flow finish present");
        assert!(json.contains(r#""pid":2"#), "server track used");
        for name in ["wr_post", "doorbell", "nic_tx", "wire", "delivered", "completion"] {
            assert!(json.contains(&format!(r#""name":"{name}""#)), "{name} instant present");
        }
    }

    #[test]
    fn lost_call_end_gets_synthetic_balanced_end() {
        let mut events = one_rpc();
        events.retain(|e| e.phase != Phase::CallEnd);
        let json = build(&events, &[], &[call_meta(7)], &[], &[]);
        let begins = json.matches(r#""ph":"B""#).count();
        let ends = json.matches(r#""ph":"E""#).count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1, "missing end must be synthesized");
    }

    #[test]
    fn flow_requires_remote_delivery() {
        // Delivery on the same node as the post (e.g. a loopback READ)
        // draws no arrow.
        let events = vec![ev(Phase::WrPost, 1, 7, 1, 1_000), ev(Phase::Delivered, 1, 7, 64, 2_000)];
        let json = build(&events, &[], &[], &[], &[]);
        assert!(!json.contains(r#""ph":"s""#));
        assert!(!json.contains(r#""ph":"f""#));
    }

    #[test]
    fn annotations_become_instant_events_with_escaping() {
        let json = build(&[], &[], &[], &[(3, 500, "setup \"failed\"\n".into())], &[]);
        assert!(json.contains(r#""name":"setup \"failed\"\n""#));
        assert!(json.contains(r#""pid":3"#));
    }

    #[test]
    fn counters_become_counter_events_on_their_process() {
        let counter = |ts_ns, delta| Counter {
            pid: 2,
            ts_ns,
            name: "calls_ok".into(),
            args: vec![("delta", delta), ("total", 10 + delta)],
        };
        let json =
            build(&[], &[(2, "server".into())], &[], &[], &[counter(2_000, 0), counter(1_000, 5)]);
        let first = json.find(r#""ts":1.000"#).expect("earlier sample present");
        let second = json.find(r#""ts":2.000"#).expect("later sample present");
        assert!(first < second, "samples sorted by time: {json}");
        assert!(json.contains(
            r#"{"name":"calls_ok","cat":"metrics","ph":"C","ts":1.000,"pid":2,"args":{"delta":5,"total":15}}"#
        ));
    }

    #[test]
    fn timestamps_render_as_fractional_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(2_600), "2.600");
        assert_eq!(us(1_000_007), "1000.007");
    }
}
