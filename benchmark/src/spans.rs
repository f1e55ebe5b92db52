//! Harness-side spans: recorded around the calls into each layer, kept in
//! memory, written out when the run ends. Nothing here touches the stack.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde_json::{Map, Value};

use crate::stats;

/// Every span the harness records. `BenchOp` is the root of one request
/// (or one `call_many` batch); the rest are its descendants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    BenchOp,
    CodecEncode,
    EngineCall,
    CodecDecode,
    ServerHandler,
    KvGet,
    KvPut,
    KvMultiGet,
    KvMultiPut,
}

impl SpanName {
    pub const ALL: [SpanName; 9] = [
        SpanName::BenchOp,
        SpanName::CodecEncode,
        SpanName::EngineCall,
        SpanName::CodecDecode,
        SpanName::ServerHandler,
        SpanName::KvGet,
        SpanName::KvPut,
        SpanName::KvMultiGet,
        SpanName::KvMultiPut,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::BenchOp => "bench.op",
            SpanName::CodecEncode => "codec.encode",
            SpanName::EngineCall => "engine.call",
            SpanName::CodecDecode => "codec.decode",
            SpanName::ServerHandler => "server.handler",
            SpanName::KvGet => "hatkv.get",
            SpanName::KvPut => "hatkv.put",
            SpanName::KvMultiGet => "hatkv.multiget",
            SpanName::KvMultiPut => "hatkv.multiput",
        }
    }

    /// The span that caused this one (`None` for the root).
    pub fn parent(self) -> Option<SpanName> {
        match self {
            SpanName::BenchOp => None,
            SpanName::ServerHandler => Some(SpanName::EngineCall),
            _ => Some(SpanName::BenchOp),
        }
    }
}

struct RawSpan {
    op: u64,
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Agg {
    count: u64,
    self_sum_ns: u64,
    self_ns: Vec<u32>,
}

/// Raw spans are kept for the first requests only (a 4 s window of
/// `rpc_small` is ~2 M spans); the self-time aggregates cover every span.
const RAW_SPAN_CAP: usize = 20_000;

/// The in-memory span store of one traced run. Off by default: `span`
/// is then a single branch.
pub struct Trace {
    pub on: bool,
    aggs: [Agg; SpanName::ALL.len()],
    raw: Vec<RawSpan>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { on: false, aggs: Default::default(), raw: Vec::new() }
    }

    /// Record one span of request `op`. `child_ns` is the part of the
    /// interval its child spans cover, so self time = duration − children.
    #[inline]
    pub fn span(&mut self, op: u64, name: SpanName, start_ns: u64, end_ns: u64, child_ns: u64) {
        if !self.on {
            return;
        }
        let self_ns = end_ns.saturating_sub(start_ns).saturating_sub(child_ns);
        let agg = &mut self.aggs[name as usize];
        agg.count += 1;
        agg.self_sum_ns += self_ns;
        agg.self_ns.push(self_ns.min(u64::from(u32::MAX)) as u32);
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(RawSpan { op, name, start_ns, end_ns });
        }
    }

    /// Total self time recorded under `name`.
    pub fn self_sum_ns(&self, name: SpanName) -> u64 {
        self.aggs[name as usize].self_sum_ns
    }

    /// Self time of every span name summed: what the traced windows'
    /// wall time should add up to.
    pub fn total_self_ns(&self) -> u64 {
        self.aggs.iter().map(|a| a.self_sum_ns).sum()
    }

    /// Per span name: count, mean and p50 self time, and self time per op.
    pub fn summary(&mut self, ops: u64) -> Value {
        let mut out = Map::new();
        for name in SpanName::ALL {
            let agg = &mut self.aggs[name as usize];
            if agg.count == 0 {
                continue;
            }
            let mut row = Map::new();
            row.insert("count".into(), Value::Number(agg.count.into()));
            row.insert(
                "self_mean_ns".into(),
                Value::Number((agg.self_sum_ns as f64 / agg.count as f64).into()),
            );
            row.insert(
                "self_p50_ns".into(),
                Value::Number(u64::from(stats::percentile(&mut agg.self_ns, 50.0)).into()),
            );
            row.insert(
                "self_ns_per_op".into(),
                Value::Number((agg.self_sum_ns as f64 / ops.max(1) as f64).into()),
            );
            out.insert(name.as_str().into(), Value::Object(row));
        }
        Value::Object(out)
    }

    /// The raw spans as JSON rows: request id, name, parent, start, end.
    pub fn raw_spans(&self) -> Value {
        Value::Array(
            self.raw
                .iter()
                .map(|s| {
                    let mut row = Map::new();
                    row.insert("op".into(), Value::Number(s.op.into()));
                    row.insert("name".into(), Value::String(s.name.as_str().into()));
                    let parent =
                        s.name.parent().map_or(Value::Null, |p| Value::String(p.as_str().into()));
                    row.insert("parent".into(), parent);
                    row.insert("start_ns".into(), Value::Number(s.start_ns.into()));
                    row.insert("end_ns".into(), Value::Number(s.end_ns.into()));
                    Value::Object(row)
                })
                .collect(),
        )
    }
}

/// Start/end of each echo handler invocation, pushed by the server thread
/// while a traced window runs and drained by the load thread after each
/// call. One connection serves requests in order, so the k-th handler span
/// belongs to the k-th request submitted.
#[derive(Default)]
pub struct HandlerLog {
    on: AtomicBool,
    spans: Mutex<Vec<(u64, u64)>>,
}

impl HandlerLog {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn push(&self, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("handler log poisoned").push((start_ns, end_ns));
    }

    /// Move everything logged so far into `out` (cleared first).
    pub fn drain_into(&self, out: &mut Vec<(u64, u64)>) {
        out.clear();
        std::mem::swap(&mut *self.spans.lock().expect("handler log poisoned"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        t.span(1, SpanName::BenchOp, 0, 100, 90);
        assert_eq!(t.total_self_ns(), 0, "off by default");
        t.on = true;
        t.span(1, SpanName::CodecEncode, 0, 10, 0);
        t.span(1, SpanName::ServerHandler, 30, 50, 0);
        t.span(1, SpanName::EngineCall, 10, 80, 20);
        t.span(1, SpanName::CodecDecode, 80, 90, 0);
        t.span(1, SpanName::BenchOp, 0, 100, 90);
        assert_eq!(t.self_sum_ns(SpanName::EngineCall), 50);
        assert_eq!(t.self_sum_ns(SpanName::BenchOp), 10);
        assert_eq!(t.total_self_ns(), 100, "self times partition the root span");
        let summary = t.summary(1);
        assert_eq!(summary["engine.call"]["self_p50_ns"].as_u64(), Some(50));
        assert_eq!(summary["server.handler"]["count"].as_u64(), Some(1));
        assert!(summary.get("hatkv.get").is_none());
        let raw = t.raw_spans();
        assert_eq!(raw.as_array().map(Vec::len), Some(5));
        assert_eq!(raw[1]["parent"].as_str(), Some("engine.call"));
        assert!(raw[4]["parent"].is_null());
    }

    #[test]
    fn handler_log_drains_in_order() {
        let log = HandlerLog::default();
        assert!(!log.is_on());
        log.push(1, 2);
        log.push(3, 4);
        let mut out = vec![(9, 9)];
        log.drain_into(&mut out);
        assert_eq!(out, vec![(1, 2), (3, 4)]);
        log.drain_into(&mut out);
        assert!(out.is_empty());
    }
}
