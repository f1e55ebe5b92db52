//! # hat-metrics — sampled time series for HatRPC
//!
//! Post-mortem observability (the Perfetto export) shows
//! *what* a run did; this crate shows *when*. A [`Sampler`] thread
//! captures, on a configurable virtual-time interval, every node's
//! [`NodeStats`](hat_rdma_sim::NodeStats) snapshot and every hat-trace
//! latency histogram's cumulative state into one fixed-size
//! overwrite-oldest [`ring::TsRing`] per series, all under one lock;
//! the sample path allocates nothing in the steady state.
//!
//! A sampler is attached by whoever reads it: [`Sampler::attach`] on the
//! fabric to watch, [`Sampler::stop`] once the run's serving threads have
//! stopped, so the final tail tick sees every counter. Nothing else in the
//! stack starts one or checks for one, so a run nobody samples pays
//! nothing for this crate.
//!
//! Rings store **cumulative** values, not deltas: any two retained
//! samples difference into the activity between them, a wrap only loses
//! the oldest history, and a reader can never double-count. The rings
//! leave the process through [`MetricsDoc`]: every series as a counter
//! track of a Perfetto trace-event document, written by hat-trace's one
//! writer.

pub mod ring;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_rdma_sim::stats::{MetricKind, FIELD_COUNT, FIELD_KINDS};
use hat_rdma_sim::{now_ns, Fabric, Node};
use hat_trace::export::Counter;
use hat_trace::hist::{percentile_of, size_class_label, CumulativeSnapshot, NUM_BUCKETS};
use parking_lot::Mutex;
use ring::{TsRing, TsSample};

/// Hist-series slot layout: `[count, sum, bucket 0 .. bucket 64]`.
const HIST_WIDTH: usize = 2 + NUM_BUCKETS;

/// A run's process, within a [`MetricsDoc`], holding its latency
/// histograms' counter tracks (fabric node ids start at 1, so 0 never
/// collides with a real node).
const LATENCY_TRACK: u64 = 0;

/// Index of a per-node counter in timeline `values` arrays, by its
/// `NodeStats` field name (e.g. `"calls_ok"`). Benches use this to
/// reconcile sampled series against their own measured totals.
pub fn field_index(name: &str) -> Option<usize> {
    hat_rdma_sim::FIELD_KINDS.iter().position(|(n, _)| *n == name)
}

/// Sampler tuning.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Virtual-time (== wall-clock in this simulator) sampling interval.
    pub interval_ns: u64,
    /// Samples retained per series before overwrite-oldest.
    pub ring_capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { interval_ns: 2_000_000, ring_capacity: 256 }
    }
}

// ---------------------------------------------------------------------------
// Series storage
// ---------------------------------------------------------------------------

struct NodeSeries {
    name: String,
    node: Arc<Node>,
    ring: TsRing,
}

struct HistSeries {
    protocol: &'static str,
    fn_scope: String,
    size_class: u8,
    ring: TsRing,
}

impl HistSeries {
    fn matches(&self, protocol: &str, fn_scope: &str, size_class: u8) -> bool {
        self.size_class == size_class && self.protocol == protocol && self.fn_scope == fn_scope
    }

    fn push(&mut self, ts_ns: u64, c: &CumulativeSnapshot) {
        let mut buf = [0u64; HIST_WIDTH];
        buf[0] = c.count;
        buf[1] = c.sum;
        buf[2..].copy_from_slice(&c.buckets);
        self.ring.push(ts_ns, &buf);
    }
}

/// Every series the sampler keeps, behind [`Shared::series`].
struct Series {
    /// Cached [`Fabric::node_generation`]; re-enumerate only on change.
    node_gen: u64,
    nodes: Vec<NodeSeries>,
    hists: Vec<HistSeries>,
}

impl Series {
    /// Capture every node and histogram series at `ts`. Allocation-free
    /// once the node set and histogram key set are stable.
    fn sample(&mut self, fabric: &Fabric, cap: usize, ts: u64) {
        let gen = fabric.node_generation();
        if gen != self.node_gen {
            // Node set changed (rare): add series for the new nodes,
            // keeping existing rings so history survives discovery.
            for node in fabric.nodes() {
                if !self.nodes.iter().any(|s| s.name == node.name()) {
                    self.nodes.push(NodeSeries {
                        name: node.name().to_string(),
                        ring: TsRing::new(cap, FIELD_COUNT),
                        node,
                    });
                }
            }
            self.node_gen = gen;
        }
        for series in &mut self.nodes {
            series.ring.push(ts, &series.node.stats_snapshot().values());
        }
        // The registry is append-only between resets, so the running
        // index almost always hits directly; a key recording its first
        // latency since the last tick gets its series here.
        let hists = &mut self.hists;
        let mut idx = 0usize;
        hat_trace::hist::for_each_cumulative(|protocol, fn_scope, size_class, cumulative| {
            let pos = match hists.get(idx) {
                Some(s) if s.matches(protocol, fn_scope, size_class) => Some(idx),
                _ => hists.iter().position(|s| s.matches(protocol, fn_scope, size_class)),
            };
            let series = match pos {
                Some(i) => &mut hists[i],
                None => {
                    hists.push(HistSeries {
                        protocol,
                        fn_scope: fn_scope.to_string(),
                        size_class,
                        ring: TsRing::new(cap, HIST_WIDTH),
                    });
                    hists.last_mut().expect("just pushed")
                }
            };
            series.push(ts, cumulative);
            idx += 1;
        });
    }
}

/// One series' readable history.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTimeline {
    pub node: String,
    /// Cumulative samples, oldest first (see
    /// [`FIELD_KINDS`](hat_rdma_sim::FIELD_KINDS) for value layout).
    pub samples: Vec<TsSample>,
}

/// One histogram key's readable history (`[count, sum, buckets...]`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistTimeline {
    pub protocol: String,
    pub fn_scope: String,
    pub size_class: u8,
    pub samples: Vec<TsSample>,
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

struct Shared {
    fabric: Fabric,
    cfg: SamplerConfig,
    stop: AtomicBool,
    ticks: AtomicU64,
    started_ns: u64,
    /// The rings: the sampler pushes and readers snapshot under this lock.
    series: Mutex<Series>,
}

impl Shared {
    /// One sampling tick: capture every node and histogram series.
    fn tick(&self) {
        let ts = now_ns();
        self.series.lock().sample(&self.fabric, self.cfg.ring_capacity, ts);
        self.ticks.fetch_add(1, Ordering::Release);
    }
}

fn sampler_loop(shared: Arc<Shared>) {
    let interval = Duration::from_nanos(shared.cfg.interval_ns.max(1));
    loop {
        // Chunked sleep so stop() never waits longer than ~1ms past the
        // current interval; the post-stop tick captures the tail.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.stop.load(Ordering::Acquire) {
            let chunk = (interval - slept).min(Duration::from_millis(1));
            std::thread::sleep(chunk);
            slept += chunk;
        }
        shared.tick();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// A live sampler attached to one fabric. Dropping (or [`Sampler::stop`])
/// takes a final tail tick and joins the thread; the captured rings stay
/// readable afterwards.
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Keeps hat-trace latency histograms recording while we sample,
    /// independent of whether event tracing is on.
    _hist: hat_trace::HistHandle,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("ticks", &self.ticks())
            .field("interval_ns", &self.shared.cfg.interval_ns)
            .finish()
    }
}

impl Sampler {
    fn new_shared(fabric: &Fabric, cfg: SamplerConfig) -> Arc<Shared> {
        let shared = Arc::new(Shared {
            fabric: fabric.clone(),
            cfg,
            stop: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            started_ns: now_ns(),
            series: Mutex::new(Series { node_gen: u64::MAX, nodes: Vec::new(), hists: Vec::new() }),
        });
        // Baseline tick: every later delta is relative to attach time.
        shared.tick();
        shared
    }

    /// Attach to `fabric` and start the sampling thread.
    pub fn attach(fabric: &Fabric, cfg: SamplerConfig) -> Sampler {
        let shared = Self::new_shared(fabric, cfg);
        let thread = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("hat-metrics".into())
                .spawn(move || sampler_loop(shared))
                .expect("spawn sampler thread")
        };
        Sampler { shared, thread: Some(thread), _hist: hat_trace::hist_handle() }
    }

    /// Attach without a thread: ticks happen only via [`Sampler::tick`].
    /// For tests and single-shot captures that want deterministic
    /// sampling points.
    pub fn attach_paused(fabric: &Fabric, cfg: SamplerConfig) -> Sampler {
        Sampler {
            shared: Self::new_shared(fabric, cfg),
            thread: None,
            _hist: hat_trace::hist_handle(),
        }
    }

    /// Take one sample now (in addition to whatever the thread does).
    pub fn tick(&self) {
        self.shared.tick();
    }

    /// Stop the sampling thread, taking one final tail tick. Idempotent;
    /// rings stay readable.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            t.join().expect("sampler thread panicked");
        }
    }

    /// Ticks taken so far (including the attach baseline).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Acquire)
    }

    /// The configured sampling interval.
    pub fn interval_ns(&self) -> u64 {
        self.shared.cfg.interval_ns
    }

    /// Timestamp of attach (ns since the simulation epoch).
    pub fn started_ns(&self) -> u64 {
        self.shared.started_ns
    }

    /// Every node series' readable history, oldest sample first.
    pub fn node_timelines(&self) -> Vec<NodeTimeline> {
        let mut out: Vec<NodeTimeline> = self
            .shared
            .series
            .lock()
            .nodes
            .iter()
            .map(|s| NodeTimeline { node: s.name.clone(), samples: s.ring.snapshot() })
            .collect();
        out.sort_by(|a, b| a.node.cmp(&b.node));
        out
    }

    /// Every histogram series' readable history, oldest sample first.
    pub fn hist_timelines(&self) -> Vec<HistTimeline> {
        let mut out: Vec<HistTimeline> = self
            .shared
            .series
            .lock()
            .hists
            .iter()
            .map(|s| HistTimeline {
                protocol: s.protocol.to_string(),
                fn_scope: s.fn_scope.clone(),
                size_class: s.size_class,
                samples: s.ring.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.protocol, &a.fn_scope, a.size_class).cmp(&(&b.protocol, &b.fn_scope, b.size_class))
        });
        out
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Export: counter tracks of a trace-event document
// ---------------------------------------------------------------------------

/// Sampled runs as one trace-event document, the `METRICS_*.json`
/// artifact that ui.perfetto.dev opens. Each run added gets processes of
/// its own, named `"{label} {node}"`, plus `"{label} latency"` for its
/// histograms; every retained series is a counter track there,
/// on the clock the run's spans use. A sample is drawn at its tick, and
/// a per-interval value at the tick that opens the interval, so Perfetto
/// holds it over exactly the interval it measures:
///
/// * a `NodeStats` counter: `delta` (activity until the next tick) and
///   `total` (the cumulative value, so the newest sample's is exact even
///   when the ring wrapped); a gauge: `value`;
/// * a histogram (`"{fn_scope} [{protocol} {size}]"`): `count`, `sum_ns`
///   and `p99_ns` of the interval, and `count_total`.
///
/// A sample repeating its series' previous one is left out, except the
/// newest, which closes the track: with a cumulative total among its
/// args, a repeat means nothing happened, and Perfetto holds the value
/// until the next sample anyway.
#[derive(Debug, Default)]
pub struct MetricsDoc {
    tracks: Vec<(u64, String)>,
    counters: Vec<Counter>,
}

impl MetricsDoc {
    /// Add `sampler`'s retained history under `label` (a sweep point).
    pub fn add(&mut self, label: &str, sampler: &Sampler) {
        let base = self.tracks.iter().map(|(pid, _)| pid + 1).max().unwrap_or(0);
        let latency = base + LATENCY_TRACK;
        self.tracks.push((latency, format!("{label} latency")));
        for s in sampler.shared.series.lock().nodes.iter() {
            let pid = base + s.node.id();
            self.tracks.push((pid, format!("{label} {}", s.name)));
            let samples = s.ring.snapshot();
            for (fi, (field, kind)) in FIELD_KINDS.iter().enumerate() {
                push_series(&mut self.counters, pid, field, &samples, |now, next| match kind {
                    MetricKind::Counter => vec![
                        ("delta", next.values[fi].saturating_sub(now.values[fi])),
                        ("total", now.values[fi]),
                    ],
                    MetricKind::Gauge => vec![("value", now.values[fi])],
                });
            }
        }
        for h in sampler.hist_timelines() {
            let name =
                format!("{} [{} {}]", h.fn_scope, h.protocol, size_class_label(h.size_class));
            push_series(&mut self.counters, latency, &name, &h.samples, |now, next| {
                let delta = |k: usize| next.values[k].saturating_sub(now.values[k]);
                let mut buckets = [0u64; NUM_BUCKETS];
                for (i, b) in buckets.iter_mut().enumerate() {
                    *b = delta(2 + i);
                }
                vec![
                    ("count", delta(0)),
                    ("sum_ns", delta(1)),
                    ("p99_ns", percentile_of(&buckets, 0.99)),
                    ("count_total", now.values[0]),
                ]
            });
        }
    }

    /// The document, written by hat-trace's trace-event writer.
    pub fn to_json(&self) -> String {
        hat_trace::export::build(&[], &self.tracks, &[], &[], &self.counters)
    }
}

/// Append one series to `out`: per sample, `args(sample, next sample)`,
/// the newest sample paired with itself (an empty interval). A sample
/// whose args repeat the previously written one's is skipped, except the
/// newest.
fn push_series(
    out: &mut Vec<Counter>,
    pid: u64,
    name: &str,
    samples: &[TsSample],
    args: impl Fn(&TsSample, &TsSample) -> Vec<(&'static str, u64)>,
) {
    let start = out.len();
    for (i, now) in samples.iter().enumerate() {
        let newest = i + 1 == samples.len();
        let args = args(now, samples.get(i + 1).unwrap_or(now));
        if !newest && out[start..].last().is_some_and(|c| c.args == args) {
            continue;
        }
        out.push(Counter { pid, ts_ns: now.ts_ns, name: name.to_string(), args });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global histogram registry.
    static HIST_GATE: Mutex<()> = Mutex::new(());

    fn fabric() -> Fabric {
        Fabric::new(SimConfig::fast_test())
    }

    #[test]
    fn sampler_captures_node_counters_per_tick() {
        let f = fabric();
        let a = f.add_node("a");
        let mut s = Sampler::attach_paused(&f, SamplerConfig::default());
        hat_rdma_sim::NodeStats::add(&a.stats().calls_ok, 5);
        s.tick();
        hat_rdma_sim::NodeStats::add(&a.stats().calls_ok, 7);
        s.tick();
        s.stop();
        let tl = s.node_timelines();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].node, "a");
        let idx = hat_rdma_sim::FIELD_KINDS.iter().position(|(n, _)| *n == "calls_ok").unwrap();
        let series: Vec<u64> = tl[0].samples.iter().map(|s| s.values[idx]).collect();
        assert_eq!(series, vec![0, 5, 12], "cumulative values per tick");
    }

    /// Every `NodeStats` field becomes a counter track on its node's
    /// process; a counter's interval delta sits at the tick opening the
    /// interval, an idle stretch is left out, and the newest tick closes
    /// each track with the exact total.
    #[test]
    fn metrics_doc_draws_every_field_as_a_counter_track() {
        let f = fabric();
        let a = f.add_node("a");
        let mut s = Sampler::attach_paused(&f, SamplerConfig::default());
        hat_rdma_sim::NodeStats::add(&a.stats().calls_ok, 5);
        s.tick();
        s.tick();
        hat_rdma_sim::NodeStats::add(&a.stats().calls_ok, 7);
        s.tick();
        s.stop();
        let mut doc = MetricsDoc::default();
        doc.add("run", &s);
        let pid = a.id();
        assert!(doc.tracks.contains(&(pid, "run a".to_string())), "{:?}", doc.tracks);
        for (field, kind) in FIELD_KINDS.iter() {
            let keys: Vec<&str> = match kind {
                MetricKind::Counter => vec!["delta", "total"],
                MetricKind::Gauge => vec!["value"],
            };
            let series: Vec<&Counter> =
                doc.counters.iter().filter(|c| c.pid == pid && c.name == *field).collect();
            assert!(!series.is_empty(), "no counter track for {field}");
            for c in series {
                assert_eq!(c.args.iter().map(|(k, _)| *k).collect::<Vec<_>>(), keys, "{field}");
            }
        }
        let samples = s.node_timelines().remove(0).samples;
        let calls: Vec<(u64, Vec<(&str, u64)>)> = doc
            .counters
            .iter()
            .filter(|c| c.pid == pid && c.name == "calls_ok")
            .map(|c| (c.ts_ns, c.args.clone()))
            .collect();
        assert_eq!(
            calls,
            vec![
                (samples[0].ts_ns, vec![("delta", 5), ("total", 0)]),
                (samples[1].ts_ns, vec![("delta", 0), ("total", 5)]),
                (samples[2].ts_ns, vec![("delta", 7), ("total", 5)]),
                (samples[3].ts_ns, vec![("delta", 0), ("total", 12)]),
            ],
            "every tick with activity, the newest closing the track"
        );
        let idle: Vec<u64> = doc
            .counters
            .iter()
            .filter(|c| c.pid == pid && c.name == "calls_failed")
            .map(|c| c.ts_ns)
            .collect();
        assert_eq!(idle, vec![samples[0].ts_ns, samples[3].ts_ns], "an idle counter: two samples");
    }

    /// A second run's processes are numbered past the first's and named
    /// with its label.
    #[test]
    fn metrics_doc_keeps_runs_apart() {
        let mut doc = MetricsDoc::default();
        for label in ["p1", "p2"] {
            let f = fabric();
            f.add_node("n");
            let s = Sampler::attach_paused(&f, SamplerConfig::default());
            doc.add(label, &s);
        }
        assert_eq!(
            doc.tracks,
            vec![
                (0, "p1 latency".to_string()),
                (1, "p1 n".to_string()),
                (2, "p2 latency".to_string()),
                (3, "p2 n".to_string()),
            ]
        );
        assert!(doc.counters.iter().any(|c| c.pid == 3 && c.name == "calls_ok"));
    }

    #[test]
    fn late_nodes_are_discovered_on_generation_change() {
        let f = fabric();
        f.add_node("early");
        let s = Sampler::attach_paused(&f, SamplerConfig::default());
        assert_eq!(s.node_timelines().len(), 1);
        f.add_node("late");
        s.tick();
        let names: Vec<String> = s.node_timelines().into_iter().map(|t| t.node).collect();
        assert_eq!(names, vec!["early", "late"]);
    }

    #[test]
    fn hist_series_appear_and_accumulate() {
        let _g = HIST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        hat_trace::hist::reset();
        let f = fabric();
        let s = Sampler::attach_paused(&f, SamplerConfig::default());
        // The paused sampler's HistHandle keeps recording on even though
        // event tracing is off.
        hat_trace::hist::record_latency("Eager-SendRecv", "Svc.get", 64, 1_000);
        hat_trace::hist::record_latency("Eager-SendRecv", "Svc.get", 64, 2_000);
        s.tick();
        hat_trace::hist::record_latency("Eager-SendRecv", "Svc.get", 64, 4_000);
        s.tick();
        let tl = s.hist_timelines();
        assert_eq!(tl.len(), 1);
        let counts: Vec<u64> = tl[0].samples.iter().map(|x| x.values[0]).collect();
        assert_eq!(counts, vec![2, 3], "cumulative count per tick");
        hat_trace::hist::reset();
    }

    #[test]
    fn threaded_sampler_ticks_and_stops() {
        let f = fabric();
        f.add_node("n");
        let mut s =
            Sampler::attach(&f, SamplerConfig { interval_ns: 500_000, ..Default::default() });
        std::thread::sleep(Duration::from_millis(20));
        s.stop();
        let after = s.ticks();
        assert!(after >= 3, "thread sampled while running: {after}");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(s.ticks(), after, "no ticks after stop");
    }
}
