//! # hat-metrics — live time-series telemetry for HatRPC
//!
//! Post-mortem observability (`repro stats`, the Perfetto export) shows
//! *what* a run did; this crate shows *when*. A [`Sampler`] thread
//! captures, on a configurable virtual-time interval, every node's
//! [`NodeStats`](hat_rdma_sim::NodeStats) snapshot and every hat-trace
//! latency histogram's cumulative state into fixed-size overwrite-oldest
//! [`ring::TsRing`]s — lock-free publish, zero allocation on the sample
//! path in the steady state.
//!
//! A sampler is attached by whoever reads it: [`Sampler::attach`] on the
//! fabric to watch, [`Sampler::stop`] once the run's serving threads have
//! stopped, so the final tail tick sees every counter. Nothing else in the
//! stack starts one or checks for one, so a run nobody samples pays
//! nothing for this crate.
//!
//! Rings store **cumulative** values, not deltas: any two retained
//! samples difference into the activity between them, a wrap only loses
//! the oldest history, and a reader can never double-count. On top of
//! the rings sit the Prometheus text exporter and timeline-JSON writer
//! ([`export`]), the terminal dashboard ([`top`]), and the SLO engine
//! (below): per-fn_scope p99 objectives with rolling error-budget burn
//! rate, surfaced as gauges plus edge-triggered hat-trace
//! [`SloBreach`](hat_trace::Phase::SloBreach) events.

pub mod export;
pub mod ring;
pub mod top;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hat_rdma_sim::stats::FIELD_COUNT;
use hat_rdma_sim::{now_ns, Fabric, Node};
use hat_trace::hist::{percentile_of, CumulativeSnapshot, NUM_BUCKETS};
use parking_lot::RwLock;
use ring::{TsRing, TsSample};

/// Hist-series slot layout: `[count, sum, bucket 0 .. bucket 64]`.
const HIST_WIDTH: usize = 2 + NUM_BUCKETS;

/// Reserved trace track the SLO engine emits breach events on (fabric
/// node ids start at 1, so 0 never collides with a real node).
const SLO_TRACK: u64 = 0;

/// Index of a per-node counter in timeline `values` arrays, by its
/// `NodeStats` field name (e.g. `"calls_ok"`). Benches use this to
/// reconcile sampled series against their own measured totals.
pub fn field_index(name: &str) -> Option<usize> {
    hat_rdma_sim::FIELD_KINDS.iter().position(|(n, _)| *n == name)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// A per-fn_scope latency objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The `Service.function` scope the objective covers (aggregated
    /// across protocols and payload-size classes).
    pub fn_scope: String,
    /// The p99 target: the window p99 must stay at or below this.
    pub p99_target_ns: u64,
    /// Rolling window length, in sampler ticks.
    pub window_samples: usize,
    /// Fraction of requests the objective tolerates above target (0.01
    /// for a p99 objective). Burn rate = bad_fraction / this budget, so
    /// burn 1.0 means exactly exhausting the budget.
    pub bad_fraction_budget: f64,
}

impl SloSpec {
    /// A p99 objective with a 32-tick window and the matching 1% budget.
    pub fn p99(fn_scope: &str, target_ns: u64) -> SloSpec {
        SloSpec {
            fn_scope: fn_scope.to_string(),
            p99_target_ns: target_ns,
            window_samples: 32,
            bad_fraction_budget: 0.01,
        }
    }
}

/// Sampler tuning.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Virtual-time (== wall-clock in this simulator) sampling interval.
    pub interval_ns: u64,
    /// Samples retained per series before overwrite-oldest.
    pub ring_capacity: usize,
    /// Latency objectives to evaluate every tick.
    pub slos: Vec<SloSpec>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { interval_ns: 2_000_000, ring_capacity: 256, slos: Vec::new() }
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

    fn push(&self, ts_ns: u64, c: &CumulativeSnapshot) {
        let mut buf = [0u64; HIST_WIDTH];
        buf[0] = c.count;
        buf[1] = c.sum;
        buf[2..].copy_from_slice(&c.buckets);
        self.ring.push(ts_ns, &buf);
    }
}

struct SloState {
    spec: SloSpec,
    breached: AtomicBool,
    breach_events: AtomicU64,
    window_p99_ns: AtomicU64,
    window_total: AtomicU64,
    window_bad: AtomicU64,
    /// Burn rate × 1000 (stored integer so readers stay atomic).
    burn_milli: AtomicU64,
}

/// Read-out of one SLO's current state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub fn_scope: String,
    pub p99_target_ns: u64,
    pub window_p99_ns: u64,
    pub window_total: u64,
    pub window_bad: u64,
    /// Error-budget burn rate × 1000 (1000 == consuming the budget
    /// exactly as fast as it accrues).
    pub burn_rate_milli: u64,
    pub breached: bool,
    /// Rising edges seen so far (each also emitted as a hat-trace
    /// `SloBreach` event when tracing is on).
    pub breach_events: u64,
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
    /// Cached [`Fabric::node_generation`]; re-enumerate only on change.
    node_gen: AtomicU64,
    nodes: RwLock<Vec<NodeSeries>>,
    hists: RwLock<Vec<HistSeries>>,
    slos: Vec<SloState>,
}

impl Shared {
    /// One sampling tick: capture every node and histogram series, then
    /// evaluate SLOs. Allocation-free once the node set and histogram
    /// key set are stable.
    fn tick(&self) {
        let ts = now_ns();
        let gen = self.fabric.node_generation();
        if gen != self.node_gen.load(Ordering::Relaxed) {
            self.discover_nodes();
            self.node_gen.store(gen, Ordering::Relaxed);
        }
        {
            let nodes = self.nodes.read();
            for series in nodes.iter() {
                let values = series.node.stats_snapshot().values();
                series.ring.push(ts, &values);
            }
        }
        self.sample_hists(ts);
        self.eval_slos(ts);
        self.ticks.fetch_add(1, Ordering::Release);
    }

    /// Node set changed (rare): rebuild the series list, keeping
    /// existing rings so history survives discovery.
    fn discover_nodes(&self) {
        let current = self.fabric.nodes();
        let mut series = self.nodes.write();
        for node in current {
            if !series.iter().any(|s| s.name == node.name()) {
                series.push(NodeSeries {
                    name: node.name().to_string(),
                    ring: TsRing::new(self.cfg.ring_capacity, FIELD_COUNT),
                    node,
                });
            }
        }
    }

    fn sample_hists(&self, ts: u64) {
        // Fast path under the read lock: every registry key already has
        // a series. The registry is append-only between resets, so the
        // running index almost always hits directly.
        let mut missing = false;
        {
            let series = self.hists.read();
            let mut idx = 0usize;
            hat_trace::hist::for_each_cumulative(|protocol, fn_scope, size_class, cumulative| {
                let direct = series.get(idx).filter(|s| s.matches(protocol, fn_scope, size_class));
                let found = direct
                    .or_else(|| series.iter().find(|s| s.matches(protocol, fn_scope, size_class)));
                match found {
                    Some(s) => s.push(ts, cumulative),
                    None => missing = true,
                }
                idx += 1;
            });
        }
        if missing {
            // Rare: a key recorded its first latency since last tick.
            let mut series = self.hists.write();
            let cap = self.cfg.ring_capacity;
            hat_trace::hist::for_each_cumulative(|protocol, fn_scope, size_class, cumulative| {
                if !series.iter().any(|s| s.matches(protocol, fn_scope, size_class)) {
                    let s = HistSeries {
                        protocol,
                        fn_scope: fn_scope.to_string(),
                        size_class,
                        ring: TsRing::new(cap, HIST_WIDTH),
                    };
                    s.push(ts, cumulative);
                    series.push(s);
                }
            });
        }
    }

    fn eval_slos(&self, ts: u64) {
        if self.slos.is_empty() {
            return;
        }
        let series = self.hists.read();
        let mut newest = [0u64; HIST_WIDTH];
        let mut scratch = [0u64; HIST_WIDTH];
        for state in &self.slos {
            let mut buckets = [0u64; NUM_BUCKETS];
            let mut total = 0u64;
            for s in series.iter().filter(|s| s.fn_scope == state.spec.fn_scope) {
                if s.ring
                    .delta_window(state.spec.window_samples, &mut newest, &mut scratch)
                    .is_none()
                {
                    continue;
                }
                total += newest[0];
                for (agg, d) in buckets.iter_mut().zip(&newest[2..]) {
                    *agg += *d;
                }
            }
            let p99 = percentile_of(&buckets, 0.99);
            // "Bad" = requests whose whole bucket sits above target: a
            // bucket counts once its upper bound exceeds the target, so
            // the straddling bucket is counted conservatively bad.
            let bad: u64 = buckets
                .iter()
                .enumerate()
                .filter(|(i, _)| hat_trace::hist::bucket_upper_bound(*i) > state.spec.p99_target_ns)
                .map(|(_, c)| *c)
                .sum();
            let burn_milli = if total == 0 {
                0
            } else {
                let bad_fraction = bad as f64 / total as f64;
                (bad_fraction / state.spec.bad_fraction_budget * 1000.0) as u64
            };
            state.window_p99_ns.store(p99, Ordering::Relaxed);
            state.window_total.store(total, Ordering::Relaxed);
            state.window_bad.store(bad, Ordering::Relaxed);
            state.burn_milli.store(burn_milli, Ordering::Relaxed);

            let breached = total > 0 && p99 > state.spec.p99_target_ns;
            let was = state.breached.swap(breached, Ordering::Relaxed);
            if breached && !was {
                // Rising edge: annotate the trace (no-ops when tracing
                // is off; `event`'s arg carries the offending p99).
                state.breach_events.fetch_add(1, Ordering::Relaxed);
                let call_id = hat_trace::next_call_id();
                hat_trace::event(hat_trace::Phase::SloBreach, SLO_TRACK, call_id, p99, ts);
                hat_trace::register_call(call_id, "slo", &state.spec.fn_scope, 0);
            }
        }
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
        hat_trace::register_track(SLO_TRACK, "slo");
        let slos = cfg
            .slos
            .iter()
            .map(|spec| SloState {
                spec: spec.clone(),
                breached: AtomicBool::new(false),
                breach_events: AtomicU64::new(0),
                window_p99_ns: AtomicU64::new(0),
                window_total: AtomicU64::new(0),
                window_bad: AtomicU64::new(0),
                burn_milli: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            fabric: fabric.clone(),
            cfg,
            stop: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            started_ns: now_ns(),
            node_gen: AtomicU64::new(u64::MAX),
            nodes: RwLock::new(Vec::new()),
            hists: RwLock::new(Vec::new()),
            slos,
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
        let nodes = self.shared.nodes.read();
        let mut out: Vec<NodeTimeline> = nodes
            .iter()
            .map(|s| NodeTimeline { node: s.name.clone(), samples: s.ring.snapshot() })
            .collect();
        out.sort_by(|a, b| a.node.cmp(&b.node));
        out
    }

    /// Every histogram series' readable history, oldest sample first.
    pub fn hist_timelines(&self) -> Vec<HistTimeline> {
        let hists = self.shared.hists.read();
        let mut out: Vec<HistTimeline> = hists
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

    /// Current state of every configured SLO.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.shared
            .slos
            .iter()
            .map(|s| SloStatus {
                fn_scope: s.spec.fn_scope.clone(),
                p99_target_ns: s.spec.p99_target_ns,
                window_p99_ns: s.window_p99_ns.load(Ordering::Relaxed),
                window_total: s.window_total.load(Ordering::Relaxed),
                window_bad: s.window_bad.load(Ordering::Relaxed),
                burn_rate_milli: s.burn_milli.load(Ordering::Relaxed),
                breached: s.breached.load(Ordering::Relaxed),
                breach_events: s.breach_events.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Prometheus text exposition of the latest sample of every series.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(self)
    }

    /// Timeline JSON (the `METRICS_*.json` artifact format).
    pub fn timeline_json(&self) -> String {
        export::timeline_json(self)
    }

    /// One rendered `repro top` frame.
    pub fn render_top(&self) -> String {
        top::render_frame(self)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
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
    fn slo_breach_is_edge_triggered_with_burn_rate() {
        let _g = HIST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        hat_trace::hist::reset();
        let f = fabric();
        let cfg =
            SamplerConfig { slos: vec![SloSpec::p99("Svc.get", 10_000)], ..Default::default() };
        let s = Sampler::attach_paused(&f, cfg);
        // 100 fast requests: p99 well under target.
        for _ in 0..100 {
            hat_trace::hist::record_latency("Eager-SendRecv", "Svc.get", 64, 1_000);
        }
        s.tick();
        let st = &s.slo_statuses()[0];
        assert!(!st.breached, "fast traffic stays inside the objective: {st:?}");
        assert_eq!(st.breach_events, 0);
        // A slow burst: p99 shoots past target.
        for _ in 0..50 {
            hat_trace::hist::record_latency("Eager-SendRecv", "Svc.get", 64, 1_000_000);
        }
        s.tick();
        let st = &s.slo_statuses()[0];
        assert!(st.breached, "the burst breaches: {st:?}");
        assert_eq!(st.breach_events, 1);
        assert!(st.window_p99_ns > 10_000);
        assert!(st.window_bad >= 50);
        assert!(st.burn_rate_milli > 1000, "burning faster than budget: {st:?}");
        // Still breached next tick: no second edge.
        s.tick();
        assert_eq!(s.slo_statuses()[0].breach_events, 1, "edge-triggered, not level");
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
