//! Window control and the two kinds of run: the untraced run that yields
//! the end-to-end metrics, and the traced run that yields the layer metrics.
//!
//! Window control uses the host clock (`Instant`); latencies and rates are
//! read on the simulator clock `hatrpc::rdma::now_ns()`. Today these are the
//! same clock. When virtual time lands, latency and throughput become
//! modelled time without renaming, while `cpu_us_per_op` stays host cost.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hatrpc::metrics::{Sampler, SamplerConfig};
use hatrpc::rdma::{hat_trace, now_ns, NodeStatsSnapshot};

use crate::alloc;
use crate::probes;
use crate::spans::{SpanName, Trace};
use crate::spec::Better;
use crate::stats::{median, percentile};
use crate::workloads::{Class, Drive, Stack, Step, Workload};

/// Every timed window is this long. Short and many: this shared box slows
/// down for seconds at a time, and picking among many windows steps over
/// such phases where one long window would average them in.
pub const WINDOW: Duration = Duration::from_secs(1);
/// Warm-up before the first timed window, on the deployment then measured.
const WARMUP: Duration = WINDOW;
/// `setup_s` is the median of repeated deployments: at least this many,
/// more while the time budget lasts.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Process CPU time (utime + stime) in clock ticks, from `/proc/self/stat`.
/// Linux reports these in units of 1/100 s on every mainstream target.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, i.e. the 12th and 13th after the name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    tick() + tick()
}
const TICK_US: f64 = 10_000.0;

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples (ns) of one window, per op class. Allocated once with
/// room for any window and reused, so sample storage never grows mid-run
/// and `peak_rss_mb` does not depend on where a doubling happened to fall.
pub struct Samples {
    by_class: [Vec<u32>; Class::COUNT],
    all: Vec<u32>,
}

const SAMPLE_CAPACITY: usize = 1 << 19;

impl Samples {
    pub fn new() -> Samples {
        Samples {
            by_class: std::array::from_fn(|_| Vec::with_capacity(SAMPLE_CAPACITY)),
            all: Vec::with_capacity(SAMPLE_CAPACITY),
        }
    }

    fn clear(&mut self) {
        self.by_class.iter_mut().for_each(Vec::clear);
        self.all.clear();
    }

    pub fn count(&self, class: Class) -> u64 {
        self.by_class[class as usize].len() as u64
    }

    /// Percentile over the ops of every class, in µs.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        f64::from(percentile(&mut self.all, p)) / 1e3
    }

    /// p50 of one class in µs, or `None` if the window saw no op of it.
    pub fn class_p50_us(&mut self, class: Class) -> Option<f64> {
        let samples = &mut self.by_class[class as usize];
        (!samples.is_empty()).then(|| f64::from(percentile(samples, 50.0)) / 1e3)
    }

    pub fn max_us(&self) -> f64 {
        f64::from(self.all.iter().copied().max().unwrap_or(0)) / 1e3
    }
}

/// What one timed window saw; its latencies are in the `Samples` it filled.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub payload_bytes: u64,
    pub elapsed_ns: u64,
    pub cpu_ticks: u64,
}

impl Window {
    pub fn throughput_ops_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ticks as f64 * TICK_US / self.attempted.max(1) as f64
    }
}

/// Drive `stack` for `len`, closed loop, one op after another.
pub fn run_window(
    stack: &mut dyn Stack,
    len: Duration,
    drive: Drive,
    trace: &mut Trace,
    samples: &mut Samples,
) -> Window {
    samples.clear();
    let mut w = Window { attempted: 0, failed: 0, payload_bytes: 0, elapsed_ns: 0, cpu_ticks: 0 };
    let cpu0 = cpu_ticks();
    let started = Instant::now();
    let t0 = now_ns();
    while started.elapsed() < len {
        let Step { class, ops, failed, latency_ns, payload_bytes } = stack.step(drive, trace);
        w.attempted += u64::from(ops);
        w.failed += u64::from(failed);
        w.payload_bytes += payload_bytes;
        samples.by_class[class as usize].push(latency_ns.min(u64::from(u32::MAX)) as u32);
    }
    w.elapsed_ns = now_ns() - t0;
    w.cpu_ticks = cpu_ticks() - cpu0;
    for class in &samples.by_class {
        samples.all.extend_from_slice(class);
    }
    w
}

/// One metric of a run: the reported value and the samples (windows,
/// rounds or repetitions) it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    fn median_of(samples: Vec<f64>) -> Metric {
        Metric { value: median(&samples), samples }
    }

    fn single(value: f64) -> Metric {
        Metric { value, samples: vec![value] }
    }

    /// The best-decile window: the value a tenth of the way from the best
    /// window to the worst (nearest rank; the 2nd best of 20).
    ///
    /// This shared host slows down by up to a quarter for seconds at a time
    /// (`kv_read` windows step between 58 k and 79 k ops/s within one run),
    /// and it only ever slows windows down, so the fastest windows are the
    /// ones that measured the stack and not the neighbours. Between runs of
    /// one commit, twenty 1 s windows each, the quartile distance over the
    /// median of the reported throughput was, in a calm hour and in a noisy
    /// one: median 8 % and 19 %, best quartile 4 % and 11 %, best decile 3 %
    /// and 6 %. (The 2nd best rather than the best, because the stack's own
    /// timing noise on `kv_mixed` makes a single extreme window a poor
    /// estimate.) All windows stay in the detailed output.
    fn best_decile_of(samples: Vec<f64>, better: Better) -> Metric {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        if better == Better::Higher {
            sorted.reverse();
        }
        let rank = sorted.len().div_ceil(10).max(1);
        Metric { value: sorted.get(rank - 1).copied().unwrap_or(0.0), samples }
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Span summary and raw spans of a traced run.
    pub trace: Option<serde_json::Value>,
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed windows, i.e. how many windows.
    pub seconds: u64,
}

/// The untraced run: one timed deployment, warm-up, the timed windows, then
/// more timed deployments. `setup_s` is the median over all deployments,
/// `peak_rss_mb` is read before the extra ones (it is the footprint of one
/// deployment and its run, not of the repetitions), and every other
/// end-to-end metric is the best-decile window.
pub fn run_end_to_end(cfg: &RunConfig) -> RunResult {
    let deploy = || {
        let t = Instant::now();
        let stack = cfg.workload.deploy(cfg.seed);
        (stack, t.elapsed().as_secs_f64())
    };
    let (mut stack, first_setup) = deploy();
    let mut setup_times = vec![first_setup];
    let mut trace = Trace::new();
    let mut samples = Samples::new();
    let warm = run_window(stack.as_mut(), WARMUP, Drive::Stack, &mut trace, &mut samples);
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let mut cpu = Vec::new();
    for _ in 0..cfg.seconds {
        let w = run_window(stack.as_mut(), WINDOW, Drive::Stack, &mut trace, &mut samples);
        attempted += w.attempted;
        failed += w.failed;
        throughput.push(w.throughput_ops_s());
        p50.push(samples.percentile_us(50.0));
        cpu.push(w.cpu_us_per_op());
    }
    let rss = peak_rss_mb();
    stack.shutdown();

    let budget = Instant::now();
    while setup_times.len() < SETUP_REPS_MIN
        || (budget.elapsed() < SETUP_BUDGET && setup_times.len() < SETUP_REPS_MAX)
    {
        let (stack, took) = deploy();
        setup_times.push(took);
        stack.shutdown();
    }

    let metrics = BTreeMap::from([
        ("setup_s", Metric::median_of(setup_times)),
        ("throughput_ops_s", Metric::best_decile_of(throughput, Better::Higher)),
        ("latency_p50_us", Metric::best_decile_of(p50, Better::Lower)),
        ("cpu_us_per_op", Metric::best_decile_of(cpu, Better::Lower)),
        ("peak_rss_mb", Metric::single(rss)),
    ]);
    RunResult { attempted, failed, metrics, trace: None }
}

/// Sum of one `NodeStats` counter over the given snapshots, looked up by
/// name through `fields()` so a renamed counter reads 0 here instead of
/// breaking the build of the benchmark.
fn counter(snaps: &[NodeStatsSnapshot], name: &str) -> f64 {
    snaps
        .iter()
        .flat_map(|s| s.fields())
        .filter(|(field, _)| *field == name)
        .map(|(_, v)| v as f64)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run. After warm-up it repeats rounds of four 1 s windows —
/// plain, harness spans on, `hat_trace` on, `hat_metrics` sampler on — so
/// each overhead ratio compares neighbouring windows; then it runs the
/// stubbed loop and the workload-independent probes.
pub fn run_layers(cfg: &RunConfig, quick: bool, scratch: &std::path::Path) -> RunResult {
    let mut stack = cfg.workload.deploy(cfg.seed);
    let mut trace = Trace::new();
    let mut samples = Samples::new();
    let warm = run_window(stack.as_mut(), WARMUP, Drive::Stack, &mut trace, &mut samples);
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    let nodes = stack.fabric().nodes();
    let snap =
        || -> Vec<NodeStatsSnapshot> { nodes.iter().map(|n| n.stats().snapshot()).collect() };
    let before = snap();
    let db_before = stack.db_stats();

    let rounds = (cfg.seconds / 4).max(1);
    let (mut p99, mut max_us) = (Vec::new(), 0f64);
    let classes = [Class::Get, Class::Put, Class::MultiGet, Class::MultiPut];
    let mut class_p50: [Vec<f64>; 4] = Default::default();
    let (mut span_ratio, mut trace_ratio, mut sampler_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ops, mut traced_ns) = (0u64, 0u64);
    let mut allocs = alloc::AllocCount::default();
    let (mut ops, mut payload_bytes, mut write_ops, mut user_write_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut account = |w: &Window, samples: &Samples| {
        attempted += w.attempted;
        failed += w.failed;
        ops += w.attempted;
        payload_bytes += w.payload_bytes;
        let (puts, multiputs) = (samples.count(Class::Put), samples.count(Class::MultiPut));
        write_ops += puts + multiputs;
        user_write_bytes += (puts + multiputs * crate::gen::BATCH as u64)
            * (crate::gen::KEY_LEN + crate::gen::VALUE_LEN) as u64;
    };
    for _ in 0..rounds {
        let mut window = |stack: &mut dyn Stack, trace: &mut Trace, samples: &mut Samples| {
            let w = run_window(stack, WINDOW, Drive::Stack, trace, samples);
            account(&w, samples);
            w
        };
        let plain = window(stack.as_mut(), &mut trace, &mut samples);
        p99.push(samples.percentile_us(99.0));
        max_us = max_us.max(samples.max_us());
        for (series, class) in class_p50.iter_mut().zip(classes) {
            series.push(samples.class_p50_us(class).unwrap_or(0.0));
        }
        let base = plain.throughput_ops_s();

        trace.on = true;
        stack.set_handler_spans(true);
        let (spanned, counted) = alloc::count(|| window(stack.as_mut(), &mut trace, &mut samples));
        stack.set_handler_spans(false);
        trace.on = false;
        traced_ops += spanned.attempted;
        traced_ns += spanned.elapsed_ns;
        allocs.allocs += counted.allocs;
        allocs.bytes += counted.bytes;
        span_ratio.push(ratio(spanned.throughput_ops_s(), base));

        hat_trace::set_enabled(true);
        let traced = window(stack.as_mut(), &mut trace, &mut samples);
        hat_trace::set_enabled(false);
        hat_trace::reset();
        trace_ratio.push(ratio(traced.throughput_ops_s(), base));

        let mut sampler = Sampler::attach(stack.fabric(), SamplerConfig::default());
        let sampled = window(stack.as_mut(), &mut trace, &mut samples);
        sampler.stop();
        sampler_ratio.push(ratio(sampled.throughput_ops_s(), base));
    }
    let after = snap();
    let db_after = stack.db_stats();
    let delta: Vec<NodeStatsSnapshot> = after.iter().zip(&before).map(|(a, b)| *a - *b).collect();
    let gauges = after;

    let stub = run_window(stack.as_mut(), WINDOW / 5, Drive::Stubbed, &mut trace, &mut samples);
    stack.shutdown();

    let ops_f = ops as f64;
    let per_op = |name: &str| ratio(counter(&delta, name), ops_f);
    let onesided_gets = counter(&delta, "onesided_gets");
    let onesided_fallbacks = counter(&delta, "onesided_fallbacks");
    let traced_ops_f = traced_ops as f64;
    let self_per_op = |name: SpanName| ratio(trace.self_sum_ns(name) as f64, traced_ops_f);
    let mean_op_ns = ratio(traced_ns as f64, traced_ops_f);
    let kv_stub_ns = self_per_op(SpanName::KvGet)
        + self_per_op(SpanName::KvPut)
        + self_per_op(SpanName::KvMultiGet)
        + self_per_op(SpanName::KvMultiPut);

    let [get_p50, put_p50, multiget_p50, multiput_p50] = class_p50;
    let mut metrics: BTreeMap<&'static str, Metric> = BTreeMap::from([
        // core.engine
        ("engine.call_self_ns", Metric::single(self_per_op(SpanName::EngineCall))),
        ("engine.calls_retried", Metric::single(counter(&delta, "calls_retried"))),
        (
            "engine.calls_failed",
            Metric::single(counter(&delta, "calls_failed") + counter(&delta, "calls_timed_out")),
        ),
        // core.reactor
        ("reactor.wakeups_per_kop", Metric::single(1e3 * per_op("reactor_wakeups"))),
        (
            "reactor.resumes_per_wakeup",
            Metric::single(ratio(
                counter(&delta, "reactor_resumes"),
                counter(&delta, "reactor_wakeups"),
            )),
        ),
        ("reactor.parked_hwm", Metric::single(counter(&gauges, "reactor_parked_hwm"))),
        // protocols
        ("protocols.doorbells_per_op", Metric::single(per_op("doorbells"))),
        ("protocols.wrs_per_op", Metric::single(per_op("wrs_posted"))),
        ("protocols.memcpys_per_op", Metric::single(per_op("memcpys"))),
        (
            "protocols.wire_bytes_per_payload_byte",
            Metric::single(ratio(counter(&delta, "bytes_tx"), payload_bytes as f64)),
        ),
        (
            "protocols.pipeline_doorbells_per_call",
            Metric::single(ratio(
                counter(&delta, "pipeline_doorbells"),
                counter(&delta, "pipelined_calls"),
            )),
        ),
        ("protocols.inflight_hwm", Metric::single(counter(&gauges, "inflight_hwm"))),
        // protocols.onesided
        (
            "onesided.hit_ratio",
            Metric::single(ratio(onesided_gets, onesided_gets + onesided_fallbacks)),
        ),
        ("onesided.fallbacks_per_kop", Metric::single(1e3 * per_op("onesided_fallbacks"))),
        ("onesided.conflicts_per_kop", Metric::single(1e3 * per_op("onesided_conflicts"))),
        // rdma-sim
        ("verbs.cpu_busy_ns_per_op", Metric::single(per_op("cpu_busy_ns"))),
        ("verbs.completions_per_op", Metric::single(per_op("completions"))),
        ("verbs.rnr_stalls", Metric::single(counter(&delta, "rnr_stalls"))),
        // kvdb, as this workload drove it
        (
            "kvdb.txns_per_write_op",
            Metric::single(ratio((db_after.commits - db_before.commits) as f64, write_ops as f64)),
        ),
        (
            "kvdb.writer_wait_ns_per_write_op",
            Metric::single(ratio(
                (db_after.writer_wait_ns - db_before.writer_wait_ns) as f64,
                write_ops as f64,
            )),
        ),
        (
            "kvdb.bytes_written_per_user_byte",
            Metric::single(ratio(
                (db_after.bytes_written - db_before.bytes_written) as f64,
                user_write_bytes as f64,
            )),
        ),
        // observability cost, on this workload's own traffic
        ("trace.on_throughput_ratio", Metric::median_of(trace_ratio)),
        ("metrics.sampler_on_throughput_ratio", Metric::median_of(sampler_ratio)),
        ("bench.span_overhead_ratio", Metric::median_of(span_ratio)),
        // whole process
        ("client.get_p50_us", Metric::median_of(get_p50)),
        ("client.put_p50_us", Metric::median_of(put_p50)),
        ("client.multiget_p50_us", Metric::median_of(multiget_p50)),
        ("client.multiput_p50_us", Metric::median_of(multiput_p50)),
        ("client.latency_p99_us", Metric::median_of(p99)),
        ("client.latency_max_us", Metric::single(max_us)),
        ("process.allocs_per_op", Metric::single(ratio(allocs.allocs as f64, traced_ops_f))),
        ("process.alloc_bytes_per_op", Metric::single(ratio(allocs.bytes as f64, traced_ops_f))),
        ("loadgen.ns_per_op", Metric::single(ratio(stub.elapsed_ns as f64, stub.attempted as f64))),
        // harness spans of the traced windows, self time per op
        ("span.op_mean_ns", Metric::single(mean_op_ns)),
        ("span.bench_op_self_ns", Metric::single(self_per_op(SpanName::BenchOp))),
        ("span.codec_encode_self_ns", Metric::single(self_per_op(SpanName::CodecEncode))),
        ("span.codec_decode_self_ns", Metric::single(self_per_op(SpanName::CodecDecode))),
        ("span.server_handler_self_ns", Metric::single(self_per_op(SpanName::ServerHandler))),
        ("span.kv_stub_self_ns", Metric::single(kv_stub_ns)),
        (
            "span.residual_ratio",
            Metric::single(ratio(
                (mean_op_ns - ratio(trace.total_self_ns() as f64, traced_ops_f)).abs(),
                mean_op_ns,
            )),
        ),
    ]);
    for (name, value) in probes::run_all(quick, scratch) {
        metrics.insert(name, Metric::single(value));
    }
    // What the engine adds on top of the bare protocol for a 64 B echo.
    let rtt = metrics["protocols.rtt_ns.write_imm.64"].value;
    let call = metrics["engine.call_ns.echo64"].value;
    metrics.insert("engine.overhead_ns.echo64", Metric::single(call - rtt));

    let mut doc = serde_json::Map::new();
    doc.insert("workload".into(), serde_json::Value::String(cfg.workload.name().into()));
    doc.insert("seed".into(), serde_json::Value::Number(cfg.seed.into()));
    doc.insert("traced_ops".into(), serde_json::Value::Number(traced_ops.into()));
    doc.insert("mean_op_ns".into(), serde_json::Value::Number(mean_op_ns.into()));
    doc.insert("summary".into(), trace.summary(traced_ops));
    doc.insert("spans".into(), trace.raw_spans());
    RunResult { attempted, failed, metrics, trace: Some(serde_json::Value::Object(doc)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_decile_is_the_second_best_of_twenty() {
        let windows: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Metric::best_decile_of(windows.clone(), Better::Higher).value, 19.0);
        assert_eq!(Metric::best_decile_of(windows.clone(), Better::Lower).value, 2.0);
        // Up to ten windows the best one is reported; samples are kept as measured.
        let few = Metric::best_decile_of(vec![3.0, 9.0, 5.0], Better::Higher);
        assert_eq!((few.value, few.samples.as_slice()), (9.0, &[3.0, 9.0, 5.0][..]));
        assert_eq!(Metric::best_decile_of(Vec::new(), Better::Lower).value, 0.0);
    }

    #[test]
    fn window_rates_count_verified_ops_only() {
        let w = Window {
            attempted: 1000,
            failed: 100,
            payload_bytes: 0,
            elapsed_ns: 500_000_000,
            cpu_ticks: 50,
        };
        assert_eq!(w.throughput_ops_s(), 1800.0);
        assert_eq!(w.cpu_us_per_op(), 500.0);
    }
}
