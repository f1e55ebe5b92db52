//! `conn_sweep` — connection-scaling sweep for the completion-driven
//! reactor server, emitting `BENCH_connections.json`.
//!
//! ```text
//! conn_sweep [--check-speedup] [--out PATH] [--metrics-out PATH]
//!            [--points 100,1000,10000] [--window-ms N] [--payload N]
//!            [--client-threads N] [--time-scale F] [--sample-interval-ms N]
//! ```
//!
//! For each point N, N clients each keep one async call in flight on a
//! depth-2 pipelined channel (64 B echo, Eager-SendRecv + event polling
//! from a `perf_goal = res_util` hint) against a
//! [`ServerPolicy::Reactor`] server: one driver thread multiplexes every
//! connection's completion state machine. The question is whether that
//! one driver holds its own throughput as connections grow 100x, since
//! per-connection state is what breaks an RDMA dataplane at scale.
//!
//! Clients are multiplexed over a few OS threads via
//! `call_async`/`poll_async`, so the sweep itself never spawns N
//! threads; the scaling wall being measured is the *server's*.
//!
//! `--check-speedup` exits non-zero unless:
//!
//! * at the largest point every connection rides the one driver
//!   (`reactor_parked_hwm >= N`);
//! * at every point every client completed at least one call
//!   (`clients_served == N`);
//! * ops/s at the largest point are at least 0.25x ops/s at the smallest
//!   point (`retention`);
//! * at every point the telemetry agrees with the bench: a hat-metrics
//!   sampler rides each point, its counter tracks land in
//!   `METRICS_connections.json` (one Perfetto trace-event document, a
//!   process per point and node), and the sampled `calls_ok` deltas
//!   summed over the window must match the bench's own completed-op
//!   count within 5% (both numbers are in each `BENCH_connections.json`
//!   row).
//!
//! CI runs it as the bench-smoke gate.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_atb::driver::{run_clients, Completed};
use hat_bench::{flag_value, write_artifact, JsonDoc};
use hat_rdma_sim::{Fabric, SimConfig};
use hatrpc_core::engine::{AsyncCall, CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;

/// Ops/s at the largest point must be at least this fraction of ops/s at
/// the smallest point.
const RETENTION_FLOOR: f64 = 0.25;
/// Sampled ops must agree with measured ops within this fraction.
const AGREEMENT_TOLERANCE: f64 = 0.05;

const IDL: &str = r#"
    service Conn {
        binary echo(1: binary p) [ hint: perf_goal = res_util, payload_size = 64, concurrency = 256, queue_depth = 2, polling = event; ]
    }
"#;

struct PointResult {
    conns: usize,
    ops: u64,
    ops_per_sec: f64,
    clients_served: usize,
    reactor_wakeups: u64,
    reactor_resumes: u64,
    reactor_parked_hwm: u64,
    /// `calls_ok` summed as per-interval deltas over the sampler's
    /// retained window — the number the 5% agreement check compares to
    /// `ops`.
    metrics_window_ops: u64,
    /// `calls_ok` newest cumulative values summed — exact regardless of
    /// ring wrap or late node discovery.
    metrics_total_ops: u64,
    metrics_ticks: u64,
}

struct ClientSlot {
    client: HatClient,
    call: Option<AsyncCall>,
    ops: u64,
    dead: bool,
}

/// Everything one sweep point needs (its size plus the sweep-wide knobs).
struct PointConfig {
    conns: usize,
    client_threads: usize,
    window: Duration,
    payload: usize,
    time_scale: f64,
    sample_interval_ns: u64,
}

/// Run one point, adding its sampled series to `metrics`.
fn run_point(cfg: &PointConfig, metrics: &mut hat_metrics::MetricsDoc) -> PointResult {
    let sim = SimConfig { time_scale: cfg.time_scale, ..SimConfig::default() };
    let fabric = Fabric::new(sim);
    let snode = fabric.add_node("server");
    let schema = ServiceSchema::parse(IDL, "Conn").unwrap();
    let server = HatServer::serve(
        &fabric,
        &snode,
        "conn",
        schema.clone(),
        ServerPolicy::Reactor,
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
    );

    // The sampler rides the whole point — client setup included, so the
    // measured window always sits inside the retained ring (sized to
    // cover setup plus window at this interval).
    let mut sampler = hat_metrics::Sampler::attach(
        &fabric,
        hat_metrics::SamplerConfig { interval_ns: cfg.sample_interval_ns, ring_capacity: 1024 },
    );

    // One node per client thread (a "client machine" holding a batch of
    // connections), so host threads and simulated CPUs line up. The
    // driver's barrier holds the calling thread too: ops start only after
    // the sampler has had setup time to discover every client node at
    // `calls_ok == 0`. A thread's one op is the whole window, and it
    // completes every call its connections finish.
    let threads = cfg.client_threads.max(1).min(cfg.conns.max(1));
    let served = AtomicUsize::new(0);
    let req = vec![0x5au8; cfg.payload];
    let run = run_clients(
        threads,
        1,
        |t| {
            let cnode = fabric.add_node(&format!("clients-{t}"));
            let share = cfg.conns / threads + usize::from(t < cfg.conns % threads);
            // A long deadline: one driver answers thousands of connections
            // in turn, and a mid-window timeout would poison a channel and
            // turn a slow answer into reconnect churn — the sweep
            // measures served ops, not error volume.
            let policy = CallPolicy {
                deadline: Duration::from_secs(600),
                retries: 0,
                backoff: Duration::ZERO,
            };
            let slots: Vec<ClientSlot> = (0..share)
                .map(|_| {
                    let mut client =
                        HatClient::new(&fabric, &cnode, "conn", &schema).with_policy(policy);
                    let dead = client.warm_all().is_err();
                    ClientSlot { client, call: None, ops: 0, dead }
                })
                .collect();
            Ok::<_, Infallible>(slots)
        },
        |slots, _| {
            let deadline = Instant::now() + cfg.window;
            while Instant::now() < deadline {
                let mut progressed = false;
                for slot in slots.iter_mut() {
                    if slot.dead {
                        continue;
                    }
                    match &mut slot.call {
                        None => match slot.client.call_async("echo", &req) {
                            Ok(call) => slot.call = Some(call),
                            Err(_) => slot.dead = true,
                        },
                        Some(call) => match slot.client.poll_async(call) {
                            Ok(Some(_)) => {
                                slot.ops += 1;
                                slot.call = None;
                                progressed = true;
                            }
                            Ok(None) => {}
                            Err(_) => {
                                slot.call = None;
                                slot.dead = true;
                            }
                        },
                    }
                }
                if !progressed {
                    std::thread::yield_now();
                }
            }
            served.fetch_add(slots.iter().filter(|s| s.ops > 0).count(), Ordering::Relaxed);
            Ok(Completed { label: "echo", requests: slots.iter().map(|s| s.ops).sum() })
        },
    );
    let Ok(run) = run;
    let ops = run.total_ops();
    let clients_served = served.into_inner();
    // Tail tick before teardown: the newest samples hold the final
    // counter values every client thread left behind.
    sampler.stop();
    let calls_ok = hat_metrics::field_index("calls_ok").expect("calls_ok is a NodeStats field");
    let (mut metrics_window_ops, mut metrics_total_ops) = (0u64, 0u64);
    for tl in sampler.node_timelines() {
        if let (Some(first), Some(last)) = (tl.samples.first(), tl.samples.last()) {
            metrics_window_ops += last.values[calls_ok].saturating_sub(first.values[calls_ok]);
            metrics_total_ops += last.values[calls_ok];
        }
    }
    let metrics_ticks = sampler.ticks();
    metrics.add(&format!("reactor {} conns", cfg.conns), &sampler);
    let stats = snode.stats_snapshot();
    server.shutdown();
    PointResult {
        conns: cfg.conns,
        ops,
        ops_per_sec: ops as f64 / cfg.window.as_secs_f64(),
        clients_served,
        reactor_wakeups: stats.reactor_wakeups,
        reactor_resumes: stats.reactor_resumes,
        reactor_parked_hwm: stats.reactor_parked_hwm,
        metrics_window_ops,
        metrics_total_ops,
        metrics_ticks,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check-speedup");
    let out_path =
        flag_value(&args, "--out").unwrap_or_else(|| "BENCH_connections.json".to_string());
    let points: Vec<usize> = flag_value(&args, "--points")
        .unwrap_or_else(|| "100,1000,10000".to_string())
        .split(',')
        .map(|p| p.trim().parse().expect("int point"))
        .collect();
    let window_ms: u64 = flag_value(&args, "--window-ms").map_or(3000, |v| v.parse().expect("int"));
    let payload: usize = flag_value(&args, "--payload").map_or(64, |v| v.parse().expect("int"));
    // One load-generator thread by default: the sweep legitimately runs on
    // single-core CI hosts, where extra busy client threads starve the one
    // driver thread under test and measure the host scheduler instead.
    let client_threads: usize =
        flag_value(&args, "--client-threads").map_or(1, |v| v.parse().expect("int"));
    let time_scale: f64 =
        flag_value(&args, "--time-scale").map_or(1.0, |v| v.parse().expect("float"));
    let window = Duration::from_millis(window_ms);
    let metrics_out = flag_value(&args, "--metrics-out")
        .unwrap_or_else(|| "METRICS_connections.json".to_string());
    // Interval sized so the measured window spans well under the ring
    // capacity (1024 samples): plenty of timeline resolution, no wrap.
    let sample_interval_ns: u64 = flag_value(&args, "--sample-interval-ms")
        .map(|v| v.parse::<u64>().expect("int") * 1_000_000)
        .unwrap_or_else(|| ((window.as_nanos() as u64) / 160).max(2_000_000));

    let mut rows: Vec<PointResult> = Vec::new();
    let mut metrics = hat_metrics::MetricsDoc::default();
    for &conns in &points {
        let t0 = Instant::now();
        let r = run_point(
            &PointConfig { conns, client_threads, window, payload, time_scale, sample_interval_ns },
            &mut metrics,
        );
        eprintln!(
            "conn_sweep: {conns:>6} conns: {:>9} ops ({:>12.0} ops/s) from {:>6} clients, \
             wakeups {} resumes {} parked_hwm {}, sampled {} ops over {} ticks  [{:.1}s]",
            r.ops,
            r.ops_per_sec,
            r.clients_served,
            r.reactor_wakeups,
            r.reactor_resumes,
            r.reactor_parked_hwm,
            r.metrics_window_ops,
            r.metrics_ticks,
            t0.elapsed().as_secs_f64(),
        );
        rows.push(r);
    }

    let base = rows.iter().min_by_key(|r| r.conns).expect("at least one point");
    let top = rows.iter().max_by_key(|r| r.conns).expect("at least one point");
    let retention = top.ops_per_sec / base.ops_per_sec.max(1.0);

    JsonDoc::new("conn_sweep")
        .member("payload", payload)
        .member("window_ms", window_ms)
        .member("client_threads", client_threads)
        .member("time_scale", time_scale)
        .member("sample_interval_ns", sample_interval_ns)
        .member("agreement_tolerance", AGREEMENT_TOLERANCE)
        .rows(
            "results",
            rows.iter().map(|r| {
                format!(
                    "{{\"conns\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
                     \"clients_served\": {}, \"reactor_wakeups\": {}, \"reactor_resumes\": {}, \
                     \"reactor_parked_hwm\": {}, \"metrics_window_ops\": {}, \
                     \"metrics_total_ops\": {}, \"metrics_ticks\": {}}}",
                    r.conns,
                    r.ops,
                    r.ops_per_sec,
                    r.clients_served,
                    r.reactor_wakeups,
                    r.reactor_resumes,
                    r.reactor_parked_hwm,
                    r.metrics_window_ops,
                    r.metrics_total_ops,
                    r.metrics_ticks,
                )
            }),
        )
        .member("base_point", base.conns)
        .member("top_point", top.conns)
        .member("top_reactor_parked_hwm", top.reactor_parked_hwm)
        .member("retention", format!("{retention:.3}"))
        .member("retention_floor", RETENTION_FLOOR)
        .write(&out_path);

    write_artifact("conn_sweep", &metrics_out, &metrics.to_json());
    println!(
        "conn_sweep: at {} conns the reactor served {} connections on one driver at {:.0} \
         ops/s, {retention:.2}x its ops/s at {} conns",
        top.conns, top.reactor_parked_hwm, top.ops_per_sec, base.conns
    );

    if check {
        let mut failed = false;
        for r in &rows {
            if r.clients_served != r.conns {
                eprintln!(
                    "conn_sweep: FAIL — {} conns: only {} clients completed a call",
                    r.conns, r.clients_served
                );
                failed = true;
            }
            if r.ops == 0 {
                continue;
            }
            let err = (r.metrics_window_ops as f64 - r.ops as f64).abs() / r.ops as f64;
            if err > AGREEMENT_TOLERANCE {
                eprintln!(
                    "conn_sweep: FAIL — {} conns: sampled {} ops vs measured {} \
                     ({:.1}% off, tolerance {:.0}%)",
                    r.conns,
                    r.metrics_window_ops,
                    r.ops,
                    err * 100.0,
                    AGREEMENT_TOLERANCE * 100.0,
                );
                failed = true;
            }
        }
        if top.reactor_parked_hwm < top.conns as u64 {
            eprintln!(
                "conn_sweep: FAIL — reactor driver parked {} connections at the {}-conn \
                 point; every connection must ride the one driver thread",
                top.reactor_parked_hwm, top.conns
            );
            failed = true;
        }
        if retention < RETENTION_FLOOR {
            eprintln!(
                "conn_sweep: FAIL — ops/s at {} conns are {retention:.2}x those at {} conns, \
                 below the {RETENTION_FLOOR}x floor",
                top.conns, base.conns
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
