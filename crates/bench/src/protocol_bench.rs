//! Raw-protocol runners for Figures 4 and 5: RPC-like echo workloads
//! straight over the protocol layer (no Thrift envelope), exactly as §3.1
//! describes — "transfer fix-sized messages between client(s) and a
//! server".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{now_ns, Fabric, PollMode, SimConfig};
use hat_trace::hist::Histogram;

/// One latency measurement point.
#[derive(Debug, Clone, Copy)]
pub struct RawLatencyPoint {
    /// Mean round trip, ns.
    pub mean_ns: u64,
    /// Bucketed p99, ns.
    pub p99_ns: u64,
    /// Minimum observed, ns.
    pub min_ns: u64,
}

/// One throughput measurement point.
#[derive(Debug, Clone, Copy)]
pub struct RawThroughputPoint {
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Aggregate goodput, MB/s (both directions).
    pub mb_per_sec: f64,
}

fn cfg_for(size: usize, poll: PollMode) -> ProtocolConfig {
    ProtocolConfig { poll, max_msg: size.max(64), ..Default::default() }
}

/// Single-client echo latency for `(kind, poll, size)` in a fresh fabric.
pub fn raw_latency(
    kind: ProtocolKind,
    poll: PollMode,
    size: usize,
    iters: usize,
) -> RawLatencyPoint {
    let fabric = Fabric::new(SimConfig::default());
    raw_latency_impl(&fabric, kind, poll, size, iters)
}

pub(crate) fn raw_latency_impl(
    fabric: &Fabric,
    kind: ProtocolKind,
    poll: PollMode,
    size: usize,
    iters: usize,
) -> RawLatencyPoint {
    let snode = fabric.add_node("raw-server");
    let cnode = fabric.add_node("raw-client");
    let (cep, sep) = fabric.connect(&cnode, &snode).expect("connect");
    let cfg = cfg_for(size, poll);
    let scfg = cfg.clone();
    let total = iters + 4;
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).expect("server side");
        for _ in 0..total {
            if !server.serve_one(&mut |req| req.to_vec()).expect("serve") {
                break;
            }
        }
        server
    });
    let mut client = connect_client(kind, cep, cfg).expect("client side");
    let payload = vec![0x7Eu8; size];
    for _ in 0..4 {
        client.call(&payload).expect("warmup");
    }
    let hist = Histogram::default();
    for _ in 0..iters {
        let t0 = now_ns();
        client.call(&payload).expect("echo");
        hist.record(now_ns() - t0);
    }
    drop(client);
    drop(server.join().expect("server thread"));
    RawLatencyPoint { mean_ns: hist.mean(), p99_ns: hist.p99(), min_ns: hist.min() }
}

/// Multi-client echo throughput for `(kind, poll, size, clients)`.
///
/// Clients are spread over up to four client nodes (the paper's YCSB
/// arrangement); the server runs one thread per connection, so busy
/// polling with many clients genuinely over-subscribes the server node's
/// simulated cores — Figure 5's collapse.
pub fn raw_throughput(
    kind: ProtocolKind,
    poll: PollMode,
    size: usize,
    clients: usize,
    iters: usize,
) -> RawThroughputPoint {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("raw-server");
    let client_nodes: Vec<_> =
        (0..clients.clamp(1, 4)).map(|i| fabric.add_node(&format!("raw-client{i}"))).collect();
    let cfg = cfg_for(size, poll);

    // Server accept loop.
    let accepting = Arc::new(AtomicBool::new(true));
    let listener = fabric.listen(&snode, "raw-thr", Default::default());
    let accept_flag = accepting.clone();
    let scfg = cfg.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut conns = Vec::new();
        while accept_flag.load(Ordering::Acquire) {
            let Ok(ep) = listener.accept_timeout(std::time::Duration::from_millis(20)) else {
                continue;
            };
            let scfg = scfg.clone();
            conns.push(std::thread::spawn(move || {
                let Ok(mut server) = accept_server(kind, ep, scfg) else { return };
                let _ = server.serve_loop(&mut |req| req.to_vec());
            }));
        }
        for c in conns {
            let _ = c.join();
        }
    });

    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for c in 0..clients {
        let fabric = fabric.clone();
        let node = client_nodes[c % client_nodes.len()].clone();
        let cfg = cfg.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let ep = fabric.dial(&node, "raw-thr").expect("dial");
            let mut client = connect_client(kind, ep, cfg).expect("client");
            let payload = vec![0x11u8; size];
            client.call(&payload).expect("warmup");
            barrier.wait();
            for _ in 0..iters {
                client.call(&payload).expect("echo");
            }
        }));
    }
    barrier.wait();
    let t0 = now_ns();
    for h in handles {
        h.join().expect("client thread");
    }
    let wall_ns = now_ns() - t0;
    accepting.store(false, Ordering::Release);
    accept_thread.join().expect("accept thread");

    let total_ops = (clients * iters) as f64;
    let ops_per_sec = total_ops / (wall_ns as f64 / 1e9);
    RawThroughputPoint { ops_per_sec, mb_per_sec: ops_per_sec * (2 * size) as f64 / 1e6 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_points_are_positive_for_every_protocol() {
        for kind in crate::figure4_protocols() {
            let p = raw_latency(kind, PollMode::Busy, 256, 6);
            assert!(p.mean_ns > 0, "{kind}");
        }
    }

    #[test]
    fn direct_write_imm_beats_rendezvous_for_small_messages() {
        // Figure 4's headline: one-sided single-WR transfers win at small
        // sizes; rendezvous pays control round trips.
        let dwi = raw_latency(ProtocolKind::DirectWriteImm, PollMode::Busy, 512, 16);
        let rndv = raw_latency(ProtocolKind::WriteRndv, PollMode::Busy, 512, 16);
        assert!(
            dwi.mean_ns < rndv.mean_ns,
            "Direct-WriteIMM {} vs Write-RNDV {}",
            dwi.mean_ns,
            rndv.mean_ns
        );
    }

    #[test]
    fn busy_polling_beats_event_polling_single_client() {
        // Compare best-case round trips: the simulated event-wakeup cost
        // is a deterministic floor, while means absorb host scheduler
        // noise that can exceed the few-microsecond modelled gap. Even
        // minima can be inflated when a whole 16-iter run never gets an
        // unpreempted round trip (seen with `--test-threads=4` on one
        // core), so re-measure a few times and accept the first clean
        // pair.
        let mut last = (0, 0);
        for _ in 0..4 {
            let busy = raw_latency(ProtocolKind::EagerSendRecv, PollMode::Busy, 512, 16);
            let event = raw_latency(ProtocolKind::EagerSendRecv, PollMode::Event, 512, 16);
            if busy.min_ns < event.min_ns {
                return;
            }
            last = (busy.min_ns, event.min_ns);
        }
        panic!("busy {} vs event {}", last.0, last.1);
    }

    #[test]
    fn throughput_runs_with_multiple_clients() {
        let p = raw_throughput(ProtocolKind::DirectWriteImm, PollMode::Event, 512, 4, 8);
        assert!(p.ops_per_sec > 0.0);
    }
}
