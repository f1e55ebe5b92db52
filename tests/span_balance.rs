//! Every span `call_many` opens is closed, even when the window dies under
//! it: a traced depth-8 batch through a seeded mid-window QP flush, with
//! retries, must leave each registered call id exactly one `CallBegin` and
//! one `CallEnd` — the balance Perfetto needs to draw a span at all — and
//! still return exactly-once, in order.
//!
//! Its own test binary: the trace switch, ring and call table are
//! process-wide.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hatrpc::core::engine::{CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc::core::service::ServiceSchema;
use hatrpc::rdma::hat_trace::{self, Phase};
use hatrpc::rdma::{Fabric, FaultPlan, FaultScope, SimConfig};

#[test]
fn a_faulted_call_many_closes_every_span_it_opens() {
    let idl = r#"
        service Piped {
            binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
        }
    "#;
    let schema = ServiceSchema::parse(idl, "Piped").unwrap();
    // As in `qp_flush_mid_window_preserves_exactly_once_pipelined_completion`:
    // each client QP dies after 20 send WRs, so every connection fails with
    // a full window in flight and the batch needs several reconnects.
    let plan = FaultPlan::new(0xD00B).flush_qp_after(FaultScope::Node("client".into()), 20);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "piped",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema).with_policy(CallPolicy {
        deadline: Duration::from_secs(5),
        retries: 6,
        backoff: Duration::from_millis(1),
    });
    let requests: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 96]).collect();

    hat_trace::reset();
    hat_trace::set_enabled(true);
    let responses = client.call_many("piped", &requests);
    hat_trace::set_enabled(false);
    assert_eq!(responses.unwrap(), requests, "every request completes exactly once, in order");
    assert!(cnode.stats_snapshot().calls_retried >= 2, "the flushes must have forced retries");

    // Client spans only: the server's handler spans are ServerBegin/End.
    let mut balance: HashMap<u64, (u32, u32)> = HashMap::new();
    for e in hat_trace::snapshot_events() {
        match e.phase {
            Phase::CallBegin => balance.entry(e.call_id).or_default().0 += 1,
            Phase::CallEnd => balance.entry(e.call_id).or_default().1 += 1,
            _ => {}
        }
    }
    assert!(
        balance.len() > requests.len(),
        "requests in flight when a window died are re-issued under fresh spans: {} spans",
        balance.len()
    );
    for (id, (begins, ends)) in &balance {
        assert_eq!((*begins, *ends), (1, 1), "call {id}: {begins} CallBegin, {ends} CallEnd");
    }
    drop(client);
    server.shutdown();
}
