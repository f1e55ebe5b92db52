//! Trace capture harness: run a small hint-driven workload with
//! `hat-trace` recording on, and export the timeline + latency
//! histograms. Backs `repro trace` and the trace-schema integration
//! test.

use std::sync::Arc;

use hat_rdma_sim::{Fabric, SimConfig};
use hatrpc_core::engine::{HandlerFactory, HatClient, HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;

/// Two-function micro service that `repro trace` and `repro metrics`
/// both drive: a plain latency-hinted echo (eager protocol, one span per
/// call) and a `queue_depth = 8` pipelined function (one flush per
/// window, spans interleaved in flight).
pub(crate) const MICRO_IDL: &str = r#"
    service Micro {
        binary echo(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
        binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
    }
"#;

/// The micro service, echoing every request, on a new `server` node of
/// `fabric`.
pub(crate) fn serve_micro(fabric: &Fabric) -> (HatServer, ServiceSchema) {
    let snode = fabric.add_node("server");
    let schema = ServiceSchema::parse(MICRO_IDL, "Micro").expect("micro IDL parses");
    let echo: HandlerFactory = Arc::new(|| Box::new(|req: &[u8]| req.to_vec()));
    let server =
        HatServer::serve(fabric, &snode, "micro", schema.clone(), ServerPolicy::Threaded, echo);
    (server, schema)
}

/// Result of a traced micro run.
pub struct MicroTrace {
    /// Chrome trace-event JSON (load in `ui.perfetto.dev`).
    pub json: String,
    /// Events captured in the ring.
    pub events: usize,
    /// Per protocol × fn_scope × size-class latency digests.
    pub latency: Vec<hat_trace::hist::LatencyRow>,
}

/// Run the micro workload under tracing and export the timeline.
///
/// Captures 4 sequential `echo` calls plus one depth-8 pipelined
/// window of 16 `piped` calls, then disables tracing before export so
/// the exporter's own work never lands in the ring. The trace global
/// state is reset first: concurrent captures in one process would
/// interleave, so callers (tests, `repro`) run this alone.
pub fn capture_micro_trace() -> MicroTrace {
    hat_trace::reset();
    hat_trace::set_enabled(true);
    let fabric = Fabric::new(SimConfig::fast_test());
    let (server, schema) = serve_micro(&fabric);
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "micro", &schema);
    for i in 0..4u8 {
        let resp = client.call("echo", &vec![i; 256]).expect("echo call");
        assert_eq!(resp.len(), 256);
    }
    let requests: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 128]).collect();
    let responses = client.call_many("piped", &requests).expect("pipelined window");
    assert_eq!(responses.len(), requests.len());
    drop(client);
    server.shutdown();
    hat_trace::set_enabled(false);
    MicroTrace {
        json: hat_trace::export::chrome_trace_json(),
        events: hat_trace::events_recorded(),
        latency: hat_trace::hist::latency_rows(),
    }
}
