//! Ring-wrap safety for histogram deltas: a sampler (or any reader)
//! crossing an overwrite-oldest wrap must never observe a negative or
//! double-counted bucket delta. Rings store cumulative values, so any
//! two accepted samples must difference cleanly — `checked_sub` failing
//! anywhere means a torn or reordered read escaped the series lock.

use std::sync::Mutex;

use hat_metrics::{Sampler, SamplerConfig};
use hat_rdma_sim::{Fabric, SimConfig};

/// Serializes the two tests: both drive the process-global histogram
/// registry.
static GATE: Mutex<()> = Mutex::new(());

/// Assert every consecutive pair of accepted samples in every timeline
/// differences without underflow, and return the summed count deltas.
fn check_monotone_deltas(s: &Sampler) -> u64 {
    let mut delta_total = 0u64;
    for tl in s.hist_timelines() {
        for w in tl.samples.windows(2) {
            assert!(w[1].idx > w[0].idx, "snapshot ordered oldest-first");
            for (j, (new, old)) in w[1].values.iter().zip(w[0].values.iter()).enumerate() {
                assert!(
                    new.checked_sub(*old).is_some(),
                    "negative delta in field {j} across idx {} -> {}: {} < {}",
                    w[0].idx,
                    w[1].idx,
                    new,
                    old,
                );
            }
            delta_total += w[1].values[0] - w[0].values[0];
        }
        // Telescoping conservation: summed interval deltas equal the
        // span between the endpoints — nothing double-counted.
        if let (Some(first), Some(last)) = (tl.samples.first(), tl.samples.last()) {
            let span: u64 = tl.samples.windows(2).map(|w| w[1].values[0] - w[0].values[0]).sum();
            assert_eq!(span, last.values[0] - first.values[0]);
        }
    }
    delta_total
}

#[test]
fn deterministic_wrap_keeps_deltas_non_negative_and_conserved() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    hat_trace::hist::reset();
    let fabric = Fabric::new(SimConfig::fast_test());
    // Tiny ring so 64 ticks wrap it many times over.
    let cfg = SamplerConfig { ring_capacity: 8, ..Default::default() };
    let s = Sampler::attach_paused(&fabric, cfg);

    let mut recorded = 0u64;
    for round in 0..64u64 {
        for i in 0..(round % 7 + 1) {
            hat_trace::hist::record_latency("Eager-SendRecv", "Wrap.put", 64, 1_000 + i * 700);
            recorded += 1;
        }
        s.tick();
        check_monotone_deltas(&s);
    }

    let tl = s.hist_timelines();
    assert_eq!(tl.len(), 1);
    let samples = &tl[0].samples;
    assert!(samples.len() <= 8, "ring bounds retention: {}", samples.len());
    assert_eq!(
        samples.last().unwrap().values[0],
        recorded,
        "newest cumulative count is exact despite dozens of wraps",
    );
    // The wrap lost the oldest history only: the retained window's
    // deltas cover at most what was recorded, never more.
    let window: u64 = samples.windows(2).map(|w| w[1].values[0] - w[0].values[0]).sum();
    assert!(window <= recorded);
    hat_trace::hist::reset();
}

#[test]
fn concurrent_writer_and_wrapping_sampler_never_tear_deltas() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    hat_trace::hist::reset();
    let fabric = Fabric::new(SimConfig::fast_test());
    let cfg = SamplerConfig {
        interval_ns: 200_000, // 0.2ms: hundreds of ticks across the run
        ring_capacity: 8,
    };
    let mut s = Sampler::attach(&fabric, cfg);

    let writer = std::thread::spawn(|| {
        for i in 0..50_000u64 {
            hat_trace::hist::record_latency("Eager-SendRecv", "Race.get", 64, 500 + (i % 1024));
        }
        50_000u64
    });
    // Read continuously while the writer records and the sampler wraps.
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
    while std::time::Instant::now() < deadline {
        check_monotone_deltas(&s);
        std::thread::yield_now();
    }
    let recorded = writer.join().expect("writer thread");
    s.stop();
    check_monotone_deltas(&s);
    let tl = s.hist_timelines();
    assert_eq!(tl.len(), 1);
    assert_eq!(
        tl[0].samples.last().unwrap().values[0],
        recorded,
        "final tail tick captured everything the writer recorded",
    );
    hat_trace::hist::reset();
}
