//! The load driver every multi-client harness runs on: ATB throughput
//! and Mix Comm (Figures 12–14), YCSB over HatKV (Figures 15/16), the
//! Figure 5 raw-protocol runs and the five sweeps.
//!
//! [`run_clients`] starts one thread per client. A thread runs its
//! setup (connect, then warm up), meets the others and the calling
//! thread at a barrier, then issues its ops through [`run_ops`] — the one
//! timed loop, which single-client latency runs call on their own thread.
//! The wall window runs from the barrier's release on the calling thread
//! to the last join, so no setup is inside it.
//!
//! **The warm rule.** A setup's warm-up issues one op of each kind the
//! workload issues, and nothing else: every channel the measured ops use
//! is open before the clock starts, and no channel the window never uses
//! is open at all (an idle busy-polled channel still spins a server
//! thread, and on a small host that thread slows the run).

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, OnceLock};

use hat_rdma_sim::now_ns;
use hat_trace::hist::Histogram;

/// What one op did: the label its latency is recorded under and how
/// many requests it completed (a `call_many` batch completes several).
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    /// The op's label (an RPC name or a YCSB op type).
    pub label: &'static str,
    /// Requests the op completed.
    pub requests: u64,
}

impl Completed {
    /// An op that completed one request.
    pub fn one(label: &'static str) -> Completed {
        Completed { label, requests: 1 }
    }
}

/// Per-label measurements of one run: each label's op latencies, over
/// hat-trace's log2 histogram, and the requests its ops completed.
#[derive(Debug, Default)]
pub struct RunMeasurement {
    per_op: BTreeMap<&'static str, (Histogram, u64)>,
    /// Wall-clock span of the run, ns.
    pub elapsed_ns: u64,
}

impl RunMeasurement {
    /// Record one op that took `latency_ns`.
    fn record(&mut self, op: Completed, latency_ns: u64) {
        let (latency, requests) = self.per_op.entry(op.label).or_default();
        latency.record(latency_ns);
        *requests += op.requests;
    }

    /// Requests completed across all labels.
    pub fn total_ops(&self) -> u64 {
        self.per_op.values().map(|(_, requests)| requests).sum()
    }

    /// Requests completed under `label`.
    pub fn requests(&self, label: &str) -> u64 {
        self.per_op.get(label).map_or(0, |(_, requests)| *requests)
    }

    /// Aggregate throughput in requests/s over `elapsed_ns`.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// The latency histogram of `label`'s ops (empty if there were none).
    pub fn histogram(&self, label: &str) -> &Histogram {
        static EMPTY: OnceLock<Histogram> = OnceLock::new();
        self.per_op.get(label).map_or_else(|| EMPTY.get_or_init(Histogram::default), |(h, _)| h)
    }
}

/// The one timed loop: `ops` ops from the calling thread, op `i` being
/// `op(i)`, each timed with `now_ns` around the whole call and recorded
/// under the label it returns. Stops at the first error; `elapsed_ns`
/// is the loop's span.
pub fn run_ops<E>(
    ops: usize,
    mut op: impl FnMut(usize) -> Result<Completed, E>,
) -> Result<RunMeasurement, E> {
    let mut m = RunMeasurement::default();
    let t0 = now_ns();
    for i in 0..ops {
        let t = now_ns();
        let done = op(i)?;
        m.record(done, now_ns() - t);
    }
    m.elapsed_ns = now_ns() - t0;
    Ok(m)
}

/// Run `clients` closed-loop clients of `ops` ops each. Client `c`'s
/// thread builds its state with `setup(c)` before the barrier, then
/// issues `op(&mut state, i)` for `i` in `0..ops` through [`run_ops`].
/// The measurement's `elapsed_ns` is the wall window: barrier release on
/// this thread to the last join.
///
/// A setup that fails or panics still reaches the barrier, so one bad
/// client never strands the others there: its error (the first, in
/// client order, of any setup or op) is returned once every client has
/// finished, and its panic is resumed here.
pub fn run_clients<C, E: Send>(
    clients: usize,
    ops: usize,
    setup: impl Fn(usize) -> Result<C, E> + Sync,
    op: impl Fn(&mut C, usize) -> Result<Completed, E> + Sync,
) -> Result<RunMeasurement, E> {
    let barrier = Barrier::new(clients + 1);
    let (barrier, setup, op) = (&barrier, &setup, &op);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let ready = panic::catch_unwind(AssertUnwindSafe(|| setup(c)));
                    barrier.wait();
                    let mut state = match ready {
                        Ok(state) => state?,
                        Err(payload) => panic::resume_unwind(payload),
                    };
                    run_ops(ops, |i| op(&mut state, i))
                })
            })
            .collect();
        barrier.wait();
        let t0 = now_ns();
        let mut all = RunMeasurement::default();
        let mut first_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(m)) => {
                    for (label, (latency, requests)) in m.per_op {
                        let (all_latency, all_requests) = all.per_op.entry(label).or_default();
                        all_latency.merge(&latency);
                        *all_requests += requests;
                    }
                }
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        all.elapsed_ns = now_ns() - t0;
        first_err.map_or(Ok(all), Err)
    })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    /// `f`'s result, or a failure once it has run 20 s: a client stranded
    /// at the barrier never returns.
    fn within_20s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(20)).expect("the driver returned")
    }

    fn op(_: &mut (), _: usize) -> Result<Completed, ()> {
        Ok(Completed::one("op"))
    }

    #[test]
    fn run_measurement_throughput() {
        let mut m = RunMeasurement::default();
        (0..1000).for_each(|_| m.record(Completed::one("get"), 5_000));
        (0..500).for_each(|_| m.record(Completed::one("multiput"), 20_000));
        m.elapsed_ns = 1_000_000_000; // 1 s
        assert_eq!(m.total_ops(), 1500);
        assert!((m.throughput_ops_s() - 1500.0).abs() < 1e-6);
        assert_eq!(m.requests("multiput"), 500);
        assert_eq!(m.histogram("multiput").mean(), 20_000);
        assert_eq!(m.histogram("put").count(), 0);
    }

    /// A batch op is one latency sample that completed many requests:
    /// throughput counts the requests, the histogram the ops.
    #[test]
    fn op_counts_include_batched_requests() {
        let batch = |_: &mut (), i: usize| {
            Ok::<_, ()>(if i.is_multiple_of(2) {
                Completed { label: "batch", requests: 8 }
            } else {
                Completed::one("single")
            })
        };
        let m = run_clients(3, 4, |_| Ok(()), batch).unwrap();
        assert_eq!((m.requests("batch"), m.requests("single")), (3 * 2 * 8, 3 * 2));
        assert_eq!(m.total_ops(), 3 * 2 * 9);
        assert_eq!(m.histogram("batch").count(), 3 * 2, "one sample per op");
    }

    /// One client's setup fails, another's panics: either way the driver
    /// returns once the others are done, instead of leaving them (and
    /// itself) waiting at the barrier for a client that never comes.
    #[test]
    fn a_failed_setup_returns_its_error_instead_of_hanging() {
        let setup = |c| if c == 2 { Err(()) } else { Ok(()) };
        assert!(within_20s(move || run_clients(4, 10, setup, op).is_err()));
        let setup = |c| if c == 0 { panic!("setup of client 0") } else { Ok(()) };
        let run = move || panic::catch_unwind(|| run_clients(3, 5, setup, op)).is_err();
        assert!(within_20s(run), "the setup's panic reaches the caller");
    }

    /// Setup takes 300 ms per client, the ops almost nothing: the wall
    /// window holds only the ops.
    #[test]
    fn the_wall_window_excludes_setup() {
        const SETUP: Duration = Duration::from_millis(300);
        let setup = |_| {
            std::thread::sleep(SETUP);
            Ok(())
        };
        let m = run_clients(2, 50, setup, op).unwrap();
        assert_eq!(m.total_ops(), 100);
        assert!(m.elapsed_ns < SETUP.as_nanos() as u64 / 2, "{} ns holds the setup", m.elapsed_ns);
    }
}
