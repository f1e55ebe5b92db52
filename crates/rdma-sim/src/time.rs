//! Monotonic simulation clock and spin-wait primitives.
//!
//! The simulator runs on real wall-clock time: deadlines are nanosecond
//! timestamps relative to a process-wide epoch. Using real time keeps the
//! multithreaded behaviour (contention, scheduling, overlap) honest while
//! the cost model controls the magnitudes.
//!
//! Every modelled duration is realized the same way: as a *deadline* on
//! this clock, waited out with [`spin_until`]. There is deliberately no
//! "spin for N ns from now" primitive. A wire time is a deadline computed
//! at post time; a modelled CPU cost is a [`crate::node::Charge`], a
//! deadline fixed at the entry of the work it stands for, so the host time
//! that work takes counts *toward* the modelled time instead of on top of
//! it. What the model cannot absorb still leaks into results: host work
//! that outlasts its model, and the granularity of a yield-polling loop
//! (a waiter notices a deadline up to one yield late).

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide simulation epoch.
///
/// The epoch is established lazily on first call; all simulator timestamps
/// (deadlines, link reservations, statistics) share it.
#[inline]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Spin until the clock reaches `deadline_ns` (no-op if already past).
///
/// Used to realize wire-time and deadline waits. Each iteration yields to
/// the OS scheduler: simulated durations are lower bounds on wall time,
/// and peer threads (the other side of an RPC) can make progress even on
/// hosts with fewer cores than simulated threads — without the yield, a
/// single-core host serializes spinning peers on scheduler timeslices
/// and distorts every latency by milliseconds.
#[inline]
pub fn spin_until(deadline_ns: u64) {
    while now_ns() < deadline_ns {
        std::thread::yield_now();
    }
}

/// A wait that has been dry this long stops yield-polling and naps. Far
/// above any in-flight RPC's completion time, so hot-path latency never
/// meets a nap; an idle server connection does, and stops starving the
/// *active* threads of a host with fewer cores than simulated pollers.
pub const IDLE_BACKOFF_AFTER_NS: u64 = 300_000;

/// Length of one long-idle nap (host time: the OS adds its timer slack).
pub const IDLE_NAP: std::time::Duration = std::time::Duration::from_micros(30);

/// Whether a wait dry since `dry_since_ns` should nap rather than yield.
/// Waiters that can be woken (a CQ's condvar) nap on that; the rest call
/// [`dry_pause`].
#[inline]
pub fn long_idle(dry_since_ns: u64, now_ns: u64) -> bool {
    now_ns.saturating_sub(dry_since_ns) > IDLE_BACKOFF_AFTER_NS
}

/// One step between two checks of a simulated thread's wait — the single
/// rule for how such a thread waits on something no completion announces
/// (a memory word, the next READ of a polled board).
///
/// The wait is on the *simulator* clock: yield-poll until
/// `now_ns + pause_ns` (`pause_ns == 0` is one bare yield, the busy
/// poller's step). It is never an OS sleep: the kernel rounds a 3 µs
/// sleep up to its timer slack (≥ 50 µs), which would put host scheduler
/// latency, not the modelled pause, into every polled round trip. Nor
/// does it register a spinner: a periodic poller parks between checks, so
/// the simulated node is charged nothing for the gap. Only a wait dry for
/// [`IDLE_BACKOFF_AFTER_NS`] gives the host core away with a real nap.
#[inline]
pub fn dry_pause(dry_since_ns: u64, now_ns: u64, pause_ns: u64) {
    if long_idle(dry_since_ns, now_ns) {
        std::thread::sleep(IDLE_NAP);
    } else if pause_ns == 0 {
        std::thread::yield_now();
    } else {
        spin_until(now_ns + pause_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn spin_until_waits_at_least_requested() {
        let start = now_ns();
        spin_until(start + 50_000); // 50 us
        assert!(now_ns() - start >= 50_000);
    }

    #[test]
    fn spin_until_past_deadline_returns_immediately() {
        let start = now_ns();
        spin_until(start.saturating_sub(1));
        // Should not have taken measurable time (few microseconds of slack).
        assert!(now_ns() - start < 1_000_000);
    }

    #[test]
    fn dry_pause_waits_on_the_sim_clock_until_long_idle() {
        let t0 = now_ns();
        dry_pause(t0, t0, 20_000);
        assert!(now_ns() - t0 >= 20_000, "a hot pause lasts at least its length");
        assert!(!long_idle(t0, t0 + IDLE_BACKOFF_AFTER_NS));
        assert!(long_idle(t0, t0 + IDLE_BACKOFF_AFTER_NS + 1));
        // Long idle: the step is a nap, whatever pause was asked for.
        spin_until(IDLE_BACKOFF_AFTER_NS + 2);
        let t1 = now_ns();
        dry_pause(t1 - IDLE_BACKOFF_AFTER_NS - 1, t1, 0);
        assert!(now_ns() - t1 >= IDLE_NAP.as_nanos() as u64);
    }
}
