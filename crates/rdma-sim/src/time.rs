//! Monotonic simulation clock and the one wait step of a simulated thread.
//!
//! The simulator runs on real wall-clock time: deadlines are nanosecond
//! timestamps relative to a process-wide epoch. Using real time keeps the
//! multithreaded behaviour (contention, scheduling, overlap) honest while
//! the cost model controls the magnitudes.
//!
//! Every modelled duration is realized the same way: as a *deadline* on
//! this clock. There is deliberately no "spin for N ns from now"
//! primitive. A wire time is a deadline computed at post time; a modelled
//! CPU cost is a [`crate::node::Charge`], a deadline fixed at the entry of
//! the work it stands for, so the host time that work takes counts
//! *toward* the modelled time instead of on top of it.
//!
//! Every wait of a simulated thread goes through [`wait_step`], one step
//! between two checks. A step whose awaited instant is already *scheduled*
//! — the earliest queued effect or completion, the end of the thread's own
//! charge or [`spin_until`] deadline — and at most [`SCHEDULED_WINDOW_NS`]
//! ahead waits it out reading only the clock: no yield, and no load of
//! anything the peer writes. Any other step yields to the host scheduler
//! (or, for a modelled pause, yield-polls to the pause's end), so the peer
//! that produces what the thread waits for can run on a host with fewer
//! cores than simulated threads, and a wait dry for
//! [`IDLE_BACKOFF_AFTER_NS`] naps. A clock-only wait holds a host core, so
//! a thread whose last yield ran another thread first — the host has more
//! runnable threads than cores, as in the many-client harnesses — yields
//! through scheduled instants too, until a yield finds its core free
//! again. What the model cannot absorb still leaks into results: host
//! work that outlasts its model, and the granularity of a yield (a waiter
//! that yields notices its instant up to one yield late). This step is the
//! seam a virtual clock replaces.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static YIELDS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's last yield ran another thread before it came
    /// back ([`CROWDED_YIELD_NS`]).
    static CROWDED: Cell<bool> = const { Cell::new(false) };
}

/// Nanoseconds since the process-wide simulation epoch.
///
/// The epoch is established lazily on first call; all simulator timestamps
/// (deadlines, link reservations, statistics) share it.
#[inline]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// How far ahead a scheduled instant may be for a wait step to wait it out
/// on the clock alone: about one event-mode message leg (a wire latency
/// plus the 2.6 µs wake-up). Anything further is yield-polled, so a host
/// core is never held for longer than the peer would take to need it.
pub const SCHEDULED_WINDOW_NS: u64 = 5_000;

/// A yield that returns this much later ran another thread first: with no
/// other runnable thread on its core, one takes a few hundred ns.
const CROWDED_YIELD_NS: u64 = 2_000;

/// Host yields the calling thread has taken in simulator waits so far.
/// For tests that check which waits give the host core away.
#[doc(hidden)]
pub fn yields() -> u64 {
    YIELDS.with(Cell::get)
}

/// Whether the calling thread's last yield ran another thread first, so
/// its next scheduled wait yields too. For tests that count yields.
#[doc(hidden)]
pub fn crowded() -> bool {
    CROWDED.with(Cell::get)
}

/// Yield the host core once; returns the clock value after it.
fn yield_now() -> u64 {
    YIELDS.with(|y| y.set(y.get() + 1));
    let before = now_ns();
    std::thread::yield_now();
    let after = now_ns();
    CROWDED.with(|c| c.set(after - before > CROWDED_YIELD_NS));
    after
}

/// Spin until the clock reaches `deadline_ns` (no-op if already past):
/// a deadline the thread computed itself, so once it is within
/// [`SCHEDULED_WINDOW_NS`] the rest is waited out on the clock alone
/// (unless the host is crowded: see [`wait_step`]).
#[inline]
pub fn spin_until(deadline_ns: u64) {
    let mut now = now_ns();
    while now < deadline_ns {
        // Dry since `now`: a deadline wait never naps.
        now = wait_step(now, deadline_ns, now, 0, || {});
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
#[inline]
fn long_idle(dry_since_ns: u64, now_ns: u64) -> bool {
    now_ns.saturating_sub(dry_since_ns) > IDLE_BACKOFF_AFTER_NS
}

/// One step between two checks of a simulated thread's wait — the single
/// rule for how every simulated thread waits. `now` is the clock value the
/// dry check used; `next` is the earliest instant already scheduled to
/// change what the thread waits for (`u64::MAX` if none is).
///
/// * `next` within [`SCHEDULED_WINDOW_NS`] after `now`, and the thread's
///   last yield found its core free: read the clock until it passes
///   `next`. Nothing else is read, so the step returns exactly when the
///   check can succeed, not one yield late. (A `next` at or before `now`
///   that the check did not find is another thread's to finish — say, one
///   still applying that effect — so it counts as unscheduled.)
/// * Otherwise, dry for over [`IDLE_BACKOFF_AFTER_NS`] since `dry_since`:
///   call `nap`, the caller's way of giving the host core away (a CQ naps
///   on its condvar, everything else sleeps [`IDLE_NAP`]).
/// * Otherwise yield once (`pause_ns == 0`, a busy poller's step), or
///   yield-poll the simulator clock until `now + pause_ns` (a modelled
///   periodic pause). Never an OS sleep: the kernel rounds a 3 µs sleep up
///   to its timer slack (≥ 50 µs), which would put host scheduler latency,
///   not the modelled pause, into every polled round trip. Each yield
///   notes whether it ran another thread first, which decides the first
///   case for the thread's next step.
///
/// Returns the clock value the step ended on: the `now` of the caller's
/// next check.
#[inline]
pub fn wait_step(now: u64, next: u64, dry_since: u64, pause_ns: u64, nap: impl FnOnce()) -> u64 {
    if next > now && next - now <= SCHEDULED_WINDOW_NS && !crowded() {
        loop {
            let t = now_ns();
            if t >= next {
                return t;
            }
        }
    }
    if long_idle(dry_since, now) {
        nap();
        now_ns()
    } else if pause_ns == 0 {
        yield_now()
    } else {
        let end = now + pause_ns;
        let mut t = now;
        while t < end {
            t = yield_now();
        }
        t
    }
}

/// A [`wait_step`] on something no completion announces and nothing
/// schedules (a memory word, the next READ of a polled board, a socket
/// read): yield once or pause `pause_ns`, and nap with a sleep once long
/// idle. A periodic poller does not register a spinner, so the simulated
/// node is charged nothing for the gap.
#[inline]
pub fn dry_pause(dry_since_ns: u64, now_ns: u64, pause_ns: u64) {
    wait_step(now_ns, u64::MAX, dry_since_ns, pause_ns, || std::thread::sleep(IDLE_NAP));
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

    /// A deadline inside the window is waited out without a yield; one
    /// past it yields until the rest fits the window.
    #[test]
    fn spin_until_yields_only_outside_the_window() {
        let y0 = yields();
        let t = now_ns();
        spin_until(t + SCHEDULED_WINDOW_NS / 2);
        assert!(now_ns() >= t + SCHEDULED_WINDOW_NS / 2);
        assert_eq!(yields(), y0, "a deadline inside the window");
        let t = now_ns();
        spin_until(t + 20 * SCHEDULED_WINDOW_NS);
        assert!(now_ns() >= t + 20 * SCHEDULED_WINDOW_NS);
        assert!(yields() > y0, "a deadline past the window");
    }

    #[test]
    fn dry_pause_waits_on_the_sim_clock_until_long_idle() {
        let t0 = now_ns();
        let y0 = yields();
        dry_pause(t0, t0, 20_000);
        assert!(now_ns() - t0 >= 20_000, "a hot pause lasts at least its length");
        assert!(yields() > y0, "and yields: nothing is scheduled");
        assert!(!long_idle(t0, t0 + IDLE_BACKOFF_AFTER_NS));
        assert!(long_idle(t0, t0 + IDLE_BACKOFF_AFTER_NS + 1));
        // Long idle: the step is a nap, whatever pause was asked for.
        spin_until(IDLE_BACKOFF_AFTER_NS + 2);
        let t1 = now_ns();
        dry_pause(t1 - IDLE_BACKOFF_AFTER_NS - 1, t1, 0);
        assert!(now_ns() - t1 >= IDLE_NAP.as_nanos() as u64);
    }

    /// A scheduled instant near enough is waited out even by a long-idle
    /// wait: it is known to end the wait sooner than a nap would.
    #[test]
    fn a_scheduled_instant_in_the_window_is_waited_out_without_a_nap() {
        spin_until(IDLE_BACKOFF_AFTER_NS + 2);
        let t = now_ns();
        let y0 = yields();
        let ended = wait_step(t, t + 1_000, 0, 0, || panic!("napped"));
        assert!(ended >= t + 1_000 && now_ns() >= ended);
        assert_eq!(yields(), y0);
    }

    /// On a host with more runnable threads than cores a clock-only wait
    /// would hold a core another thread needs: once a yield has run
    /// another thread first, a scheduled instant is yielded through too,
    /// and a yield that finds the core free again restores the clock-only
    /// wait.
    #[test]
    fn a_crowded_thread_yields_through_a_scheduled_instant() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let busy: Vec<_> = (0..2 * cores)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        // Yield until one runs another thread first (bounded: the busy
        // threads outnumber the cores two to one).
        for _ in 0..100_000 {
            if crowded() {
                break;
            }
            yield_now();
        }
        let was_crowded = crowded();
        let (y0, t) = (yields(), now_ns());
        wait_step(t, t + 1_000, t, 0, || {});
        let yielded = yields() - y0;
        stop.store(true, Ordering::Relaxed);
        busy.into_iter().for_each(|h| h.join().unwrap());
        assert!(was_crowded, "no yield ran another thread with {} busy threads", 2 * cores);
        assert_eq!(yielded, 1, "a crowded thread held its core through a scheduled wait");
        // Alone again: a free yield restores the clock-only wait.
        while crowded() {
            yield_now();
        }
        let (y0, t) = (yields(), now_ns());
        wait_step(t, t + 1_000, t, 0, || {});
        assert_eq!(yields(), y0);
    }
}
