//! The simulated message path between two host threads: what one
//! WRITE_WITH_IMM leaves in flight, that a one-sided target off the
//! connected peer never reaches the wire, the lock-free heads an idle poll
//! reads, what one drain of the effect queue takes and applies, which node
//! counts a message's receive side and when, the per-thread spare buffer
//! in front of the global pool, and which waits give the host core away
//! (counted, not timed).

use std::sync::{Arc, Mutex};

use hat_rdma_sim::time::{crowded, dry_pause, yields, SCHEDULED_WINDOW_NS};
use hat_rdma_sim::{
    now_ns, CostModel, CqNotify, Fabric, PollMode, PoolBuf, RdmaError, RecvWr, SendWr, SimConfig,
    MAX_INLINE,
};
use proptest::prelude::*;

/// A WRITE_WITH_IMM is one pending effect on the target node (a plain
/// WRITE is one too), and its completion is never observable before its
/// payload: a receiver that reads the region the moment it polls the
/// completion always finds that message's bytes.
#[test]
fn a_write_with_imm_is_one_pending_effect_and_its_completion_never_precedes_its_payload() {
    let f = Fabric::new(SimConfig::fast_test());
    let (a, b) = (f.add_node("a"), f.add_node("b"));
    let (c, s) = f.connect(&a, &b).unwrap();
    let dst = s.pd().register(64).unwrap();
    let rb = dst.remote_buf(0, 64);
    let scratch = s.pd().register(1).unwrap();

    // Counted on a wire slow enough that nothing lands in between.
    let slow = Fabric::new(SimConfig {
        cost: CostModel { wire_latency_ns: 50_000_000, ..CostModel::default() },
        ..SimConfig::default()
    });
    let (sa, sb) = (slow.add_node("a"), slow.add_node("b"));
    let (sc, ss) = slow.connect(&sa, &sb).unwrap();
    let sdst = ss.pd().register(64).unwrap();
    ss.post_recv(RecvWr::new(0, ss.pd().register(1).unwrap(), 0, 0)).unwrap();
    sc.post_send(&[SendWr::write_imm_inline(1, b"imm", sdst.remote_buf(0, 64), 7)]).unwrap();
    assert_eq!(sb.pending_effects(), 1, "one WRITE_WITH_IMM, one effect");
    sc.post_send(&[SendWr::write_inline(2, b"w", sdst.remote_buf(8, 8))]).unwrap();
    assert_eq!(sb.pending_effects(), 2, "a WRITE adds one more");
    assert_eq!(sa.pending_effects(), 0, "nothing queued at the sender");

    const N: u8 = 200;
    for i in 0..N as u64 {
        s.post_recv(RecvWr::new(i, scratch.clone(), 0, 0)).unwrap();
    }
    let (checked, next) = std::sync::mpsc::channel();
    let receiver = std::thread::spawn(move || {
        for i in 0..N {
            let comp = s.recv_cq().poll_timeout(PollMode::Busy, 2_000_000_000).unwrap();
            assert_eq!(comp.imm, Some(u32::from(i)));
            let seen = dst.read_vec(0, 64).unwrap();
            assert_eq!(seen, [i; 64], "completion {i} visible before its payload");
            checked.send(()).unwrap();
        }
    });
    // One message at a time, so each completion is checked against its
    // own payload, not a later one that already overwrote it.
    for i in 0..N {
        c.post_send(&[SendWr::write_imm_inline(u64::from(i), &[i; 64], rb, u32::from(i))]).unwrap();
        next.recv().unwrap();
    }
    receiver.join().unwrap();
}

/// A queue pair reaches only its connected peer. A WRITE, a WRITE_WITH_IMM
/// and a READ naming a live region on a third node are each refused at post
/// with `InvalidRKey`: nothing is charged (none waits out the 20 ms
/// doorbell), nothing is left in flight, and the staged payload stays with
/// its work request, which then posts through a queue pair connected to
/// that node.
#[test]
fn a_one_sided_target_on_a_third_node_is_refused_at_post_and_charges_nothing() {
    const DOORBELL_NS: u64 = 20_000_000;
    let cost = CostModel { doorbell_ns: DOORBELL_NS, ..CostModel::default() };
    let f = Fabric::new(SimConfig { cost, ..SimConfig::default() });
    let (a, b, third) = (f.add_node("a"), f.add_node("b"), f.add_node("third"));
    let (c, _s) = f.connect(&a, &b).unwrap();
    let (to_third, at_third) = f.connect(&a, &third).unwrap();
    let region = at_third.pd().register(64).unwrap();
    let off_peer = region.remote_buf(0, 64);
    let local = c.pd().register(64).unwrap();
    let wrs = [
        ("WRITE", SendWr::write_staged(1, PoolBuf::from_vec(vec![7; 64]), off_peer)),
        ("WRITE_WITH_IMM", SendWr::write_imm(2, local.slice(0, 64), off_peer, 9)),
        ("READ", SendWr::read(3, local.slice(0, 64), off_peer).signaled()),
    ];

    let stats0 = a.stats_snapshot();
    let t0 = now_ns();
    for (what, wr) in &wrs {
        let refused = c.post_send(std::slice::from_ref(wr));
        assert_eq!(refused, Err(RdmaError::InvalidRKey(off_peer.rkey)), "{what}");
    }
    let took = now_ns() - t0;
    let stats = a.stats_snapshot() - stats0;
    assert_eq!((stats.cpu_busy_ns, stats.doorbells, stats.wrs_posted, stats.memcpys), (0, 0, 0, 0));
    assert_eq!((stats.outbound_rdma, stats.bytes_tx), (0, 0));
    assert!(took < DOORBELL_NS, "three refused posts took {took} ns: one rang a doorbell");
    let in_flight = [&a, &b, &third].map(|n| n.pending_effects());
    assert_eq!(in_flight, [0, 0, 0], "nothing reached the wire");
    assert!(c.send_cq().try_poll().is_none());

    let staged = std::slice::from_ref(&wrs[0].1);
    assert_eq!(staged[0].op.wire_bytes(), 64, "the staged payload was restored");
    to_third.post_send(staged).unwrap();
    let deadline = now_ns() + 1_000_000_000;
    while region.read_vec(0, 64).unwrap() != [7; 64] {
        assert!(now_ns() < deadline, "the WRITE never landed through the third node's own QP");
    }
}

/// One step of a random message schedule against a two-node fabric.
#[derive(Debug, Clone, Copy)]
enum Step {
    Write(u8),
    WriteImm(u8),
    Send(u8),
    PostRecv,
    Drain,
    PollRecv,
    PollSend,
    Wait(u16),
    Kill,
    /// A chain of 2–8 WRs, one doorbell: WR `i`'s kind is bits `2i..2i+2`
    /// of the mix (WRITE, WRITE_WITH_IMM, SEND, READ).
    Chain(u8, u32),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..200).prop_map(Step::Write),
        (1u8..200).prop_map(Step::WriteImm),
        (1u8..200).prop_map(Step::Send),
        Just(Step::PostRecv),
        Just(Step::Drain),
        Just(Step::PollRecv),
        Just(Step::PollSend),
        (0u16..20_000).prop_map(Step::Wait),
        Just(Step::Kill),
        (2u8..=8, any::<u32>()).prop_map(|(len, mix)| Step::Chain(len, mix)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The node's mirrored earliest effect deadline and each CQ's mirrored
    /// earliest readiness — what an idle drain or poll reads instead of
    /// taking a lock — equal the heap minimum read under the lock after
    /// every push, drain, pop and kill of a seeded random schedule, chains
    /// that hand both nodes several effects at once included.
    #[test]
    fn lock_free_heads_equal_the_heap_minimum(steps in prop::collection::vec(step(), 1..80)) {
        let f = Fabric::new(SimConfig::fast_test());
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (c, s) = f.connect(&a, &b).unwrap();
        let dst = s.pd().register(256).unwrap();
        let ring = s.pd().register(256).unwrap();
        let rb = dst.remote_buf(0, 256);
        let (local, read_at) = (c.pd().register(64).unwrap(), dst.remote_buf(0, 64));
        for step in steps {
            // Posts after a kill fail; the heads must hold regardless.
            let _ = match step {
                Step::Write(len) => c.post_send(&[SendWr::write_inline(0, &[1; 200][..len as usize], rb)]),
                Step::WriteImm(len) => {
                    c.post_send(&[SendWr::write_imm_inline(0, &[2; 200][..len as usize], rb, 9)])
                }
                Step::Send(len) => {
                    c.post_send(&[SendWr::send_inline(0, &[3; 200][..len as usize]).signaled()])
                }
                Step::PostRecv => s.post_recv(RecvWr::new(0, ring.clone(), 0, 256)),
                Step::Drain => {
                    b.drain_effects();
                    Ok(())
                }
                Step::PollRecv => {
                    s.recv_cq().try_poll();
                    Ok(())
                }
                Step::PollSend => {
                    c.send_cq().try_poll();
                    Ok(())
                }
                Step::Wait(ns) => {
                    hat_rdma_sim::time::spin_until(hat_rdma_sim::now_ns() + u64::from(ns));
                    Ok(())
                }
                Step::Kill => f.kill_node("b").map(|_| ()),
                Step::Chain(len, mix) => {
                    let chain: Vec<SendWr> = (0..u32::from(len))
                        .map(|i| match (mix >> (2 * i)) & 3 {
                            0 => SendWr::write_inline(0, &[4; 64], rb),
                            1 => SendWr::write_imm_inline(0, &[5; 64], rb, i),
                            2 => SendWr::send_inline(0, &[6; 64]).signaled(),
                            _ => SendWr::read(0, local.slice(0, 64), read_at).signaled(),
                        })
                        .collect();
                    c.post_send(&chain)
                }
            };
            prop_assert_eq!(b.next_effect_deadline(), b.next_effect_deadline_locked(), "{:?}", step);
            prop_assert_eq!(a.next_effect_deadline(), a.next_effect_deadline_locked(), "{:?}", step);
            for cq in [s.recv_cq(), s.send_cq(), c.recv_cq(), c.send_cq()] {
                prop_assert_eq!(cq.next_ready_at(), cq.next_ready_at_locked(), "{:?}", step);
            }
        }
    }
}

/// A notifier that runs `f` on the first completion pushed on the CQ it is
/// registered with — in the thread applying the effect that pushed it,
/// in the middle of that thread's drain — and does nothing after.
struct OnFirstCompletion(Mutex<Option<Box<dyn FnOnce() + Send>>>);

impl OnFirstCompletion {
    fn new(f: impl FnOnce() + Send + 'static) -> Arc<OnFirstCompletion> {
        Arc::new(OnFirstCompletion(Mutex::new(Some(Box::new(f)))))
    }
}

impl CqNotify for OnFirstCompletion {
    fn notify(&self) {
        let f = self.0.lock().unwrap().take();
        if let Some(f) = f {
            f();
        }
    }
}

/// A chain of zero-length WRITE_WITH_IMMs shares one deadline (nothing to
/// serialize on either link): the drain applies them in posting order, so
/// their completions reach the receive CQ in that order.
#[test]
fn a_chain_whose_effects_share_a_deadline_applies_them_in_posting_order() {
    const N: u32 = 8;
    let f = Fabric::new(SimConfig::fast_test());
    let (a, b) = (f.add_node("a"), f.add_node("b"));
    let (c, s) = f.connect(&a, &b).unwrap();
    let dst = s.pd().register(8).unwrap();
    let rb = dst.remote_buf(0, 0);
    for i in 0..u64::from(N) {
        s.post_recv(RecvWr::new(i, dst.clone(), 0, 0)).unwrap();
    }
    let chain: Vec<SendWr> = (0..N).map(|i| SendWr::write_imm_inline(0, &[], rb, i)).collect();
    c.post_send(&chain).unwrap();
    assert_eq!(b.pending_effects(), N as usize);
    let due = b.next_effect_deadline().unwrap();
    hat_rdma_sim::time::spin_until(due);
    let before = b.stats_snapshot();
    b.drain_effects();
    let drained = b.stats_snapshot() - before;
    assert_eq!((drained.effects_applied, drained.effect_drains), (u64::from(N), 1));
    let imms: Vec<_> = std::iter::from_fn(|| s.recv_cq().try_poll()).map(|c| c.imm).collect();
    assert_eq!(imms, (0..N).map(Some).collect::<Vec<_>>());
}

/// One drain takes what was due at its cutoff and nothing else: a chain
/// whose deadline is still ahead stays queued, and so does a chain the
/// sender posts from inside the drain's apply (a completion notifier). The
/// next drain past both deadlines applies the rest. The counters add one
/// drain each time and the lateness the cutoff found.
#[test]
fn one_drain_applies_what_was_due_at_its_cutoff_and_leaves_what_its_apply_pushed() {
    const WIRE_NS: u64 = 20_000_000;
    let cost = CostModel { wire_latency_ns: WIRE_NS, ..CostModel::default() };
    let f = Fabric::new(SimConfig { cost, ..SimConfig::default() });
    let (a, b) = (f.add_node("a"), f.add_node("b"));
    let (c, s) = f.connect(&a, &b).unwrap();
    let c = Arc::new(c);
    let dst = s.pd().register(64).unwrap();
    let rb = dst.remote_buf(0, 64);
    for i in 0..8 {
        s.post_recv(RecvWr::new(i, dst.clone(), 0, 0)).unwrap();
    }
    let writes = |n: u32, tag: u8| -> Vec<SendWr> {
        (0..n).map(|i| SendWr::write_imm_inline(0, &[tag; 8], rb, i)).collect()
    };
    let sender = c.clone();
    let during = writes(2, 3);
    let notifier = OnFirstCompletion::new(move || sender.post_send(&during).unwrap());
    s.recv_cq().register_notify(&notifier);

    c.post_send(&writes(3, 1)).unwrap();
    hat_rdma_sim::time::spin_until(b.next_effect_deadline().unwrap() + WIRE_NS / 2);
    c.post_send(&writes(1, 2)).unwrap(); // due a wire time from now
    let before = b.stats_snapshot();
    b.drain_effects();
    let first = b.stats_snapshot() - before;
    assert_eq!((first.effects_applied, first.effect_drains), (3, 1));
    assert!(first.effect_late_ns > WIRE_NS, "3 effects, each half a wire time late: {first:?}");
    assert_eq!(b.pending_effects(), 1 + 2, "the later chain and the one pushed mid-drain");
    assert_eq!(b.next_effect_deadline(), b.next_effect_deadline_locked());

    hat_rdma_sim::time::spin_until(b.next_effect_deadline_locked().unwrap() + 2 * WIRE_NS);
    b.drain_effects();
    let both = b.stats_snapshot() - before;
    assert_eq!((both.effects_applied, both.effect_drains), (6, 2));
    assert_eq!(b.pending_effects(), 0);
    assert_eq!(b.next_effect_deadline(), None);
}

/// A node killed while a drain applies its batch applies nothing after the
/// kill: the first WRITE_WITH_IMM of a due chain lands and completes, its
/// completion's notifier kills the node, and the other three never land.
#[test]
fn a_kill_during_a_drain_stops_the_rest_of_its_batch() {
    let f = Fabric::new(SimConfig::fast_test());
    let (a, b) = (f.add_node("a"), f.add_node("b"));
    let (c, s) = f.connect(&a, &b).unwrap();
    let dst = s.pd().register(32).unwrap();
    for i in 0..4 {
        s.post_recv(RecvWr::new(i, dst.clone(), 0, 0)).unwrap();
    }
    let victim = b.clone();
    let notifier = OnFirstCompletion::new(move || victim.kill());
    s.recv_cq().register_notify(&notifier);
    let chain: Vec<SendWr> = (0..4u8)
        .map(|i| {
            let at = dst.remote_buf(8 * usize::from(i), 8);
            SendWr::write_imm_inline(0, &[i + 1; 8], at, u32::from(i))
        })
        .collect();
    c.post_send(&chain).unwrap();
    hat_rdma_sim::time::spin_until(b.next_effect_deadline_locked().unwrap() + 1_000_000);
    let before = b.stats_snapshot();
    b.drain_effects();
    let drained = b.stats_snapshot() - before;
    assert!(!b.is_alive());
    assert_eq!((drained.effects_applied, drained.inbound_rdma), (1, 1));
    let mut landed = [0u8; 32];
    landed[..8].fill(1);
    assert_eq!(dst.read_vec(0, 32).unwrap(), landed, "only the first WRITE landed");
    assert_eq!(b.pending_effects(), 0);
}

/// Every delivered SEND, WRITE and WRITE_WITH_IMM counts its bytes in
/// `bytes_rx` once, on the receiving node, when it lands — not at post
/// time; the one-sided two also count one `inbound_rdma` there (a SEND is
/// not one-sided). The sender counts its transmit side at post time and
/// no receive side at all. A message to a node killed before its deadline
/// counts on the receiving side of neither node.
#[test]
fn each_delivered_message_counts_its_receive_side_once_on_the_receiving_node() {
    const LEN: usize = 100;
    const WIRE_NS: u64 = 20_000_000;
    let payload = [5u8; LEN];
    const { assert!(LEN <= MAX_INLINE) };
    let kinds: [(&str, u64); 3] = [("send", 0), ("write", 1), ("write_imm", 1)];
    for (kill, (kind, inbound)) in [false, true].into_iter().flat_map(|k| kinds.map(|x| (k, x))) {
        let f = Fabric::new(SimConfig {
            cost: CostModel { wire_latency_ns: WIRE_NS, ..CostModel::default() },
            ..SimConfig::default()
        });
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (c, s) = f.connect(&a, &b).unwrap();
        let dst = s.pd().register(LEN).unwrap();
        let rb = dst.remote_buf(0, LEN);
        s.post_recv(RecvWr::new(0, dst.clone(), 0, LEN)).unwrap();
        let (a0, b0) = (a.stats_snapshot(), b.stats_snapshot());
        let wr = match kind {
            "send" => SendWr::send_inline(1, &payload),
            "write" => SendWr::write_inline(1, &payload, rb),
            _ => SendWr::write_imm_inline(1, &payload, rb, 3),
        };
        let posted = hat_rdma_sim::now_ns();
        c.post_send(&[wr]).unwrap();
        let (da, db) = (a.stats_snapshot() - a0, b.stats_snapshot() - b0);
        assert_eq!((da.bytes_tx, da.outbound_rdma), (LEN as u64, inbound), "{kind}: sender");
        assert_eq!((db.bytes_rx, db.inbound_rdma), (0, 0), "{kind}: counted before it landed");

        if kill {
            f.kill_node("b").unwrap();
        }
        hat_rdma_sim::time::spin_until(posted + 2 * WIRE_NS);
        b.drain_effects();
        b.drain_effects();
        let (da, db) = (a.stats_snapshot() - a0, b.stats_snapshot() - b0);
        assert_eq!((da.bytes_rx, da.inbound_rdma), (0, 0), "{kind} (kill {kill}): sender");
        let want = if kill { (0, 0) } else { (LEN as u64, inbound) };
        assert_eq!((db.bytes_rx, db.inbound_rdma), want, "{kind} (kill {kill}): receiver");
        if !kill {
            assert_eq!(dst.read_vec(0, LEN).unwrap(), payload, "{kind}: landed");
        }
    }
}

/// A thread that frees a buffer keeps it as its spare and gets that same
/// buffer back on its next acquire of the class, while the global list
/// serves other threads what it holds; when the thread exits its spare is
/// back in the global list. (The 4 MiB class is this test binary's alone,
/// so the LIFO free list tells where each buffer went.)
#[test]
fn a_thread_reuses_its_own_spare_and_hands_it_back_when_it_exits() {
    const LEN: usize = 3 << 20;
    let ptr = |b: &PoolBuf| b.as_ptr() as usize;
    let (spare, global) = std::thread::spawn(move || {
        let (first, second) = (PoolBuf::for_overwrite(LEN), PoolBuf::for_overwrite(LEN));
        let (spare, global) = (ptr(&first), ptr(&second));
        drop(first); // this thread's spare
        drop(second); // the spare is taken: to the global list
        let elsewhere = std::thread::spawn(move || ptr(&PoolBuf::for_overwrite(LEN)));
        assert_eq!(elsewhere.join().unwrap(), global, "another thread gets the global buffer");
        let again = PoolBuf::for_overwrite(LEN);
        assert_eq!(ptr(&again), spare, "the spare comes back without the global list");
        (spare, global)
    })
    .join()
    .unwrap();
    // The exited thread's spare went back last, so it is on top.
    let (first, second) = (PoolBuf::for_overwrite(LEN), PoolBuf::for_overwrite(LEN));
    assert_eq!((ptr(&first), ptr(&second)), (spare, global));
}

/// A poll for a WRITE_WITH_IMM already queued within the scheduling window
/// waits it out on the clock: it returns with no host yield, and never
/// before the effect's deadline (plus the wake-up, for an event poll).
/// A trial counts only if the deadline was still ahead when the poll
/// began and the thread's last yield found its core free (a crowded host
/// — say, this binary's other tests and their threads — yields through
/// scheduled instants too); a slow or crowded host just runs more trials.
#[test]
fn a_poll_for_an_arrival_queued_inside_the_window_waits_it_out_without_yielding() {
    // Three µs of wire: the deadline lands inside the window, and so does
    // the event wake-up counted from it.
    let cost = CostModel { wire_latency_ns: 3_000, ..CostModel::default() };
    let f = Fabric::new(SimConfig { cost, ..SimConfig::default() });
    let wake = f.config().scaled(f.config().cost.event_wakeup_ns);
    assert!(wake <= SCHEDULED_WINDOW_NS);
    let (a, b) = (f.add_node("a"), f.add_node("b"));
    let (c, s) = f.connect(&a, &b).unwrap();
    let dst = s.pd().register(64).unwrap();
    let rb = dst.remote_buf(0, 64);
    let ring = s.pd().register(1).unwrap();
    for (mode, after) in [(PollMode::Busy, 0), (PollMode::Event, wake)] {
        let mut exercised = 0;
        for i in 0..200_000 {
            if exercised == 20 {
                break;
            }
            s.post_recv(RecvWr::new(i, ring.clone(), 0, 0)).unwrap();
            c.post_send(&[SendWr::write_imm_inline(i, &[1; 64], rb, 7)]).unwrap();
            let due = b.next_effect_deadline().expect("the WRITE_WITH_IMM is queued");
            let (y0, free, polled) = (yields(), !crowded(), now_ns());
            let comp = s.recv_cq().poll_timeout(mode, 1_000_000_000).unwrap();
            let (took_yields, done) = (yields() - y0, now_ns());
            assert_eq!(comp.imm, Some(7));
            assert!(done >= due + after, "{mode:?}: returned {} ns early", due + after - done);
            if free && polled < due && due - polled <= SCHEDULED_WINDOW_NS {
                assert_eq!(took_yields, 0, "{mode:?}: a scheduled arrival was yield-polled");
                exercised += 1;
            }
        }
        assert!(exercised > 0, "{mode:?}: no trial began before its deadline");
    }
}

/// With nothing queued, a poll gives the core to the peer that has to
/// produce what it waits for: both arms yield before their timeout.
#[test]
fn a_poll_with_nothing_queued_still_yields_before_its_timeout() {
    let f = Fabric::new(SimConfig::default());
    let (c, _s) = f.connect(&f.add_node("a"), &f.add_node("b")).unwrap();
    for mode in [PollMode::Busy, PollMode::Event] {
        let y0 = yields();
        assert_eq!(c.recv_cq().poll_timeout(mode, 50_000), Err(RdmaError::Timeout));
        assert!(yields() > y0, "{mode:?}: an unannounced wait held the core");
    }
}

/// A modelled periodic pause with nothing scheduled — the memory poll of a
/// READ-based protocol — yields through its length rather than holding
/// the core until its end.
#[test]
fn a_periodic_pause_with_nothing_scheduled_still_yields() {
    let (y0, t) = (yields(), now_ns());
    dry_pause(t, t, SCHEDULED_WINDOW_NS / 2);
    assert!(now_ns() >= t + SCHEDULED_WINDOW_NS / 2);
    assert!(yields() > y0, "a periodic pause held the core");
}
