//! An in-bound WRITE lands by reference (`memory.rs` module docs): the
//! region keeps the sender's buffer at the deadline and copies it into its
//! storage only when another access touches the storage. These tests pin
//! that every accessor sees the bytes exactly from the deadline, that a
//! receiver asking for exactly the landed range takes the buffer itself,
//! and that nothing taken is changed by a later WRITE.

use std::sync::Arc;

use hat_rdma_sim::{
    now_ns, Endpoint, Fabric, MemoryRegion, Node, PollMode, PoolBuf, SendWr, SimConfig,
};

const AT: usize = 1024;
const LEN: usize = 4096;
const OLD: u8 = 0x11;
const NEW: u8 = 0xAB;
/// Fresh pairs an accessor's check may take until one look at the region
/// comes before its WRITE's deadline (~0.1 ms of slack at 100× time).
const LOOKS: usize = 20;

/// A writer endpoint, and on the target node an 8 KiB region filled with
/// `OLD`. Time runs 100× slow, so a WRITE's deadline is far enough out to
/// look at the region before it.
struct Pair {
    writer: Endpoint,
    target: Arc<Node>,
    region: MemoryRegion,
    _target_ep: Endpoint,
    _fabric: Fabric,
}

fn pair() -> Pair {
    let fabric = Fabric::new(SimConfig { time_scale: 100.0, ..SimConfig::default() });
    let a = fabric.add_node("writer");
    let b = fabric.add_node("target");
    let (writer, target_ep) = fabric.connect(&a, &b).unwrap();
    let region = target_ep.pd().register(2 * LEN).unwrap();
    region.write(0, &[OLD; 2 * LEN]).unwrap();
    Pair { writer, target: b, region, _target_ep: target_ep, _fabric: fabric }
}

impl Pair {
    /// WRITE `data` to `at`, and return its landing deadline.
    fn write(&self, at: usize, data: PoolBuf) -> u64 {
        let dst = self.region.remote_buf(at, data.len());
        self.writer.post_send(&[SendWr::write_staged(1, data, dst)]).unwrap();
        self.target.next_effect_deadline().expect("the WRITE is in flight")
    }

    /// Wait out `deadline` and apply what is due: the WRITE has landed by
    /// reference and nothing has touched the region since.
    fn land(&self, deadline: u64) {
        while now_ns() < deadline {
            std::hint::spin_loop();
        }
        self.target.drain_effects();
    }

    /// Read the WRITE's range, which drains what is due, and check the
    /// read against the effect itself: while the WRITE is still queued at
    /// `deadline` nothing of it is visible; once the read's drain applied
    /// it, the deadline had passed and all of it is. Returns whether the
    /// read came before the deadline — only then did it check the first
    /// half, so a caller retries a late look with a fresh pair.
    fn look_before(&self, deadline: u64, what: &str) -> bool {
        let seen = self.bytes(AT, LEN);
        match self.target.next_effect_deadline_locked() {
            Some(due) => {
                assert_eq!(due, deadline, "{what}: the WRITE is the next effect");
                assert_eq!(self.target.pending_effects(), 1, "{what}: and the only one");
                assert_eq!(seen, [OLD; LEN], "{what}: nothing is visible before the deadline");
                true
            }
            None => {
                assert!(now_ns() >= deadline, "{what}: applied before its deadline");
                assert_eq!(seen, [NEW; LEN], "{what}: all of it is visible once applied");
                false
            }
        }
    }

    fn bytes(&self, at: usize, len: usize) -> Vec<u8> {
        self.region.read_vec(at, len).unwrap()
    }
}

/// `OLD` bytes, then `NEW` from `AT` for `LEN`, over `at..at + len`.
fn expected(at: usize, len: usize) -> Vec<u8> {
    (at..at + len).map(|i| if (AT..AT + LEN).contains(&i) { NEW } else { OLD }).collect()
}

/// A named access to the region, with its own check of what it saw.
type Access<'a> = (&'a str, &'a dyn Fn(&Pair));

#[test]
fn a_landed_write_is_visible_from_its_deadline_to_every_accessor() {
    let remote_read = |p: &Pair| {
        let local = p.writer.pd().register(2 * LEN).unwrap();
        let src = p.region.remote_buf(AT - 8, LEN + 16);
        let read = SendWr::read(2, local.slice(0, LEN + 16), src).signaled();
        p.writer.post_send(&[read]).unwrap();
        p.writer.send_cq().poll_one(PollMode::Busy).unwrap().ok().unwrap();
        assert_eq!(local.read_vec(0, LEN + 16).unwrap(), expected(AT - 8, LEN + 16));
    };
    let accessors: [Access; 4] = [
        ("with_bytes", &|p| {
            assert!(p.region.with_bytes(AT, LEN, |b| b.iter().all(|&x| x == NEW)).unwrap())
        }),
        ("read", &|p| {
            let mut out = [0u8; 64];
            p.region.read(AT - 32, &mut out).unwrap();
            assert_eq!(out[..], expected(AT - 32, 64)[..]);
        }),
        ("a partially overlapping write_parts", &|p| {
            p.region.write_parts(AT - 2, &[b"xy", b"zw"]).unwrap();
            let mut want = expected(AT - 2, LEN + 4);
            want[..4].copy_from_slice(b"xyzw");
            assert_eq!(p.bytes(AT - 2, LEN + 4), want);
        }),
        ("a remote READ", &remote_read),
    ];
    for (what, access) in accessors {
        let p = (0..LOOKS).map(|_| pair()).find_map(|p| {
            let deadline = p.write(AT, PoolBuf::from_vec(vec![NEW; LEN]));
            p.look_before(deadline, what).then_some((p, deadline))
        });
        let (p, deadline) = p.unwrap_or_else(|| panic!("{what}: no look came before a deadline"));
        p.land(deadline);
        access(&p);
        assert!(p.region.take_landed(AT, LEN).unwrap().is_none(), "{what}: copied in");
    }
}

#[test]
fn a_second_write_to_the_region_copies_the_first_in() {
    let p = pair();
    p.land(p.write(0, PoolBuf::from_vec(vec![NEW; LEN])));
    p.land(p.write(LEN, PoolBuf::from_vec(vec![NEW ^ 1; LEN])));
    assert!(p.region.take_landed(0, LEN).unwrap().is_none(), "the first is not landed");
    let second = p.region.take_landed(LEN, LEN).unwrap().expect("the second is");
    assert_eq!(second[..], [NEW ^ 1; LEN]);
    assert_eq!(p.bytes(0, 2 * LEN), [[NEW; LEN], [OLD; LEN]].concat(), "the first was copied in");
}

#[test]
fn take_landed_returns_the_buffer_itself_only_on_an_exact_range_match() {
    let p = pair();
    let data = vec![NEW; LEN];
    let ptr = data.as_ptr();
    p.land(p.write(AT, PoolBuf::from_vec(data)));
    for (at, len) in [(AT, LEN - 1), (AT + 1, LEN - 1), (AT - 1, LEN + 1), (0, 2 * LEN)] {
        assert!(p.region.take_landed(at, len).unwrap().is_none(), "{at}+{len}");
    }
    let taken = p.region.take_landed(AT, LEN).unwrap().expect("an exact match");
    assert_eq!(taken.as_slice().as_ptr(), ptr, "the sender's buffer, not a copy");
    let back = taken.into_vec();
    assert_eq!(back.as_ptr(), ptr, "and its Vec, handed back");
    assert!(p.region.take_landed(AT, LEN).unwrap().is_none(), "taken once");
    // The taken bytes never reach the storage.
    assert_eq!(p.bytes(AT, LEN), [OLD; LEN]);
}

#[test]
fn a_write_landing_after_the_take_leaves_the_taken_buffer_unchanged() {
    let p = pair();
    p.land(p.write(AT, PoolBuf::from_vec(vec![NEW; LEN])));
    let taken = p.region.take_landed(AT, LEN).unwrap().unwrap();
    p.land(p.write(AT, PoolBuf::from_vec(vec![NEW ^ 1; LEN])));
    assert_eq!(p.bytes(AT, LEN), [NEW ^ 1; LEN], "the later WRITE landed");
    assert_eq!(taken[..], [NEW; LEN], "the taken buffer is the receiver's");
}
