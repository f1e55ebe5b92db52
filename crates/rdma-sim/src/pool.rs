//! A global, size-classed pool of reusable byte buffers.
//!
//! The simulator snapshots every SEND/WRITE payload at post time and
//! carries it inside a pending effect until the wire deadline passes; the
//! receive path then copies a SEND into its receive buffer, and a WRITE
//! lands in its region by reference (`memory.rs`). With plain `Vec`s
//! that is one heap allocation per message in the *client's* hot path —
//! enough to dominate a pipelined eager loop whose whole point is to cost
//! nothing but a doorbell. [`PoolBuf`] replaces those `Vec`s: buffers are
//! drawn from per-size-class free lists and returned on drop, so a warmed
//! steady-state workload performs zero allocations per message even when
//! buffers are released on a different thread (the server) than they were
//! acquired on (the client): buffers flow between threads through
//! process-global free lists, so the flow balances.
//!
//! In front of the global lists each thread keeps one *spare* buffer per
//! class: a drop fills the dropping thread's empty spare before it
//! touches the global list, and an acquire takes the thread's own spare
//! before it locks one. A ping-pong workload frees one buffer (the peer's
//! message) and acquires one (its own reply) per message on each thread,
//! so the steady state stays on the spare and the global lists' locks,
//! whose cache lines would otherwise cross between the two threads' cores
//! twice per message, go untouched. A thread's spares go back to the
//! global lists when it exits.
//!
//! Classes are powers of two from 64 B to 4 MiB; larger requests fall back
//! to one-shot heap allocation (far above `max_msg` in practice). Each
//! class retains a bounded number of free buffers so a burst cannot pin
//! memory forever.
//!
//! A caller that already owns its bytes in a `Vec` hands it over with
//! [`PoolBuf::from_vec`] and gets it back with [`PoolBuf::into_vec`]: the
//! `Vec` moves through the simulator (a WRITE payload, a landed message)
//! without a copy, and is never pooled — it was not drawn from a class, so
//! it is not returned to one.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Smallest size class: 64 B.
const MIN_CLASS_SHIFT: u32 = 6;
/// Largest size class: 4 MiB.
const MAX_CLASS_SHIFT: u32 = 22;
const NUM_CLASSES: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;
/// Free buffers retained per class; beyond this, drops free normally.
const MAX_RETAINED_PER_CLASS: usize = 4096;

static BUCKETS: [Mutex<Vec<Vec<u8>>>; NUM_CLASSES] =
    [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

/// The size class covering `len`, or `None` when `len` exceeds the largest
/// class (such buffers are not pooled).
fn class_for(len: usize) -> Option<usize> {
    let cap = len.next_power_of_two().max(1 << MIN_CLASS_SHIFT);
    if cap > 1 << MAX_CLASS_SHIFT {
        None
    } else {
        Some((cap.trailing_zeros() - MIN_CLASS_SHIFT) as usize)
    }
}

fn lock_bucket(class: usize) -> std::sync::MutexGuard<'static, Vec<Vec<u8>>> {
    BUCKETS[class].lock().unwrap_or_else(|e| e.into_inner())
}

/// Return `buf` to its class's global free list, if the list has room.
fn give_back(class: usize, buf: Vec<u8>) {
    let mut bucket = lock_bucket(class);
    if bucket.len() < MAX_RETAINED_PER_CLASS {
        bucket.push(buf);
    }
}

/// A thread's spare buffer per class (module docs); handed back to the
/// global lists when the thread exits.
struct Spares([Option<Vec<u8>>; NUM_CLASSES]);

impl Drop for Spares {
    fn drop(&mut self) {
        for (class, spare) in self.0.iter_mut().enumerate() {
            if let Some(buf) = spare.take() {
                give_back(class, buf);
            }
        }
    }
}

thread_local! {
    static SPARES: RefCell<Spares> = const { RefCell::new(Spares([const { None }; NUM_CLASSES])) };
}

/// This thread's spare of `class`, if it holds one. `None` also while the
/// thread is exiting (its spares are being handed back).
fn take_spare(class: usize) -> Option<Vec<u8>> {
    SPARES.try_with(|s| s.borrow_mut().0[class].take()).ok().flatten()
}

/// Keep `buf` as this thread's spare of `class` if that slot is empty;
/// otherwise (or while the thread is exiting) hand it back as it is.
fn keep_spare(class: usize, buf: Vec<u8>) -> Option<Vec<u8>> {
    let mut buf = Some(buf);
    let _ = SPARES.try_with(|s| {
        let slot = &mut s.borrow_mut().0[class];
        if slot.is_none() {
            *slot = buf.take();
        }
    });
    buf
}

/// A length-`len` view over a pooled buffer. Dereferences to `[u8]`;
/// returns its storage to the pool on drop (the dropping thread's spare,
/// else the global list).
pub struct PoolBuf {
    /// `None` only for the empty buffer (and transiently during drop or
    /// [`PoolBuf::into_vec`]).
    buf: Option<Vec<u8>>,
    len: usize,
    /// Size class to return the storage to; `None` → oversized or adopted
    /// ([`PoolBuf::from_vec`]), not pooled.
    class: Option<usize>,
}

impl PoolBuf {
    /// The empty buffer (no backing storage at all).
    pub fn empty() -> PoolBuf {
        PoolBuf { buf: None, len: 0, class: None }
    }

    /// Acquire a buffer of `len` bytes with *unspecified contents* (stale
    /// data from a previous user of the pooled storage). Use when every
    /// byte will be overwritten before being read.
    pub fn for_overwrite(len: usize) -> PoolBuf {
        if len == 0 {
            return PoolBuf::empty();
        }
        match class_for(len) {
            Some(class) => {
                let buf = take_spare(class)
                    .or_else(|| lock_bucket(class).pop())
                    .unwrap_or_else(|| vec![0u8; 1usize << (class as u32 + MIN_CLASS_SHIFT)]);
                PoolBuf { buf: Some(buf), len, class: Some(class) }
            }
            None => PoolBuf { buf: Some(vec![0u8; len]), len, class: None },
        }
    }

    /// Acquire a zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> PoolBuf {
        let mut b = PoolBuf::for_overwrite(len);
        b.as_mut_slice().fill(0);
        b
    }

    /// Acquire a buffer holding a copy of `data`.
    pub fn copy_from(data: &[u8]) -> PoolBuf {
        let mut b = PoolBuf::for_overwrite(data.len());
        b.as_mut_slice().copy_from_slice(data);
        b
    }

    /// Adopt `data` as it is — no copy, no reallocation, whatever its
    /// spare capacity. The buffer is never pooled: dropping it frees the
    /// `Vec`, and [`PoolBuf::into_vec`] hands the same `Vec` back.
    pub fn from_vec(data: Vec<u8>) -> PoolBuf {
        PoolBuf { len: data.len(), buf: Some(data), class: None }
    }

    /// The bytes as a `Vec`: an adopted or oversized buffer's own storage,
    /// truncated to the view; a pooled buffer's bytes copied out (its
    /// storage goes back to the pool).
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.class.is_some() {
            return self.as_slice().to_vec();
        }
        let mut buf = self.buf.take().unwrap_or_default();
        buf.truncate(self.len);
        buf
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(b) => &b[..self.len],
            None => &[],
        }
    }

    /// The bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.buf {
            Some(b) => &mut b[..self.len],
            None => &mut [],
        }
    }

    /// Shrink the view to `len` bytes (the storage keeps its class).
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len, "PoolBuf::truncate beyond length");
        self.len = len;
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let (Some(buf), Some(class)) = (self.buf.take(), self.class) {
            if let Some(buf) = keep_spare(class, buf) {
                give_back(class, buf);
            }
        }
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl Clone for PoolBuf {
    fn clone(&self) -> PoolBuf {
        PoolBuf::copy_from(self.as_slice())
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuf").field("len", &self.len).finish()
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for PoolBuf {
    fn from(data: &[u8]) -> PoolBuf {
        PoolBuf::copy_from(data)
    }
}

impl From<Vec<u8>> for PoolBuf {
    /// [`PoolBuf::from_vec`].
    fn from(data: Vec<u8>) -> PoolBuf {
        PoolBuf::from_vec(data)
    }
}

impl From<PoolBuf> for Vec<u8> {
    /// [`PoolBuf::into_vec`].
    fn from(buf: PoolBuf) -> Vec<u8> {
        buf.into_vec()
    }
}

impl PartialEq<[u8]> for PoolBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_cover_expected_range() {
        assert_eq!(class_for(0), Some(0));
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(64), Some(0));
        assert_eq!(class_for(65), Some(1));
        assert_eq!(class_for(4096), Some(6));
        assert_eq!(class_for(1 << 22), Some(16));
        assert_eq!(class_for((1 << 22) + 1), None);
    }

    #[test]
    fn copy_roundtrip_and_truncate() {
        let mut b = PoolBuf::copy_from(b"hello pool");
        assert_eq!(&b[..], b"hello pool");
        assert_eq!(b.len(), 10);
        b.truncate(5);
        assert_eq!(&b[..], b"hello");
        let c = b.clone();
        assert_eq!(&c[..], b"hello");
    }

    #[test]
    fn empty_buffer_has_no_storage() {
        let b = PoolBuf::empty();
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[u8]);
        let z = PoolBuf::copy_from(&[]);
        assert!(z.is_empty());
    }

    #[test]
    fn zeroed_is_zero_even_after_reuse() {
        // Dirty a pooled buffer, release it, re-acquire zeroed.
        {
            let mut b = PoolBuf::for_overwrite(100);
            b.as_mut_slice().fill(0xAB);
        }
        let z = PoolBuf::zeroed(100);
        assert!(z.iter().all(|&x| x == 0));
    }

    #[test]
    fn storage_is_reused_across_acquire_release() {
        // Use a 2 MiB-class buffer: no other test in this binary touches
        // that class, so the LIFO free list is deterministic here.
        let ptr = {
            let b = PoolBuf::for_overwrite((1 << 21) - 7);
            b.as_slice().as_ptr() as usize
        };
        let b2 = PoolBuf::for_overwrite((1 << 20) + 1);
        assert_eq!(b2.as_slice().as_ptr() as usize, ptr);
    }

    /// An adopted `Vec` keeps its storage both ways and is never pooled;
    /// a pooled buffer's `into_vec` copies and returns its storage.
    #[test]
    fn from_vec_is_never_pooled_and_into_vec_of_a_pooled_buffer_copies() {
        // The 1 MiB class: no other test in this binary touches it.
        let mut data = Vec::with_capacity((1 << 20) + 100);
        data.extend((0..(1 << 20)).map(|i| i as u8));
        let ptr = data.as_ptr() as usize;
        let adopted = PoolBuf::from_vec(data);
        assert_eq!(adopted.as_slice().as_ptr() as usize, ptr, "adopted without a copy");
        let back = adopted.into_vec();
        assert_eq!((back.as_ptr() as usize, back.len()), (ptr, 1 << 20));
        assert_eq!(back.capacity(), (1 << 20) + 100, "not reallocated");
        drop(PoolBuf::from_vec(back));
        assert!(lock_bucket(class_for(1 << 20).unwrap()).is_empty(), "adopted, so not pooled");

        let mut pooled = PoolBuf::for_overwrite(1 << 20);
        pooled.as_mut_slice().fill(7);
        pooled.truncate(10);
        let pooled_ptr = pooled.as_slice().as_ptr() as usize;
        let copy = pooled.into_vec();
        assert_eq!(copy, [7; 10]);
        assert_ne!(copy.as_ptr() as usize, pooled_ptr, "a pooled buffer is copied out");
        let reused = PoolBuf::for_overwrite(1 << 20);
        assert_eq!(reused.as_slice().as_ptr() as usize, pooled_ptr, "its storage was pooled");
        assert!(PoolBuf::empty().into_vec().is_empty());
    }

    #[test]
    fn oversized_buffers_work_unpooled() {
        let b = PoolBuf::zeroed((1 << 22) + 5);
        assert_eq!(b.len(), (1 << 22) + 5);
    }
}
