//! Fixed-size, overwrite-oldest time-series ring.
//!
//! One [`TsRing`] holds the rolling history of one series: `cap` slots,
//! each a timestamp plus `width` `u64` values, in one flat buffer
//! allocated up front. It is plain data: the sampler pushes and readers
//! snapshot under the lock that guards the sampler's series, so a reader
//! always sees whole samples. A push never allocates.

/// One sample read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsSample {
    /// Absolute sample index (total pushes before this one).
    pub idx: u64,
    /// Capture timestamp, ns since the simulation epoch.
    pub ts_ns: u64,
    /// The `width` values captured.
    pub values: Vec<u64>,
}

/// The ring. Width (values per slot) is fixed at construction.
pub struct TsRing {
    width: usize,
    cap: usize,
    /// Total samples ever pushed; sample `i` lives in slot `i % cap` until
    /// sample `i + cap` overwrites it.
    pushed: u64,
    /// `cap` slots of `1 + width` values each; `[0]` is the timestamp.
    data: Box<[u64]>,
}

impl TsRing {
    /// A ring retaining the newest `cap` samples of `width` values each.
    pub fn new(cap: usize, width: usize) -> TsRing {
        assert!(cap >= 2, "a delta needs at least two retained samples");
        assert!(width >= 1);
        TsRing { width, cap, pushed: 0, data: vec![0; cap * (1 + width)].into_boxed_slice() }
    }

    /// Append one sample, overwriting the oldest once the ring is full.
    pub fn push(&mut self, ts_ns: u64, values: &[u64]) {
        assert_eq!(values.len(), self.width, "slot width mismatch");
        let base = (self.pushed % self.cap as u64) as usize * (1 + self.width);
        self.data[base] = ts_ns;
        self.data[base + 1..base + 1 + self.width].copy_from_slice(values);
        self.pushed += 1;
    }

    /// Every retained sample, oldest first. Reader path only (allocates).
    pub fn snapshot(&self) -> Vec<TsSample> {
        let first = self.pushed.saturating_sub(self.cap as u64);
        (first..self.pushed)
            .map(|idx| {
                let base = (idx % self.cap as u64) as usize * (1 + self.width);
                TsSample {
                    idx,
                    ts_ns: self.data[base],
                    values: self.data[base + 1..base + 1 + self.width].to_vec(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushed five times over, a ring of capacity N keeps exactly the
    /// newest N samples, oldest first, each with its own timestamp and
    /// values.
    #[test]
    fn a_wrapped_ring_keeps_exactly_the_newest_cap_samples() {
        const N: u64 = 4;
        let mut r = TsRing::new(N as usize, 2);
        r.push(0, &[0, 0]);
        assert_eq!(r.snapshot().len(), 1, "short of capacity: what was pushed");
        for i in 1..5 * N {
            r.push(i * 10, &[i, 3 * i]);
        }
        let snap = r.snapshot();
        let idxs: Vec<u64> = snap.iter().map(|s| s.idx).collect();
        assert_eq!(idxs, (4 * N..5 * N).collect::<Vec<_>>(), "the newest N, contiguous");
        for s in &snap {
            assert_eq!(s.ts_ns, s.idx * 10);
            assert_eq!(s.values, vec![s.idx, 3 * s.idx]);
        }
    }
}
