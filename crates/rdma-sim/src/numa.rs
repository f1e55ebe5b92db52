//! NUMA topology model and thread core-binding.
//!
//! The paper's testbed nodes are dual-socket Skylakes with the NIC attached
//! to one socket. HatRPC's NUMA-binding hints pin client threads to the
//! NIC-local socket when the node is under-subscribed. We model the effect
//! (not the mechanics) of binding: a thread bound to a remote NUMA node
//! pays [`crate::CostModel::remote_numa_factor`] on CPU-side costs, and an
//! unbound thread pays a blended penalty, because on a real machine the
//! scheduler places unbound threads on either socket.

use std::cell::Cell;

/// Static NUMA description of a simulated node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    /// Total cores across all NUMA nodes.
    pub cores: u32,
    /// Number of NUMA nodes (sockets).
    pub numa_nodes: u32,
    /// NUMA node the NIC is attached to.
    pub nic_node: u32,
}

impl NumaTopology {
    /// Build a topology; `cores` are split evenly across `numa_nodes`.
    pub fn new(cores: u32, numa_nodes: u32, nic_node: u32) -> Self {
        assert!(numa_nodes > 0, "need at least one NUMA node");
        assert!(nic_node < numa_nodes, "NIC node out of range");
        NumaTopology { cores, numa_nodes, nic_node }
    }

    /// Cores per NUMA node.
    #[inline]
    pub fn cores_per_numa(&self) -> u32 {
        (self.cores / self.numa_nodes).max(1)
    }

    /// NUMA node that owns a given core id.
    #[inline]
    pub fn numa_of_core(&self, core: u32) -> u32 {
        (core / self.cores_per_numa()).min(self.numa_nodes - 1)
    }

    /// Whether `core` is on the NIC-local NUMA node.
    #[inline]
    pub fn core_is_nic_local(&self, core: u32) -> bool {
        self.numa_of_core(core) == self.nic_node
    }
}

impl Default for NumaTopology {
    fn default() -> Self {
        NumaTopology::new(28, 2, 0)
    }
}

/// Thread-local core binding, mirroring `sched_setaffinity`-style pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreBinding {
    /// Not pinned; the scheduler may place the thread on either socket.
    #[default]
    Unbound,
    /// Pinned to a specific core id.
    Core(u32),
}

thread_local! {
    static BINDING: Cell<CoreBinding> = const { Cell::new(CoreBinding::Unbound) };
}

/// Pin the current thread to `core` for the duration of the returned guard.
///
/// Dropping the guard restores the previous binding, so scoped binding
/// composes (the HatRPC engine binds per-connection worker threads).
pub fn bind_current_thread(core: u32) -> BindGuard {
    let prev = BINDING.with(|b| b.replace(CoreBinding::Core(core)));
    BindGuard { prev }
}

/// Current thread's binding.
pub fn current_binding() -> CoreBinding {
    BINDING.with(|b| b.get())
}

/// RAII guard restoring the previous binding on drop.
#[derive(Debug)]
pub struct BindGuard {
    prev: CoreBinding,
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        BINDING.with(|b| b.set(self.prev));
    }
}

/// NUMA penalty multiplier for the current thread's CPU-side NIC costs.
///
/// * Bound to a NIC-local core → `1.0` (best case, what the paper's NUMA
///   binding hint buys).
/// * Bound to a remote core → `remote_factor`.
/// * Unbound → blended average over sockets, because the OS scheduler
///   places the thread on either one.
pub fn numa_penalty(topology: &NumaTopology, remote_factor: f64) -> f64 {
    match current_binding() {
        CoreBinding::Core(c) => {
            if topology.core_is_nic_local(c) {
                1.0
            } else {
                remote_factor
            }
        }
        CoreBinding::Unbound => {
            let local = 1.0;
            let remote = remote_factor * (topology.numa_nodes as f64 - 1.0);
            (local + remote) / topology.numa_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_numa_mapping() {
        let t = NumaTopology::new(28, 2, 0);
        assert_eq!(t.cores_per_numa(), 14);
        assert_eq!(t.numa_of_core(0), 0);
        assert_eq!(t.numa_of_core(13), 0);
        assert_eq!(t.numa_of_core(14), 1);
        assert_eq!(t.numa_of_core(27), 1);
        assert!(t.core_is_nic_local(3));
        assert!(!t.core_is_nic_local(20));
    }

    #[test]
    fn binding_is_scoped_and_restores() {
        assert_eq!(current_binding(), CoreBinding::Unbound);
        {
            let _g = bind_current_thread(5);
            assert_eq!(current_binding(), CoreBinding::Core(5));
            {
                let _g2 = bind_current_thread(20);
                assert_eq!(current_binding(), CoreBinding::Core(20));
            }
            assert_eq!(current_binding(), CoreBinding::Core(5));
        }
        assert_eq!(current_binding(), CoreBinding::Unbound);
    }

    #[test]
    fn penalty_reflects_binding() {
        let t = NumaTopology::new(28, 2, 0);
        {
            let _g = bind_current_thread(0);
            assert_eq!(numa_penalty(&t, 1.4), 1.0);
        }
        {
            let _g = bind_current_thread(27);
            assert_eq!(numa_penalty(&t, 1.4), 1.4);
        }
        // Unbound is between local and remote.
        let p = numa_penalty(&t, 1.4);
        assert!(p > 1.0 && p < 1.4, "blended penalty {p}");
    }

    #[test]
    fn single_numa_node_has_no_penalty() {
        let t = NumaTopology::new(16, 1, 0);
        assert_eq!(numa_penalty(&t, 1.4), 1.0);
        {
            let _g = bind_current_thread(9);
            assert_eq!(numa_penalty(&t, 1.4), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "NIC node out of range")]
    fn nic_node_must_exist() {
        NumaTopology::new(8, 2, 2);
    }
}
