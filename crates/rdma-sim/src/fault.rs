//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is pure data attached to [`crate::SimConfig`]: a seed
//! plus a list of rules scoped to every node or to one by name. The plan can drop
//! completions, delay them by a configured distribution, flush a QP into
//! an error state after N work requests, or kill a whole node mid-flight.
//! Every probabilistic decision is derived by hashing `(seed, qp, nth
//! decision)` — no global RNG state — so a given plan replays identically
//! run after run as long as the per-QP operation order is deterministic
//! (which it is: QPs are driven by one thread at a time in this simulator).
//!
//! Runtime bookkeeping (WR counts, decision indices) lives in
//! [`NodeFaults`], instantiated per node only when the plan has rules, so
//! fault-free fabrics pay nothing on the hot path beyond one `Option`
//! check.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Externally-fired trigger for [`FaultAction::FlushQpOnTrigger`]: a
/// cloneable handle the test/orchestrator keeps after building the plan.
/// Each [`FaultTrigger::fire`] arms one pending flush, consumed by the
/// next matching WR post — so the fault lands at a point in the
/// *workload's* own control flow (e.g. "round 5 of writer-0") instead of
/// at a wall-clock-coupled WR count.
#[derive(Debug, Clone, Default)]
pub struct FaultTrigger {
    pending: Arc<AtomicU64>,
}

impl FaultTrigger {
    /// A fresh, unarmed trigger.
    pub fn new() -> FaultTrigger {
        FaultTrigger::default()
    }

    /// Arm one flush: the next WR posted in the rule's scope fails and
    /// flushes its QP. Multiple fires stack (two fires → the next two
    /// matching posts each flush their QP).
    pub fn fire(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes armed but not yet consumed by a post.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Consume one armed flush if any; true when a flush should fire.
    fn try_consume(&self) -> bool {
        self.pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Triggers compare by identity: two handles are equal iff they share
/// the same armed-count cell.
impl PartialEq for FaultTrigger {
    fn eq(&self, other: &FaultTrigger) -> bool {
        Arc::ptr_eq(&self.pending, &other.pending)
    }
}

/// Where a fault rule applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScope {
    /// Every node in the fabric.
    AllNodes,
    /// The node with this name.
    Node(String),
}

impl FaultScope {
    fn matches(&self, node_name: &str) -> bool {
        match self {
            FaultScope::AllNodes => true,
            FaultScope::Node(n) => n == node_name,
        }
    }
}

/// Completion-delay distribution, sampled per completion from the plan's
/// seeded hash stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDistribution {
    /// Always exactly `ns`.
    Fixed { ns: u64 },
    /// Uniform in `[min_ns, max_ns]`.
    Uniform { min_ns: u64, max_ns: u64 },
}

impl DelayDistribution {
    /// Sample the distribution given a uniform `u` in `[0, 1)`.
    fn sample(&self, u: f64) -> u64 {
        match *self {
            DelayDistribution::Fixed { ns } => ns,
            DelayDistribution::Uniform { min_ns, max_ns } => {
                let (lo, hi) = (min_ns.min(max_ns), min_ns.max(max_ns));
                lo + ((hi - lo + 1) as f64 * u) as u64
            }
        }
    }
}

/// What a fault rule does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Drop each matching completion with this probability: the CQE is
    /// never delivered, as if the NIC lost it.
    DropCompletion {
        /// Per-completion drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Delay each matching completion by a sampled amount on top of its
    /// modeled ready time.
    DelayCompletion {
        /// Distribution the extra delay is drawn from.
        dist: DelayDistribution,
    },
    /// Flush the QP into an error state after this many work requests
    /// have been posted on it: the offending post and every later verb on
    /// the QP fails with [`crate::RdmaError::QpError`].
    FlushQpAfterWrs {
        /// Number of WRs that post successfully before the flush.
        wrs: u64,
    },
    /// Kill the whole node after this many work requests have been posted
    /// from it (across all its QPs). Peers observe the death as a QP
    /// error or a timeout, never a hang.
    KillNodeAfterWrs {
        /// Number of WRs that post successfully before the kill.
        wrs: u64,
    },
    /// Flush the QP carrying the next matching WR post after the shared
    /// [`FaultTrigger`] is fired — a deterministic, workload-phase-aligned
    /// alternative to [`FaultAction::FlushQpAfterWrs`]'s WR budget.
    FlushQpOnTrigger {
        /// Shared handle; `fire()` arms one flush.
        trigger: FaultTrigger,
    },
}

/// One scoped fault rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Which nodes the rule applies to.
    pub scope: FaultScope,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// A seeded, replayable fault-injection plan. Attach via
/// [`crate::SimConfig::fault`]; an empty plan (the default) injects
/// nothing and costs nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision the plan makes.
    pub seed: u64,
    /// Rules, all evaluated for every matching event.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// True if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Add a completion-drop rule.
    pub fn drop_completions(mut self, scope: FaultScope, probability: f64) -> FaultPlan {
        self.rules.push(FaultRule { scope, action: FaultAction::DropCompletion { probability } });
        self
    }

    /// Add a completion-delay rule.
    pub fn delay_completions(mut self, scope: FaultScope, dist: DelayDistribution) -> FaultPlan {
        self.rules.push(FaultRule { scope, action: FaultAction::DelayCompletion { dist } });
        self
    }

    /// Add a flush-QP-to-error rule.
    pub fn flush_qp_after(mut self, scope: FaultScope, wrs: u64) -> FaultPlan {
        self.rules.push(FaultRule { scope, action: FaultAction::FlushQpAfterWrs { wrs } });
        self
    }

    /// Add a kill-node rule.
    pub fn kill_node_after(mut self, scope: FaultScope, wrs: u64) -> FaultPlan {
        self.rules.push(FaultRule { scope, action: FaultAction::KillNodeAfterWrs { wrs } });
        self
    }

    /// Add an externally-triggered flush rule; the returned handle's
    /// [`FaultTrigger::fire`] arms a flush of whatever in-scope QP posts
    /// the next WR.
    pub fn flush_qp_on_trigger(mut self, scope: FaultScope) -> (FaultPlan, FaultTrigger) {
        let trigger = FaultTrigger::new();
        self.rules.push(FaultRule {
            scope,
            action: FaultAction::FlushQpOnTrigger { trigger: trigger.clone() },
        });
        (self, trigger)
    }
}

/// What [`NodeFaults::on_wr_posted`] tells the QP layer to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrFault {
    /// No fault: post normally.
    None,
    /// Flush this QP into an error state.
    FlushQp,
    /// Kill the whole node.
    KillNode,
}

/// What [`NodeFaults::on_completion`] tells the CQ layer to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionFault {
    /// Deliver normally.
    Deliver,
    /// Deliver, but `extra_ns` later than modeled.
    Delay(u64),
    /// Never deliver this completion.
    Drop,
}

/// Per-node runtime state for a [`FaultPlan`]. Created by `Node::new` only
/// when the plan has rules.
#[derive(Debug)]
pub struct NodeFaults {
    plan: FaultPlan,
    node_name: String,
    /// WRs posted so far per QP (flush triggers) — `qp_id -> count`.
    qp_wrs: Mutex<HashMap<u64, u64>>,
    /// WRs posted so far across the node (kill triggers).
    node_wrs: AtomicU64,
    /// Completion decisions made so far per QP — the replayable index fed
    /// into the seeded hash.
    qp_comps: Mutex<HashMap<u64, u64>>,
}

/// SplitMix64 finalizer: decorrelates the (seed, qp, n, salt) key into
/// uniform bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)` derived from a decision key.
fn unit(seed: u64, qp_id: u64, n: u64, salt: u64) -> f64 {
    let h = mix(mix(mix(seed ^ salt).wrapping_add(qp_id)).wrapping_add(n));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl NodeFaults {
    /// Build runtime state if the plan has any rules at all; `None` keeps
    /// fault-free nodes on the zero-cost path.
    pub fn from_plan(plan: &FaultPlan, node_name: &str) -> Option<NodeFaults> {
        if plan.is_empty() {
            return None;
        }
        Some(NodeFaults {
            plan: plan.clone(),
            node_name: node_name.to_string(),
            qp_wrs: Mutex::new(HashMap::new()),
            node_wrs: AtomicU64::new(0),
            qp_comps: Mutex::new(HashMap::new()),
        })
    }

    /// Record one posted WR on `qp_id` and report whether a flush/kill
    /// rule fires on it. Kill wins over flush if both trigger at once.
    pub fn on_wr_posted(&self, qp_id: u64) -> WrFault {
        let qp_n = {
            let mut m = self.qp_wrs.lock();
            let c = m.entry(qp_id).or_insert(0);
            *c += 1;
            *c
        };
        let node_n = self.node_wrs.fetch_add(1, Ordering::Relaxed) + 1;
        let mut out = WrFault::None;
        for rule in &self.plan.rules {
            if !rule.scope.matches(&self.node_name) {
                continue;
            }
            match rule.action {
                FaultAction::KillNodeAfterWrs { wrs } if node_n > wrs => return WrFault::KillNode,
                FaultAction::FlushQpAfterWrs { wrs } if qp_n > wrs => out = WrFault::FlushQp,
                FaultAction::FlushQpOnTrigger { ref trigger } if trigger.try_consume() => {
                    out = WrFault::FlushQp;
                }
                _ => {}
            }
        }
        out
    }

    /// Decide the fate of one completion destined for `qp_id`'s CQ.
    /// Drop beats delay; multiple delay rules accumulate.
    pub fn on_completion(&self, qp_id: u64) -> CompletionFault {
        let n = {
            let mut m = self.qp_comps.lock();
            let c = m.entry(qp_id).or_insert(0);
            *c += 1;
            *c
        };
        let mut extra = 0u64;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if !rule.scope.matches(&self.node_name) {
                continue;
            }
            match rule.action {
                FaultAction::DropCompletion { probability }
                    if unit(self.plan.seed, qp_id, n, i as u64) < probability =>
                {
                    return CompletionFault::Drop;
                }
                FaultAction::DelayCompletion { dist } => {
                    extra += dist.sample(unit(self.plan.seed, qp_id, n, i as u64));
                }
                _ => {}
            }
        }
        if extra > 0 {
            CompletionFault::Delay(extra)
        } else {
            CompletionFault::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_yields_no_runtime_state() {
        assert!(NodeFaults::from_plan(&FaultPlan::default(), "n").is_none());
    }

    #[test]
    fn scopes_match_correctly() {
        assert!(FaultScope::AllNodes.matches("x"));
        assert!(FaultScope::Node("x".into()).matches("x"));
        assert!(!FaultScope::Node("x".into()).matches("y"));
    }

    #[test]
    fn flush_fires_after_n_wrs_on_that_qp_only() {
        let plan = FaultPlan::new(1).flush_qp_after(FaultScope::Node("srv".into()), 2);
        let f = NodeFaults::from_plan(&plan, "srv").unwrap();
        assert_eq!(f.on_wr_posted(7), WrFault::None);
        assert_eq!(f.on_wr_posted(8), WrFault::None);
        assert_eq!(f.on_wr_posted(7), WrFault::None);
        assert_eq!(f.on_wr_posted(7), WrFault::FlushQp);
        assert_eq!(f.on_wr_posted(8), WrFault::None, "other QPs unaffected");
    }

    #[test]
    fn kill_counts_wrs_across_all_qps() {
        let plan = FaultPlan::new(1).kill_node_after(FaultScope::Node("srv".into()), 3);
        let f = NodeFaults::from_plan(&plan, "srv").unwrap();
        assert_eq!(f.on_wr_posted(1), WrFault::None);
        assert_eq!(f.on_wr_posted(2), WrFault::None);
        assert_eq!(f.on_wr_posted(3), WrFault::None);
        assert_eq!(f.on_wr_posted(4), WrFault::KillNode);
    }

    #[test]
    fn drop_decisions_replay_identically() {
        let plan = FaultPlan::new(42).drop_completions(FaultScope::AllNodes, 0.5);
        let a = NodeFaults::from_plan(&plan, "n").unwrap();
        let b = NodeFaults::from_plan(&plan, "n").unwrap();
        let seq_a: Vec<_> = (0..64).map(|_| a.on_completion(3)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.on_completion(3)).collect();
        assert_eq!(seq_a, seq_b, "same plan + same op order must replay");
        assert!(seq_a.contains(&CompletionFault::Drop));
        assert!(seq_a.contains(&CompletionFault::Deliver));
    }

    #[test]
    fn different_seeds_diverge() {
        let pa = FaultPlan::new(1).drop_completions(FaultScope::AllNodes, 0.5);
        let pb = FaultPlan::new(2).drop_completions(FaultScope::AllNodes, 0.5);
        let a = NodeFaults::from_plan(&pa, "n").unwrap();
        let b = NodeFaults::from_plan(&pb, "n").unwrap();
        let seq_a: Vec<_> = (0..64).map(|_| a.on_completion(3)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.on_completion(3)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn delays_sample_within_bounds() {
        let plan = FaultPlan::new(7).delay_completions(
            FaultScope::AllNodes,
            DelayDistribution::Uniform { min_ns: 100, max_ns: 200 },
        );
        let f = NodeFaults::from_plan(&plan, "n").unwrap();
        for _ in 0..64 {
            match f.on_completion(1) {
                CompletionFault::Delay(d) => assert!((100..=200).contains(&d), "delay {d}"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn fixed_delay_is_exact() {
        assert_eq!(DelayDistribution::Fixed { ns: 5 }.sample(0.99), 5);
    }

    #[test]
    fn triggered_flush_fires_exactly_once_per_fire() {
        let (plan, trigger) = FaultPlan::new(1).flush_qp_on_trigger(FaultScope::Node("w".into()));
        let f = NodeFaults::from_plan(&plan, "w").unwrap();
        // Unarmed: posts flow freely, at any count.
        for _ in 0..100 {
            assert_eq!(f.on_wr_posted(1), WrFault::None);
        }
        trigger.fire();
        assert_eq!(trigger.pending(), 1);
        assert_eq!(f.on_wr_posted(1), WrFault::FlushQp, "one armed flush consumed");
        assert_eq!(trigger.pending(), 0);
        assert_eq!(f.on_wr_posted(1), WrFault::None, "consumed: later posts flow");
        // Fires stack.
        trigger.fire();
        trigger.fire();
        assert_eq!(f.on_wr_posted(2), WrFault::FlushQp);
        assert_eq!(f.on_wr_posted(3), WrFault::FlushQp);
        assert_eq!(f.on_wr_posted(4), WrFault::None);
    }

    #[test]
    fn triggered_flush_respects_scope() {
        let (plan, trigger) = FaultPlan::new(1).flush_qp_on_trigger(FaultScope::Node("w".into()));
        let other = NodeFaults::from_plan(&plan, "bystander").unwrap();
        trigger.fire();
        assert_eq!(other.on_wr_posted(1), WrFault::None, "out-of-scope node never consumes");
        assert_eq!(trigger.pending(), 1, "the armed flush is still pending for the target");
        let target = NodeFaults::from_plan(&plan, "w").unwrap();
        assert_eq!(target.on_wr_posted(1), WrFault::FlushQp);
    }

    #[test]
    fn trigger_equality_is_identity() {
        let a = FaultTrigger::new();
        let b = a.clone();
        let c = FaultTrigger::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn drop_probability_one_always_drops_and_zero_never() {
        let always = NodeFaults::from_plan(
            &FaultPlan::new(3).drop_completions(FaultScope::AllNodes, 1.0),
            "n",
        )
        .unwrap();
        let never = NodeFaults::from_plan(
            &FaultPlan::new(3).drop_completions(FaultScope::AllNodes, 0.0),
            "n",
        )
        .unwrap();
        for _ in 0..32 {
            assert_eq!(always.on_completion(1), CompletionFault::Drop);
            assert_eq!(never.on_completion(1), CompletionFault::Deliver);
        }
    }
}
