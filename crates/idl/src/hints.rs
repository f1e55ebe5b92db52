//! The hierarchical hint model: raw hint blocks, validation/merging, and
//! the vertical (service → function) + lateral (shared → server/client)
//! resolution the paper's §4.1 defines.
//!
//! Supported hint keys (the paper's Figure 6 categories plus the §3.3
//! extras it evaluates in §5.5):
//!
//! | key | values | effect |
//! |---|---|---|
//! | `perf_goal` | `latency`, `throughput`, `res_util` | optimization target |
//! | `concurrency` | positive integer (expected client count) | subscription level |
//! | `payload_size` | bytes, with optional `K`/`M` suffix | protocol/buffer sizing |
//! | `polling` | `busy`, `event`, `auto` | explicit CQ polling override |
//! | `numa_binding` | `true`, `false` | bind workers to the NIC socket |
//! | `transport` | `rdma`, `tcp` | hybrid transports (§5.5) |
//! | `queue_depth` | positive integer | pipelined in-flight request window |
//! | `shards` | positive integer | backend storage partitions (server side) |
//! | `onesided_get` | `true`, `false` | client bypasses the server CPU for GETs via RDMA READs |
//! | `txn` | `true`, `false` | multi-key writes commit atomically across backend shards (2PC) |
//!
//! Unknown keys or malformed values are *filtered out* during validation
//! and reported as warnings — exactly the paper's check/merge pass — so a
//! typo in a hint never breaks a build.

use std::collections::BTreeMap;
use std::fmt;

/// One raw `key = value` pair as written in the IDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hint {
    /// Hint key.
    pub key: String,
    /// Hint value (identifier, number, or string literal).
    pub value: String,
}

/// The three lateral groups of one scope (service or function).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintBlock {
    /// `hint:` — applies to both sides.
    pub shared: Vec<Hint>,
    /// `s_hint:` — server side only.
    pub server: Vec<Hint>,
    /// `c_hint:` — client side only.
    pub client: Vec<Hint>,
}

impl HintBlock {
    /// True when no hints are present in any group.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty() && self.server.is_empty() && self.client.is_empty()
    }

    /// Flatten to the effective raw map for one side: shared first, then
    /// side-specific overrides (the lateral merge).
    pub fn for_side(&self, side: Side) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        for h in &self.shared {
            map.insert(h.key.clone(), h.value.clone());
        }
        let lateral = match side {
            Side::Server => &self.server,
            Side::Client => &self.client,
        };
        for h in lateral {
            map.insert(h.key.clone(), h.value.clone());
        }
        map
    }
}

/// Which end of the RPC a hint set is being resolved for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The service/server end.
    Server,
    /// The caller end.
    Client,
}

/// The `perf_goal` hint values (paper Figure 6's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfGoal {
    /// Minimize round-trip latency.
    Latency,
    /// Maximize aggregate throughput.
    Throughput,
    /// Minimize CPU + pinned-memory footprint.
    ResUtil,
}

impl fmt::Display for PerfGoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PerfGoal::Latency => "latency",
            PerfGoal::Throughput => "throughput",
            PerfGoal::ResUtil => "res_util",
        })
    }
}

/// The `polling` hint values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PollingHint {
    /// Force busy polling.
    Busy,
    /// Force event polling.
    Event,
    /// Let the engine decide from the other hints (default).
    Auto,
}

impl fmt::Display for PollingHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PollingHint::Busy => "busy",
            PollingHint::Event => "event",
            PollingHint::Auto => "auto",
        })
    }
}

/// The `transport` hint values (hybrid transports, §5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportHint {
    /// Native RDMA engine.
    Rdma,
    /// Kernel TCP (IPoIB) — for functions where RDMA buys nothing.
    Tcp,
}

impl fmt::Display for TransportHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportHint::Rdma => "rdma",
            TransportHint::Tcp => "tcp",
        })
    }
}

/// A validated, typed hint set for one (scope, side).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HintSet {
    /// `perf_goal`.
    pub perf_goal: Option<PerfGoal>,
    /// `concurrency` (expected concurrent clients).
    pub concurrency: Option<u32>,
    /// `payload_size` in bytes.
    pub payload_size: Option<u64>,
    /// `polling` override.
    pub polling: Option<PollingHint>,
    /// `numa_binding`.
    pub numa_binding: Option<bool>,
    /// `transport`.
    pub transport: Option<TransportHint>,
    /// `queue_depth` (pipelined in-flight request window; 1 = synchronous).
    pub queue_depth: Option<u32>,
    /// `shards` (backend storage partitions; 1 = unsharded). Server-side:
    /// it sizes the service's storage backend, not the wire protocol.
    pub shards: Option<u32>,
    /// `onesided_get`: resolve read-only lookups with one-sided RDMA
    /// READs against a server-published index, falling back to the RPC
    /// path on miss or version conflict. Unlike `shards`, this hint is
    /// client-visible: the *client* changes its access pattern.
    pub onesided_get: Option<bool>,
    /// `txn`: the function's multi-key writes commit atomically across
    /// the server's backend shards via two-phase commit over the
    /// per-shard WALs. Like `onesided_get` it is advertised in the
    /// preamble flag byte but never changes the wire protocol or splits
    /// channels; functions without it keep the single-shard fast path.
    pub txn: Option<bool>,
}

/// A non-fatal validation complaint (unknown key / bad value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintWarning {
    /// The offending key.
    pub key: String,
    /// The offending value.
    pub value: String,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for HintWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ignored hint '{} = {}': {}", self.key, self.value, self.reason)
    }
}

/// Parse a payload size: plain bytes or with a K/M suffix (`512`, `4K`,
/// `10240`, `1M`).
pub fn parse_payload_size(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, mult) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1024),
        b'm' | b'M' => (&v[..v.len() - 1], 1024 * 1024),
        _ => (v, 1),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(mult)
}

impl HintSet {
    /// Validate and type raw `(key, value)` pairs, accumulating warnings
    /// for anything unknown or malformed (the paper's filtering pass).
    pub fn from_raw<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
        warnings: &mut Vec<HintWarning>,
    ) -> HintSet {
        let mut set = HintSet::default();
        for (key, value) in pairs {
            let mut warn = |reason: &str| {
                warnings.push(HintWarning {
                    key: key.to_string(),
                    value: value.to_string(),
                    reason: reason.to_string(),
                })
            };
            match key {
                "perf_goal" => match value {
                    "latency" => set.perf_goal = Some(PerfGoal::Latency),
                    "throughput" => set.perf_goal = Some(PerfGoal::Throughput),
                    "res_util" | "resource_utilization" => set.perf_goal = Some(PerfGoal::ResUtil),
                    _ => warn("expected latency | throughput | res_util"),
                },
                "concurrency" => match value.parse::<u32>() {
                    Ok(n) if n > 0 => set.concurrency = Some(n),
                    _ => warn("expected a positive integer"),
                },
                "payload_size" => match parse_payload_size(value) {
                    Some(n) if n > 0 => set.payload_size = Some(n),
                    _ => warn("expected bytes, optionally with K/M suffix"),
                },
                "polling" => match value {
                    "busy" => set.polling = Some(PollingHint::Busy),
                    "event" => set.polling = Some(PollingHint::Event),
                    "auto" => set.polling = Some(PollingHint::Auto),
                    _ => warn("expected busy | event | auto"),
                },
                "numa_binding" => match value {
                    "true" | "1" | "on" => set.numa_binding = Some(true),
                    "false" | "0" | "off" => set.numa_binding = Some(false),
                    _ => warn("expected true | false"),
                },
                "transport" => match value {
                    "rdma" => set.transport = Some(TransportHint::Rdma),
                    "tcp" | "ipoib" => set.transport = Some(TransportHint::Tcp),
                    _ => warn("expected rdma | tcp"),
                },
                "queue_depth" => match value.parse::<u32>() {
                    Ok(n) if n > 0 => set.queue_depth = Some(n),
                    _ => warn("expected a positive integer"),
                },
                "shards" => match value.parse::<u32>() {
                    Ok(n) if n > 0 => set.shards = Some(n),
                    _ => warn("expected a positive integer"),
                },
                "onesided_get" => match value {
                    "true" | "1" | "on" => set.onesided_get = Some(true),
                    "false" | "0" | "off" => set.onesided_get = Some(false),
                    _ => warn("expected true | false"),
                },
                "txn" => match value {
                    "true" | "1" | "on" => set.txn = Some(true),
                    "false" | "0" | "off" => set.txn = Some(false),
                    _ => warn("expected true | false"),
                },
                _ => warn("unknown hint key"),
            }
        }
        set
    }

    /// Build a validated set from one block's effective map for `side`.
    pub fn from_block(block: &HintBlock, side: Side, warnings: &mut Vec<HintWarning>) -> HintSet {
        let map = block.for_side(side);
        HintSet::from_raw(map.iter().map(|(k, v)| (k.as_str(), v.as_str())), warnings)
    }

    /// Overlay `other` on `self` per key (the vertical merge: function
    /// hints override service hints only where present).
    pub fn overlay(&self, other: &HintSet) -> HintSet {
        HintSet {
            perf_goal: other.perf_goal.or(self.perf_goal),
            concurrency: other.concurrency.or(self.concurrency),
            payload_size: other.payload_size.or(self.payload_size),
            polling: other.polling.or(self.polling),
            numa_binding: other.numa_binding.or(self.numa_binding),
            transport: other.transport.or(self.transport),
            queue_depth: other.queue_depth.or(self.queue_depth),
            shards: other.shards.or(self.shards),
            onesided_get: other.onesided_get.or(self.onesided_get),
            txn: other.txn.or(self.txn),
        }
    }
}

/// Fully resolved hints for one (function, side), plus validation warnings.
pub type ResolvedHints = HintSet;

/// Resolve the effective hints for a function on one side:
/// service-shared → service-lateral → function-shared → function-lateral,
/// later layers overriding earlier ones per key (paper §4.1).
pub fn resolve(service: &HintBlock, function: Option<&HintBlock>, side: Side) -> ResolvedHints {
    let mut warnings = Vec::new();
    resolve_with_warnings(service, function, side, &mut warnings)
}

/// Like [`resolve`] but surfacing the validation warnings.
pub fn resolve_with_warnings(
    service: &HintBlock,
    function: Option<&HintBlock>,
    side: Side,
    warnings: &mut Vec<HintWarning>,
) -> ResolvedHints {
    let svc = HintSet::from_block(service, side, warnings);
    match function {
        Some(f) => svc.overlay(&HintSet::from_block(f, side, warnings)),
        None => svc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(
        shared: &[(&str, &str)],
        server: &[(&str, &str)],
        client: &[(&str, &str)],
    ) -> HintBlock {
        let mk = |ps: &[(&str, &str)]| {
            ps.iter().map(|(k, v)| Hint { key: k.to_string(), value: v.to_string() }).collect()
        };
        HintBlock { shared: mk(shared), server: mk(server), client: mk(client) }
    }

    #[test]
    fn lateral_split_overrides_shared() {
        let b =
            block(&[("polling", "busy"), ("perf_goal", "latency")], &[("polling", "event")], &[]);
        let server = HintSet::from_block(&b, Side::Server, &mut Vec::new());
        assert_eq!(server.polling, Some(PollingHint::Event));
        assert_eq!(server.perf_goal, Some(PerfGoal::Latency));
        let client = HintSet::from_block(&b, Side::Client, &mut Vec::new());
        assert_eq!(client.polling, Some(PollingHint::Busy));
    }

    #[test]
    fn function_hints_override_service_per_key() {
        let svc = block(&[("perf_goal", "throughput"), ("concurrency", "64")], &[], &[]);
        let func = block(&[("perf_goal", "latency")], &[], &[]);
        let r = resolve(&svc, Some(&func), Side::Client);
        assert_eq!(r.perf_goal, Some(PerfGoal::Latency), "function overrides");
        assert_eq!(r.concurrency, Some(64), "service value survives where unset");
    }

    #[test]
    fn no_function_block_keeps_service_hints() {
        let svc = block(&[("perf_goal", "res_util")], &[], &[]);
        let r = resolve(&svc, None, Side::Server);
        assert_eq!(r.perf_goal, Some(PerfGoal::ResUtil));
    }

    #[test]
    fn unknown_keys_are_filtered_with_warnings() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("bogus_key", "x"), ("perf_goal", "latency")], &mut warnings);
        assert_eq!(set.perf_goal, Some(PerfGoal::Latency));
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].to_string().contains("bogus_key"));
    }

    #[test]
    fn malformed_values_are_filtered_with_warnings() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw(
            [
                ("perf_goal", "fastest"),
                ("concurrency", "-3"),
                ("payload_size", "huge"),
                ("numa_binding", "maybe"),
            ],
            &mut warnings,
        );
        assert_eq!(set, HintSet::default());
        assert_eq!(warnings.len(), 4);
    }

    #[test]
    fn payload_size_suffixes() {
        assert_eq!(parse_payload_size("512"), Some(512));
        assert_eq!(parse_payload_size("4K"), Some(4096));
        assert_eq!(parse_payload_size("4k"), Some(4096));
        assert_eq!(parse_payload_size("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_payload_size("zebra"), None);
        assert_eq!(parse_payload_size(""), None);
    }

    /// A size whose suffix overflows `u64` is malformed, not a panic.
    #[test]
    fn an_overflowing_payload_size_is_a_warning() {
        assert_eq!(parse_payload_size("18446744073709551615M"), None);
        assert_eq!(parse_payload_size("18014398509481984K"), None);
        assert_eq!(parse_payload_size("18014398509481983K"), Some((u64::MAX >> 10) << 10));
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("payload_size", "18446744073709551615M")], &mut warnings);
        assert_eq!(set.payload_size, None);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn all_hint_keys_parse() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw(
            [
                ("perf_goal", "throughput"),
                ("concurrency", "128"),
                ("payload_size", "128K"),
                ("polling", "event"),
                ("numa_binding", "true"),
                ("transport", "tcp"),
                ("queue_depth", "8"),
                ("shards", "4"),
                ("onesided_get", "true"),
                ("txn", "true"),
            ],
            &mut warnings,
        );
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(set.perf_goal, Some(PerfGoal::Throughput));
        assert_eq!(set.concurrency, Some(128));
        assert_eq!(set.payload_size, Some(128 * 1024));
        assert_eq!(set.polling, Some(PollingHint::Event));
        assert_eq!(set.numa_binding, Some(true));
        assert_eq!(set.transport, Some(TransportHint::Tcp));
        assert_eq!(set.queue_depth, Some(8));
        assert_eq!(set.shards, Some(4));
        assert_eq!(set.onesided_get, Some(true));
        assert_eq!(set.txn, Some(true));
    }

    #[test]
    fn txn_parses_booleans_and_rejects_garbage() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("txn", "on")], &mut warnings);
        assert_eq!(set.txn, Some(true));
        let set = HintSet::from_raw([("txn", "off")], &mut warnings);
        assert_eq!(set.txn, Some(false));
        assert!(warnings.is_empty());
        let set = HintSet::from_raw([("txn", "perhaps")], &mut warnings);
        assert_eq!(set.txn, None);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn onesided_get_parses_booleans_and_rejects_garbage() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("onesided_get", "on")], &mut warnings);
        assert_eq!(set.onesided_get, Some(true));
        let set = HintSet::from_raw([("onesided_get", "0")], &mut warnings);
        assert_eq!(set.onesided_get, Some(false));
        assert!(warnings.is_empty());
        let set = HintSet::from_raw([("onesided_get", "sometimes")], &mut warnings);
        assert_eq!(set.onesided_get, None);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn queue_depth_rejects_non_positive_values() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("queue_depth", "0"), ("queue_depth", "-4")], &mut warnings);
        assert_eq!(set.queue_depth, None);
        assert_eq!(warnings.len(), 2);
    }

    #[test]
    fn shards_rejects_non_positive_values() {
        let mut warnings = Vec::new();
        let set = HintSet::from_raw([("shards", "0"), ("shards", "lots")], &mut warnings);
        assert_eq!(set.shards, None);
        assert_eq!(warnings.len(), 2);
    }

    #[test]
    fn full_resolution_order_is_respected() {
        // service shared < service lateral < function shared < function lateral
        let svc = block(&[("polling", "busy")], &[("polling", "event")], &[]);
        let func = block(&[("polling", "auto")], &[("polling", "busy")], &[]);
        let r = resolve(&svc, Some(&func), Side::Server);
        assert_eq!(r.polling, Some(PollingHint::Busy), "function lateral wins");
        let r2 = resolve(&svc, Some(&block(&[("polling", "auto")], &[], &[])), Side::Server);
        assert_eq!(r2.polling, Some(PollingHint::Auto), "function shared beats service lateral");
    }

    #[test]
    fn display_impls() {
        assert_eq!(PerfGoal::ResUtil.to_string(), "res_util");
        assert_eq!(PollingHint::Auto.to_string(), "auto");
        assert_eq!(TransportHint::Tcp.to_string(), "tcp");
    }
}
