//! Runtime view of a hinted service: the hint tables the code generator
//! embeds (or that are built from a parsed IDL document at runtime).

use hat_idl::hints::{resolve, HintBlock, ResolvedHints, Side};

/// The hint schema of one service: what the generated code carries into
/// the runtime (paper §4.2's "hierarchical map in the generated files").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSchema {
    /// Service name.
    pub name: String,
    /// Service-level hint block.
    pub service_hints: HintBlock,
    /// Per-function hint blocks, in declaration order.
    pub functions: Vec<(String, HintBlock)>,
}

impl ServiceSchema {
    /// Build a schema from a parsed IDL service.
    pub fn from_idl(service: &hat_idl::Service) -> ServiceSchema {
        ServiceSchema {
            name: service.name.clone(),
            service_hints: service.hints.clone(),
            functions: service
                .functions
                .iter()
                .map(|f| (f.name.clone(), f.hints.clone()))
                .collect(),
        }
    }

    /// Parse an IDL source and extract the schema of `service_name`.
    pub fn parse(idl_src: &str, service_name: &str) -> Option<ServiceSchema> {
        let doc = hat_idl::parse(idl_src).ok()?;
        doc.service(service_name).map(ServiceSchema::from_idl)
    }

    /// A schema with no hints (vanilla Thrift behaviour).
    pub fn unhinted(name: &str) -> ServiceSchema {
        ServiceSchema { name: name.to_string(), ..Default::default() }
    }

    /// The hint block of one function, if declared.
    pub fn function_hints(&self, func: &str) -> Option<&HintBlock> {
        self.functions.iter().find(|(n, _)| n == func).map(|(_, h)| h)
    }

    /// Resolve the effective hints for `func` on `side` (service-level
    /// hints overridden per key by function-level ones; lateral groups
    /// applied per §4.1). Unknown functions resolve service hints only.
    pub fn resolved(&self, func: &str, side: Side) -> ResolvedHints {
        resolve(&self.service_hints, self.function_hints(func), side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_idl::hints::{PerfGoal, Side};

    const IDL: &str = r#"
        service Store {
            hint: perf_goal = throughput, concurrency = 64;
            binary get(1: binary key) [ hint: perf_goal = latency, payload_size = 1K; ]
            void put(1: binary key, 2: binary value) [ c_hint: payload_size = 1K; s_hint: payload_size = 16; ]
            void heartbeat() [ hint: transport = tcp; ]
        }
    "#;

    #[test]
    fn schema_from_idl_source() {
        let schema = ServiceSchema::parse(IDL, "Store").unwrap();
        assert_eq!(schema.name, "Store");
        assert!(ServiceSchema::parse(IDL, "Missing").is_none());
        assert!(ServiceSchema::parse("not idl {{", "Store").is_none());
    }

    #[test]
    fn resolution_honours_hierarchy_and_laterality() {
        let schema = ServiceSchema::parse(IDL, "Store").unwrap();
        let get = schema.resolved("get", Side::Client);
        assert_eq!(get.perf_goal, Some(PerfGoal::Latency));
        assert_eq!(get.concurrency, Some(64), "service-level survives");
        let put_c = schema.resolved("put", Side::Client);
        let put_s = schema.resolved("put", Side::Server);
        assert_eq!(put_c.payload_size, Some(1024));
        assert_eq!(put_s.payload_size, Some(16));
        // Unknown function → service hints.
        let other = schema.resolved("nope", Side::Client);
        assert_eq!(other.perf_goal, Some(PerfGoal::Throughput));
    }

    #[test]
    fn unhinted_schema_resolves_to_defaults() {
        let schema = ServiceSchema::unhinted("Plain");
        let r = schema.resolved("anything", Side::Client);
        assert_eq!(r, Default::default());
    }
}
