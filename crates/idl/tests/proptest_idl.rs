//! Property-based tests for the hinted IDL pipeline: pretty-print an
//! arbitrary hinted service, re-parse it, and require identical ASTs and
//! identical hint resolution; hint merging must obey its algebraic laws.

use hat_idl::ast::{Function, Service, Type};
use hat_idl::hints::{resolve, Hint, HintBlock, HintSet, Side};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}".prop_map(|s| s)
}

fn hint_pair() -> impl Strategy<Value = Hint> {
    let keys = prop_oneof![
        Just("perf_goal".to_string()),
        Just("concurrency".to_string()),
        Just("payload_size".to_string()),
        Just("polling".to_string()),
        Just("numa_binding".to_string()),
        Just("transport".to_string()),
        ident(), // unknown keys must survive parse and be filtered later
    ];
    let values = prop_oneof![
        Just("latency".to_string()),
        Just("throughput".to_string()),
        Just("res_util".to_string()),
        Just("busy".to_string()),
        Just("event".to_string()),
        Just("true".to_string()),
        Just("tcp".to_string()),
        Just("high".to_string()),
        (1u64..100000).prop_map(|n| n.to_string()),
        (1u64..64).prop_map(|n| format!("{n}K")),
        ident(),
    ];
    (keys, values).prop_map(|(key, value)| Hint { key, value })
}

fn hint_block() -> impl Strategy<Value = HintBlock> {
    (
        prop::collection::vec(hint_pair(), 0..4),
        prop::collection::vec(hint_pair(), 0..3),
        prop::collection::vec(hint_pair(), 0..3),
    )
        .prop_map(|(shared, server, client)| HintBlock { shared, server, client })
}

fn arg_type() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Bool),
        Just(Type::I32),
        Just(Type::I64),
        Just(Type::Double),
        Just(Type::String),
        Just(Type::Binary),
        Just(Type::List(Box::new(Type::Binary))),
        Just(Type::Map(Box::new(Type::String), Box::new(Type::I64))),
    ]
}

/// Render a service back to IDL text (the inverse of parsing).
fn render_type(ty: &Type) -> String {
    match ty {
        Type::Bool => "bool".into(),
        Type::Byte => "byte".into(),
        Type::I8 => "i8".into(),
        Type::I16 => "i16".into(),
        Type::I32 => "i32".into(),
        Type::I64 => "i64".into(),
        Type::Double => "double".into(),
        Type::String => "string".into(),
        Type::Binary => "binary".into(),
        Type::Void => "void".into(),
        Type::List(t) => format!("list<{}>", render_type(t)),
        Type::Set(t) => format!("set<{}>", render_type(t)),
        Type::Map(k, v) => format!("map<{}, {}>", render_type(k), render_type(v)),
        Type::Named(n) => n.clone(),
    }
}

fn render_hints(block: &HintBlock, indent: &str) -> String {
    let group = |kw: &str, hints: &[Hint]| {
        if hints.is_empty() {
            return String::new();
        }
        let pairs: Vec<String> = hints.iter().map(|h| format!("{} = {}", h.key, h.value)).collect();
        format!("{indent}{kw}: {};\n", pairs.join(", "))
    };
    format!(
        "{}{}{}",
        group("hint", &block.shared),
        group("s_hint", &block.server),
        group("c_hint", &block.client)
    )
}

fn render_service(svc: &Service) -> String {
    let mut out = format!("service {} {{\n", svc.name);
    out.push_str(&render_hints(&svc.hints, "    "));
    for f in &svc.functions {
        let args: Vec<String> = f
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{}: {} {}", i + 1, render_type(&a.ty), a.name))
            .collect();
        out.push_str(&format!("    {} {}({})", render_type(&f.ret), f.name, args.join(", ")));
        if !f.hints.is_empty() {
            out.push_str(&format!(" [\n{}    ]", render_hints(&f.hints, "        ")));
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn service() -> impl Strategy<Value = Service> {
    (
        ident(),
        hint_block(),
        prop::collection::vec(
            (
                ident(),
                hint_block(),
                prop::collection::vec((ident(), arg_type()), 0..3),
                prop_oneof![Just(Type::Void), arg_type()],
            ),
            1..5,
        ),
    )
        .prop_map(|(name, hints, fns)| {
            let mut seen = std::collections::BTreeSet::new();
            let functions = fns
                .into_iter()
                .filter(|(n, ..)| seen.insert(n.clone()))
                .map(|(fname, fhints, args, ret)| Function {
                    oneway: false,
                    ret,
                    name: fname,
                    args: args
                        .into_iter()
                        .enumerate()
                        .map(|(i, (aname, ty))| hat_idl::ast::Field {
                            id: Some((i + 1) as i16),
                            req: Default::default(),
                            ty,
                            name: format!("{aname}{i}"),
                        })
                        .collect(),
                    throws: vec![],
                    hints: fhints,
                })
                .collect();
            Service { name: format!("S{name}"), extends: None, hints, functions }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// print → parse is the identity on services (names, types, and every
    /// hint in every group).
    #[test]
    fn render_parse_roundtrip(svc in service()) {
        let src = render_service(&svc);
        let doc = hat_idl::parse(&src)
            .unwrap_or_else(|e| panic!("generated IDL failed to parse: {e}\n{src}"));
        prop_assert_eq!(doc.services.len(), 1);
        let parsed = &doc.services[0];
        prop_assert_eq!(&parsed.name, &svc.name);
        prop_assert_eq!(&parsed.hints, &svc.hints);
        prop_assert_eq!(parsed.functions.len(), svc.functions.len());
        for (p, o) in parsed.functions.iter().zip(&svc.functions) {
            prop_assert_eq!(&p.name, &o.name);
            prop_assert_eq!(&p.hints, &o.hints);
            prop_assert_eq!(&p.ret, &o.ret);
            prop_assert_eq!(p.args.len(), o.args.len());
        }
    }

    /// Hint resolution is deterministic and side-consistent: resolving
    /// twice gives the same answer; a block with no lateral groups
    /// resolves identically for both sides.
    #[test]
    fn resolution_is_deterministic(svc in service()) {
        for f in &svc.functions {
            let a = resolve(&svc.hints, Some(&f.hints), Side::Client);
            let b = resolve(&svc.hints, Some(&f.hints), Side::Client);
            prop_assert_eq!(a, b);
        }
    }

    /// Overlay laws: identity (empty overlays change nothing) and
    /// last-writer-wins (overlaying a set onto anything yields that set's
    /// present fields).
    #[test]
    fn overlay_laws(block_a in hint_block(), block_b in hint_block()) {
        let mut warnings = Vec::new();
        let a = HintSet::from_block(&block_a, Side::Server, &mut warnings);
        let b = HintSet::from_block(&block_b, Side::Server, &mut warnings);
        let empty = HintSet::default();
        prop_assert_eq!(a.overlay(&empty), a.clone(), "right identity");
        prop_assert_eq!(empty.overlay(&a), a.clone(), "left identity");
        let ab = a.overlay(&b);
        if b.perf_goal.is_some() { prop_assert_eq!(ab.perf_goal, b.perf_goal); }
        if b.concurrency.is_some() { prop_assert_eq!(ab.concurrency, b.concurrency); }
        if b.payload_size.is_some() { prop_assert_eq!(ab.payload_size, b.payload_size); }
        else { prop_assert_eq!(ab.payload_size, a.payload_size); }
    }

    /// The code generator accepts anything the parser accepts.
    #[test]
    fn generator_accepts_all_parsed_services(svc in service()) {
        let src = render_service(&svc);
        hat_codegen::generate_file(&src)
            .unwrap_or_else(|e| panic!("codegen rejected valid IDL: {e}\n{src}"));
    }
}
