//! Property-based tests: the Thrift binary protocol round-trips arbitrary
//! values, skips what it does not know to the byte, and turns truncated or
//! arbitrary bytes into typed errors, never panics.

use proptest::prelude::*;

use hatrpc_core::protocol::binary::{BinaryIn, BinaryOut};
use hatrpc_core::protocol::{TInputProtocol, TMessageType, TOutputProtocol, TType};
use hatrpc_core::CoreError;

/// A serializable value tree covering the full Thrift type system.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Bool(bool),
    Byte(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    Double(f64),
    Str(String),
    Bin(Vec<u8>),
    List(Vec<Value>),
}

impl Value {
    fn ttype(&self) -> TType {
        match self {
            Value::Bool(_) => TType::Bool,
            Value::Byte(_) => TType::Byte,
            Value::I16(_) => TType::I16,
            Value::I32(_) => TType::I32,
            Value::I64(_) => TType::I64,
            Value::Double(_) => TType::Double,
            Value::Str(_) | Value::Bin(_) => TType::String,
            Value::List(_) => TType::List,
        }
    }

    fn write(&self, out: &mut impl TOutputProtocol) {
        match self {
            Value::Bool(v) => out.write_bool(*v),
            Value::Byte(v) => out.write_byte(*v),
            Value::I16(v) => out.write_i16(*v),
            Value::I32(v) => out.write_i32(*v),
            Value::I64(v) => out.write_i64(*v),
            Value::Double(v) => out.write_double(*v),
            Value::Str(v) => out.write_string(v),
            Value::Bin(v) => out.write_binary(v),
            Value::List(items) => {
                let ety = items.first().map_or(TType::I32, Value::ttype);
                out.write_list_begin(ety, items.len());
                for item in items {
                    item.write(out);
                }
                out.write_list_end();
            }
        }
    }

    fn read(&self, input: &mut impl TInputProtocol) -> Value {
        // Reads a value of the same shape as `self` (the schema).
        match self {
            Value::Bool(_) => Value::Bool(input.read_bool().expect("bool")),
            Value::Byte(_) => Value::Byte(input.read_byte().expect("byte")),
            Value::I16(_) => Value::I16(input.read_i16().expect("i16")),
            Value::I32(_) => Value::I32(input.read_i32().expect("i32")),
            Value::I64(_) => Value::I64(input.read_i64().expect("i64")),
            Value::Double(_) => Value::Double(input.read_double().expect("double")),
            Value::Str(_) => Value::Str(input.read_string().expect("string")),
            Value::Bin(_) => Value::Bin(input.read_binary().expect("binary")),
            Value::List(items) => {
                let (_t, n) = input.read_list_begin().expect("list");
                assert_eq!(n, items.len());
                let out = items.iter().map(|schema| schema.read(input)).collect();
                input.read_list_end().expect("list end");
                Value::List(out)
            }
        }
    }
}

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i8>().prop_map(Value::Byte),
        any::<i16>().prop_map(Value::I16),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        // Finite doubles: NaN breaks PartialEq comparisons, not codecs.
        prop::num::f64::NORMAL.prop_map(Value::Double),
        ".{0,40}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bin),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(3, 24, 6, |inner| {
        // Lists must be homogeneous per Thrift; generate same-shape items
        // by repeating one schema.
        (inner, 0..4usize).prop_map(|(item, n)| Value::List(vec![item; n.max(1)]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binary_roundtrips_any_value(v in value()) {
        let mut out = BinaryOut::new();
        v.write(&mut out);
        let bytes = out.into_bytes();
        let mut input = BinaryIn::new(&bytes);
        prop_assert_eq!(v.read(&mut input), v.clone());
        prop_assert_eq!(input.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn binary_message_headers_roundtrip(
        name in "[a-zA-Z_][a-zA-Z0-9_]{0,30}",
        seq in any::<i32>(),
        ty_idx in 0usize..4,
    ) {
        let ty = [TMessageType::Call, TMessageType::Reply, TMessageType::Exception, TMessageType::Oneway][ty_idx];
        let mut b = BinaryOut::new();
        b.write_message_begin(&name, ty, seq);
        let bytes = b.into_bytes();
        let h = BinaryIn::new(&bytes).read_message_begin().unwrap();
        prop_assert_eq!(h.name, name);
        prop_assert_eq!(h.ty, ty);
        prop_assert_eq!(h.seq, seq);
    }

    /// Struct skipping: a reader that knows none of the fields must end
    /// at exactly the same offset as one that reads them all.
    #[test]
    fn skip_is_offset_exact(values in prop::collection::vec(value(), 1..6)) {
        let mut out = BinaryOut::new();
        out.write_struct_begin("S");
        for (i, v) in values.iter().enumerate() {
            out.write_field_begin(v.ttype(), (i + 1) as i16);
            v.write(&mut out);
            out.write_field_end();
        }
        out.write_field_stop();
        out.write_struct_end();
        let bytes = out.into_bytes();

        let mut input = BinaryIn::new(&bytes);
        input.read_struct_begin().unwrap();
        loop {
            let (ty, _) = input.read_field_begin().unwrap();
            if ty == TType::Stop { break; }
            input.skip(ty).unwrap();
        }
        prop_assert_eq!(input.remaining(), 0);
    }

    /// Corrupt/truncated input never panics — it errors.
    #[test]
    fn truncated_binary_input_errors_not_panics(v in value(), cut in 0usize..32) {
        let mut out = BinaryOut::new();
        v.write(&mut out);
        let bytes = out.into_bytes();
        if cut < bytes.len() && cut > 0 {
            let truncated = &bytes[..bytes.len() - cut];
            let mut input = BinaryIn::new(truncated);
            // Either an early error or a short read; must not panic.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = v.read_checked(&mut input);
            }));
        }
    }

    /// Arbitrary bytes fed to the binary reader — the codec every request
    /// goes through — return a value or a typed error, never panic: as a
    /// message header, as a length-prefixed binary, and skipped as every
    /// wire type.
    #[test]
    fn binary_reader_tolerates_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let typed = |r: hatrpc_core::Result<()>| matches!(r, Ok(()) | Err(CoreError::Protocol(_)));
        prop_assert!(typed(BinaryIn::new(&bytes).read_message_begin().map(drop)));
        prop_assert!(typed(BinaryIn::new(&bytes).read_binary().map(drop)));
        // Every wire type, `Stop` included (skipping it is an error).
        for ty in (0..=15).filter_map(|v| TType::from_u8(v).ok()) {
            prop_assert!(typed(BinaryIn::new(&bytes).skip(ty)), "{:?}", ty);
        }
    }
}

impl Value {
    /// Like `read` but propagates errors instead of unwrapping (for the
    /// truncation property).
    fn read_checked(&self, input: &mut impl TInputProtocol) -> hatrpc_core::Result<Value> {
        Ok(match self {
            Value::Bool(_) => Value::Bool(input.read_bool()?),
            Value::Byte(_) => Value::Byte(input.read_byte()?),
            Value::I16(_) => Value::I16(input.read_i16()?),
            Value::I32(_) => Value::I32(input.read_i32()?),
            Value::I64(_) => Value::I64(input.read_i64()?),
            Value::Double(_) => Value::Double(input.read_double()?),
            Value::Str(_) => Value::Str(input.read_string()?),
            Value::Bin(_) => Value::Bin(input.read_binary()?),
            Value::List(items) => {
                let (_t, n) = input.read_list_begin()?;
                let mut out = Vec::new();
                for i in 0..n {
                    let schema = items.get(i.min(items.len().saturating_sub(1)));
                    match schema {
                        Some(s) => out.push(s.read_checked(input)?),
                        None => break,
                    }
                }
                input.read_list_end()?;
                Value::List(out)
            }
        })
    }
}
