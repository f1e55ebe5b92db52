//! Abstract syntax tree for the hinted Thrift IDL.
//!
//! Mirrors the grammar nodes the paper adds to Thrift's Bison grammar
//! (its Figure 7 marks the hint nodes in red); everything else is the
//! standard Thrift document structure.

use crate::hints::HintBlock;

/// A parsed IDL document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// `namespace <scope> <name>` declarations.
    pub namespaces: Vec<(String, String)>,
    /// `include "file"` declarations (not resolved; recorded verbatim).
    pub includes: Vec<String>,
    /// `typedef <type> <name>`.
    pub typedefs: Vec<Typedef>,
    /// `enum` definitions.
    pub enums: Vec<Enum>,
    /// `struct` definitions.
    pub structs: Vec<Struct>,
    /// `exception` definitions (structurally identical to structs).
    pub exceptions: Vec<Struct>,
    /// `const` definitions.
    pub consts: Vec<Const>,
    /// `service` definitions — where the hints live.
    pub services: Vec<Service>,
}

impl Document {
    /// Find a service by name.
    pub fn service(&self, name: &str) -> Option<&Service> {
        self.services.iter().find(|s| s.name == name)
    }
}

/// `typedef <ty> <name>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Typedef {
    /// The aliased type.
    pub ty: Type,
    /// The new name.
    pub name: String,
}

/// An enum definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Enum {
    /// Enum name.
    pub name: String,
    /// (variant, explicit-or-assigned value) pairs.
    pub variants: Vec<(String, i32)>,
}

/// A struct or exception definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Struct {
    /// Type name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

/// A `const` definition (value kept as raw literal text).
#[derive(Debug, Clone, PartialEq)]
pub struct Const {
    /// Declared type.
    pub ty: Type,
    /// Constant name.
    pub name: String,
    /// Literal value as written.
    pub value: ConstValue,
}

/// Constant literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstValue {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// String literal.
    Str(String),
    /// Named reference to another const/enum value.
    Ident(String),
}

/// Thrift types.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    Bool,
    Byte,
    I8,
    I16,
    I32,
    I64,
    Double,
    String,
    Binary,
    /// `void` (function returns only).
    Void,
    /// `list<T>`.
    List(Box<Type>),
    /// `set<T>`.
    Set(Box<Type>),
    /// `map<K, V>`.
    Map(Box<Type>, Box<Type>),
    /// A user-defined type (struct/enum/typedef/exception) by name.
    Named(String),
}

impl Type {
    /// Rust type this maps to in generated code.
    pub fn rust_name(&self) -> String {
        match self {
            Type::Bool => "bool".into(),
            Type::Byte | Type::I8 => "i8".into(),
            Type::I16 => "i16".into(),
            Type::I32 => "i32".into(),
            Type::I64 => "i64".into(),
            Type::Double => "f64".into(),
            Type::String => "String".into(),
            Type::Binary => "Vec<u8>".into(),
            Type::Void => "()".into(),
            Type::List(t) => format!("Vec<{}>", t.rust_name()),
            Type::Set(t) => format!("std::collections::BTreeSet<{}>", t.rust_name()),
            Type::Map(k, v) => {
                format!("std::collections::BTreeMap<{}, {}>", k.rust_name(), v.rust_name())
            }
            Type::Named(n) => n.clone(),
        }
    }
}

/// Field requiredness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Requiredness {
    /// Unspecified (Thrift's default semantics).
    #[default]
    Default,
    /// `required`.
    Required,
    /// `optional`.
    Optional,
}

/// A struct field or function argument.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Explicit field id (`1:`), if present.
    pub id: Option<i16>,
    /// Requiredness qualifier.
    pub req: Requiredness,
    /// Field type.
    pub ty: Type,
    /// Field name.
    pub name: String,
}

/// A service definition with its hint block (paper Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Service name.
    pub name: String,
    /// `extends` parent, if any.
    pub extends: Option<String>,
    /// Service-level hints.
    pub hints: HintBlock,
    /// RPC functions in declaration order.
    pub functions: Vec<Function>,
}

impl Service {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// An RPC function with its optional function-level hint block.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// `oneway` functions have no response.
    pub oneway: bool,
    /// Return type (`Void` for `void`).
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Arguments.
    pub args: Vec<Field>,
    /// Declared `throws` exceptions.
    pub throws: Vec<Field>,
    /// Function-level hints (override service hints per key).
    pub hints: HintBlock,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_rust_names() {
        assert_eq!(Type::I32.rust_name(), "i32");
        assert_eq!(Type::Binary.rust_name(), "Vec<u8>");
        assert_eq!(Type::List(Box::new(Type::String)).rust_name(), "Vec<String>");
        assert_eq!(
            Type::Map(Box::new(Type::String), Box::new(Type::I64)).rust_name(),
            "std::collections::BTreeMap<String, i64>"
        );
        assert_eq!(Type::Named("KVPair".into()).rust_name(), "KVPair");
    }

    #[test]
    fn document_lookups() {
        let mut doc = Document::default();
        doc.services.push(Service {
            name: "Svc".into(),
            extends: None,
            hints: HintBlock::default(),
            functions: vec![Function {
                oneway: false,
                ret: Type::Void,
                name: "f".into(),
                args: vec![],
                throws: vec![],
                hints: HintBlock::default(),
            }],
        });
        assert!(doc.service("Svc").unwrap().function("f").is_some());
        assert!(doc.service("Nope").is_none());
    }
}
