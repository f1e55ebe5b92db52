//! Thrift serialization protocols.
//!
//! The Protocol layer of the Thrift stack (paper Figure 2): turns typed
//! values into wire bytes and back. Two of the stack's options are
//! implemented — [`binary::BinaryOut`]/[`binary::BinaryIn`] (the default)
//! and [`compact::CompactOut`]/[`compact::CompactIn`] (varint/zigzag).
//! Generated code and the dynamic dispatcher are written against the
//! [`TOutputProtocol`]/[`TInputProtocol`] traits so either can be plugged
//! in per connection.

pub mod binary;
pub mod compact;

use crate::error::{CoreError, Result};

/// Spare room kept behind a `binary` value that made its buffer grow: the
/// field stops that always follow a field. Without it a buffer just sized
/// to a 256 KiB payload doubles to push one stop byte.
const BINARY_TAIL: usize = 16;

/// Append a `binary`/`string` body. If the buffer has to grow it grows
/// once, to the value plus [`BINARY_TAIL`] — or geometrically when that is
/// more, so a long run of small values still reallocates O(log n) times.
fn extend_binary(buf: &mut Vec<u8>, v: &[u8]) {
    if buf.capacity() - buf.len() < v.len() {
        buf.reserve(v.len() + BINARY_TAIL);
    }
    buf.extend_from_slice(v);
}

/// Thrift wire type ids (`TType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TType {
    /// Field-list terminator.
    Stop = 0,
    Bool = 2,
    Byte = 3,
    Double = 4,
    I16 = 6,
    I32 = 8,
    I64 = 10,
    /// Strings and binary share a wire type.
    String = 11,
    Struct = 12,
    Map = 13,
    Set = 14,
    List = 15,
}

impl TType {
    /// Decode a wire type id.
    pub fn from_u8(v: u8) -> Result<TType> {
        Ok(match v {
            0 => TType::Stop,
            2 => TType::Bool,
            3 => TType::Byte,
            4 => TType::Double,
            6 => TType::I16,
            8 => TType::I32,
            10 => TType::I64,
            11 => TType::String,
            12 => TType::Struct,
            13 => TType::Map,
            14 => TType::Set,
            15 => TType::List,
            other => return Err(CoreError::Protocol(format!("invalid TType {other}"))),
        })
    }
}

/// Thrift message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TMessageType {
    /// A request expecting a reply.
    Call = 1,
    /// A successful reply.
    Reply = 2,
    /// A server-side failure.
    Exception = 3,
    /// A request with no reply.
    Oneway = 4,
}

impl TMessageType {
    /// Decode a message kind.
    pub fn from_u8(v: u8) -> Result<TMessageType> {
        Ok(match v {
            1 => TMessageType::Call,
            2 => TMessageType::Reply,
            3 => TMessageType::Exception,
            4 => TMessageType::Oneway,
            other => return Err(CoreError::Protocol(format!("invalid message type {other}"))),
        })
    }
}

/// A decoded message header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageHeader {
    /// Method name.
    pub name: String,
    /// Message kind.
    pub ty: TMessageType,
    /// Sequence id.
    pub seq: i32,
}

/// Serialization side of a Thrift protocol.
pub trait TOutputProtocol {
    fn write_message_begin(&mut self, name: &str, ty: TMessageType, seq: i32);
    fn write_message_end(&mut self) {}
    fn write_struct_begin(&mut self, _name: &str) {}
    fn write_struct_end(&mut self) {}
    fn write_field_begin(&mut self, ty: TType, id: i16);
    fn write_field_end(&mut self) {}
    fn write_field_stop(&mut self);
    fn write_bool(&mut self, v: bool);
    fn write_byte(&mut self, v: i8);
    fn write_i16(&mut self, v: i16);
    fn write_i32(&mut self, v: i32);
    fn write_i64(&mut self, v: i64);
    fn write_double(&mut self, v: f64);
    fn write_string(&mut self, v: &str);
    fn write_binary(&mut self, v: &[u8]);
    fn write_list_begin(&mut self, elem: TType, len: usize);
    fn write_list_end(&mut self) {}
    fn write_set_begin(&mut self, elem: TType, len: usize);
    fn write_set_end(&mut self) {}
    fn write_map_begin(&mut self, key: TType, val: TType, len: usize);
    fn write_map_end(&mut self) {}
}

/// Deserialization side of a Thrift protocol.
pub trait TInputProtocol {
    fn read_message_begin(&mut self) -> Result<MessageHeader>;
    fn read_message_end(&mut self) -> Result<()> {
        Ok(())
    }
    fn read_struct_begin(&mut self) -> Result<()> {
        Ok(())
    }
    fn read_struct_end(&mut self) -> Result<()> {
        Ok(())
    }
    /// Returns `(wire type, field id)`; `TType::Stop` ends the struct.
    fn read_field_begin(&mut self) -> Result<(TType, i16)>;
    fn read_field_end(&mut self) -> Result<()> {
        Ok(())
    }
    fn read_bool(&mut self) -> Result<bool>;
    fn read_byte(&mut self) -> Result<i8>;
    fn read_i16(&mut self) -> Result<i16>;
    fn read_i32(&mut self) -> Result<i32>;
    fn read_i64(&mut self) -> Result<i64>;
    fn read_double(&mut self) -> Result<f64>;
    fn read_string(&mut self) -> Result<String>;
    fn read_binary(&mut self) -> Result<Vec<u8>>;
    fn read_list_begin(&mut self) -> Result<(TType, usize)>;
    fn read_list_end(&mut self) -> Result<()> {
        Ok(())
    }
    fn read_set_begin(&mut self) -> Result<(TType, usize)>;
    fn read_set_end(&mut self) -> Result<()> {
        Ok(())
    }
    fn read_map_begin(&mut self) -> Result<(TType, TType, usize)>;
    fn read_map_end(&mut self) -> Result<()> {
        Ok(())
    }

    /// Skip a value of the given type (for unknown fields).
    fn skip(&mut self, ty: TType) -> Result<()> {
        match ty {
            TType::Stop => Err(CoreError::Protocol("cannot skip STOP".into())),
            TType::Bool => self.read_bool().map(drop),
            TType::Byte => self.read_byte().map(drop),
            TType::Double => self.read_double().map(drop),
            TType::I16 => self.read_i16().map(drop),
            TType::I32 => self.read_i32().map(drop),
            TType::I64 => self.read_i64().map(drop),
            TType::String => self.read_binary().map(drop),
            TType::Struct => {
                self.read_struct_begin()?;
                loop {
                    let (fty, _) = self.read_field_begin()?;
                    if fty == TType::Stop {
                        break;
                    }
                    self.skip(fty)?;
                    self.read_field_end()?;
                }
                self.read_struct_end()
            }
            TType::List => {
                let (ety, n) = self.read_list_begin()?;
                for _ in 0..n {
                    self.skip(ety)?;
                }
                self.read_list_end()
            }
            TType::Set => {
                let (ety, n) = self.read_set_begin()?;
                for _ in 0..n {
                    self.skip(ety)?;
                }
                self.read_set_end()
            }
            TType::Map => {
                let (kty, vty, n) = self.read_map_begin()?;
                for _ in 0..n {
                    self.skip(kty)?;
                    self.skip(vty)?;
                }
                self.read_map_end()
            }
        }
    }
}

/// Which serialization protocol a connection uses (part of the engine
/// preamble so both sides agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolFlavor {
    /// [`binary`] — Thrift's default.
    #[default]
    Binary,
    /// [`compact`] — varint/zigzag, smaller payloads.
    Compact,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttype_roundtrip() {
        for t in [
            TType::Stop,
            TType::Bool,
            TType::Byte,
            TType::Double,
            TType::I16,
            TType::I32,
            TType::I64,
            TType::String,
            TType::Struct,
            TType::Map,
            TType::Set,
            TType::List,
        ] {
            assert_eq!(TType::from_u8(t as u8).unwrap(), t);
        }
        assert!(TType::from_u8(99).is_err());
    }

    #[test]
    fn message_type_roundtrip() {
        for t in
            [TMessageType::Call, TMessageType::Reply, TMessageType::Exception, TMessageType::Oneway]
        {
            assert_eq!(TMessageType::from_u8(t as u8).unwrap(), t);
        }
        assert!(TMessageType::from_u8(0).is_err());
    }
}
