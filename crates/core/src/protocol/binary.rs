//! The Thrift binary protocol: fixed-width big-endian encoding with the
//! strict versioned message header.

use super::{MessageHeader, TInputProtocol, TMessageType, TOutputProtocol, TType};
use crate::error::{CoreError, Result};

/// Strict-mode version word for message headers.
const VERSION_1: u32 = 0x8001_0000;

/// Binary-protocol serializer writing into an owned buffer.
#[derive(Debug, Default)]
pub struct BinaryOut {
    buf: Vec<u8>,
}

impl BinaryOut {
    /// New empty serializer.
    pub fn new() -> BinaryOut {
        BinaryOut::default()
    }

    /// Serializer with pre-reserved capacity (hot paths size this from the
    /// payload hint).
    pub fn with_capacity(cap: usize) -> BinaryOut {
        BinaryOut { buf: Vec::with_capacity(cap) }
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TOutputProtocol for BinaryOut {
    fn write_message_begin(&mut self, name: &str, ty: TMessageType, seq: i32) {
        self.buf.extend_from_slice(&(VERSION_1 | ty as u32).to_be_bytes());
        self.write_string(name);
        self.write_i32(seq);
    }

    fn write_field_begin(&mut self, ty: TType, id: i16) {
        self.buf.push(ty as u8);
        self.buf.extend_from_slice(&id.to_be_bytes());
    }

    fn write_field_stop(&mut self) {
        self.buf.push(TType::Stop as u8);
    }

    fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn write_byte(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    fn write_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn write_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn write_double(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn write_string(&mut self, v: &str) {
        self.write_binary(v.as_bytes());
    }

    fn write_binary(&mut self, v: &[u8]) {
        self.write_i32(v.len() as i32);
        super::extend_binary(&mut self.buf, v);
    }

    fn write_list_begin(&mut self, elem: TType, len: usize) {
        self.buf.push(elem as u8);
        self.write_i32(len as i32);
    }

    fn write_set_begin(&mut self, elem: TType, len: usize) {
        self.write_list_begin(elem, len);
    }

    fn write_map_begin(&mut self, key: TType, val: TType, len: usize) {
        self.buf.push(key as u8);
        self.buf.push(val as u8);
        self.write_i32(len as i32);
    }
}

/// Binary-protocol deserializer over a borrowed buffer.
#[derive(Debug)]
pub struct BinaryIn<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinaryIn<'a> {
    /// Wrap an encoded message.
    pub fn new(buf: &'a [u8]) -> BinaryIn<'a> {
        BinaryIn { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CoreError::Protocol(format!(
                "buffer underrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

impl TInputProtocol for BinaryIn<'_> {
    fn read_message_begin(&mut self) -> Result<MessageHeader> {
        let word = u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes"));
        if word & 0xffff_0000 != VERSION_1 {
            return Err(CoreError::Protocol(format!("bad binary protocol version {word:#x}")));
        }
        let ty = TMessageType::from_u8((word & 0xff) as u8)?;
        let name = self.read_string()?;
        let seq = self.read_i32()?;
        Ok(MessageHeader { name, ty, seq })
    }

    fn read_field_begin(&mut self) -> Result<(TType, i16)> {
        let ty = TType::from_u8(self.take(1)?[0])?;
        if ty == TType::Stop {
            return Ok((ty, 0));
        }
        let id = i16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes"));
        Ok((ty, id))
    }

    fn read_bool(&mut self) -> Result<bool> {
        Ok(self.take(1)?[0] != 0)
    }

    fn read_byte(&mut self) -> Result<i8> {
        Ok(self.take(1)?[0] as i8)
    }

    fn read_i16(&mut self) -> Result<i16> {
        Ok(i16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn read_i32(&mut self) -> Result<i32> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn read_i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn read_double(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes"))))
    }

    fn read_string(&mut self) -> Result<String> {
        let bytes = self.read_binary()?;
        String::from_utf8(bytes).map_err(|e| CoreError::Protocol(format!("invalid UTF-8: {e}")))
    }

    fn read_binary(&mut self) -> Result<Vec<u8>> {
        let len = self.read_i32()?;
        if len < 0 {
            return Err(CoreError::Protocol(format!("negative length {len}")));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    fn read_list_begin(&mut self) -> Result<(TType, usize)> {
        let ty = TType::from_u8(self.take(1)?[0])?;
        let len = self.read_i32()?;
        if len < 0 {
            return Err(CoreError::Protocol(format!("negative list length {len}")));
        }
        Ok((ty, len as usize))
    }

    fn read_set_begin(&mut self) -> Result<(TType, usize)> {
        self.read_list_begin()
    }

    fn read_map_begin(&mut self) -> Result<(TType, TType, usize)> {
        let kty = TType::from_u8(self.take(1)?[0])?;
        let vty = TType::from_u8(self.take(1)?[0])?;
        let len = self.read_i32()?;
        if len < 0 {
            return Err(CoreError::Protocol(format!("negative map length {len}")));
        }
        Ok((kty, vty, len as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut out = BinaryOut::new();
        out.write_bool(true);
        out.write_byte(-5);
        out.write_i16(-1234);
        out.write_i32(7_000_000);
        out.write_i64(-9_000_000_000);
        out.write_double(3.5);
        out.write_string("héllo");
        out.write_binary(&[1, 2, 3]);
        let bytes = out.into_bytes();
        let mut i = BinaryIn::new(&bytes);
        assert!(i.read_bool().unwrap());
        assert_eq!(i.read_byte().unwrap(), -5);
        assert_eq!(i.read_i16().unwrap(), -1234);
        assert_eq!(i.read_i32().unwrap(), 7_000_000);
        assert_eq!(i.read_i64().unwrap(), -9_000_000_000);
        assert_eq!(i.read_double().unwrap(), 3.5);
        assert_eq!(i.read_string().unwrap(), "héllo");
        assert_eq!(i.read_binary().unwrap(), vec![1, 2, 3]);
        assert_eq!(i.remaining(), 0);
    }

    #[test]
    fn message_header_roundtrip() {
        let mut out = BinaryOut::new();
        out.write_message_begin("getUser", TMessageType::Call, 42);
        let bytes = out.into_bytes();
        let mut i = BinaryIn::new(&bytes);
        let h = i.read_message_begin().unwrap();
        assert_eq!(h.name, "getUser");
        assert_eq!(h.ty, TMessageType::Call);
        assert_eq!(h.seq, 42);
    }

    #[test]
    fn struct_with_fields_roundtrip() {
        let mut out = BinaryOut::new();
        out.write_struct_begin("Pair");
        out.write_field_begin(TType::String, 1);
        out.write_string("key");
        out.write_field_end();
        out.write_field_begin(TType::I64, 2);
        out.write_i64(99);
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
        let bytes = out.into_bytes();
        let mut i = BinaryIn::new(&bytes);
        i.read_struct_begin().unwrap();
        assert_eq!(i.read_field_begin().unwrap(), (TType::String, 1));
        assert_eq!(i.read_string().unwrap(), "key");
        assert_eq!(i.read_field_begin().unwrap(), (TType::I64, 2));
        assert_eq!(i.read_i64().unwrap(), 99);
        assert_eq!(i.read_field_begin().unwrap().0, TType::Stop);
    }

    #[test]
    fn skip_unknown_fields() {
        let mut out = BinaryOut::new();
        // A struct containing a nested struct and a list we will skip.
        out.write_field_begin(TType::Struct, 1);
        out.write_field_begin(TType::I32, 1);
        out.write_i32(1);
        out.write_field_stop();
        out.write_field_begin(TType::List, 2);
        out.write_list_begin(TType::I64, 3);
        out.write_i64(1);
        out.write_i64(2);
        out.write_i64(3);
        out.write_field_begin(TType::Map, 3);
        out.write_map_begin(TType::String, TType::Bool, 1);
        out.write_string("k");
        out.write_bool(false);
        out.write_field_stop();
        let bytes = out.into_bytes();
        let mut i = BinaryIn::new(&bytes);
        loop {
            let (ty, _) = i.read_field_begin().unwrap();
            if ty == TType::Stop {
                break;
            }
            i.skip(ty).unwrap();
        }
        assert_eq!(i.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut out = BinaryOut::new();
        out.write_i64(5);
        let bytes = out.into_bytes();
        let mut i = BinaryIn::new(&bytes[..4]);
        assert!(i.read_i64().is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut i = BinaryIn::new(&[0, 0, 0, 1, 0, 0, 0, 0]);
        assert!(i.read_message_begin().is_err());
    }

    #[test]
    fn negative_lengths_rejected() {
        let mut out = BinaryOut::new();
        out.write_i32(-1);
        let bytes = out.into_bytes();
        assert!(BinaryIn::new(&bytes).read_binary().is_err());
    }
}
