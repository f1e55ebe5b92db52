//! The Thrift compact protocol: varint/zigzag scalars and delta-encoded
//! field ids, trading CPU for smaller wire payloads.

use super::{MessageHeader, TInputProtocol, TMessageType, TOutputProtocol, TType};
use crate::error::{CoreError, Result};

const PROTOCOL_ID: u8 = 0x82;
const VERSION: u8 = 1;

/// Compact wire type codes (distinct from [`TType`] ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum CType {
    Stop = 0,
    BoolTrue = 1,
    BoolFalse = 2,
    Byte = 3,
    I16 = 4,
    I32 = 5,
    I64 = 6,
    Double = 7,
    Binary = 8,
    List = 9,
    Set = 10,
    Map = 11,
    Struct = 12,
}

impl CType {
    fn from_ttype(t: TType) -> CType {
        match t {
            TType::Stop => CType::Stop,
            TType::Bool => CType::BoolTrue, // patched per-value for fields
            TType::Byte => CType::Byte,
            TType::I16 => CType::I16,
            TType::I32 => CType::I32,
            TType::I64 => CType::I64,
            TType::Double => CType::Double,
            TType::String => CType::Binary,
            TType::Struct => CType::Struct,
            TType::Map => CType::Map,
            TType::Set => CType::Set,
            TType::List => CType::List,
        }
    }

    fn to_ttype(v: u8) -> Result<TType> {
        Ok(match v {
            0 => TType::Stop,
            1 | 2 => TType::Bool,
            3 => TType::Byte,
            4 => TType::I16,
            5 => TType::I32,
            6 => TType::I64,
            7 => TType::Double,
            8 => TType::String,
            9 => TType::List,
            10 => TType::Set,
            11 => TType::Map,
            12 => TType::Struct,
            other => return Err(CoreError::Protocol(format!("invalid compact type {other}"))),
        })
    }
}

#[inline]
fn zigzag32(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

#[inline]
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag32(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Compact-protocol serializer.
#[derive(Debug, Default)]
pub struct CompactOut {
    buf: Vec<u8>,
    last_field_id: Vec<i16>,
    current_field_id: i16,
    /// Set when a bool field header is pending its value.
    pending_bool_field: Option<i16>,
}

impl CompactOut {
    /// New empty serializer.
    pub fn new() -> CompactOut {
        CompactOut { last_field_id: vec![0], ..Default::default() }
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn write_varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
    }

    fn write_field_header(&mut self, ctype: u8, id: i16) {
        let last = *self.last_field_id.last().expect("struct depth tracked");
        let delta = id as i32 - last as i32;
        if (1..=15).contains(&delta) {
            self.buf.push(((delta as u8) << 4) | ctype);
        } else {
            self.buf.push(ctype);
            self.write_varint(zigzag32(id as i32));
        }
        *self.last_field_id.last_mut().expect("struct depth tracked") = id;
    }
}

impl TOutputProtocol for CompactOut {
    fn write_message_begin(&mut self, name: &str, ty: TMessageType, seq: i32) {
        self.buf.push(PROTOCOL_ID);
        self.buf.push(((ty as u8) << 5) | VERSION);
        self.write_varint(seq as u32 as u64);
        self.write_string(name);
    }

    fn write_struct_begin(&mut self, _name: &str) {
        self.last_field_id.push(0);
    }

    fn write_struct_end(&mut self) {
        self.last_field_id.pop();
        if self.last_field_id.is_empty() {
            self.last_field_id.push(0);
        }
    }

    fn write_field_begin(&mut self, ty: TType, id: i16) {
        if ty == TType::Bool {
            // Header emitted with the value in write_bool.
            self.pending_bool_field = Some(id);
        } else {
            self.write_field_header(CType::from_ttype(ty) as u8, id);
        }
        self.current_field_id = id;
    }

    fn write_field_stop(&mut self) {
        self.buf.push(CType::Stop as u8);
    }

    fn write_bool(&mut self, v: bool) {
        let ctype = if v { CType::BoolTrue } else { CType::BoolFalse } as u8;
        match self.pending_bool_field.take() {
            Some(id) => self.write_field_header(ctype, id),
            None => self.buf.push(if v { 1 } else { 2 }),
        }
    }

    fn write_byte(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    fn write_i16(&mut self, v: i16) {
        self.write_varint(zigzag32(v as i32));
    }

    fn write_i32(&mut self, v: i32) {
        self.write_varint(zigzag32(v));
    }

    fn write_i64(&mut self, v: i64) {
        self.write_varint(zigzag64(v));
    }

    fn write_double(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn write_string(&mut self, v: &str) {
        self.write_binary(v.as_bytes());
    }

    fn write_binary(&mut self, v: &[u8]) {
        self.write_varint(v.len() as u64);
        super::extend_binary(&mut self.buf, v);
    }

    fn write_list_begin(&mut self, elem: TType, len: usize) {
        let et = CType::from_ttype(elem) as u8;
        if len < 15 {
            self.buf.push(((len as u8) << 4) | et);
        } else {
            self.buf.push(0xf0 | et);
            self.write_varint(len as u64);
        }
    }

    fn write_set_begin(&mut self, elem: TType, len: usize) {
        self.write_list_begin(elem, len);
    }

    fn write_map_begin(&mut self, key: TType, val: TType, len: usize) {
        if len == 0 {
            self.buf.push(0);
            return;
        }
        self.write_varint(len as u64);
        self.buf.push(((CType::from_ttype(key) as u8) << 4) | CType::from_ttype(val) as u8);
    }
}

/// Compact-protocol deserializer.
#[derive(Debug)]
pub struct CompactIn<'a> {
    buf: &'a [u8],
    pos: usize,
    last_field_id: Vec<i16>,
    /// Bool value decoded from the field header, consumed by `read_bool`.
    pending_bool: Option<bool>,
}

impl<'a> CompactIn<'a> {
    /// Wrap an encoded message.
    pub fn new(buf: &'a [u8]) -> CompactIn<'a> {
        CompactIn { buf, pos: 0, last_field_id: vec![0], pending_bool: None }
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

    fn read_varint(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        let mut shift = 0;
        loop {
            let b = self.take(1)?[0];
            out |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CoreError::Protocol("varint too long".into()));
            }
        }
    }
}

impl TInputProtocol for CompactIn<'_> {
    fn read_message_begin(&mut self) -> Result<MessageHeader> {
        let pid = self.take(1)?[0];
        if pid != PROTOCOL_ID {
            return Err(CoreError::Protocol(format!("bad compact protocol id {pid:#x}")));
        }
        let tv = self.take(1)?[0];
        if tv & 0x1f != VERSION {
            return Err(CoreError::Protocol(format!("bad compact version {}", tv & 0x1f)));
        }
        let ty = TMessageType::from_u8(tv >> 5)?;
        let seq = self.read_varint()? as u32 as i32;
        let name = self.read_string()?;
        Ok(MessageHeader { name, ty, seq })
    }

    fn read_struct_begin(&mut self) -> Result<()> {
        self.last_field_id.push(0);
        Ok(())
    }

    fn read_struct_end(&mut self) -> Result<()> {
        self.last_field_id.pop();
        if self.last_field_id.is_empty() {
            self.last_field_id.push(0);
        }
        Ok(())
    }

    fn read_field_begin(&mut self) -> Result<(TType, i16)> {
        let b = self.take(1)?[0];
        if b == 0 {
            return Ok((TType::Stop, 0));
        }
        let ctype = b & 0x0f;
        let delta = b >> 4;
        let id = if delta == 0 {
            unzigzag32(self.read_varint()?) as i16
        } else {
            self.last_field_id.last().expect("struct depth") + delta as i16
        };
        *self.last_field_id.last_mut().expect("struct depth") = id;
        if ctype == CType::BoolTrue as u8 {
            self.pending_bool = Some(true);
        } else if ctype == CType::BoolFalse as u8 {
            self.pending_bool = Some(false);
        }
        Ok((CType::to_ttype(ctype)?, id))
    }

    fn read_bool(&mut self) -> Result<bool> {
        if let Some(v) = self.pending_bool.take() {
            return Ok(v);
        }
        Ok(self.take(1)?[0] == 1)
    }

    fn read_byte(&mut self) -> Result<i8> {
        Ok(self.take(1)?[0] as i8)
    }

    fn read_i16(&mut self) -> Result<i16> {
        Ok(unzigzag32(self.read_varint()?) as i16)
    }

    fn read_i32(&mut self) -> Result<i32> {
        Ok(unzigzag32(self.read_varint()?))
    }

    fn read_i64(&mut self) -> Result<i64> {
        Ok(unzigzag64(self.read_varint()?))
    }

    fn read_double(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))))
    }

    fn read_string(&mut self) -> Result<String> {
        let bytes = self.read_binary()?;
        String::from_utf8(bytes).map_err(|e| CoreError::Protocol(format!("invalid UTF-8: {e}")))
    }

    fn read_binary(&mut self) -> Result<Vec<u8>> {
        let len = self.read_varint()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn read_list_begin(&mut self) -> Result<(TType, usize)> {
        let b = self.take(1)?[0];
        let ety = CType::to_ttype(b & 0x0f)?;
        let short = (b >> 4) as usize;
        let len = if short == 15 { self.read_varint()? as usize } else { short };
        Ok((ety, len))
    }

    fn read_set_begin(&mut self) -> Result<(TType, usize)> {
        self.read_list_begin()
    }

    fn read_map_begin(&mut self) -> Result<(TType, TType, usize)> {
        let len = self.read_varint()? as usize;
        if len == 0 {
            return Ok((TType::Bool, TType::Bool, 0));
        }
        let kv = self.take(1)?[0];
        Ok((CType::to_ttype(kv >> 4)?, CType::to_ttype(kv & 0x0f)?, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i32, 1, -1, 63, -64, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag32(zigzag32(v)), v, "{v}");
        }
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag64(zigzag64(v)), v, "{v}");
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut out = CompactOut::new();
        out.write_byte(-7);
        out.write_i16(-300);
        out.write_i32(1_000_000);
        out.write_i64(-5_000_000_000);
        out.write_double(2.25);
        out.write_string("compact");
        out.write_binary(&[9, 8, 7]);
        out.write_bool(true);
        out.write_bool(false);
        let bytes = out.into_bytes();
        let mut i = CompactIn::new(&bytes);
        assert_eq!(i.read_byte().unwrap(), -7);
        assert_eq!(i.read_i16().unwrap(), -300);
        assert_eq!(i.read_i32().unwrap(), 1_000_000);
        assert_eq!(i.read_i64().unwrap(), -5_000_000_000);
        assert_eq!(i.read_double().unwrap(), 2.25);
        assert_eq!(i.read_string().unwrap(), "compact");
        assert_eq!(i.read_binary().unwrap(), vec![9, 8, 7]);
        assert!(i.read_bool().unwrap());
        assert!(!i.read_bool().unwrap());
        assert_eq!(i.remaining(), 0);
    }

    #[test]
    fn message_header_roundtrip() {
        let mut out = CompactOut::new();
        out.write_message_begin("m", TMessageType::Reply, 7);
        let bytes = out.into_bytes();
        let h = CompactIn::new(&bytes).read_message_begin().unwrap();
        assert_eq!(h, MessageHeader { name: "m".into(), ty: TMessageType::Reply, seq: 7 });
    }

    #[test]
    fn struct_with_bool_fields_and_deltas() {
        let mut out = CompactOut::new();
        out.write_struct_begin("S");
        out.write_field_begin(TType::Bool, 1);
        out.write_bool(true);
        out.write_field_begin(TType::Bool, 2);
        out.write_bool(false);
        out.write_field_begin(TType::I32, 100); // large delta → explicit id
        out.write_i32(5);
        out.write_field_stop();
        out.write_struct_end();
        let bytes = out.into_bytes();
        let mut i = CompactIn::new(&bytes);
        i.read_struct_begin().unwrap();
        let (t1, id1) = i.read_field_begin().unwrap();
        assert_eq!((t1, id1), (TType::Bool, 1));
        assert!(i.read_bool().unwrap());
        let (t2, id2) = i.read_field_begin().unwrap();
        assert_eq!((t2, id2), (TType::Bool, 2));
        assert!(!i.read_bool().unwrap());
        let (t3, id3) = i.read_field_begin().unwrap();
        assert_eq!((t3, id3), (TType::I32, 100));
        assert_eq!(i.read_i32().unwrap(), 5);
        assert_eq!(i.read_field_begin().unwrap().0, TType::Stop);
    }

    #[test]
    fn containers_roundtrip() {
        let mut out = CompactOut::new();
        out.write_list_begin(TType::I32, 3);
        for v in [1, 2, 3] {
            out.write_i32(v);
        }
        out.write_list_begin(TType::I64, 20); // long form
        for v in 0..20i64 {
            out.write_i64(v);
        }
        out.write_map_begin(TType::String, TType::I32, 1);
        out.write_string("k");
        out.write_i32(9);
        out.write_map_begin(TType::String, TType::I32, 0);
        let bytes = out.into_bytes();
        let mut i = CompactIn::new(&bytes);
        let (t, n) = i.read_list_begin().unwrap();
        assert_eq!((t, n), (TType::I32, 3));
        for v in [1, 2, 3] {
            assert_eq!(i.read_i32().unwrap(), v);
        }
        let (t2, n2) = i.read_list_begin().unwrap();
        assert_eq!((t2, n2), (TType::I64, 20));
        for v in 0..20i64 {
            assert_eq!(i.read_i64().unwrap(), v);
        }
        let (kt, vt, mn) = i.read_map_begin().unwrap();
        assert_eq!((kt, vt, mn), (TType::String, TType::I32, 1));
        assert_eq!(i.read_string().unwrap(), "k");
        assert_eq!(i.read_i32().unwrap(), 9);
        let (_, _, empty) = i.read_map_begin().unwrap();
        assert_eq!(empty, 0);
    }

    #[test]
    fn compact_is_smaller_than_binary_for_small_ints() {
        let mut c = CompactOut::new();
        let mut b = super::super::binary::BinaryOut::new();
        for v in 0..100i64 {
            c.write_i64(v);
            b.write_i64(v);
        }
        assert!(c.into_bytes().len() < b.into_bytes().len());
    }

    #[test]
    fn skip_works_via_trait_default() {
        let mut out = CompactOut::new();
        out.write_field_begin(TType::List, 1);
        out.write_list_begin(TType::I32, 2);
        out.write_i32(1);
        out.write_i32(2);
        out.write_field_stop();
        let bytes = out.into_bytes();
        let mut i = CompactIn::new(&bytes);
        let (ty, _) = i.read_field_begin().unwrap();
        i.skip(ty).unwrap();
        assert_eq!(i.read_field_begin().unwrap().0, TType::Stop);
    }

    #[test]
    fn bad_protocol_id_rejected() {
        assert!(CompactIn::new(&[0x00, 0x21]).read_message_begin().is_err());
    }
}
