//! Thrift message framing for calls and replies, and dynamic method
//! dispatch for hand-written services.
//!
//! Generated code (from `hat-codegen`) uses only the framing helpers:
//! its clients build requests with [`encode_call`] and read answers with
//! [`decode_reply`], and its processors dispatch with a `match` on the
//! method name, answering an unknown method or a handler error with
//! [`exception_reply`]. Hand-written services (the ATB and TPC-H
//! workers) route through a [`Router`] instead: it decodes the message
//! header, finds the method in a table, hands typed protocol
//! readers/writers to the method body, and frames the reply — including
//! Thrift application exceptions for unknown methods or handler errors.

use std::collections::HashMap;

use crate::error::{CoreError, Result};
use crate::protocol::binary::{BinaryIn, BinaryOut};
use crate::protocol::{TInputProtocol, TMessageType, TOutputProtocol, TType};

/// Starting capacity of every message encoded here: a small call or reply
/// (header, method name, a few scalar fields or a short key) is one
/// allocation instead of a climb from empty through 8, 16, 32, 64 bytes.
const MSG_START_CAP: usize = 128;

/// A method body: reads its arguments from `input` and writes its result
/// struct to `output` (header handling is the router's job).
pub type MethodFn = Box<dyn FnMut(&mut BinaryIn<'_>, &mut BinaryOut) -> Result<()> + Send>;

/// Routes Thrift messages to method bodies.
#[derive(Default)]
pub struct Router {
    methods: HashMap<String, MethodFn>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.methods.keys().collect();
        names.sort();
        f.debug_struct("Router").field("methods", &names).finish()
    }
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register a method body under `name`.
    pub fn add(
        mut self,
        name: &str,
        f: impl FnMut(&mut BinaryIn<'_>, &mut BinaryOut) -> Result<()> + Send + 'static,
    ) -> Router {
        self.methods.insert(name.to_string(), Box::new(f));
        self
    }

    /// Handle one raw request message, producing the raw reply message.
    ///
    /// Never fails outward: decode errors and unknown methods become
    /// Thrift exception replies so the connection stays usable.
    pub fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        match self.try_handle(request) {
            Ok(reply) => reply,
            Err(e) => {
                // Header may be unparseable; synthesize a best-effort
                // exception reply.
                let (name, seq) = peek_header(request).unwrap_or_else(|| (String::new(), 0));
                exception_reply(&name, seq, &e.to_string())
            }
        }
    }

    fn try_handle(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let mut input = BinaryIn::new(request);
        let header = input.read_message_begin()?;
        let method = match self.methods.get_mut(&header.name) {
            Some(m) => m,
            None => {
                return Ok(exception_reply(
                    &header.name,
                    header.seq,
                    &format!("unknown method '{}'", header.name),
                ))
            }
        };
        let mut output = BinaryOut::with_capacity(MSG_START_CAP);
        output.write_message_begin(&header.name, TMessageType::Reply, header.seq);
        match method(&mut input, &mut output) {
            Ok(()) => {
                output.write_message_end();
                Ok(output.into_bytes())
            }
            Err(e) => Ok(exception_reply(&header.name, header.seq, &e.to_string())),
        }
    }
}

/// Best-effort extraction of (method, seq) from a possibly-corrupt message.
fn peek_header(request: &[u8]) -> Option<(String, i32)> {
    let mut input = BinaryIn::new(request);
    input.read_message_begin().ok().map(|h| (h.name, h.seq))
}

/// Encode a `TApplicationException` reply (field 1: message, field 2: type).
pub fn exception_reply(method: &str, seq: i32, message: &str) -> Vec<u8> {
    let mut out = BinaryOut::with_capacity(MSG_START_CAP);
    out.write_message_begin(method, TMessageType::Exception, seq);
    out.write_struct_begin("TApplicationException");
    out.write_field_begin(TType::String, 1);
    out.write_string(message);
    out.write_field_end();
    out.write_field_begin(TType::I32, 2);
    out.write_i32(0); // UNKNOWN
    out.write_field_end();
    out.write_field_stop();
    out.write_struct_end();
    out.write_message_end();
    out.into_bytes()
}

/// Encode a request message: header + caller-provided args writer.
pub fn encode_call(method: &str, seq: i32, write_args: impl FnOnce(&mut BinaryOut)) -> Vec<u8> {
    let mut out = BinaryOut::with_capacity(MSG_START_CAP);
    out.write_message_begin(method, TMessageType::Call, seq);
    write_args(&mut out);
    out.write_message_end();
    out.into_bytes()
}

/// Decode a reply message: verifies kind/seq, surfaces exceptions, then
/// hands the payload reader to `read_result`.
pub fn decode_reply<T>(
    reply: &[u8],
    expect_seq: i32,
    read_result: impl FnOnce(&mut BinaryIn<'_>) -> Result<T>,
) -> Result<T> {
    let mut input = BinaryIn::new(reply);
    let header = input.read_message_begin()?;
    if header.seq != expect_seq {
        return Err(CoreError::Protocol(format!(
            "sequence mismatch: expected {expect_seq}, got {}",
            header.seq
        )));
    }
    match header.ty {
        TMessageType::Reply => read_result(&mut input),
        TMessageType::Exception => {
            // Read TApplicationException.
            let mut message = String::from("unknown application exception");
            input.read_struct_begin()?;
            loop {
                let (ty, id) = input.read_field_begin()?;
                if ty == TType::Stop {
                    break;
                }
                if id == 1 && ty == TType::String {
                    message = input.read_string()?;
                } else {
                    input.skip(ty)?;
                }
            }
            Err(CoreError::Application(message))
        }
        other => Err(CoreError::Protocol(format!("unexpected message type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_router() -> Router {
        Router::new().add("add", |input, output| {
            input.read_struct_begin()?;
            let mut a = 0i32;
            let mut b = 0i32;
            loop {
                let (ty, id) = input.read_field_begin()?;
                if ty == TType::Stop {
                    break;
                }
                match id {
                    1 => a = input.read_i32()?,
                    2 => b = input.read_i32()?,
                    _ => input.skip(ty)?,
                }
            }
            output.write_struct_begin("add_result");
            output.write_field_begin(TType::I32, 0);
            output.write_i32(a + b);
            output.write_field_end();
            output.write_field_stop();
            output.write_struct_end();
            Ok(())
        })
    }

    fn call_add(router: &mut Router, a: i32, b: i32, seq: i32) -> Result<i32> {
        let req = encode_call("add", seq, |out| {
            out.write_struct_begin("add_args");
            out.write_field_begin(TType::I32, 1);
            out.write_i32(a);
            out.write_field_begin(TType::I32, 2);
            out.write_i32(b);
            out.write_field_stop();
            out.write_struct_end();
        });
        let reply = router.handle(&req);
        decode_reply(&reply, seq, |input| {
            input.read_struct_begin()?;
            let mut sum = 0;
            loop {
                let (ty, id) = input.read_field_begin()?;
                if ty == TType::Stop {
                    break;
                }
                if id == 0 {
                    sum = input.read_i32()?;
                } else {
                    input.skip(ty)?;
                }
            }
            Ok(sum)
        })
    }

    #[test]
    fn end_to_end_method_dispatch() {
        let mut router = add_router();
        assert_eq!(call_add(&mut router, 2, 40, 1).unwrap(), 42);
        assert_eq!(call_add(&mut router, -5, 5, 2).unwrap(), 0);
    }

    #[test]
    fn unknown_method_becomes_application_exception() {
        let mut router = add_router();
        let req = encode_call("subtract", 9, |out| {
            out.write_field_stop();
        });
        let reply = router.handle(&req);
        let err = decode_reply(&reply, 9, |_| Ok(())).unwrap_err();
        assert!(matches!(err, CoreError::Application(m) if m.contains("subtract")));
    }

    #[test]
    fn corrupt_request_still_yields_a_reply() {
        let mut router = add_router();
        let reply = router.handle(&[0xff, 0xfe, 0xfd]);
        assert!(!reply.is_empty(), "router must answer even garbage");
    }

    #[test]
    fn sequence_mismatch_detected() {
        let mut router = add_router();
        let req = encode_call("add", 5, |out| out.write_field_stop());
        let reply = router.handle(&req);
        assert!(matches!(
            decode_reply(&reply, 6, |_| Ok(())),
            Err(CoreError::Protocol(m)) if m.contains("sequence")
        ));
    }

    #[test]
    fn handler_error_becomes_exception_reply() {
        let mut router =
            Router::new().add("boom", |_i, _o| Err(CoreError::Application("kaput".into())));
        let req = encode_call("boom", 1, |out| out.write_field_stop());
        let reply = router.handle(&req);
        let err = decode_reply(&reply, 1, |_| Ok(())).unwrap_err();
        assert!(matches!(err, CoreError::Application(m) if m.contains("kaput")));
    }
}
