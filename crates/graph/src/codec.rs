//! Binary wire codec for the durable twin of the op log.
//!
//! The WAL (`pg-wal`) persists the committed [`Op`] stream and compacted
//! store snapshots; this module is the byte-level encoding both build on.
//! The vendored serde shims deliberately implement no real serialization
//! (see `vendor/README.md`), so the format is hand-rolled: a small,
//! versionless, little-endian tag-length encoding with no
//! self-description — framing, checksums and versioning live one layer
//! up, in the WAL's frame format.
//!
//! Encoding rules:
//!
//! * integers are fixed-width little-endian (`u32` for collection
//!   lengths, `u64`/`i64` for ids and scalar payloads, `f64` as IEEE-754
//!   bits);
//! * strings are `u32` length + UTF-8 bytes;
//! * every enum is a one-byte tag followed by its fields in declaration
//!   order;
//! * collections are `u32` count + elements (property maps and label
//!   sets iterate in their `BTreeMap`/`BTreeSet` order, so encoding is
//!   deterministic: equal values encode to equal bytes).
//!
//! Decoding is strict: unknown tags, short input, invalid UTF-8 and lists
//! or maps nested deeper than [`MAX_NESTING`] all surface as a typed
//! [`CodecError`] (never a panic or a stack overflow), because the WAL
//! reader and the wire server must treat arbitrary bytes as data.

use crate::ids::{NodeId, RelId};
use crate::op::Op;
use crate::props::PropertyMap;
use crate::record::{NodeRecord, RelRecord};
use crate::value::{Value, MAX_NESTING};
use std::fmt;

/// Decoding failure. Carries enough context to report *what* failed to
/// decode; the byte offset is tracked by the WAL frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof { what: &'static str },
    /// An enum tag byte was out of range.
    BadTag { what: &'static str, tag: u8 },
    /// A string field was not valid UTF-8.
    BadUtf8 { what: &'static str },
    /// Lists and maps nested deeper than [`MAX_NESTING`].
    TooDeep,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            CodecError::BadTag { what, tag } => write!(f, "invalid tag byte {tag} for {what}"),
            CodecError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            CodecError::TooDeep => {
                write!(f, "lists/maps nested deeper than {MAX_NESTING} levels")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over undecoded input. All decode functions consume from the
/// front; [`Reader::is_empty`] lets the caller assert full consumption.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(self.u64(what)? as i64)
    }

    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn string(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { what })
    }
}

// ----------------------------------------------------------------------
// Primitive writers
// ----------------------------------------------------------------------

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, v as u64);
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ----------------------------------------------------------------------
// Value
// ----------------------------------------------------------------------

const V_NULL: u8 = 0;
const V_BOOL: u8 = 1;
const V_INT: u8 = 2;
const V_FLOAT: u8 = 3;
const V_STR: u8 = 4;
const V_DATE: u8 = 5;
const V_DATETIME: u8 = 6;
const V_LIST: u8 = 7;
const V_MAP: u8 = 8;
const V_NODE: u8 = 9;
const V_REL: u8 = 10;

pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => put_u8(out, V_NULL),
        Value::Bool(b) => {
            put_u8(out, V_BOOL);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, V_INT);
            put_i64(out, *i);
        }
        Value::Float(x) => {
            put_u8(out, V_FLOAT);
            put_f64(out, *x);
        }
        Value::Str(s) => {
            put_u8(out, V_STR);
            put_str(out, s);
        }
        Value::Date(d) => {
            put_u8(out, V_DATE);
            put_i64(out, *d);
        }
        Value::DateTime(t) => {
            put_u8(out, V_DATETIME);
            put_i64(out, *t);
        }
        Value::List(items) => {
            put_u8(out, V_LIST);
            put_u32(out, items.len() as u32);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(m) => {
            put_u8(out, V_MAP);
            put_u32(out, m.len() as u32);
            for (k, item) in m {
                put_str(out, k);
                encode_value(item, out);
            }
        }
        Value::Node(n) => {
            put_u8(out, V_NODE);
            put_u64(out, n.0);
        }
        Value::Rel(r) => {
            put_u8(out, V_REL);
            put_u64(out, r.0);
        }
    }
}

pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    decode_within(r, MAX_NESTING)
}

/// [`decode_value`] with `levels` more lists/maps allowed to open.
fn decode_within(r: &mut Reader<'_>, levels: usize) -> Result<Value, CodecError> {
    let tag = r.u8("value tag")?;
    if matches!(tag, V_LIST | V_MAP) && levels == 0 {
        return Err(CodecError::TooDeep);
    }
    Ok(match tag {
        V_NULL => Value::Null,
        V_BOOL => Value::Bool(r.u8("bool")? != 0),
        V_INT => Value::Int(r.i64("int")?),
        V_FLOAT => Value::Float(r.f64("float")?),
        V_STR => Value::Str(r.string("string")?),
        V_DATE => Value::Date(r.i64("date")?),
        V_DATETIME => Value::DateTime(r.i64("datetime")?),
        V_LIST => {
            let n = r.u32("list length")?;
            let mut items = Vec::with_capacity((n as usize).min(1 << 16));
            for _ in 0..n {
                items.push(decode_within(r, levels - 1)?);
            }
            Value::List(items)
        }
        V_MAP => {
            let n = r.u32("map length")?;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = r.string("map key")?;
                let v = decode_within(r, levels - 1)?;
                m.insert(k, v);
            }
            Value::Map(m)
        }
        V_NODE => Value::Node(NodeId(r.u64("node id")?)),
        V_REL => Value::Rel(RelId(r.u64("rel id")?)),
        tag => return Err(CodecError::BadTag { what: "value", tag }),
    })
}

// ----------------------------------------------------------------------
// PropertyMap and records
// ----------------------------------------------------------------------

pub fn encode_props(props: &PropertyMap, out: &mut Vec<u8>) {
    put_u32(out, props.len() as u32);
    for (k, v) in props.iter() {
        put_str(out, k);
        encode_value(v, out);
    }
}

pub fn decode_props(r: &mut Reader<'_>) -> Result<PropertyMap, CodecError> {
    let n = r.u32("property count")?;
    let mut props = PropertyMap::new();
    for _ in 0..n {
        let k = r.string("property key")?;
        let v = decode_value(r)?;
        props.set(k, v);
    }
    Ok(props)
}

pub fn encode_node_record(rec: &NodeRecord, out: &mut Vec<u8>) {
    put_u64(out, rec.id.0);
    put_u32(out, rec.labels.len() as u32);
    for l in &rec.labels {
        put_str(out, l);
    }
    encode_props(&rec.props, out);
}

pub fn decode_node_record(r: &mut Reader<'_>) -> Result<NodeRecord, CodecError> {
    let id = NodeId(r.u64("node record id")?);
    let n_labels = r.u32("label count")?;
    let mut rec = NodeRecord::new(id);
    for _ in 0..n_labels {
        rec.labels.insert(r.string("label")?);
    }
    rec.props = decode_props(r)?;
    Ok(rec)
}

pub fn encode_rel_record(rec: &RelRecord, out: &mut Vec<u8>) {
    put_u64(out, rec.id.0);
    put_str(out, &rec.rel_type);
    put_u64(out, rec.src.0);
    put_u64(out, rec.dst.0);
    encode_props(&rec.props, out);
}

pub fn decode_rel_record(r: &mut Reader<'_>) -> Result<RelRecord, CodecError> {
    Ok(RelRecord {
        id: RelId(r.u64("rel record id")?),
        rel_type: r.string("rel type")?,
        src: NodeId(r.u64("rel src")?),
        dst: NodeId(r.u64("rel dst")?),
        props: decode_props(r)?,
    })
}

// ----------------------------------------------------------------------
// Op
// ----------------------------------------------------------------------

const OP_CREATE_NODE: u8 = 0;
const OP_DELETE_NODE: u8 = 1;
const OP_CREATE_REL: u8 = 2;
const OP_DELETE_REL: u8 = 3;
const OP_SET_LABEL: u8 = 4;
const OP_REMOVE_LABEL: u8 = 5;
const OP_SET_NODE_PROP: u8 = 6;
const OP_REMOVE_NODE_PROP: u8 = 7;
const OP_SET_REL_PROP: u8 = 8;
const OP_REMOVE_REL_PROP: u8 = 9;

fn encode_opt_value(v: &Option<Value>, out: &mut Vec<u8>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            encode_value(v, out);
        }
    }
}

fn decode_opt_value(r: &mut Reader<'_>) -> Result<Option<Value>, CodecError> {
    match r.u8("option tag")? {
        0 => Ok(None),
        1 => Ok(Some(decode_value(r)?)),
        tag => Err(CodecError::BadTag {
            what: "option",
            tag,
        }),
    }
}

pub fn encode_op(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::CreateNode { record } => {
            put_u8(out, OP_CREATE_NODE);
            encode_node_record(record, out);
        }
        Op::DeleteNode { record } => {
            put_u8(out, OP_DELETE_NODE);
            encode_node_record(record, out);
        }
        Op::CreateRel { record } => {
            put_u8(out, OP_CREATE_REL);
            encode_rel_record(record, out);
        }
        Op::DeleteRel { record } => {
            put_u8(out, OP_DELETE_REL);
            encode_rel_record(record, out);
        }
        Op::SetLabel { node, label } => {
            put_u8(out, OP_SET_LABEL);
            put_u64(out, node.0);
            put_str(out, label);
        }
        Op::RemoveLabel { node, label } => {
            put_u8(out, OP_REMOVE_LABEL);
            put_u64(out, node.0);
            put_str(out, label);
        }
        Op::SetNodeProp {
            node,
            key,
            old,
            new,
        } => {
            put_u8(out, OP_SET_NODE_PROP);
            put_u64(out, node.0);
            put_str(out, key);
            encode_opt_value(old, out);
            encode_value(new, out);
        }
        Op::RemoveNodeProp { node, key, old } => {
            put_u8(out, OP_REMOVE_NODE_PROP);
            put_u64(out, node.0);
            put_str(out, key);
            encode_value(old, out);
        }
        Op::SetRelProp { rel, key, old, new } => {
            put_u8(out, OP_SET_REL_PROP);
            put_u64(out, rel.0);
            put_str(out, key);
            encode_opt_value(old, out);
            encode_value(new, out);
        }
        Op::RemoveRelProp { rel, key, old } => {
            put_u8(out, OP_REMOVE_REL_PROP);
            put_u64(out, rel.0);
            put_str(out, key);
            encode_value(old, out);
        }
    }
}

pub fn decode_op(r: &mut Reader<'_>) -> Result<Op, CodecError> {
    let tag = r.u8("op tag")?;
    Ok(match tag {
        OP_CREATE_NODE => Op::CreateNode {
            record: decode_node_record(r)?,
        },
        OP_DELETE_NODE => Op::DeleteNode {
            record: decode_node_record(r)?,
        },
        OP_CREATE_REL => Op::CreateRel {
            record: decode_rel_record(r)?,
        },
        OP_DELETE_REL => Op::DeleteRel {
            record: decode_rel_record(r)?,
        },
        OP_SET_LABEL => Op::SetLabel {
            node: NodeId(r.u64("node")?),
            label: r.string("label")?,
        },
        OP_REMOVE_LABEL => Op::RemoveLabel {
            node: NodeId(r.u64("node")?),
            label: r.string("label")?,
        },
        OP_SET_NODE_PROP => Op::SetNodeProp {
            node: NodeId(r.u64("node")?),
            key: r.string("key")?,
            old: decode_opt_value(r)?,
            new: decode_value(r)?,
        },
        OP_REMOVE_NODE_PROP => Op::RemoveNodeProp {
            node: NodeId(r.u64("node")?),
            key: r.string("key")?,
            old: decode_value(r)?,
        },
        OP_SET_REL_PROP => Op::SetRelProp {
            rel: RelId(r.u64("rel")?),
            key: r.string("key")?,
            old: decode_opt_value(r)?,
            new: decode_value(r)?,
        },
        OP_REMOVE_REL_PROP => Op::RemoveRelProp {
            rel: RelId(r.u64("rel")?),
            key: r.string("key")?,
            old: decode_value(r)?,
        },
        tag => return Err(CodecError::BadTag { what: "op", tag }),
    })
}

/// Encode a slice of ops with a leading count.
pub fn encode_ops(ops: &[Op], out: &mut Vec<u8>) {
    put_u32(out, ops.len() as u32);
    for op in ops {
        encode_op(op, out);
    }
}

/// Decode a count-prefixed op slice.
pub fn decode_ops(r: &mut Reader<'_>) -> Result<Vec<Op>, CodecError> {
    let n = r.u32("op count")?;
    let mut ops = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        ops.push(decode_op(r)?);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Float(1.5));
        roundtrip_value(Value::Float(f64::NEG_INFINITY));
        roundtrip_value(Value::str("héllo"));
        roundtrip_value(Value::Date(19700));
        roundtrip_value(Value::DateTime(-1));
        roundtrip_value(Value::list([
            Value::Int(1),
            Value::list([Value::str("nested")]),
        ]));
        roundtrip_value(Value::map([
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::map([])),
        ]));
        roundtrip_value(Value::Node(NodeId(9)));
        roundtrip_value(Value::Rel(RelId(3)));
    }

    #[test]
    fn float_nan_roundtrips_bitwise() {
        let v = Value::Float(f64::NAN);
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        match decode_value(&mut r).unwrap() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn op_roundtrips() {
        let mut rec = NodeRecord::new(NodeId(1));
        rec.labels.insert("Patient".into());
        rec.props.set("name", Value::str("x"));
        let rel = RelRecord {
            id: RelId(2),
            rel_type: "Risk".into(),
            src: NodeId(1),
            dst: NodeId(3),
            props: [("w".to_string(), Value::Int(5))].into_iter().collect(),
        };
        let ops = vec![
            Op::CreateNode {
                record: rec.clone(),
            },
            Op::CreateRel {
                record: rel.clone(),
            },
            Op::SetNodeProp {
                node: NodeId(1),
                key: "k".into(),
                old: None,
                new: Value::Int(1),
            },
            Op::SetNodeProp {
                node: NodeId(1),
                key: "k".into(),
                old: Some(Value::Int(1)),
                new: Value::Float(2.0),
            },
            Op::RemoveNodeProp {
                node: NodeId(1),
                key: "k".into(),
                old: Value::Float(2.0),
            },
            Op::SetLabel {
                node: NodeId(1),
                label: "ICU".into(),
            },
            Op::RemoveLabel {
                node: NodeId(1),
                label: "ICU".into(),
            },
            Op::SetRelProp {
                rel: RelId(2),
                key: "w".into(),
                old: Some(Value::Int(5)),
                new: Value::Int(6),
            },
            Op::RemoveRelProp {
                rel: RelId(2),
                key: "w".into(),
                old: Value::Int(6),
            },
            Op::DeleteRel { record: rel },
            Op::DeleteNode { record: rec },
        ];
        let mut buf = Vec::new();
        encode_ops(&ops, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_ops(&mut r).unwrap(), ops);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut buf = Vec::new();
        encode_op(
            &Op::SetLabel {
                node: NodeId(1),
                label: "Long".into(),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                decode_op(&mut r).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut r = Reader::new(&[200u8]);
        assert_eq!(
            decode_value(&mut r),
            Err(CodecError::BadTag {
                what: "value",
                tag: 200
            })
        );
        let mut r = Reader::new(&[99u8]);
        assert_eq!(
            decode_op(&mut r),
            Err(CodecError::BadTag {
                what: "op",
                tag: 99
            })
        );
    }

    /// `depth` one-element lists around an int, encoded without building
    /// the value (dropping a deep `Value` recurses too).
    fn nested_list_bytes(depth: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for _ in 0..depth {
            put_u8(&mut buf, V_LIST);
            put_u32(&mut buf, 1);
        }
        put_u8(&mut buf, V_INT);
        put_i64(&mut buf, 1);
        buf
    }

    #[test]
    fn nesting_is_bounded_on_a_connection_sized_stack() {
        // 2 MiB is what a spawned thread (a server connection) gets.
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let decode = |depth| decode_value(&mut Reader::new(&nested_list_bytes(depth)));
                let at_bound = decode(MAX_NESTING).map(|v| v.is_storable());
                (at_bound, decode(MAX_NESTING + 1), decode(100_000))
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(decoded.0, Ok(true));
        assert_eq!(decoded.1, Err(CodecError::TooDeep));
        assert_eq!(decoded.2, Err(CodecError::TooDeep));
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut buf = Vec::new();
        put_u8(&mut buf, V_STR);
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(
            decode_value(&mut r),
            Err(CodecError::BadUtf8 { what: "string" })
        );
    }
}
