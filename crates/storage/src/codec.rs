//! Binary codec for HRDM model objects.
//!
//! Varint (LEB128) for unsigned integers, zigzag+varint for signed, a tag
//! byte per variant type. The format is self-contained and versioned by the
//! [`crate::database`] file header; property tests assert exact round trips
//! for every model object.

use hrdm_core::{
    Attribute, AttributeDef, HistoricalDomain, Relation, Scheme, TemporalValue, Tuple, Value,
    ValueKind,
};
use hrdm_time::{Chronon, Interval, Lifespan};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while decoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Ran out of bytes mid-object.
    UnexpectedEof,
    /// An unknown tag byte for the given type.
    BadTag(&'static str, u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A decoded object violated a model invariant (e.g. `lo > hi`).
    Invariant(&'static str),
    /// A varint was longer than the maximum width.
    VarintOverflow,
    /// Model-level validation failed while reassembling an object.
    Model(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag(ty, tag) => write!(f, "bad tag {tag:#x} for {ty}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string payload"),
            CodecError::Invariant(what) => write!(f, "invariant violation: {what}"),
            CodecError::VarintOverflow => write!(f, "varint too long"),
            CodecError::Model(e) => write!(f, "model validation failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Streaming encoder over a growable byte buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// LEB128 varint.
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Length-prefixed bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// A chronon (zigzag tick).
    pub fn put_chronon(&mut self, c: Chronon) {
        self.put_i64(c.tick());
    }

    /// An interval as `(lo, len)` — the length is non-negative, which keeps
    /// the invariant in the format itself.
    pub fn put_interval(&mut self, iv: &Interval) {
        self.put_i64(iv.lo().tick());
        self.put_u64((iv.hi().tick() - iv.lo().tick()) as u64);
    }

    /// A lifespan: run count + runs.
    pub fn put_lifespan(&mut self, ls: &Lifespan) {
        self.put_u64(ls.interval_count() as u64);
        for iv in ls.intervals() {
            self.put_interval(iv);
        }
    }

    /// A value: tag byte + payload.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.put_u8(0);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(1);
                self.buf.extend_from_slice(&f.get().to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.put_u8(2);
                self.put_str(s);
            }
            Value::Bool(b) => {
                self.put_u8(3);
                self.put_u8(u8::from(*b));
            }
            Value::Time(t) => {
                self.put_u8(4);
                self.put_chronon(*t);
            }
        }
    }

    /// A temporal value: segment count + `(interval, value)` pairs.
    pub fn put_temporal_value(&mut self, tv: &TemporalValue) {
        self.put_u64(tv.segment_count() as u64);
        for (iv, v) in tv.segments() {
            self.put_interval(iv);
            self.put_value(v);
        }
    }

    /// A value kind.
    pub fn put_kind(&mut self, k: ValueKind) {
        self.put_u8(match k {
            ValueKind::Int => 0,
            ValueKind::Float => 1,
            ValueKind::Str => 2,
            ValueKind::Bool => 3,
            ValueKind::Time => 4,
        });
    }

    /// A historical domain: kind + constancy flag.
    pub fn put_domain(&mut self, d: &HistoricalDomain) {
        self.put_kind(d.kind());
        self.put_u8(u8::from(d.is_constant()));
    }

    /// A scheme: attribute defs + key names.
    pub fn put_scheme(&mut self, s: &Scheme) {
        self.put_u64(s.arity() as u64);
        for def in s.attrs() {
            self.put_str(def.name().name());
            self.put_domain(def.domain());
            self.put_lifespan(def.lifespan());
        }
        self.put_u64(s.key().len() as u64);
        for k in s.key() {
            self.put_str(k.name());
        }
    }

    /// A tuple: lifespan + value map.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_lifespan(t.lifespan());
        self.put_u64(t.values().len() as u64);
        for (a, tv) in t.values() {
            self.put_str(a.name());
            self.put_temporal_value(tv);
        }
    }

    /// A relation: scheme + tuples.
    pub fn put_relation(&mut self, r: &Relation) {
        self.put_scheme(r.scheme());
        self.put_u64(r.len() as u64);
        for t in r.iter() {
            self.put_tuple(t);
        }
    }
}

/// Streaming decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has all input been consumed?
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Raw byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// LEB128 varint.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(CodecError::VarintOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Zigzag-decoded signed varint.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let z = self.get_u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u64()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// A chronon.
    pub fn get_chronon(&mut self) -> Result<Chronon, CodecError> {
        Ok(Chronon::new(self.get_i64()?))
    }

    /// An interval.
    pub fn get_interval(&mut self) -> Result<Interval, CodecError> {
        let lo = self.get_i64()?;
        let len = self.get_u64()?;
        let hi = lo
            .checked_add(len as i64)
            .ok_or(CodecError::Invariant("interval length overflow"))?;
        Interval::new(Chronon::new(lo), Chronon::new(hi))
            .ok_or(CodecError::Invariant("interval lo > hi"))
    }

    /// A lifespan.
    pub fn get_lifespan(&mut self) -> Result<Lifespan, CodecError> {
        let n = self.get_u64()? as usize;
        let mut runs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            runs.push(self.get_interval()?);
        }
        Ok(Lifespan::from_intervals(runs))
    }

    /// A value.
    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        match self.get_u8()? {
            0 => Ok(Value::Int(self.get_i64()?)),
            1 => {
                let raw = self.take(8)?;
                let bits = u64::from_le_bytes(
                    raw.try_into()
                        .map_err(|_| CodecError::Invariant("float width"))?,
                );
                Value::float(f64::from_bits(bits)).map_err(|_| CodecError::Invariant("NaN float"))
            }
            2 => Ok(Value::str(self.get_str()?)),
            3 => Ok(Value::Bool(self.get_u8()? != 0)),
            4 => Ok(Value::Time(self.get_chronon()?)),
            tag => Err(CodecError::BadTag("Value", tag)),
        }
    }

    /// A temporal value.
    pub fn get_temporal_value(&mut self) -> Result<TemporalValue, CodecError> {
        let n = self.get_u64()? as usize;
        let mut segs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let iv = self.get_interval()?;
            let v = self.get_value()?;
            segs.push((iv, v));
        }
        TemporalValue::from_segments(segs).map_err(|e| CodecError::Model(e.to_string()))
    }

    /// A value kind.
    pub fn get_kind(&mut self) -> Result<ValueKind, CodecError> {
        match self.get_u8()? {
            0 => Ok(ValueKind::Int),
            1 => Ok(ValueKind::Float),
            2 => Ok(ValueKind::Str),
            3 => Ok(ValueKind::Bool),
            4 => Ok(ValueKind::Time),
            tag => Err(CodecError::BadTag("ValueKind", tag)),
        }
    }

    /// A historical domain.
    pub fn get_domain(&mut self) -> Result<HistoricalDomain, CodecError> {
        let kind = self.get_kind()?;
        let constant = self.get_u8()? != 0;
        Ok(if constant {
            HistoricalDomain::constant(kind)
        } else {
            HistoricalDomain::new(kind)
        })
    }

    /// A scheme.
    pub fn get_scheme(&mut self) -> Result<Scheme, CodecError> {
        let n = self.get_u64()? as usize;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = Attribute::new(self.get_str()?);
            let domain = self.get_domain()?;
            let lifespan = self.get_lifespan()?;
            attrs.push(AttributeDef::new(name, domain, lifespan));
        }
        let k = self.get_u64()? as usize;
        let mut key = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            key.push(Attribute::new(self.get_str()?));
        }
        Scheme::new(attrs, key).map_err(|e| CodecError::Model(e.to_string()))
    }

    /// A tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple, CodecError> {
        self.get_tuple_naming(|name| Attribute::new(name))
    }

    /// A tuple of a relation on `scheme`: attribute names the scheme
    /// knows are shared with it (a reference-count bump) instead of
    /// allocated afresh for every tuple — what loaders of whole
    /// relations use.
    pub fn get_tuple_in(&mut self, scheme: &Scheme) -> Result<Tuple, CodecError> {
        self.get_tuple_naming(|name| {
            scheme
                .attr_names()
                .find(|a| a.name() == name)
                .cloned()
                .unwrap_or_else(|| Attribute::new(name))
        })
    }

    fn get_tuple_naming(
        &mut self,
        attribute: impl Fn(&str) -> Attribute,
    ) -> Result<Tuple, CodecError> {
        let lifespan = self.get_lifespan()?;
        let n = self.get_u64()? as usize;
        let mut values = BTreeMap::new();
        for _ in 0..n {
            let a = attribute(self.get_str()?);
            let tv = self.get_temporal_value()?;
            values.insert(a, tv);
        }
        Ok(Tuple::from_parts(lifespan, values))
    }

    /// A relation. Tuples are validated against the decoded scheme.
    pub fn get_relation(&mut self) -> Result<Relation, CodecError> {
        let scheme = self.get_scheme()?;
        let n = self.get_u64()? as usize;
        let mut tuples = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let t = self.get_tuple_in(&scheme)?;
            t.validate(&scheme)
                .map_err(|e| CodecError::Model(e.to_string()))?;
            tuples.push(t);
        }
        Ok(Relation::from_parts_unchecked(scheme, tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut e = Encoder::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            e.put_u64(v);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(d.get_u64().unwrap(), v);
        }
        assert!(d.is_done());
    }

    #[test]
    fn zigzag_round_trip() {
        let mut e = Encoder::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            e.put_i64(v);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(d.get_i64().unwrap(), v);
        }
    }

    #[test]
    fn value_round_trip() {
        let values = vec![
            Value::Int(-42),
            Value::float(1.5).unwrap(),
            Value::str("Clifford & Croker"),
            Value::Bool(true),
            Value::time(1986),
        ];
        let mut e = Encoder::new();
        for v in &values {
            e.put_value(v);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        for v in &values {
            assert_eq!(&d.get_value().unwrap(), v);
        }
    }

    #[test]
    fn lifespan_round_trip() {
        let ls = Lifespan::of(&[(-10, -5), (0, 0), (7, 99)]);
        let mut e = Encoder::new();
        e.put_lifespan(&ls);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_lifespan().unwrap(), ls);
    }

    #[test]
    fn temporal_value_round_trip() {
        let tv = TemporalValue::of(&[
            (0, 9, Value::Int(25_000)),
            (10, 19, Value::Int(30_000)),
            (30, 39, Value::str("mixed").clone()),
        ]);
        let mut e = Encoder::new();
        e.put_temporal_value(&tv);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_temporal_value().unwrap(), tv);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_value(&Value::str("hello"));
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.get_value().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let bytes = [9u8];
        assert_eq!(
            Decoder::new(&bytes).get_value().unwrap_err(),
            CodecError::BadTag("Value", 9)
        );
        assert!(matches!(
            Decoder::new(&bytes).get_kind().unwrap_err(),
            CodecError::BadTag("ValueKind", 9)
        ));
    }

    #[test]
    fn nan_float_rejected_at_decode() {
        let mut e = Encoder::new();
        e.put_u8(1);
        let mut bytes = e.finish();
        bytes.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            Decoder::new(&bytes).get_value().unwrap_err(),
            CodecError::Invariant(_)
        ));
    }
}
