//! Binary codec for HRDM model objects.
//!
//! Varint (LEB128) for unsigned integers, zigzag+varint for signed, a tag
//! byte per variant type. The format is self-contained and versioned by the
//! [`crate::database`] file header; property tests assert exact round trips
//! for every model object.

use hrdm_core::{
    Attribute, AttributeDef, HistoricalDomain, Layout, Relation, Scheme, TemporalValue, Tuple,
    TupleView, Value, ValueKind,
};
use hrdm_time::{Chronon, Interval, Lifespan};
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
///
/// Every `put_*` method sizes its object first — an upper bound of its
/// bytes, read off the object without encoding it — grows the buffer once
/// to that bound, writes through a `Cursor` that does no capacity check
/// per byte, and truncates the buffer to what was written. A bound that
/// comes out short is a bug, and panics at the slice index that overruns.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An encoder that appends to `buf`, keeping its existing bytes (the
    /// wire layer encodes frames straight into a session's output buffer).
    pub fn from_vec(buf: Vec<u8>) -> Encoder {
        Encoder { buf }
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

    /// Appends one object of at most `bound` bytes, written by `body`.
    fn write(&mut self, bound: usize, body: impl FnOnce(&mut Cursor<'_>)) {
        let start = self.buf.len();
        self.buf.resize(start + bound, 0);
        let mut cursor = Cursor {
            buf: &mut self.buf[start..],
            pos: 0,
        };
        body(&mut cursor);
        let end = start + cursor.pos;
        self.buf.truncate(end);
    }

    /// LEB128 varint.
    pub fn put_u64(&mut self, v: u64) {
        self.write(VARINT_MAX, |c| c.u64(v));
    }

    /// Zigzag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.write(VARINT_MAX, |c| c.i64(v));
    }

    /// Raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.write(1, |c| c.u8(v));
    }

    /// Length-prefixed bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.write(VARINT_MAX + b.len(), |c| c.bytes(b));
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
        self.write(INTERVAL_MAX, |c| c.interval(iv));
    }

    /// A lifespan: run count + runs.
    pub fn put_lifespan(&mut self, ls: &Lifespan) {
        self.write(lifespan_bound(ls), |c| c.lifespan(ls));
    }

    /// A value: tag byte + payload.
    pub fn put_value(&mut self, v: &Value) {
        self.write(value_bound(v), |c| c.value(v));
    }

    /// A temporal value: segment count + `(interval, value)` pairs.
    pub fn put_temporal_value(&mut self, tv: &TemporalValue) {
        self.write(function_bound(tv, None), |c| c.function(tv, None));
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

    /// A tuple: lifespan + `(name, function)` entries, ascending by name.
    ///
    /// Takes a restriction view — a `&Tuple`, or a
    /// [`ClippedTuple`](hrdm_core::ClippedTuple)'s [`TupleView`] — and
    /// writes `t|_clip` from the stored functions: the bytes are exactly
    /// those of the restricted tuple, which is never built. One pass: the
    /// buffer grows once, to a bound summed from the view (lifespan runs,
    /// names, and per function its segment count and string lengths, plus
    /// as many pieces again as the clip has runs, since a clip cuts a
    /// function into at most segments + runs pieces). Each clipped
    /// function is walked once, behind a one-byte placeholder for its
    /// piece count that is patched afterwards; only a count of 128 or
    /// more, which needs a wider varint, shifts the pieces written after
    /// it.
    pub fn put_tuple<'a>(&mut self, t: impl Into<TupleView<'a>>) {
        let view = t.into();
        self.write(tuple_bound(view), |c| c.tuple(view));
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

/// The widest LEB128 varint of a `u64`.
const VARINT_MAX: usize = 10;

/// The widest encoded interval: two varints.
const INTERVAL_MAX: usize = 2 * VARINT_MAX;

fn lifespan_bound(ls: &Lifespan) -> usize {
    VARINT_MAX + INTERVAL_MAX * ls.interval_count()
}

/// The widest piece of a function without strings: an interval, a tag
/// and a varint. A string piece is wider by the string's length.
const PIECE_MAX: usize = INTERVAL_MAX + 1 + VARINT_MAX;

fn str_len(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        _ => 0,
    }
}

fn value_bound(v: &Value) -> usize {
    1 + VARINT_MAX + str_len(v)
}

/// `f|_clip`'s bytes at most: count, every segment, and for each run of
/// the clip one more piece as wide as the widest segment.
fn function_bound(tv: &TemporalValue, clip: Option<&Lifespan>) -> usize {
    let segs = tv.segments();
    let (text, longest) = segs.iter().fold((0, 0), |(text, longest), (_, v)| {
        let n = str_len(v);
        (text + n, usize::max(longest, n))
    });
    let runs = clip.map_or(0, Lifespan::interval_count);
    VARINT_MAX + (segs.len() + runs) * PIECE_MAX + text + runs * longest
}

fn tuple_bound(view: TupleView<'_>) -> usize {
    let entries = view
        .tuple()
        .entries()
        .map(|(a, tv)| VARINT_MAX + a.name().len() + function_bound(tv, view.clip()));
    lifespan_bound(view.lifespan()) + VARINT_MAX + entries.sum::<usize>()
}

/// A write position in a slice `Encoder::write` sized for the object:
/// the one writer of every encoded byte. Its methods are forced inline so
/// that a row is written with `pos` in a register: left to the compiler,
/// encoding a 100-byte stored tuple took ~30 % longer.
struct Cursor<'b> {
    buf: &'b mut [u8],
    pos: usize,
}

impl Cursor<'_> {
    #[inline(always)]
    fn u8(&mut self, b: u8) {
        self.buf[self.pos] = b;
        self.pos += 1;
    }

    #[inline(always)]
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    #[inline(always)]
    fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    #[inline(always)]
    fn raw(&mut self, b: &[u8]) {
        self.buf[self.pos..self.pos + b.len()].copy_from_slice(b);
        self.pos += b.len();
    }

    #[inline(always)]
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    #[inline(always)]
    fn interval(&mut self, iv: &Interval) {
        let (lo, hi) = (iv.lo().tick(), iv.hi().tick());
        self.i64(lo);
        self.u64(hi.wrapping_sub(lo) as u64);
    }

    #[inline(always)]
    fn lifespan(&mut self, ls: &Lifespan) {
        self.u64(ls.interval_count() as u64);
        for iv in ls.intervals() {
            self.interval(iv);
        }
    }

    #[inline(always)]
    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(1);
                self.raw(&f.get().to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.u8(2);
                self.bytes(s.as_bytes());
            }
            Value::Bool(b) => {
                self.u8(3);
                self.u8(u8::from(*b));
            }
            Value::Time(t) => {
                self.u8(4);
                self.i64(t.tick());
            }
        }
    }

    /// `tv`, or `tv|_clip` in the bytes of `tv.restrict(clip)`.
    #[inline(always)]
    fn function(&mut self, tv: &TemporalValue, clip: Option<&Lifespan>) {
        let Some(clip) = clip else {
            self.u64(tv.segment_count() as u64);
            for (iv, v) in tv.segments() {
                self.interval(iv);
                self.value(v);
            }
            return;
        };
        let count_at = self.pos;
        self.pos += 1;
        let mut pieces = 0u64;
        for (iv, v) in tv.clipped(clip) {
            self.interval(&iv);
            self.value(v);
            pieces += 1;
        }
        self.patch_count(count_at, pieces);
    }

    /// Writes `n` at `at`, where one byte was left for it, moving what
    /// follows up when the varint is wider than that.
    #[inline(always)]
    fn patch_count(&mut self, at: usize, n: u64) {
        let end = self.pos;
        self.pos = at;
        if n < 0x80 {
            self.u8(n as u8);
            self.pos = end;
            return;
        }
        let width = (u64::BITS - n.leading_zeros()).div_ceil(7) as usize;
        self.buf.copy_within(at + 1..end, at + width);
        self.u64(n);
        self.pos = end + width - 1;
    }

    #[inline(always)]
    fn tuple(&mut self, view: TupleView<'_>) {
        self.lifespan(view.lifespan());
        let entries = view.tuple().entries();
        self.u64(entries.len() as u64);
        for (a, tv) in entries {
            self.bytes(a.name().as_bytes());
            self.function(tv, view.clip());
        }
    }
}

/// What [`Decoder::lifespan_probe`] read of one encoded lifespan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LifespanProbe {
    /// Does the lifespan share a chronon with the probe's window?
    pub meets: bool,
    /// The lifespan's first chronon; `i64::MAX` when it is empty.
    pub first: i64,
    /// The lifespan's last chronon; `i64::MIN` when it is empty.
    pub last: i64,
}

/// Streaming decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The layout of the last tuple decoded: the next one naming the same
    /// attributes shares it.
    layout: Option<Layout>,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            layout: None,
        }
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

    /// Probes the lifespan at the cursor: does it share a chronon with
    /// `window` (every lifespan meets an absent window), and what is its
    /// hull?
    ///
    /// The allocation-free probe of [`Decoder::get_lifespan`]: it reads
    /// every run with the same checks, so bytes that fail one fail the
    /// other with the same error, and leaves the cursor past the lifespan.
    /// Every heap record starts with its tuple's lifespan, so a windowed
    /// scan asks this of each record and decodes only those that meet the
    /// window; the hulls are what a heap page's zone summarizes.
    pub fn lifespan_probe(
        &mut self,
        window: Option<&Lifespan>,
    ) -> Result<LifespanProbe, CodecError> {
        let n = self.get_u64()?;
        let mut probe = LifespanProbe {
            meets: window.is_none(),
            first: i64::MAX,
            last: i64::MIN,
        };
        for _ in 0..n {
            let run = self.get_interval()?;
            probe.first = probe.first.min(run.lo().tick());
            probe.last = probe.last.max(run.hi().tick());
            probe.meets = probe.meets || window.is_some_and(|w| w.intersects_interval(&run));
        }
        Ok(probe)
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

    /// A tuple. Consecutive tuples naming the same attributes — the rows
    /// of one `RowChunk`, the inserts of one WAL batch — share one layout.
    pub fn get_tuple(&mut self) -> Result<Tuple, CodecError> {
        self.get_tuple_on(None)
    }

    /// A tuple of a relation on `scheme`: decoded by position against the
    /// scheme's layout, which it then shares — what loaders of whole
    /// relations use. A tuple naming other attributes (one stored before
    /// schema evolution added an attribute) decodes all the same, sharing
    /// the attribute names the scheme knows.
    pub fn get_tuple_in(&mut self, scheme: &Scheme) -> Result<Tuple, CodecError> {
        self.get_tuple_on(Some(scheme.layout()))
    }

    /// Decodes a tuple, by position against `expected` (or else the
    /// previous tuple's layout) while the record names that layout's
    /// attributes in order — what every encoder writes — and by name
    /// otherwise. A name given twice is an error, never a silent overwrite.
    fn get_tuple_on(&mut self, expected: Option<&Layout>) -> Result<Tuple, CodecError> {
        let lifespan = self.get_lifespan()?;
        let n = self.get_u64()?;
        let layout = expected.or(self.layout.as_ref()).cloned();
        let names = layout.as_ref().map_or(&[][..], Layout::names);
        // `values` holds the in-order prefix; everything after the first
        // entry off the layout goes by name.
        let mut values = value_slots(layout.as_ref());
        let mut off_layout: Vec<(Attribute, TemporalValue)> = Vec::new();
        for k in 0..n {
            let name = self.get_str()?;
            let tv = self.get_temporal_value()?;
            if off_layout.is_empty() && names.get(k as usize).is_some_and(|a| a.name() == name) {
                values.push(tv);
            } else {
                let known = names.iter().find(|a| a.name() == name).cloned();
                off_layout.push((known.unwrap_or_else(|| Attribute::new(name)), tv));
            }
        }
        if let Some(l) = layout
            .as_ref()
            .filter(|l| off_layout.is_empty() && values.len() == l.len())
        {
            let tuple = Tuple::from_layout(lifespan, l, values);
            self.layout = layout;
            return tuple.ok_or(CodecError::Invariant("tuple arity"));
        }
        let mut named: Vec<(Attribute, TemporalValue)> = names
            .iter()
            .cloned()
            .zip(values)
            .chain(off_layout)
            .collect();
        named.sort_by(|a, b| a.0.cmp(&b.0));
        if named.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(CodecError::Invariant("attribute named twice in one tuple"));
        }
        let (names, values): (Vec<Attribute>, Vec<TemporalValue>) = named.into_iter().unzip();
        let layout = match [expected, self.layout.as_ref()]
            .into_iter()
            .flatten()
            .find(|l| l.names() == names.as_slice())
        {
            Some(known) => known.clone(),
            None => Layout::new(names).map_err(|e| CodecError::Model(e.to_string()))?,
        };
        self.layout = Some(layout.clone());
        Tuple::from_layout(lifespan, &layout, values).ok_or(CodecError::Invariant("tuple arity"))
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

/// The value slots of a tuple decoded against `layout`: sized from the
/// layout, never from a count read off the wire.
fn value_slots(layout: Option<&Layout>) -> Vec<TemporalValue> {
    Vec::with_capacity(layout.map_or(0, Layout::len))
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

    /// A scheme declared out of name order and a tuple on it with a
    /// multi-run lifespan, an empty function and one value of each kind.
    fn golden_tuple() -> (Scheme, Tuple) {
        let era = Lifespan::interval(0, 100);
        let scheme = Scheme::builder()
            .key_attr("NAME", ValueKind::Str, era.clone())
            .attr("SALARY", HistoricalDomain::int(), era.clone())
            .attr("RATE", HistoricalDomain::float(), era.clone())
            .attr(
                "ACTIVE",
                HistoricalDomain::new(ValueKind::Bool),
                era.clone(),
            )
            .attr("HIRED", HistoricalDomain::time(), era.clone())
            .attr("NOTE", HistoricalDomain::string(), era)
            .build()
            .unwrap();
        let life = Lifespan::of(&[(0, 9), (20, 29)]);
        let t = Tuple::builder(life.clone())
            .constant("NAME", "Ann")
            .value(
                "SALARY",
                TemporalValue::of(&[(0, 4, Value::Int(-7)), (5, 9, Value::Int(300))]),
            )
            .value(
                "RATE",
                TemporalValue::of(&[(20, 29, Value::float(1.5).unwrap())]),
            )
            .value(
                "ACTIVE",
                TemporalValue::of(&[(0, 9, Value::Bool(true)), (20, 29, Value::Bool(false))]),
            )
            .value("HIRED", TemporalValue::constant(&life, Value::time(-3)))
            .finish(&scheme)
            .unwrap();
        (scheme, t)
    }

    /// `put_tuple`'s bytes for [`golden_tuple`], as written when tuples
    /// were name-keyed maps: how a tuple is held in memory does not reach
    /// the heap, WAL or wire format. Entries come out ascending by name.
    const GOLDEN: &[u8] = &[
        2, 0, 9, 40, 9, 6, 6, 65, 67, 84, 73, 86, 69, 2, 0, 9, 3, 1, 40, 9, 3, 0, 5, 72, 73, 82,
        69, 68, 2, 0, 9, 4, 5, 40, 9, 4, 5, 4, 78, 65, 77, 69, 2, 0, 9, 2, 3, 65, 110, 110, 40, 9,
        2, 3, 65, 110, 110, 4, 78, 79, 84, 69, 0, 4, 82, 65, 84, 69, 1, 40, 9, 1, 0, 0, 0, 0, 0, 0,
        248, 63, 6, 83, 65, 76, 65, 82, 89, 2, 0, 4, 0, 13, 10, 4, 0, 216, 4,
    ];

    #[test]
    fn tuple_bytes_match_the_golden_record() {
        let (scheme, t) = golden_tuple();
        let mut e = Encoder::new();
        e.put_tuple(&t);
        assert_eq!(e.finish(), GOLDEN);
        assert_eq!(Decoder::new(GOLDEN).get_tuple().unwrap(), t);
        let decoded = Decoder::new(GOLDEN).get_tuple_in(&scheme).unwrap();
        assert_eq!(decoded, t);
        assert!(decoded.layout().same(scheme.layout()));
    }

    /// A record of a tuple over `[0, 9]` with `names` in the given order,
    /// every function `c` on `[0, 9]`, built byte by byte.
    fn record(names: &[&str]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_lifespan(&Lifespan::interval(0, 9));
        e.put_u64(names.len() as u64);
        for (c, name) in names.iter().enumerate() {
            e.put_str(name);
            e.put_temporal_value(&TemporalValue::of(&[(0, 9, Value::Int(c as i64))]));
        }
        e.finish()
    }

    fn vw_scheme() -> Scheme {
        Scheme::builder()
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .attr("W", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .build()
            .unwrap()
    }

    #[test]
    fn a_name_given_twice_is_rejected() {
        let twice = CodecError::Invariant("attribute named twice in one tuple");
        for names in [&["V", "V"][..], &["V", "W", "V"], &["W", "V", "W"]] {
            let bytes = record(names);
            assert_eq!(Decoder::new(&bytes).get_tuple().unwrap_err(), twice);
            assert_eq!(
                Decoder::new(&bytes).get_tuple_in(&vw_scheme()).unwrap_err(),
                twice
            );
        }
    }

    #[test]
    fn names_out_of_order_or_off_the_scheme_decode_by_name() {
        let scheme = vw_scheme();
        let sorted = Decoder::new(&record(&["V", "W"])).get_tuple().unwrap();
        let reversed = Decoder::new(&record(&["W", "V"]))
            .get_tuple_in(&scheme)
            .unwrap();
        assert_eq!(reversed.attributes().count(), 2);
        assert_eq!(
            reversed.at(&"W".into(), Chronon::new(3)),
            Some(&Value::Int(0))
        );
        assert!(reversed.layout().same(scheme.layout()));
        assert_ne!(reversed, sorted);
        // A stored tuple naming fewer attributes than the scheme (written
        // before an attribute was added) keeps its own attributes.
        let narrow = Decoder::new(&record(&["V"])).get_tuple_in(&scheme).unwrap();
        assert_eq!(narrow.attributes().count(), 1);
        assert!(narrow.value(&"W".into()).is_none());
        // Unknown names decode too; validation is the loader's business.
        let other = Decoder::new(&record(&["A", "V"]))
            .get_tuple_in(&scheme)
            .unwrap();
        assert!(other.value(&"A".into()).is_some());
    }

    #[test]
    fn consecutive_tuples_share_one_layout() {
        let bytes = [record(&["V", "W"]), record(&["V", "W"]), record(&["V"])].concat();
        let mut d = Decoder::new(&bytes);
        let (a, b, c) = (
            d.get_tuple().unwrap(),
            d.get_tuple().unwrap(),
            d.get_tuple().unwrap(),
        );
        assert!(a.layout().same(b.layout()));
        assert!(!c.layout().same(a.layout()));
        assert!(d.is_done());
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
