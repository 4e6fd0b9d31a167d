//! Binary codec for HRDM model objects.
//!
//! Varint (LEB128) for unsigned integers, zigzag+varint for signed, a tag
//! byte per variant type. The format is self-contained and versioned by the
//! [`crate::database`] file header; property tests assert exact round trips
//! for every model object.
//!
//! Every decoded byte goes through one inlined cursor, which holds the
//! one reader of each format item and names the [`CodecError`] where the
//! input breaks; [`Decoder`]'s `get_*` methods hand it out. A heap record
//! is read by one checked pass, [`Decoder::get_tuple_checked`], that
//! validates the tuple against its scheme as it reads and builds only
//! what a clip keeps, each function in one exact-size slice. Records it
//! refuses (not the canonical encoding of a valid tuple) are decoded the
//! general way, by [`Decoder::get_tuple_in`], and conformed by the caller;
//! property tests check that both ways agree on every record, corrupt
//! ones included.

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
        self.put_u8(kind_tag(k));
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

/// A read position in a byte slice: the one reader of every decoded
/// byte, and the one body of each format item. Its methods name the
/// [`CodecError`] where the input ends early or breaks the format;
/// [`Decoder`]'s `get_*` methods hand that on, and the checked tuple pass
/// ([`Decoder::get_tuple_checked`]) turns it into a refusal. Like the
/// encoder's `Cursor`, its methods are forced inline so that a record is
/// read with `pos` in a register and an error it drops costs nothing.
#[derive(Clone, Copy)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline(always)]
    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(out)
    }

    /// A LEB128 varint of at most ten bytes.
    #[inline(always)]
    fn u64(&mut self) -> Result<u64, CodecError> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let (mut out, mut shift) = (u64::from(first & 0x7f), 7);
        loop {
            let byte = self.u8()?;
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

    /// A zigzag-encoded signed varint.
    #[inline(always)]
    fn i64(&mut self) -> Result<i64, CodecError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    #[inline(always)]
    fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u64()?;
        self.take(usize::try_from(len).map_err(|_| CodecError::UnexpectedEof)?)
    }

    #[inline(always)]
    fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// An interval: its first chronon, then its length.
    #[inline(always)]
    fn interval(&mut self) -> Result<Interval, CodecError> {
        let lo = self.i64()?;
        let len = self.u64()?;
        let hi = lo
            .checked_add(len as i64)
            .ok_or(CodecError::Invariant("interval length overflow"))?;
        Interval::new(Chronon::new(lo), Chronon::new(hi))
            .ok_or(CodecError::Invariant("interval lo > hi"))
    }

    /// See [`Decoder::lifespan_probe`].
    #[inline(always)]
    fn probe(&mut self, window: Option<&Lifespan>) -> Result<LifespanProbe, CodecError> {
        let n = self.u64()?;
        let mut probe = LifespanProbe {
            meets: window.is_none(),
            first: i64::MAX,
            last: i64::MIN,
        };
        for _ in 0..n {
            let run = self.interval()?;
            probe.first = probe.first.min(run.lo().tick());
            probe.last = probe.last.max(run.hi().tick());
            probe.meets = probe.meets || window.is_some_and(|w| w.intersects_interval(&run));
        }
        Ok(probe)
    }

    /// A value: its kind's tag byte, then its payload.
    #[inline(always)]
    fn value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            0 => Value::Int(self.i64()?),
            1 => {
                let bits = u64::from_le_bytes(
                    self.take(8)?
                        .try_into()
                        .map_err(|_| CodecError::Invariant("float width"))?,
                );
                Value::float(f64::from_bits(bits))
                    .map_err(|_| CodecError::Invariant("NaN float"))?
            }
            2 => Value::str(self.str()?),
            3 => Value::Bool(self.u8()? != 0),
            4 => Value::Time(Chronon::new(self.i64()?)),
            tag => return Err(CodecError::BadTag("Value", tag)),
        })
    }

    /// A value kind, by the tag its values start with.
    #[inline(always)]
    fn kind(&mut self) -> Result<ValueKind, CodecError> {
        let tag = self.u8()?;
        KINDS
            .get(usize::from(tag))
            .copied()
            .ok_or(CodecError::BadTag("ValueKind", tag))
    }

    /// Reads past a value of the kind `tag` names, written as
    /// [`Encoder::put_value`] writes it, and lends its bytes; `None` for
    /// any other tag or for bytes no encoder writes, though they decode
    /// (a varint or string length longer than it needs to be, a boolean
    /// byte other than 0 or 1, the float −0.0). So two values read here
    /// are equal exactly when their bytes are.
    #[inline(always)]
    fn canonical_value(&mut self, tag: u8) -> Option<&'a [u8]> {
        let start = self.pos;
        if self.u8().ok()? != tag {
            return None;
        }
        let canonical = match tag {
            0 | 4 => self.minimal_varint()?.1,
            1 => {
                let bits = u64::from_le_bytes(self.take(8).ok()?.try_into().ok()?);
                !f64::from_bits(bits).is_nan() && bits != (-0.0f64).to_bits()
            }
            2 => {
                let (len, minimal) = self.minimal_varint()?;
                let text = self.take(usize::try_from(len).ok()?).ok()?;
                minimal && std::str::from_utf8(text).is_ok()
            }
            3 => self.u8().ok()? <= 1,
            _ => false,
        };
        canonical.then(|| self.buf.get(start..self.pos)).flatten()
    }

    /// A varint, and whether it is the shortest encoding of its number:
    /// one byte, or a last byte that adds bits (the tenth may add only
    /// the 64th).
    #[inline(always)]
    fn minimal_varint(&mut self) -> Option<(u64, bool)> {
        let start = self.pos;
        let v = self.u64().ok()?;
        let (len, last) = (self.pos - start, *self.buf.get(self.pos - 1)?);
        Some((
            v,
            len == 1 || (last != 0 && (len < VARINT_MAX || last == 1)),
        ))
    }

    /// One function of [`Decoder::get_tuple_checked`]'s tuple: attribute
    /// `def`'s, in a tuple living over `life`, whole or restricted to
    /// `keep`. `None` unless every segment starts past the one before and
    /// does not abut it with the same value, holds a canonical value of the
    /// attribute's kind (the same bytes throughout for a constant domain)
    /// and lies inside `life` and the attribute's lifespan — what
    /// [`Tuple::validate`] asks of a canonical function.
    ///
    /// Whole, each segment is built as it is checked. Restricted, the
    /// segments are checked first, building nothing, while the pieces
    /// inside `keep` are counted; then the function is built into one
    /// vector of exactly that many pieces, by reading again only from the
    /// first segment that has one. Such a function needs no merging: pieces
    /// of one segment lie in distinct runs of `keep`, which never abut, and
    /// pieces of two segments abut only where the segments do, which then
    /// hold different values.
    #[inline(always)]
    fn function(
        &mut self,
        def: &AttributeDef,
        life: &Lifespan,
        keep: Option<&Lifespan>,
    ) -> Option<TemporalValue> {
        let n = self.u64().ok()?;
        let tag = kind_tag(def.domain().kind());
        let constant = def.domain().is_constant();
        // Whole, the segments themselves; each takes at least four bytes.
        let whole_len = keep.map_or(n as usize, |_| 0);
        let mut whole = Vec::with_capacity(whole_len.min(self.buf.len() / 4));
        let mut last: Option<(Interval, &[u8])> = None;
        let mut first_value: Option<&[u8]> = None;
        let (mut pieces, mut from) = (0, None);
        for _ in 0..n {
            let at = *self;
            let seg = self.interval().ok()?;
            let value = self.canonical_value(tag)?;
            let follows = last.is_none_or(|(prev, prev_value)| {
                prev.hi() < seg.lo() && (prev_value != value || !prev.adjacent(&seg))
            });
            let valid = follows
                && life.contains_interval(&seg)
                && def.lifespan().contains_interval(&seg)
                && (!constant || *first_value.get_or_insert(value) == value);
            if !valid {
                return None;
            }
            last = Some((seg, value));
            let Some(keep) = keep else {
                whole.push((seg, Reader { buf: value, pos: 0 }.value().ok()?));
                continue;
            };
            let inside = pieces_of(seg, keep).count();
            if inside > 0 {
                from.get_or_insert(at);
                pieces += inside;
            }
        }
        let (Some(keep), Some(mut built)) = (keep, from) else {
            return TemporalValue::from_segments(whole).ok();
        };
        let mut segs = Vec::with_capacity(pieces);
        while segs.len() < pieces {
            let seg = built.interval().ok()?;
            if pieces_of(seg, keep).next().is_none() {
                built.canonical_value(tag)?;
                continue;
            }
            let v = built.value().ok()?;
            segs.extend(pieces_of(seg, keep).map(|piece| (piece, v.clone())));
        }
        TemporalValue::from_segments(segs).ok()
    }
}

/// The pieces of `seg` inside `keep`, one per run it meets.
#[inline(always)]
fn pieces_of(seg: Interval, keep: &Lifespan) -> impl Iterator<Item = Interval> + '_ {
    keep.intervals()
        .iter()
        .filter_map(move |run| seg.intersect(run))
}

/// The value kinds by tag byte: a value of a kind starts with its tag,
/// and a scheme names the kind with it.
const KINDS: [ValueKind; 5] = [
    ValueKind::Int,
    ValueKind::Float,
    ValueKind::Str,
    ValueKind::Bool,
    ValueKind::Time,
];

/// The tag byte of `kind` in [`KINDS`].
fn kind_tag(kind: ValueKind) -> u8 {
    (0..)
        .zip(KINDS)
        .find(|(_, k)| *k == kind)
        .map_or(0, |(tag, _)| tag)
}

/// Streaming decoder over a byte slice.
pub struct Decoder<'a> {
    cur: Reader<'a>,
    /// The layout of the last tuple decoded: the next one naming the same
    /// attributes shares it.
    layout: Option<Layout>,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            cur: Reader { buf, pos: 0 },
            layout: None,
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.cur.buf.len() - self.cur.pos
    }

    /// Has all input been consumed?
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Raw byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.cur.u8()
    }

    /// LEB128 varint.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.cur.u64()
    }

    /// Zigzag-decoded signed varint.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        self.cur.i64()
    }

    /// Length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        self.cur.bytes()
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        self.cur.str()
    }

    /// A chronon.
    pub fn get_chronon(&mut self) -> Result<Chronon, CodecError> {
        Ok(Chronon::new(self.cur.i64()?))
    }

    /// An interval.
    pub fn get_interval(&mut self) -> Result<Interval, CodecError> {
        self.cur.interval()
    }

    /// A lifespan.
    pub fn get_lifespan(&mut self) -> Result<Lifespan, CodecError> {
        let n = self.get_u64()? as usize;
        if n == 1 {
            // The common case needs no run list.
            return Ok(Lifespan::from(self.get_interval()?));
        }
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
    /// every run as that does, so bytes that fail one fail the other with
    /// the same error, and leaves the cursor past the lifespan. Every heap
    /// record starts with its tuple's lifespan, so a windowed scan asks
    /// this of each record and decodes only those that meet the window;
    /// the hulls are what a heap page's zone summarizes.
    pub fn lifespan_probe(
        &mut self,
        window: Option<&Lifespan>,
    ) -> Result<LifespanProbe, CodecError> {
        self.cur.probe(window)
    }

    /// A value.
    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        self.cur.value()
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
        self.cur.kind()
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

    /// The tuple at the cursor as a relation on `scheme` holds it,
    /// restricted to `clip` when one is given, `τ_clip(t)`: read, checked
    /// and built in one pass — or `None`, leaving the cursor where it was,
    /// when the record is not one a valid tuple of `scheme` encodes to.
    ///
    /// `Some` is exactly [`Decoder::get_tuple_in`], validated
    /// ([`Tuple::validate`]) and restricted to `clip`
    /// ([`Tuple::restrict`]). It needs a record that names the scheme's
    /// attributes in layout order, in canonical form (each function's
    /// segments sorted, disjoint and maximal, each value in the bytes
    /// [`Encoder::put_value`] writes for it), and whose every segment
    /// passes [`Tuple::validate`]'s checks: a value of the attribute's
    /// kind, an interval inside `t.l` and the attribute's lifespan, one
    /// value throughout for a constant domain. Every encoder writes such
    /// records for valid tuples. Only the pieces inside `t.l ∩ clip` are
    /// built, each function into one vector of its exact size. Anything
    /// else — a record written before a schema evolution shrank a
    /// lifespan, one named out of order, corrupt bytes — is `None`, and the
    /// caller decodes it the general way, which gives its value or its
    /// error.
    pub fn get_tuple_checked(&mut self, scheme: &Scheme, clip: Option<&Lifespan>) -> Option<Tuple> {
        let at = self.cur;
        let tuple = self.read_checked(scheme, clip);
        if tuple.is_none() {
            self.cur = at;
        }
        tuple
    }

    /// [`Decoder::get_tuple_checked`], leaving the cursor anywhere on `None`.
    fn read_checked(&mut self, scheme: &Scheme, clip: Option<&Lifespan>) -> Option<Tuple> {
        let life = self.get_lifespan().ok()?;
        let clipped = clip.map(|c| life.intersect(c));
        let layout = scheme.layout();
        let r = &mut self.cur;
        if r.u64().ok()? != layout.len() as u64 {
            return None;
        }
        let mut values = value_slots(Some(layout));
        for attr in layout.names() {
            if r.bytes().ok()? != attr.name().as_bytes() {
                return None;
            }
            values.push(r.function(scheme.attr(attr)?, &life, clipped.as_ref())?);
        }
        Tuple::from_layout(clipped.unwrap_or(life), layout, values)
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
