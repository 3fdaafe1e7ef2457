//! The byte codec shared by the wire protocol (`emprof-serve`'s frames)
//! and the journal ([`crate::record`]).
//!
//! Everything is little-endian; `f64`s travel as raw IEEE-754 bits, so a
//! decoded value is bit-identical to the encoded one. Strings are UTF-8
//! behind a length prefix.
//!
//! A payload's layout is written once: [`wire_struct!`](crate::wire_struct)
//! lists a struct's fields in wire order and generates both halves of its
//! [`Wire`] impl, and [`wire_enum!`](crate::wire_enum) does the same for
//! an enum of payloads keyed by a discriminant (a frame or record kind).
//! Fields are encoded by their type's [`Wire`] impl; a list field names
//! its bound and the error raised past it. The types that cross both
//! wire and disk — a [`StallEvent`], an [`EmprofConfig`] with its
//! [`CalibConfig`] block, and a sample batch — have exactly one encoding
//! here, so a HELLO frame and a `Meta` record cannot disagree about a
//! field.
//!
//! Decoding goes through [`Reader`]: every read is bounds-checked and
//! fails with a [`DecodeError`] rather than panicking, and every count
//! is checked against a caller-supplied bound before anything is
//! allocated for it. Encoding never fails: a string longer than its
//! bound is cut at the last character boundary at or below the bound,
//! so whatever is written decodes.

use emprof_core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof_obs::{HistogramSnapshot, MeterSnapshot, Snapshot, SpanSnapshot};

/// Upper bound, in bytes, on an ordinary length-prefixed string
/// ([`put_str`], [`Reader::string`]).
pub const MAX_STRING: usize = 256;

/// Upper bound on entries per metric kind in a telemetry [`Snapshot`].
pub const MAX_METRICS_ENTRIES: u32 = 4096;

/// Upper bound on buckets per [`HistogramSnapshot`] (a base-2 log
/// histogram over `u64` has at most 65 distinct buckets).
pub const MAX_HISTOGRAM_BUCKETS: u32 = 128;

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian payload reader. Every read fails with
/// "truncated payload" when too few bytes remain; the other errors are
/// listed per method.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, borrowed from the payload.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A string behind a `u16` length of at most [`MAX_STRING`] bytes;
    /// fails on a longer length or bytes that are not UTF-8.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        self.utf8(len, MAX_STRING)
    }

    /// A string behind a `u32` length of at most `bound` bytes; fails as
    /// [`Reader::string`] does.
    pub fn long_string(&mut self, bound: usize) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        self.utf8(len, bound)
    }

    fn utf8(&mut self, len: usize, bound: usize) -> Result<String, DecodeError> {
        if len > bound {
            return Err(DecodeError("string too long"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError("string not UTF-8"))
    }

    /// A `u32` element count; fails with `DecodeError(what)` above `bound`.
    pub fn count(&mut self, bound: u32, what: &'static str) -> Result<u32, DecodeError> {
        let n = self.u32()?;
        if n > bound {
            return Err(DecodeError(what));
        }
        Ok(n)
    }

    /// A counted list of at most `bound` values, as written by
    /// [`put_list`]; fails with `DecodeError(what)` above the bound,
    /// before anything is allocated for the list.
    pub fn list<T: Wire>(&mut self, bound: u32, what: &'static str) -> Result<Vec<T>, DecodeError> {
        let n = self.count(bound, what)?;
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(T::get(self)?);
        }
        Ok(items)
    }

    /// Succeeds only if the whole payload has been read ("trailing bytes"
    /// otherwise).
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }

    /// One stall event, as written by [`put_event`]; fails on kind bits
    /// above 3 or an end before the start.
    pub fn event(&mut self) -> Result<StallEvent, DecodeError> {
        let start_sample = self.u64()? as usize;
        let end_sample = self.u64()? as usize;
        let duration_cycles = self.f64()?;
        let bits = self.u8()?;
        if bits > 3 {
            return Err(DecodeError("unknown stall kind"));
        }
        if end_sample < start_sample {
            return Err(DecodeError("event ends before it starts"));
        }
        Ok(StallEvent {
            start_sample,
            end_sample,
            duration_cycles,
            kind: if bits & 1 != 0 {
                StallKind::RefreshCollision
            } else {
                StallKind::Normal
            },
            confidence: if bits & 2 != 0 {
                Confidence::Degraded
            } else {
                Confidence::High
            },
        })
    }

    /// A batch of at most `bound` samples, as written by [`put_samples`]:
    /// its sequence number and the raw sample bytes, borrowed from the
    /// payload (read them with [`f64s`]).
    pub fn samples(&mut self, bound: u32) -> Result<(u64, &'a [u8]), DecodeError> {
        Ok((self.u64()?, self.sample_bytes(bound)?))
    }

    /// The samples of a batch after its sequence number: a count of at
    /// most `bound` and that many raw sample bytes, borrowed.
    pub fn sample_bytes(&mut self, bound: u32) -> Result<&'a [u8], DecodeError> {
        let n = self.count(bound, "sample count exceeds bound")?;
        self.take(n as usize * 8)
    }
}

/// The samples in raw little-endian bytes from [`Reader::samples`].
pub fn f64s(raw: &[u8]) -> impl Iterator<Item = f64> + '_ {
    raw.chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("chunks_exact yields 8 bytes")))
}

/// `s` cut to at most `bound` bytes, at a character boundary.
fn clip(s: &str, bound: usize) -> &[u8] {
    &s.as_bytes()[..s.floor_char_boundary(bound)]
}

/// Appends `s` behind a `u16` length, cut at the last character boundary
/// at or below [`MAX_STRING`] bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = clip(s, MAX_STRING);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends `s` behind a `u32` length, cut at the last character boundary
/// at or below `bound` bytes.
pub fn put_long_str(out: &mut Vec<u8>, s: &str, bound: usize) {
    let bytes = clip(s, bound);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a `u32` count and each item's encoding.
pub fn put_list<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

/// Appends one stall event: start, end, duration, then a kind byte whose
/// bit 0 is the refresh classification and bit 1 the degraded-confidence
/// mark, so a replayed or routed session reports exactly the confidence
/// the live one did.
pub fn put_event(out: &mut Vec<u8>, e: &StallEvent) {
    out.extend_from_slice(&(e.start_sample as u64).to_le_bytes());
    out.extend_from_slice(&(e.end_sample as u64).to_le_bytes());
    out.extend_from_slice(&e.duration_cycles.to_le_bytes());
    let refresh = u8::from(e.kind == StallKind::RefreshCollision);
    let degraded = u8::from(e.confidence == Confidence::Degraded);
    out.push(refresh | degraded << 1);
}

/// Appends a sample batch — sequence, `u32` count, then each sample's
/// raw bits — straight from borrowed samples, growing `out` once.
pub fn put_samples(out: &mut Vec<u8>, seq: u64, samples: &[f64]) {
    seq.put(out);
    put_sample_bytes(out, samples);
}

/// Appends the part of a sample batch after its sequence number: the
/// `u32` count, then each sample's raw bits, growing `out` once.
pub fn put_sample_bytes(out: &mut Vec<u8>, samples: &[f64]) {
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + samples.len() * 8, 0);
    for (dst, s) in out[at..].chunks_exact_mut(8).zip(samples) {
        dst.copy_from_slice(&s.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// One declaration per payload.

/// A value with one byte encoding on the wire and on disk: [`Wire::put`]
/// appends it and [`Wire::get`] reads it back, so `get` after `put` is
/// the identity (strings past their bound excepted: they are cut).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or a value the encoding cannot hold.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! wire_le {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                r.$t()
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64, f64);

/// One byte, 0 or 1; any non-zero byte reads as `true`.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.u8()? != 0)
    }
}

/// A `u64`, so sizes and sample indexes do not depend on the platform.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.u64()? as usize)
    }
}

/// [`put_str`] and [`Reader::string`]: a `u16` length, at most
/// [`MAX_STRING`] bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.string()
    }
}

/// A tag byte (0 for `None`, 1 for `Some`), then the value if present.
impl Wire for Option<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.u64()?)),
            _ => Err(DecodeError("bad option tag")),
        }
    }
}

/// [`put_event`] and [`Reader::event`].
impl Wire for StallEvent {
    fn put(&self, out: &mut Vec<u8>) {
        put_event(out, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.event()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// One field of a [`wire_struct!`](crate::wire_struct) or
/// [`wire_enum!`](crate::wire_enum) declaration: `put` appends the value,
/// `get` reads it (inside a function returning `Result<_, DecodeError>`).
/// The optional bracket selects the encoding:
///
/// - none: the field type's [`Wire`] impl;
/// - `[BOUND, "what"]`: a [`put_list`] / [`Reader::list`] of at most
///   `BOUND` items, failing with `DecodeError("what")` past it;
/// - `[long BOUND]`: a [`put_long_str`] / [`Reader::long_string`] string
///   of at most `BOUND` bytes;
/// - `[samples BOUND]`: [`put_sample_bytes`] / [`Reader::sample_bytes`],
///   the samples of a batch after its sequence number;
/// - `[flag]`: not in the payload (a frame-header flag); reads as
///   `false` for the frame codec to set.
#[macro_export]
macro_rules! wire_field {
    (put $out:ident, $v:expr) => {
        $crate::codec::Wire::put($v, $out)
    };
    (put $out:ident, $v:expr, [flag]) => {};
    (put $out:ident, $v:expr, [long $bound:expr]) => {
        $crate::codec::put_long_str($out, $v, $bound)
    };
    (put $out:ident, $v:expr, [samples $bound:expr]) => {
        $crate::codec::put_sample_bytes($out, $v)
    };
    (put $out:ident, $v:expr, [$bound:expr, $what:expr]) => {
        $crate::codec::put_list($out, $v)
    };
    (get $r:ident) => {
        $crate::codec::Wire::get($r)?
    };
    (get $r:ident, [flag]) => {
        false
    };
    (get $r:ident, [long $bound:expr]) => {
        $r.long_string($bound)?
    };
    (get $r:ident, [samples $bound:expr]) => {
        $crate::codec::f64s($r.sample_bytes($bound)?).collect()
    };
    (get $r:ident, [$bound:expr, $what:expr]) => {
        $r.list($bound, $what)?
    };
}

/// Implements [`Wire`] for structs from their field lists, each written
/// once, in wire order: `put` appends the fields in that order and `get`
/// reads them back in the same order (a struct literal's fields are
/// evaluated as written). Every field must be listed, or the struct
/// literal does not compile; see [`wire_field!`](crate::wire_field) for
/// the per-field forms.
///
/// ```ignore
/// wire_struct! {
///     Reply { total, rows: [MAX_ROWS, "row count exceeds bound"] }
/// }
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident $(: $spec:tt)?),* $(,)? })*) => {$(
        impl $crate::codec::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire_field!(put out, &self.$f $(, $spec)?);)*
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok($ty { $($f: $crate::wire_field!(get r $(, $spec)?)),* })
            }
        }
    )*};
}

/// The payload codec of an enum whose variants travel behind a
/// discriminant `kind` (a frame or record type), one row per variant:
///
/// ```ignore
/// wire_enum! {
///     Frame: FrameType {
///         Flush => Flush;                          // no payload
///         Stats(SessionStatsWire) => Stats;        // a Wire payload
///         Watch { cursor } => Watch;               // fields, as in wire_struct!
///         PollRequest => Poll | FLAG_REQUEST;      // a header flag picks it
///         PollReply { rows: [MAX, "what"] } => Poll;
///     }
/// }
/// ```
///
/// It generates `kind(&self)`, the variant's discriminant;
/// `put_payload(&self, out) -> flag`, which appends the payload and
/// returns the row's flag (0 when none); and `get_payload(kind, flags, r)`,
/// which reads the row whose kind matches and whose flag equals `flags`
/// (the caller masks the header flags down to those rows' flag bits; rows
/// without a flag match any). A flagged row comes before the unflagged
/// row of its kind.
#[macro_export]
macro_rules! wire_enum {
    ($enum:ident: $kind:ident {
        $($variant:ident $(($payload:ty))? $({ $($f:ident $(: $spec:tt)?),* $(,)? })?
            => $k:ident $(| $flag:ident)?;)*
    }) => {
        impl $enum {
            /// This value's discriminant.
            pub fn kind(&self) -> $kind {
                match self {
                    $($crate::wire_enum!(@any $enum $variant
                        $(($payload))? $({ $($f)* })?) => $kind::$k,)*
                }
            }

            /// Appends the payload to `out`; returns the row's flag.
            fn put_payload(&self, out: &mut Vec<u8>) -> u8 {
                match self {
                    $($crate::wire_enum!(@pat $enum $variant payload
                        $(($payload))? $({ $($f)* })?) => {
                        $crate::wire_enum!(@put out payload
                            $(($payload))? $({ $($f $(: $spec)?),* })?);
                        0 $(| $flag)?
                    })*
                }
            }

            /// Reads the payload of the row for `kind` and `flags`.
            fn get_payload(
                kind: $kind,
                flags: u8,
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(match (kind, flags) {
                    $(($kind::$k, $crate::wire_enum!(@flag $($flag)?)) => {
                        $crate::wire_enum!(@get r $enum $variant
                            $(($payload))? $({ $($f $(: $spec)?),* })?)
                    })*
                })
            }
        }
    };
    (@any $e:ident $v:ident) => { $e::$v };
    (@any $e:ident $v:ident ($t:ty)) => { $e::$v(_) };
    (@any $e:ident $v:ident { $($f:ident)* }) => { $e::$v { .. } };
    (@pat $e:ident $v:ident $b:ident) => { $e::$v };
    (@pat $e:ident $v:ident $b:ident ($t:ty)) => { $e::$v($b) };
    (@pat $e:ident $v:ident $b:ident { $($f:ident)* }) => { $e::$v { $($f),* } };
    (@put $out:ident $b:ident) => {};
    (@put $out:ident $b:ident ($t:ty)) => { $crate::codec::Wire::put($b, $out) };
    (@put $out:ident $b:ident { $($f:ident $(: $spec:tt)?),* }) => {
        $($crate::wire_field!(put $out, $f $(, $spec)?);)*
    };
    (@get $r:ident $e:ident $v:ident) => { $e::$v };
    (@get $r:ident $e:ident $v:ident ($t:ty)) => { $e::$v($crate::codec::Wire::get($r)?) };
    (@get $r:ident $e:ident $v:ident { $($f:ident $(: $spec:tt)?),* }) => {
        $e::$v { $($f: $crate::wire_field!(get $r $(, $spec)?)),* }
    };
    (@flag) => { _ };
    (@flag $flag:ident) => { $flag };
}

/// Declares a fieldless `#[repr]` enum and, from the same variant list,
/// the function that maps a discriminant back to its variant (`None` for
/// any other value). Variant attributes and doc comments pass through.
#[macro_export]
macro_rules! discriminants {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $repr:ident {
            $($(#[$vmeta:meta])* $variant:ident = $n:literal,)*
        }
        $fvis:vis fn $from:ident;
    ) => {
        $(#[$meta])*
        #[repr($repr)]
        $vis enum $name {
            $($(#[$vmeta])* $variant = $n,)*
        }

        impl $name {
            /// The variant whose discriminant is `v`, if any.
            $fvis fn $from(v: $repr) -> Option<$name> {
                match v {
                    $($n => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

wire_struct! {
    EmprofConfig {
        norm_window_samples,
        threshold,
        min_duration_cycles,
        min_duration_samples,
        merge_gap_samples,
        edge_level,
        refresh_min_cycles,
        calib,
    }
    CalibConfig {
        enabled,
        block_samples,
        ewma_weight,
        threshold_pad,
        threshold_max,
        gate_fraction,
        degraded_enter,
        degraded_exit,
        window_min,
        drift_tolerance,
    }
}

/// Raised past [`MAX_METRICS_ENTRIES`] in any of a [`Snapshot`]'s lists.
const METRIC_ENTRIES: &str = "metric entry count exceeds bound";

wire_struct! {
    Snapshot {
        counters: [MAX_METRICS_ENTRIES, METRIC_ENTRIES],
        gauges: [MAX_METRICS_ENTRIES, METRIC_ENTRIES],
        meters: [MAX_METRICS_ENTRIES, METRIC_ENTRIES],
        histograms: [MAX_METRICS_ENTRIES, METRIC_ENTRIES],
        spans: [MAX_METRICS_ENTRIES, METRIC_ENTRIES],
    }
    HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets: [MAX_HISTOGRAM_BUCKETS, "bucket count exceeds bound"],
    }
    MeterSnapshot { count, rate_per_sec }
    SpanSnapshot { count, total_ns, min_ns, max_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_long_strings_are_cut_at_a_char_boundary() {
        // 255 ASCII bytes then a 2-byte char: a byte cut at 256 would
        // split the 'é' and the string would no longer decode.
        let s = format!("{}é", "a".repeat(MAX_STRING - 1));
        let mut out = Vec::new();
        put_str(&mut out, &s);
        assert_eq!(
            Reader::new(&out).string().unwrap(),
            "a".repeat(MAX_STRING - 1)
        );

        let mut out = Vec::new();
        put_long_str(&mut out, "€€€", 7);
        assert_eq!(Reader::new(&out).long_string(7).unwrap(), "€€");

        // A string that fits is written whole; one that does not keeps
        // its longest prefix that fits and ends on a char boundary.
        for s in [
            "",
            "é",
            &"é".repeat(MAX_STRING / 2),
            &"🦀".repeat(70),
            &"中".repeat(90),
        ] {
            let mut out = Vec::new();
            put_str(&mut out, s);
            let back = Reader::new(&out).string().unwrap();
            assert!(s.starts_with(&back));
            if s.len() <= MAX_STRING {
                assert_eq!(back, s);
            } else {
                let next = s[back.len()..].chars().next().unwrap();
                assert!(back.len() + next.len_utf8() > MAX_STRING);
            }
        }
    }
}
