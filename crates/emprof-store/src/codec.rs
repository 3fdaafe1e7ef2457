//! The byte codec shared by the wire protocol (`emprof-serve`'s frames)
//! and the journal ([`crate::record`]).
//!
//! Everything is little-endian; `f64`s travel as raw IEEE-754 bits, so a
//! decoded value is bit-identical to the encoded one. Strings are UTF-8
//! behind a length prefix. The types that cross both wire and disk — a
//! [`StallEvent`], an [`EmprofConfig`] with its [`CalibConfig`] block,
//! and a sample batch — have exactly one encoder and one decoder here,
//! so a HELLO frame and a `Meta` record cannot disagree about a field.
//!
//! Decoding goes through [`Reader`]: every read is bounds-checked and
//! fails with a [`DecodeError`] rather than panicking, and every count
//! is checked against a caller-supplied bound before anything is
//! allocated for it. Encoding never fails: a string longer than its
//! bound is cut at the last character boundary at or below the bound,
//! so whatever is written decodes.

use emprof_core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};

/// Upper bound, in bytes, on an ordinary length-prefixed string
/// ([`put_str`], [`Reader::string`]).
pub const MAX_STRING: usize = 256;

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

    /// A counted list of at most `bound` events, as written by
    /// [`put_events`].
    pub fn events(&mut self, bound: u32) -> Result<Vec<StallEvent>, DecodeError> {
        let n = self.count(bound, "event count exceeds bound")?;
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            events.push(self.event()?);
        }
        Ok(events)
    }

    /// A detector configuration, as written by [`put_config`].
    pub fn config(&mut self) -> Result<EmprofConfig, DecodeError> {
        Ok(EmprofConfig {
            norm_window_samples: self.u64()? as usize,
            threshold: self.f64()?,
            min_duration_cycles: self.f64()?,
            min_duration_samples: self.u64()? as usize,
            merge_gap_samples: self.u64()? as usize,
            edge_level: self.f64()?,
            refresh_min_cycles: self.f64()?,
            calib: CalibConfig {
                enabled: self.u8()? != 0,
                block_samples: self.u64()? as usize,
                ewma_weight: self.f64()?,
                threshold_pad: self.f64()?,
                threshold_max: self.f64()?,
                gate_fraction: self.f64()?,
                degraded_enter: self.f64()?,
                degraded_exit: self.f64()?,
                window_min: self.u64()? as usize,
                drift_tolerance: self.f64()?,
            },
        })
    }

    /// A batch of at most `bound` samples, as written by [`put_samples`]:
    /// its sequence number and the raw sample bytes, borrowed from the
    /// payload (read them with [`f64s`]).
    pub fn samples(&mut self, bound: u32) -> Result<(u64, &'a [u8]), DecodeError> {
        let seq = self.u64()?;
        let n = self.count(bound, "sample count exceeds bound")?;
        Ok((seq, self.take(n as usize * 8)?))
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

/// Appends a `u32` count and the events.
pub fn put_events(out: &mut Vec<u8>, events: &[StallEvent]) {
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        put_event(out, e);
    }
}

/// Appends the detector configuration: the §IV detector fields, then the
/// adaptive-calibration block.
pub fn put_config(out: &mut Vec<u8>, c: &EmprofConfig) {
    out.extend_from_slice(&(c.norm_window_samples as u64).to_le_bytes());
    out.extend_from_slice(&c.threshold.to_le_bytes());
    out.extend_from_slice(&c.min_duration_cycles.to_le_bytes());
    out.extend_from_slice(&(c.min_duration_samples as u64).to_le_bytes());
    out.extend_from_slice(&(c.merge_gap_samples as u64).to_le_bytes());
    out.extend_from_slice(&c.edge_level.to_le_bytes());
    out.extend_from_slice(&c.refresh_min_cycles.to_le_bytes());
    let k = &c.calib;
    out.push(u8::from(k.enabled));
    out.extend_from_slice(&(k.block_samples as u64).to_le_bytes());
    out.extend_from_slice(&k.ewma_weight.to_le_bytes());
    out.extend_from_slice(&k.threshold_pad.to_le_bytes());
    out.extend_from_slice(&k.threshold_max.to_le_bytes());
    out.extend_from_slice(&k.gate_fraction.to_le_bytes());
    out.extend_from_slice(&k.degraded_enter.to_le_bytes());
    out.extend_from_slice(&k.degraded_exit.to_le_bytes());
    out.extend_from_slice(&(k.window_min as u64).to_le_bytes());
    out.extend_from_slice(&k.drift_tolerance.to_le_bytes());
}

/// Appends a sample batch — sequence, `u32` count, then each sample's
/// raw bits — straight from borrowed samples, growing `out` once.
pub fn put_samples(out: &mut Vec<u8>, seq: u64, samples: &[f64]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + samples.len() * 8, 0);
    for (dst, s) in out[at..].chunks_exact_mut(8).zip(samples) {
        dst.copy_from_slice(&s.to_le_bytes());
    }
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
