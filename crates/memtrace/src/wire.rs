//! The one bounded decoding cursor for every untrusted byte stream.
//!
//! Binary traces ([`crate::binfmt`] v1 and v2), the serve daemon's wire
//! protocol and the online engine's journal and checkpoints all decode
//! bytes written by another process. Each of them reads through a
//! [`Reader`], which owns the three decisions a decoder of such bytes must
//! get right:
//!
//! * **How far a decoded length is trusted.** [`Reader::count`] is the only
//!   source of a length that may size an allocation: it rejects a count
//!   above an absolute cap, and one whose items (at `item_floor` bytes
//!   each) cannot fit in the bytes that remain. A tier-1 test scans the
//!   decoders for `with_capacity`/`reserve` calls sized any other way.
//! * **How a wide value is narrowed.** [`Reader::field`] rejects a varint
//!   that does not fit its target type instead of truncating it with `as`.
//! * **Where input must end.** [`Reader::expect_end`] fails on undecoded
//!   trailing bytes.
//!
//! Every method returns [`TraceError::Malformed`] on bad input and never
//! panics; integers are LEB128 varints, written by
//! [`crate::binfmt::put_varint`].

use crate::error::TraceError;

/// A cursor over untrusted bytes. See the module docs for the rules it
/// enforces.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one raw byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, TraceError> {
        let Some(&b) = self.data.get(self.pos) else {
            return Err(malformed("truncated input"));
        };
        self.pos += 1;
        Ok(b)
    }

    /// Reads a varint (LEB128), rejecting one that overflows 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err(malformed("truncated varint"));
            };
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // A 10th byte carries only bit 63: anything above 1 would
                // have been shifted out silently.
                if shift == 63 && byte > 1 {
                    return Err(malformed("oversized varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(malformed("oversized varint"));
            }
        }
    }

    /// Reads an `f64` stored as the varint of its IEEE-754 bits.
    #[inline]
    pub fn f64_bits(&mut self) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.varint()?))
    }

    /// Reads a varint into a narrower field, rejecting a value that does
    /// not fit instead of truncating it. `what` names the field in the
    /// error.
    #[inline]
    pub fn field<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, TraceError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| out_of_range(what, v))
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if n > self.remaining() {
            return Err(short_bytes(n, self.remaining()));
        }
        let b = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(b)
    }

    /// Reads a varint byte length and that many bytes of UTF-8. `what`
    /// names the string in the error.
    pub fn str(&mut self, what: &str) -> Result<&'a str, TraceError> {
        let n = self.field(what)?;
        std::str::from_utf8(self.bytes(n)?)
            .map_err(|e| TraceError::Malformed(format!("{what} is not utf-8: {e}")))
    }

    /// Reads the varint count of a collection whose items each take at
    /// least `item_floor` bytes of the input. Rejects a count above `cap`,
    /// then one whose items cannot fit in the remaining bytes, so the
    /// result is safe to pass to `with_capacity`. `what` names the items
    /// in the error.
    #[inline]
    pub fn count(
        &mut self,
        what: &str,
        item_floor: usize,
        cap: usize,
    ) -> Result<usize, TraceError> {
        let v = self.varint()?;
        match usize::try_from(v) {
            Ok(n) if n <= cap => {
                if n > self.remaining() / item_floor.max(1) {
                    return Err(short_count(what, v, self.remaining()));
                }
                Ok(n)
            }
            _ => Err(over_cap(what, v, cap)),
        }
    }

    /// Fails unless every byte was consumed. `what(pos, len)` words the
    /// error from the end of the decoded part and the input length.
    #[inline]
    pub fn expect_end(&self, what: impl FnOnce(usize, usize) -> String) -> Result<(), TraceError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(TraceError::Malformed(what(self.pos, self.data.len())))
        }
    }
}

#[cold]
fn malformed(what: &str) -> TraceError {
    TraceError::Malformed(what.into())
}

#[cold]
fn out_of_range(what: &str, v: u64) -> TraceError {
    TraceError::Malformed(format!("{what} {v} out of range"))
}

#[cold]
fn short_bytes(n: usize, remaining: usize) -> TraceError {
    TraceError::Malformed(format!("truncated input: {n} bytes declared, {remaining} remain"))
}

#[cold]
fn short_count(what: &str, n: u64, remaining: usize) -> TraceError {
    TraceError::Malformed(format!("{n} {what} declared in a short buffer of {remaining} bytes"))
}

#[cold]
fn over_cap(what: &str, n: u64, cap: usize) -> TraceError {
    TraceError::Malformed(format!("{n} {what} declared, cap is {cap}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::put_varint;

    fn varint(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf
    }

    #[test]
    fn counts_are_capped_then_floored_by_the_remaining_bytes() {
        let mut buf = varint(4);
        buf.extend([0; 8]);
        assert_eq!(Reader::new(&buf).count("items", 2, 4).unwrap(), 4);
        let err = Reader::new(&buf).count("items", 2, 3).unwrap_err().to_string();
        assert!(err.contains("4 items declared, cap is 3"), "{err}");
        let err = Reader::new(&buf).count("items", 3, 4).unwrap_err().to_string();
        assert!(err.contains("4 items declared in a short buffer of 8 bytes"), "{err}");
        // A zero floor still counts each item as one byte.
        let err = Reader::new(&varint(u64::MAX)).count("items", 0, usize::MAX).unwrap_err();
        assert!(err.to_string().contains("short buffer"), "{err}");
    }

    #[test]
    fn strings_and_bytes_stay_inside_the_input() {
        let mut buf = varint(2);
        buf.extend(b"hi!");
        let mut r = Reader::new(&buf);
        assert_eq!(r.str("name").unwrap(), "hi");
        assert_eq!(r.bytes(1).unwrap(), b"!");
        assert!(r.bytes(1).is_err());
        assert!(r.byte().is_err());
        r.expect_end(|_, _| unreachable!()).unwrap();

        let mut bad = varint(2);
        bad.extend([0xff, 0xfe]);
        let err = Reader::new(&bad).str("name").unwrap_err().to_string();
        assert!(err.contains("name is not utf-8"), "{err}");
        let err = Reader::new(&varint(9)).str("name").unwrap_err().to_string();
        assert!(err.contains("9 bytes declared, 0 remain"), "{err}");
    }
}
