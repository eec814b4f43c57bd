//! Tiny, dependency-free binary encoding for control payloads.
//!
//! Collective-I/O drivers exchange small structured values (clocks,
//! round facts, shuffle section headers) alongside bulk data. Everything on the wire
//! is little-endian and length-prefixed where needed; these helpers keep
//! encode/decode symmetric and panic loudly on malformed input, which in a
//! closed simulator always means a driver bug rather than untrusted data.

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes an `f64`.
#[must_use]
pub fn encode_f64(v: f64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// A cursor for decoding payloads produced by the `put_*`/`encode_*`
/// helpers.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reads the next `u64`.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> u64 {
        let bytes: [u8; 8] = self.buf[self.pos..self.pos + 8]
            .try_into()
            .expect("8 bytes for u64");
        self.pos += 8;
        u64::from_le_bytes(bytes)
    }

    /// Reads the next `f64`.
    ///
    /// # Panics
    /// Panics if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> f64 {
        let bytes: [u8; 8] = self.buf[self.pos..self.pos + 8]
            .try_into()
            .expect("8 bytes for f64");
        self.pos += 8;
        f64::from_le_bytes(bytes)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Panics
    /// Panics if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Remaining unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was fully consumed — catches drivers that
    /// disagree about a message layout.
    pub fn finish(self) {
        assert_eq!(
            self.remaining(),
            0,
            "payload has {} undecoded trailing bytes",
            self.remaining()
        );
    }
}

/// Decodes a single `f64` payload (the inverse of [`encode_f64`]).
#[must_use]
pub fn decode_f64(buf: &[u8]) -> f64 {
    let mut r = Reader::new(buf);
    let v = r.f64();
    r.finish();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, -1.5, f64::MAX, 1e-300] {
            assert_eq!(decode_f64(&encode_f64(v)), v);
        }
    }

    #[test]
    fn mixed_reader() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        buf.extend_from_slice(&encode_f64(2.5));
        buf.extend_from_slice(b"abc");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64(), 7);
        assert_eq!(r.f64(), 2.5);
        assert_eq!(r.bytes(3), b"abc");
        r.finish();
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn finish_rejects_leftover() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 2);
        let mut r = Reader::new(&buf);
        let _ = r.u64();
        r.finish();
    }
}
