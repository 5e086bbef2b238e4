//! Offline stub of the `bytes` crate: just enough of `Buf` and `BufMut`
//! (with the real crate's `impl BufMut for Vec<u8>`) for big-endian wire
//! encoding of flat messages.

/// Read side of a byte cursor. All multi-byte reads are big-endian,
/// matching the real crate's `get_*` defaults.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes. Panics if `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Read one byte. Panics if empty.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }
    /// Read a big-endian u32. Panics on underflow.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }
    /// Read a big-endian u64. Panics on underflow.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }
    /// Read a big-endian f64. Panics on underflow.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write side: append-only big-endian encoding.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian f64.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Appends to the vector, as the real crate's `impl BufMut for Vec<u8>`
/// does. A caller that reserves the final length up front never
/// reallocates.
impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = Vec::new();
        b.put_u8(7);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(u64::MAX - 3);
        b.put_f64(-1.5);
        assert_eq!(b.len(), 1 + 4 + 8 + 8);
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), u64::MAX - 3);
        assert_eq!(r.get_f64(), -1.5);
        assert_eq!(r.remaining(), 0);
    }
}
