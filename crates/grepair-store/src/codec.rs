//! Little-endian binary encoding primitives and the CRC-32 used to
//! checksum every record and snapshot payload.
//!
//! The store vendors its own CRC-32 (IEEE 802.3 / zlib polynomial,
//! reflected) because the build environment has no registry access. It
//! runs slice-by-8: eight lookup tables, computed at compile time, fold
//! eight input bytes per step, so checksumming every WAL frame and
//! snapshot image on write and again on read costs a fraction of the
//! bytewise loop.

/// CRC-32 slice-by-8 tables for the reflected IEEE polynomial
/// `0xEDB88320`. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` is followed by
/// `k` zero bytes, which lets one step fold eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `bytes` — compatible with zlib's `crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, for in-place framing: the WAL writer
    /// encodes records straight into one long-lived writer, then patches
    /// each frame's length and checksum, flushes and clears it.
    pub(crate) fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source. Every accessor returns an
/// error instead of panicking — decode inputs come straight from disk.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure: truncated input or malformed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`, little-endian.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input:
    /// checked, not copied.
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| DecodeError(format!("invalid utf-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table-driven CRC-32 the slice-by-8 version replaced,
    /// kept as the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_at_every_length_and_offset() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=70 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_slice_by_8_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            let s = &bytes[skip.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard zlib/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.str("héllo wörld");
        w.str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str_ref().unwrap(), "héllo wörld");
        assert_eq!(r.str_ref().unwrap(), "");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = ByteWriter::new();
        w.str("abcdef");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.str_ref().is_err(), "cut at {cut} must fail");
        }
        // A string length pointing past the end fails cleanly.
        let mut w = ByteWriter::new();
        w.u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.str_ref().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(ByteReader::new(&bytes).str_ref().is_err());
    }
}
