//! Compact binary codec for dense matrices.
//!
//! Published artifacts are often shipped and archived; a 1000² sanitized
//! matrix is ~8 MB of floats that JSON would inflate ~3×. The format is a
//! little-endian frame:
//!
//! ```text
//! magic  "DPFM"          4 bytes
//! version u8             currently 1
//! dtype   u8             0 = u64, 1 = f64
//! ndim    u16
//! dims    ndim × u64
//! data    size × 8 bytes
//! ```

use crate::{DenseMatrix, FmError, Result, Shape};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"DPFM";
const VERSION: u8 = 1;

/// Magic for the published-release frame (`dpod_core::PublishedRelease`).
///
/// The release codec lives in `dpod-core` (it needs the release types) but
/// shares this crate's framing primitives; the magic is declared here so
/// every workspace frame format is enumerated in one place.
pub const RELEASE_MAGIC: &[u8; 4] = b"DPRL";

/// Current version of the `DPRL` release frame.
pub const RELEASE_VERSION: u8 = 1;

/// Magic for the binary query-protocol frame (`dpod_serve::wire`).
///
/// Spoken on analyst connections: a client that opens with this magic is
/// served length-prefixed `DPRB` frames instead of newline-delimited
/// JSON. As with [`RELEASE_MAGIC`], the codec lives downstream (it needs
/// the request/response types) but the magic is enumerated here so every
/// workspace frame format shares one registry.
pub const WIRE_MAGIC: &[u8; 4] = b"DPRB";

/// Current version of the `DPRB` query-protocol frame.
pub const WIRE_VERSION: u8 = 1;

/// Builder for little-endian, magic+version prefixed binary frames.
///
/// The `DPFM` matrix codec below and the `DPRL` release codec in
/// `dpod-core` are both expressed over this writer, so framing
/// conventions (length prefixes, float encoding) cannot drift apart.
#[derive(Debug)]
pub struct FrameWriter {
    buf: BytesMut,
}

impl FrameWriter {
    /// Starts a frame with `magic` and `version`, reserving `cap` bytes.
    pub fn with_capacity(magic: &[u8; 4], version: u8, cap: usize) -> Self {
        let mut buf = BytesMut::with_capacity(cap + 5);
        buf.put_slice(magic);
        buf.put_u8(version);
        FrameWriter { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Appends a length-prefixed (u16) UTF-8 string.
    ///
    /// # Panics
    /// When `s` exceeds `u16::MAX` bytes (no workspace identifier does).
    pub fn put_str(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize, "string too long for frame");
        self.buf.put_u16_le(s.len() as u16);
        self.buf.put_slice(s.as_bytes());
    }

    /// Appends a length-prefixed (u64) raw byte slice.
    ///
    /// Unlike [`Self::put_str`] this carries arbitrary payloads of any
    /// length (the query protocol's packed batch bodies).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.put_u64_le(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Appends a length-prefixed (u64) slice of `usize` values as u64s.
    pub fn put_usize_slice(&mut self, values: &[usize]) {
        self.buf.put_u64_le(values.len() as u64);
        for &v in values {
            self.buf.put_u64_le(v as u64);
        }
    }

    /// Appends a length-prefixed (u64) slice of `f64` values.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.buf.put_u64_le(values.len() as u64);
        for &v in values {
            self.buf.put_u64_le(v.to_bits());
        }
    }

    /// Finalizes the frame.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Cursor over a magic+version prefixed frame with descriptive errors.
#[derive(Debug)]
pub struct FrameReader<'a> {
    rest: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Validates `magic`/`version` and positions the cursor after them.
    ///
    /// # Errors
    /// [`FmError::InvalidShape`] when the header does not match.
    pub fn new(bytes: &'a [u8], magic: &[u8; 4], version: u8) -> Result<Self> {
        let err = |reason: String| FmError::InvalidShape { reason };
        if bytes.len() < 5 {
            return Err(err("frame too short for header".into()));
        }
        let mut b = bytes;
        let mut got = [0u8; 4];
        b.copy_to_slice(&mut got);
        if &got != magic {
            return Err(err(format!("bad magic {got:?}, expected {magic:?}")));
        }
        let got_version = b.get_u8();
        if got_version != version {
            return Err(err(format!(
                "unsupported frame version {got_version}, expected {version}"
            )));
        }
        Ok(FrameReader { rest: b })
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(FmError::InvalidShape {
                reason: format!(
                    "frame truncated reading {what}: need {n} bytes, have {}",
                    self.rest.len()
                ),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self, what: &str) -> Result<u16> {
        let mut b = self.take(2, what)?;
        Ok(b.get_u16_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64> {
        let mut b = self.take(8, what)?;
        Ok(b.get_u64_le())
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a u16-length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String> {
        let len = self.get_u16(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FmError::InvalidShape {
            reason: format!("frame field {what} is not valid UTF-8"),
        })
    }

    /// Reads a u64-length-prefixed raw byte slice (see
    /// [`FrameWriter::put_bytes`]). The declared length is validated
    /// against the remaining frame before any allocation happens, so an
    /// adversarial length cannot balloon memory.
    pub fn get_bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.get_u64(what)?;
        let len = usize::try_from(len).map_err(|_| FmError::InvalidShape {
            reason: format!("frame field {what} length overflows"),
        })?;
        self.take(len, what)
    }

    /// Reads `count` *unprefixed* little-endian `u64` words, returning
    /// the raw bytes (callers that already know the word count from an
    /// earlier field skip the length prefix — the query protocol's
    /// packed batch coordinates). Bounds are validated before returning.
    pub fn get_raw_u64s(&mut self, count: usize, what: &str) -> Result<&'a [u8]> {
        let n = count.checked_mul(8).ok_or_else(|| FmError::InvalidShape {
            reason: format!("frame field {what} length overflows"),
        })?;
        self.take(n, what)
    }

    /// Reads a u64-length-prefixed `usize` vector.
    pub fn get_usize_vec(&mut self, what: &str) -> Result<Vec<usize>> {
        let len = self.get_u64(what)? as usize;
        let raw = self.take(
            len.checked_mul(8).ok_or_else(|| FmError::InvalidShape {
                reason: format!("frame field {what} length overflows"),
            })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")) as usize)
            .collect())
    }

    /// Reads a u64-length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self, what: &str) -> Result<Vec<f64>> {
        let len = self.get_u64(what)? as usize;
        let raw = self.take(
            len.checked_mul(8).ok_or_else(|| FmError::InvalidShape {
                reason: format!("frame field {what} length overflows"),
            })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk of 8"))))
            .collect())
    }

    /// Asserts the frame was fully consumed.
    ///
    /// # Errors
    /// [`FmError::InvalidShape`] naming the trailing byte count.
    pub fn finish(self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FmError::InvalidShape {
                reason: format!("frame has {} trailing bytes", self.rest.len()),
            })
        }
    }
}

/// Marker for the element type stored in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dtype {
    U64 = 0,
    F64 = 1,
}

/// Encodes a count matrix.
pub fn encode_u64(m: &DenseMatrix<u64>) -> Bytes {
    encode_with(m.shape(), Dtype::U64, m.as_slice().iter().copied())
}

/// Encodes a sanitized (float) matrix.
pub fn encode_f64(m: &DenseMatrix<f64>) -> Bytes {
    encode_with(
        m.shape(),
        Dtype::F64,
        m.as_slice().iter().map(|v| v.to_bits()),
    )
}

fn encode_with(shape: &Shape, dtype: Dtype, words: impl Iterator<Item = u64>) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + shape.ndim() * 8 + shape.size() * 8);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(dtype as u8);
    buf.put_u16_le(shape.ndim() as u16);
    for &d in shape.dims() {
        buf.put_u64_le(d as u64);
    }
    for w in words {
        buf.put_u64_le(w);
    }
    buf.freeze()
}

/// Decodes a count matrix.
///
/// # Errors
/// [`FmError::InvalidShape`] describing the first framing violation.
pub fn decode_u64(bytes: &[u8]) -> Result<DenseMatrix<u64>> {
    let (shape, mut rest) = decode_header(bytes, Dtype::U64)?;
    let data: Vec<u64> = (0..shape.size()).map(|_| rest.get_u64_le()).collect();
    DenseMatrix::from_vec(shape, data)
}

/// Decodes a sanitized (float) matrix.
///
/// # Errors
/// [`FmError::InvalidShape`] describing the first framing violation,
/// including non-finite payloads.
pub fn decode_f64(bytes: &[u8]) -> Result<DenseMatrix<f64>> {
    let (shape, mut rest) = decode_header(bytes, Dtype::F64)?;
    let data: Vec<f64> = (0..shape.size())
        .map(|_| f64::from_bits(rest.get_u64_le()))
        .collect();
    if data.iter().any(|v| !v.is_finite()) {
        return Err(FmError::InvalidShape {
            reason: "frame contains non-finite values".into(),
        });
    }
    DenseMatrix::from_vec(shape, data)
}

fn decode_header(bytes: &[u8], expect: Dtype) -> Result<(Shape, &[u8])> {
    let err = |reason: String| FmError::InvalidShape { reason };
    let mut b = bytes;
    if b.remaining() < 8 {
        return Err(err("frame too short for header".into()));
    }
    let mut magic = [0u8; 4];
    b.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(err(format!("bad magic {magic:?}")));
    }
    let version = b.get_u8();
    if version != VERSION {
        return Err(err(format!("unsupported version {version}")));
    }
    let dtype = b.get_u8();
    if dtype != expect as u8 {
        return Err(err(format!(
            "frame holds dtype {dtype}, expected {}",
            expect as u8
        )));
    }
    let ndim = b.get_u16_le() as usize;
    if b.remaining() < ndim * 8 {
        return Err(err("frame too short for dims".into()));
    }
    let dims: Vec<usize> = (0..ndim).map(|_| b.get_u64_le() as usize).collect();
    let shape = Shape::new(dims)?;
    if b.remaining() < shape.size() * 8 {
        return Err(err(format!(
            "frame holds {} bytes of data, need {}",
            b.remaining(),
            shape.size() * 8
        )));
    }
    Ok((shape, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn u64_round_trip() {
        let m = DenseMatrix::from_vec(shape(&[3, 4]), (0..12u64).collect::<Vec<_>>()).unwrap();
        let bytes = encode_u64(&m);
        assert_eq!(bytes.len(), 4 + 1 + 1 + 2 + 2 * 8 + 12 * 8);
        let back = decode_u64(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let m = DenseMatrix::from_vec(shape(&[2, 2]), vec![1.5, -0.000123, 9e99, 0.0]).unwrap();
        let back = decode_f64(&encode_f64(&m)).unwrap();
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn rejects_corrupted_frames() {
        let m = DenseMatrix::from_vec(shape(&[2, 2]), vec![1u64, 2, 3, 4]).unwrap();
        let bytes = encode_u64(&m).to_vec();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_u64(&bad).is_err());
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(decode_u64(&bad).is_err());
        // Wrong dtype request.
        assert!(decode_f64(&bytes).is_err());
        // Truncated payload.
        assert!(decode_u64(&bytes[..bytes.len() - 8]).is_err());
        // Truncated header.
        assert!(decode_u64(&bytes[..6]).is_err());
    }

    #[test]
    fn rejects_non_finite_floats() {
        let m = DenseMatrix::from_vec(shape(&[2]), vec![1.0, 2.0]).unwrap();
        let mut bytes = encode_f64(&m).to_vec();
        let nan = f64::NAN.to_bits().to_le_bytes();
        let off = bytes.len() - 8;
        bytes[off..].copy_from_slice(&nan);
        assert!(decode_f64(&bytes).is_err());
    }

    #[test]
    fn frame_primitives_round_trip() {
        let mut w = FrameWriter::with_capacity(b"TEST", 3, 64);
        w.put_u8(9);
        w.put_u16(512);
        w.put_u64(1 << 40);
        w.put_f64(-2.5);
        w.put_str("ebp");
        w.put_usize_slice(&[1, 2, 3]);
        w.put_f64_slice(&[0.5, -0.25]);
        w.put_bytes(b"raw\x00payload");
        w.put_u64(7); // unprefixed word, read back via get_raw_u64s
        let bytes = w.finish();

        let mut r = FrameReader::new(&bytes, b"TEST", 3).unwrap();
        assert_eq!(r.get_u8("a").unwrap(), 9);
        assert_eq!(r.get_u16("b").unwrap(), 512);
        assert_eq!(r.get_u64("c").unwrap(), 1 << 40);
        assert_eq!(r.get_f64("d").unwrap(), -2.5);
        assert_eq!(r.get_str("e").unwrap(), "ebp");
        assert_eq!(r.get_usize_vec("f").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f64_vec("g").unwrap(), vec![0.5, -0.25]);
        assert_eq!(r.get_bytes("h").unwrap(), b"raw\x00payload");
        assert_eq!(r.get_raw_u64s(1, "i").unwrap(), 7u64.to_le_bytes());
        r.finish().unwrap();
    }

    #[test]
    fn frame_reader_rejects_mismatch_and_truncation() {
        let mut w = FrameWriter::with_capacity(b"TEST", 1, 8);
        w.put_u64(42);
        let bytes = w.finish();

        assert!(FrameReader::new(&bytes, b"XXXX", 1).is_err());
        assert!(FrameReader::new(&bytes, b"TEST", 2).is_err());
        assert!(FrameReader::new(&bytes[..3], b"TEST", 1).is_err());

        // Reading past the payload is a descriptive error, not a panic:
        // the u64 little-endian bytes of 42 re-read as a 42-byte string
        // length against only 6 remaining bytes.
        let mut r = FrameReader::new(&bytes, b"TEST", 1).unwrap();
        assert!(r.get_str("too much").is_err());

        // Trailing bytes are flagged.
        let r2 = FrameReader::new(&bytes, b"TEST", 1).unwrap();
        assert!(r2.finish().is_err());
    }

    #[test]
    fn high_dimensional_round_trip() {
        let s = shape(&[3, 2, 2, 3, 2]);
        let m = DenseMatrix::from_vec(s.clone(), (0..s.size() as u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(decode_u64(&encode_u64(&m)).unwrap(), m);
    }
}
