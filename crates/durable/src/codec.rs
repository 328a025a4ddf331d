//! The little-endian record codec shared by the WAL and the snapshot
//! store: CRC-32 checksumming, bounds-checked primitive readers/writers,
//! and the encodings of [`UpdateBatch`] and query [`Graph`] values.
//!
//! Everything here is deliberately dumb: fixed-width little-endian
//! integers, explicit counts, no varints, no compression. The decoder
//! never trusts a count it read — every length is checked against the
//! bytes that remain before allocating, so a corrupt record fails with
//! [`CodecError`] instead of an abort.

use sm_delta::UpdateBatch;
use sm_graph::{Graph, GraphBuilder};
use std::fmt;

/// CRC-32 lookup tables (IEEE 802.3, reflected polynomial `0xEDB88320`),
/// built at compile time. Sixteen tables implement *slicing-by-16*: the
/// hot loop folds 16 input bytes per iteration instead of 1, which
/// matters because every snapshot body (megabytes of CSR) is checksummed
/// on both the write and the recovery path.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Fold one aligned little-endian word through tables `base+3 ..= base`.
#[inline(always)]
fn fold_word(w: u32, base: usize) -> u32 {
    CRC_TABLES[base + 3][(w & 0xFF) as usize]
        ^ CRC_TABLES[base + 2][((w >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[base + 1][((w >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[base][(w >> 24) as usize]
}

/// CRC-32 (IEEE) of `bytes` — the checksum in every WAL record frame and
/// every snapshot header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Multiply the 32-bit GF(2) matrix `mat` by the vector `vec`.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// `square = mat * mat` over GF(2).
fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combine two finished CRC-32 digests: returns the digest of the
/// concatenation `A ++ B` given `crc32(A)`, `crc32(B)`, and `|B|`.
///
/// CRC is linear over GF(2), so appending `len_b` bytes to `A` multiplies
/// its digest by the "advance one byte" matrix `len_b` times; the loop
/// applies that operator in `O(log len_b)` squarings. This is what lets
/// the snapshot reader checksum a multi-megabyte body in parallel chunks
/// and still compare one digest.
pub fn crc32_combine(mut crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    let mut even = [0u32; 32]; // operator for 2^(2k+1) zero bytes
    let mut odd = [0u32; 32]; // operator for 2^(2k) zero bytes
    odd[0] = 0xEDB8_8320; // shift-by-one-bit matrix (reflected poly)
    let mut row = 1u32;
    for cell in odd.iter_mut().skip(1) {
        *cell = row;
        row <<= 1;
    }
    gf2_matrix_square(&mut even, &odd); // shift by 2 bits
    gf2_matrix_square(&mut odd, &even); // shift by 4 bits
    loop {
        gf2_matrix_square(&mut even, &odd); // shift by 1, 4, 16, ... bytes
        if len_b & 1 != 0 {
            crc_a = gf2_matrix_times(&even, crc_a);
        }
        len_b >>= 1;
        if len_b == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len_b & 1 != 0 {
            crc_a = gf2_matrix_times(&odd, crc_a);
        }
        len_b >>= 1;
        if len_b == 0 {
            break;
        }
    }
    crc_a ^ crc_b
}

/// CRC-32 of `bytes` computed over up to 4 parallel chunks and folded
/// with [`crc32_combine`] — same digest as [`crc32`], a fraction of the
/// wall time on the multi-megabyte snapshot bodies. Small inputs stay on
/// the sequential path.
pub fn crc32_parallel(bytes: &[u8]) -> u32 {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    if threads < 2 || bytes.len() < (1 << 20) {
        return crc32(bytes);
    }
    let chunk = bytes.len().div_ceil(threads);
    let parts: Vec<&[u8]> = bytes.chunks(chunk).collect();
    let digests: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = parts.iter().map(|p| s.spawn(move || crc32(p))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut acc = digests[0];
    for (part, &d) in parts.iter().zip(&digests).skip(1) {
        acc = crc32_combine(acc, d, part.len() as u64);
    }
    acc
}

/// Streaming CRC-32 (IEEE) — same digest as [`crc32`] over the
/// concatenation of every `update` slice, without concatenating them.
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for ch in &mut chunks {
            let w0 = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let w1 = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            let w2 = u32::from_le_bytes([ch[8], ch[9], ch[10], ch[11]]);
            let w3 = u32::from_le_bytes([ch[12], ch[13], ch[14], ch[15]]);
            c = fold_word(w0, 12) ^ fold_word(w1, 8) ^ fold_word(w2, 4) ^ fold_word(w3, 0);
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Why a record or snapshot body failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it should contain.
    Truncated,
    /// The bytes decoded to a structurally invalid value.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian writer over a `Vec<u8>`.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a slice of `u32`s, little-endian, with one reservation —
    /// the bulk writer behind the snapshot CSR sections.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Zero-pad to the next 8-byte boundary (snapshot section alignment).
    pub fn pad8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.get_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.get_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consume `n` little-endian `u32`s in one bounds check — the bulk
    /// reader behind the snapshot CSR sections.
    pub fn get_u32_slice(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        let bytes = self.get_bytes(n.checked_mul(4).ok_or(CodecError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Consume `n` little-endian `u64`s directly into `usize`s — the
    /// snapshot offset arrays, decoded without an intermediate `u64`
    /// buffer. A value that does not fit `usize` is `Invalid`.
    pub fn get_usize_slice(&mut self, n: usize) -> Result<Vec<usize>, CodecError> {
        let bytes = self.get_bytes(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(8) {
            let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            out.push(usize::try_from(v).map_err(|_| CodecError::Invalid("offset exceeds usize"))?);
        }
        Ok(out)
    }

    /// Consume `n` little-endian `(u32, u32)` pairs in one bounds check.
    pub fn get_u32_pairs(&mut self, n: usize) -> Result<Vec<(u32, u32)>, CodecError> {
        let bytes = self.get_bytes(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                )
            })
            .collect())
    }

    /// Consume padding up to the next 8-byte boundary (must be zeros).
    pub fn skip_pad8(&mut self) -> Result<(), CodecError> {
        while !self.pos.is_multiple_of(8) {
            if self.get_u8()? != 0 {
                return Err(CodecError::Invalid("nonzero padding"));
            }
        }
        Ok(())
    }

    /// Read a count and pre-check that at least `count * elem_bytes` bytes
    /// remain — a corrupt count cannot trigger a huge allocation.
    fn get_count(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(CodecError::Invalid("count exceeds remaining bytes"));
        }
        Ok(n)
    }
}

/// Encode an [`UpdateBatch`] exactly as its four public op lists:
/// `add_vertices`, `delete_vertices`, `add_edges`, `delete_edges`, each
/// as a `u32` count followed by `u32` elements (pairs for edges).
pub fn encode_batch(batch: &UpdateBatch, enc: &mut Enc) {
    enc.put_u32(batch.add_vertices.len() as u32);
    for &l in &batch.add_vertices {
        enc.put_u32(l);
    }
    enc.put_u32(batch.delete_vertices.len() as u32);
    for &v in &batch.delete_vertices {
        enc.put_u32(v);
    }
    enc.put_u32(batch.add_edges.len() as u32);
    for &(u, v) in &batch.add_edges {
        enc.put_u32(u);
        enc.put_u32(v);
    }
    enc.put_u32(batch.delete_edges.len() as u32);
    for &(u, v) in &batch.delete_edges {
        enc.put_u32(u);
        enc.put_u32(v);
    }
}

/// Decode an [`UpdateBatch`] written by [`encode_batch`].
pub fn decode_batch(dec: &mut Dec<'_>) -> Result<UpdateBatch, CodecError> {
    let mut batch = UpdateBatch::new();
    let n = dec.get_count(4)?;
    batch.add_vertices.reserve(n);
    for _ in 0..n {
        batch.add_vertices.push(dec.get_u32()?);
    }
    let n = dec.get_count(4)?;
    batch.delete_vertices.reserve(n);
    for _ in 0..n {
        batch.delete_vertices.push(dec.get_u32()?);
    }
    let n = dec.get_count(8)?;
    batch.add_edges.reserve(n);
    for _ in 0..n {
        batch.add_edges.push((dec.get_u32()?, dec.get_u32()?));
    }
    let n = dec.get_count(8)?;
    batch.delete_edges.reserve(n);
    for _ in 0..n {
        batch.delete_edges.push((dec.get_u32()?, dec.get_u32()?));
    }
    Ok(batch)
}

/// Encode a (small) query graph: `u32 n`, `n` labels, `u32 m`, then `m`
/// edges as `(u, v)` pairs with `u < v`. Used for persisted standing
/// queries — data graphs go through the snapshot CSR sections instead.
pub fn encode_graph(g: &Graph, enc: &mut Enc) {
    enc.put_u32(g.num_vertices() as u32);
    for v in g.vertices() {
        enc.put_u32(g.label(v));
    }
    enc.put_u32(g.num_edges() as u32);
    for (u, v) in g.edges() {
        enc.put_u32(u);
        enc.put_u32(v);
    }
}

/// Decode a query graph written by [`encode_graph`].
pub fn decode_graph(dec: &mut Dec<'_>) -> Result<Graph, CodecError> {
    let n = dec.get_count(4)?;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(dec.get_u32()?);
    }
    let m = dec.get_count(8)?;
    for _ in 0..m {
        let (u, v) = (dec.get_u32()?, dec.get_u32()?);
        if u >= v || v as usize >= n {
            return Err(CodecError::Invalid("query edge out of range"));
        }
        b.add_edge(u, v);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_streaming_matches_one_shot_at_odd_splits() {
        // Exercises the slicing-by-16 fast path, the byte remainder, and
        // resumption at non-multiple-of-16 states.
        let data: Vec<u8> = (0..1021u32).map(|i| (i.wrapping_mul(131)) as u8).collect();
        let want = crc32(&data);
        for split in [0usize, 1, 7, 8, 9, 15, 16, 17, 512, 1021] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split {split}");
        }
    }

    #[test]
    fn combine_and_parallel_match_the_one_shot_digest() {
        let data: Vec<u8> = (0..3_000_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        let want = crc32(&data);
        for split in [0usize, 1, 9, 1024, data.len() / 2, data.len()] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                want,
                "split {split}"
            );
        }
        assert_eq!(crc32_parallel(&data), want);
        assert_eq!(crc32_parallel(b"tiny"), crc32(b"tiny"));
        assert_eq!(crc32_parallel(b""), 0);
    }

    #[test]
    fn bulk_slices_round_trip() {
        let mut e = Enc::new();
        e.put_u32_slice(&[1, u32::MAX, 42]);
        e.put_u64(9);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u32_slice(3).unwrap(), vec![1, u32::MAX, 42]);
        assert_eq!(d.get_usize_slice(1).unwrap(), vec![9]);
        assert!(d.finished());
        assert_eq!(
            Dec::new(&bytes).get_u32_slice(usize::MAX).err(),
            Some(CodecError::Truncated)
        );
        assert_eq!(
            Dec::new(&bytes).get_usize_slice(3).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.pad8();
        let bytes = e.into_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        d.skip_pad8().unwrap();
        assert!(d.finished());
        assert_eq!(Dec::new(&bytes[..3]).get_u32(), Err(CodecError::Truncated));
    }

    #[test]
    fn batch_round_trips() {
        let batch = UpdateBatch::new()
            .add_vertex(3)
            .add_vertex(0)
            .delete_vertex(7)
            .add_edge(1, 2)
            .delete_edge(4, 5);
        let mut e = Enc::new();
        encode_batch(&batch, &mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let got = decode_batch(&mut d).unwrap();
        assert!(d.finished());
        assert_eq!(got.add_vertices, batch.add_vertices);
        assert_eq!(got.delete_vertices, batch.delete_vertices);
        assert_eq!(got.add_edges, batch.add_edges);
        assert_eq!(got.delete_edges, batch.delete_edges);
    }

    #[test]
    fn corrupt_counts_do_not_allocate() {
        let mut e = Enc::new();
        e.put_u32(u32::MAX); // absurd element count, no payload
        let bytes = e.into_bytes();
        assert_eq!(
            decode_batch(&mut Dec::new(&bytes)).err(),
            Some(CodecError::Invalid("count exceeds remaining bytes"))
        );
    }

    #[test]
    fn graph_round_trips() {
        let g = sm_graph::builder::graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
        let mut e = Enc::new();
        encode_graph(&g, &mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let got = decode_graph(&mut d).unwrap();
        assert!(d.finished());
        assert_eq!(got.num_vertices(), 3);
        assert_eq!(got.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(got.label(v), g.label(v));
            assert_eq!(got.neighbors(v), g.neighbors(v));
        }
    }
}
