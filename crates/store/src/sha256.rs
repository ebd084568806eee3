//! SHA-256 (FIPS 180-4), implemented directly so content addressing
//! needs no external dependency.
//!
//! Keys and checksums in the artifact store only need collision
//! resistance against accidental clashes and bit-rot detection, but
//! using the real SHA-256 keeps keys stable, portable, and comparable
//! with external tooling (`sha256sum` of a payload file reproduces the
//! stored checksum).
//!
//! The compression function runs over whole runs of 64-byte blocks
//! ([`compress_blocks`]), so the state stays in registers across a
//! payload. On x86_64 CPUs with the SHA extensions (`sha`, `ssse3`,
//! `sse4.1`, detected at run time) it dispatches to a SHA-NI kernel.
//! Every other CPU and target runs [`compress_blocks_portable`], the
//! plain FIPS 180-4 code, which is also the kernel's test oracle. Both
//! produce the same digests bit for bit.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The hash state before any block is compressed (FIPS 180-4 §5.3.3).
pub const INITIAL_STATE: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 state.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            h: INITIAL_STATE,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.h, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block in one call; the tail waits in the buffer.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.h, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // The buffered tail, the 0x80 marker, zeros, and the 64-bit
        // message length: one block if the marker and length fit after
        // the tail, two otherwise.
        let n = self.buffered;
        let mut padding = [0u8; 128];
        padding[..n].copy_from_slice(&self.buffer[..n]);
        padding[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        padding[end - 8..end].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.h, &padding[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs the compression function over `blocks`, a whole number of
/// 64-byte blocks, updating `state` in place. Uses the SHA-NI kernel
/// when the CPU has the SHA extensions, else [`compress_blocks_portable`].
///
/// # Panics
///
/// Panics if `blocks.len()` is not a multiple of 64.
pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "SHA-256 compresses whole blocks");
    #[cfg(target_arch = "x86_64")]
    {
        if shani::compress_blocks(state, blocks) {
            return;
        }
    }
    compress_blocks_portable(state, blocks);
}

/// The portable FIPS 180-4 compression function over `blocks`, a whole
/// number of 64-byte blocks. The fallback of [`compress_blocks`] and the
/// oracle it is tested against.
///
/// # Panics
///
/// Panics if `blocks.len()` is not a multiple of 64.
pub fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "SHA-256 compresses whole blocks");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel, the crate's only `unsafe` code.
///
/// The SHA extensions keep the eight state words in two registers,
/// `abef` and `cdgh` (named high lane first), and run two rounds per
/// `sha256rnds2`. The message schedule is four registers of four words
/// each, extended by `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether the CPU has every extension [`kernel`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state` if the CPU has the SHA extensions. Returns `false`, with
    /// `state` untouched, if it does not.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` has just confirmed that this CPU supports
        // every target feature `kernel` is compiled with.
        unsafe { kernel(state, blocks) };
        true
    }

    /// Four rounds: `w` holds message words `4q..4q + 4`.
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled target feature.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn quad_round(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, q: usize) {
        let k = &K[4 * q..4 * q + 4];
        // SAFETY: `k` is four `u32`s, exactly the 16 bytes an unaligned
        // load reads.
        let wk = _mm_add_epi32(w, _mm_loadu_si128(k.as_ptr().cast()));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four message words from the previous sixteen, oldest
    /// register first.
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled target feature.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let sum = _mm_add_epi32(sigma0, _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(sum, w3)
    }

    /// Message words `4i..4i + 4` of a 64-byte `block`, as integers.
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled target feature.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_words(block: &[u8], i: usize) -> __m128i {
        let bytes = &block[16 * i..16 * i + 16];
        // Byte order within each 32-bit lane reversed: the message is
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `bytes` is exactly the 16 bytes an unaligned load reads.
        _mm_shuffle_epi8(_mm_loadu_si128(bytes.as_ptr().cast()), bswap)
    }

    /// Compresses `blocks` into `state`, keeping the state in two
    /// registers across the whole run.
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled target feature.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `state` is 32 bytes; the two unaligned loads read
        // bytes 0..16 and 16..32.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load_words(block, 0);
            let mut w1 = load_words(block, 1);
            let mut w2 = load_words(block, 2);
            let mut w3 = load_words(block, 3);
            quad_round(&mut abef, &mut cdgh, w0, 0);
            quad_round(&mut abef, &mut cdgh, w1, 1);
            quad_round(&mut abef, &mut cdgh, w2, 2);
            quad_round(&mut abef, &mut cdgh, w3, 3);
            for q in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                quad_round(&mut abef, &mut cdgh, w0, q);
                w1 = schedule(w1, w2, w3, w0);
                quad_round(&mut abef, &mut cdgh, w1, q + 1);
                w2 = schedule(w2, w3, w0, w1);
                quad_round(&mut abef, &mut cdgh, w2, q + 2);
                w3 = schedule(w3, w0, w1, w2);
                quad_round(&mut abef, &mut cdgh, w3, q + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: the same two 16-byte halves of `state` as the loads.
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// Lowercase hex digest of `data`.
pub fn hex_digest(data: &[u8]) -> String {
    let mut hasher = Sha256::new();
    hasher.update(data);
    to_hex(&hasher.finalize())
}

/// Lowercase hex encoding of a digest.
pub fn to_hex(digest: &[u8; 32]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for &b in digest {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// The dispatched [`Sha256`] (the SHA-NI kernel where the CPU has the
/// SHA extensions) against the portable compressor called directly.
/// The oracle pads the message itself and compresses it in one call, so
/// it shares neither the kernel nor the streaming buffer nor the
/// padding code of [`Sha256`]. On a CPU without the SHA extensions both
/// sides run the portable code, and the tests say so on standard error.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::Once;

    /// Says once per test binary when only the portable path can run.
    fn note_paths() {
        static NOTE: Once = Once::new();
        NOTE.call_once(|| {
            #[cfg(target_arch = "x86_64")]
            let sha_ni = shani::detected();
            #[cfg(not(target_arch = "x86_64"))]
            let sha_ni = false;
            if !sha_ni {
                eprintln!("sha256: no SHA-NI on this CPU, only the portable path ran");
            }
        });
    }

    /// SHA-256 of `data` by the portable compressor over the padded
    /// message (FIPS 180-4 §5.1.1).
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = INITIAL_STATE;
        compress_blocks_portable(&mut state, &message);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// SHA-256 of `data` by the dispatched hasher, fed in pieces: each
    /// split point is the length of the next `update`, and the rest
    /// goes in last.
    fn dispatched_digest(data: &[u8], splits: &[usize]) -> [u8; 32] {
        note_paths();
        let mut h = Sha256::new();
        let mut rest = data;
        for &len in splits {
            let (piece, tail) = rest.split_at(len.min(rest.len()));
            h.update(piece);
            rest = tail;
        }
        h.update(rest);
        h.finalize()
    }

    /// Checks a reference vector on both paths.
    fn assert_both_paths(data: &[u8], hex: &str) {
        assert_eq!(to_hex(&dispatched_digest(data, &[])), hex, "dispatched");
        assert_eq!(to_hex(&portable_digest(data)), hex, "portable");
    }

    /// A reproducible pseudo-random buffer (xorshift64).
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    // FIPS 180-4 / NIST CAVP reference vectors.
    #[test]
    fn empty_input() {
        assert_both_paths(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_both_paths(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_both_paths(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_both_paths(&[b'a'; 1_000_000], expected);
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(to_hex(&h.finalize()), expected);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        let oneshot = hex_digest(&data);
        for chunk_size in [1, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(to_hex(&h.finalize()), oneshot, "chunk size {chunk_size}");
        }
    }

    /// Every length around the padding edges (one padding block or
    /// two), whole and split at every offset into the first block.
    #[test]
    fn padding_edges_match() {
        let data = noise(200, 7);
        for len in 0..=data.len() {
            let expected = portable_digest(&data[..len]);
            for split in 0..=len.min(65) {
                assert_eq!(
                    dispatched_digest(&data[..len], &[split]),
                    expected,
                    "length {len}, split {split}"
                );
            }
        }
    }

    /// A multi-megabyte buffer, at once and in uneven pieces.
    #[test]
    fn multi_megabyte_buffer_matches() {
        let data = noise(4 << 20, 0x5eed);
        let expected = portable_digest(&data);
        assert_eq!(dispatched_digest(&data, &[]), expected);
        assert_eq!(
            dispatched_digest(&data, &[1, 63, 100_000, 1 << 20, 3]),
            expected
        );
    }

    proptest! {
        /// Any message, fed in any pieces, hashes the same on both
        /// paths. Short leading pieces leave a partial block buffered
        /// before the next `update` brings a multi-block run.
        #[test]
        fn dispatched_hasher_matches_the_portable_compressor(
            data in vec(any::<u8>(), 0..5000),
            splits in vec(0usize..1500, 0..6),
        ) {
            prop_assert_eq!(dispatched_digest(&data, &splits), portable_digest(&data));
        }

        /// The compressors agree block for block from any state.
        #[test]
        fn compress_blocks_matches_the_portable_compressor(
            state in vec(any::<u32>(), 8),
            blocks in 0usize..40,
            seed in 1u64..u64::MAX,
        ) {
            note_paths();
            let data = noise(64 * blocks, seed);
            let mut dispatched: [u32; 8] = state.try_into().expect("eight words");
            let mut portable = dispatched;
            compress_blocks(&mut dispatched, &data);
            compress_blocks_portable(&mut portable, &data);
            prop_assert_eq!(dispatched, portable);
        }
    }
}
