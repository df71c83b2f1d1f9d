//! SHA-1 and HMAC-SHA1, implemented from scratch.
//!
//! RFC 6824 derives connection tokens and initial data sequence numbers
//! from SHA-1 over the exchanged keys, and authenticates `MP_JOIN`
//! handshakes with HMAC-SHA1. No cryptography crate is available in the
//! offline dependency set, and the algorithms are small, so they are
//! implemented here and validated against the RFC 3174 / RFC 2202 test
//! vectors. SHA-1 is cryptographically broken for collision resistance,
//! but this reproduces the protocol as specified in 2013 — exactly what the
//! paper's kernel used.

/// Output size of SHA-1 in bytes.
pub const SHA1_LEN: usize = 20;
/// SHA-1 block size in bytes.
const BLOCK_LEN: usize = 64;

/// SHA-1 state fed a piece at a time: the five chaining words plus the
/// bytes of a block not yet complete. Everything lives in fixed arrays, so
/// hashing allocates nothing.
struct Sha1 {
    h: [u32; 5],
    block: [u8; BLOCK_LEN],
    /// Bytes of `block` filled so far (always below `BLOCK_LEN`).
    fill: usize,
    /// Message bytes consumed so far.
    len: u64,
}

impl Sha1 {
    fn new() -> Self {
        Sha1 {
            h: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            block: [0; BLOCK_LEN],
            fill: 0,
            len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.fill > 0 {
            let take = (BLOCK_LEN - self.fill).min(data.len());
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < BLOCK_LEN {
                return;
            }
            compress(&mut self.h, &self.block);
            self.fill = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(
                &mut self.h,
                block.try_into().expect("chunks are block-sized"),
            );
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// Pad (0x80, zeros, 64-bit big-endian bit length) and emit the digest.
    fn finish(mut self) -> [u8; SHA1_LEN] {
        let bit_len = self.len * 8;
        self.block[self.fill] = 0x80;
        self.block[self.fill + 1..].fill(0);
        if self.fill >= BLOCK_LEN - 8 {
            // No room left for the length: it goes in a block of its own.
            compress(&mut self.h, &self.block);
            self.block.fill(0);
        }
        self.block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.block);
        let mut out = [0u8; SHA1_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The SHA-1 compression function: fold one block into the chaining words.
fn compress(h: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 80];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Compute the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; SHA1_LEN] {
    let mut s = Sha1::new();
    s.update(data);
    s.finish()
}

/// Compute HMAC-SHA1 (RFC 2104) of `msg` under `key`.
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> [u8; SHA1_LEN] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        k[..SHA1_LEN].copy_from_slice(&sha1(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha1::new();
    inner.update(&k.map(|b| b ^ 0x36));
    inner.update(msg);
    let mut outer = Sha1::new();
    outer.update(&k.map(|b| b ^ 0x5C));
    outer.update(&inner.finish());
    outer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn sha1_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn sha1_two_block_message() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn sha1_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn sha1_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha1(&msg)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn sha1_exact_block_boundary() {
        // 64-byte message exercises the "padding adds a whole block" path.
        let msg = [0x61u8; 64];
        assert_eq!(hex(&sha1(&msg)), "0098ba824b5c16427bd7a1122a5a442a25ec644d");
    }

    /// Inputs `0, 1, 2, ..` of the lengths where the padding changes
    /// shape: 55 is the longest message whose padding fits its own block,
    /// 56..=63 push the length into a second block, 64 and 65 start one.
    /// Digests from an independent implementation (Python's `hashlib`).
    #[test]
    fn sha1_padding_edges() {
        let msg: Vec<u8> = (0..=255u8).collect();
        for (len, want) in [
            (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (65, "69bd728ad6e13cd76ff19751fde427b00e395746"),
        ] {
            assert_eq!(hex(&sha1(&msg[..len])), want, "{len}-byte input");
        }
    }

    /// However a message is cut into updates, the digest is the one-shot
    /// digest (the pieces straddle, end on and start on block boundaries).
    #[test]
    fn sha1_incremental_matches_one_shot() {
        let msg: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        for cuts in [
            &[1usize, 63, 64, 72][..],
            &[64, 128],
            &[55, 56, 57],
            &[0, 199],
        ] {
            let mut s = Sha1::new();
            let mut from = 0;
            for &cut in cuts {
                s.update(&msg[from..cut]);
                from = cut;
            }
            s.update(&msg[from..]);
            assert_eq!(s.finish(), sha1(&msg), "cuts {cuts:?}");
        }
    }

    // RFC 2202 HMAC-SHA1 test vectors.
    #[test]
    fn hmac_rfc2202_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn hmac_rfc2202_case2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn hmac_rfc2202_case3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha1(&key, &msg)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn hmac_rfc2202_long_key() {
        // Case 6: 80-byte key forces the key-hashing path.
        let key = [0xaa; 80];
        assert_eq!(
            hex(&hmac_sha1(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    /// Key and message lengths around the block size, against Python's
    /// `hmac`: a 64-byte key is used as is, a 65-byte one is hashed first.
    #[test]
    fn hmac_block_sized_keys() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        for (key_len, msg_len, want) in [
            (64, 56, "1ab2d9aa82bd7a55af426529ca0ee6f0db22f88e"),
            (65, 55, "ef01c2a9e0046f534d56bbad3888c5470528887b"),
            (16, 8, "5319c34ea875f3a129b78fb1f4e25b65424cb0d9"),
        ] {
            assert_eq!(
                hex(&hmac_sha1(&bytes[..key_len], &bytes[..msg_len])),
                want,
                "{key_len}-byte key, {msg_len}-byte message"
            );
        }
    }

    #[test]
    fn hmac_distinct_keys_distinct_macs() {
        assert_ne!(hmac_sha1(b"k1", b"msg"), hmac_sha1(b"k2", b"msg"));
        assert_ne!(hmac_sha1(b"k", b"msg1"), hmac_sha1(b"k", b"msg2"));
    }
}
