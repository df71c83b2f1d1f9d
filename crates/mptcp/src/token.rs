//! Keys, tokens and initial data sequence numbers (RFC 6824 §3.1/§3.2).
//!
//! Each end of a Multipath TCP connection contributes a random 64-bit key
//! in the `MP_CAPABLE` exchange. From a key, both ends derive:
//!
//! * the **token** — the most significant 32 bits of `SHA-1(key)` — which
//!   identifies the connection in later `MP_JOIN` handshakes (and which the
//!   SMAPP path manager uses to name connections toward userspace), and
//! * the **initial data sequence number (IDSN)** — the least significant
//!   64 bits of the same digest.

use crate::crypto::{hmac_sha1, sha1};

/// A 64-bit MPTCP key.
pub type Key = u64;

/// The 32-bit connection token derived from `key`.
pub fn token_from_key(key: Key) -> u32 {
    let digest = sha1(&key.to_be_bytes());
    u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]])
}

/// The 64-bit initial data sequence number derived from `key`.
pub fn idsn_from_key(key: Key) -> u64 {
    let digest = sha1(&key.to_be_bytes());
    u64::from_be_bytes([
        digest[12], digest[13], digest[14], digest[15], digest[16], digest[17], digest[18],
        digest[19],
    ])
}

/// `hi ‖ lo` in network byte order.
fn concat_u64(hi: u64, lo: u64) -> [u8; 16] {
    (((hi as u128) << 64) | lo as u128).to_be_bytes()
}

fn concat_u32(hi: u32, lo: u32) -> [u8; 8] {
    (((hi as u64) << 32) | lo as u64).to_be_bytes()
}

/// HMAC for the `MP_JOIN` SYN/ACK (RFC 6824 §3.2): key = Key-B ‖ Key-A,
/// message = R-B ‖ R-A, truncated to the most significant 64 bits.
pub fn join_hmac_b(key_a: Key, key_b: Key, nonce_a: u32, nonce_b: u32) -> u64 {
    let mac = hmac_sha1(&concat_u64(key_b, key_a), &concat_u32(nonce_b, nonce_a));
    u64::from_be_bytes([
        mac[0], mac[1], mac[2], mac[3], mac[4], mac[5], mac[6], mac[7],
    ])
}

/// HMAC for the third `MP_JOIN` ACK (RFC 6824 §3.2): key = Key-A ‖ Key-B,
/// message = R-A ‖ R-B, full 160 bits.
pub fn join_hmac_a(key_a: Key, key_b: Key, nonce_a: u32, nonce_b: u32) -> [u8; 20] {
    hmac_sha1(&concat_u64(key_a, key_b), &concat_u32(nonce_a, nonce_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_and_idsn_deterministic() {
        let k = 0x0102_0304_0506_0708;
        assert_eq!(token_from_key(k), token_from_key(k));
        assert_eq!(idsn_from_key(k), idsn_from_key(k));
    }

    #[test]
    fn token_and_idsn_differ_across_keys() {
        assert_ne!(token_from_key(1), token_from_key(2));
        assert_ne!(idsn_from_key(1), idsn_from_key(2));
    }

    #[test]
    fn token_is_sha1_high_bits() {
        // Independent derivation for one key.
        let k: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let digest = crate::crypto::sha1(&k.to_be_bytes());
        let expect = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
        assert_eq!(token_from_key(k), expect);
    }

    #[test]
    fn idsn_is_sha1_low_bits() {
        let k: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let digest = crate::crypto::sha1(&k.to_be_bytes());
        let expect = u64::from_be_bytes(digest[12..20].try_into().unwrap());
        assert_eq!(idsn_from_key(k), expect);
    }

    #[test]
    fn join_hmacs_are_asymmetric() {
        let (ka, kb, ra, rb) = (11, 22, 33, 44);
        // The two directions must differ (different key/message order).
        let b = join_hmac_b(ka, kb, ra, rb);
        let a = join_hmac_a(ka, kb, ra, rb);
        assert_ne!(&a[..8], &b.to_be_bytes());
    }

    #[test]
    fn join_hmac_depends_on_every_input() {
        let base = join_hmac_b(1, 2, 3, 4);
        assert_ne!(join_hmac_b(9, 2, 3, 4), base);
        assert_ne!(join_hmac_b(1, 9, 3, 4), base);
        assert_ne!(join_hmac_b(1, 2, 9, 4), base);
        assert_ne!(join_hmac_b(1, 2, 3, 9), base);
    }
}
