//! Hash maps for the memo tables that price device work once.
//!
//! The stage memo in [`IanusSystem`](crate::IanusSystem) and the replica
//! memos of the serving engine key on a whole `ModelConfig` plus a few
//! integers; the replica memos are read on every engine iteration.
//! [`Memo`] hashes those keys with a multiplicative word hash: SipHash
//! over a config costs more than the rest of a lookup, and an empty
//! `Memo` neither allocates nor seeds a random hasher state, so building
//! a system or a replica stays cheap. No memo table is ever iterated, so
//! the hash order cannot reach a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A memo table: a `HashMap` with the [`MemoHasher`].
pub(crate) type Memo<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

/// Multiplicative (FxHash-style) hasher over 64-bit words.
#[derive(Default)]
pub(crate) struct MemoHasher(u64);

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
