//! Hash maps for the memo tables that price device work once.
//!
//! The stage memo and the generation templates in
//! [`IanusSystem`](crate::IanusSystem) key on a whole `ModelConfig`
//! (the stage memo also on the stage). The serving engine's replica memos,
//! read on every engine iteration, do not: each price class resolves the
//! run's model to its own tables once per run, so a lookup hashes only a
//! token count, a shape, or a (batch, past) pair. (The paged-KV block
//! tables, read on every turn for every resident sequence, are not
//! hashed at all: they live in a slab indexed by the slot each sequence
//! carries.)
//! [`Memo`] hashes those keys with a multiplicative word hash: SipHash
//! over a config costs more than the rest of a lookup, and an empty
//! `Memo` neither allocates nor seeds a random hasher state, so building
//! a system or a replica stays cheap. No memo table is iterated except
//! for an order-free integer sum, so the hash order cannot reach a
//! result.

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

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
