//! Paged KV allocator regression net: allocator invariants under
//! arbitrary operation sequences (proptest), the refcount panics that
//! pin down use-after-free, **bit-identity of `kv_block(0)` with the
//! legacy contiguous engine**, and pinned end-to-end behavior of the
//! copy-on-write prefix cache (share ratio, hit-vs-cold TTFT, liveness
//! under preemption, determinism).

use common::chunked;
use ianus::prelude::*;
use ianus::system::serving::kv::BlockId;
use proptest::prelude::*;

pub mod common;

// ---------------------------------------------------------------------
// Allocator invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block conservation: any interleaving of allocate / retain /
    /// release keeps `free + used == total` (no overcommit on this
    /// path), refcounts non-negative, and ends with everything freed.
    #[test]
    fn allocator_conserves_blocks(
        total in 1u64..64,
        block_tokens in prop::sample::select(vec![1u64, 16, 64]),
        ops in prop::collection::vec(0u8..3, 0..200),
    ) {
        let mut alloc = BlockAllocator::new(total, block_tokens);
        let mut live: Vec<BlockId> = Vec::new();
        for op in ops {
            match op {
                // allocate if possible
                0 => {
                    if let Some(b) = alloc.allocate() {
                        prop_assert_eq!(alloc.ref_count(b), 1);
                        live.push(b);
                    } else {
                        prop_assert_eq!(alloc.free_blocks(), 0);
                    }
                }
                // retain a live block (one more handle on it)
                1 => {
                    if let Some(&b) = live.last() {
                        alloc.retain(b);
                        live.push(b);
                    }
                }
                // release a handle
                _ => {
                    if let Some(b) = live.pop() {
                        let freed = alloc.release(b);
                        prop_assert_eq!(freed, alloc.ref_count(b) == 0);
                    }
                }
            }
            prop_assert_eq!(alloc.free_blocks() + alloc.used_blocks(), total);
        }
        for b in live.drain(..) {
            alloc.release(b);
        }
        prop_assert_eq!(alloc.free_blocks(), total);
        prop_assert_eq!(alloc.used_blocks(), 0);
    }

    /// A block table round-trip returns every block: grow to an
    /// arbitrary length (overcommit allowed), optionally share a
    /// prefix through the cache, evict (truncate) and complete — the
    /// allocator must end exactly where it started after the cache is
    /// flushed.
    #[test]
    fn table_roundtrip_leaks_nothing(
        total in 4u64..32,
        block_tokens in prop::sample::select(vec![16u64, 64, 256]),
        grow_tokens in 1u64..4096,
        prefix_blocks in 0usize..4,
    ) {
        let mut alloc = BlockAllocator::new(total, block_tokens);
        let mut cache = PrefixCache::new();
        let mut table = BlockTable::new();
        table.grow_to(&mut alloc, grow_tokens);
        prop_assert_eq!(table.tokens(), grow_tokens);

        // Register the leading full blocks as a shared prefix.
        let shareable = (grow_tokens / block_tokens) as usize;
        let share = prefix_blocks.min(shareable);
        if share > 0 {
            let blocks: Vec<BlockId> = table.blocks()[..share].to_vec();
            cache.insert(&mut alloc, 42, &blocks, share as u64 * block_tokens);
            table.mark_shared(share);
            for &b in &blocks {
                prop_assert_eq!(alloc.ref_count(b), 2); // seq + cache
            }
        }

        // Eviction never frees a shared block.
        table.truncate_to_shared(&mut alloc);
        prop_assert_eq!(table.blocks().len(), share);
        for &b in table.blocks() {
            prop_assert!(alloc.ref_count(b) >= 1);
        }

        table.release_all(&mut alloc);
        cache.flush(&mut alloc);
        prop_assert_eq!(alloc.used_blocks(), 0);
    }

    /// Cache reclaim honors references: entries mapped by a live
    /// sequence survive any reclaim demand; idle entries are freed.
    #[test]
    fn reclaim_never_frees_mapped_blocks(need in 0u64..64) {
        let block_tokens = 16u64;
        let mut alloc = BlockAllocator::new(16, block_tokens);
        let mut cache = PrefixCache::new();

        // Entry A: registered then mapped by a live sequence.
        let mut seq_a = BlockTable::new();
        seq_a.grow_to(&mut alloc, 2 * block_tokens);
        let a_blocks: Vec<BlockId> = seq_a.blocks().to_vec();
        cache.insert(&mut alloc, 1, &a_blocks, 2 * block_tokens);
        seq_a.mark_shared(2);

        // Entry B: registered by a sequence that has since completed —
        // only the cache holds it (idle).
        let mut seq_b = BlockTable::new();
        seq_b.grow_to(&mut alloc, 2 * block_tokens);
        let b_blocks: Vec<BlockId> = seq_b.blocks().to_vec();
        cache.insert(&mut alloc, 2, &b_blocks, 2 * block_tokens);
        seq_b.mark_shared(2);
        seq_b.release_all(&mut alloc);

        let free_before = alloc.free_blocks();
        cache.reclaim(&mut alloc, need);
        // A's blocks are still allocated and still cached.
        for &b in &a_blocks {
            prop_assert!(alloc.ref_count(b) >= 2);
        }
        prop_assert!(cache.lookup(&alloc, 1, u64::MAX).is_some());
        // B was idle, so an unmet demand reclaims it.
        if need > free_before {
            prop_assert!(cache.lookup(&alloc, 2, u64::MAX).is_none());
        }
        seq_a.release_all(&mut alloc);
        cache.flush(&mut alloc);
        prop_assert_eq!(alloc.used_blocks(), 0);
    }
}

#[test]
#[should_panic(expected = "double free")]
fn double_free_panics() {
    let mut alloc = BlockAllocator::new(4, 16);
    let b = alloc.allocate().unwrap();
    alloc.release(b);
    alloc.release(b);
}

#[test]
#[should_panic(expected = "retain of free")]
fn retain_of_free_block_panics() {
    let mut alloc = BlockAllocator::new(4, 16);
    let b = alloc.allocate().unwrap();
    alloc.release(b);
    alloc.retain(b);
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

fn paged_sim(rate: f64, requests: u64, max_batch: u32, kv_block: u64) -> ServingSim {
    ServingSim::new(ServingConfig::shared_prefix(rate, requests))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(max_batch, 128))
        .kv_block(kv_block)
}

/// `kv_block(0)` is not "paged with huge blocks" — it is the legacy
/// contiguous engine, whole-report bit-identical to a sim that never
/// mentions paging.
#[test]
fn kv_block_zero_is_bit_identical_to_legacy() {
    let model = ModelConfig::gpt2_xl();
    let legacy = ServingSim::new(ServingConfig::shared_prefix(4.0, 60))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 128))
        .run(&model);
    let gated = paged_sim(4.0, 60, 32, 0).run(&model);
    assert_eq!(legacy, gated);
    assert_eq!(legacy.prefix_cache_hits, 0);
    assert_eq!(legacy.prefix_share_ratio, 0.0);
}

/// The headline scenario at a stable rate: near-universal cache hits,
/// most prompt tokens shared, and cache-hit TTFT well under cold TTFT.
#[test]
fn prefix_cache_lowers_ttft() {
    let r = paged_sim(0.3, 60, 8, 64).run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 60);
    // One cold request per class (two classes), everyone else hits.
    assert_eq!(r.prefix_cache_hits, 58);
    assert!(
        r.prefix_share_ratio > 0.5,
        "384 of 512 prompt tokens shareable, got {}",
        r.prefix_share_ratio
    );
    assert!(
        r.ttft_cache_hit.p50 < r.ttft_cold.p50,
        "hit p50 {} must beat cold p50 {}",
        r.ttft_cache_hit.p50,
        r.ttft_cold.p50
    );
    assert!(r.fragmentation > 0.0 && r.fragmentation < 0.5);
}

/// Overload liveness: paged accounting keeps the preemption machinery
/// working — sequences are evicted (moving only unshared blocks) and
/// every request still completes.
#[test]
fn paged_preemption_liveness() {
    let r = paged_sim(8.0, 200, 48, 64).run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 200);
    // Every eviction swaps: no recompute fallback in this scenario. The
    // pin ledger's `shared_prefix_paged` row holds the whole schedule.
    assert!(r.preemptions > 0);
    assert_eq!(r.recomputes, 0);
    assert!(r.prefix_share_ratio > 0.5);
}

/// Paged runs are deterministic: same seed, same report.
#[test]
fn paged_runs_are_deterministic() {
    let model = ModelConfig::gpt2_xl();
    let a = paged_sim(0.3, 40, 8, 64).run(&model);
    let b = paged_sim(0.3, 40, 8, 64).run(&model);
    assert_eq!(a, b);
}
