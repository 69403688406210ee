//! Paged KV-cache allocation: a free-list block allocator with
//! ref-counted **copy-on-write prefix sharing**.
//!
//! The contiguous-bytes KV accounting of [`check_batch`] prices a
//! fiction: real engines carve device memory into fixed-size blocks
//! (vLLM's pages), pay *fragmentation* in each sequence's
//! partially-filled tail block, and share the blocks of a common system
//! prompt across every request that carries it. This module is that
//! accounting, layered under the iteration-level engine when
//! [`ServingSim::kv_block`](super::ServingSim::kv_block) is set:
//!
//! * [`BlockAllocator`] — the free list + page tracker. Blocks are
//!   ref-counted; a block is freed only when its last reference is
//!   released, so eviction can never reclaim a block another sequence
//!   (or the prefix cache) still maps.
//! * [`BlockTable`] — one sequence's ordered block mapping: a shared
//!   prefix of cache-mapped blocks followed by privately allocated
//!   blocks. Only the private tail can be partially filled — shared
//!   blocks are always full, which is the copy-on-write rule in block
//!   form (a partially filled block is never shared, because appending
//!   to it would mutate another sequence's context).
//! * [`PrefixCache`] — prompt-prefix hash → the shared blocks of that
//!   prefix. The cache holds its own reference on every cached block,
//!   so entries survive their registering sequence; entries whose
//!   blocks have no other mapper are reclaimed under block pressure.
//! * [`PagedKv`] — the per-replica bundle the engine drives: admission
//!   maps cache hits, prefill/decode growth allocates blocks at block
//!   boundaries (growth inside the tail block only moves counters),
//!   eviction frees only *unshared* blocks, completion releases
//!   everything. Its tables live in a slab: admission hands
//!   out a [`KvSlot`] the sequence carries, and completion frees the
//!   slot for reuse. Decode growth that stays inside tail blocks may
//!   also move the running slack in aggregate, without touching the
//!   tables it lands in: their token counts then lag, and each table
//!   records its true count before anything else reads or changes it —
//!   when its next token opens a block, or when its sequence leaves the
//!   batch.
//!
//! The block size is given in tokens; its byte size derives from the
//! model's per-token KV bytes via
//! [`kv_swap_bytes`](crate::capacity::kv_swap_bytes), and the block
//! count from the device's KV budget
//! ([`Backend::kv_budget_bytes`](crate::backend::Backend::kv_budget_bytes)).
//!
//! **KV migration** (disaggregated clusters,
//! [`crate::serving#disaggregated-prefilldecode`]) moves a sequence
//! between two *independent* allocators, so the block lifecycle is a
//! release-and-readmit: the source replica releases every block the
//! sequence mapped (`complete`) the moment the migration is issued —
//! its pages are free for new prefills while the KV bytes are still in
//! flight — and the destination admits the migrant against its own
//! allocator on arrival (`admit` + `grow` to the sequence's current
//! context, re-mapping any locally cached prompt prefix via
//! `register_prefix` first, so a shared system prompt is *not*
//! re-transferred into private blocks). Block identities do not survive
//! the move; only token counts do.
//!
//! [`check_batch`]: crate::capacity::check_batch
//!
//! # Examples
//!
//! Sharing and copy-on-write at the allocator level:
//!
//! ```
//! use ianus_core::serving::kv::{BlockAllocator, BlockTable};
//!
//! let mut alloc = BlockAllocator::new(8, 16); // 8 blocks of 16 tokens
//! let mut system_prompt = BlockTable::new();
//! system_prompt.grow_to(&mut alloc, 32); // two full blocks
//! let shared = system_prompt.blocks().to_vec();
//!
//! // A second sequence maps the same two blocks and appends privately.
//! let mut user = BlockTable::new();
//! user.map_prefix(&mut alloc, &shared, 32);
//! user.grow_to(&mut alloc, 40); // one private, half-filled block
//! assert_eq!(alloc.ref_count(shared[0]), 2);
//! assert_eq!(user.unshared_blocks(), 1);
//! assert_eq!(alloc.free_blocks(), 5); // 2 shared + 1 private in use
//!
//! // Evicting the user frees only its private tail.
//! user.truncate_to_shared(&mut alloc);
//! assert_eq!(alloc.ref_count(shared[0]), 2, "shared blocks survive");
//! assert_eq!(alloc.free_blocks(), 6);
//! ```

use std::collections::BTreeMap;

/// Index of one fixed-size KV block in a replica's device memory.
pub type BlockId = u32;

/// Free-list + page-tracker over fixed-size KV blocks, with per-block
/// reference counts for prefix sharing.
///
/// Invariants (checked, and exercised by the `paged_kv` proptests):
///
/// * a block is either free (refcount 0, on the free list) or
///   allocated (refcount ≥ 1) — never both;
/// * [`release`](Self::release) of a free block panics (double free),
///   and refcounts can never underflow;
/// * `free + used = total` at all times, unless
///   [`allocate_overcommit`](Self::allocate_overcommit) minted blocks
///   beyond the device budget (the engine's tolerated-overcommit path,
///   mirroring the contiguous engine's behavior when nothing is
///   evictable).
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    /// Tokens per block.
    block_tokens: u64,
    /// Device block budget (minted overcommit blocks may exceed it).
    total_blocks: u64,
    /// Per-block reference counts; 0 = free.
    refcounts: Vec<u32>,
    /// LIFO free list of block ids.
    free: Vec<BlockId>,
    /// Blocks currently allocated (refcount ≥ 1).
    used: u64,
}

impl BlockAllocator {
    /// An allocator over `total_blocks` blocks of `block_tokens` tokens
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero or `total_blocks` exceeds the
    /// [`BlockId`] range.
    pub fn new(total_blocks: u64, block_tokens: u64) -> Self {
        assert!(block_tokens > 0, "KV block size must be positive");
        assert!(
            total_blocks <= u64::from(BlockId::MAX),
            "block count exceeds the BlockId range"
        );
        BlockAllocator {
            block_tokens,
            total_blocks,
            refcounts: vec![0; total_blocks as usize],
            // Pop order is descending ids; any deterministic order works.
            free: (0..total_blocks as BlockId).collect(),
            used: 0,
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// The device block budget this allocator was created with.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> u64 {
        self.free.len() as u64
    }

    /// Blocks currently allocated (refcount ≥ 1). May exceed
    /// [`total_blocks`](Self::total_blocks) after overcommit minting.
    pub fn used_blocks(&self) -> u64 {
        self.used
    }

    /// Current reference count of `block` (0 = free).
    pub fn ref_count(&self, block: BlockId) -> u32 {
        self.refcounts[block as usize]
    }

    /// Blocks needed to hold `tokens` of context (the last one may be
    /// partially filled — that slack is the fragmentation the report
    /// measures).
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Allocates one block (refcount 1) from the free list, or `None`
    /// when the device is out of blocks.
    pub fn allocate(&mut self) -> Option<BlockId> {
        let block = self.free.pop()?;
        debug_assert_eq!(self.refcounts[block as usize], 0);
        self.refcounts[block as usize] = 1;
        self.used += 1;
        Some(block)
    }

    /// Allocates one block, minting a fresh id beyond the device budget
    /// when the free list is empty — the tolerated-overcommit path the
    /// engine uses after its pressure check has already decided nothing
    /// is evictable (occupancy above 1 is recorded, never hidden).
    pub fn allocate_overcommit(&mut self) -> BlockId {
        if let Some(block) = self.allocate() {
            return block;
        }
        let block = BlockId::try_from(self.refcounts.len()).expect("block id space exhausted");
        self.refcounts.push(1);
        self.used += 1;
        block
    }

    /// Adds one reference to an allocated block (prefix sharing).
    ///
    /// # Panics
    ///
    /// Panics if `block` is free — sharing a freed block would be a
    /// use-after-free.
    pub fn retain(&mut self, block: BlockId) {
        let rc = &mut self.refcounts[block as usize];
        assert!(*rc > 0, "retain of free KV block {block}");
        *rc += 1;
    }

    /// Drops one reference; frees the block (returns `true`) when it
    /// was the last.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already free — the double-free that the
    /// allocator invariant tests pin down.
    pub fn release(&mut self, block: BlockId) -> bool {
        let rc = &mut self.refcounts[block as usize];
        assert!(*rc > 0, "double free of KV block {block}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(block);
            self.used -= 1;
            true
        } else {
            false
        }
    }
}

/// One sequence's ordered KV block mapping: `shared` leading blocks
/// mapped from a [`PrefixCache`] entry (always full), then privately
/// allocated blocks (only the last may be partially filled).
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    blocks: Vec<BlockId>,
    /// Leading blocks shared with the prefix cache (and possibly other
    /// sequences).
    shared: usize,
    /// Tokens of context stored across the blocks.
    tokens: u64,
}

impl BlockTable {
    /// An empty table (no blocks, no tokens).
    pub fn new() -> Self {
        BlockTable::default()
    }

    /// The mapped blocks, shared prefix first.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Tokens of context currently stored.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Number of privately held (unshared) blocks — what an eviction
    /// actually frees, and what a swap actually moves.
    pub fn unshared_blocks(&self) -> u64 {
        (self.blocks.len() - self.shared) as u64
    }

    /// Maps the cached `prefix` blocks (retaining each) into an empty
    /// table; the table then stores `tokens` of context. Shared blocks
    /// are full by construction, so `tokens` must be
    /// `prefix.len() × block_tokens`.
    ///
    /// # Panics
    ///
    /// Panics if the table is not empty or `tokens` does not cover the
    /// mapped blocks exactly.
    pub fn map_prefix(&mut self, alloc: &mut BlockAllocator, prefix: &[BlockId], tokens: u64) {
        assert!(self.blocks.is_empty(), "prefix mapped into a live table");
        assert_eq!(
            tokens,
            prefix.len() as u64 * alloc.block_tokens(),
            "shared prefix blocks must be full"
        );
        for &b in prefix {
            alloc.retain(b);
        }
        self.blocks.extend_from_slice(prefix);
        self.shared = prefix.len();
        self.tokens = tokens;
    }

    /// Marks the table's first `blocks` entries as shared — used when a
    /// cold sequence's freshly prefilled prefix is registered in the
    /// cache (the cache retains them; this records that eviction must
    /// not move them).
    pub fn mark_shared(&mut self, blocks: usize) {
        debug_assert!(blocks <= self.blocks.len());
        self.shared = self.shared.max(blocks);
    }

    /// Grows the stored context to `tokens`, allocating blocks (with
    /// overcommit minting) as block boundaries are crossed. Shrinking
    /// is not a growth — use
    /// [`truncate_to_shared`](Self::truncate_to_shared) for eviction.
    pub fn grow_to(&mut self, alloc: &mut BlockAllocator, tokens: u64) {
        debug_assert!(tokens >= self.tokens, "grow_to cannot shrink a table");
        while (self.blocks.len() as u64) * alloc.block_tokens() < tokens {
            self.blocks.push(alloc.allocate_overcommit());
        }
        self.tokens = self.tokens.max(tokens);
    }

    /// Releases every private block (eviction: the KV leaves the device
    /// by swap or drop), keeping the shared prefix mapped — shared
    /// blocks stay device-resident, which is why paged swaps move (and
    /// host pools hold) only the unshared bytes.
    pub fn truncate_to_shared(&mut self, alloc: &mut BlockAllocator) {
        while self.blocks.len() > self.shared {
            let b = self.blocks.pop().expect("len > shared ≥ 0");
            alloc.release(b);
        }
        self.tokens = self.shared as u64 * alloc.block_tokens();
    }

    /// Releases every block (completion), keeping the block buffer.
    pub fn release_all(&mut self, alloc: &mut BlockAllocator) {
        for b in self.blocks.drain(..) {
            alloc.release(b);
        }
        self.shared = 0;
        self.tokens = 0;
    }

    /// Allocated-but-unused tokens: the slack in the partially filled
    /// private tail block. Shared blocks are full by construction and
    /// contribute none, so this is all mapped capacity minus the stored
    /// tokens whatever the sharing.
    pub fn slack_tokens(&self, block_tokens: u64) -> u64 {
        self.blocks.len() as u64 * block_tokens - self.tokens
    }
}

/// Stable hash of a request class's prompt prefix — the key under which
/// its shared blocks are cached. Two classes never collide on intent:
/// the class index is part of the identity (different classes model
/// different system prompts even at equal length).
pub fn prefix_key(class: usize, prefix_tokens: u64) -> u64 {
    // FNV-1a over the two identity words; any stable mix works.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [class as u64, prefix_tokens] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Prompt-prefix hash → the shared blocks holding that prefix's KV.
///
/// The cache holds its **own** reference on every cached block, so an
/// entry outlives the sequence that registered it; under block pressure
/// entries whose blocks have no other mapper are reclaimed in
/// deterministic (key) order.
#[derive(Debug, Clone, Default)]
pub struct PrefixCache {
    entries: BTreeMap<u64, PrefixEntry>,
}

/// One cached prefix: its (full) blocks and the tokens they hold.
#[derive(Debug, Clone)]
struct PrefixEntry {
    blocks: Vec<BlockId>,
    tokens: u64,
}

impl PrefixCache {
    /// An empty cache.
    pub fn new() -> Self {
        PrefixCache::default()
    }

    /// Number of cached prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached blocks and tokens under `key`, capped at `max_tokens`
    /// (a request maps at most the whole-block prefix of its own
    /// prompt): returns the mappable `(blocks, tokens)`.
    pub fn lookup(
        &self,
        alloc: &BlockAllocator,
        key: u64,
        max_tokens: u64,
    ) -> Option<(&[BlockId], u64)> {
        let entry = self.entries.get(&key)?;
        let cap = (max_tokens / alloc.block_tokens()) as usize;
        let blocks = entry.blocks.len().min(cap);
        (blocks > 0).then(|| {
            let tokens = entry.tokens.min(blocks as u64 * alloc.block_tokens());
            (&entry.blocks[..blocks], tokens)
        })
    }

    /// Registers `blocks` (holding `tokens` of prefix KV) under `key`,
    /// retaining each for the cache's own reference. No-op when the key
    /// is already cached; returns whether the entry was inserted.
    pub fn insert(
        &mut self,
        alloc: &mut BlockAllocator,
        key: u64,
        blocks: &[BlockId],
        tokens: u64,
    ) -> bool {
        if blocks.is_empty() || self.entries.contains_key(&key) {
            return false;
        }
        for &b in blocks {
            alloc.retain(b);
        }
        self.entries.insert(
            key,
            PrefixEntry {
                blocks: blocks.to_vec(),
                tokens,
            },
        );
        true
    }

    /// Reclaims idle entries — those whose every block is held only by
    /// the cache (refcount 1) — in key order until the free list holds
    /// at least `need` blocks or nothing idle remains. Entries still
    /// mapped by any sequence are never touched: eviction cannot free a
    /// block with other references.
    pub fn reclaim(&mut self, alloc: &mut BlockAllocator, need: u64) {
        if alloc.free_blocks() >= need {
            return;
        }
        let idle: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.blocks.iter().all(|&b| alloc.ref_count(b) == 1))
            .map(|(&k, _)| k)
            .collect();
        for key in idle {
            if alloc.free_blocks() >= need {
                break;
            }
            let entry = self.entries.remove(&key).expect("key came from entries");
            for b in entry.blocks {
                alloc.release(b);
            }
        }
    }

    /// Removes the entry under `key` (if cached), releasing the cache's
    /// reference on each of its blocks — the eager drop a workflow
    /// parent's prefix gets once its last consumer has admitted or been
    /// cancelled. Blocks still mapped by live sequences survive (their
    /// refcounts stay above zero); only the cache's hold is released.
    /// Returns whether an entry was removed.
    pub fn remove(&mut self, alloc: &mut BlockAllocator, key: u64) -> bool {
        let Some(entry) = self.entries.remove(&key) else {
            return false;
        };
        for b in entry.blocks {
            alloc.release(b);
        }
        true
    }

    /// Releases every cached reference (end of run).
    pub fn flush(&mut self, alloc: &mut BlockAllocator) {
        for (_, entry) in std::mem::take(&mut self.entries) {
            for b in entry.blocks {
                alloc.release(b);
            }
        }
    }
}

/// Slot of one live sequence's block table in a [`PagedKv`] slab:
/// handed out by [`PagedKv::admit`], carried by the sequence, and
/// reused once [`PagedKv::complete`] frees it.
pub type KvSlot = u32;

/// One replica's paged KV state: the allocator, the prefix cache, and
/// the per-sequence block tables. This is the engine-facing bundle —
/// every mutation the iteration loop needs is one call here.
#[derive(Debug, Clone)]
pub struct PagedKv {
    alloc: BlockAllocator,
    cache: PrefixCache,
    /// Block tables in a slab indexed by [`KvSlot`]: read once per
    /// resident sequence per turn, so a lookup is one index, with no
    /// hashing.
    tables: Vec<Slot>,
    /// Vacant slots, reused last-freed first, so the slab never grows
    /// past the peak number of live tables.
    vacant: Vec<KvSlot>,
    /// Running allocated-but-unused tokens over every live table, kept
    /// by every call that changes a table's blocks or tokens and by
    /// [`fill_tails`](Self::fill_tails): the sum of the tables'
    /// [`slack_tokens`](BlockTable::slack_tokens) minus `lag`.
    slack: u64,
    /// Tokens [`fill_tails`](Self::fill_tails) stored that no table
    /// records yet; [`settle`](Self::settle) hands them to their tables.
    lag: u64,
}

impl PagedKv {
    /// Paged KV state over `total_blocks` blocks of `block_tokens`
    /// tokens.
    pub fn new(total_blocks: u64, block_tokens: u64) -> Self {
        PagedKv {
            alloc: BlockAllocator::new(total_blocks, block_tokens),
            cache: PrefixCache::new(),
            tables: Vec::new(),
            vacant: Vec::new(),
            slack: 0,
            lag: 0,
        }
    }

    /// The underlying allocator (read-only; the tables own mutation).
    pub fn allocator(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.alloc.block_tokens()
    }

    /// Blocks on the free list.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u64 {
        self.alloc.used_blocks()
    }

    /// The device block budget.
    pub fn total_blocks(&self) -> u64 {
        self.alloc.total_blocks()
    }

    /// Blocks needed for `tokens` of context.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        self.alloc.blocks_for(tokens)
    }

    /// The live table in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant.
    fn table(&self, slot: KvSlot) -> &BlockTable {
        let Slot { table, live } = &self.tables[slot as usize];
        assert!(live, "KV slot holds no live table");
        table
    }

    /// Blocks the sequence in `slot` currently maps.
    pub fn blocks_of(&self, slot: KvSlot) -> u64 {
        self.table(slot).blocks.len() as u64
    }

    /// Blocks the sequence in `slot` must add to hold `tokens` of
    /// context: `blocks_for(tokens) − blocks_of(slot)`, floored at 0.
    /// Divides only when the table actually grows.
    pub fn growth(&self, slot: KvSlot, tokens: u64) -> u64 {
        let held = self.table(slot).blocks.len() as u64;
        if tokens <= held * self.alloc.block_tokens() {
            0
        } else {
            self.alloc.blocks_for(tokens) - held
        }
    }

    /// Tokens of context the table in `slot` records (behind the
    /// sequence's true context until [`settle`](Self::settle)d, when
    /// [`fill_tails`](Self::fill_tails) stored some of its tokens).
    pub(crate) fn tokens_of(&self, slot: KvSlot) -> u64 {
        self.table(slot).tokens
    }

    /// Private (unshared) blocks the sequence in `slot` currently maps —
    /// what its eviction would free.
    pub fn unshared_blocks_of(&self, slot: KvSlot) -> u64 {
        self.table(slot).unshared_blocks()
    }

    /// Tokens the cached prefix under `key` could map for a prompt of
    /// `max_tokens` (0 = cold).
    pub fn prefix_hit_tokens(&self, key: u64, max_tokens: u64) -> u64 {
        self.cache
            .lookup(&self.alloc, key, max_tokens)
            .map_or(0, |(_, tokens)| tokens)
    }

    /// Admits a sequence: creates its table in a free slot and, when
    /// `key` names a cached prefix, maps up to `max_tokens` of shared
    /// blocks. Returns the slot and the shared tokens mapped (0 = cold
    /// admission).
    pub fn admit(&mut self, key: Option<u64>, max_tokens: u64) -> (KvSlot, u64) {
        let slot = self.vacant.pop().unwrap_or_else(|| {
            self.tables.push(Slot::default());
            KvSlot::try_from(self.tables.len() - 1).expect("KV slot space exhausted")
        });
        let Slot { table, live } = &mut self.tables[slot as usize];
        debug_assert!(table.blocks.is_empty() && table.tokens == 0 && table.shared == 0);
        *live = true;
        let mut shared = 0;
        if let Some(key) = key {
            if let Some((blocks, tokens)) = self.cache.lookup(&self.alloc, key, max_tokens) {
                table.map_prefix(&mut self.alloc, blocks, tokens);
                shared = tokens;
            }
        }
        (slot, shared)
    }

    /// Grows the stored context of the sequence in `slot` to `tokens`
    /// (prefill-chunk or decode-step advance, or a swap-in restoring its
    /// private blocks), allocating at block boundaries.
    pub fn grow(&mut self, slot: KvSlot, tokens: u64) {
        self.grow_capacity(slot, tokens);
    }

    /// [`grow`](Self::grow)s the sequence in `slot` to `tokens` and
    /// returns [`growth`](Self::growth)`(slot, tokens + 1)`: the blocks
    /// its next token will need (one at a block boundary, else none).
    pub fn grow_next(&mut self, slot: KvSlot, tokens: u64) -> u64 {
        u64::from(tokens >= self.grow_capacity(slot, tokens))
    }

    /// Grows like [`grow`](Self::grow) and returns the table's token
    /// capacity afterwards. Growth that fits the mapped blocks (every
    /// decode step but one per block) only moves the token count and
    /// the slack.
    fn grow_capacity(&mut self, slot: KvSlot, tokens: u64) -> u64 {
        let block_tokens = self.alloc.block_tokens();
        let table = live(&mut self.tables, slot);
        let capacity = table.blocks.len() as u64 * block_tokens;
        if tokens <= capacity {
            if tokens > table.tokens {
                self.slack -= tokens - table.tokens;
                table.tokens = tokens;
            }
            return capacity;
        }
        self.slack -= table.slack_tokens(block_tokens);
        table.grow_to(&mut self.alloc, tokens);
        self.slack += table.slack_tokens(block_tokens);
        table.blocks.len() as u64 * block_tokens
    }

    /// Stores `tokens` more tokens of context in the tail blocks of
    /// tables the caller does not name: one decode step of sequences
    /// whose tables hold the step's token without a new block. Only the
    /// running slack moves; each such table records its tokens when
    /// [`settle`](Self::settle)d, which must happen before the table is
    /// next grown, evicted or completed.
    pub(crate) fn fill_tails(&mut self, tokens: u64) {
        self.slack -= tokens;
        self.lag += tokens;
    }

    /// Tokens [`fill_tails`](Self::fill_tails) stored that no table
    /// records yet.
    pub(crate) fn lag(&self) -> u64 {
        self.lag
    }

    /// Records `tokens` of context in the table in `slot`, whose missing
    /// tokens [`fill_tails`](Self::fill_tails) already stored: the slack
    /// is unchanged.
    pub(crate) fn settle(&mut self, slot: KvSlot, tokens: u64) {
        let table = live(&mut self.tables, slot);
        debug_assert!(
            table.tokens <= tokens
                && tokens <= table.blocks.len() as u64 * self.alloc.block_tokens()
        );
        self.lag -= tokens - table.tokens;
        table.tokens = tokens;
    }

    /// Takes token `tokens` of the sequence in `slot` into a new block:
    /// its table's blocks hold exactly `tokens − 1` tokens, some of them
    /// stored by [`fill_tails`](Self::fill_tails), which the table
    /// records first. Like [`grow`](Self::grow) across one block
    /// boundary, in one slab access.
    pub(crate) fn open_block(&mut self, slot: KvSlot, tokens: u64) {
        let block_tokens = self.alloc.block_tokens();
        let table = live(&mut self.tables, slot);
        debug_assert_eq!(table.blocks.len() as u64 * block_tokens, tokens - 1);
        self.lag -= tokens - 1 - table.tokens;
        table.blocks.push(self.alloc.allocate_overcommit());
        table.tokens = tokens;
        self.slack += block_tokens - 1;
    }

    /// Registers the first `prefix_tokens` of context of the sequence in
    /// `slot` as the cached prefix under `key`, if absent. The
    /// registering sequence's own leading blocks become shared (its
    /// later eviction moves only the suffix). Returns the shared tokens
    /// now marked on the sequence, or `None` when the key was already
    /// cached (or the prefix spans no full block).
    pub fn register_prefix(&mut self, slot: KvSlot, key: u64, prefix_tokens: u64) -> Option<u64> {
        let block_tokens = self.alloc.block_tokens();
        let blocks = (prefix_tokens / block_tokens) as usize;
        let table = live(&mut self.tables, slot);
        debug_assert!(table.tokens() >= blocks as u64 * block_tokens);
        let prefix = &table.blocks()[..blocks];
        let tokens = blocks as u64 * block_tokens;
        if !self.cache.insert(&mut self.alloc, key, prefix, tokens) {
            return None;
        }
        table.mark_shared(blocks);
        Some(tokens)
    }

    /// Frees the private blocks of the sequence in `slot` (eviction by
    /// swap or recompute — either way only unshared blocks leave the
    /// device). The slot stays live.
    pub fn drop_unshared(&mut self, slot: KvSlot) {
        let block_tokens = self.alloc.block_tokens();
        let table = live(&mut self.tables, slot);
        self.slack -= table.slack_tokens(block_tokens);
        table.truncate_to_shared(&mut self.alloc);
    }

    /// Releases the blocks of the sequence in `slot` and frees the slot
    /// (completion). The emptied table stays in the slot, so the next
    /// admission there reuses its block buffer.
    pub fn complete(&mut self, slot: KvSlot) {
        let table = live(&mut self.tables, slot);
        self.slack -= table.slack_tokens(self.alloc.block_tokens());
        table.release_all(&mut self.alloc);
        self.tables[slot as usize].live = false;
        self.vacant.push(slot);
    }

    /// Reclaims idle prefix-cache entries until `need` blocks are free
    /// (or nothing idle remains).
    pub fn reclaim(&mut self, need: u64) {
        self.cache.reclaim(&mut self.alloc, need);
    }

    /// Eagerly drops the cached prefix under `key` (no-op when absent),
    /// releasing the cache's block references; blocks other sequences
    /// still map stay allocated. Returns whether an entry was dropped.
    pub fn drop_prefix(&mut self, key: u64) -> bool {
        self.cache.remove(&mut self.alloc, key)
    }

    /// The allocated-but-unused fraction of all allocated blocks right
    /// now: each live sequence's partially filled private tail, over
    /// every allocated block (shared and cache-held blocks are full, so
    /// they only grow the denominator). 0 when nothing is allocated.
    /// O(1): the slack is a running counter.
    pub fn fragmentation(&self) -> f64 {
        debug_assert_eq!(
            self.slack + self.lag,
            self.tables
                .iter()
                .map(|s| s.table.slack_tokens(self.alloc.block_tokens()))
                .sum::<u64>(),
            "running KV slack drifted from its tables"
        );
        let allocated = self.alloc.used_blocks() * self.alloc.block_tokens();
        if allocated == 0 {
            return 0.0;
        }
        self.slack as f64 / allocated as f64
    }

    /// Occupied fraction of the device block budget if `extra` more
    /// blocks were allocated — the paged analogue of the contiguous
    /// gate's projected occupancy (may exceed 1 under tolerated
    /// overcommit).
    pub fn occupancy_plus(&self, extra: u64) -> f64 {
        (self.alloc.used_blocks() + extra) as f64 / self.alloc.total_blocks().max(1) as f64
    }

    /// End-of-run teardown: flushes the cache and asserts nothing
    /// leaked — every admitted sequence completed and released its
    /// blocks, so the allocator must be fully free again (the
    /// conservation invariant of the run as a whole).
    pub fn finish(&mut self) {
        assert!(
            self.tables.iter().all(|s| !s.live),
            "sequences still hold KV tables at end of run"
        );
        assert_eq!(self.lag, 0, "filled tail tokens never settled");
        self.cache.flush(&mut self.alloc);
        assert_eq!(self.alloc.used_blocks(), 0, "leaked KV blocks");
    }
}

/// One slot of a [`PagedKv`] slab. A vacant slot keeps its emptied
/// table, whose block buffer the next admission there reuses.
#[derive(Debug, Clone, Default)]
struct Slot {
    table: BlockTable,
    /// Whether a live sequence holds the slot.
    live: bool,
}

/// The live table in `slot` of a [`PagedKv`] slab, borrowed apart from
/// the allocator it mutates.
///
/// # Panics
///
/// Panics if `slot` is vacant.
fn live(tables: &mut [Slot], slot: KvSlot) -> &mut BlockTable {
    let Slot { table, live } = &mut tables[slot as usize];
    assert!(*live, "KV slot holds no live table");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_release_roundtrip_conserves_blocks() {
        let mut a = BlockAllocator::new(4, 16);
        assert_eq!(a.free_blocks() + a.used_blocks(), 4);
        let b0 = a.allocate().unwrap();
        let b1 = a.allocate().unwrap();
        assert_ne!(b0, b1);
        assert_eq!(a.free_blocks() + a.used_blocks(), 4);
        assert!(a.release(b0));
        assert_eq!(a.free_blocks(), 3);
        // Exhaustion returns None; overcommit mints beyond the budget.
        while a.allocate().is_some() {}
        assert_eq!(a.free_blocks(), 0);
        let minted = a.allocate_overcommit();
        assert!(u64::from(minted) >= a.total_blocks());
        assert!(a.used_blocks() > a.total_blocks());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BlockAllocator::new(2, 16);
        let b = a.allocate().unwrap();
        a.release(b);
        a.release(b);
    }

    #[test]
    #[should_panic(expected = "retain of free")]
    fn retain_of_free_block_panics() {
        let mut a = BlockAllocator::new(2, 16);
        a.retain(0);
    }

    #[test]
    fn shared_release_decrements_without_freeing() {
        let mut a = BlockAllocator::new(2, 16);
        let b = a.allocate().unwrap();
        a.retain(b);
        assert_eq!(a.ref_count(b), 2);
        assert!(!a.release(b), "one reference remains");
        assert_eq!(a.used_blocks(), 1);
        assert!(a.release(b), "last reference frees");
        assert_eq!(a.used_blocks(), 0);
    }

    #[test]
    fn cache_reclaims_only_idle_entries() {
        let mut alloc = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new();
        let mut owner = BlockTable::new();
        owner.grow_to(&mut alloc, 32);
        cache.insert(&mut alloc, 7, owner.blocks(), 32);
        // Mapped by `owner` too: reclaim must not touch it.
        cache.reclaim(&mut alloc, 4);
        assert_eq!(cache.len(), 1);
        owner.release_all(&mut alloc);
        // Now idle (cache-only): reclaimable.
        cache.reclaim(&mut alloc, 4);
        assert!(cache.is_empty());
        assert_eq!(alloc.free_blocks(), 4);
    }

    #[test]
    fn paged_kv_cold_then_hit_lifecycle() {
        let mut p = PagedKv::new(16, 16);
        let key = prefix_key(0, 32);
        // Cold admission: no cache entry yet.
        let (a, shared) = p.admit(Some(key), 47);
        assert_eq!(shared, 0);
        p.grow(a, 48); // prefilled prompt: 3 blocks, last one full at 48
        assert_eq!(p.register_prefix(a, key, 32), Some(32));
        // A second request of the class maps the two full prefix blocks.
        let (b, shared) = p.admit(Some(key), 47);
        assert_eq!(shared, 32);
        assert_eq!(p.blocks_of(b), 2);
        assert_eq!(p.growth(b, 32), 0, "no growth within held blocks");
        assert_eq!(p.growth(b, 33), 1);
        p.grow(b, 48);
        assert_eq!(p.unshared_blocks_of(b), 1);
        // Evicting b frees only its private tail block.
        let free_before = p.free_blocks();
        p.drop_unshared(b);
        assert_eq!(p.free_blocks(), free_before + 1);
        p.complete(a);
        p.grow(b, 48);
        p.complete(b);
        p.finish();
    }

    #[test]
    fn fragmentation_measures_partial_tail_blocks() {
        let mut p = PagedKv::new(16, 16);
        let (slot, _) = p.admit(None, 0);
        p.grow(slot, 24); // 2 blocks, 8 tokens slack
        assert!((p.fragmentation() - 8.0 / 32.0).abs() < 1e-12);
        p.grow(slot, 32); // tail fills: no slack
        assert_eq!(p.fragmentation(), 0.0);
        p.complete(slot);
        p.finish();
    }

    #[test]
    #[should_panic(expected = "still hold KV tables")]
    fn finish_with_a_live_table_panics() {
        let mut p = PagedKv::new(16, 16);
        p.admit(None, 0);
        p.finish();
    }

    /// Checks the running slack against a from-scratch sum over the
    /// live tables, through `fragmentation()`.
    fn assert_slack_matches_tables(p: &PagedKv) {
        let bt = p.block_tokens();
        let slack: u64 = p.tables.iter().map(|s| s.table.slack_tokens(bt)).sum();
        let allocated = p.used_blocks() * bt;
        let expected = if allocated == 0 {
            0.0
        } else {
            (slack - p.lag) as f64 / allocated as f64
        };
        assert_eq!(p.slack + p.lag, slack);
        assert_eq!(p.fragmentation(), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random admit (cold and prefix-hit) / grow / register /
        /// evict / complete / complete-then-admit / fill-then-settle
        /// sequences keep the running slack equal to the sum over the
        /// tables (less the unsettled tail tokens) after every step,
        /// `growth` equal to the block arithmetic it replaces (and to
        /// what `grow_next` reports), and the slab no larger than the
        /// peak number of live tables.
        #[test]
        fn running_slack_tracks_tables(
            ops in prop::collection::vec((0u8..8, 0u64..64, 1u64..80), 1..80),
        ) {
            let mut p = PagedKv::new(16, 16);
            let mut live: Vec<KvSlot> = Vec::new();
            let mut peak = 0;
            for (op, pick, n) in ops {
                let key = prefix_key((pick % 2) as usize, 0);
                let admit = |p: &mut PagedKv, live: &mut Vec<KvSlot>, keyed: bool| {
                    // Cold (no key) or keyed admission, which maps the
                    // cached prefix when one is registered.
                    let (slot, shared) = p.admit(keyed.then_some(key), n);
                    assert!(!live.contains(&slot), "slot {slot} handed out twice");
                    // A reused slot starts empty: it holds the mapped
                    // prefix, if any, and nothing else.
                    let table = p.table(slot);
                    let mapped = table.blocks().len() as u64 * p.block_tokens();
                    assert_eq!((table.tokens(), mapped), (shared, shared));
                    assert_eq!(table.unshared_blocks(), 0);
                    p.grow(slot, shared.max(n / 2));
                    live.push(slot);
                    slot
                };
                match op {
                    0 | 1 => {
                        admit(&mut p, &mut live, op == 1);
                    }
                    _ if live.is_empty() => {}
                    2 => {
                        let slot = live[pick as usize % live.len()];
                        let tokens = p.table(slot).tokens() + n;
                        let expected = p.blocks_for(tokens).saturating_sub(p.blocks_of(slot));
                        assert_eq!(p.growth(slot, tokens), expected);
                        assert_eq!(p.growth(slot, p.table(slot).tokens()), 0);
                        if pick % 2 == 0 {
                            p.grow(slot, tokens);
                        } else {
                            let next = p.grow_next(slot, tokens);
                            assert_eq!(next, p.growth(slot, tokens + 1));
                        }
                        assert_eq!(p.growth(slot, tokens), 0);
                    }
                    3 => {
                        let slot = live[pick as usize % live.len()];
                        p.register_prefix(slot, key, n.min(p.table(slot).tokens()));
                    }
                    4 => p.drop_unshared(live[pick as usize % live.len()]),
                    5 => p.complete(live.swap_remove(pick as usize % live.len())),
                    7 => {
                        // Tail tokens stored in aggregate, then recorded
                        // by the table — or, once they fill its blocks,
                        // by the next token opening a block — as a
                        // steadily decoding sequence's would be.
                        let slot = live[pick as usize % live.len()];
                        let tokens = p.tokens_of(slot);
                        let room = p.blocks_of(slot) * p.block_tokens() - tokens;
                        let filled = n.min(room);
                        p.fill_tails(filled);
                        assert_slack_matches_tables(&p);
                        if filled == room && pick % 2 == 0 {
                            assert_eq!(p.growth(slot, tokens + filled + 1), 1);
                            p.open_block(slot, tokens + filled + 1);
                        } else {
                            p.settle(slot, tokens + filled);
                        }
                        assert_eq!(p.growth(slot, p.tokens_of(slot)), 0);
                    }
                    _ => {
                        // Complete then admit: the freed slot is reused.
                        let freed = live.swap_remove(pick as usize % live.len());
                        p.complete(freed);
                        assert_eq!(admit(&mut p, &mut live, pick % 2 == 0), freed);
                    }
                }
                peak = peak.max(live.len());
                assert!(p.tables.len() <= peak, "slab outgrew the live tables");
                assert_slack_matches_tables(&p);
            }
            for slot in live {
                p.complete(slot);
                assert_slack_matches_tables(&p);
            }
            p.finish();
        }
    }

    #[test]
    fn prefix_keys_are_distinct_per_class() {
        assert_ne!(prefix_key(0, 384), prefix_key(1, 384));
        assert_ne!(prefix_key(0, 384), prefix_key(0, 256));
        assert_eq!(prefix_key(3, 128), prefix_key(3, 128));
    }
}
