//! Decoded basic-block cache: decode each instruction once, replay forever.
//!
//! The cycle-level core wrappers fetch the same instruction bits every time
//! the pc revisits an address, and re-decoding them dominates the host cost
//! of tight guest loops. A [`BlockCache`] remembers runs of pre-decoded
//! instructions ([`DecodedOp`]) keyed by the **physical pc of the run's
//! first instruction**, terminated at block boundaries
//! ([`DecodedOp::ends_block`]: branches, jumps, system ops, fences) or at
//! [`MAX_BLOCK_OPS`].
//!
//! Blocks are built from the execution trace itself: the first walk through
//! a run of sequential pcs records `(raw bits, decoded op)` pairs, and the
//! block is sealed when the run ends. Later visits dispatch straight-line
//! from the cached block via an internal cursor, so a hit is an array index
//! plus one raw-bits comparison — no re-decode.
//!
//! # Correctness
//!
//! A cached op is replayed only when the raw bits the wrapper fetched this
//! cycle equal the bits the op was decoded from (checked on every hit), so
//! a stale entry can never execute. On top of that belt-and-braces check,
//! callers invalidate eagerly:
//!
//! - **Self-modifying stores** — [`BlockCache::invalidate_range`] for the
//!   stored bytes (a page-level index makes the no-code-on-this-page case
//!   a single hash probe);
//! - **`fence.i`** and **instruction-cache refills** that may change the
//!   pc→bits mapping — [`BlockCache::invalidate_range`] /
//!   [`BlockCache::invalidate_all`];
//! - **Snapshot restore** — the cache is *derived* state: it is never
//!   serialized, and wrappers call [`BlockCache::invalidate_all`] on
//!   restore so blocks are rebuilt from the restored machine.
//!
//! The cache changes no architectural behavior: every fetch still goes
//! through the wrapper's timing model (instruction-cache lookups, misses,
//! stalls), and [`Hart::execute_decoded`] on a cached op is the same
//! function the plain interpreter runs. Only host-side decode work is
//! saved, so fast and reference paths stay bit-identical.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::hart::{DecodedOp, Hart};

/// Longest run of instructions a single block may hold.
pub const MAX_BLOCK_OPS: usize = 64;

/// Page granule of the invalidation index (one probe answers "does this
/// store touch any cached code?").
const PAGE: u64 = 4096;

/// Blocks held before the cache wholesale-resets to bound memory.
const MAX_BLOCKS: usize = 1 << 16;

/// Hasher for the cache's `u64` address keys: one multiply by a 64-bit
/// odd constant, folded so the well-mixed high half reaches the low bits
/// that pick a bucket (pcs are multiples of 4). Keys are pcs and page
/// numbers, which need no DoS resistance, so SipHash buys nothing here.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// One sealed block: the pc of its first instruction and its
/// `(raw bits, decoded op)` run. A freed arena slot holds no ops.
#[derive(Debug)]
struct Block {
    base: u64,
    ops: Box<[(u32, DecodedOp)]>,
}

/// A trace-built cache of decoded basic blocks (see the module docs).
///
/// Blocks live in an arena and are addressed by slot. The pc → slot map
/// is consulted only on block entry; straight-line dispatch follows the
/// cursor, which names its block by slot, so a hit never hashes.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// Sealed blocks by slot; freed slots are recycled through `free`.
    arena: Vec<Block>,
    free: Vec<usize>,
    /// `pc → slot` of the block starting at that pc.
    index: AddrMap<usize>,
    /// `page → bases of blocks overlapping that page`; the store-side
    /// invalidation filter.
    page_index: AddrMap<Vec<u64>>,
    /// The block currently being recorded from the execution trace.
    building: Option<(u64, Vec<(u32, DecodedOp)>)>,
    /// Straight-line dispatch position: `(slot, next op index)`. Always
    /// names a live block: every path that frees a slot clears it first.
    cursor: Option<(usize, usize)>,
    hits: u64,
    misses: u64,
    built: u64,
    invalidated: u64,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the decoded form of `instr` at `pc`, from cache when a
    /// current block covers `pc` with the same raw bits, otherwise by
    /// decoding now (and growing a block from the trace).
    pub fn lookup(&mut self, pc: u64, instr: u32) -> DecodedOp {
        if let Some((slot, idx)) = self.cursor {
            let b = &self.arena[slot];
            if b.base + 4 * idx as u64 == pc {
                let (raw, d) = b.ops[idx];
                if raw == instr {
                    self.hits += 1;
                    self.cursor = (idx + 1 < b.ops.len()).then_some((slot, idx + 1));
                    return d;
                }
                // Stale bits that escaped eager invalidation: the raw
                // comparison catches them; drop the whole block.
                let base = b.base;
                self.remove_block(base);
            }
        }
        self.cursor = None;
        if let Some(&slot) = self.index.get(&pc) {
            let b = &self.arena[slot];
            let (raw, d) = b.ops[0];
            if raw == instr {
                self.hits += 1;
                self.cursor = (b.ops.len() > 1).then_some((slot, 1));
                return d;
            }
            self.remove_block(pc);
        }
        self.misses += 1;
        let d = Hart::decode(instr);
        self.record(pc, instr, d);
        d
    }

    /// Appends `(pc, instr, d)` to the block under construction, starting or
    /// sealing blocks as the trace dictates.
    fn record(&mut self, pc: u64, instr: u32, d: DecodedOp) {
        match &mut self.building {
            Some((base, ops)) if *base + 4 * ops.len() as u64 == pc => ops.push((instr, d)),
            _ => {
                // Control arrived from elsewhere: the interrupted prefix is
                // still a valid run, keep it.
                self.seal();
                self.building = Some((pc, vec![(instr, d)]));
            }
        }
        let len = self.building.as_ref().map_or(0, |(_, ops)| ops.len());
        if d.ends_block() || len >= MAX_BLOCK_OPS {
            self.seal();
        }
    }

    /// Moves the block under construction into the cache. Runs only from
    /// the miss path of [`BlockCache::lookup`], after the cursor was
    /// cleared, so replacing or resetting blocks here strands no cursor.
    fn seal(&mut self) {
        debug_assert!(self.cursor.is_none(), "seal runs only with the cursor cleared");
        let Some((base, ops)) = self.building.take() else { return };
        if self.index.len() >= MAX_BLOCKS {
            self.invalidate_all();
        }
        let end = base + 4 * ops.len() as u64;
        for page in (base / PAGE)..=((end - 1) / PAGE) {
            let v = self.page_index.entry(page).or_default();
            if !v.contains(&base) {
                v.push(base);
            }
        }
        let block = Block { base, ops: ops.into_boxed_slice() };
        if let Some(&slot) = self.index.get(&base) {
            // A re-recorded run from the same entry pc replaces its block.
            self.arena[slot] = block;
        } else {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.arena[slot] = block;
                    slot
                }
                None => {
                    self.arena.push(block);
                    self.arena.len() - 1
                }
            };
            self.index.insert(base, slot);
        }
        self.built += 1;
    }

    fn remove_block(&mut self, base: u64) {
        let Some(slot) = self.index.remove(&base) else { return };
        let ops = std::mem::take(&mut self.arena[slot].ops);
        self.free.push(slot);
        if self.cursor.is_some_and(|(s, _)| s == slot) {
            self.cursor = None;
        }
        let end = base + 4 * ops.len() as u64;
        for page in (base / PAGE)..=((end - 1) / PAGE) {
            if let Some(v) = self.page_index.get_mut(&page) {
                v.retain(|&x| x != base);
                if v.is_empty() {
                    self.page_index.remove(&page);
                }
            }
        }
        self.invalidated += 1;
    }

    /// Drops every block overlapping `[addr, addr + len)` — the hook for
    /// self-modifying stores and instruction-cache refills. When no cached
    /// code touches the affected pages this is one hash probe per page.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        let end = addr.saturating_add(len.max(1));
        if let Some((base, ops)) = &self.building {
            let bend = base + 4 * ops.len() as u64;
            if *base < end && addr < bend {
                self.building = None;
            }
        }
        let mut victims: Vec<u64> = Vec::new();
        for page in (addr / PAGE)..=((end - 1) / PAGE) {
            let Some(bases) = self.page_index.get(&page) else { continue };
            for &base in bases {
                let blen = self.index.get(&base).map_or(0, |&s| self.arena[s].ops.len());
                let bend = base + 4 * blen as u64;
                if base < end && addr < bend && !victims.contains(&base) {
                    victims.push(base);
                }
            }
        }
        for base in victims {
            self.remove_block(base);
        }
    }

    /// Drops everything — `fence.i` and snapshot restore.
    pub fn invalidate_all(&mut self) {
        self.invalidated += self.index.len() as u64;
        self.arena.clear();
        self.free.clear();
        self.index.clear();
        self.page_index.clear();
        self.building = None;
        self.cursor = None;
    }

    /// Cached-dispatch hits (an op replayed without re-decoding).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell back to a fresh decode.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks sealed over the cache's lifetime.
    pub fn built(&self) -> u64 {
        self.built
    }

    /// Blocks dropped by invalidation (any cause).
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Sealed blocks currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// addi x1, x1, 1 — a straight-line op.
    const ADDI: u32 = 0x0010_8093;
    /// jal x0, 0 — ends a block.
    const JAL: u32 = 0x0000_006F;

    #[test]
    fn trace_builds_blocks_and_replays_them() {
        let mut c = BlockCache::new();
        // First walk: all misses, builds a 3-op block sealed by the jump.
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            let d = c.lookup(0x1000 + 4 * i as u64, instr);
            assert_eq!(d, Hart::decode(instr));
        }
        assert_eq!((c.hits(), c.misses(), c.built()), (0, 3, 1));
        // Second walk: straight-line hits from the cursor.
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            let d = c.lookup(0x1000 + 4 * i as u64, instr);
            assert_eq!(d, Hart::decode(instr));
        }
        assert_eq!((c.hits(), c.misses(), c.built()), (3, 3, 1));
    }

    #[test]
    fn changed_bits_never_replay_stale_ops() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        // Same pc, different bits (self-modified without invalidation):
        // the raw comparison rejects the cached op.
        let d = c.lookup(0x1000, JAL);
        assert_eq!(d, Hart::decode(JAL));
        assert_eq!(c.hits(), 0, "stale block must not hit");
        assert_eq!((c.hits(), c.misses(), c.built(), c.invalidated()), (0, 4, 2, 1));
    }

    #[test]
    fn range_invalidation_targets_overlapping_blocks_only() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        for (i, &instr) in [ADDI, JAL].iter().enumerate() {
            c.lookup(0x9000 + 4 * i as u64, instr);
        }
        assert_eq!(c.len(), 2);
        c.invalidate_range(0x1004, 4);
        assert_eq!(c.len(), 1, "only the overlapped block goes");
        c.invalidate_range(0x5000, 8); // no code there: no-op
        assert_eq!(c.len(), 1);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!((c.hits(), c.misses(), c.built(), c.invalidated()), (0, 5, 2, 2));
    }

    #[test]
    fn mid_block_entry_builds_an_overlapping_block() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        // Jump into the middle: miss, then a new block from 0x1004.
        let d = c.lookup(0x1004, ADDI);
        assert_eq!(d, Hart::decode(ADDI));
        c.lookup(0x1008, JAL);
        assert_eq!(c.len(), 2);
        // Both entry points now hit.
        c.lookup(0x1000, ADDI);
        c.lookup(0x1004, ADDI);
        assert_eq!((c.hits(), c.misses(), c.built()), (2, 5, 2));
    }

    /// Builds the 3-op block at 0x1000 and re-enters it, leaving the
    /// cursor on its second op.
    fn cursor_mid_block() -> BlockCache {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        assert_eq!(c.lookup(0x1000, ADDI), Hart::decode(ADDI));
        assert_eq!((c.hits(), c.misses()), (1, 3));
        c
    }

    /// The op after the cursor, looked up once its block is gone, must be
    /// a fresh decode: no hit, one more miss.
    fn assert_decodes_afresh(c: &mut BlockCache, pc: u64, instr: u32) {
        let (hits, misses) = (c.hits(), c.misses());
        assert_eq!(c.lookup(pc, instr), Hart::decode(instr));
        assert_eq!((c.hits(), c.misses()), (hits, misses + 1), "replayed a dropped block");
    }

    #[test]
    fn range_invalidation_under_the_cursor_drops_it() {
        let mut c = cursor_mid_block();
        c.invalidate_range(0x1004, 4);
        assert!(c.is_empty());
        assert_decodes_afresh(&mut c, 0x1004, ADDI);
    }

    #[test]
    fn invalidate_all_mid_block_drops_the_cursor() {
        let mut c = cursor_mid_block();
        c.invalidate_all();
        assert_decodes_afresh(&mut c, 0x1004, ADDI);
        assert_decodes_afresh(&mut c, 0x1008, JAL);
    }

    #[test]
    fn raw_bits_mismatch_at_the_cursor_drops_its_block() {
        let mut c = cursor_mid_block();
        // 0x1004 now holds a jump: the cursor's op is stale.
        assert_decodes_afresh(&mut c, 0x1004, JAL);
        assert_eq!(c.invalidated(), 1, "the whole block under the cursor goes");
        // Its entry point is gone too.
        assert_decodes_afresh(&mut c, 0x1000, ADDI);
    }

    #[test]
    fn wholesale_reset_in_seal_drops_the_cursor() {
        let mut c = BlockCache::new();
        for (i, &instr) in [ADDI, ADDI, JAL].iter().enumerate() {
            c.lookup(0x1000 + 4 * i as u64, instr);
        }
        // Fill the cache to its cap with one-op blocks elsewhere.
        for i in 0..(MAX_BLOCKS - 1) as u64 {
            c.lookup(0x10_0000 + 4 * i, JAL);
        }
        assert_eq!(c.len(), MAX_BLOCKS);
        // Enter the first block, then seal one more: the cap resets the
        // cache while the cursor sits mid-block.
        assert_eq!(c.lookup(0x1000, ADDI), Hart::decode(ADDI));
        let hits = c.hits();
        assert_eq!(c.lookup(0x4000_0000, JAL), Hart::decode(JAL));
        assert_eq!(c.len(), 1, "the reset keeps only the block just sealed");
        assert_eq!(c.hits(), hits);
        assert_decodes_afresh(&mut c, 0x1004, ADDI);
    }
}
