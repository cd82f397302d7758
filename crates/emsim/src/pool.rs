//! The block buffer pool: the machine's internal memory.
//!
//! The `BufferPool` owns `M/B` frames of `B` words in front of a
//! [`BlockDevice`]. It fills a missed frame from the device, writes a dirty
//! frame back on eviction (exactly once), and evicts in strict LRU order —
//! the policy the paper's cost model charges, following Frigo et al.
//!
//! It is the machine's only residency policy, on both data planes:
//! [`crate::BackendKind::InMemory`] puts it in front of an in-RAM device,
//! [`crate::BackendKind::Disk`] in front of a real [`crate::DiskStorage`]
//! file. The machine charges exactly the misses and write-backs the pool
//! reports, so charged counts are the same on both planes by construction,
//! and every charged transfer is one executed device transfer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::storage::BlockDevice;

const NIL: u32 = u32::MAX;

/// Hasher for the pool's block-key index. Keys are small structured
/// integers (segment id above bit 40, block index below), so one
/// multiply-and-fold spreads them well at a fraction of SipHash's cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The pool hashes `u64` keys only (`write_u64`); fold anything else
        // in byte by byte.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the high half down: the bucket index comes from the low bits,
        // and only the high bits of the product depend on the segment id.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Frame {
    key: u64,
    data: Vec<u64>,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Outcome of one [`BufferPool::access`]: what the pool had to do, so the
/// machine can charge the matching simulated transfers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolTouch {
    /// The access missed: a frame was admitted (and, unless the block was
    /// fresh, filled from the device with one real read).
    pub miss: bool,
    /// A dirty victim frame was written back to the device to make room
    /// (one real write).
    pub writeback: bool,
}

/// A fixed-capacity pool of block frames with strict-LRU eviction and dirty
/// write-back. See the module docs.
pub struct BufferPool {
    capacity: usize,
    block_words: usize,
    frames: Vec<Frame>,
    // emlint: allow(uncharged-std, reason = "frame index of the buffer pool, host bookkeeping below the charge boundary; one entry per resident block, capped at M/B")
    map: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    // The last-touched block and its frame (always the head): a repeat
    // access skips the hash lookup, the common case of a sequential scan.
    last_key: u64,
    last_frame: u32,
}

impl BufferPool {
    /// A pool of `capacity` frames (at least one) of `block_words` words.
    pub fn new(capacity: usize, block_words: usize) -> Self {
        assert!(block_words > 0, "a frame holds at least one word");
        let capacity = capacity.max(1);
        Self {
            capacity,
            block_words,
            // emlint: allow(unleased, reason = "the pool's M/B frames ARE the modelled internal memory, below the charge boundary; sized by capacity, not by input")
            frames: Vec::with_capacity(capacity),
            // emlint: allow(uncharged-std, reason = "frame index sized by the fixed frame count, host bookkeeping below the charge boundary")
            map: HashMap::with_capacity_and_hasher(capacity * 2, BuildHasherDefault::default()),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            last_key: u64::MAX,
            last_frame: NIL,
        }
    }

    /// Number of frames (the `M/B` of the machine that built the pool).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is resident.
    pub fn resident(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Touches block `key`, admitting it on a miss (evicting the
    /// least-recently-used frame if the pool is full, writing it to `dev`
    /// first when dirty). A missed frame is filled from `dev` unless `fresh`
    /// is set: a fresh append materialises a zeroed frame with no device
    /// read, as the model charges no read for appending to a new block.
    /// `write` marks the frame dirty.
    ///
    /// # Panics
    ///
    /// A non-fresh miss on a block the device has never seen panics in the
    /// device's `read_block`: a block is either resident or on the device,
    /// anything else is a caller bug.
    pub fn access(
        &mut self,
        key: u64,
        write: bool,
        fresh: bool,
        dev: &mut dyn BlockDevice,
    ) -> PoolTouch {
        if key == self.last_key && self.last_frame != NIL {
            if write {
                self.frames[self.last_frame as usize].dirty = true;
            }
            return PoolTouch::default();
        }

        if let Some(&idx) = self.map.get(&key) {
            if write {
                self.frames[idx as usize].dirty = true;
            }
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            self.last_key = key;
            self.last_frame = idx;
            return PoolTouch::default();
        }

        let mut touch = PoolTouch {
            miss: true,
            writeback: false,
        };
        let idx = if self.map.len() >= self.capacity {
            // Evict the least recently used frame, writing it back if dirty;
            // its buffer is reused for the admitted block.
            let victim = self.tail;
            let frame = &self.frames[victim as usize];
            let vkey = frame.key;
            if frame.dirty {
                touch.writeback = true;
                dev.write_block(vkey, &frame.data);
            }
            self.map.remove(&vkey);
            self.unlink(victim);
            victim
        } else if let Some(i) = self.free.pop() {
            i
        } else {
            // emlint: allow(unleased, reason = "one B-word frame of the pool's fixed M/B-frame budget, below the charge boundary")
            self.frames.push(Frame {
                key,
                data: vec![0u64; self.block_words],
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            u32::try_from(self.frames.len() - 1).expect("frame count exceeds u32")
        };

        let frame = &mut self.frames[idx as usize];
        frame.key = key;
        frame.dirty = write;
        if fresh {
            frame.data.fill(0);
        } else {
            dev.read_block(key, &mut frame.data);
        }
        self.map.insert(key, idx);
        self.push_front(idx);
        self.last_key = key;
        self.last_frame = idx;
        touch
    }

    /// Drops a resident frame without a write-back: its contents are dead
    /// (a freed or truncated segment), or the simulated read charge for the
    /// miss that admitted it failed, so a retry must face a real miss again.
    pub fn discard(&mut self, key: u64) {
        if let Some(idx) = self.map.remove(&key) {
            self.unlink(idx);
            self.free.push(idx);
            if self.last_frame == idx {
                self.last_frame = NIL;
            }
        }
    }

    /// The frame index of resident block `key`.
    fn index(&self, key: u64) -> usize {
        if key == self.last_key && self.last_frame != NIL {
            self.last_frame as usize
        } else {
            self.map[&key] as usize
        }
    }

    /// The word at `offset` of resident block `key`.
    pub fn word(&self, key: u64, offset: usize) -> u64 {
        self.frames[self.index(key)].data[offset]
    }

    /// Stores `value` at `offset` of resident block `key`, marking it dirty.
    pub fn set_word(&mut self, key: u64, offset: usize, value: u64) {
        let idx = self.index(key);
        let frame = &mut self.frames[idx];
        frame.data[offset] = value;
        frame.dirty = true;
    }

    /// A view of resident block `key`'s frame.
    pub fn frame(&self, key: u64) -> &[u64] {
        &self.frames[self.index(key)].data
    }

    /// The dirty resident block keys, least-recently-used first (a
    /// deterministic order, so charge/write interleavings are reproducible).
    pub fn dirty_keys(&self) -> Vec<u64> {
        // emlint: allow(unleased, reason = "at most M/B keys of flush bookkeeping, below the charge boundary")
        let mut keys = Vec::new();
        let mut idx = self.tail;
        while idx != NIL {
            let frame = &self.frames[idx as usize];
            if frame.dirty {
                keys.push(frame.key);
            }
            idx = frame.prev;
        }
        keys
    }

    /// Marks resident block `key` clean (after its data reached the device).
    pub fn mark_clean(&mut self, key: u64) {
        let idx = self.index(key);
        self.frames[idx].dirty = false;
    }

    /// Drops every frame *without* write-backs — the caller flushes first
    /// (the machine's `cold_cache` charges those writes one by one).
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.last_frame = NIL;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let f = &self.frames[idx as usize];
            (f.prev, f.next)
        };
        if prev != NIL {
            self.frames[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.frames[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.frames[idx as usize].prev = NIL;
        self.frames[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.frames[idx as usize].prev = NIL;
        self.frames[idx as usize].next = self.head;
        if self.head != NIL {
            self.frames[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("block_words", &self.block_words)
            .field("resident", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DiskCounters, MemDevice};

    /// In-memory mock device recording every executed transfer.
    struct MockDevice {
        block_words: usize,
        blocks: HashMap<u64, Vec<u64>>,
        counters: DiskCounters,
        write_log: Vec<u64>,
    }

    impl MockDevice {
        fn new(block_words: usize) -> Self {
            Self {
                block_words,
                blocks: HashMap::new(),
                counters: DiskCounters::default(),
                write_log: Vec::new(),
            }
        }
    }

    impl BlockDevice for MockDevice {
        fn block_words(&self) -> usize {
            self.block_words
        }
        fn read_block(&mut self, key: u64, buf: &mut [u64]) {
            buf.copy_from_slice(&self.blocks[&key]);
            self.counters.block_reads += 1;
        }
        fn write_block(&mut self, key: u64, data: &[u64]) {
            self.blocks.insert(key, data.to_vec());
            self.counters.block_writes += 1;
            self.write_log.push(key);
        }
        fn free_block(&mut self, key: u64) {
            self.blocks.remove(&key);
        }
        fn sync(&mut self) {
            self.counters.syncs += 1;
        }
        fn counters(&self) -> DiskCounters {
            self.counters
        }
    }

    #[test]
    fn lru_eviction_order_is_strict() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(3, 2);
        for key in [10, 11, 12] {
            assert!(pool.access(key, true, true, &mut dev).miss);
        }
        // Refresh 10; admitting 13 must evict 11 (the least recently used).
        assert!(!pool.access(10, false, false, &mut dev).miss);
        assert!(pool.access(13, true, true, &mut dev).miss);
        assert!(pool.resident(10) && pool.resident(12) && pool.resident(13));
        assert!(!pool.resident(11));
        assert_eq!(dev.write_log, vec![11], "only the victim was written back");
    }

    #[test]
    fn dirty_frames_are_written_back_exactly_once() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(1, 2);
        pool.access(1, true, true, &mut dev);
        pool.set_word(1, 0, 99);
        // Eviction by 2: block 1 written back once.
        let t = pool.access(2, false, true, &mut dev);
        assert!(t.miss && t.writeback);
        assert_eq!(dev.write_log, vec![1]);
        // Re-admitting 1 reads it back; evicting it again while *clean*
        // writes nothing.
        let t = pool.access(1, false, false, &mut dev);
        assert!(t.miss && !t.writeback, "block 2 was clean");
        assert_eq!(pool.word(1, 0), 99);
        let t = pool.access(3, false, true, &mut dev);
        assert!(t.miss && !t.writeback, "block 1 is clean after write-back");
        assert_eq!(dev.write_log, vec![1], "no second write-back");
    }

    #[test]
    fn same_block_fast_path_marks_dirty() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(2, 2);
        pool.access(7, false, true, &mut dev);
        // A write through the fast path must still mark the frame dirty.
        pool.access(7, true, true, &mut dev);
        assert!(pool.access(8, false, true, &mut dev).miss);
        let t = pool.access(9, false, true, &mut dev);
        assert!(t.miss && t.writeback, "evicting block 7 is a write-back");
        assert_eq!(dev.write_log, vec![7]);
    }

    #[test]
    fn discarding_the_last_touched_frame_invalidates_the_fast_path() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(2, 2);
        pool.access(5, true, true, &mut dev);
        pool.discard(5);
        let t = pool.access(5, false, true, &mut dev);
        assert!(t.miss, "a discarded block is admitted afresh");
        assert_eq!(pool.len(), 1);
        assert_eq!(dev.counters().block_writes, 0, "discards write nothing");
    }

    #[test]
    fn evicting_the_last_touched_frame_invalidates_the_fast_path() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(1, 2);
        pool.access(5, true, true, &mut dev);
        pool.set_word(5, 1, 55);
        // Block 6 takes over block 5's frame.
        assert!(pool.access(6, true, true, &mut dev).miss);
        pool.set_word(6, 1, 66);
        let t = pool.access(5, false, false, &mut dev);
        assert!(
            t.miss && t.writeback,
            "block 5 was evicted, block 6 is dirty"
        );
        assert_eq!(pool.word(5, 1), 55, "block 5 came back from the device");
    }

    /// The machine's flush: write every dirty frame, least recently used
    /// first, and mark it clean.
    fn flush(pool: &mut BufferPool, dev: &mut MockDevice) -> usize {
        let dirty = pool.dirty_keys();
        for &key in &dirty {
            dev.write_block(key, pool.frame(key));
            pool.mark_clean(key);
        }
        dirty.len()
    }

    #[test]
    fn flush_writes_each_dirty_frame_once_and_clear_drops_all() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(4, 2);
        pool.access(1, true, true, &mut dev);
        pool.access(2, true, true, &mut dev);
        pool.access(3, false, true, &mut dev);
        assert_eq!(pool.dirty_keys(), vec![1, 2], "LRU-first order");
        assert_eq!(flush(&mut pool, &mut dev), 2);
        assert_eq!(flush(&mut pool, &mut dev), 0, "flushed frames are clean");
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(dev.write_log, vec![1, 2]);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut dev = MockDevice::new(2);
        let mut pool = BufferPool::new(2, 2);
        pool.access(1, true, true, &mut dev);
        pool.discard(1);
        assert!(!pool.resident(1));
        assert_eq!(dev.counters().block_writes, 0);
    }

    #[test]
    #[should_panic(expected = "block 0x2a")]
    fn non_fresh_miss_on_an_unknown_block_panics() {
        let mut dev = MemDevice::new(4);
        let mut pool = BufferPool::new(2, 4);
        pool.access(0x2a, false, false, &mut dev);
    }
}
