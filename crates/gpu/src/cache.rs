//! Object-granularity L2 cache model.
//!
//! FHE data objects are huge and uniform (a limb is `N` words; an evk is
//! hundreds of MB), so a byte-accurate cache simulation adds nothing over
//! object-granularity LRU: an access either finds the whole object resident
//! or streams it from DRAM (§III-A D1). This is also how MAD \[2\] reasons
//! about caching, which the paper borrows for its DRAM-traffic estimates
//! (§V-D).
//!
//! Object ids are dense `u64`s handed out by one allocator, so every map
//! and set keyed by them — this cache's, the IR passes' and the pipelined
//! scheduler's — hashes them with [`IdHasher`], one multiply, instead of
//! the default SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for `u64` object ids: the id times
/// an odd 64-bit constant, rotated so the well-mixed middle bits of the
/// product land in the low bits the table indexes by. Distinct ids give
/// distinct hashes. Not for untrusted keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0.rotate_left(5) ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by object id.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A set of object ids.
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// Object-granularity LRU cache.
#[derive(Debug)]
pub struct L2Cache {
    capacity: usize,
    used: usize,
    /// object id → (size, last-use stamp)
    resident: IdMap<(usize, u64)>,
    clock: u64,
    hits_bytes: u64,
    miss_bytes: u64,
}

impl L2Cache {
    /// An empty cache of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: 0,
            resident: IdMap::default(),
            clock: 0,
            hits_bytes: 0,
            miss_bytes: 0,
        }
    }

    /// Reads `bytes` of object `id`; returns the bytes that had to come
    /// from DRAM (0 on a hit, `bytes` on a miss). The object becomes
    /// resident if it fits.
    pub fn read(&mut self, id: u64, bytes: usize) -> u64 {
        self.clock += 1;
        if let Some(entry) = self.resident.get_mut(&id) {
            entry.1 = self.clock;
            self.hits_bytes += bytes as u64;
            return 0;
        }
        self.install(id, bytes);
        self.miss_bytes += bytes as u64;
        bytes as u64
    }

    /// Writes `bytes` of object `id` (write-allocate; dirty write-back cost
    /// is charged by the caller when it forces the data to DRAM).
    pub fn write(&mut self, id: u64, bytes: usize) {
        self.clock += 1;
        if let Some(entry) = self.resident.get_mut(&id) {
            entry.1 = self.clock;
            return;
        }
        self.install(id, bytes);
    }

    /// Drops an object (the user-controlled write-back of §V-C flushes data
    /// so PIM sees fresh DRAM contents).
    pub fn flush(&mut self, id: u64) {
        if let Some((size, _)) = self.resident.remove(&id) {
            self.used -= size;
        }
    }

    fn install(&mut self, id: u64, bytes: usize) {
        if bytes > self.capacity {
            // Streaming object: never resident.
            return;
        }
        while self.used + bytes > self.capacity {
            // Evict LRU. Every access bumps the clock and stamps at most
            // one entry, so stamps are unique and the minimum does not
            // depend on the map's iteration order (hence on the hasher).
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&id, _)| id)
                .expect("cache overfull but empty");
            self.flush(victim);
        }
        self.resident.insert(id, (bytes, self.clock));
        self.used += bytes;
    }

    /// Is the object currently resident?
    pub fn contains(&self, id: u64) -> bool {
        self.resident.contains_key(&id)
    }

    /// Bytes currently resident.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Total bytes served from cache so far.
    pub fn hit_bytes(&self) -> u64 {
        self.hits_bytes
    }

    /// Total bytes streamed from DRAM so far.
    pub fn miss_bytes(&self) -> u64 {
        self.miss_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_install() {
        let mut c = L2Cache::new(100);
        assert_eq!(c.read(1, 40), 40);
        assert_eq!(c.read(1, 40), 0);
        assert!(c.contains(1));
        assert_eq!(c.hit_bytes(), 40);
        assert_eq!(c.miss_bytes(), 40);
    }

    #[test]
    fn lru_eviction() {
        let mut c = L2Cache::new(100);
        c.read(1, 40);
        c.read(2, 40);
        c.read(1, 40); // touch 1
        c.read(3, 40); // evicts 2 (LRU)
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn oversized_objects_stream() {
        // An evk larger than L2 never becomes resident (§III-A D1).
        let mut c = L2Cache::new(100);
        assert_eq!(c.read(9, 1000), 1000);
        assert!(!c.contains(9));
        assert_eq!(c.read(9, 1000), 1000, "still a miss");
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn flush_removes() {
        let mut c = L2Cache::new(100);
        c.write(5, 60);
        assert!(c.contains(5));
        c.flush(5);
        assert!(!c.contains(5));
        assert_eq!(c.used(), 0);
    }
}
