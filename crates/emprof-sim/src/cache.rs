//! Set-associative cache models.
//!
//! The paper's simulator models "two levels of caches with random
//! replacement policies" (Section III-B). Here both random and LRU
//! replacement are implemented — random is the default for the LLC to
//! match the paper, and the difference is one of the ablation benches
//! called out in DESIGN.md.

/// Replacement policy for a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict a uniformly random way (the paper's configuration).
    #[default]
    Random,
    /// Evict the least-recently-used way.
    Lru,
}

/// Geometry and policy of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A convenience constructor with 64-byte lines and random replacement.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            line_bytes: 64,
            replacement: Replacement::Random,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when any dimension is zero, not a power of two
    /// where required, or inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache must have at least one way".into());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size must be a nonzero power of two, got {}",
                self.line_bytes
            ));
        }
        let denom = self.ways as u64 * self.line_bytes;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(denom) {
            return Err(format!(
                "size {} is not a multiple of ways*line ({denom})",
                self.size_bytes
            ));
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(())
    }
}

/// A set-associative cache with tag state only (the simulator is
/// functional-first, so no data is stored).
///
/// # Example
///
/// ```
/// use emprof_sim::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2), 1);
/// assert!(!c.access(0x40, false)); // cold miss
/// assert!(c.access(0x40, false));  // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`, `sets - 1` and `log2(sets)`: both are powers of
    /// two, so indexing shifts and masks instead of dividing.
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    /// Per-way line state, set after set (`ways` entries each). A set
    /// fills its ways in order and only a flush empties them, so its
    /// valid ways are always the first `filled[set]`.
    tags: Vec<u64>,
    /// Monotonic timestamp of last touch, for LRU.
    last_used: Vec<u64>,
    filled: Vec<usize>,
    clock: u64,
    rng_state: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// `seed` drives the random replacement policy; simulations are fully
    /// deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache configuration: {e}"));
        let n_sets = config.sets();
        let lines = n_sets as usize * config.ways;
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: n_sets - 1,
            set_shift: n_sets.trailing_zeros(),
            ways: config.ways,
            tags: vec![0; lines],
            last_used: vec![0; lines],
            filled: vec![0; n_sets as usize],
            clock: 0,
            rng_state: seed | 1,
            hits: 0,
            misses: 0,
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// The way of set `set_idx` holding `tag`, as an index into the
    /// per-way state.
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let base = set_idx * self.ways;
        let valid = &self.tags[base..base + self.filled[set_idx]];
        valid.iter().position(|&t| t == tag).map(|way| base + way)
    }

    /// Installs `tag` in a victim way of set `set_idx`.
    fn install(&mut self, set_idx: usize, tag: u64) {
        let line = set_idx * self.ways + self.choose_victim(set_idx);
        self.tags[line] = tag;
        self.last_used[line] = self.clock;
    }

    /// Looks up `addr`, allocating the line on a miss (write-allocate).
    /// Returns `true` on hit.
    ///
    /// On a miss the victim way is chosen by the configured replacement
    /// policy. A write allocates and hits like a read: write-back traffic
    /// is folded into the miss latency by the memory system rather than
    /// modeled per line, so the cache keeps no dirty state and
    /// `_is_write` changes nothing.
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.index_tag(addr);
        if let Some(line) = self.find(set_idx, tag) {
            self.last_used[line] = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.install(set_idx, tag);
        false
    }

    /// Probes without modifying any state (no allocation, no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        self.find(set_idx, tag).is_some()
    }

    /// Inserts a line unconditionally (used for prefetch fills). Returns
    /// `true` if the line was newly inserted, `false` if already present.
    pub fn insert(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.index_tag(addr);
        if self.find(set_idx, tag).is_some() {
            return false;
        }
        self.install(set_idx, tag);
        true
    }

    /// The way to fill in set `set_idx`: its first invalid way, which
    /// then counts as filled, or the replacement policy's victim.
    fn choose_victim(&mut self, set_idx: usize) -> usize {
        let filled = self.filled[set_idx];
        if filled < self.ways {
            self.filled[set_idx] += 1;
            return filled;
        }
        match self.config.replacement {
            Replacement::Random => (self.next_rand() % self.ways as u64) as usize,
            Replacement::Lru => {
                let base = set_idx * self.ways;
                self.last_used[base..base + self.ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &last_used)| last_used)
                    .map(|(way, _)| way)
                    .expect("sets are never empty")
            }
        }
    }

    /// xorshift64* — deterministic, fast, good enough for victim choice.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Invalidates every line (used between workload phases in tests).
    pub fn flush(&mut self) {
        self.filled.fill(0);
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line-aligned base address of the line containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: usize, replacement: Replacement) -> Cache {
        Cache::new(
            CacheConfig {
                size_bytes: 64 * ways as u64 * 4, // 4 sets
                ways,
                line_bytes: 64,
                replacement,
            },
            7,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2, Replacement::Lru);
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x13F, false)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(2, Replacement::Lru);
        // Three distinct tags in set 0 of a 2-way cache (set stride = 4*64).
        let stride = 4 * 64;
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // touch 0, making `stride` the LRU line
        c.access(2 * stride, false); // evicts `stride`
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn random_replacement_eventually_evicts() {
        let mut c = small(4, Replacement::Random);
        let stride = 4 * 64;
        for i in 0..4 {
            c.access(i * stride, false);
        }
        // Overfill the set: some line must go.
        c.access(100 * stride, false);
        let resident = (0..4).filter(|&i| c.probe(i * stride)).count();
        assert_eq!(resident, 3);
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = Cache::new(CacheConfig::new(4096, 4), 3);
        // Two passes over 4x the capacity: second pass still mostly misses.
        for pass in 0..2 {
            for addr in (0..16384u64).step_by(64) {
                c.access(addr, false);
            }
            if pass == 0 {
                assert_eq!(c.misses(), 256);
            }
        }
        assert!(c.hits() < 100, "unexpected hits: {}", c.hits());
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        let mut c = Cache::new(CacheConfig::new(8192, 4), 3);
        for _ in 0..10 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr, false);
            }
        }
        // First pass misses (64 lines), everything after hits.
        assert_eq!(c.misses(), 64);
        assert_eq!(c.hits(), 9 * 64);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small(2, Replacement::Lru);
        assert!(!c.probe(0x500));
        assert!(!c.access(0x500, false)); // still a miss afterwards
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = small(2, Replacement::Lru);
        assert!(c.insert(0x40));
        assert!(!c.insert(0x40));
        assert!(c.probe(0x40));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small(2, Replacement::Lru);
        c.access(0x40, true);
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed: u64| {
            let mut c = Cache::new(CacheConfig::new(1024, 2), seed);
            let mut misses = 0;
            for i in 0..1000u64 {
                if !c.access((i * 8191) % 65536 / 64 * 64, false) {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(0, 4).validate().is_err());
        assert!(CacheConfig::new(4096, 0).validate().is_err());
        let mut bad_line = CacheConfig::new(4096, 4);
        bad_line.line_bytes = 48;
        assert!(bad_line.validate().is_err());
        // 3 sets: not a power of two.
        let bad_sets = CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2,
            line_bytes: 64,
            replacement: Replacement::Random,
        };
        assert!(bad_sets.validate().is_err());
        assert!(CacheConfig::new(262_144, 8).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn invalid_geometry_panics_on_construction() {
        Cache::new(CacheConfig::new(1000, 3), 1);
    }
}
