//! Decoded-segment cache for the query path.
//!
//! Mirrors the querier/cache-driver split IOx uses: the query engine
//! (`crate::query`) is the *driver* — it decides what to load and what
//! a miss costs — while this module only remembers decoded segments
//! and answers "still valid?". Entries are keyed by `(directory,
//! base_index)` and hold the fully decoded, immutable view of one
//! *sealed* segment (only segments whose walk checked out clean up to
//! a statistics footer at the tail are ever inserted; the active
//! segment keeps changing and is never cached).
//!
//! Validity is re-checked on every hit against the file's current
//! length and mtime, so a session directory that was deleted and
//! re-created (same base indexes, different records) can never serve
//! stale data. Eviction is LRU beyond `max_entries` plus a TTL, with
//! `store.cache.hits` / `store.cache.misses` / `store.cache.evictions`
//! telemetry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use emprof_obs as obs;

use crate::record::{SegmentFooter, SessionMeta};
use emprof_core::StallEvent;

/// Cache tuning knobs.
#[derive(Debug, Clone)]
pub struct SegmentCacheConfig {
    /// Decoded segments retained before LRU eviction kicks in.
    pub max_entries: usize,
    /// Age beyond which an entry is discarded regardless of use.
    pub ttl: Duration,
}

impl Default for SegmentCacheConfig {
    fn default() -> Self {
        SegmentCacheConfig {
            max_entries: 256,
            ttl: Duration::from_secs(600),
        }
    }
}

/// The fully decoded, immutable view of one sealed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSegment {
    /// The segment's base journal index.
    pub base_index: u64,
    /// Last identity checkpoint in the segment, if any.
    pub meta: Option<SessionMeta>,
    /// Every `(event sequence, event)` pair, in record order.
    pub events: Vec<(u64, StallEvent)>,
    /// The validated tail footer (cached so pruning decisions on a hit
    /// need no I/O beyond the validity stat).
    pub footer: SegmentFooter,
    /// File length at decode time; a hit with a different length is
    /// discarded.
    pub file_len: u64,
    /// File mtime at decode time, when the filesystem reports one.
    pub modified: Option<SystemTime>,
}

#[derive(Debug)]
struct Entry {
    seg: Arc<DecodedSegment>,
    last_used: u64,
    inserted: Instant,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(PathBuf, u64), Entry>,
    tick: u64,
}

/// A thread-safe LRU+TTL cache of [`DecodedSegment`]s.
#[derive(Debug)]
pub struct SegmentCache {
    cfg: SegmentCacheConfig,
    inner: Mutex<Inner>,
}

impl Default for SegmentCache {
    fn default() -> Self {
        SegmentCache::new(SegmentCacheConfig::default())
    }
}

impl SegmentCache {
    /// Creates a cache with the given knobs.
    pub fn new(cfg: SegmentCacheConfig) -> SegmentCache {
        SegmentCache {
            cfg,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up the decoded segment at `(dir, base_index)`, validating
    /// the entry against the file's *current* length and mtime. Any
    /// disagreement — or an expired TTL — discards the entry and
    /// reports a miss.
    pub fn get(
        &self,
        dir: &Path,
        base_index: u64,
        file_len: u64,
        modified: Option<SystemTime>,
    ) -> Option<Arc<DecodedSegment>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let key = (dir.to_path_buf(), base_index);
        let valid = match inner.map.get(&key) {
            None => {
                obs::counter_add!("store.cache.misses", 1);
                return None;
            }
            Some(e) => {
                e.inserted.elapsed() <= self.cfg.ttl
                    && e.seg.file_len == file_len
                    && e.seg.modified == modified
            }
        };
        if !valid {
            inner.map.remove(&key);
            obs::counter_add!("store.cache.misses", 1);
            obs::counter_add!("store.cache.evictions", 1);
            return None;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.map.get_mut(&key).expect("validated above");
        e.last_used = tick;
        obs::counter_add!("store.cache.hits", 1);
        Some(Arc::clone(&e.seg))
    }

    /// Inserts a freshly decoded sealed segment, evicting the least
    /// recently used entries past `max_entries`.
    pub fn insert(&self, dir: &Path, base_index: u64, seg: Arc<DecodedSegment>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            (dir.to_path_buf(), base_index),
            Entry {
                seg,
                last_used: tick,
                inserted: Instant::now(),
            },
        );
        while inner.map.len() > self.cfg.max_entries {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&oldest);
            obs::counter_add!("store.cache.evictions", 1);
        }
    }

    /// Entries currently cached (for tests and telemetry).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(base: u64, len: u64) -> Arc<DecodedSegment> {
        Arc::new(DecodedSegment {
            base_index: base,
            meta: None,
            events: Vec::new(),
            footer: SegmentFooter::empty(),
            file_len: len,
            modified: None,
        })
    }

    #[test]
    fn hit_requires_matching_stat() {
        let cache = SegmentCache::default();
        let dir = Path::new("/tmp/x");
        cache.insert(dir, 0, seg(0, 100));
        assert!(cache.get(dir, 0, 100, None).is_some());
        // Same key, different length: the file changed → miss + evict.
        assert!(cache.get(dir, 0, 101, None).is_none());
        assert!(
            cache.get(dir, 0, 100, None).is_none(),
            "entry was discarded"
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = SegmentCache::new(SegmentCacheConfig {
            max_entries: 2,
            ttl: Duration::from_secs(600),
        });
        let dir = Path::new("/tmp/y");
        cache.insert(dir, 0, seg(0, 10));
        cache.insert(dir, 1, seg(1, 10));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(dir, 0, 10, None).is_some());
        cache.insert(dir, 2, seg(2, 10));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(dir, 0, 10, None).is_some());
        assert!(cache.get(dir, 1, 10, None).is_none());
        assert!(cache.get(dir, 2, 10, None).is_some());
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = SegmentCache::new(SegmentCacheConfig {
            max_entries: 8,
            ttl: Duration::from_millis(0),
        });
        let dir = Path::new("/tmp/z");
        cache.insert(dir, 0, seg(0, 10));
        std::thread::sleep(Duration::from_millis(2));
        assert!(cache.get(dir, 0, 10, None).is_none());
    }
}
