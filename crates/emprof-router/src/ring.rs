//! The consistent-hash ring: sessions → backends with minimal movement.
//!
//! Each backend contributes `replicas` *virtual nodes* — FNV-1a-64
//! points on a `u64` circle, hashed from `"{name}#{replica}"`. A
//! session key owns the first vnode clockwise from its own hash
//! (wrapping at the top). Removing a backend deletes only that
//! backend's points, so only keys whose successor was one of those
//! points move — everything else keeps its owner. Re-adding the same
//! backend restores the identical point set and therefore the identical
//! assignment. `tests/prop_ring.rs` at the workspace root proves both
//! properties for arbitrary topologies.
//!
//! Lookups can *exclude* nodes (down or draining): the walk simply
//! skips their points and keeps going clockwise, which is exactly the
//! classic "failover to successor" rule — keys on a dead node spread
//! over its clockwise neighbors, keys on live nodes do not move.

use std::collections::BTreeMap;

/// FNV-1a 64-bit, a placement hash, not a checksum: it spreads vnode
/// points and session keys over the ring circle, where only its spread
/// matters. The wire and the journal check integrity with CRC-32.
#[must_use]
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A consistent-hash ring over named backends.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// vnode point → backend name. BTreeMap gives the clockwise walk
    /// (`range(hash..)` then wrap) for free.
    points: BTreeMap<u64, String>,
    /// Virtual nodes per backend.
    replicas: usize,
}

impl HashRing {
    /// An empty ring placing `replicas` virtual nodes per backend.
    /// More replicas smooth the load split at the cost of memory;
    /// 64–128 is the usual sweet spot. Clamped to at least 1.
    #[must_use]
    pub fn new(replicas: usize) -> HashRing {
        HashRing {
            points: BTreeMap::new(),
            replicas: replicas.max(1),
        }
    }

    /// Adds a backend's virtual nodes. Re-adding an existing backend is
    /// a no-op (the same name hashes to the same points).
    pub fn add(&mut self, name: &str) {
        for i in 0..self.replicas {
            let point = fnv1a_64(format!("{name}#{i}").as_bytes());
            // On a point collision between two distinct names the
            // first-inserted owner keeps the point: deterministic, and
            // astronomically rare on a u64 circle.
            self.points.entry(point).or_insert_with(|| name.to_string());
        }
    }

    /// Removes a backend's virtual nodes.
    pub fn remove(&mut self, name: &str) {
        self.points.retain(|_, owner| owner != name);
    }

    /// Distinct backends currently on the ring.
    #[must_use]
    pub fn nodes(&self) -> Vec<String> {
        let mut names: Vec<String> = self.points.values().cloned().collect();
        names.sort();
        names.dedup();
        names
    }

    /// Whether the ring has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The backend owning `key`: the first vnode clockwise from the
    /// key's hash. `None` on an empty ring.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.owner_excluding(key, &[])
    }

    /// [`HashRing::owner`] skipping `excluded` backends — the failover
    /// walk used while nodes are down or draining. Keys owned by a
    /// live, non-excluded backend resolve exactly as [`HashRing::owner`]
    /// does, so a mark-down never moves sessions that were not on the
    /// marked node. `None` when every backend is excluded.
    #[must_use]
    pub fn owner_excluding(&self, key: &str, excluded: &[&str]) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let hash = fnv1a_64(key.as_bytes());
        self.points
            .range(hash..)
            .chain(self.points.range(..hash))
            .map(|(_, owner)| owner.as_str())
            .find(|owner| !excluded.contains(owner))
    }

    /// Assignment census for `keys`: how many land on each backend
    /// (diagnostics and the balance test).
    #[must_use]
    pub fn census<'a, I: IntoIterator<Item = &'a str>>(&self, keys: I) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for key in keys {
            if let Some(owner) = self.owner(key) {
                *counts.entry(owner.to_string()).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(64);
        assert!(ring.is_empty());
        assert_eq!(ring.owner("session"), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = HashRing::new(64);
        ring.add("a");
        for i in 0..100 {
            assert_eq!(ring.owner(&format!("key-{i}")), Some("a"));
        }
    }

    #[test]
    fn lookup_is_deterministic_and_add_is_idempotent() {
        let mut ring = HashRing::new(64);
        ring.add("a");
        ring.add("b");
        ring.add("c");
        let before: Vec<_> = (0..200)
            .map(|i| ring.owner(&format!("key-{i}")).unwrap().to_string())
            .collect();
        ring.add("b");
        for (i, owner) in before.iter().enumerate() {
            assert_eq!(ring.owner(&format!("key-{i}")), Some(owner.as_str()));
        }
        assert_eq!(ring.nodes(), vec!["a", "b", "c"]);
    }

    #[test]
    fn removal_moves_only_the_removed_nodes_keys() {
        let mut ring = HashRing::new(64);
        for name in ["a", "b", "c", "d"] {
            ring.add(name);
        }
        let keys: Vec<String> = (0..500).map(|i| format!("dev{i}#s{i}")).collect();
        let before: Vec<String> = keys
            .iter()
            .map(|k| ring.owner(k).unwrap().to_string())
            .collect();
        ring.remove("b");
        for (k, owner) in keys.iter().zip(&before) {
            let now = ring.owner(k).unwrap();
            if owner != "b" {
                assert_eq!(now, owner, "key {k} moved although its owner survived");
            } else {
                assert_ne!(now, "b");
            }
        }
        // Re-adding restores the original assignment exactly.
        ring.add("b");
        for (k, owner) in keys.iter().zip(&before) {
            assert_eq!(ring.owner(k).unwrap(), owner);
        }
    }

    #[test]
    fn exclusion_fails_over_without_moving_live_keys() {
        let mut ring = HashRing::new(64);
        for name in ["a", "b", "c"] {
            ring.add(name);
        }
        let keys: Vec<String> = (0..300).map(|i| format!("k{i}")).collect();
        for k in &keys {
            let owner = ring.owner(k).unwrap().to_string();
            let with_down = ring.owner_excluding(k, &["b"]).unwrap();
            if owner != "b" {
                assert_eq!(with_down, owner);
            } else {
                assert_ne!(with_down, "b");
            }
        }
        assert_eq!(ring.owner_excluding("k0", &["a", "b", "c"]), None);
    }

    #[test]
    fn replicas_spread_load() {
        let mut ring = HashRing::new(128);
        for name in ["a", "b", "c", "d"] {
            ring.add(name);
        }
        let keys: Vec<String> = (0..4000).map(|i| format!("device-{i}#7")).collect();
        let census = ring.census(keys.iter().map(String::as_str));
        assert_eq!(census.len(), 4);
        for (node, count) in census {
            assert!(
                (200..=2200).contains(&count),
                "grossly unbalanced ring: {node} owns {count}/4000"
            );
        }
    }
}
