//! Consistent-hash placement: which node owns which object key.
//!
//! Generalizes the store's in-process shard map to the cluster: every
//! object key hashes onto a ring of virtual nodes, and the first vnode at
//! or clockwise of the key's hash names the owner. Properties the rest of
//! the system leans on:
//!
//! - **Deterministic and order-invariant.** Node ids are sorted and
//!   deduplicated at construction, so every node that builds a ring over
//!   the same membership — in any order — routes every key identically.
//!   That is what lets a node answer "am I the owner?" locally, with no
//!   coordination service.
//! - **Stable under membership change.** With `vnodes` virtual nodes per
//!   physical node, removing one node reassigns only its ~1/N share of
//!   the key space; everything else keeps its owner (pinned by a unit
//!   test below).
//!
//! The ring does **not** track liveness — a dead node keeps its ring
//! share so that keys do not silently migrate during an outage. Liveness
//! is the remote tier's job: a fetch routed to a down owner falls back to
//! local materialization.

use std::fmt;

/// FNV-1a (64-bit) through a splitmix64 finalizer. Stable across
/// platforms and releases — ring placement is part of the cluster
/// contract, so the hash must never depend on `DefaultHasher`'s
/// unspecified internals. The finalizer matters: raw FNV of the
/// near-identical `"{node}#{vnode}"` strings clusters badly on the
/// ring, and the avalanche pass spreads vnodes evenly.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The consistent-hash ring over node ids.
#[derive(Clone)]
pub struct Placement {
    /// Sorted `(vnode_hash, node_index)` points.
    ring: Vec<(u64, usize)>,
    /// Sorted, deduplicated node ids; `ring` indexes into this.
    nodes: Vec<String>,
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placement")
            .field("nodes", &self.nodes)
            .field("vnodes", &(self.ring.len() / self.nodes.len().max(1)))
            .finish()
    }
}

impl Placement {
    /// Builds a ring over `nodes` with `vnodes` virtual nodes each
    /// (clamped to at least 1). Duplicate ids collapse; id order is
    /// irrelevant.
    pub fn new<S: AsRef<str>>(nodes: &[S], vnodes: usize) -> Self {
        let mut ids: Vec<String> = nodes.iter().map(|s| s.as_ref().to_string()).collect();
        ids.sort();
        ids.dedup();
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(ids.len() * vnodes);
        for (i, id) in ids.iter().enumerate() {
            for v in 0..vnodes {
                ring.push((fnv1a64(format!("{id}#{v}").as_bytes()), i));
            }
        }
        // Sort by hash with the node index as a deterministic tie-break
        // (two vnodes colliding on a hash must still order identically
        // on every node).
        ring.sort_unstable();
        Self { ring, nodes: ids }
    }

    /// Number of distinct nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sorted node ids the ring was built over.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The node that owns `key`: the first vnode at or clockwise of the
    /// key's hash. `None` only for an empty ring.
    pub fn owner_of(&self, key: &str) -> Option<&str> {
        if self.ring.is_empty() {
            return None;
        }
        let h = fnv1a64(key.as_bytes());
        let idx = self.ring.partition_point(|&(vh, _)| vh < h);
        let (_, node) = self.ring[if idx == self.ring.len() { 0 } else { idx }];
        Some(&self.nodes[node])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let p = Placement::new::<&str>(&[], 64);
        assert!(p.is_empty());
        assert_eq!(p.owner_of("k"), None);
    }

    #[test]
    fn single_node_owns_everything() {
        let p = Placement::new(&["a"], 64);
        for i in 0..100 {
            assert_eq!(p.owner_of(&format!("key/{i}")), Some("a"));
        }
    }

    #[test]
    fn node_order_is_irrelevant() {
        let a = Placement::new(&["n0", "n1", "n2"], 64);
        let b = Placement::new(&["n2", "n0", "n1", "n0"], 64);
        for i in 0..500 {
            let k = format!("obj/{i}/frame{}", i * 7);
            assert_eq!(a.owner_of(&k), b.owner_of(&k));
        }
    }

    #[test]
    fn load_spreads_across_nodes() {
        let p = Placement::new(&["n0", "n1", "n2"], 64);
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            match p.owner_of(&format!("obj/{i}")).unwrap() {
                "n0" => counts[0] += 1,
                "n1" => counts[1] += 1,
                "n2" => counts[2] += 1,
                other => panic!("unknown owner {other}"),
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 3000 / 3 / 3,
                "node {i} got {c}/3000 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        let full = Placement::new(&["n0", "n1", "n2"], 64);
        let without = Placement::new(&["n0", "n1"], 64);
        for i in 0..1000 {
            let k = format!("obj/{i}");
            let before = full.owner_of(&k).unwrap();
            if before != "n2" {
                assert_eq!(
                    without.owner_of(&k),
                    Some(before),
                    "key {k} moved although its owner stayed in the ring"
                );
            }
        }
    }
}
