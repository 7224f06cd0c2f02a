//! A `Vec`-backed block partition, the mutable working state of
//! Algorithm 5.1's `DB_new`.
//!
//! The closure engine refines a family of `^CC`-closed blocks whose
//! maximal atoms partition `MaxB(N)`. The seed implementation kept the
//! blocks in a `BTreeSet<AtomSet>` and cloned the whole set twice per
//! pass to detect the fixpoint; [`BlockPartition`] instead keeps the
//! blocks in a plain `Vec`, unsorted while refining — the disjoint
//! maximal-atom keys make equality collisions impossible, so no dedup
//! structure is needed — and sorts once, on output.

use crate::bitset::AtomSet;

/// A `Vec`-backed family of partition blocks.
#[derive(Debug, Clone)]
pub struct BlockPartition {
    universe: usize,
    blocks: Vec<AtomSet>,
}

impl BlockPartition {
    /// An empty partition over a universe of `universe` atoms.
    pub fn new(universe: usize) -> Self {
        BlockPartition {
            universe,
            blocks: Vec::new(),
        }
    }

    /// Universe capacity shared by all blocks.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the partition empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The `i`-th block.
    pub fn get(&self, i: usize) -> &AtomSet {
        &self.blocks[i]
    }

    /// Appends a block. The caller guarantees the block is distinct from
    /// every existing one (in the closure engine this holds because
    /// maximal-atom keys are disjoint); a debug assertion checks it.
    pub fn push(&mut self, set: AtomSet) {
        debug_assert_eq!(set.capacity(), self.universe);
        debug_assert!(
            !self.blocks.contains(&set),
            "duplicate block pushed: {set:?}"
        );
        self.blocks.push(set);
    }

    /// Appends a block unless an equal one is already present; returns
    /// whether it was added. Used for initialisation, where `X^C` can
    /// coincide with a `MaxB(X^CC)` singleton only on degenerate inputs.
    pub fn push_unique(&mut self, set: AtomSet) -> bool {
        debug_assert_eq!(set.capacity(), self.universe);
        if self.blocks.contains(&set) {
            return false;
        }
        self.blocks.push(set);
        true
    }

    /// Replaces the `i`-th block.
    pub fn replace(&mut self, i: usize, set: AtomSet) {
        debug_assert_eq!(set.capacity(), self.universe);
        self.blocks[i] = set;
    }

    /// Removes the `i`-th block in O(1), moving the last block into its
    /// place (iteration order is not part of the partition's contract).
    pub fn swap_remove(&mut self, i: usize) -> AtomSet {
        self.blocks.swap_remove(i)
    }

    /// Iterates over the blocks in internal (unsorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &AtomSet> {
        self.blocks.iter()
    }

    /// The blocks as a sorted, deduplicated `Vec` — the deterministic
    /// output order the seed's `BTreeSet` representation produced.
    pub fn sorted_sets(&self) -> Vec<AtomSet> {
        let mut v = self.blocks.clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(idx: &[usize]) -> AtomSet {
        AtomSet::from_indices(8, idx.iter().copied())
    }

    #[test]
    fn push_replace_remove() {
        let mut p = BlockPartition::new(8);
        assert!(p.is_empty());
        p.push(set(&[0]));
        p.push(set(&[1, 2]));
        assert_eq!(p.len(), 2);
        p.replace(0, set(&[3]));
        assert_eq!(p.get(0), &set(&[3]));
        let removed = p.swap_remove(0);
        assert_eq!(removed, set(&[3]));
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(0), &set(&[1, 2]));
    }

    #[test]
    fn push_unique_dedups() {
        let mut p = BlockPartition::new(8);
        assert!(p.push_unique(set(&[0])));
        assert!(!p.push_unique(set(&[0])));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn sorted_sets_match_btreeset_order() {
        let mut p = BlockPartition::new(8);
        let (a, b, c) = (set(&[5]), set(&[0, 1]), set(&[2]));
        p.push(a.clone());
        p.push(b.clone());
        p.push(c.clone());
        let sorted = p.sorted_sets();
        let reference: Vec<AtomSet> = [a, b, c]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(sorted, reference);
    }
}
