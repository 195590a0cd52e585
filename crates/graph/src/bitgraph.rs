//! Packed `u64` node sets for the hot inner loops of phase 2 and the
//! prune post-pass.
//!
//! The paper's greedy connector phase and the pruning post-pass both
//! reduce to repeated set queries over node subsets: "which neighbors of
//! `w` are in the current set?", "is every vertex covered?", "does
//! removing `v` disconnect `G[S]`?".  This module provides:
//!
//! * [`BitSet`] — a fixed-capacity node set, one bit per node, with a
//!   word-at-a-time first-gap search ([`BitSet::first_unset`]),
//! * [`BlockForest`] — the blocks and cut vertices of an induced
//!   subgraph `G[S]`, re-split block-locally as non-cut members are
//!   removed: the connectivity side of the incremental prune kernel (no
//!   induced subgraph is materialized).
//!
//! Trailing bits past the logical capacity are kept zero at all times;
//! the word-level routines rely on that invariant.

use crate::RandomAccessGraph;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of node ids packed one bit per node into `u64`
/// words.
///
/// ```
/// use mcds_graph::bitgraph::BitSet;
/// let mut s = BitSet::from_nodes(130, &[0, 63, 64, 129]);
/// assert!(s.contains(64));
/// s.remove(64);
/// assert_eq!(s.to_nodes(), vec![0, 63, 129]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for node ids `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0; nbits.div_ceil(WORD_BITS)],
        }
    }

    /// Builds a set from a node list.
    ///
    /// # Panics
    ///
    /// Panics if any node index is `≥ nbits` (mirrors
    /// [`crate::node_mask`]).
    pub fn from_nodes(nbits: usize, nodes: &[usize]) -> Self {
        let mut s = BitSet::new(nbits);
        for &v in nodes {
            assert!(
                v < nbits,
                "node index {v} out of range for bitset of {nbits} bits"
            );
            s.insert(v);
        }
        s
    }

    /// Capacity in bits (the exclusive upper bound on stored ids).
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Membership test.  Indices `≥ capacity` are reported absent.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / WORD_BITS)
            .is_some_and(|w| w >> (i % WORD_BITS) & 1 == 1)
    }

    /// Inserts `i`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({} bits)", self.nbits);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes `i`; returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ capacity`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({} bits)", self.nbits);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Clears every bit (capacity is unchanged).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Smallest id `< capacity` that is *not* in the set, scanning a word
    /// (64 candidates) at a time — the early-exit "first uncovered
    /// vertex" query of the domination check.
    pub fn first_unset(&self) -> Option<usize> {
        for (k, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = k * WORD_BITS + (!w).trailing_zeros() as usize;
                // The gap may be in the zero padding past `nbits`.
                return (i < self.nbits).then_some(i);
            }
        }
        None
    }

    /// Iterates set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The set as a sorted `Vec<usize>` (the workspace node-set shape).
    pub fn to_nodes(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }
}

/// Ascending iterator over the set bits of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Sentinel for "no block" in the [`BlockForest`] tables.
const NONE: u32 = u32::MAX;

/// The blocks (biconnected components) and cut vertices of an induced
/// subgraph `G[S]`, kept current while non-cut members are removed.
///
/// Every component of `G[S]` that has an edge is a tree of blocks joined
/// at cut vertices.  The forest roots each tree at one block; every
/// other block has a *head*, the cut vertex it shares with the block one
/// step closer to the root.  A member therefore lies in exactly one
/// block as a non-head (its *home*) plus the blocks it heads, and it is
/// a cut vertex iff it heads at least one block.  An isolated member
/// lies in no block.
///
/// A non-cut member `v` lies in exactly one block `B`, so removing it can
/// change cut status only inside `B` ([`BlockForest::remove`]).  If
/// `B − v` is a single node `w`, `w` just loses `B`.  Otherwise one
/// iterative vertex-stack Tarjan runs on `G[B − v]` only — connected,
/// because `B` was 2-connected — and replaces `B` by its blocks.  A
/// removal costs `O(Σ_{u∈B} deg u)` instead of a pass over all of
/// `G[S]`.
///
/// ```
/// use mcds_graph::bitgraph::BlockForest;
/// use mcds_graph::Graph;
/// // Two triangles sharing node 2.
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
/// let mut f = BlockForest::new(&g, &[0, 1, 2, 3, 4]);
/// assert!(f.is_cut(2) && !f.is_cut(0));
/// assert_eq!(f.remove(&g, 0), 2); // {1, 2} is re-split into a bridge
/// assert!(f.is_cut(2) && !f.is_cut(1));
/// assert_eq!(f.remove(&g, 1), 1); // leaf: 2 keeps only its other block
/// assert!(!f.is_cut(2));
/// ```
#[derive(Debug)]
pub struct BlockForest {
    /// Node list per block slot; free slots are empty and listed in `free`.
    blocks: Vec<Vec<u32>>,
    /// Head of each block; `NONE` for the root block of a component.
    head: Vec<u32>,
    free: Vec<u32>,
    /// The block in which a member is not the head; `NONE` for
    /// non-members and isolated members.
    home: Vec<u32>,
    /// How many blocks each member heads.
    heads: Vec<u32>,
    // Tarjan scratch.  `stamp[u] == epoch` marks the nodes of the current
    // split; `disc` is reset only for those nodes.
    stamp: Vec<u32>,
    epoch: u32,
    disc: Vec<u32>,
    low: Vec<u32>,
    vstack: Vec<u32>,
    work: Vec<u32>,
}

impl BlockForest {
    /// The blocks of `G[members]`, built by one Tarjan pass per component.
    ///
    /// # Panics
    ///
    /// Panics if a member id is `≥ g.num_nodes()`.
    pub fn new<G: RandomAccessGraph>(g: &G, members: &[usize]) -> Self {
        let n = g.num_nodes();
        assert!(n < NONE as usize, "graph too large for a block forest");
        let mut f = BlockForest {
            blocks: Vec::new(),
            head: Vec::new(),
            free: Vec::new(),
            home: vec![NONE; n],
            heads: vec![0; n],
            stamp: vec![0; n],
            epoch: 1,
            disc: vec![NONE; n],
            low: vec![0; n],
            vstack: Vec::new(),
            work: Vec::new(),
        };
        for &v in members {
            assert!(v < n, "node index {v} out of range for {n} nodes");
            f.stamp[v] = f.epoch;
        }
        for &v in members {
            if f.disc[v] == NONE {
                f.split(g, v, false);
            }
        }
        f
    }

    /// Whether `v` is a cut vertex (articulation point) of the current
    /// `G[S]`.  Non-members are never cut vertices.
    pub fn is_cut(&self, v: usize) -> bool {
        self.heads.get(v).is_some_and(|&h| h > 0)
    }

    /// Node count of the largest live block (0 if there is none): how
    /// much a removal can cost at most, up to degrees.
    pub fn largest_block(&self) -> usize {
        self.blocks.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Removes the non-cut member `v` and re-splits its block; returns
    /// `|B − v|`, the number of nodes re-split (0 for an isolated member).
    ///
    /// # Panics
    ///
    /// Panics if `v` is a cut vertex or `≥ g.num_nodes()`.
    pub fn remove<G: RandomAccessGraph>(&mut self, g: &G, v: usize) -> usize {
        assert!(!self.is_cut(v), "node {v} is a cut vertex");
        let b = std::mem::replace(&mut self.home[v], NONE);
        if b == NONE {
            return 0;
        }
        let head = self.head[b as usize];
        let block = &mut self.blocks[b as usize];
        self.work.clear();
        self.work
            .extend(block.iter().copied().filter(|&u| u as usize != v));
        block.clear();
        self.free.push(b);
        if head != NONE {
            self.heads[head as usize] -= 1;
        }
        let rest = self.work.len();
        if rest == 1 {
            // The leaf case.  A headed `B = {v, w}` had head `w`, which
            // has just lost it.  A root `B` leaves `w` isolated, or makes
            // one of the blocks `w` heads the new root; every member
            // neighbor of `w` now lies in such a block, as a non-head.
            let w = self.work[0] as usize;
            if head == NONE {
                self.home[w] = NONE;
                if self.heads[w] > 0 {
                    let c = g
                        .successors(w)
                        .map(|x| self.home[x])
                        .find(|&c| c != NONE && self.head[c as usize] == w as u32)
                        .expect("a block headed by w holds a neighbor of w");
                    self.head[c as usize] = NONE;
                    self.home[w] = c;
                    self.heads[w] -= 1;
                }
            }
        } else {
            self.epoch += 1;
            for &u in &self.work {
                self.stamp[u as usize] = self.epoch;
                self.disc[u as usize] = NONE;
            }
            // A headed block is re-split from its head, so the new blocks
            // keep hanging off the same cut vertex.
            let (root, headed) = match head {
                NONE => (self.work[0] as usize, false),
                h => (h as usize, true),
            };
            self.split(g, root, headed);
        }
        rest
    }

    /// Iterative vertex-stack Tarjan over the stamped nodes reachable
    /// from `root`, recording every block it closes.  A block's head is
    /// its node nearest `root`; unless `headed`, the first block closed
    /// at `root` becomes the root block instead.
    fn split<G: RandomAccessGraph>(&mut self, g: &G, root: usize, headed: bool) {
        let epoch = self.epoch;
        let mut need_root = !headed;
        self.disc[root] = 0;
        self.low[root] = 0;
        let mut timer = 1u32;
        self.vstack.push(root as u32);
        // Same frame layout as `traversal::articulation_points`: node,
        // parent, live successor iterator (resumable across pushes).
        let mut stack: Vec<(usize, usize, G::Successors<'_>)> =
            vec![(root, usize::MAX, g.successors(root))];
        while let Some(top) = stack.last_mut() {
            let (v, parent) = (top.0, top.1);
            if let Some(u) = top.2.next() {
                if self.stamp[u] != epoch {
                    continue;
                }
                if self.disc[u] == NONE {
                    self.disc[u] = timer;
                    self.low[u] = timer;
                    timer += 1;
                    self.vstack.push(u as u32);
                    stack.push((u, v, g.successors(u)));
                } else if u != parent {
                    self.low[v] = self.low[v].min(self.disc[u]);
                }
                continue;
            }
            stack.pop();
            let Some(&(p, ..)) = stack.last() else {
                break;
            };
            self.low[p] = self.low[p].min(self.low[v]);
            if self.low[v] < self.disc[p] {
                continue;
            }
            // `p` closes a block: `v`'s subtree down the vertex stack.
            let id = self.alloc_block();
            loop {
                let x = self.vstack.pop().expect("v is on the vertex stack");
                self.blocks[id].push(x);
                self.home[x as usize] = id as u32;
                if x as usize == v {
                    break;
                }
            }
            self.blocks[id].push(p as u32);
            if need_root && p == root {
                need_root = false;
                self.head[id] = NONE;
                self.home[p] = id as u32;
            } else {
                self.head[id] = p as u32;
                self.heads[p] += 1;
            }
        }
        self.vstack.clear();
    }

    fn alloc_block(&mut self) -> usize {
        match self.free.pop() {
            Some(b) => b as usize,
            None => {
                self.blocks.push(Vec::new());
                self.head.push(NONE);
                self.blocks.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = BitSet::new(100);
        assert!(s.insert(63));
        assert!(!s.insert(63));
        assert!(s.insert(64));
        assert!(s.contains(63) && s.contains(64) && !s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.to_nodes(), vec![64]);
        assert!(!s.contains(1000)); // past capacity: absent, not a panic
    }

    #[test]
    fn first_unset_respects_padding() {
        // All 65 bits set: the only gaps are padding, which must not leak.
        let all: Vec<usize> = (0..65).collect();
        let s = BitSet::from_nodes(65, &all);
        assert_eq!(s.first_unset(), None);
        let mut s = s;
        s.remove(64);
        assert_eq!(s.first_unset(), Some(64));
        s.remove(0);
        assert_eq!(s.first_unset(), Some(0));
    }

    #[test]
    fn forest_resplits_a_cycle_into_bridges() {
        // C5 is one block; dropping node 0 leaves the path 1-2-3-4.
        let g = Graph::cycle(5);
        let mut f = BlockForest::new(&g, &[0, 1, 2, 3, 4]);
        assert!((0..5).all(|v| !f.is_cut(v)));
        assert_eq!(f.remove(&g, 0), 4);
        let cut: Vec<usize> = (0..5).filter(|&v| f.is_cut(v)).collect();
        assert_eq!(cut, vec![2, 3]);
        // Peel the path from the end: each removal is a leaf case.
        assert_eq!(f.remove(&g, 4), 1);
        assert_eq!(f.remove(&g, 1), 1);
        assert!(!f.is_cut(2) && !f.is_cut(3));
        assert_eq!(f.remove(&g, 2), 1);
        assert_eq!(f.remove(&g, 3), 0, "the last member is isolated");
    }
}
