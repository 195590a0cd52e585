//! Property tests for the bitset primitives: every packed operation must
//! agree with a naive bit-by-bit reference, including on hostile
//! patterns — empty sets, all-ones, single bits at the 63/64/65 word
//! boundaries, capacities that are not multiples of 64 — and the block
//! forest's cut set must match Tarjan on the materialized induced
//! subgraph after every removal.

use mcds_check::gen::{usizes, vecs};
use mcds_check::{Property, TestResult};
use mcds_graph::bitgraph::{BitSet, BlockForest};
use mcds_graph::{subsets, traversal, Graph};

/// Naive boolean-vector model of a [`BitSet`].
fn model(bits: usize, nodes: &[usize]) -> Vec<bool> {
    let mut m = vec![false; bits];
    for &v in nodes {
        m[v] = true;
    }
    m
}

/// Clamps generated ids into `0..bits` (the generators don't know the
/// capacity drawn alongside them).
fn clamp(bits: usize, raw: &[usize]) -> Vec<usize> {
    raw.iter().map(|&v| v % bits).collect()
}

#[test]
fn membership_and_gap_match_naive_model() {
    Property::new("bitset_matches_bool_model").cases(128).run(
        &(usizes(1..=300), vecs(usizes(0..=1023), 0..=400)),
        |(bits, raw)| {
            let bits = *bits;
            let nodes = clamp(bits, raw);
            let m = model(bits, &nodes);
            let s = BitSet::from_nodes(bits, &nodes);
            if (0..bits).any(|i| s.contains(i) != m[i]) {
                return TestResult::Fail("membership diverged".into());
            }
            let naive_gap = m.iter().position(|&b| !b);
            if s.first_unset() != naive_gap {
                return TestResult::Fail(format!(
                    "first_unset {:?} != naive {naive_gap:?}",
                    s.first_unset()
                ));
            }
            let naive_ones: Vec<usize> = (0..bits).filter(|&i| m[i]).collect();
            if s.to_nodes() != naive_ones {
                return TestResult::Fail("iter_ones diverged".into());
            }
            TestResult::Pass
        },
    );
}

/// The explicitly hostile patterns from the issue: empty, all-ones, a
/// single bit at each side of a word boundary, capacities off the
/// 64-bit grid.
#[test]
fn hostile_patterns_are_exact() {
    for bits in [1usize, 63, 64, 65, 127, 128, 129, 200] {
        let empty = BitSet::new(bits);
        assert_eq!(empty.first_unset(), Some(0), "bits={bits}");
        assert_eq!(empty.to_nodes(), Vec::<usize>::new());
        let all: Vec<usize> = (0..bits).collect();
        let full = BitSet::from_nodes(bits, &all);
        assert_eq!(full.first_unset(), None, "bits={bits}");
        assert_eq!(full.to_nodes(), all, "bits={bits}");
        let mut emptied = full.clone();
        for &v in &all {
            emptied.remove(v);
        }
        assert_eq!(emptied, empty, "bits={bits}");
    }
    for single in [63usize, 64, 65] {
        let s = BitSet::from_nodes(130, &[single]);
        assert!(s.contains(single));
        assert!(!s.contains(single - 1) && !s.contains(single + 1));
        assert_eq!(s.to_nodes(), vec![single]);
        assert_eq!(s.first_unset(), Some(0));
    }
}

/// The forest's cut set, in ascending order, over the current members.
fn forest_cuts(forest: &BlockForest, members: &[usize]) -> Vec<usize> {
    members
        .iter()
        .copied()
        .filter(|&v| forest.is_cut(v))
        .collect()
}

/// Articulation points of the materialized `G[members]`, in `g`'s ids.
fn induced_cuts(g: &Graph, members: &[usize]) -> Vec<usize> {
    let (sub, map) = subsets::induced_subgraph(g, members);
    let mut cuts: Vec<usize> = traversal::articulation_points(&sub)
        .into_iter()
        .map(|v| map[v])
        .collect();
    cuts.sort_unstable();
    cuts
}

/// Removes non-cut members of `g` one at a time — the member at
/// `pick % (number of non-cut members)` for each pick, then the
/// smallest non-cut member once the picks run out — and checks the
/// forest's cut set against the induced reference after the build and
/// after every removal.  Stops when no member is left.
fn check_removals(g: &Graph, members: &[usize], picks: &[usize]) -> Result<(), String> {
    let mut members = mcds_graph::node_set(members.iter().copied());
    let mut forest = BlockForest::new(g, &members);
    let mut step = 0usize;
    loop {
        let got = forest_cuts(&forest, &members);
        let want = induced_cuts(g, &members);
        if got != want {
            return Err(format!(
                "after {step} removals, members {members:?}: cut set {got:?} != induced reference {want:?}"
            ));
        }
        let free: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&v| !forest.is_cut(v))
            .collect();
        let Some(&first) = free.first() else {
            return Ok(());
        };
        let v = picks.get(step).map_or(first, |&p| free[p % free.len()]);
        forest.remove(g, v);
        members.retain(|&u| u != v);
        step += 1;
    }
}

/// The block forest tracks the articulation points of `G[S]` exactly
/// while random non-cut members leave random subsets of random graphs
/// (connected or not, with isolated members).
#[test]
fn forest_cut_set_matches_induced_reference_under_removals() {
    Property::new("forest_matches_induced_under_removals")
        .cases(96)
        .run(
            &(
                usizes(2..=80),
                vecs((usizes(0..=1023), usizes(0..=1023)), 0..=200),
                vecs(usizes(0..=1023), 0..=60),
                vecs(usizes(0..=1023), 0..=60),
            ),
            |(n, raw_edges, raw_members, picks)| {
                let n = *n;
                let edges: Vec<(usize, usize)> = raw_edges
                    .iter()
                    .map(|&(u, v)| (u % n, v % n))
                    .filter(|&(u, v)| u != v)
                    .collect();
                let g = Graph::from_edges(n, edges);
                match check_removals(&g, &clamp(n, raw_members), picks) {
                    Ok(()) => TestResult::Pass,
                    Err(e) => TestResult::Fail(e),
                }
            },
        );
}

/// Random removals from every node of dense-ish random graphs: large
/// blocks that re-split many times, the case random subsets rarely hit.
#[test]
fn forest_matches_reference_when_large_blocks_resplit() {
    Property::new("forest_resplits_large_blocks").cases(48).run(
        &(
            usizes(20..=90),
            vecs((usizes(0..=1023), usizes(0..=1023)), 100..=400),
            vecs(usizes(0..=1023), 0..=90),
        ),
        |(n, raw_edges, picks)| {
            let n = *n;
            let edges: Vec<(usize, usize)> = raw_edges
                .iter()
                .map(|&(u, v)| (u % n, v % n))
                .filter(|&(u, v)| u != v)
                .collect();
            let g = Graph::from_edges(n, edges);
            let all: Vec<usize> = (0..n).collect();
            match check_removals(&g, &all, picks) {
                Ok(()) => TestResult::Pass,
                Err(e) => TestResult::Fail(e),
            }
        },
    );
}

/// Removing the pendant of a leaf block turns its cut vertex back into
/// a non-cut one: two triangles sharing node 2, plus 5 hanging off 4.
#[test]
fn forest_leaf_removal_uncuts_its_neighbor() {
    let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]);
    let all: Vec<usize> = (0..6).collect();
    let mut forest = BlockForest::new(&g, &all);
    assert_eq!(forest_cuts(&forest, &all), vec![2, 4]);
    assert_eq!(forest.remove(&g, 5), 1);
    assert_eq!(forest_cuts(&forest, &[0, 1, 2, 3, 4]), vec![2]);
    // Every non-cut node removed first, then the rest in id order.
    check_removals(&g, &all, &[]).unwrap();
    for first in 0..6 {
        check_removals(&g, &all, &[first]).unwrap();
    }
}

/// A cycle is one block; removing any node leaves a path whose interior
/// nodes are all cut vertices, then the path peels from its ends.
#[test]
fn forest_cycle_becomes_a_path() {
    for n in [3usize, 4, 9, 64] {
        let g = Graph::cycle(n);
        let all: Vec<usize> = (0..n).collect();
        let mut forest = BlockForest::new(&g, &all);
        assert!(forest_cuts(&forest, &all).is_empty());
        assert_eq!(forest.remove(&g, 0), n - 1);
        let rest: Vec<usize> = (1..n).collect();
        let interior: Vec<usize> = (2..n - 1).collect();
        assert_eq!(forest_cuts(&forest, &rest), interior, "C{n}");
        for pick in 0..n.min(8) {
            check_removals(&g, &all, &[pick, pick + 1, 3 * pick]).unwrap();
        }
    }
}

/// K_n stays one block under every removal until a single edge is left.
#[test]
fn forest_complete_graph_never_cuts() {
    let n = 12;
    let g = Graph::complete(n);
    let mut members: Vec<usize> = (0..n).collect();
    let mut forest = BlockForest::new(&g, &members);
    for v in 0..n {
        assert!(forest_cuts(&forest, &members).is_empty());
        assert_eq!(forest.remove(&g, v), n - v - 1);
        members.retain(|&u| u != v);
    }
    check_removals(&g, &(0..n).collect::<Vec<_>>(), &[5, 3, 7, 1]).unwrap();
}

/// The 63/64/65-node word-boundary graphs from the kernel suite: paths,
/// cycles and a star with its hub at node 0.
#[test]
fn forest_word_boundary_graphs() {
    for n in [63usize, 64, 65] {
        let star = Graph::from_edges(n, (1..n).map(|v| (0, v)).collect::<Vec<_>>());
        let all: Vec<usize> = (0..n).collect();
        for g in [Graph::path(n), Graph::cycle(n), star] {
            check_removals(&g, &all, &[]).unwrap();
            check_removals(&g, &all, &[n - 1, n / 2, 7, 63, 64]).unwrap();
        }
    }
}
