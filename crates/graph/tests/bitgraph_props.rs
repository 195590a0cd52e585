//! Property tests for the bitset primitives: every packed operation must
//! agree with a naive bit-by-bit reference, including on hostile
//! patterns — empty sets, all-ones, single bits at the 63/64/65 word
//! boundaries, capacities that are not multiples of 64 — and the masked
//! Tarjan must match Tarjan on the materialized induced subgraph.

use mcds_check::gen::{usizes, vecs};
use mcds_check::{Property, TestResult};
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
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

/// Masked Tarjan equals materialize-then-Tarjan on random subsets of
/// random graphs, with the scratch reused across cases (stale timestamps
/// must never leak between masks).
#[test]
fn masked_articulation_matches_induced_reference() {
    Property::new("masked_articulation_matches_induced")
        .cases(96)
        .run(
            &(
                usizes(2..=80),
                vecs((usizes(0..=1023), usizes(0..=1023)), 0..=200),
                vecs(usizes(0..=1023), 0..=60),
            ),
            |(n, raw_edges, raw_mask)| {
                let n = *n;
                let edges: Vec<(usize, usize)> = raw_edges
                    .iter()
                    .map(|&(u, v)| (u % n, v % n))
                    .filter(|&(u, v)| u != v)
                    .collect();
                let g = Graph::from_edges(n, edges);
                let members = mcds_graph::node_set(clamp(n, raw_mask));
                let mask = BitSet::from_nodes(n, &members);
                let mut scratch = ArticulationScratch::new();
                let mut cut = BitSet::new(n);
                masked_articulation_points(&g, &mask, &mut scratch, &mut cut);
                let (sub, map) = subsets::induced_subgraph(&g, &members);
                let want: Vec<usize> = traversal::articulation_points(&sub)
                    .into_iter()
                    .map(|v| map[v])
                    .collect();
                if cut.to_nodes() != want {
                    return TestResult::Fail(format!(
                        "cut set {:?} != induced reference {want:?}",
                        cut.to_nodes()
                    ));
                }
                TestResult::Pass
            },
        );
}
