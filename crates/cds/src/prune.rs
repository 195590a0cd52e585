//! Redundant-node pruning — a validity-preserving post-pass (an extension
//! beyond the paper, ablated in the E6 experiment).
//!
//! A CDS node is *redundant* if removing it leaves the set both dominating
//! and connected.  Pruning scans candidates by ascending degree with id
//! tie-break — low-degree members (leaf-like connectors) are the cheap
//! wins — and removes greedily.  The result is a minimal — not minimum —
//! CDS contained in the input.
//!
//! The scan is incremental: it maintains `cover[u] = |N(u) ∩ S|` counts
//! and the articulation points of `G[S]` (masked Tarjan over a
//! [`mcds_graph::bitgraph::BitSet`]), so a candidate is accepted or
//! rejected in `O(deg v)` and state is patched instead of rebuilt.  It
//! accepts exactly the removals, in the same order, of a from-scratch
//! re-check per candidate (`mcds_check::oracle::prune_scalar`, checked
//! by `tests/kernel_equiv.rs`).

use mcds_graph::bitgraph::{self, ArticulationScratch, BitSet};
use mcds_graph::{node_mask, subsets, RandomAccessGraph};

use crate::CdsError;

/// Greedily removes redundant nodes from a valid CDS.
///
/// Returns the pruned node set (sorted).  The output is *1-minimal*: no
/// single further removal keeps it a CDS.
///
/// # Errors
///
/// Returns the typed violation (from [`crate::check_cds`]) if `set` is
/// not a valid CDS of `g` to begin with.
pub fn prune_cds<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    crate::check_cds(g, set)?;
    let current: Vec<usize> = mcds_graph::node_set(set.iter().copied());
    let mut order = current.clone();
    order.sort_by_key(|&v| (g.degree(v), v));
    Ok(prune_incremental(g, &current, &order))
}

/// The incremental scan: a removal of `v` from the valid CDS `S` keeps it
/// a CDS iff
///
/// 1. `cover[v] ≥ 1` — `v` itself stays dominated,
/// 2. every non-member neighbor `u` of `v` has `cover[u] ≥ 2` — `u`
///    keeps a dominator after losing `v`,
/// 3. `v` is not an articulation point of `G[S]` — connectivity holds
///    (member neighbors stay dominated by membership).
///
/// These are exactly the conditions a from-scratch CDS check tests, so
/// scanning the same order yields the identical set.  `cover` is patched
/// in `O(deg v)` per removal; the masked Tarjan cut set is recomputed
/// only after an *accepted* removal (`O(Σ_{u∈S} deg u)`), not per
/// candidate.
fn prune_incremental<G: RandomAccessGraph>(
    g: &G,
    current: &[usize],
    order: &[usize],
) -> Vec<usize> {
    let n = g.num_nodes();
    let mut in_set = BitSet::from_nodes(n, current);
    let mut size = current.len();
    let mut cover = vec![0u32; n];
    for &v in current {
        for u in g.successors(v) {
            cover[u] += 1;
        }
    }
    let mut scratch = ArticulationScratch::new();
    let mut cut = BitSet::new(n);
    bitgraph::masked_articulation_points(g, &in_set, &mut scratch, &mut cut);
    for &v in order {
        if size <= 1 {
            break;
        }
        if !in_set.contains(v) || cover[v] == 0 || cut.contains(v) {
            continue;
        }
        if g.successors(v).any(|u| !in_set.contains(u) && cover[u] < 2) {
            continue;
        }
        in_set.remove(v);
        size -= 1;
        for u in g.successors(v) {
            cover[u] -= 1;
        }
        bitgraph::masked_articulation_points(g, &in_set, &mut scratch, &mut cut);
        debug_assert!(is_cds_fast(g, &in_set.to_nodes()));
    }
    in_set.to_nodes()
}

/// CDS check without the diagnostic string machinery (hot path).
///
/// The domination side is a word-parallel coverage mask: OR the closed
/// neighborhood of every member into a [`BitSet`] (one scan step per
/// member, flushed to the `prune.scan_steps` counter), then look for the
/// first gap with [`BitSet::first_unset`].
pub(crate) fn is_cds_fast<G: RandomAccessGraph>(g: &G, set: &[usize]) -> bool {
    if set.is_empty() {
        return g.num_nodes() == 0;
    }
    let n = g.num_nodes();
    let mut covered = BitSet::from_nodes(n, set);
    for &v in set {
        for u in g.successors(v) {
            covered.insert(u);
        }
    }
    mcds_obs::counter!("prune.scan_steps", set.len() as u64);
    covered.first_unset().is_none() && subsets::is_connected_subset(g, &node_mask(n, set))
}

/// How many nodes pruning saved on `set` (convenience for experiments).
///
/// # Errors
///
/// Propagates the validity error from [`prune_cds`].
pub fn pruning_savings<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<usize, CdsError> {
    let pruned = prune_cds(g, set)?;
    Ok(set.len() - pruned.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy_cds, waf_cds};
    use mcds_graph::Graph;

    #[test]
    fn pruned_set_is_valid_and_minimal() {
        let g = Graph::cycle(12);
        let cds = waf_cds(&g).unwrap();
        let pruned = prune_cds(&g, cds.nodes()).unwrap();
        assert!(crate::check_cds(&g, &pruned).is_ok());
        assert!(pruned.len() <= cds.len());
        // 1-minimality: removing any single node breaks the CDS.
        for &v in &pruned {
            let smaller: Vec<usize> = pruned.iter().copied().filter(|&u| u != v).collect();
            assert!(
                !is_cds_fast(&g, &smaller) || smaller.is_empty() && g.num_nodes() == 0,
                "node {v} still redundant"
            );
        }
    }

    #[test]
    fn whole_vertex_set_prunes_substantially() {
        let g = Graph::path(10);
        let all: Vec<usize> = (0..10).collect();
        let pruned = prune_cds(&g, &all).unwrap();
        // Optimal CDS of P10 is the 8 interior nodes; pruning from V can
        // only drop the two endpoints.
        assert_eq!(pruned.len(), 8);
    }

    #[test]
    fn invalid_input_is_rejected() {
        let g = Graph::path(5);
        assert!(prune_cds(&g, &[0, 4]).is_err());
        assert!(pruning_savings(&g, &[]).is_err());
    }

    #[test]
    fn complete_graph_prunes_to_one() {
        let g = Graph::complete(8);
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(prune_cds(&g, &all).unwrap().len(), 1);
    }

    #[test]
    fn savings_reported() {
        let g = Graph::complete(5);
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(pruning_savings(&g, &all).unwrap(), 4);
    }

    #[test]
    fn algorithm_outputs_rarely_shrink_much() {
        // Pruning the paper's algorithms' outputs should stay valid; the
        // savings are usually zero or tiny (their outputs are lean).
        for g in [Graph::path(20), Graph::cycle(15)] {
            let cds = greedy_cds(&g).unwrap();
            let pruned = prune_cds(&g, cds.nodes()).unwrap();
            assert!(crate::check_cds(&g, &pruned).is_ok());
        }
    }

    #[test]
    fn fast_check_verdicts() {
        let g = Graph::path(100);
        assert!(!is_cds_fast(&g, &[98, 99]));
        let interior: Vec<usize> = (1..99).collect();
        assert!(is_cds_fast(&g, &interior));
        // Dominating but disconnected.
        let split: Vec<usize> = (1..99).filter(|&v| v != 50).collect();
        assert!(!is_cds_fast(&g, &split));
        assert!(!is_cds_fast(&g, &[]));
        assert!(is_cds_fast(&Graph::empty(0), &[]));
    }

    #[test]
    fn scan_steps_reach_the_obs_counter() {
        mcds_obs::enable();
        let g = Graph::path(50);
        let before = mcds_obs::counter_value("prune.scan_steps");
        let _ = is_cds_fast(&g, &[48, 49]);
        let after = mcds_obs::counter_value("prune.scan_steps");
        // Other parallel tests may bump the counter too; this call must
        // add at least its own steps.
        assert!(after > before, "counter did not move: {before} -> {after}");
    }
}
