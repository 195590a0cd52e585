//! Differential kernel suite: the production phase-2 and prune kernels
//! (a lazy bucket queue for the max-gain argmax, incremental cover
//! counts + a block-cut forest for the prune scan) must be
//! *byte-identical* to the scalar references in `mcds_check::oracle` —
//! same connector sequences, same gain traces, same pruned sets, same
//! `Solution`s, same errors — on every oracle-scale instance, on 200+
//! seeded UDG deployments, on word-boundary graphs, on a 1 500-node
//! instance and on a 3 000-node WAF backbone with a giant block.
//!
//! Every check goes through the public entry points, so it tests the
//! path production runs at that size.  Anything short of bit-equality
//! here is a bug, not a tolerance.

use mcds_cds::connect::{gain_trace, max_gain_connectors, max_gain_then_paths};
use mcds_cds::prune::prune_cds;
use mcds_cds::{Algorithm, Cds, CdsError, Solver};
use mcds_check::oracle::{self, oracle_cases};
use mcds_check::Gen;
use mcds_graph::bitgraph::BlockForest;
use mcds_graph::traversal::largest_component;
use mcds_graph::Graph;
use mcds_mis::BfsMis;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

/// Runs both phase-2 routines and the prune post-pass on `g` and
/// asserts they equal the scalar references.
fn assert_matches_oracle(g: &Graph, label: &str) {
    if g.num_nodes() < 2 {
        return;
    }
    // Phase 2 from the paper's BFS-first-fit MIS seed.
    let mis = BfsMis::compute(g, 0).mis().to_vec();
    let got = max_gain_connectors(g, &mis);
    let want = oracle::max_gain_connectors_scalar(g, &mis);
    assert_eq!(got, want, "{label}: max_gain_connectors diverged");
    if let (Ok(got), Ok(want)) = (&got, &want) {
        assert_eq!(
            gain_trace(g, &mis, got),
            gain_trace(g, &mis, want),
            "{label}: gain traces diverged"
        );
    }
    // The stall-tolerant variant from a weaker seed (set-cover
    // dominators can sit 3 hops apart and force the path fallback).
    let weak = mcds_cds::chvatal_dominating_set(g);
    assert_eq!(
        max_gain_then_paths(g, &weak),
        oracle::max_gain_then_paths_scalar(g, &weak),
        "{label}: max_gain_then_paths diverged"
    );
    // Prune from a lean input (the greedy CDS) and from the fattest
    // possible input (every vertex, if V is connected-dominating).
    let cds = mcds_cds::greedy_cds(g).expect("connected instance solves");
    assert_eq!(
        prune_cds(g, cds.nodes()),
        oracle::prune_scalar(g, cds.nodes()),
        "{label}: prune_cds diverged on greedy CDS"
    );
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    assert_eq!(
        prune_cds(g, &all),
        oracle::prune_scalar(g, &all),
        "{label}: prune_cds diverged on V"
    );
}

/// What `Solver::new(alg).prune(true).verify(true)` must return: the
/// solver's own phase 1, with the scalar references standing in for
/// the max-gain phase 2 and the prune, and the same role filtering.
fn oracle_solution(g: &Graph, alg: Algorithm) -> Result<(Cds, Option<usize>), CdsError> {
    let unpruned = Solver::new(alg).verify(true).solve(g)?.into_cds();
    let dominators = unpruned.dominators().to_vec();
    let connectors = match alg {
        Algorithm::GreedyConnect => oracle::max_gain_connectors_scalar(g, &dominators)?,
        Algorithm::ArbitraryMis => oracle::max_gain_then_paths_scalar(g, &dominators)?,
        _ => unpruned.connectors().to_vec(),
    };
    let full = Cds::new(dominators, connectors);
    let kept = oracle::prune_scalar(g, full.nodes())?;
    if kept.len() == full.len() {
        return Ok((full, None));
    }
    let keep = |v: &&usize| kept.binary_search(v).is_ok();
    let pruned = Cds::new(
        full.dominators().iter().filter(keep).copied().collect(),
        full.connectors().iter().filter(keep).copied().collect(),
    );
    Ok((pruned, Some(full.len())))
}

/// Every construction, prune on, agrees with [`oracle_solution`].
fn assert_solver_matches_oracle(g: &Graph, label: &str) {
    for alg in Algorithm::ALL {
        let got = Solver::new(alg)
            .prune(true)
            .verify(true)
            .solve(g)
            .map(|s| (s.cds().clone(), s.pruned_from()));
        assert_eq!(
            got,
            oracle_solution(g, alg),
            "{label} {alg:?}: solutions diverged"
        );
    }
}

/// The giant-component UDG of a seeded deployment, or `None` if it is
/// too small to make a CDS instance.
fn giant_graph(points: Vec<mcds_geom::Point>) -> Option<Udg> {
    let udg = Udg::build(points);
    let giant = largest_component(udg.graph());
    (giant.len() >= 2).then(|| udg.restricted_to(&giant))
}

/// Every `mcds-check` oracle case (the ≤18-node instances the exact
/// differential suite uses) agrees with the references on connectors,
/// gain traces, stall behavior, and pruning.
#[test]
fn oracle_cases_match_references() {
    let gen = oracle_cases(18);
    let mut checked = 0usize;
    for seed in 0..150u64 {
        let mut rng = StdRng::from_stream(seed, 0xb175);
        let case = gen.generate(&mut rng);
        let Some(sub) = giant_graph(case.points) else {
            continue;
        };
        checked += 1;
        assert_matches_oracle(sub.graph(), &format!("oracle seed {seed} {:?}", case.kind));
    }
    assert!(checked >= 100, "only {checked} usable oracle cases");
}

/// 200+ seeded uniform/clustered/corridor deployments at realistic sizes
/// run through the full `Solver` (all five constructions, prune on); the
/// CDS nodes, phase roles and `pruned_from` must equal the reference
/// composition.
#[test]
fn solver_solutions_match_references_on_200_udg_instances() {
    let mut checked = 0usize;
    for family in ["uniform", "clustered", "corridor"] {
        for seed in 0..70u64 {
            let mut rng = StdRng::from_stream(seed, 0x817e);
            let n = 40 + (seed as usize % 7) * 20; // 40..160
            let side = (n as f64 * std::f64::consts::PI / 12.0).sqrt();
            let points = match family {
                "uniform" => gen::uniform_in_square(&mut rng, n, side),
                "clustered" => {
                    let clusters = (n / 20).max(2);
                    gen::clustered(&mut rng, clusters, n / clusters, side, 0.8)
                }
                "corridor" => gen::corridor(&mut rng, n, 3.0 * side, side / 3.0),
                _ => unreachable!(),
            };
            let Some(sub) = giant_graph(points) else {
                continue;
            };
            checked += 1;
            assert_solver_matches_oracle(sub.graph(), &format!("{family} seed {seed} n {n}"));
        }
    }
    assert!(checked >= 200, "only {checked} usable instances");
}

/// The error values are part of the contract: a seed without the 2-hop
/// separation property must produce the identical `Stalled` error, the
/// path fallback must pick identical nodes, and bad graphs and invalid
/// prune inputs must fail the same way.
#[test]
fn stall_and_error_cases_match_references() {
    let g = Graph::path(7);
    let got = max_gain_connectors(&g, &[0, 6]);
    assert!(matches!(got, Err(CdsError::Stalled(_))));
    assert_eq!(got, oracle::max_gain_connectors_scalar(&g, &[0, 6]));
    assert_eq!(
        max_gain_then_paths(&g, &[0, 6]),
        oracle::max_gain_then_paths_scalar(&g, &[0, 6])
    );
    // Three-hop arbitrary MIS: merge partially, then path out.
    let g = Graph::path(6);
    assert_eq!(
        max_gain_then_paths(&g, &[0, 3, 5]),
        oracle::max_gain_then_paths_scalar(&g, &[0, 3, 5])
    );
    // Empty seed: zero components, nothing to connect.
    assert_eq!(
        max_gain_connectors(&g, &[]),
        oracle::max_gain_connectors_scalar(&g, &[])
    );
    for bad in [Graph::empty(0), Graph::from_edges(4, [(0, 1), (2, 3)])] {
        let seed: Vec<usize> = (0..bad.num_nodes().min(1)).collect();
        let got = max_gain_connectors(&bad, &seed);
        assert!(got.is_err());
        assert_eq!(got, oracle::max_gain_connectors_scalar(&bad, &seed));
        assert_eq!(
            max_gain_then_paths(&bad, &seed),
            oracle::max_gain_then_paths_scalar(&bad, &seed)
        );
    }
    // Invalid prune inputs: not dominating, then dominating but split.
    let g = Graph::path(5);
    for set in [vec![0, 4], vec![1, 3], vec![]] {
        let got = prune_cds(&g, &set);
        assert!(got.is_err());
        assert_eq!(got, oracle::prune_scalar(&g, &set));
    }
}

/// Hostile structured topologies: hubs, cliques, cycles, and word-
/// boundary sizes (63/64/65 nodes) where a bitset padding bug would bite.
#[test]
fn structured_graphs_match_references() {
    let star = Graph::from_edges(65, (1..65).map(|v| (0, v)).collect::<Vec<_>>());
    for (g, label) in [
        (Graph::path(63), "path63"),
        (Graph::path(64), "path64"),
        (Graph::path(65), "path65"),
        (Graph::cycle(64), "cycle64"),
        (Graph::complete(20), "k20"),
        (star, "star65"),
    ] {
        assert_matches_oracle(&g, label);
        assert_solver_matches_oracle(&g, label);
    }
}

/// The n = 1 500 instance that `scripts/verify.sh` also diffs by digest
/// (`mcds-cli gen --n 1500 --side 21.7 --seed 32 --connected`): the size
/// that packed adjacency rows used to serve.
#[test]
fn n1500_instance_matches_references() {
    let mut rng = StdRng::seed_from_u64(32);
    let udg = gen::connected_uniform(&mut rng, 1500, 21.7, 100).expect("connected instance");
    let g = udg.graph();
    assert_eq!(g.num_edges(), 7223, "instance drifted from the CLI recipe");
    assert_matches_oracle(g, "n1500");
    assert_solver_matches_oracle(g, "n1500");
}

/// A WafTree backbone with one giant block.  Greedy blocks stay tiny
/// (≤ 11 nodes up to n = 20k), so the cases above almost never re-split
/// a large block; WAF's unpruned CDS on a sparse uniform deployment has
/// a block of hundreds of nodes, re-split on every removal inside it.
#[test]
fn waf_giant_block_prune_matches_references() {
    let mut rng = StdRng::seed_from_u64(1);
    let udg = gen::connected_uniform(&mut rng, 3000, 28.0, 100).expect("connected instance");
    let g = udg.graph();
    assert_eq!(g.num_edges(), 17687, "instance drifted from its recipe");
    let cds = Solver::new(Algorithm::WafTree)
        .verify(true)
        .solve(g)
        .expect("connected instance solves")
        .into_cds();
    let largest = BlockForest::new(g, cds.nodes()).largest_block();
    assert!(largest > 500, "largest block has only {largest} nodes");
    assert_eq!(
        prune_cds(g, cds.nodes()),
        oracle::prune_scalar(g, cds.nodes()),
        "prune_cds diverged on the giant-block WAF CDS"
    );
    let got = Solver::new(Algorithm::WafTree)
        .prune(true)
        .verify(true)
        .solve(g)
        .map(|s| (s.cds().clone(), s.pruned_from()));
    assert_eq!(got, oracle_solution(g, Algorithm::WafTree));
}
