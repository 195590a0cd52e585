//! Differential kernel suite for the fault-tolerant family: the m-fold
//! election (a lazy max-heap over gain per unit weight), the weighted
//! connectors (the classic phase-2 merge kernel with weights) and the
//! m-aware prune (the classic prune kernel with the fold and a
//! biconnectivity test as parameters) must be *byte-identical* to the
//! full-rescan references in `mcds_check::oracle` — same dominators,
//! same connectors, same pruned sets, same `Solution`s, same errors.
//!
//! Every configuration runs: m ∈ 1..=3 × {unit, degree, random} weights
//! × biconnect off/on, on every oracle-scale instance, on 200+ seeded
//! UDG deployments and on structured graphs.  Anything short of
//! bit-equality here is a bug, not a tolerance.

use mcds_cds::fault::{
    biconnect_augment, prune_m_cds, weighted_m_fold_dominators, weighted_max_gain_connectors,
};
use mcds_cds::{chvatal_dominating_set, Algorithm, Cds, CdsError, Solver, WeightScheme};
use mcds_check::oracle::{self, oracle_cases};
use mcds_check::Gen;
use mcds_graph::traversal::largest_component;
use mcds_graph::Graph;
use mcds_mis::BfsMis;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::{gen, Udg};

const SCHEMES: [WeightScheme; 3] = [
    WeightScheme::Unit,
    WeightScheme::Degree,
    WeightScheme::Random(7),
];

/// The phases and the prune, kernel against reference, for every
/// configuration; the prune also runs on the fattest input, `V`.
fn assert_phases_match_oracle(g: &Graph, label: &str) {
    if g.num_nodes() < 2 {
        return;
    }
    assert_eq!(
        chvatal_dominating_set(g),
        oracle::chvatal_dominating_set_scalar(g),
        "{label}: chvatal_dominating_set diverged"
    );
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    for scheme in SCHEMES {
        let w = scheme.weights(g);
        for m in 1..=3 {
            let tag = format!("{label} {scheme:?} m={m}");
            let doms = weighted_m_fold_dominators(g, &w, m);
            assert_eq!(
                doms,
                oracle::weighted_m_fold_dominators_scalar(g, &w, m),
                "{tag}: election diverged"
            );
            let doms = doms.expect("valid weights");
            let conn = weighted_max_gain_connectors(g, &doms, &w);
            assert_eq!(
                conn,
                oracle::weighted_max_gain_connectors_scalar(g, &doms, &w),
                "{tag}: connectors diverged"
            );
            let backbone = mcds_graph::node_set(doms.iter().chain(&conn.unwrap()).copied());
            for biconnect in [false, true] {
                // An augmentation failure leaves the unaugmented backbone,
                // which both sides must reject with the same error.
                let input = match biconnect {
                    true => biconnect_augment(g, &backbone).unwrap_or_else(|_| backbone.clone()),
                    false => backbone.clone(),
                };
                for (set, what) in [(&input, "backbone"), (&all, "V")] {
                    assert_eq!(
                        prune_m_cds(g, set, m, biconnect),
                        oracle::prune_m_cds_scalar(g, set, m, biconnect),
                        "{tag} biconnect={biconnect}: prune diverged on {what}"
                    );
                }
            }
        }
    }
}

/// What `Solver` with `.m(m).weight_scheme(scheme).biconnect(b)`, prune
/// and verify on, must return: the references stand in for the
/// election, the connectors and the prune, with the same role
/// filtering.  `(m = 1, unit)` keeps the classic phases.
fn oracle_solution(
    g: &Graph,
    m: usize,
    scheme: WeightScheme,
    biconnect: bool,
) -> Result<(Cds, Option<usize>), CdsError> {
    let (dominators, mut connectors) = if m > 1 || scheme != WeightScheme::Unit {
        let w = scheme.weights(g);
        let doms = oracle::weighted_m_fold_dominators_scalar(g, &w, m)?;
        let conn = oracle::weighted_max_gain_connectors_scalar(g, &doms, &w)?;
        (doms, conn)
    } else {
        let mis = BfsMis::compute(g, 0).mis().to_vec();
        let conn = oracle::max_gain_connectors_scalar(g, &mis)?;
        (mis, conn)
    };
    if biconnect {
        let nodes = mcds_graph::node_set(dominators.iter().chain(&connectors).copied());
        let augmented = biconnect_augment(g, &nodes)?;
        let dom_mask = mcds_graph::node_mask(g.num_nodes(), &dominators);
        connectors = augmented.into_iter().filter(|&v| !dom_mask[v]).collect();
    }
    let full = Cds::new(dominators, connectors);
    let kept = oracle::prune_m_cds_scalar(g, full.nodes(), m, biconnect)?;
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

/// Every fault-family configuration of the `Solver` agrees with
/// [`oracle_solution`].  Returns how many `(2, m)` solves succeeded.
fn assert_solver_matches_oracle(g: &Graph, label: &str) -> usize {
    let mut biconnected = 0;
    for scheme in SCHEMES {
        for m in 1..=3 {
            for biconnect in [false, true] {
                let got = Solver::new(Algorithm::GreedyConnect)
                    .m(m)
                    .weight_scheme(scheme)
                    .biconnect(biconnect)
                    .prune(true)
                    .verify(true)
                    .solve(g)
                    .map(|s| (s.cds().clone(), s.pruned_from()));
                assert_eq!(
                    got,
                    oracle_solution(g, m, scheme, biconnect),
                    "{label} {scheme:?} m={m} biconnect={biconnect}: solutions diverged"
                );
                biconnected += usize::from(biconnect && got.is_ok());
            }
        }
    }
    biconnected
}

fn giant_graph(points: Vec<mcds_geom::Point>) -> Option<Udg> {
    let udg = Udg::build(points);
    let giant = largest_component(udg.graph());
    (giant.len() >= 2).then(|| udg.restricted_to(&giant))
}

/// Every `mcds-check` oracle case (≤ 18 nodes) agrees with the
/// references, phase by phase and through the `Solver`.
#[test]
fn oracle_cases_match_fault_references() {
    let gen = oracle_cases(18);
    let (mut checked, mut biconnected) = (0usize, 0usize);
    for seed in 0..150u64 {
        let mut rng = StdRng::from_stream(seed, 0xfa17);
        let case = gen.generate(&mut rng);
        let Some(sub) = giant_graph(case.points) else {
            continue;
        };
        checked += 1;
        let label = format!("oracle seed {seed} {:?}", case.kind);
        assert_phases_match_oracle(sub.graph(), &label);
        biconnected += assert_solver_matches_oracle(sub.graph(), &label);
    }
    assert!(checked >= 100, "only {checked} usable oracle cases");
    assert!(biconnected >= 300, "only {biconnected} (2, m) solves ran");
}

/// 200+ seeded uniform/clustered/corridor deployments (40..160 nodes):
/// every fault-family `Solution` equals the composition of the
/// references (election, connectors, augmentation, prune).
#[test]
fn fault_family_matches_references_on_200_udg_instances() {
    let (mut checked, mut biconnected) = (0usize, 0usize);
    for family in ["uniform", "clustered", "corridor"] {
        for seed in 0..70u64 {
            let mut rng = StdRng::from_stream(seed, 0xfa18);
            let n = 40 + (seed as usize % 7) * 20;
            // Denser than the classic suite's deployments, so that many
            // giants are biconnected and the (2, m) prune really runs.
            let side = (n as f64 * std::f64::consts::PI / 16.0).sqrt();
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
            let label = format!("{family} seed {seed} n {n}");
            biconnected += assert_solver_matches_oracle(sub.graph(), &label);
        }
    }
    assert!(checked >= 200, "only {checked} usable instances");
    assert!(biconnected >= 900, "only {biconnected} (2, m) solves ran");
}

/// Hubs, cliques, cycles, paths (every interior node a cut vertex) and
/// word-boundary sizes.
#[test]
fn structured_graphs_match_fault_references() {
    let star = Graph::from_edges(65, (1..65).map(|v| (0, v)).collect::<Vec<_>>());
    let wheel = Graph::from_edges(
        21,
        (1..21)
            .flat_map(|v| [(0, v), (v, v % 20 + 1)])
            .collect::<Vec<_>>(),
    );
    for (g, label) in [
        (Graph::path(64), "path64"),
        (Graph::cycle(65), "cycle65"),
        (Graph::complete(12), "k12"),
        (star, "star65"),
        (wheel, "wheel21"),
    ] {
        assert_phases_match_oracle(&g, label);
        assert_solver_matches_oracle(&g, label);
    }
}

/// Error values and degenerate inputs are part of the contract.
#[test]
fn fault_errors_and_degenerate_inputs_match_references() {
    let g = Graph::cycle(8);
    // Malformed weights, empty seeds, the empty graph.
    assert_eq!(
        weighted_m_fold_dominators(&g, &[1, 2], 2),
        oracle::weighted_m_fold_dominators_scalar(&g, &[1, 2], 2)
    );
    let unit = [1u64; 8];
    for (seed, w) in [(&[][..], &unit[..]), (&[0][..], &[1][..])] {
        let got = weighted_max_gain_connectors(&g, seed, w);
        assert!(matches!(got, Err(CdsError::InvalidSet(_))));
        assert_eq!(
            got,
            oracle::weighted_max_gain_connectors_scalar(&g, seed, w)
        );
    }
    let empty = Graph::empty(0);
    assert_eq!(
        weighted_max_gain_connectors(&empty, &[], &[]),
        Err(CdsError::EmptyGraph)
    );
    assert_eq!(chvatal_dominating_set(&empty), Vec::<usize>::new());
    // A seed that g cannot connect fails in the path fallback; a seed
    // that is already connected needs nothing, connected g or not.
    let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
    let unit4 = [1u64; 4];
    for seed in [vec![0, 2], vec![0, 1]] {
        assert_eq!(
            weighted_max_gain_connectors(&split, &seed, &unit4),
            oracle::weighted_max_gain_connectors_scalar(&split, &seed, &unit4)
        );
    }
    // Zero weights rank first and tie by id.
    let mut zeros = vec![3u64; 8];
    zeros[2] = 0;
    zeros[5] = 0;
    for m in 0..=3 {
        assert_eq!(
            weighted_m_fold_dominators(&g, &zeros, m),
            oracle::weighted_m_fold_dominators_scalar(&g, &zeros, m)
        );
    }
    // Folds past u32::MAX: m exceeds every degree, so all nodes are
    // elected, and gains of m + deg must neither overflow nor wrap.
    let wheel = Graph::from_edges(
        9,
        (1..9)
            .flat_map(|v| [(0, v), (v, v % 8 + 1)])
            .collect::<Vec<_>>(),
    );
    for w in [
        WeightScheme::Degree.weights(&wheel),
        WeightScheme::Random(3).weights(&wheel),
    ] {
        for m in [u32::MAX as usize, u32::MAX as usize + 1, 1 << 40] {
            assert_eq!(
                weighted_m_fold_dominators(&wheel, &w, m),
                oracle::weighted_m_fold_dominators_scalar(&wheel, &w, m),
                "wheel m={m}"
            );
        }
    }
    let doms = weighted_m_fold_dominators(&g, &zeros, 1).unwrap();
    assert_eq!(
        weighted_max_gain_connectors(&g, &doms, &zeros),
        oracle::weighted_max_gain_connectors_scalar(&g, &doms, &zeros)
    );
    // Invalid prune inputs, and m = 0 (connectivity only, swept to a
    // fixpoint).
    let path = Graph::path(7);
    let all: Vec<usize> = (0..7).collect();
    for (set, m, biconnect) in [
        (vec![1, 3], 1, false),
        (vec![1, 2, 3, 4, 5], 2, false),
        (all.clone(), 1, true),
        (vec![], 1, false),
        (all.clone(), 0, false),
        (vec![1, 2, 3], 0, false),
    ] {
        assert_eq!(
            prune_m_cds(&path, &set, m, biconnect),
            oracle::prune_m_cds_scalar(&path, &set, m, biconnect),
            "{set:?} m={m} biconnect={biconnect}"
        );
    }
    // At m = 0 one pass is not a fixpoint: the path 2-0-1-3 scans its
    // cut vertices 0 and 1 first (2 and 3 have extra neighbors), drops
    // the ends, and only a second pass can drop 0.
    let hubs = Graph::from_edges(8, [(2, 0), (0, 1), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]);
    assert_eq!(prune_m_cds(&hubs, &[0, 1, 2, 3], 0, false), Ok(vec![1]));
    assert_eq!(
        prune_m_cds(&hubs, &[0, 1, 2, 3], 0, false),
        oracle::prune_m_cds_scalar(&hubs, &[0, 1, 2, 3], 0, false)
    );
    let all: Vec<usize> = (0..9).collect();
    for m in 0..=3 {
        for biconnect in [false, true] {
            assert_eq!(
                prune_m_cds(&wheel, &all, m, biconnect),
                oracle::prune_m_cds_scalar(&wheel, &all, m, biconnect),
                "wheel m={m} biconnect={biconnect}"
            );
        }
    }
}

/// The n = 1 500 instance that `scripts/verify.sh` also diffs by digest
/// (`mcds-cli gen --n 1500 --side 21.7 --seed 32 --connected`).  Its
/// giant has cut vertices, so only the (1, m) configurations run.
#[test]
fn n1500_instance_matches_fault_references() {
    let mut rng = StdRng::seed_from_u64(32);
    let udg = gen::connected_uniform(&mut rng, 1500, 21.7, 100).expect("connected instance");
    let g = udg.graph();
    assert_eq!(g.num_edges(), 7223, "instance drifted from the CLI recipe");
    for scheme in SCHEMES {
        for m in 1..=3 {
            let got = Solver::new(Algorithm::GreedyConnect)
                .m(m)
                .weight_scheme(scheme)
                .prune(true)
                .verify(true)
                .solve(g)
                .map(|s| (s.cds().clone(), s.pruned_from()));
            assert_eq!(
                got,
                oracle_solution(g, m, scheme, false),
                "n1500 {scheme:?} m={m}: solutions diverged"
            );
        }
    }
}
