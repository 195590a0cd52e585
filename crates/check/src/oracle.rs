//! The differential oracle: random small UDGs solved exactly and
//! checked against every approximation algorithm.
//!
//! The paper's guarantees are *relative* to the exact optimum `γ_c`:
//! Theorem 8 bounds the WAF construction by `7⅓·γ_c` and Theorem 10
//! bounds the new greedy-connector construction by `6 7/18·γ_c`.  On
//! instances small enough for [`mcds_exact::brute`] those right-hand
//! sides are computable, so the bounds become machine-checkable
//! properties rather than plotted trends.  One oracle case checks, on
//! the giant component of a random deployment:
//!
//! * the brute-force optimum agrees with the branch & bound solver
//!   (differential check *inside* `mcds-exact`),
//! * every [`Algorithm`] produces a verified CDS no smaller than the
//!   optimum,
//! * the WAF and greedy-connector sizes respect Theorems 8 and 10,
//! * the first-fit MIS is no larger than the exact independence number,
//!   which itself respects Corollary 7 (`α ≤ 11/3·γ_c + 1`),
//! * pruning is idempotent and validity-preserving.
//!
//! The module also holds the scalar references for the production
//! phase-2 and prune kernels of `mcds-cds` ([`max_gain_connectors_scalar`],
//! [`max_gain_then_paths_scalar`], [`prune_scalar`], [`is_cds_scalar`])
//! and for the fault family's election, connectors and prune
//! ([`weighted_m_fold_dominators_scalar`], [`chvatal_dominating_set_scalar`],
//! [`weighted_max_gain_connectors_scalar`], [`prune_m_cds_scalar`]):
//! the original full-rescan loops, which the incremental kernels must
//! match byte for byte (`crates/cds/tests/kernel_equiv.rs`,
//! `crates/cds/tests/fault_equiv.rs`, E25).

use mcds_cds::{connect, fault, prune, Algorithm, CdsError};
use mcds_exact::brute;
use mcds_geom::Point;
use mcds_graph::{
    node_mask, properties, subsets, traversal::largest_component, Graph, RandomAccessGraph,
};
use mcds_mis::{bounds, BfsMis};
use mcds_rng::rngs::StdRng;
use mcds_rng::Rng;
use mcds_udg::{gen as deploy, Udg};

use crate::gen::Gen;
use crate::runner::TestResult;

/// Hard cap on oracle instance size: beyond this the exact solvers stop
/// being "obviously correct references" on a test budget.
pub const MAX_ORACLE_NODES: usize = 18;

/// Node count up to which the `O(2ⁿ)` brute solver is also run and
/// cross-checked against branch & bound.
pub const MAX_BRUTE_NODES: usize = 16;

/// The deployment families the differential suite draws from — the same
/// three regimes the experiment harness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Uniform in a square: the literature's standard setup.
    Uniform,
    /// Clustered hotspots: small MISs, stresses connector selection.
    Clustered,
    /// Long thin corridor: large diameter, stresses `γ_c` and the chain
    /// worst cases.
    Corridor,
}

impl Deployment {
    /// All deployment families, in generation order.
    pub const ALL: [Deployment; 3] = [
        Deployment::Uniform,
        Deployment::Clustered,
        Deployment::Corridor,
    ];
}

/// One differential-oracle input: a deployment family and its points.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCase {
    /// The family the points were drawn from (kept through shrinking,
    /// so a shrunk counterexample still names its regime).
    pub kind: Deployment,
    /// The deployed points; the oracle works on the giant component of
    /// their unit-disk graph.
    pub points: Vec<Point>,
}

/// Generator of [`OracleCase`]s with at most `max_n` points
/// (`max_n ≤ 18`); shrinks by dropping points.
#[derive(Debug, Clone)]
pub struct OracleGen {
    max_n: usize,
}

/// Oracle cases over all three deployment families with `4..=max_n`
/// points.
///
/// # Panics
///
/// Panics if `max_n` exceeds [`MAX_ORACLE_NODES`] or is below 4.
pub fn oracle_cases(max_n: usize) -> OracleGen {
    assert!(
        (4..=MAX_ORACLE_NODES).contains(&max_n),
        "oracle instances need 4..=18 points, got {max_n}"
    );
    OracleGen { max_n }
}

impl Gen for OracleGen {
    type Value = OracleCase;

    fn generate(&self, rng: &mut StdRng) -> OracleCase {
        let n = rng.gen_range(4..=self.max_n);
        let kind = Deployment::ALL[rng.gen_range(0..Deployment::ALL.len())];
        let points = match kind {
            Deployment::Uniform => {
                let side = rng.gen_range(1.5..=3.5);
                deploy::uniform_in_square(rng, n, side)
            }
            Deployment::Clustered => {
                let clusters = rng.gen_range(1..=3usize).min(n);
                let per = n.div_ceil(clusters);
                let mut pts = deploy::clustered(rng, clusters, per, 3.0, 0.8);
                pts.truncate(n);
                pts
            }
            Deployment::Corridor => {
                let length = rng.gen_range(3.0..=6.0);
                deploy::corridor(rng, n, length, 1.0)
            }
        };
        OracleCase { kind, points }
    }

    fn shrink(&self, value: &OracleCase) -> Vec<OracleCase> {
        let pts = &value.points;
        let mut out = Vec::new();
        if pts.len() > 2 {
            out.push(OracleCase {
                kind: value.kind,
                points: pts[..pts.len() / 2].to_vec(),
            });
            for i in 0..pts.len() {
                let mut smaller = pts.clone();
                smaller.remove(i);
                out.push(OracleCase {
                    kind: value.kind,
                    points: smaller,
                });
            }
        }
        out
    }
}

/// The exact connected domination number of `g`, brute-forced when
/// small enough and cross-checked against branch & bound.
///
/// # Errors
///
/// Returns a message when the two exact solvers disagree or the brute
/// optimum fails the CDS predicates — either is a solver bug.
pub fn exact_gamma_c(g: &Graph) -> Result<usize, String> {
    let bnb = mcds_exact::min_connected_dominating_set(g)
        .ok_or("branch & bound found no CDS on a connected graph")?;
    if !properties::is_connected_dominating_set(g, &bnb) {
        return Err(format!("branch & bound optimum {bnb:?} is not a CDS"));
    }
    if g.num_nodes() <= MAX_BRUTE_NODES {
        let brute = brute::min_connected_dominating_set_brute(g)
            .ok_or("brute force found no CDS on a connected graph")?;
        if !properties::is_connected_dominating_set(g, &brute) {
            return Err(format!("brute optimum {brute:?} is not a CDS"));
        }
        if brute.len() != bnb.len() {
            return Err(format!(
                "exact solvers disagree: brute γ_c = {}, branch & bound γ_c = {}",
                brute.len(),
                bnb.len()
            ));
        }
    }
    Ok(bnb.len())
}

/// The paper's size bound for `alg` at the given optimum, if one is
/// proven (Theorems 8 and 10).
pub fn size_bound(alg: Algorithm, gamma_c: usize) -> Option<f64> {
    match alg {
        Algorithm::WafTree => Some(bounds::waf_size_bound(gamma_c)),
        Algorithm::GreedyConnect => Some(bounds::greedy_size_bound(gamma_c)),
        _ => None,
    }
}

/// Runs the full differential check on one [`OracleCase`].
///
/// Returns [`TestResult::Discard`] when the giant component has fewer
/// than 2 nodes (no meaningful CDS instance), [`TestResult::Fail`] on
/// the first violated invariant, and [`TestResult::Pass`] otherwise.
pub fn check_oracle_case(case: &OracleCase) -> TestResult {
    let udg = Udg::build(case.points.clone());
    let giant = largest_component(udg.graph());
    if giant.len() < 2 {
        return TestResult::Discard;
    }
    let sub = udg.restricted_to(&giant);
    let g = sub.graph();
    debug_assert!(g.is_connected());

    let gamma_c = match exact_gamma_c(g) {
        Ok(v) => v,
        Err(e) => return TestResult::Fail(format!("{:?}: {e}", case.kind)),
    };

    // Corollary 7 against the exact independence number, and the
    // first-fit MIS against α.
    let alpha = mcds_exact::independence_number(g);
    let alpha_bound = bounds::alpha_upper_bound(gamma_c);
    if alpha as f64 > alpha_bound + 1e-9 {
        return TestResult::Fail(format!(
            "{:?}: Corollary 7 violated: α = {alpha} > 11/3·{gamma_c} + 1 = {alpha_bound}",
            case.kind
        ));
    }
    let mis = BfsMis::compute(g, 0);
    if mis.len() > alpha {
        return TestResult::Fail(format!(
            "{:?}: first-fit MIS of {} nodes exceeds α = {alpha}",
            case.kind,
            mis.len()
        ));
    }

    for alg in Algorithm::ALL {
        let cds = match alg.run(g) {
            Ok(cds) => cds,
            Err(e) => {
                return TestResult::Fail(format!(
                    "{:?}: {alg} errored on a connected instance: {e}",
                    case.kind
                ))
            }
        };
        if let Err(e) = cds.verify(g) {
            return TestResult::Fail(format!(
                "{:?}: {alg} produced an invalid CDS: {e}",
                case.kind
            ));
        }
        if cds.len() < gamma_c {
            return TestResult::Fail(format!(
                "{:?}: {alg} \"beat\" the exact optimum ({} < γ_c = {gamma_c}) — an exact-solver bug",
                case.kind,
                cds.len()
            ));
        }
        if let Some(bound) = size_bound(alg, gamma_c) {
            if cds.len() as f64 > bound + 1e-9 {
                return TestResult::Fail(format!(
                    "{:?}: {alg} ratio bound violated: |CDS| = {} > {bound} (γ_c = {gamma_c})",
                    case.kind,
                    cds.len()
                ));
            }
        }

        // Pruning: validity-preserving and idempotent.
        let once = match prune::prune_cds(g, cds.nodes()) {
            Ok(set) => set,
            Err(e) => return TestResult::Fail(format!("{:?}: {alg} prune failed: {e}", case.kind)),
        };
        if !properties::is_connected_dominating_set(g, &once) {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruned set is not a CDS: {once:?}",
                case.kind
            ));
        }
        let twice = match prune::prune_cds(g, &once) {
            Ok(set) => set,
            Err(e) => {
                return TestResult::Fail(format!("{:?}: {alg} re-prune failed: {e}", case.kind))
            }
        };
        if twice != once {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruning not idempotent: {once:?} -> {twice:?}",
                case.kind
            ));
        }
        if once.len() < gamma_c {
            return TestResult::Fail(format!(
                "{:?}: {alg} pruned below the optimum ({} < {gamma_c})",
                case.kind,
                once.len()
            ));
        }
    }
    TestResult::Pass
}

/// Scalar reference for [`connect::max_gain_connectors`]: every
/// selection rescans every non-seed node and takes the largest number of
/// distinct adjacent components, ties to the smaller id.
///
/// # Errors
///
/// The same [`CdsError`] values, stall message included, as the
/// production kernel.
pub fn max_gain_connectors_scalar<G: RandomAccessGraph>(
    g: &G,
    seed: &[usize],
) -> Result<Vec<usize>, CdsError> {
    precheck(g)?;
    Ok(merge_scalar(g, seed, false)?.0)
}

/// Scalar reference for [`connect::max_gain_then_paths`]: scalar
/// max-gain merges until none is left, then the shared
/// [`connect::path_connectors`] fallback.
///
/// # Errors
///
/// [`CdsError::EmptyGraph`] / [`CdsError::DisconnectedGraph`] on bad
/// graphs.
pub fn max_gain_then_paths_scalar<G: RandomAccessGraph>(
    g: &G,
    seed: &[usize],
) -> Result<Vec<usize>, CdsError> {
    precheck(g)?;
    let (mut connectors, remaining) = merge_scalar(g, seed, true)?;
    if remaining > 1 {
        let mut grown = seed.to_vec();
        grown.extend(connectors.iter().copied());
        connectors.extend(connect::path_connectors(g, &grown)?);
    }
    Ok(connectors)
}

fn precheck<G: RandomAccessGraph>(g: &G) -> Result<(), CdsError> {
    if g.num_nodes() == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(CdsError::DisconnectedGraph);
    }
    Ok(())
}

/// The greedy merge loop with one full candidate scan per selection.
/// Returns the connectors and the number of components left (more than
/// one only when `allow_stall` let a stalled seed through).
fn merge_scalar<G: RandomAccessGraph>(
    g: &G,
    seed: &[usize],
    allow_stall: bool,
) -> Result<(Vec<usize>, usize), CdsError> {
    let mut mask = node_mask(g.num_nodes(), seed);
    let mut dsu = subsets::components_dsu(g, &mask);
    let mut q = subsets::count_components(g, &mask);
    let mut connectors = Vec::new();
    while q > 1 {
        let mut best: Option<(usize, usize)> = None; // (count, node)
        for w in 0..g.num_nodes() {
            if mask[w] {
                continue;
            }
            let count = subsets::adjacent_components(g, &mask, &mut dsu, w).len();
            if count >= 2 && best.is_none_or(|(c, _)| count > c) {
                best = Some((count, w));
            }
        }
        let Some((count, w)) = best else {
            if allow_stall {
                break;
            }
            return Err(CdsError::Stalled(format!(
                "{q} components remain but no node touches two of them \
                 (seed lacks the 2-hop separation property)"
            )));
        };
        mask[w] = true;
        for u in g.successors(w) {
            if mask[u] {
                dsu.union(w, u);
            }
        }
        q = q + 1 - count; // w joins `count` components and itself
        connectors.push(w);
    }
    Ok((connectors, q))
}

/// Scalar reference for [`prune::prune_cds`]: visits the members by
/// ascending `(degree, id)` and drops each one whose removal still
/// passes a from-scratch [`is_cds_scalar`].
///
/// # Errors
///
/// The typed violation from [`mcds_cds::check_cds`] if `set` is not a
/// CDS of `g`.
pub fn prune_scalar<G: RandomAccessGraph>(g: &G, set: &[usize]) -> Result<Vec<usize>, CdsError> {
    mcds_cds::check_cds(g, set)?;
    let mut current = mcds_graph::node_set(set.iter().copied());
    let mut order = current.clone();
    order.sort_by_key(|&v| (g.degree(v), v));
    for v in order {
        if current.len() <= 1 {
            break;
        }
        let candidate: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
        if is_cds_scalar(g, &candidate) {
            current = candidate;
        }
    }
    Ok(current)
}

/// Scalar CDS test: a domination scan in id order that stops at the
/// first uncovered vertex, then a connectivity check of `G[set]`.
pub fn is_cds_scalar<G: RandomAccessGraph>(g: &G, set: &[usize]) -> bool {
    if set.is_empty() {
        return g.num_nodes() == 0;
    }
    let mask = node_mask(g.num_nodes(), set);
    (0..g.num_nodes()).all(|v| mask[v] || g.successors(v).any(|u| mask[u]))
        && subsets::is_connected_subset(g, &mask)
}

/// Scalar reference for [`fault::weighted_m_fold_dominators`]: every
/// election rescans every unelected node for the best coverage-deficit
/// reduction per unit weight (cross-multiplied, ties to the smaller id).
///
/// # Errors
///
/// [`CdsError::InvalidSet`] if `weights.len() != g.num_nodes()`.
pub fn weighted_m_fold_dominators_scalar<G: RandomAccessGraph>(
    g: &G,
    weights: &[u64],
    m: usize,
) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    if m == 0 || n == 0 {
        return Ok(Vec::new());
    }
    let mut chosen = vec![false; n];
    let mut cover = vec![0usize; n];
    let deficit = |chosen: &[bool], cover: &[usize], v: usize| {
        if chosen[v] {
            0
        } else {
            m.saturating_sub(cover[v])
        }
    };
    let mut total: usize = n * m;
    let mut out = Vec::new();
    while total > 0 {
        let mut best: Option<(usize, usize)> = None; // (gain, node)
        for u in 0..n {
            if chosen[u] {
                continue;
            }
            let mut gain = deficit(&chosen, &cover, u);
            for w in g.successors(u) {
                if deficit(&chosen, &cover, w) > 0 {
                    gain += 1;
                }
            }
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bg, bu)) => {
                    let lhs = gain as u128 * u128::from(weights[bu]);
                    let rhs = bg as u128 * u128::from(weights[u]);
                    lhs > rhs || (lhs == rhs && u < bu)
                }
            };
            if better {
                best = Some((gain, u));
            }
        }
        let (gain, u) = best.expect("positive total deficit implies a positive-gain candidate");
        total -= gain;
        chosen[u] = true;
        out.push(u);
        for w in g.successors(u) {
            cover[w] += 1;
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Scalar reference for [`mcds_cds::chvatal_dominating_set`]: every pick
/// rescans every node for the most still-uncovered nodes in its closed
/// neighborhood, ties to the smaller id.
pub fn chvatal_dominating_set_scalar<G: RandomAccessGraph>(g: &G) -> Vec<usize> {
    let n = g.num_nodes();
    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut ds = Vec::new();
    while remaining > 0 {
        let mut best = (0usize, usize::MAX); // (new coverage, node)
        for v in 0..n {
            let mut cover = usize::from(!covered[v]);
            cover += g.successors(v).filter(|&u| !covered[u]).count();
            if cover > best.0 || (cover == best.0 && v < best.1) {
                best = (cover, v);
            }
        }
        let v = best.1;
        ds.push(v);
        if !covered[v] {
            covered[v] = true;
            remaining -= 1;
        }
        for u in g.successors(v) {
            if !covered[u] {
                covered[u] = true;
                remaining -= 1;
            }
        }
    }
    ds.sort_unstable();
    ds
}

/// Scalar reference for [`fault::weighted_max_gain_connectors`]: every
/// selection rescans every non-member for the best merge gain per unit
/// weight, then the shared [`connect::path_connectors`] fallback runs
/// once no node touches two components.
///
/// # Errors
///
/// The same [`CdsError`] values as the production kernel.
pub fn weighted_max_gain_connectors_scalar<G: RandomAccessGraph>(
    g: &G,
    seed: &[usize],
    weights: &[u64],
) -> Result<Vec<usize>, CdsError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CdsError::EmptyGraph);
    }
    if weights.len() != n {
        return Err(CdsError::InvalidSet(format!(
            "weight vector has {} entries for {} nodes",
            weights.len(),
            n
        )));
    }
    if seed.is_empty() {
        return Err(CdsError::InvalidSet("empty seed set".into()));
    }
    let mut mask = node_mask(n, seed);
    let mut connectors: Vec<usize> = Vec::new();
    loop {
        if subsets::count_components(g, &mask) <= 1 {
            break;
        }
        let mut dsu = subsets::components_dsu(g, &mask);
        let mut best: Option<(usize, usize)> = None; // (gain, node)
        for w in 0..n {
            if mask[w] {
                continue;
            }
            let adj = subsets::adjacent_components(g, &mask, &mut dsu, w).len();
            if adj < 2 {
                continue;
            }
            let gain = adj - 1;
            let better = match best {
                None => true,
                Some((bg, bw)) => {
                    let lhs = gain as u128 * u128::from(weights[bw]);
                    let rhs = bg as u128 * u128::from(weights[w]);
                    lhs > rhs || (lhs == rhs && w < bw)
                }
            };
            if better {
                best = Some((gain, w));
            }
        }
        match best {
            Some((_, w)) => {
                mask[w] = true;
                connectors.push(w);
            }
            None => {
                let current: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
                connectors.extend(connect::path_connectors(g, &current)?);
                break;
            }
        }
    }
    connectors.sort_unstable();
    Ok(connectors)
}

/// Scalar reference for [`fault::prune_m_cds`]: sweeps the members by
/// ascending `(degree, id)`, dropping each one whose removal still passes
/// a from-scratch [`fault::check_m_cds`] (and [`fault::check_biconnected`]
/// when `biconnect` is set), until a sweep drops nothing.
///
/// # Errors
///
/// The contract violation of `set` itself, as the production kernel.
pub fn prune_m_cds_scalar<G: RandomAccessGraph>(
    g: &G,
    set: &[usize],
    m: usize,
    biconnect: bool,
) -> Result<Vec<usize>, CdsError> {
    fault::check_m_cds(g, set, m)?;
    if biconnect {
        fault::check_biconnected(g, set)?;
    }
    let mut current: Vec<usize> = mcds_graph::node_set(set.iter().copied());
    loop {
        let mut changed = false;
        let mut order = current.clone();
        order.sort_by_key(|&v| (g.degree(v), v));
        for v in order {
            if current.len() <= 1 {
                break;
            }
            let candidate: Vec<usize> = current.iter().copied().filter(|&u| u != v).collect();
            if fault::check_m_cds(g, &candidate, m).is_ok()
                && (!biconnect || fault::check_biconnected(g, &candidate).is_ok())
            {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_rng::SeedableRng;

    #[test]
    fn oracle_cases_respect_the_node_cap() {
        let gen = oracle_cases(12);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let case = gen.generate(&mut rng);
            assert!((4..=12).contains(&case.points.len()));
        }
    }

    #[test]
    fn all_deployment_kinds_are_generated() {
        let gen = oracle_cases(10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let case = gen.generate(&mut rng);
            seen[Deployment::ALL
                .iter()
                .position(|&k| k == case.kind)
                .unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn shrinking_preserves_kind_and_drops_points() {
        let gen = oracle_cases(14);
        let mut rng = StdRng::seed_from_u64(3);
        let case = gen.generate(&mut rng);
        for cand in gen.shrink(&case) {
            assert_eq!(cand.kind, case.kind);
            assert!(cand.points.len() < case.points.len());
        }
    }

    #[test]
    fn exact_gamma_c_matches_known_families() {
        assert_eq!(exact_gamma_c(&Graph::path(6)).unwrap(), 4);
        assert_eq!(exact_gamma_c(&Graph::star(7)).unwrap(), 1);
        assert_eq!(exact_gamma_c(&Graph::cycle(9)).unwrap(), 7);
    }

    #[test]
    fn size_bounds_exist_exactly_for_the_two_phased_theorems() {
        assert_eq!(size_bound(Algorithm::WafTree, 3), Some(22.0));
        let greedy = size_bound(Algorithm::GreedyConnect, 18).unwrap();
        assert!((greedy - 115.0).abs() < 1e-9);
        assert_eq!(size_bound(Algorithm::GreedyGrowth, 3), None);
        assert_eq!(size_bound(Algorithm::ChvatalSetCover, 3), None);
    }

    #[test]
    fn scalar_references_on_known_graphs() {
        // P7 with seed {0, 6}: no node touches both components.
        let g = Graph::path(7);
        assert!(matches!(
            max_gain_connectors_scalar(&g, &[0, 6]),
            Err(CdsError::Stalled(_))
        ));
        assert_eq!(
            max_gain_then_paths_scalar(&g, &[0, 6]).unwrap(),
            vec![1, 2, 3, 4, 5]
        );
        // C12 from its BFS MIS: components drop to one.
        let g = Graph::cycle(12);
        let mis = BfsMis::compute(&g, 0).mis().to_vec();
        let conn = max_gain_connectors_scalar(&g, &mis).unwrap();
        let all: Vec<usize> = mis.iter().chain(&conn).copied().collect();
        assert!(is_cds_scalar(&g, &all));
        // Pruning V: P10 keeps its 8 interior nodes, K8 keeps one.
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(
            prune_scalar(&Graph::path(10), &all).unwrap(),
            (1..9).collect::<Vec<_>>()
        );
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(prune_scalar(&Graph::complete(8), &all).unwrap().len(), 1);
        assert!(prune_scalar(&Graph::path(5), &[0, 4]).is_err());
        assert!(!is_cds_scalar(&Graph::path(5), &[1, 3]));
    }

    #[test]
    fn oracle_accepts_a_healthy_instance_and_discards_dust() {
        let gen = oracle_cases(12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut passes = 0;
        for _ in 0..20 {
            if check_oracle_case(&gen.generate(&mut rng)) == TestResult::Pass {
                passes += 1;
            }
        }
        assert!(passes > 0, "no oracle case passed");
        // Two far-apart points: giant component of size 1 -> discard.
        let dust = OracleCase {
            kind: Deployment::Uniform,
            points: vec![Point::new(0.0, 0.0), Point::new(50.0, 50.0)],
        };
        assert_eq!(check_oracle_case(&dust), TestResult::Discard);
    }
}
