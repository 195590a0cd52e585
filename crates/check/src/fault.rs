//! Differential checking of the fault-tolerant `(k, m)` backbone family.
//!
//! The classic oracle ([`crate::oracle::check_oracle_case`]) pins the
//! paper's two-phased constructions to the exact `γ_c`.  This module
//! does the same for the robustness extension of [`mcds_cds::fault`]:
//! on the giant component of a random small deployment it solves the
//! `(1, m)` and `(2, m)` variants for every `m ∈ 1..=3` and checks each
//! output against the *independent* exact-side predicates of
//! [`mcds_exact`] (`is_m_dominating`, `is_biconnected`) rather than the
//! construction's own verifier — a genuine differential check across
//! two implementations of the contract:
//!
//! * every `(1, m)` output is a connected, m-fold dominating set, and
//!   so is its m-aware prune without biconnect, which is also 1-minimal
//!   (a check of the single-pass argument in `mcds_cds::prune`
//!   independent of the kernel differential suite),
//! * the `(1, 2)` output is no smaller than the exact `(1, 2)`-CDS
//!   optimum of [`mcds_exact::try_min_12cds`] (small instances, bounded
//!   budget),
//! * on biconnected giants, every `(2, m)` output is biconnected and
//!   m-fold dominating, and the m-aware prune
//!   ([`mcds_cds::fault::prune_m_cds`]) is contract-preserving and
//!   idempotent on it.
//!
//! Giants that are not themselves 2-vertex-connected cannot host a
//! biconnected backbone, so the `(2, m)` checks apply only when the
//! giant is biconnected (the `(1, m)` checks always run).

use mcds_cds::{fault, Algorithm, Solver};
use mcds_graph::{properties, traversal::largest_component};
use mcds_udg::Udg;

use crate::oracle::OracleCase;
use crate::runner::TestResult;

/// Node count up to which the exact `(1, 2)`-CDS oracle is consulted.
/// Raised from 14 after the oracle's branch & bound gained forced-node
/// pre-application and a top-r gains bound (see `mcds_exact::fault`).
pub const MAX_12CDS_NODES: usize = 16;

/// Branch & bound step budget for the `(1, 2)` oracle; exhaustion skips
/// the optimality floor for that case (the structural checks still run).
const ORACLE_BUDGET: u64 = 2_000_000;

/// Runs the fault-tolerant family check on one [`OracleCase`].
///
/// Returns [`TestResult::Discard`] when the giant component has fewer
/// than 2 nodes, [`TestResult::Fail`] on the first violated invariant,
/// and [`TestResult::Pass`] otherwise.
pub fn check_fault_case(case: &OracleCase) -> TestResult {
    let udg = Udg::build(case.points.clone());
    let giant = largest_component(udg.graph());
    if giant.len() < 2 {
        return TestResult::Discard;
    }
    let sub = udg.restricted_to(&giant);
    let g = sub.graph();
    let n = g.num_nodes();

    // (1, m): connected + m-fold dominating for every family member.
    for m in 1..=3 {
        let sol = match Solver::new(Algorithm::GreedyConnect).m(m).solve(g) {
            Ok(sol) => sol,
            Err(e) => {
                return TestResult::Fail(format!(
                    "{:?}: (1,{m}) solve errored on a connected instance: {e}",
                    case.kind
                ))
            }
        };
        let nodes = sol.nodes();
        if !mcds_exact::is_m_dominating(g, nodes, m) {
            return TestResult::Fail(format!(
                "{:?}: (1,{m}) output {nodes:?} is not {m}-fold dominating",
                case.kind
            ));
        }
        if !properties::is_connected_dominating_set(g, nodes) {
            return TestResult::Fail(format!(
                "{:?}: (1,{m}) output {nodes:?} is not a connected dominating set",
                case.kind
            ));
        }
        // The one-pass (1, m) prune must keep the contract and be
        // 1-minimal, both by the exact predicates.
        let holds = |set: &[usize]| {
            mcds_exact::is_m_dominating(g, set, m) && g.induced_subgraph(set).0.is_connected()
        };
        let once = match fault::prune_m_cds(g, nodes, m, false) {
            Ok(set) => set,
            Err(e) => {
                return TestResult::Fail(format!("{:?}: (1,{m}) prune failed: {e}", case.kind))
            }
        };
        let removable = |v: usize| {
            let rest: Vec<usize> = once.iter().copied().filter(|&u| u != v).collect();
            !rest.is_empty() && holds(&rest)
        };
        if !holds(&once) || once.iter().any(|&v| removable(v)) {
            return TestResult::Fail(format!(
                "{:?}: (1,{m}) prune of {nodes:?} gave {once:?}, which breaks the \
                 contract or is not 1-minimal",
                case.kind
            ));
        }
        // Exact floor for the (1, 2) member on small instances.
        if m == 2 && n <= MAX_12CDS_NODES {
            if let Ok(Some(opt)) = mcds_exact::try_min_12cds(g, ORACLE_BUDGET) {
                if nodes.len() < opt.len() {
                    return TestResult::Fail(format!(
                        "{:?}: (1,2) output of {} nodes \"beat\" the exact optimum {} — \
                         an exact-solver bug",
                        case.kind,
                        nodes.len(),
                        opt.len()
                    ));
                }
            }
        }
    }

    // (2, m): only a biconnected giant can host a biconnected backbone.
    let all: Vec<usize> = (0..n).collect();
    if !mcds_exact::is_biconnected(g, &all) {
        return TestResult::Pass;
    }
    for m in 1..=3 {
        let sol = match Solver::new(Algorithm::GreedyConnect)
            .m(m)
            .biconnect(true)
            .solve(g)
        {
            Ok(sol) => sol,
            Err(e) => {
                return TestResult::Fail(format!(
                    "{:?}: (2,{m}) solve errored on a biconnected instance: {e}",
                    case.kind
                ))
            }
        };
        let nodes = sol.nodes().to_vec();
        if !mcds_exact::is_biconnected(g, &nodes) {
            return TestResult::Fail(format!(
                "{:?}: (2,{m}) output {nodes:?} is not biconnected",
                case.kind
            ));
        }
        if !mcds_exact::is_m_dominating(g, &nodes, m) {
            return TestResult::Fail(format!(
                "{:?}: (2,{m}) output {nodes:?} is not {m}-fold dominating",
                case.kind
            ));
        }

        // The m-aware prune must preserve the (2, m) contract and be
        // idempotent.
        let once = match fault::prune_m_cds(g, &nodes, m, true) {
            Ok(set) => set,
            Err(e) => {
                return TestResult::Fail(format!("{:?}: (2,{m}) prune failed: {e}", case.kind))
            }
        };
        if !mcds_exact::is_biconnected(g, &once) || !mcds_exact::is_m_dominating(g, &once, m) {
            return TestResult::Fail(format!(
                "{:?}: (2,{m}) pruned set {once:?} broke the contract",
                case.kind
            ));
        }
        let twice = match fault::prune_m_cds(g, &once, m, true) {
            Ok(set) => set,
            Err(e) => {
                return TestResult::Fail(format!("{:?}: (2,{m}) re-prune failed: {e}", case.kind))
            }
        };
        if twice != once {
            return TestResult::Fail(format!(
                "{:?}: (2,{m}) prune not idempotent: {once:?} -> {twice:?}",
                case.kind
            ));
        }
    }
    TestResult::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{oracle_cases, Deployment};
    use crate::Gen;
    use mcds_geom::Point;
    use mcds_rng::rngs::StdRng;
    use mcds_rng::SeedableRng;

    #[test]
    fn fault_check_accepts_random_instances_and_discards_dust() {
        let gen = oracle_cases(12);
        let mut rng = StdRng::seed_from_u64(5);
        let mut passes = 0;
        for _ in 0..20 {
            match check_fault_case(&gen.generate(&mut rng)) {
                TestResult::Pass => passes += 1,
                TestResult::Discard => {}
                TestResult::Fail(msg) => panic!("fault check failed: {msg}"),
            }
        }
        assert!(passes > 0, "no fault case passed");
        let dust = OracleCase {
            kind: Deployment::Uniform,
            points: vec![Point::new(0.0, 0.0), Point::new(50.0, 50.0)],
        };
        assert_eq!(check_fault_case(&dust), TestResult::Discard);
    }

    #[test]
    fn fault_check_exercises_the_biconnected_branch() {
        // A tight 3×3 grid: the unit-disk giant is biconnected, so the
        // (2, m) checks actually run (a panic inside them would surface
        // here).
        let pts: Vec<Point> = (0..9)
            .map(|i| Point::new((i % 3) as f64 * 0.6, (i / 3) as f64 * 0.6))
            .collect();
        let case = OracleCase {
            kind: Deployment::Uniform,
            points: pts,
        };
        assert_eq!(check_fault_case(&case), TestResult::Pass);
    }
}
