//! Two-phased connected-dominating-set algorithms — the core contribution
//! of *"Two-Phased Approximation Algorithms for Minimum CDS in Wireless Ad
//! Hoc Networks"* (Wan, Wang & Yao, ICDCS 2008).
//!
//! Both of the paper's algorithms first elect the BFS-ordered first-fit
//! MIS of [`mcds_mis::BfsMis`] as the *dominator* set, then differ in how
//! they select *connectors*:
//!
//! * [`waf_cds`] — the algorithm of Wan–Alzoubi–Frieder \[10\] as analyzed
//!   in the paper's Section III: one special neighbor `s` of the root plus
//!   the BFS-tree parents of the dominators `s` does not cover.
//!   Approximation ratio at most **7⅓** (Theorem 8).
//! * [`greedy_cds`] — the paper's new Section-IV algorithm: connectors are
//!   chosen greedily by maximum *gain* (the drop in the number of
//!   connected components of `G[I ∪ C]`).  Approximation ratio at most
//!   **6 7/18** (Theorem 10).
//!
//! The baselines the paper positions itself against are here too:
//!
//! * [`chvatal_cds`] — phase 1 by Chvátal's greedy Set Cover \[2\]
//!   (logarithmic ratio), connected by shortest-path connectors,
//! * [`arbitrary_mis_cds`] — an arbitrary (lexicographic) MIS \[1\]/\[9\]
//!   with max-gain connectors,
//! * [`greedy_growth_cds`] — the classic single-phase Guha–Khuller-style
//!   greedy grow,
//!
//! plus a validity-preserving [`prune`] post-pass (an extension beyond the
//! paper), the generic connector routines in [`connect`] — both run
//! incremental bitset kernels, proven byte-identical to the scalar
//! references in `mcds_check::oracle` —
//! backbone-routing stretch measurement in [`routing`], and the
//! fault-tolerant `(k,m)` backbone family in [`fault`] — m-fold
//! domination and 2-connectivity augmentation reachable through
//! [`Solver::m`] and [`Solver::biconnect`].
//!
//! # The [`Solver`] entry point
//!
//! All constructions are reachable through one configurable builder,
//! which also owns verification, pruning, and per-phase timing:
//!
//! ```
//! use mcds_graph::Graph;
//! use mcds_cds::{Algorithm, Solver};
//!
//! let g = Graph::path(9);
//! let solution = Solver::new(Algorithm::GreedyConnect)
//!     .verify(true)
//!     .solve(&g)?;
//! assert!(solution.len() >= 7); // γ_c(P9) = 7
//! assert_eq!(solution.algorithm(), Algorithm::GreedyConnect);
//! # Ok::<(), mcds_cds::CdsError>(())
//! ```
//!
//! The free functions below are kept as thin wrappers for existing
//! callers and the paper-notation tests.
//!
//! # Example
//!
//! ```
//! use mcds_graph::{Graph, properties};
//! use mcds_cds::{waf_cds, greedy_cds};
//!
//! let g = Graph::path(9);
//! let waf = waf_cds(&g)?;
//! let greedy = greedy_cds(&g)?;
//! assert!(properties::is_connected_dominating_set(&g, waf.nodes()));
//! assert!(properties::is_connected_dominating_set(&g, greedy.nodes()));
//! assert!(greedy.len() <= waf.len() + 1); // typically smaller
//! # Ok::<(), mcds_cds::CdsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod greedy;
mod growth;
mod result;
mod setcover;
mod solver;
mod waf;

pub mod accounting;
pub mod algorithms;
pub mod connect;
pub mod fault;
pub mod prune;
pub mod routing;

pub use algorithms::{parse_selector, Algorithm, UnknownAlgorithm};
pub use error::CdsError;
pub use fault::{fault_tolerant_cds, m_fold_dominators, UnknownWeightScheme, WeightScheme};
pub use greedy::{greedy_cds, greedy_cds_rooted};
pub use growth::greedy_growth_cds;
pub use mcds_graph::CdsViolation;
pub use result::{check_cds, Cds};
pub use setcover::{arbitrary_mis_cds, chvatal_cds, chvatal_dominating_set};
pub use solver::{PhaseTimings, Solution, Solver};
pub use waf::{waf_cds, waf_cds_rooted};
