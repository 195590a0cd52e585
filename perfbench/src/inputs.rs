//! Seeded input generation.  Every input is a pure function of the
//! workload seed: each instance draws from its own RNG stream
//! (`StdRng::from_stream(seed, index)`), so instances never depend on
//! how many draws another one made.

use mcds_cds::{Algorithm, Solver, WeightScheme};
use mcds_geom::{Aabb, Point};
use mcds_graph::traversal::{articulation_points, largest_component};
use mcds_maintain::{ChurnConfig, ChurnGen, NodeId, TopologyEvent};
use mcds_rng::{rngs::StdRng, Rng, SeedableRng};
use mcds_udg::{gen, Udg};
use std::collections::BTreeMap;

/// Unit-disk radius of every generated topology.
pub const RADIUS: f64 = 1.0;

/// Deployment shape of a generated instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Uniform in a square.
    Uniform,
    /// Clusters of 50 nodes scattered in a square.
    Clustered,
    /// Uniform in a corridor 6 radii wide.
    Corridor,
}

/// Which solver configuration a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Section IV greedy connectors, verified and pruned.
    Greedy,
    /// Section III WAF tree, verified and pruned.
    Waf,
    /// 2-fold domination, verified and pruned.
    FoldTwo,
    /// Minimum-weight CDS under degree weights at m = 1, verified.
    Degree,
    /// (2,2) backbone: 2-fold, biconnected, verified and pruned.
    Biconnect,
}

impl Job {
    /// Domination multiplicity.
    pub fn m(self) -> usize {
        match self {
            Job::FoldTwo | Job::Biconnect => 2,
            _ => 1,
        }
    }

    /// Node weights of the objective.
    pub fn weights(self) -> WeightScheme {
        match self {
            Job::Degree => WeightScheme::Degree,
            _ => WeightScheme::Unit,
        }
    }

    pub fn biconnect(self) -> bool {
        self == Job::Biconnect
    }

    pub fn prunes(self) -> bool {
        self != Job::Degree
    }

    /// The public solver configuration of this job.
    pub fn solver(self) -> Solver {
        let algorithm = match self {
            Job::Waf => Algorithm::WafTree,
            _ => Algorithm::GreedyConnect,
        };
        Solver::new(algorithm)
            .verify(true)
            .prune(self.prunes())
            .m(self.m())
            .biconnect(self.biconnect())
            .weight_scheme(self.weights())
    }
}

/// One solve request: the points of a connected topology and the job.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub job: Job,
    pub points: Vec<Point>,
}

/// The instance set of one pass over a solve workload's mix.
pub type Cycle = Vec<Instance>;

/// `n` points of the given shape at expected average degree `degree`,
/// restricted to the giant component of their unit-disk graph.
fn deployment(rng: &mut StdRng, shape: Shape, n: usize, degree: f64) -> Udg {
    let side = gen::side_for_avg_degree(n, degree);
    let points = match shape {
        Shape::Uniform => gen::uniform_in_square(rng, n, side),
        Shape::Clustered => gen::clustered(rng, n / 50, 50, side, 2.5),
        Shape::Corridor => {
            let width = 6.0;
            gen::corridor(rng, n, side * side / width, width)
        }
    };
    let udg = Udg::with_radius(points, RADIUS);
    let giant = largest_component(udg.graph());
    udg.restricted_to(&giant)
}

/// Whether `udg` is 2-connected: connected, at least 3 nodes, no cut
/// vertex.
fn is_biconnected(udg: &Udg) -> bool {
    let g = udg.graph();
    g.num_nodes() >= 3 && g.is_connected() && articulation_points(g).is_empty()
}

/// `steps` sizes from `first` up, each `ratio` times the last, shifted
/// up by a quarter step per pool cycle so that the sizes of the pool's
/// cycles interleave and the latency distribution has no gaps.
fn ladder(first: f64, ratio: f64, steps: i32, cycle: usize) -> impl Iterator<Item = usize> {
    let shift = ratio.powf((cycle % 4) as f64 / 4.0);
    (0..steps).map(move |k| (first * shift * ratio.powi(k)).round() as usize)
}

/// `(job, shape, target n, avg degree)` of every instance of solve-prune
/// cycle `c`: both paper algorithms on three deployment shapes at six
/// sizes from 2.5k to 10k nodes, plus the uniform 20k pair.
fn prune_mix(c: usize) -> Vec<(Job, Shape, usize, f64)> {
    let mut mix = Vec::new();
    for shape in [Shape::Uniform, Shape::Clustered, Shape::Corridor] {
        for job in [Job::Greedy, Job::Waf] {
            mix.extend(ladder(2500.0, 1.35, 5, c).map(|n| (job, shape, n, 10.0)));
        }
    }
    mix.push((Job::Greedy, Shape::Uniform, 20000, 10.0));
    mix.push((Job::Waf, Shape::Uniform, 20000, 10.0));
    mix
}

/// The instances of solve-fault cycle `c`: 2-fold and degree-weighted
/// uniform instances from 1.5k to 4.3k nodes, and dense 2-connected
/// (2,2) instances from 1.2k to 3.5k nodes.
fn fault_mix(c: usize) -> Vec<(Job, Shape, usize, f64)> {
    let mut mix = Vec::new();
    for job in [Job::FoldTwo, Job::Degree] {
        mix.extend(ladder(1500.0, 1.25, 5, c).map(|n| (job, Shape::Uniform, n, 10.0)));
    }
    mix.extend(ladder(1200.0, 1.25, 5, c).map(|n| (Job::Biconnect, Shape::Uniform, n, 25.0)));
    mix
}

/// Builds `count` cycles, cycle `c` from `mix(c)`; instance `i` of cycle
/// `c` draws from stream `c * 1000 + i` of `seed`.  Biconnect instances
/// are resampled (next stream draw) until the benchmark has checked them
/// to be 2-connected.
fn cycles(
    seed: u64,
    mix: impl Fn(usize) -> Vec<(Job, Shape, usize, f64)>,
    count: usize,
) -> Vec<Cycle> {
    (0..count)
        .map(|c| {
            mix(c)
                .into_iter()
                .enumerate()
                .map(|(i, (job, shape, n, degree))| {
                    let mut rng = StdRng::from_stream(seed, (c * 1000 + i) as u64);
                    let mut udg = deployment(&mut rng, shape, n, degree);
                    if job == Job::Biconnect {
                        let mut tries = 1;
                        while !is_biconnected(&udg) {
                            assert!(tries < 100, "no 2-connected instance in 100 draws");
                            udg = deployment(&mut rng, shape, n, degree);
                            tries += 1;
                        }
                    }
                    Instance {
                        job,
                        points: udg.into_points(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Distinct cycles generated per solve run; a run wraps around when it
/// outlasts them.
const SOLVE_CYCLES: usize = 4;

/// The solve-prune instance pool.
pub fn prune_cycles(seed: u64) -> Vec<Cycle> {
    cycles(seed, prune_mix, SOLVE_CYCLES)
}

/// The solve-fault instance pool.
pub fn fault_cycles(seed: u64) -> Vec<Cycle> {
    cycles(seed, fault_mix, SOLVE_CYCLES)
}

/// Resident topology size of serve-churn (before taking the giant
/// component).
const SERVE_NODES: usize = 4000;

/// The serve-churn inputs: the daemon's initial topology, the writer's
/// churn stream (one event per batch), and the reader's query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    pub points: Vec<Point>,
    pub churn: Vec<TopologyEvent>,
    pub queries: Vec<String>,
}

/// The initial serve topology: the giant component of `SERVE_NODES`
/// uniform points at average degree 10.
pub fn serve_points(seed: u64) -> Vec<Point> {
    let mut rng = StdRng::from_stream(seed, 0);
    deployment(&mut rng, Shape::Uniform, SERVE_NODES, 10.0).into_points()
}

/// Generates `batches` churn events and `queries` reader requests.
///
/// The churn stream is drawn with [`ChurnGen`] against a model of the
/// daemon's population: joins take the next stable id, as the resident
/// `Maintainer` assigns them when each single-event batch is admitted.
pub fn serve_inputs(seed: u64, batches: usize, queries: usize) -> ServeInputs {
    let points = serve_points(seed);
    let side = gen::side_for_avg_degree(SERVE_NODES, 10.0);
    let mut churn_gen = ChurnGen::new(ChurnConfig {
        region: Aabb::square(side),
        ..ChurnConfig::default()
    });
    let mut alive: BTreeMap<NodeId, Point> = points.iter().copied().enumerate().collect();
    let mut next_id = points.len();
    let mut rng = StdRng::from_stream(seed, 1);
    let mut churn = Vec::with_capacity(batches);
    for _ in 0..batches {
        let population: Vec<(NodeId, Point)> = alive.iter().map(|(&id, &p)| (id, p)).collect();
        let event = churn_gen.next_event(&mut rng, &population);
        match event {
            TopologyEvent::Join { pos } => {
                alive.insert(next_id, pos);
                next_id += 1;
            }
            TopologyEvent::Leave { node } => {
                alive.remove(&node);
            }
            TopologyEvent::Move { node, to } => {
                alive.insert(node, to);
            }
        }
        churn.push(event);
    }
    let mut rng = StdRng::from_stream(seed, 2);
    let queries = (0..queries)
        .map(|i| {
            let node = rng.gen_range(0..points.len());
            match i % 4 {
                0 => format!(r#"{{"op":"query","what":"member","node":{node}}}"#),
                1 => format!(r#"{{"op":"query","what":"dominator-of","node":{node}}}"#),
                2 => r#"{"op":"query","what":"stats"}"#.to_string(),
                _ => r#"{"op":"metrics"}"#.to_string(),
            }
        })
        .collect();
    ServeInputs {
        points,
        churn,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cycles(seed: u64) -> Vec<Cycle> {
        let mix = |c: usize| {
            let n = 300 + 10 * c;
            vec![
                (Job::Greedy, Shape::Uniform, n, 10.0),
                (Job::Waf, Shape::Clustered, n, 10.0),
                (Job::Greedy, Shape::Corridor, n, 10.0),
                (Job::Biconnect, Shape::Uniform, n, 25.0),
            ]
        };
        cycles(seed, mix, 2)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(small_cycles(7), small_cycles(7));
        assert_eq!(serve_inputs(7, 200, 40), serve_inputs(7, 200, 40));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(small_cycles(7), small_cycles(8));
        let (a, b) = (serve_inputs(7, 200, 40), serve_inputs(8, 200, 40));
        assert_ne!(a.points, b.points);
        assert_ne!(a.churn, b.churn);
        assert_ne!(a.queries, b.queries);
    }

    #[test]
    fn cycles_are_distinct_and_connected() {
        let pool = small_cycles(3);
        assert_ne!(pool[0], pool[1]);
        for inst in pool.iter().flatten() {
            let udg = Udg::with_radius(inst.points.clone(), RADIUS);
            assert!(udg.graph().is_connected());
            if inst.job == Job::Biconnect {
                assert!(is_biconnected(&udg));
            }
        }
    }

    #[test]
    fn ladders_interleave_across_cycles() {
        let sizes: Vec<Vec<usize>> = (0..5)
            .map(|c| ladder(1000.0, 2.0, 3, c).collect())
            .collect();
        assert_eq!(sizes[0], [1000, 2000, 4000]);
        assert_eq!(sizes[2], [1414, 2828, 5657]);
        assert_eq!(sizes[4], sizes[0]);
        assert!(sizes[3][0] < sizes[0][1]);
    }

    #[test]
    fn churn_stream_only_touches_live_nodes() {
        let inputs = serve_inputs(5, 300, 0);
        let mut alive: Vec<bool> = vec![true; inputs.points.len()];
        for event in &inputs.churn {
            match *event {
                TopologyEvent::Join { .. } => alive.push(true),
                TopologyEvent::Leave { node } => {
                    assert!(alive[node]);
                    alive[node] = false;
                }
                TopologyEvent::Move { node, .. } => assert!(alive[node]),
            }
        }
    }
}
