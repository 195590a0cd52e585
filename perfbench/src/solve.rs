//! The solve workloads: a closed loop with one caller over a pool of
//! instance cycles.  Each request is points → `Udg::with_radius` →
//! `Solver::solve` with verification on; every result is then checked
//! against the reference predicates.
//!
//! The traced run solves each instance twice, once through
//! `Solver::solve` and once by composing the layer functions with a
//! timer around each call, and requires both results to be identical.

use std::time::{Duration, Instant};

use mcds_cds::fault;
use mcds_cds::{check_cds, connect, prune, Algorithm, Cds, CdsError, Solver};
use mcds_graph::Graph;
use mcds_mis::BfsMis;
use mcds_obs::profile::Profile;
use mcds_udg::Udg;

use crate::inputs::{Cycle, Instance, Job, RADIUS};
use crate::report::{peak_rss_mb, setup_s, Report};
use crate::stats::Samples;

/// Set-ups (generation plus warm-up) per untraced run, half before the
/// timed loop and half after it, so that they sample the host over the
/// whole run; `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// The least share of a traced solve's wall time that the timed layer
/// calls must cover.
const MIN_COVERAGE: f64 = 0.95;

/// One untraced request: build the instance, then solve it.
fn request(inst: &Instance) -> (Udg, Result<Cds, CdsError>) {
    let udg = Udg::with_radius(inst.points.clone(), RADIUS);
    let cds = inst.job.solver().solve(udg.graph()).map(|s| s.into_cds());
    (udg, cds)
}

/// Checks a result against the reference predicates of its job and
/// returns the objective the job minimises (size, or total weight).
fn check(g: &Graph, job: Job, cds: &Result<Cds, CdsError>) -> Result<u64, String> {
    let cds = cds
        .as_ref()
        .map_err(|e| format!("{job:?}: solve failed: {e}"))?;
    let nodes = cds.nodes();
    let verdict = if job.m() == 1 {
        check_cds(g, nodes)
    } else if job.biconnect() {
        fault::check_m_cds(g, nodes, job.m()).and_then(|()| fault::check_biconnected(g, nodes))
    } else {
        fault::check_m_cds(g, nodes, job.m())
    };
    verdict.map_err(|e| format!("{job:?}: invalid backbone: {e}"))?;
    Ok(job.weights().total(g, nodes))
}

/// Times `count` set-ups, each generating the pool and solving its first
/// instance untimed; appends the times to `times` and returns the last
/// pool (the ones before it are dropped first, so they never coexist).
fn set_ups(
    seed: u64,
    make: fn(u64) -> Vec<Cycle>,
    count: usize,
    times: &mut Vec<f64>,
) -> Vec<Cycle> {
    let mut pool = Vec::new();
    for _ in 0..count {
        drop(std::mem::take(&mut pool));
        let t = Instant::now();
        pool = make(seed);
        let _warm_up = std::hint::black_box(request(&pool[0][0]));
        times.push(t.elapsed().as_secs_f64());
    }
    pool
}

/// Runs whole cycles of the pool (wrapping around) until `seconds` have
/// passed, calling `each(cycle number, instance)` on every instance in
/// order.
fn run_cycles(pool: &[Cycle], seconds: f64, mut each: impl FnMut(usize, &Instance)) {
    let start = Instant::now();
    let mut c = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for inst in &pool[c % pool.len()] {
            each(c, inst);
        }
        c += 1;
    }
}

/// Runs a solve workload over the pool `make(seed)` builds.
pub fn run(make: fn(u64) -> Vec<Cycle>, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    if traced {
        let pool = set_ups(seed, make, 1, &mut setups);
        run_traced(&pool, seconds, &mut report);
        return report;
    }
    let pool = set_ups(seed, make, SETUP_REPEATS / 2, &mut setups);
    let mut latency = Samples::default();
    let mut nodes = 0usize;
    // The objective summed over the first cycle, which every run solves.
    let mut cost = 0u64;
    run_cycles(&pool, seconds, |c, inst| {
        let t = Instant::now();
        let (udg, cds) = std::hint::black_box(request(inst));
        latency.push(t.elapsed());
        nodes += inst.points.len();
        let checked = check(udg.graph(), inst.job, &cds);
        if c == 0 {
            cost += checked.as_ref().map_or(0, |&objective| objective);
        }
        report.attempt(checked.map(drop));
    });
    eprintln!(
        "{} solves, {} failed, {} cycles of {} instances",
        latency.len(),
        report.failures.len(),
        latency.len().div_ceil(pool[0].len()),
        pool[0].len()
    );
    drop(pool);
    set_ups(seed, make, SETUP_REPEATS - SETUP_REPEATS / 2, &mut setups);
    report.set("setup_s", setup_s(&setups));
    report.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    report.set("ok_frac", report.ok_frac());
    report.set("backbone_cost", cost as f64);
    report.set("req_ms_p50", latency.pct_ms(50));
    report.set("req_ms_p90", latency.pct_ms(90));
    report.set("work_per_s", nodes as f64 / latency.total_s());
    report
}

/// Per-layer sums over the traced requests.
#[derive(Debug, Default)]
struct Layers {
    requests: u64,
    udg: Duration,
    edges: u64,
    mis: Duration,
    dominators: u64,
    connect: Duration,
    connectors: u64,
    verify: Duration,
    prune: Duration,
    prune_input: u64,
    prune_removed: u64,
    fault_phase1: Duration,
    fault_phase2: Duration,
    augment: Duration,
    fault_prune: Duration,
    fault_dominators: u64,
    fault_connectors: u64,
    augment_added: u64,
    fault_prune_removed: u64,
    /// Time inside timed layer calls during the current request.
    covered: Duration,
}

impl Layers {
    /// Times `f`, adds the time to the current request's coverage and
    /// returns it with the result.
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed();
        self.covered += d;
        (out, d)
    }

    /// The `(dominators, connectors)` split `Solver::solve` returns for
    /// `inst`, composed from the layer functions with a timer around
    /// each call.
    fn solve(&mut self, inst: &Instance) -> Result<Cds, CdsError> {
        let (udg, d) = self.timed(|| Udg::with_radius(inst.points.clone(), RADIUS));
        self.udg += d;
        let g = udg.graph();
        self.edges += g.num_edges() as u64;
        match inst.job {
            Job::Greedy | Job::Waf => self.classic(g, inst.job),
            job => self.fault_family(g, job),
        }
    }

    fn classic(&mut self, g: &Graph, job: Job) -> Result<Cds, CdsError> {
        let cds = if job == Job::Greedy {
            let (mis, d) = self.timed(|| {
                let phase1 = BfsMis::compute(g, 0);
                phase1
                    .tree()
                    .spans(g)
                    .then(|| phase1.mis().to_vec())
                    .ok_or(CdsError::DisconnectedGraph)
            });
            self.mis += d;
            let mis = mis?;
            let (cds, d) = self.timed(move || {
                let connectors = connect::max_gain_connectors(g, &mis)?;
                Ok::<_, CdsError>(Cds::new(mis, connectors))
            });
            self.connect += d;
            cds?
        } else {
            // WAF phase 2 is not public: run the unpruned solver with the
            // program's own spans on; `fold_spans` turns them into phase
            // times once the request's wall time is taken.
            mcds_obs::enable();
            let (cds, _) = self.timed(|| Solver::new(Algorithm::WafTree).solve(g));
            mcds_obs::disable();
            cds?.into_cds()
        };
        self.dominators += cds.dominators().len() as u64;
        self.connectors += cds.connectors().len() as u64;
        let (verdict, d) = self.timed(|| cds.verify(g));
        self.verify += d;
        verdict?;
        let (pruned, d) =
            self.timed(|| prune::prune_cds(g, cds.nodes()).map(|k| keep_only(&cds, &k)));
        self.prune += d;
        let pruned = pruned?;
        self.prune_input += cds.len() as u64;
        self.prune_removed += (cds.len() - pruned.len()) as u64;
        Ok(pruned)
    }

    /// Folds the program's spans recorded since the last call (those of
    /// a traced `waf` request) into phase-1 and phase-2 times.
    fn fold_spans(&mut self) {
        let profile = Profile::from_trace(&mcds_obs::trace::drain_jsonl())
            .expect("the program's own trace parses");
        for stat in profile.labels() {
            let d = Duration::from_nanos(stat.total_ns);
            match stat.label.as_str() {
                "solve.phase1" => self.mis += d,
                "solve.phase2" => self.connect += d,
                _ => {}
            }
        }
    }

    fn fault_family(&mut self, g: &Graph, job: Job) -> Result<Cds, CdsError> {
        let (m, biconnect) = (job.m(), job.biconnect());
        let (doms, d) = self.timed(|| {
            let w = job.weights().weights(g);
            fault::weighted_m_fold_dominators(g, &w, m).map(|doms| (doms, w))
        });
        self.fault_phase1 += d;
        let (doms, w) = doms?;
        let (connectors, d) = self.timed(|| fault::weighted_max_gain_connectors(g, &doms, &w));
        self.fault_phase2 += d;
        let mut connectors = connectors?;
        self.fault_dominators += doms.len() as u64;
        self.fault_connectors += connectors.len() as u64;
        if biconnect {
            let nodes = mcds_graph::node_set(doms.iter().chain(&connectors).copied());
            let (augmented, d) = self.timed(|| fault::biconnect_augment(g, &nodes));
            self.augment += d;
            let augmented = augmented?;
            self.augment_added += (augmented.len() - nodes.len()) as u64;
            let dom_mask = mcds_graph::node_mask(g.num_nodes(), &doms);
            connectors = augmented.into_iter().filter(|&v| !dom_mask[v]).collect();
        }
        let cds = Cds::new(doms, connectors);
        let (verdict, d) = self.timed(|| {
            if m > 1 || biconnect {
                fault::check_m_cds(g, cds.nodes(), m)?;
                if biconnect {
                    fault::check_biconnected(g, cds.nodes())?;
                }
                Ok(())
            } else {
                cds.verify(g)
            }
        });
        self.verify += d;
        verdict?;
        if !job.prunes() {
            return Ok(cds);
        }
        let (pruned, d) = self.timed(|| {
            fault::prune_m_cds(g, cds.nodes(), m, biconnect).map(|k| keep_only(&cds, &k))
        });
        self.fault_prune += d;
        let pruned = pruned?;
        self.fault_prune_removed += (cds.len() - pruned.len()) as u64;
        Ok(pruned)
    }
}

/// `cds` restricted to the sorted node list `kept`, roles preserved.
fn keep_only(cds: &Cds, kept: &[usize]) -> Cds {
    let keep = |v: &&usize| kept.binary_search(v).is_ok();
    Cds::new(
        cds.dominators().iter().filter(keep).copied().collect(),
        cds.connectors().iter().filter(keep).copied().collect(),
    )
}

/// The traced run: each instance is solved untraced and traced (the
/// order alternating per request).  The untraced result must pass
/// [`check`], the traced one must equal it, and the timed layer calls
/// must cover at least [`MIN_COVERAGE`] of the traced solve.  The
/// per-layer sums become per-request means.
fn run_traced(pool: &[Cycle], seconds: f64, report: &mut Report) {
    let mut layers = Layers::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut min_coverage = f64::INFINITY;
    run_cycles(pool, seconds, |_, inst| {
        let untraced = |plain: &mut Duration| {
            let t = Instant::now();
            let out = request(inst);
            *plain += t.elapsed();
            out
        };
        let traced_solve = |layers: &mut Layers, traced: &mut Duration| {
            layers.covered = Duration::ZERO;
            let t = Instant::now();
            let cds = layers.solve(inst);
            let wall = t.elapsed();
            *traced += wall;
            layers.fold_spans();
            (cds, layers.covered.as_secs_f64() / wall.as_secs_f64())
        };
        let ((udg, reference), (composed, coverage)) = if layers.requests % 2 == 0 {
            let r = untraced(&mut plain);
            (r, traced_solve(&mut layers, &mut traced))
        } else {
            let c = traced_solve(&mut layers, &mut traced);
            (untraced(&mut plain), c)
        };
        layers.requests += 1;
        min_coverage = min_coverage.min(coverage);
        let job = inst.job;
        let outcome = check(udg.graph(), job, &reference).and_then(|_| {
            let same = match (&reference, &composed) {
                (Ok(a), Ok(b)) => {
                    a.dominators() == b.dominators() && a.connectors() == b.connectors()
                }
                _ => false,
            };
            if !same {
                Err(format!(
                    "{job:?}: composed layers differ from Solver::solve"
                ))
            } else if coverage < MIN_COVERAGE {
                Err(format!(
                    "{job:?}: timed layer calls cover {:.1} % of the traced solve",
                    coverage * 100.0
                ))
            } else {
                Ok(())
            }
        });
        report.attempt(outcome);
    });
    let n = layers.requests.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let per = |c: u64| c as f64 / n;
    report.set("udg.build_ms", ms(layers.udg));
    report.set("udg.edges", per(layers.edges));
    report.set("mis.ms", ms(layers.mis));
    report.set("mis.dominators", per(layers.dominators));
    report.set("connect.ms", ms(layers.connect));
    report.set("connect.connectors", per(layers.connectors));
    report.set("prune.ms", ms(layers.prune));
    report.set("prune.input_nodes", per(layers.prune_input));
    report.set("prune.removed", per(layers.prune_removed));
    report.set(
        "prune.removed_ratio",
        layers.prune_removed as f64 / layers.prune_input.max(1) as f64,
    );
    report.set("verify.ms", ms(layers.verify));
    report.set("fault.phase1_ms", ms(layers.fault_phase1));
    report.set("fault.phase2_ms", ms(layers.fault_phase2));
    report.set("fault.augment_ms", ms(layers.augment));
    report.set("fault.prune_ms", ms(layers.fault_prune));
    report.set("fault.dominators", per(layers.fault_dominators));
    report.set("fault.connectors", per(layers.fault_connectors));
    report.set("fault.augment_added", per(layers.augment_added));
    report.set("fault.prune_removed", per(layers.fault_prune_removed));
    report.set(
        "trace.overhead_pct",
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
    );
    report.set("trace.coverage_pct", min_coverage * 100.0);
    report.set("samples", layers.requests as f64);
}
