//! Set-up and the closed request loop: one client, one request at a
//! time, every output checked.

use crate::plan::{Edit, Effort, Expect, Op, Plan, Workload};
use crate::trace::Tracer;
use phonoc_apps::TaskId;
use phonoc_core::{DseConfig, Mapping, MappingProblem, RunStats};
use phonoc_opt::{PortfolioSpec, SearchSpec, WarmCache, WarmSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The optimizer groups `opt.<name>.request_ms` reports, in order.
pub const OPT_GROUPS: [&str; 9] = [
    "rs",
    "ga",
    "r-pbla",
    "sa",
    "tabu",
    "ils",
    "exhaustive",
    "exact",
    "portfolio",
];

/// A request's search, resolved once at set-up.
enum Prepared {
    /// A single-optimizer run (`prove` when the optimizer is `exact`).
    Single {
        search: phonoc_opt::SingleSpec,
        prove: bool,
    },
    /// A portfolio run (also the warm requests' spec).
    Portfolio(PortfolioSpec),
}

/// Everything set-up builds: the plan, its problems and resolved specs.
pub struct Bed {
    /// The request plan.
    pub plan: Plan,
    /// Built problems, indexed like `plan.problems`.
    pub problems: Vec<MappingProblem>,
    prepared: Vec<Prepared>,
    /// Warm-stream only: one cache per cell, indexed like `problems`.
    caches: Vec<WarmCache>,
}

/// Builds the bed of `workload` for `seed`: generates the plan, builds
/// every problem, resolves every spec, and warms the worker pool and
/// each problem's scratch buffers with one batch evaluation.
///
/// # Panics
///
/// Panics if a generated spec does not parse (a benchmark bug).
#[must_use]
pub fn setup(workload: Workload, seed: u64, effort: Effort, tracer: &mut Tracer) -> Bed {
    let span = tracer.begin("setup.plan");
    let plan = Plan::generate(workload, seed, effort);
    tracer.end(span);
    let mut problems = Vec::with_capacity(plan.problems.len());
    for recipe in &plan.problems {
        let span = tracer.begin("setup.build_problem");
        problems.push(recipe.build());
        tracer.end(span);
    }
    let span = tracer.begin("setup.prepare_specs");
    let portfolio = match phonoc_opt::search_spec(bench::sweep::PORTFOLIO_SPEC) {
        Ok(SearchSpec::Portfolio(p)) => p,
        _ => panic!("the sweep's portfolio spec parses as a portfolio"),
    };
    let prepared = plan
        .requests
        .iter()
        .map(|r| match &r.op {
            Op::Search(spec) => match phonoc_opt::search_spec(spec) {
                Ok(SearchSpec::Single(search)) => Prepared::Single {
                    prove: search.algo == "exact",
                    search,
                },
                Ok(SearchSpec::Portfolio(p)) => Prepared::Portfolio(p),
                Err(e) => panic!("generated spec `{spec}` does not parse: {e}"),
            },
            Op::Warm { .. } => Prepared::Portfolio(portfolio.clone()),
        })
        .collect();
    tracer.end(span);
    let span = tracer.begin("setup.warm_up");
    warm_up(&problems, seed);
    tracer.end(span);
    let caches = match workload {
        Workload::WarmStream => problems.iter().map(|_| WarmCache::new()).collect(),
        _ => Vec::new(),
    };
    Bed {
        plan,
        problems,
        prepared,
        caches,
    }
}

/// Starts the pool workers and sizes every problem's scratch: one
/// batch evaluation of 16 random mappings per problem.
fn warm_up(problems: &[MappingProblem], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2_7000);
    for p in problems {
        let batch: Vec<Mapping> = (0..16)
            .map(|_| Mapping::random(p.task_count(), p.tile_count(), &mut rng))
            .collect();
        black_box(p.evaluator().evaluate_summaries_batch(&batch));
    }
}

impl Bed {
    /// Restores the initial state between passes of a warm stream:
    /// rebuilds the edited problems and empties the caches, so every
    /// pass sends the identical stream. A no-op elsewhere.
    pub fn reset_for_pass(&mut self) {
        if self.caches.is_empty() {
            return;
        }
        for (problem, recipe) in self.problems.iter_mut().zip(&self.plan.problems) {
            *problem = recipe.build();
        }
        for cache in &mut self.caches {
            *cache = WarmCache::new();
        }
    }
}

/// How a warm request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmKind {
    /// Exact hit.
    Hit,
    /// Near hit.
    Near,
    /// Cold run.
    Cold,
}

/// One executed request: its timing, result and check verdicts.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the plan's requests.
    pub index: usize,
    /// Problem index.
    pub problem: usize,
    /// The `opt.<name>` group.
    pub group: &'static str,
    /// Wall time of the request call (edit included), ns.
    pub ns: u64,
    /// Wall time of the in-place edit, ns (warm requests only).
    pub edit_ns: u64,
    /// Best score under the request's objective.
    pub score: f64,
    /// Evaluations the request actually spent.
    pub evaluations: usize,
    /// The budget it was given.
    pub budget: usize,
    /// Decision counters of the run.
    pub stats: RunStats,
    /// Certificate of an `exact` request: `(proved, root bound)`.
    pub certificate: Option<(bool, f64)>,
    /// Warm-cache answer.
    pub warm: Option<WarmKind>,
    /// Failed output checks (empty when the request is correct).
    pub failures: Vec<String>,
}

/// The raw result of one request call, before checking.
struct Raw {
    mapping: Mapping,
    score: f64,
    evaluations: usize,
    stats: RunStats,
    certificate: Option<(bool, f64, f64)>,
    warm: Option<WarmKind>,
    edit_ns: u64,
}

/// Sends every request of the plan once, in order, each after the
/// previous one returned, and checks every output.
pub fn run_pass(bed: &mut Bed, tracer: &mut Tracer) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(bed.plan.requests.len());
    for index in 0..bed.plan.requests.len() {
        let span = tracer.begin("request");
        let t = Instant::now();
        let raw = call(bed, index, tracer);
        let ns = t.elapsed().as_nanos() as u64;
        tracer.end(span);
        outcomes.push(check(bed, index, raw, ns));
    }
    check_certificates(&mut outcomes);
    outcomes
}

/// The request call itself: the only code inside the timed region.
fn call(bed: &mut Bed, index: usize, tracer: &mut Tracer) -> Raw {
    let request = &bed.plan.requests[index];
    match (&request.op, &bed.prepared[index]) {
        (Op::Search(_), Prepared::Single { search, prove }) => {
            let problem = &bed.problems[request.problem];
            let mut config = DseConfig::new(request.budget, request.seed)
                .with_strategy(search.strategy.unwrap_or_default())
                .with_policy(search.policy.unwrap_or_default());
            config.objective = search.objective;
            if *prove {
                let cert = phonoc_opt::prove(problem, &config);
                Raw {
                    mapping: cert.result.best_mapping,
                    score: cert.result.best_score,
                    evaluations: cert.result.evaluations,
                    stats: cert.result.stats,
                    certificate: Some((cert.proved, cert.root_bound, cert.gap_db)),
                    warm: None,
                    edit_ns: 0,
                }
            } else {
                let result = phonoc_core::run_dse(problem, search.optimizer.as_ref(), &config);
                Raw {
                    mapping: result.best_mapping,
                    score: result.best_score,
                    evaluations: result.evaluations,
                    stats: result.stats,
                    certificate: None,
                    warm: None,
                    edit_ns: 0,
                }
            }
        }
        (Op::Search(_), Prepared::Portfolio(spec)) => {
            let problem = &bed.problems[request.problem];
            let result = phonoc_opt::run_portfolio(problem, spec, request.budget, request.seed);
            Raw {
                mapping: result.best_mapping,
                score: result.best_score,
                evaluations: result.evaluations,
                stats: result.stats,
                certificate: None,
                warm: None,
                edit_ns: 0,
            }
        }
        (Op::Warm { edit, .. }, Prepared::Portfolio(spec)) => {
            let problem = &mut bed.problems[request.problem];
            let span = tracer.begin("request.edit");
            let t = Instant::now();
            apply_edit(problem, edit);
            let edit_ns = t.elapsed().as_nanos() as u64;
            tracer.end(span);
            let span = tracer.begin("request.warm_solve");
            let solve =
                bed.caches[request.problem].solve(problem, spec, request.budget, request.seed);
            tracer.end(span);
            let warm = match solve.source {
                WarmSource::ExactHit => WarmKind::Hit,
                WarmSource::NearHit { .. } => WarmKind::Near,
                WarmSource::Cold => WarmKind::Cold,
            };
            Raw {
                mapping: solve.result.best_mapping,
                score: solve.result.best_score,
                // Work actually done: an exact hit's stored result
                // still carries the original run's evaluations.
                evaluations: solve.evaluations_spent,
                stats: solve.result.stats,
                certificate: None,
                warm: Some(warm),
                edit_ns,
            }
        }
        (Op::Warm { .. }, Prepared::Single { .. }) => {
            unreachable!("warm requests are prepared as portfolios")
        }
    }
}

/// Applies one in-place edit. The plan only generates valid edits, so
/// an error here is a benchmark bug.
fn apply_edit(problem: &mut MappingProblem, edit: &Edit) {
    let done = match edit {
        Edit::None => Ok(()),
        Edit::Reweight(updates) => {
            let updates: Vec<(TaskId, TaskId, f64)> = updates
                .iter()
                .map(|&(s, d, bw)| (TaskId(s), TaskId(d), bw))
                .collect();
            problem.update_edge_bandwidths(&updates)
        }
        Edit::Add(s, d, bw) => problem.add_edge(TaskId(*s), TaskId(*d), *bw),
        Edit::Remove(s, d) => problem.remove_edge(TaskId(*s), TaskId(*d)),
    };
    done.expect("generated edits are valid");
}

/// The `opt.<name>` group of a request.
fn group_of(op: &Op) -> &'static str {
    let spec = match op {
        Op::Search(spec) => spec.as_str(),
        Op::Warm { .. } => return "portfolio",
    };
    if spec.starts_with("portfolio:") {
        return "portfolio";
    }
    let name = spec.split(['@', '/', '!']).next().unwrap_or(spec);
    OPT_GROUPS
        .iter()
        .copied()
        .find(|g| *g == name)
        .unwrap_or("other")
}

/// Runs every per-request output check on `raw`.
fn check(bed: &Bed, index: usize, raw: Raw, ns: u64) -> Outcome {
    let request = &bed.plan.requests[index];
    let problem = &bed.problems[request.problem];
    let mut failures = Vec::new();

    // The best mapping places every task on its own tile.
    let tiles = problem.tile_count();
    let mut used = vec![false; tiles];
    let injective = raw.mapping.task_count() == problem.task_count()
        && raw.mapping.tile_count() == tiles
        && raw
            .mapping
            .assignment()
            .iter()
            .all(|t| t.0 < tiles && !std::mem::replace(&mut used[t.0], true));
    if !injective {
        failures.push("best mapping is not injective onto the tiles".to_owned());
    } else {
        // Problems are built with the request's own objective, so the
        // re-score is direct.
        let (_, rescored) = problem.evaluate(&raw.mapping);
        if rescored.to_bits() != raw.score.to_bits() {
            failures.push(format!(
                "re-score {rescored} does not bit-match best_score {}",
                raw.score
            ));
        }
    }
    if let Op::Search(_) = &request.op {
        if let Prepared::Single { search, .. } = &bed.prepared[index] {
            if search.objective.is_some_and(|o| o != problem.objective()) {
                failures.push("request objective differs from its problem's".to_owned());
            }
        }
    }
    if !raw.stats.reconciles() {
        failures.push("RunStats do not reconcile with the ledger".to_owned());
    }
    if raw.evaluations > request.budget {
        failures.push(format!(
            "spent {} evaluations over a budget of {}",
            raw.evaluations, request.budget
        ));
    }
    if let Op::Warm { expect, .. } = &request.op {
        let want = match expect {
            Expect::Cold => WarmKind::Cold,
            Expect::Near => WarmKind::Near,
            Expect::Hit => WarmKind::Hit,
        };
        if raw.warm != Some(want) {
            failures.push(format!("warm answer {:?}, expected {want:?}", raw.warm));
        }
        if raw.warm == Some(WarmKind::Hit) && raw.evaluations != 0 {
            failures.push(format!("exact hit spent {} evaluations", raw.evaluations));
        }
    }
    if let Some((_, root, gap)) = raw.certificate {
        if gap.to_bits() != (root - raw.score).to_bits() || gap < 0.0 {
            failures.push(format!("certificate gap {gap} is not root − best ≥ 0"));
        }
    }
    Outcome {
        index,
        problem: request.problem,
        group: group_of(&request.op),
        ns,
        edit_ns: raw.edit_ns,
        score: raw.score,
        evaluations: raw.evaluations,
        budget: request.budget,
        stats: raw.stats,
        certificate: raw.certificate.map(|(p, r, _)| (p, r)),
        warm: raw.warm,
        failures,
    }
}

/// A proved certificate's score is the optimum of its problem: its gap
/// to that optimum is zero by definition, and no other request on the
/// same problem may score above it (a negative gap).
fn check_certificates(outcomes: &mut [Outcome]) {
    let optima: Vec<(usize, f64)> = outcomes
        .iter()
        .filter(|o| matches!(o.certificate, Some((true, _))))
        .map(|o| (o.problem, o.score))
        .collect();
    for (problem, optimum) in optima {
        for o in outcomes.iter_mut().filter(|o| o.problem == problem) {
            let gap = optimum - o.score;
            if gap < 0.0 {
                o.failures.push(format!(
                    "scores {} above the proved optimum {optimum} (gap {gap})",
                    o.score
                ));
            }
        }
    }
}
