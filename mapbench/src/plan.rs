//! Request plans: the exact request list each workload sends, derived
//! from the workload seed alone.
//!
//! A [`Plan`] is pure data — problem recipes plus requests — so the
//! program under test receives only generated inputs, and the same
//! seed always yields a byte-identical plan ([`Plan::describe`]).

use bench::sweep::PORTFOLIO_SPEC;
use bench::TABLE2_APPS;
use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{MappingProblem, Objective};
use phonoc_topo::TopologyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Table II grid × every registered optimizer.
    PaperDse,
    /// 12×12 / 16×16 scenario cells × every optimizer + portfolio.
    LargeMesh,
    /// Warm-cache request streams with in-place problem edits.
    WarmStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDse,
        Workload::LargeMesh,
        Workload::WarmStream,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDse => "paper-dse",
            Workload::LargeMesh => "large-mesh",
            Workload::WarmStream => "warm-stream",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a plan asks for: `Full` is the measured benchmark,
/// `Smoke` the same request shapes on small cells at tiny budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Measurement sizing.
    Full,
    /// Seconds-long sizing with every output check still on.
    Smoke,
}

/// Per-request budget of `paper-dse` (full-evaluation equivalents).
const PAPER_BUDGET: usize = 5_000;
/// Per-request budget of `large-mesh`.
const LARGE_BUDGET: usize = 120;
/// Per-request budget of `warm-stream`.
const WARM_BUDGET: usize = 150;
/// Per-request budget of every smoke workload.
const SMOKE_BUDGET: usize = 24;

/// The single-lane spec every `large-mesh` cell adds beside the
/// registry: R-PBLA under the loss objective.
pub const LOSS_SPEC: &str = "r-pbla!loss";

/// How to build one problem of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProblemRecipe {
    /// A paper benchmark on its fitted mesh or torus.
    Paper {
        /// Table II application name.
        app: &'static str,
        /// Mesh or torus.
        kind: TopologyKind,
        /// The objective every request on this problem scores under.
        objective: Objective,
    },
    /// A generated scenario on a full mesh.
    Scenario {
        /// The scenario cell.
        spec: ScenarioSpec,
        /// The objective every request on this problem scores under.
        objective: Objective,
    },
}

impl ProblemRecipe {
    /// Builds the problem through the public constructors.
    #[must_use]
    pub fn build(&self) -> MappingProblem {
        match *self {
            ProblemRecipe::Paper {
                app,
                kind,
                objective,
            } => bench::paper_problem(app, kind, objective),
            ProblemRecipe::Scenario { spec, objective } => {
                bench::sweep::scenario_problem_with_objective(&spec, objective)
            }
        }
    }

    /// A stable one-line label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ProblemRecipe::Paper {
                app,
                kind,
                objective,
            } => format!("{app}/{kind}/{}", objective.name()),
            ProblemRecipe::Scenario { spec, objective } => {
                format!("{}/{}", spec.id(), objective.name())
            }
        }
    }
}

/// An in-place edit applied to a live problem before a warm request.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// No edit: the request repeats the previous one.
    None,
    /// New bandwidths `(src, dst, bandwidth)` for every edge.
    Reweight(Vec<(usize, usize, f64)>),
    /// Adds `src → dst` with a bandwidth.
    Add(usize, usize, f64),
    /// Removes `src → dst`.
    Remove(usize, usize),
}

/// What the warm cache must answer a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// First sighting of the cell: a cold run.
    Cold,
    /// A same-family request with different edges: a donor-seeded run.
    Near,
    /// Canonically equal to a solved request: zero evaluations.
    Hit,
}

/// What one request does.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One search under a registry spec (single optimizer or
    /// `portfolio:`); `exact` runs through `prove`.
    Search(String),
    /// Applies `edit` to the live problem, then solves through the
    /// cell's warm cache with the sweep's portfolio spec.
    Warm {
        /// The edit (the write half of the request).
        edit: Edit,
        /// The outcome the cache must report.
        expect: Expect,
    },
}

/// One mapping request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into [`Plan::problems`].
    pub problem: usize,
    /// What the request does.
    pub op: Op,
    /// Evaluation budget.
    pub budget: usize,
    /// Search seed.
    pub seed: u64,
}

/// A workload's full request list.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed everything derives from.
    pub seed: u64,
    /// Problems, built once per set-up.
    pub problems: Vec<ProblemRecipe>,
    /// Requests in send order.
    pub requests: Vec<Request>,
}

/// SplitMix64 finalizer over `(seed, salt)`: the one seed-derivation
/// rule of the benchmark.
#[must_use]
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Plan {
    /// Generates the plan of `workload` for `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64, effort: Effort) -> Plan {
        let mut plan = Plan {
            workload,
            seed,
            problems: Vec::new(),
            requests: Vec::new(),
        };
        match workload {
            Workload::PaperDse => plan.paper_dse(effort),
            Workload::LargeMesh => plan.large_mesh(effort),
            Workload::WarmStream => plan.warm_stream(effort),
        }
        plan
    }

    /// The search seed of the `n`-th request.
    fn search_seed(&self, n: usize) -> u64 {
        derive(self.seed, 0x5EED_0000 + n as u64)
    }

    fn push_search(&mut self, problem: usize, spec: &str, budget: usize) {
        let seed = self.search_seed(self.requests.len());
        self.requests.push(Request {
            problem,
            op: Op::Search(spec.to_owned()),
            budget,
            seed,
        });
    }

    fn paper_dse(&mut self, effort: Effort) {
        let (apps, budget): (&[&'static str], usize) = match effort {
            Effort::Full => (&TABLE2_APPS, PAPER_BUDGET),
            Effort::Smoke => (&TABLE2_APPS[5..6], SMOKE_BUDGET),
        };
        for &app in apps {
            for kind in [TopologyKind::Mesh, TopologyKind::Torus] {
                for objective in [
                    Objective::MaximizeWorstCaseSnr,
                    Objective::MinimizeWorstCaseLoss,
                ] {
                    let problem = self.problems.len();
                    self.problems.push(ProblemRecipe::Paper {
                        app,
                        kind,
                        objective,
                    });
                    for name in phonoc_opt::builtin_names() {
                        self.push_search(problem, name, budget);
                    }
                }
            }
        }
    }

    /// The scenario seed of cell `n` of a scenario workload.
    fn scenario_seed(&self, n: usize) -> u64 {
        // Scenario ids print the seed; keep it short and non-zero.
        derive(self.seed, 0x5CE7_0000 + n as u64) % 1_000_000 + 1
    }

    fn large_mesh(&mut self, effort: Effort) {
        // `(mesh, cells per family)`: three 12×12 cells and one 16×16
        // cell per family average over several graphs of each shape
        // while bounding the memory the 16×16 problems take.
        let (meshes, budget): (&[(usize, usize)], usize) = match effort {
            Effort::Full => (&[(12, 3), (16, 1)], LARGE_BUDGET),
            Effort::Smoke => (&[(4, 1), (5, 1)], SMOKE_BUDGET),
        };
        let families = [
            ScenarioFamily::Hotspot,
            ScenarioFamily::MpegLike,
            ScenarioFamily::Pipeline,
            ScenarioFamily::Clustered,
        ];
        let mut cell = 0;
        for family in families {
            for &(mesh, replicas) in meshes {
                for _ in 0..replicas {
                    let spec = ScenarioSpec {
                        family,
                        mesh,
                        density_pct: 100,
                        seed: self.scenario_seed(cell),
                    };
                    cell += 1;
                    let snr = self.problems.len();
                    self.problems.push(ProblemRecipe::Scenario {
                        spec,
                        objective: Objective::MaximizeWorstCaseSnr,
                    });
                    let loss = self.problems.len();
                    self.problems.push(ProblemRecipe::Scenario {
                        spec,
                        objective: Objective::MinimizeWorstCaseLoss,
                    });
                    for name in phonoc_opt::builtin_names() {
                        self.push_search(snr, name, budget);
                    }
                    self.push_search(snr, PORTFOLIO_SPEC, budget);
                    self.push_search(loss, LOSS_SPEC, budget);
                }
            }
        }
    }

    fn warm_stream(&mut self, effort: Effort) {
        use ScenarioFamily::{Clustered, Hotspot, Pipeline, Random};
        // Two 8×8 cells, and three 12×12 cells of each family. An 8×8 run is
        // mostly the portfolio's per-round lane barriers, whose cost
        // swings with the load on the host's second core; keeping those
        // cells few puts the median request among the 12×12 runs.
        let (cells, rounds, budget): (Vec<(ScenarioFamily, usize)>, usize, usize) = match effort {
            Effort::Full => {
                let mut cells = vec![(Pipeline, 8), (Hotspot, 8)];
                for family in [Pipeline, Random, Hotspot, Clustered] {
                    cells.extend([(family, 12); 3]);
                }
                (cells, 2, WARM_BUDGET)
            }
            Effort::Smoke => (vec![(Pipeline, 4), (Hotspot, 4)], 1, SMOKE_BUDGET),
        };
        for (n, (family, mesh)) in cells.into_iter().enumerate() {
            let spec = ScenarioSpec {
                family,
                mesh,
                density_pct: 100,
                seed: self.scenario_seed(n),
            };
            let problem = self.problems.len();
            self.problems.push(ProblemRecipe::Scenario {
                spec,
                objective: Objective::MaximizeWorstCaseSnr,
            });
            // Every request of a cell shares one search seed, so a
            // repeated problem state is a canonically equal request.
            let seed = self.search_seed(self.requests.len());
            let mut rng = StdRng::seed_from_u64(derive(self.seed, 0xED17_0000 + n as u64));
            let edges: Vec<(usize, usize, f64)> = spec
                .build()
                .edges()
                .iter()
                .map(|e| (e.src.0, e.dst.0, e.bandwidth))
                .collect();
            let ops = warm_ops(edges, mesh * mesh, rounds, &mut rng);
            for (edit, expect) in ops {
                self.requests.push(Request {
                    problem,
                    op: Op::Warm { edit, expect },
                    budget,
                    seed,
                });
            }
        }
    }

    /// Every request's search seed, in send order.
    #[must_use]
    pub fn search_seeds(&self) -> Vec<u64> {
        self.requests.iter().map(|r| r.seed).collect()
    }

    /// Every scenario cell's seed, in problem order (empty for the
    /// paper grid, whose applications are fixed).
    #[must_use]
    pub fn scenario_seeds(&self) -> Vec<u64> {
        self.problems
            .iter()
            .filter_map(|p| match p {
                ProblemRecipe::Scenario { spec, .. } => Some(spec.seed),
                ProblemRecipe::Paper { .. } => None,
            })
            .collect()
    }

    /// A canonical text rendering of the whole plan (bandwidths as
    /// bit patterns), one line per problem and per request.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = format!("plan {} seed={}\n", self.workload.name(), self.seed);
        for (i, p) in self.problems.iter().enumerate() {
            let _ = writeln!(out, "problem {i} {}", p.label());
        }
        for (i, r) in self.requests.iter().enumerate() {
            let _ = write!(
                out,
                "request {i} problem={} budget={} seed={} ",
                r.problem, r.budget, r.seed
            );
            match &r.op {
                Op::Search(spec) => {
                    let _ = writeln!(out, "search {spec}");
                }
                Op::Warm { edit, expect } => {
                    let _ = write!(out, "warm expect={expect:?} ");
                    match edit {
                        Edit::None => out.push_str("repeat"),
                        Edit::Reweight(w) => {
                            out.push_str("reweight");
                            for &(s, d, bw) in w {
                                let _ = write!(out, " {s}>{d}:{:016x}", bw.to_bits());
                            }
                        }
                        Edit::Add(s, d, bw) => {
                            let _ = write!(out, "add {s}>{d}:{:016x}", bw.to_bits());
                        }
                        Edit::Remove(s, d) => {
                            let _ = write!(out, "remove {s}>{d}");
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// One cell's warm request stream: a cold request, then `rounds`
/// rounds of six follow-ups in a fixed pattern — a structural edit (add
/// a fresh edge or remove one), a ≤10% re-weight of every edge, an
/// exact repeat, the revert of the structural edit, another re-weight
/// and another repeat. A third are repeats (reads), a third re-weights,
/// a third structural writes. Each request's warm answer is fixed by
/// its place in the pattern (repeats hit; everything else is a near
/// hit, since a re-weight sits between an edit and its revert), so the
/// cold/near/hit counts are the same for every seed; the seed picks the
/// edit kinds, the edited edges and the new bandwidths.
fn warm_ops(
    mut edges: Vec<(usize, usize, f64)>,
    tasks: usize,
    rounds: usize,
    rng: &mut StdRng,
) -> Vec<(Edit, Expect)> {
    let reweight = |edges: &mut Vec<(usize, usize, f64)>, rng: &mut StdRng| {
        for e in edges.iter_mut() {
            e.2 *= rng.gen_range(0.9..1.1);
        }
        (Edit::Reweight(edges.clone()), Expect::Near)
    };
    let mut ops = vec![(Edit::None, Expect::Cold)];
    for _ in 0..rounds {
        let (edit, revert) = if rng.gen_bool(0.5) {
            // Add a fresh edge; the revert removes it.
            let (s, d) = loop {
                let s = rng.gen_range(0..tasks);
                let d = rng.gen_range(0..tasks);
                if s != d && !edges.iter().any(|e| e.0 == s && e.1 == d) {
                    break (s, d);
                }
            };
            let bw = edges[rng.gen_range(0..edges.len())].2;
            edges.push((s, d, bw));
            (Edit::Add(s, d, bw), Edit::Remove(s, d))
        } else {
            // Remove an edge; the revert puts it back at the end of the
            // edge list with its old bandwidth.
            let (s, d, bw) = edges.remove(rng.gen_range(0..edges.len()));
            (Edit::Remove(s, d), Edit::Add(s, d, bw))
        };
        ops.push((edit, Expect::Near));
        ops.push(reweight(&mut edges, rng));
        ops.push((Edit::None, Expect::Hit));
        match revert {
            Edit::Remove(s, d) => edges.retain(|e| (e.0, e.1) != (s, d)),
            Edit::Add(s, d, bw) => edges.push((s, d, bw)),
            Edit::None | Edit::Reweight(_) => {}
        }
        ops.push((revert, Expect::Near));
        ops.push(reweight(&mut edges, rng));
        ops.push((Edit::None, Expect::Hit));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_plan() {
        for w in Workload::ALL {
            for effort in [Effort::Full, Effort::Smoke] {
                let a = Plan::generate(w, 7, effort).describe();
                let b = Plan::generate(w, 7, effort).describe();
                assert_eq!(a, b, "{}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_scenario_and_search_seeds() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 1, Effort::Full);
            let b = Plan::generate(w, 2, Effort::Full);
            assert_ne!(a.search_seeds(), b.search_seeds(), "{}", w.name());
            if w != Workload::PaperDse {
                assert_ne!(a.scenario_seeds(), b.scenario_seeds(), "{}", w.name());
                assert!(a
                    .scenario_seeds()
                    .iter()
                    .all(|s| !b.scenario_seeds().contains(s)));
            }
        }
    }

    #[test]
    fn full_plans_have_the_documented_shape() {
        let paper = Plan::generate(Workload::PaperDse, 3, Effort::Full);
        assert_eq!(paper.requests.len(), 8 * 2 * 2 * 8);
        let large = Plan::generate(Workload::LargeMesh, 3, Effort::Full);
        assert_eq!(large.requests.len(), 4 * 4 * 10);
        assert!(large
            .requests
            .iter()
            .all(|r| r.budget == LARGE_BUDGET && r.problem < large.problems.len()));
        let warm = Plan::generate(Workload::WarmStream, 3, Effort::Full);
        assert!(warm.requests.len() >= 100);
        let count = |want: Expect| {
            warm.requests
                .iter()
                .filter(|r| matches!(r.op, Op::Warm { expect, .. } if expect == want))
                .count()
        };
        assert_eq!(count(Expect::Cold), 14);
        assert_eq!(count(Expect::Hit), 56);
        assert_eq!(count(Expect::Near), 112);
    }

    #[test]
    fn warm_rounds_restore_the_edge_set() {
        let mut rng = StdRng::seed_from_u64(9);
        let edges = vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)];
        let mut live = edges.clone();
        for (edit, _) in warm_ops(edges.clone(), 4, 3, &mut rng) {
            match edit {
                Edit::None | Edit::Reweight(_) => {}
                Edit::Add(s, d, bw) => live.push((s, d, bw)),
                Edit::Remove(s, d) => live.retain(|e| (e.0, e.1) != (s, d)),
            }
        }
        let key = |v: &[(usize, usize, f64)]| {
            let mut k: Vec<(usize, usize)> = v.iter().map(|e| (e.0, e.1)).collect();
            k.sort_unstable();
            k
        };
        assert_eq!(key(&live), key(&edges));
    }
}
