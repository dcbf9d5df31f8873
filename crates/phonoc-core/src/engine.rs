//! The design-space exploration engine: budgeted, seeded, fair.
//!
//! The paper compares RS, GA and R-PBLA "with the same running time". We
//! substitute a deterministic, machine-independent notion of fairness:
//! every optimizer receives the same **evaluation budget**, enforced by
//! [`OptContext`] — the only way an optimizer can score a mapping. The
//! context also tracks the incumbent best and a convergence history, so
//! no optimizer can forget its best or exceed its budget.
//!
//! # Budget units and incremental moves
//!
//! A full evaluation re-scores every CG edge, but an incremental
//! [`Move`] evaluation ([`OptContext::peek_move`]) only re-scores the
//! edges a swap actually perturbs. Charging both one "evaluation" would
//! overbill delta evaluation by an order of magnitude, so the budget is
//! tracked in integer **edge units**: a budget of `B` evaluations is
//! `B × edge_count` units, a full evaluation costs `edge_count` units,
//! and a peek costs `max(1, work)` units — the honest amount of
//! evaluator work it triggered (affected edges for an exact SNR delta,
//! moved edges for a loss delta, victims recomputed before rejection
//! for a bounded peek). All arithmetic is integral, so accounting is
//! exact and deterministic. The one courtesy rule: an action that
//! *starts* within budget is allowed to complete, with the spend
//! saturating at the budget (`evaluations` then reports exactly the
//! configured budget).
//!
//! # Typed, objective-aware peeks
//!
//! Peeks dispatch on the problem [`Objective`] **family** (see
//! [`Objective::is_loss_based`]) and return a [`MoveEval`] **typed by
//! what was actually computed**, so stale figures cannot leak:
//!
//! * loss-based family (worst-case loss, and the modulation-aware
//!   laser-power objective, which is the same worst-link figure shifted
//!   by a constant margin) — [`MoveEval::Loss`] from the crosstalk-free
//!   fast path (`evaluate_delta_loss`), one to two orders of magnitude
//!   cheaper than an SNR delta; improving-only scans additionally ride
//!   the bound-then-verify loss peek (`evaluate_delta_loss_bounded`)
//!   against the threshold [`Objective::il_threshold_for_score`]
//!   derives from the cursor score;
//! * SNR-based family (worst-case SNR, SNR margin), exact
//!   ([`OptContext::peek_move`] / [`OptContext::peek_moves`]) —
//!   [`MoveEval::Snr`] with the full bit-exact delta, or
//!   [`MoveEval::Full`] when the active [`PeekStrategy`] routed the
//!   move to a full scratch re-evaluation;
//! * SNR-based family, improving-only
//!   ([`OptContext::peek_move_improving`] /
//!   [`OptContext::peek_moves_improving`]) — bound-then-verify: moves
//!   that cannot beat the cursor come back as [`MoveEval::Bounded`]
//!   (admissible upper bound, cheap), candidates that might improve are
//!   scored exactly. Greedy selection over an improving scan is
//!   identical to one over exact peeks (property-tested).
//!
//! Every route is bit-identical for every objective in its family
//! (`tests/hybrid_properties.rs` pins all four objectives under all
//! three strategies), so an optimizer written against the peek family
//! is objective-generic for free: the same greedy scan minimizes loss,
//! maximizes SNR, or minimizes the modulation-aware launch power,
//! depending only on the [`Objective`] the context carries.
//!
//! Only exact variants can be committed; [`OptContext::apply_scored_move`]
//! rejects a bounded peek.
//!
//! # What each objective family computes
//!
//! The context computes only what the session's objective reads, and
//! keeps its cursor's buffers rather than rebuilding them:
//!
//! * **loss-based** (worst-case loss, laser power) — every full
//!   evaluation ([`OptContext::evaluate`], [`OptContext::evaluate_batch`],
//!   [`OptContext::set_current`]) is an insertion-loss-only pass: one
//!   path-table lookup per edge, min-folded exactly as the full pass
//!   folds it, with no crosstalk. The cursor holds an IL-only
//!   [`EvalState`] (paths, per-edge losses, worst case), which is all
//!   the loss peeks read, and a commit updates the moved edges and the
//!   worst case only. Batches run inline: an item costs tens of
//!   nanoseconds, less than waking a worker.
//! * **SNR-based** (worst-case SNR, SNR margin) — full evaluations run
//!   the crosstalk pass; the cursor holds the complete state. A seat
//!   refills the existing state in place, and under
//!   [`PeekStrategy::Hybrid`] a commit follows the route its peek took:
//!   a [`MoveEval::Full`] peek (the router judged a full pass cheaper
//!   than the delta for that move) re-seats in place, any other peek
//!   commits through the incremental delta. Pinned strategies always
//!   commit through the delta: a pinned full peek says nothing about
//!   what the move costs.
//!
//! Either way scores, trajectories, the evaluation ledger and
//! [`RunStats`] are bit-identical to running the full crosstalk pass
//! everywhere: a skipped pass is still charged and counted as the full
//! evaluation it stands in for. Only wall time moves.
//!
//! # One entry point
//!
//! Callers run searches through [`run_dse`] with a [`DseConfig`]: the
//! budget and seed plus the optional knobs — [`PeekStrategy`],
//! [`NeighborhoodPolicy`], an [`Objective`] override (applied via
//! [`OptContext::set_objective`] *before* any evaluation, so a
//! session's scores are always on one scale), and a seed-start
//! [`Mapping`], and the [`DseConfig::trace`] switch that records the
//! session's [`TraceEvent`] stream into [`DseResult::trace`]. Code that
//! drives a context itself (the exact lane's certificate search) builds
//! it with [`OptContext::configured`], the same configuration step.
//!
//! # The adaptive (hybrid) evaluation strategy
//!
//! The PR 2 benches overturned the "deltas are always cheaper"
//! assumption: after the scratch optimization, a full
//! [`crate::Evaluator::evaluate_into`] re-evaluation beats even the
//! *exact* SNR delta on dense random placements at every measured mesh
//! size — the delta only wins when a move perturbs few communications
//! relative to the whole problem. SNR-objective peeks therefore route
//! **per move** under a [`PeekStrategy`]:
//!
//! * [`PeekStrategy::Hybrid`] (the default) consults a
//!   [`PeekCostModel`] calibrated from the problem's occupancy density
//!   at [`OptContext::set_current`] time: moves whose cheap moved-edge
//!   estimate ([`crate::Evaluator::moved_edge_count`], two index
//!   lookups) predicts more delta work than a full pass are scored by a
//!   full scratch re-evaluation ([`MoveEval::Full`]), the rest by the
//!   exact delta (or the bound-then-verify peek in `_improving` scans);
//! * [`PeekStrategy::Delta`] / [`PeekStrategy::Full`] pin one backend —
//!   for benchmarking the router itself and for tests that exercise one
//!   path's accounting.
//!
//! All routes are **bit-identical**, so the strategy can never change a
//! committed score or a greedy selection (property-tested in
//! `tests/hybrid_properties.rs`) — only the wall-clock cost and the
//! *honest* budget charge: a full-backed peek is billed `edge_count`
//! units (and counted as a full evaluation), a delta peek its
//! `affected_edges`. Cheaper routes simply buy more peeks out of the
//! same budget.
//!
//! # Neighbourhood policies
//!
//! Orthogonal to *how* a move is scored (the peek strategy) is *which*
//! moves a swap-based search looks at: the [`NeighborhoodPolicy`] on
//! the context selects the move stream (`exhaustive` admitted list,
//! seeded `sampled` subsets, Manhattan-`locality` restriction, or
//! size-`auto`) that the `Neighborhood` abstraction in `phonoc-opt`
//! materializes. The engine only stores and hands out the policy —
//! scoring, routing and budget accounting are unchanged underneath, so
//! every policy inherits the bit-exactness and honest-ledger guarantees
//! above. Set it per run with [`DseConfig::with_policy`].
//!
//! # Seeded starts (portfolio lanes, warm starts)
//!
//! Optimizers obtain their first solution through
//! [`OptContext::initial_mapping`] — normally a plain random draw, but
//! a caller can plant a specific mapping with
//! [`OptContext::set_seed_start`] (consumed exactly once). This is the
//! elite-exchange hook of the portfolio subsystem in `phonoc-opt`:
//! between bulk-synchronous rounds, a lane resumes from the incumbent
//! its [`DseConfig::start`] carries — and the warm-start cache rides
//! the same hook to seed round 0 from a previously solved neighbour.
//! Unseeded contexts behave bit-identically to the pre-hook engine.
//! A planted seed that nobody consumes is logged once per process and
//! queryable via [`OptContext::seed_start_pending`] (not asserted:
//! start-free strategies like random search legitimately ignore
//! seeds).
//!
//! # Reusable contexts (request streams)
//!
//! A context is built per *session*, but a long-lived driver solving a
//! stream of related requests should not rebuild one per request:
//! [`OptContext::reset_for`] re-arms an existing context for a new
//! `(problem, budget, seed)` while keeping the allocated capital — the
//! grow-only full-evaluation [`EvalScratch`] and the cursor's
//! [`DeltaScratch`] — so steady-state sessions allocate nothing on the
//! hot path. [`OptContext::finish`] extracts a [`DseResult`] without
//! consuming the context, making the persistent-engine loop:
//! `reset_for` → `optimize` → `finish`, repeat. A reused context is
//! property-tested bit-identical to a fresh one
//! (`tests/mutation_properties.rs`); pair with the incremental problem
//! mutation API on [`MappingProblem`] to re-solve a mutated problem
//! without re-running the architecture precomputations.
//!
//! # Telemetry
//!
//! Every routing, bounding and improvement decision the context makes
//! is counted in a [`RunStats`] ledger (always on — integer increments
//! in the same sequential code that keeps the evaluation counters, so
//! they are deterministic at any worker count) and, when
//! [`DseConfig::trace`] is set, additionally recorded as a typed
//! [`TraceEvent`] into a plain vector the context owns. With the
//! switch off the context holds no vector, emission sites skip event
//! construction entirely, and results are bit-identical either way
//! (property-pinned in `tests/telemetry_properties.rs`).
//! [`DseResult::trace`] carries the recorded events (empty when off)
//! and [`DseResult::stats`] the counter snapshot. See
//! [`crate::telemetry`] for the event taxonomy, the determinism
//! contract (counters and event streams deterministic, wall-clock
//! timings advisory and outside the trace) and the reconciliation
//! identities tying the route counters to the evaluation ledger.
//!
//! Optimizers implement [`MappingOptimizer`] (the trait lives here in the
//! core so that new strategies can be added "without any changes in the
//! tool core", paper Section I — implementations live in `phonoc-opt`).
//! Swap-based strategies walk a *cursor* — [`OptContext::set_current`]
//! to full-evaluate a starting point (refilling the cursor's reused
//! [`EvalState`] in place), the peek family to score candidate moves
//! incrementally, and [`OptContext::apply_scored_move`] to commit one —
//! while population strategies batch-score whole generations with
//! [`OptContext::evaluate_batch`].

use crate::error::CoreError;
use crate::evaluator::{
    BoundedDelta, BoundedLossDelta, DeltaScratch, EvalScratch, EvalState, EvalSummary,
    PeekCostModel, ScoreDelta,
};
use crate::mapping::{Mapping, Move};
use crate::parallel;
use crate::problem::{MappingProblem, Objective};
use crate::telemetry::{PeekRoute, RunStats, TraceEvent};
use phonoc_phys::Db;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// How SNR-objective peeks score a candidate move (loss-objective peeks
/// always ride the crosstalk-free fast path, which no alternative
/// approaches). See the [module docs](self) for the measured rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeekStrategy {
    /// Route each move adaptively through the [`PeekCostModel`]
    /// calibrated at [`OptContext::set_current`] time (default).
    #[default]
    Hybrid,
    /// Always the incremental delta (exact, or bound-then-verify in the
    /// `_improving` peeks) — the pre-hybrid behaviour.
    Delta,
    /// Always a full scratch re-evaluation of the moved mapping.
    Full,
}

impl PeekStrategy {
    /// Every strategy, in the canonical order.
    pub const ALL: [PeekStrategy; 3] = [
        PeekStrategy::Hybrid,
        PeekStrategy::Delta,
        PeekStrategy::Full,
    ];

    /// Stable lowercase identifier (used by CLI flags and portfolio
    /// lane specs).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PeekStrategy::Hybrid => "hybrid",
            PeekStrategy::Delta => "delta",
            PeekStrategy::Full => "full",
        }
    }

    /// Looks a strategy up by its [`PeekStrategy::name`]
    /// (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<PeekStrategy> {
        let lower = name.to_lowercase();
        PeekStrategy::ALL.into_iter().find(|s| s.name() == lower)
    }
}

impl fmt::Display for PeekStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How swap-based optimizers enumerate their neighbourhood — the
/// engine-level knob behind the `Neighborhood` move streams implemented
/// in `phonoc-opt`. The policy lives on the [`OptContext`] (set it with
/// [`OptContext::set_neighborhood_policy`] or run through
/// [`DseConfig::with_policy`]) so one setting reaches every optimizer a
/// sweep runs, while the hybrid peek router and the honest budget
/// ledger keep working unchanged underneath: a policy only changes
/// *which* moves a scan looks at, never how a looked-at move is scored
/// or billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NeighborhoodPolicy {
    /// Resolve per problem size: the exhaustive admitted list up to
    /// 8×8-class meshes (where a full scan still fits the paper's
    /// budgets), seeded uniform sampling beyond. The default.
    #[default]
    Auto,
    /// The full admitted swap list in its canonical order — the
    /// original behaviour, kept as the small-mesh default and the test
    /// oracle.
    Exhaustive,
    /// Seeded uniform swap sampling without replacement over the
    /// admitted pairs: each scan pass draws a fresh duplicate-free
    /// subset, so best-of-scanned selection is unbiased instead of
    /// lexicographically truncated.
    Sampled,
    /// Distance-restricted swaps: only moves whose two exchanged tiles
    /// (under the *current* cursor mapping) lie within a Manhattan
    /// radius of each other, widening adaptively when a scan goes dry.
    Locality,
}

impl NeighborhoodPolicy {
    /// Every policy, in the canonical order.
    pub const ALL: [NeighborhoodPolicy; 4] = [
        NeighborhoodPolicy::Auto,
        NeighborhoodPolicy::Exhaustive,
        NeighborhoodPolicy::Sampled,
        NeighborhoodPolicy::Locality,
    ];

    /// Stable lowercase identifier (used by CLI flags and sweep JSON).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NeighborhoodPolicy::Auto => "auto",
            NeighborhoodPolicy::Exhaustive => "exhaustive",
            NeighborhoodPolicy::Sampled => "sampled",
            NeighborhoodPolicy::Locality => "locality",
        }
    }

    /// Looks a policy up by its [`NeighborhoodPolicy::name`]
    /// (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<NeighborhoodPolicy> {
        let lower = name.to_lowercase();
        NeighborhoodPolicy::ALL
            .into_iter()
            .find(|p| p.name() == lower)
    }
}

impl fmt::Display for NeighborhoodPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scored candidate [`Move`], produced by the peek entry points
/// ([`OptContext::peek_move`], [`OptContext::peek_moves`], and their
/// `_improving` variants) and consumed by
/// [`OptContext::apply_scored_move`].
///
/// The variant is **typed by what was actually computed**, so stale
/// fields cannot leak: a loss-objective peek never carries an SNR
/// figure (none was evaluated), and a bound-rejected peek carries only
/// its upper bound (the exact score was never derived).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveEval {
    /// Loss-objective peek: only the new worst-case insertion loss was
    /// computed, via the crosstalk-free fast path
    /// ([`crate::Evaluator::evaluate_delta_loss`]).
    Loss {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case IL in dB; higher =
        /// better) — bit-identical to a full evaluation.
        score: f64,
        /// Worst-case insertion loss after the move.
        new_worst_il: Db,
        /// Edges whose paths the move changes (the delta's honest
        /// cost).
        moved_edges: usize,
    },
    /// SNR-objective exact peek: the full incremental delta.
    Snr {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case SNR in dB; higher =
        /// better) — bit-identical to a full evaluation.
        score: f64,
        /// The underlying incremental evaluation.
        delta: ScoreDelta,
    },
    /// Full-scratch peek: the moved mapping was re-evaluated from
    /// scratch because the active [`PeekStrategy`] predicted the delta
    /// would cost more ([`PeekStrategy::Hybrid`]) or was pinned to full
    /// evaluation ([`PeekStrategy::Full`]). Exact and committable —
    /// bit-identical to the delta-backed [`MoveEval::Snr`] — and billed
    /// the full pass's honest cost (`edge_count` budget units, counted
    /// as a full evaluation).
    Full {
        /// The move that was scored.
        mv: Move,
        /// Objective score (the new worst-case SNR in dB; higher =
        /// better).
        score: f64,
        /// The full evaluation's worst cases.
        summary: EvalSummary,
    },
    /// Bound-rejected SNR peek: the move's exact score is `≤ bound ≤`
    /// the threshold it was tested against (the cursor score, for the
    /// `_improving` peeks), so it cannot improve. It carries no exact
    /// score and **cannot be committed**.
    Bounded {
        /// The move that was bounded.
        mv: Move,
        /// Admissible upper bound on the move's score.
        bound: Db,
    },
}

impl MoveEval {
    /// The move this evaluation describes.
    #[must_use]
    pub fn mv(&self) -> Move {
        match *self {
            MoveEval::Loss { mv, .. }
            | MoveEval::Snr { mv, .. }
            | MoveEval::Full { mv, .. }
            | MoveEval::Bounded { mv, .. } => mv,
        }
    }

    /// The objective score (higher = better). For exact variants this
    /// is bit-identical to a full evaluation of the moved mapping; for
    /// [`MoveEval::Bounded`] it is the *upper bound* — comparisons
    /// against an incumbent the bound was tested at remain sound, since
    /// the true score is no larger.
    #[must_use]
    pub fn score(&self) -> f64 {
        match *self {
            MoveEval::Loss { score, .. }
            | MoveEval::Snr { score, .. }
            | MoveEval::Full { score, .. } => score,
            MoveEval::Bounded { bound, .. } => bound.0,
        }
    }

    /// Whether an exact score was computed (committable).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        !matches!(self, MoveEval::Bounded { .. })
    }

    /// The full incremental delta, when one was computed
    /// ([`MoveEval::Snr`] only).
    #[must_use]
    pub fn delta(&self) -> Option<&ScoreDelta> {
        match self {
            MoveEval::Snr { delta, .. } => Some(delta),
            _ => None,
        }
    }
}

/// The cursor: the mapping a move-based strategy currently stands on,
/// with its incremental evaluation state and the hybrid peek's cost
/// model (recalibrated whenever the cursor is re-seated *and* after
/// every committed move, so routing always reflects the current
/// placement's density).
struct Cursor {
    mapping: Mapping,
    state: EvalState,
    score: f64,
    scratch: DeltaScratch,
    model: PeekCostModel,
}

/// The shared hybrid routing decision: whether `strategy` sends `mv`
/// to a full scratch re-evaluation. One source of truth for the
/// sequential peeks ([`OptContext::peek_move`] and friends) and the
/// batch scan, which must route identically.
fn route_full(
    strategy: PeekStrategy,
    evaluator: &crate::Evaluator,
    cursor: &Cursor,
    mv: Move,
    improving: bool,
) -> bool {
    match strategy {
        PeekStrategy::Delta => false,
        PeekStrategy::Full => true,
        PeekStrategy::Hybrid => {
            let moved = evaluator.moved_edge_count(&cursor.mapping, mv);
            cursor.model.routes_full(moved, improving)
        }
    }
}

/// The search-side view of a problem: evaluation with budget
/// enforcement, incumbent tracking and a seeded RNG.
pub struct OptContext<'p> {
    problem: &'p MappingProblem,
    /// The objective scores are computed under — the problem's own
    /// unless overridden with [`OptContext::set_objective`] before the
    /// first evaluation (the [`DseConfig::objective`] hook).
    objective: Objective,
    rng: StdRng,
    /// Budget in edge units (`budget_evals × unit`).
    budget_units: u64,
    used_units: u64,
    /// Units per full evaluation (= CG edge count, min 1).
    unit: u64,
    full_evaluations: usize,
    delta_evaluations: usize,
    best: Option<(Mapping, f64)>,
    history: Vec<(usize, f64)>,
    cursor: Option<Cursor>,
    /// How SNR-objective peeks are routed (see [`PeekStrategy`]).
    strategy: PeekStrategy,
    /// How swap neighbourhoods are enumerated (see
    /// [`NeighborhoodPolicy`]); consumed by the `Neighborhood` streams
    /// in `phonoc-opt`.
    policy: NeighborhoodPolicy,
    /// A mapping the next [`OptContext::initial_mapping`] call should
    /// hand out instead of a random draw — how a portfolio lane
    /// resumes from an exchanged elite incumbent.
    seed_start: Option<Mapping>,
    /// Decision counters (always on; see [`crate::telemetry`]). The
    /// two ledger mirrors (`full_evaluations` / `delta_evaluations`)
    /// are filled from the fields above at snapshot time.
    stats: RunStats,
    /// The event recorder: `Some` while the session records its trace
    /// ([`DseConfig::trace`]), `None` when emission is off.
    trace: Option<Vec<TraceEvent>>,
    /// Reused buffers for full evaluations: after warm-up,
    /// [`OptContext::evaluate`] performs no heap allocation.
    full_scratch: EvalScratch,
    /// Delta-scratch parked between cursors: [`OptContext::reset_for`]
    /// stashes the dropped cursor's buffers here so the next
    /// [`OptContext::set_current`] — possibly on a different problem —
    /// starts warm.
    spare_scratch: DeltaScratch,
    /// The dropped cursor's [`EvalState`], parked beside
    /// `spare_scratch`: the next [`OptContext::set_current`] refills it
    /// in place instead of allocating a fresh one.
    spare_state: Option<EvalState>,
}

impl fmt::Debug for OptContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OptContext")
            .field("budget", &(self.budget_units / self.unit))
            .field("used_units", &self.used_units)
            .field("full_evaluations", &self.full_evaluations)
            .field("delta_evaluations", &self.delta_evaluations)
            .field("best_score", &self.best.as_ref().map(|(_, s)| *s))
            .finish_non_exhaustive()
    }
}

impl<'p> OptContext<'p> {
    /// Creates a context with `budget` full-evaluation-equivalents and a
    /// deterministic RNG seeded with `seed`.
    #[must_use]
    pub fn new(problem: &'p MappingProblem, budget: usize, seed: u64) -> Self {
        let unit = problem.evaluator().edge_count().max(1) as u64;
        OptContext {
            problem,
            objective: problem.objective(),
            rng: StdRng::seed_from_u64(seed),
            budget_units: budget as u64 * unit,
            used_units: 0,
            unit,
            full_evaluations: 0,
            delta_evaluations: 0,
            best: None,
            history: Vec::new(),
            cursor: None,
            strategy: PeekStrategy::default(),
            policy: NeighborhoodPolicy::default(),
            seed_start: None,
            stats: RunStats::default(),
            trace: None,
            full_scratch: EvalScratch::default(),
            spare_scratch: DeltaScratch::default(),
            spare_state: None,
        }
    }

    /// A fresh context with every [`DseConfig`] knob applied — the
    /// configuration step [`run_dse`] runs, for callers that drive the
    /// context themselves and then [`OptContext::finish`] it.
    #[must_use]
    pub fn configured(problem: &'p MappingProblem, config: &DseConfig) -> Self {
        let mut ctx = OptContext::new(problem, config.budget, config.seed);
        if let Some(objective) = config.objective {
            ctx.set_objective(objective)
                .expect("a fresh context has not evaluated yet");
        }
        ctx.set_peek_strategy(config.strategy);
        ctx.set_neighborhood_policy(config.policy);
        if let Some(start) = &config.start {
            ctx.set_seed_start(start.clone());
        }
        if config.trace {
            ctx.trace = Some(Vec::new());
        }
        ctx
    }

    /// Re-arms the context for a fresh session on `problem` — the
    /// warm-start path for request streams. All *run state* (budget
    /// ledger, RNG, incumbent, history, cursor, pending seed start) is
    /// reset exactly as [`OptContext::new`] would; all *capital* is
    /// kept: the grow-only [`EvalScratch`] and the cursor's
    /// [`DeltaScratch`] and [`EvalState`] survive (parked in the spare
    /// slots), so the next
    /// session starts allocation-free even on a different problem. The
    /// problem itself carries the other reusable capital — distance
    /// tables and the interaction matrix live in its [`Evaluator`]
    /// (see its docs on incremental mutation), and the hybrid
    /// [`PeekCostModel`] recalibrates from occupancy density at the
    /// first [`OptContext::set_current`], which is exactly when the new
    /// problem's density is known.
    ///
    /// A session reset with a planted-but-unconsumed seed start logs
    /// the same misuse warning as a finished session (see
    /// [`OptContext::seed_start_pending`]).
    ///
    /// Peek strategy, neighbourhood policy and the trace switch
    /// persist across resets — they configure the engine, not one run.
    /// Decision counters ([`OptContext::stats`]) and any events not yet
    /// taken by [`OptContext::finish`] reset with the rest of the run
    /// state.
    ///
    /// [`Evaluator`]: crate::Evaluator
    pub fn reset_for(&mut self, problem: &'p MappingProblem, budget: usize, seed: u64) {
        self.warn_unconsumed_seed("reset_for");
        if let Some(c) = self.cursor.take() {
            self.spare_scratch = c.scratch;
            self.spare_state = Some(c.state);
        }
        self.problem = problem;
        self.objective = problem.objective();
        self.rng = StdRng::seed_from_u64(seed);
        self.unit = problem.evaluator().edge_count().max(1) as u64;
        self.budget_units = budget as u64 * self.unit;
        self.used_units = 0;
        self.full_evaluations = 0;
        self.delta_evaluations = 0;
        self.best = None;
        self.history.clear();
        self.seed_start = None;
        self.stats = RunStats::default();
        if let Some(events) = &mut self.trace {
            events.clear();
        }
    }

    /// The objective every evaluation and peek scores under — the
    /// problem's own unless overridden.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Overrides the scoring objective for this session — how
    /// [`DseConfig::objective`] re-targets a search (e.g. a `!power`
    /// spec suffix) without rebuilding the problem and its precomputed
    /// evaluator capital. Resets to the problem's own objective on
    /// [`OptContext::reset_for`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ObjectiveLocked`] if any evaluation or peek already
    /// happened — mixing scores from two objectives in one
    /// incumbent/history would be meaningless, so the objective is
    /// locked by the first evaluation and the context is left
    /// unchanged. Debug builds additionally assert, so misuse fails
    /// loudly during development; release builds report the documented
    /// error.
    pub fn set_objective(&mut self, objective: Objective) -> Result<(), CoreError> {
        let locked = self.used_units != 0 || self.cursor.is_some() || self.best.is_some();
        debug_assert!(
            !locked,
            "set_objective must be called before any evaluation"
        );
        if locked {
            return Err(CoreError::ObjectiveLocked {
                evaluations: self.used(),
            });
        }
        self.objective = objective;
        Ok(())
    }

    /// The active neighbourhood-enumeration policy.
    #[must_use]
    pub fn neighborhood_policy(&self) -> NeighborhoodPolicy {
        self.policy
    }

    /// Pins the neighbourhood-enumeration policy swap-based optimizers
    /// should build their move streams from. Purely a *selection*
    /// setting: every selected move is still scored and billed by the
    /// same peek machinery, so scores stay bit-exact and the budget
    /// ledger honest under every policy.
    pub fn set_neighborhood_policy(&mut self, policy: NeighborhoodPolicy) {
        self.policy = policy;
    }

    /// Manhattan distance between two **tiles** (row-major tile
    /// indices) on the problem's topology grid; wrap-around links, if
    /// any, are ignored. This is the layout distance
    /// [`NeighborhoodPolicy::Locality`] move streams restrict swaps by
    /// — note that a `Move::Swap(a, b)` names permutation *slots*, so
    /// the tiles it exchanges are `mapping.permutation()[a]` /
    /// `[b]`, not `a`/`b` themselves.
    ///
    /// # Panics
    ///
    /// Panics if either tile index is out of the topology's range.
    #[must_use]
    pub fn tile_distance(&self, a: usize, b: usize) -> usize {
        let topo = self.problem.topology();
        let ca = topo.coord(phonoc_topo::TileId(a));
        let cb = topo.coord(phonoc_topo::TileId(b));
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// The active SNR-peek routing strategy.
    #[must_use]
    pub fn peek_strategy(&self) -> PeekStrategy {
        self.strategy
    }

    /// Pins (or restores) the SNR-peek routing strategy for subsequent
    /// peeks. Every strategy produces bit-identical exact scores, so
    /// this can never change what a search *selects* — only what each
    /// peek costs (wall clock and honest budget units).
    pub fn set_peek_strategy(&mut self, strategy: PeekStrategy) {
        self.strategy = strategy;
        // A cursor seated under a non-hybrid strategy skipped its
        // per-commit recalibrations; refresh the model so hybrid
        // routing never consults stale density statistics.
        if strategy == PeekStrategy::Hybrid {
            if let Some(cursor) = self.cursor.as_mut() {
                cursor.model = PeekCostModel::of(&cursor.state);
            }
        }
    }

    /// The problem under optimization.
    #[must_use]
    pub fn problem(&self) -> &'p MappingProblem {
        self.problem
    }

    /// Number of tasks to place.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.problem.task_count()
    }

    /// Number of tiles available.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.problem.tile_count()
    }

    /// The seeded random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Full-evaluation-equivalents still available (rounded up, so any
    /// nonzero remainder reports at least 1).
    #[must_use]
    pub fn remaining(&self) -> usize {
        ((self.budget_units - self.used_units).div_ceil(self.unit)) as usize
    }

    /// Full-evaluation-equivalents consumed so far (rounded up).
    #[must_use]
    pub fn used(&self) -> usize {
        self.used_units.div_ceil(self.unit) as usize
    }

    /// Full evaluations performed (each charged `edge_count` units),
    /// including peeks the [`PeekStrategy`] routed to a full pass.
    #[must_use]
    pub fn full_evaluations(&self) -> usize {
        self.full_evaluations
    }

    /// Incremental move evaluations performed (each charged by its
    /// affected-edge count).
    #[must_use]
    pub fn delta_evaluations(&self) -> usize {
        self.delta_evaluations
    }

    /// Whether the budget is exhausted.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.used_units >= self.budget_units
    }

    /// Charges `cost` units; the action was admitted before starting, so
    /// the spend saturates at the budget.
    fn charge(&mut self, cost: u64) {
        self.used_units = (self.used_units + cost).min(self.budget_units);
    }

    /// Admits and charges `cost` edge-units of admissible-bound work —
    /// the integer-ledger hook certificate searches
    /// (`phonoc_opt::exact`) ride, so branch-and-bound node expansion
    /// spends the same budget currency as every evaluation and peek and
    /// `run_dse` semantics (budget, seed, objective) carry over
    /// unchanged. Each admitted call charges at least one unit (bound
    /// maintenance for a node that determined no new communication
    /// still walks the occupancy tables) and counts as one incremental
    /// evaluation in the session statistics, exactly like a delta peek
    /// charged by its affected-edge count.
    ///
    /// Returns `false` — charging nothing — once the budget is
    /// exhausted; the search should then abandon its certificate and
    /// return with the incumbent.
    pub fn charge_bound(&mut self, cost: u64) -> bool {
        if self.exhausted() {
            return false;
        }
        self.charge(cost.max(1));
        self.delta_evaluations += 1;
        self.stats.bound_charges += 1;
        true
    }

    /// Builds and records `event` only while the session records its
    /// trace — the zero-cost-when-off hook every emission site goes
    /// through.
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(events) = &mut self.trace {
            events.push(event());
        }
    }

    /// Snapshot of the session's decision counters, with the ledger
    /// mirrors (`full_evaluations` / `delta_evaluations`) filled in.
    /// The route counters always partition the ledger
    /// ([`RunStats::reconciles`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats {
            full_evaluations: self.full_evaluations,
            delta_evaluations: self.delta_evaluations,
            ..self.stats
        }
    }

    /// The convergence history so far: `(evaluation index, incumbent
    /// score)` at every improvement — the same trajectory
    /// [`DseResult::history`] reports after the session.
    #[must_use]
    pub fn history(&self) -> &[(usize, f64)] {
        &self.history
    }

    /// Records a neighbourhood stream widening (radius after the
    /// widen). Counter + optional [`TraceEvent::Widened`].
    pub fn note_widened(&mut self, radius: usize) {
        self.stats.widenings += 1;
        self.emit(|| TraceEvent::Widened { radius });
    }

    /// Records a scan pass that produced no improving (or no
    /// admissible) move at `radius` — the widen trigger.
    pub fn note_scan_dry(&mut self, radius: usize) {
        self.stats.dry_scans += 1;
        self.emit(|| TraceEvent::DryScan { radius });
    }

    /// Records a neighbourhood stream narrowing back on improvement
    /// (radius after the narrow).
    pub fn note_narrowed(&mut self, radius: usize) {
        self.stats.narrowings += 1;
        self.emit(|| TraceEvent::Narrowed { radius });
    }

    /// Records an exact-lane search outcome: node/leaf totals plus the
    /// bound-cut depth histogram (`cut_depths[d]` = subtrees cut at
    /// assignment depth `d`). Counters + optional
    /// [`TraceEvent::ExactSummary`] / [`TraceEvent::ExactCuts`]
    /// events (one per non-empty depth bucket).
    pub fn note_exact_search(&mut self, nodes: usize, leaves: usize, cut_depths: &[usize]) {
        self.stats.exact_nodes += nodes;
        self.stats.exact_leaves += leaves;
        self.emit(|| TraceEvent::ExactSummary { nodes, leaves });
        for (depth, &cuts) in cut_depths.iter().enumerate() {
            if cuts > 0 {
                self.emit(|| TraceEvent::ExactCuts { depth, cuts });
            }
        }
    }

    /// Whether `score` would improve the incumbent.
    fn improves(&self, score: f64) -> bool {
        self.best.as_ref().is_none_or(|(_, s)| score > *s)
    }

    /// Records `mapping` as the incumbent if `score` improves on it
    /// (cloning the mapping only then).
    fn record(&mut self, mapping: &Mapping, score: f64) {
        if self.improves(score) {
            self.record_improvement(mapping.clone(), score);
        }
    }

    /// Installs an improving `(mapping, score)` as the incumbent — the
    /// caller checked [`OptContext::improves`], so it materializes the
    /// mapping only for a real improvement.
    fn record_improvement(&mut self, mapping: Mapping, score: f64) {
        self.best = Some((mapping, score));
        let index = self.used();
        self.history.push((index, score));
        self.stats.improvements += 1;
        self.emit(|| TraceEvent::Improved {
            spent: index,
            score_bits: score.to_bits(),
        });
    }

    /// Scores `mapping` under the problem objective (higher = better),
    /// consuming one full evaluation. Returns `None` — without
    /// evaluating — once the budget is exhausted; optimizers should then
    /// return.
    ///
    /// What runs depends on the objective family: a loss-based
    /// objective reads only the worst-case insertion loss, so it gets
    /// the `O(edges)` path-table pass
    /// ([`crate::Evaluator::worst_case_il`]); an SNR-based objective
    /// gets the full crosstalk pass on the context's reused
    /// [`EvalScratch`], so the evaluation itself allocates nothing.
    /// Both are charged and counted as one full evaluation.
    pub fn evaluate(&mut self, mapping: &Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.charge(self.unit);
        self.full_evaluations += 1;
        self.stats.full_direct += 1;
        let evaluator = self.problem.evaluator();
        let score = if self.objective.is_loss_based() {
            self.objective
                .score_worst_il(evaluator.worst_case_il(mapping))
        } else {
            let summary = evaluator.evaluate_into(mapping, None, &mut self.full_scratch);
            self.objective.score_worst_snr(summary.worst_case_snr)
        };
        self.record(mapping, score);
        Some(score)
    }

    /// Scores a batch of mappings, each consuming one full evaluation.
    /// Only as many mappings as the remaining budget admits are
    /// evaluated: the returned vector holds scores for the evaluated
    /// *prefix* and may be shorter than the input. Incumbent tracking
    /// visits results in input order, so the outcome is identical to a
    /// sequential [`OptContext::evaluate`] loop. SNR-based objectives
    /// run their crosstalk passes in parallel across CPU cores;
    /// loss-based objectives run the insertion-loss pass inline, since
    /// each item costs less than waking a worker.
    pub fn evaluate_batch(&mut self, mappings: &[Mapping]) -> Vec<f64> {
        let admit = self.remaining().min(mappings.len());
        if admit == 0 {
            return Vec::new();
        }
        let objective = self.objective;
        let evaluator = self.problem.evaluator();
        let scores: Vec<f64> = if objective.is_loss_based() {
            mappings[..admit]
                .iter()
                .map(|m| objective.score_worst_il(evaluator.worst_case_il(m)))
                .collect()
        } else {
            evaluator
                .evaluate_summaries_batch(&mappings[..admit])
                .into_iter()
                .map(|s| objective.score_worst_snr(s.worst_case_snr))
                .collect()
        };
        for (mapping, &score) in mappings.iter().zip(&scores) {
            self.charge(self.unit);
            self.full_evaluations += 1;
            self.stats.full_direct += 1;
            self.record(mapping, score);
        }
        scores
    }

    /// Convenience: a uniformly random valid mapping from the context's
    /// RNG.
    #[must_use]
    pub fn random_mapping(&mut self) -> Mapping {
        Mapping::random(
            self.problem.task_count(),
            self.problem.tile_count(),
            &mut self.rng,
        )
    }

    /// Seeds the *next* [`OptContext::initial_mapping`] call with
    /// `mapping` — how a portfolio round hands a lane the elite
    /// incumbent it should resume from. One-shot: the seed is consumed
    /// by the first `initial_mapping` call; later calls (and every call
    /// when no seed was planted) fall back to a random draw.
    pub fn set_seed_start(&mut self, mapping: Mapping) {
        self.seed_start = Some(mapping);
    }

    /// Whether a planted seed start is still waiting to be consumed by
    /// [`OptContext::initial_mapping`]. A seed still pending when the
    /// session ends (or is [`OptContext::reset_for`]) usually means the
    /// optimizer never called `initial_mapping` — e.g. a strategy that
    /// draws its own random starts was handed an elite incumbent it
    /// silently ignored. That is *legal* (random search deliberately
    /// stays start-free, and portfolios do seed RS lanes), so the
    /// engine logs a rate-limited warning instead of asserting; this
    /// query lets harnesses and tests check the outcome explicitly.
    #[must_use]
    pub fn seed_start_pending(&self) -> bool {
        self.seed_start.is_some()
    }

    /// Logs (once per process) when a session finishes with a planted
    /// seed start nobody consumed — the "seed set but never used"
    /// misuse is otherwise silent, and a hard assert would misfire on
    /// the legitimately start-free strategies.
    fn warn_unconsumed_seed(&self, when: &str) {
        if self.seed_start.is_some() {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "phonoc-core: a seed start planted with set_seed_start was never \
                     consumed by initial_mapping (detected at {when}); the optimizer \
                     likely draws its own starts. Further occurrences are not logged."
                );
            });
        }
    }

    /// The mapping an optimizer should start its search from: the
    /// planted seed start, if one is pending, otherwise a fresh
    /// [`OptContext::random_mapping`] draw. Unseeded contexts behave
    /// bit-identically to `random_mapping` (same single RNG draw), so
    /// migrating an optimizer's starting point onto this entry point
    /// changes nothing outside portfolio runs.
    #[must_use]
    pub fn initial_mapping(&mut self) -> Mapping {
        match self.seed_start.take() {
            Some(m) => m,
            None => self.random_mapping(),
        }
    }

    /// Full-evaluates `mapping`, makes it the cursor for subsequent
    /// [`OptContext::peek_move`] / [`OptContext::apply_scored_move`]
    /// calls, and returns its score. Consumes one full evaluation;
    /// `None` once the budget is exhausted.
    ///
    /// The cursor's [`EvalState`] is refilled in place — the outgoing
    /// cursor's, or the one [`OptContext::reset_for`] parked — so a
    /// re-seat allocates nothing once warm. A loss-based objective
    /// seats an IL-only state
    /// ([`crate::Evaluator::init_loss_state_into`]: per-edge paths and
    /// losses, no crosstalk), which is all its peeks and commits read;
    /// an SNR-based objective seats the complete crosstalk state
    /// ([`crate::Evaluator::init_state_into`]).
    pub fn set_current(&mut self, mapping: Mapping) -> Option<f64> {
        if self.exhausted() {
            return None;
        }
        self.charge(self.unit);
        self.full_evaluations += 1;
        self.stats.full_direct += 1;
        let (state, scratch) = match self.cursor.take() {
            Some(c) => (Some(c.state), c.scratch),
            None => (
                self.spare_state.take(),
                std::mem::take(&mut self.spare_scratch),
            ),
        };
        let mut state = state.unwrap_or_default();
        let evaluator = self.problem.evaluator();
        let score = if self.objective.is_loss_based() {
            evaluator.init_loss_state_into(&mapping, &mut state);
            self.objective.score_worst_il(state.worst_case_il())
        } else {
            evaluator.init_state_into(&mapping, &mut state);
            self.objective.score_worst_snr(state.worst_case_snr())
        };
        self.record(&mapping, score);
        let model = PeekCostModel::of(&state);
        self.cursor = Some(Cursor {
            mapping,
            state,
            score,
            scratch,
            model,
        });
        Some(score)
    }

    /// The cursor's mapping, if [`OptContext::set_current`] was called.
    #[must_use]
    pub fn current_mapping(&self) -> Option<&Mapping> {
        self.cursor.as_ref().map(|c| &c.mapping)
    }

    /// The cursor's score.
    #[must_use]
    pub fn current_score(&self) -> Option<f64> {
        self.cursor.as_ref().map(|c| c.score)
    }

    /// Whether the active [`PeekStrategy`] routes `mv` to a full
    /// scratch re-evaluation (SNR objective only — the caller has
    /// already dispatched on the objective). Improving scans route
    /// against the bound-then-verify peek's discounted cost estimate.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    fn routes_to_full(&self, mv: Move, improving: bool) -> bool {
        let cursor = self.cursor.as_ref().expect("peek_move without set_current");
        route_full(
            self.strategy,
            self.problem.evaluator(),
            cursor,
            mv,
            improving,
        )
    }

    /// Scores `mv` with a full scratch re-evaluation of the moved
    /// mapping (the strategy routed it here): billed the honest full
    /// cost — `edge_count` budget units, counted as a full evaluation.
    /// The score is bit-identical to the delta-backed peek; the moved
    /// mapping is materialized (the one allocation of this path).
    fn peek_move_full(&mut self, mv: Move) -> MoveEval {
        let moved = self
            .cursor
            .as_ref()
            .expect("peek_move without set_current")
            .mapping
            .with_move(mv);
        let summary = self
            .problem
            .evaluator()
            .evaluate_into(&moved, None, &mut self.full_scratch);
        let score = self
            .objective
            .score_worst_cases(summary.worst_case_il, summary.worst_case_snr);
        self.charge(self.unit);
        self.full_evaluations += 1;
        self.stats.full_peeks += 1;
        let cost = self.unit as usize;
        self.emit(|| TraceEvent::PeekRouted {
            route: PeekRoute::Full,
            cost,
        });
        self.note_peeked(mv, score);
        MoveEval::Full { mv, score, summary }
    }

    /// Incrementally scores `mv` against the cursor without moving it,
    /// dispatching on the [`Objective`] family (see
    /// [`Objective::is_loss_based`]):
    ///
    /// * loss-based objectives (worst-case loss, laser power) — the
    ///   crosstalk-free fast path
    ///   ([`crate::Evaluator::evaluate_delta_loss`]), charged
    ///   `max(1, moved_edges)` units, returning [`MoveEval::Loss`];
    /// * SNR-based objectives (worst-case SNR, SNR margin) — routed per
    ///   the active [`PeekStrategy`]: the exact SNR-bearing delta,
    ///   charged `max(1, affected_edges)` units and returning
    ///   [`MoveEval::Snr`], or a full scratch re-evaluation, charged
    ///   `edge_count` units and returning [`MoveEval::Full`].
    ///
    /// Either way the score is bit-identical to a full evaluation of
    /// the moved mapping. Returns `None` once the budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_move(&mut self, mv: Move) -> Option<MoveEval> {
        if self.exhausted() {
            return None;
        }
        if self.objective.uses_snr() && self.routes_to_full(mv, false) {
            return Some(self.peek_move_full(mv));
        }
        let objective = self.objective;
        let cursor = self.cursor.as_mut().expect("peek_move without set_current");
        let evaluator = self.problem.evaluator();
        let (ev, cost) = if objective.is_loss_based() {
            let (new_worst_il, moved_edges) = evaluator.evaluate_delta_loss(
                &cursor.state,
                &cursor.mapping,
                mv,
                &mut cursor.scratch,
            );
            (
                MoveEval::Loss {
                    mv,
                    score: objective.score_worst_il(new_worst_il),
                    new_worst_il,
                    moved_edges,
                },
                moved_edges,
            )
        } else {
            let delta = evaluator.evaluate_delta_with(
                &cursor.state,
                &cursor.mapping,
                mv,
                &mut cursor.scratch,
            );
            (
                MoveEval::Snr {
                    mv,
                    score: objective.score_worst_snr(delta.new_worst_snr),
                    delta,
                },
                delta.affected_edges,
            )
        };
        self.charge((cost as u64).max(1));
        self.delta_evaluations += 1;
        let route = if matches!(ev, MoveEval::Loss { .. }) {
            self.stats.loss_fast_path += 1;
            PeekRoute::Loss
        } else {
            self.stats.delta_exact += 1;
            PeekRoute::Delta
        };
        let charged = cost.max(1);
        self.emit(|| TraceEvent::PeekRouted {
            route,
            cost: charged,
        });
        self.note_peeked(mv, ev.score());
        Some(ev)
    }

    /// Like [`OptContext::peek_move`], but only guarantees an exact
    /// score for moves that can *improve* on the cursor: candidates are
    /// run through the objective family's bound-then-verify peek
    /// ([`crate::Evaluator::evaluate_delta_bounded`] for SNR-based
    /// objectives, [`crate::Evaluator::evaluate_delta_loss_bounded`]
    /// for the laser-power objective) with the admissible rejection
    /// threshold the objective derives from the cursor score
    /// ([`Objective::snr_threshold_for_score`] /
    /// [`Objective::il_threshold_for_score`]), and non-improving moves
    /// come back as [`MoveEval::Bounded`] at a fraction of the exact
    /// cost (charged by the work actually performed). Moves that can
    /// beat the cursor are scored exactly, bit-identical to
    /// [`OptContext::peek_move`]. Under the plain loss objective the
    /// fast path is already cheap and exact, so this is identical to
    /// `peek_move`. Moves the active [`PeekStrategy`] routes to full
    /// evaluation come back as exact [`MoveEval::Full`]s whether they
    /// improve or not — which never changes what a greedy scan selects,
    /// since exact scores and bounds order identically around the
    /// cursor threshold.
    ///
    /// Greedy strategies (steepest or first improvement against the
    /// cursor) select exactly the same moves as with exact peeks.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_move_improving(&mut self, mv: Move) -> Option<MoveEval> {
        if matches!(self.objective, Objective::MinimizeWorstCaseLoss) {
            return self.peek_move(mv);
        }
        if self.exhausted() {
            return None;
        }
        if self.objective.uses_snr() && self.routes_to_full(mv, true) {
            return Some(self.peek_move_full(mv));
        }
        let objective = self.objective;
        let cursor = self.cursor.as_mut().expect("peek_move without set_current");
        let evaluator = self.problem.evaluator();
        let (ev, cost) = if objective.is_loss_based() {
            let threshold = objective.il_threshold_for_score(cursor.score);
            match evaluator.evaluate_delta_loss_bounded(
                &cursor.state,
                &cursor.mapping,
                mv,
                &mut cursor.scratch,
                threshold,
            ) {
                BoundedLossDelta::Rejected { bound, cost } => (
                    MoveEval::Bounded {
                        mv,
                        bound: Db(objective.score_worst_il(bound)),
                    },
                    cost,
                ),
                BoundedLossDelta::Exact {
                    new_worst_il,
                    moved_edges,
                } => (
                    MoveEval::Loss {
                        mv,
                        score: objective.score_worst_il(new_worst_il),
                        new_worst_il,
                        moved_edges,
                    },
                    moved_edges,
                ),
            }
        } else {
            let threshold = objective.snr_threshold_for_score(cursor.score);
            match evaluator.evaluate_delta_bounded(
                &cursor.state,
                &cursor.mapping,
                mv,
                &mut cursor.scratch,
                threshold,
            ) {
                BoundedDelta::Rejected { bound, cost } => (
                    MoveEval::Bounded {
                        mv,
                        bound: Db(objective.score_worst_snr(bound)),
                    },
                    cost,
                ),
                BoundedDelta::Exact(delta) => (
                    MoveEval::Snr {
                        mv,
                        score: objective.score_worst_snr(delta.new_worst_snr),
                        delta,
                    },
                    delta.affected_edges,
                ),
            }
        };
        self.charge((cost as u64).max(1));
        self.delta_evaluations += 1;
        let route = if ev.is_exact() {
            self.stats.bound_verified += 1;
            PeekRoute::BoundedVerified
        } else {
            self.stats.bound_rejected += 1;
            PeekRoute::BoundedRejected
        };
        let charged = cost.max(1);
        self.emit(|| TraceEvent::PeekRouted {
            route,
            cost: charged,
        });
        if ev.is_exact() {
            self.note_peeked(mv, ev.score());
        }
        Some(ev)
    }

    /// Incrementally scores a batch of candidate moves in parallel (the
    /// R-PBLA admitted-list scan), dispatching on the objective and the
    /// active [`PeekStrategy`] exactly like [`OptContext::peek_move`].
    /// Only as many moves as the remaining budget admits are *charged*:
    /// the returned vector covers the charged prefix of `moves` and may
    /// be shorter than the input. Deterministic: routing decisions are
    /// made up front, and results and incumbent updates are in input
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        if self.exhausted() || moves.is_empty() {
            return Vec::new();
        }
        let evals: Vec<(MoveEval, usize)> = if self.objective.is_loss_based() {
            let objective = self.objective;
            let cursor = self
                .cursor
                .as_ref()
                .expect("peek_moves without set_current");
            self.problem
                .evaluator()
                .evaluate_delta_loss_batch(&cursor.state, &cursor.mapping, moves)
                .into_iter()
                .zip(moves)
                .map(|((new_worst_il, moved_edges), &mv)| {
                    (
                        MoveEval::Loss {
                            mv,
                            score: objective.score_worst_il(new_worst_il),
                            new_worst_il,
                            moved_edges,
                        },
                        moved_edges,
                    )
                })
                .collect()
        } else {
            self.scan_snr_batch(moves, false)
        };
        self.admit_peeked(evals, false)
    }

    /// Batch variant of [`OptContext::peek_move_improving`]: every move
    /// is tested against the cursor score at the time of the call (the
    /// parallel scan is deterministic and order-preserving). Improving
    /// moves come back exact, non-improving ones as [`MoveEval::Bounded`]
    /// — except moves the strategy routed to full evaluation, which are
    /// always exact [`MoveEval::Full`]s. Either way the selection a
    /// greedy step makes over the result is identical to one over
    /// [`OptContext::peek_moves`].
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set.
    pub fn peek_moves_improving(&mut self, moves: &[Move]) -> Vec<MoveEval> {
        if matches!(self.objective, Objective::MinimizeWorstCaseLoss) {
            return self.peek_moves(moves);
        }
        if self.exhausted() || moves.is_empty() {
            return Vec::new();
        }
        let evals = if self.objective.is_loss_based() {
            self.scan_loss_bounded_batch(moves)
        } else {
            self.scan_snr_batch(moves, true)
        };
        self.admit_peeked(evals, true)
    }

    /// The loss-family improving batch scan (laser-power objective):
    /// every move runs through the bound-then-verify loss peek against
    /// the objective's admissible threshold at the cursor score, in one
    /// order-preserving parallel pass. Returns `(eval, honest cost)`
    /// pairs in input order; the caller charges them.
    fn scan_loss_bounded_batch(&self, moves: &[Move]) -> Vec<(MoveEval, usize)> {
        let cursor = self
            .cursor
            .as_ref()
            .expect("peek_moves without set_current");
        let objective = self.objective;
        let threshold = objective.il_threshold_for_score(cursor.score);
        self.problem
            .evaluator()
            .evaluate_delta_loss_bounded_batch(&cursor.state, &cursor.mapping, moves, threshold)
            .into_iter()
            .zip(moves)
            .map(|(bounded, &mv)| match bounded {
                BoundedLossDelta::Rejected { bound, cost } => (
                    MoveEval::Bounded {
                        mv,
                        bound: Db(objective.score_worst_il(bound)),
                    },
                    cost,
                ),
                BoundedLossDelta::Exact {
                    new_worst_il,
                    moved_edges,
                } => (
                    MoveEval::Loss {
                        mv,
                        score: objective.score_worst_il(new_worst_il),
                        new_worst_il,
                        moved_edges,
                    },
                    moved_edges,
                ),
            })
            .collect()
    }

    /// The shared SNR batch scan: routes every move up front per the
    /// active [`PeekStrategy`] (cheap index lookups, sequential and
    /// deterministic), then scores the whole batch in one
    /// order-preserving parallel pass — each worker's sticky scratch
    /// slot holds a (full-evaluation, delta) scratch pair, built once
    /// per worker lifetime. `improving` selects the
    /// bound-then-verify peek (threshold at the cursor score) for
    /// delta-routed moves. Returns `(eval, honest cost)` pairs in input
    /// order; the caller charges them.
    fn scan_snr_batch(&self, moves: &[Move], improving: bool) -> Vec<(MoveEval, usize)> {
        let cursor = self
            .cursor
            .as_ref()
            .expect("peek_moves without set_current");
        let objective = self.objective;
        let evaluator = self.problem.evaluator();
        let unit = self.unit as usize;
        let threshold = objective.snr_threshold_for_score(cursor.score);
        let routed: Vec<(Move, bool)> = moves
            .iter()
            .map(|&mv| {
                (
                    mv,
                    route_full(self.strategy, evaluator, cursor, mv, improving),
                )
            })
            .collect();
        parallel::parallel_map_with(
            &routed,
            || (EvalScratch::default(), DeltaScratch::default()),
            |(full_scratch, delta_scratch), &(mv, full)| {
                if full {
                    let moved = cursor.mapping.with_move(mv);
                    let summary = evaluator.evaluate_into(&moved, None, full_scratch);
                    let score =
                        objective.score_worst_cases(summary.worst_case_il, summary.worst_case_snr);
                    (MoveEval::Full { mv, score, summary }, unit)
                } else if improving {
                    match evaluator.evaluate_delta_bounded(
                        &cursor.state,
                        &cursor.mapping,
                        mv,
                        delta_scratch,
                        threshold,
                    ) {
                        BoundedDelta::Rejected { bound, cost } => (
                            MoveEval::Bounded {
                                mv,
                                bound: Db(objective.score_worst_snr(bound)),
                            },
                            cost,
                        ),
                        BoundedDelta::Exact(delta) => (
                            MoveEval::Snr {
                                mv,
                                score: objective.score_worst_snr(delta.new_worst_snr),
                                delta,
                            },
                            delta.affected_edges,
                        ),
                    }
                } else {
                    let delta = evaluator.evaluate_delta_with(
                        &cursor.state,
                        &cursor.mapping,
                        mv,
                        delta_scratch,
                    );
                    (
                        MoveEval::Snr {
                            mv,
                            score: objective.score_worst_snr(delta.new_worst_snr),
                            delta,
                        },
                        delta.affected_edges,
                    )
                }
            },
        )
    }

    /// Shared tail of the batch peeks: charges each evaluation in input
    /// order until the budget runs out, tracking the incumbent. Full-
    /// backed peeks count as full evaluations, everything else as delta
    /// evaluations — the same books the sequential peeks keep.
    /// `improving` tells the route classifier whether delta results
    /// came through the bound-then-verify peek (they count as
    /// verify fall-throughs) or the plain exact scan. Counters and
    /// events happen here, in input order, never inside the parallel
    /// scan — that is what keeps the stream deterministic.
    fn admit_peeked(&mut self, evals: Vec<(MoveEval, usize)>, improving: bool) -> Vec<MoveEval> {
        let mut out = Vec::with_capacity(evals.len());
        for (ev, cost) in evals {
            if self.exhausted() {
                break;
            }
            self.charge((cost as u64).max(1));
            let route = match &ev {
                MoveEval::Full { .. } => {
                    self.full_evaluations += 1;
                    self.stats.full_peeks += 1;
                    PeekRoute::Full
                }
                MoveEval::Bounded { .. } => {
                    self.delta_evaluations += 1;
                    self.stats.bound_rejected += 1;
                    PeekRoute::BoundedRejected
                }
                MoveEval::Snr { .. } if improving => {
                    self.delta_evaluations += 1;
                    self.stats.bound_verified += 1;
                    PeekRoute::BoundedVerified
                }
                MoveEval::Loss { .. } if improving => {
                    self.delta_evaluations += 1;
                    self.stats.bound_verified += 1;
                    PeekRoute::BoundedVerified
                }
                MoveEval::Snr { .. } => {
                    self.delta_evaluations += 1;
                    self.stats.delta_exact += 1;
                    PeekRoute::Delta
                }
                MoveEval::Loss { .. } => {
                    self.delta_evaluations += 1;
                    self.stats.loss_fast_path += 1;
                    PeekRoute::Loss
                }
            };
            let charged = if matches!(ev, MoveEval::Full { .. }) {
                self.unit as usize
            } else {
                cost.max(1)
            };
            self.emit(|| TraceEvent::PeekRouted {
                route,
                cost: charged,
            });
            if ev.is_exact() {
                self.note_peeked(ev.mv(), ev.score());
            }
            out.push(ev);
        }
        out
    }

    /// Records a peeked candidate into the incumbent if it improves —
    /// materializing the moved mapping only in that (rare) case, so no
    /// strategy can lose a best solution it merely looked at.
    fn note_peeked(&mut self, mv: Move, score: f64) {
        if self.improves(score) {
            let cursor = self.cursor.as_ref().expect("cursor checked by caller");
            let moved = cursor.mapping.with_move(mv);
            self.record_improvement(moved, score);
        }
    }

    /// Commits a previously peeked move: the cursor's mapping and
    /// incremental state advance to the moved solution. Free of charge —
    /// the scoring work was already billed by the peek.
    ///
    /// The commit takes the cheapest route to the moved state that the
    /// objective family and the peek allow:
    ///
    /// * loss-based objectives update the IL-only cursor's moved edges
    ///   and worst-case loss ([`crate::Evaluator::apply_loss_move`]);
    /// * an SNR-based [`MoveEval::Full`] peek under
    ///   [`PeekStrategy::Hybrid`] means the router already judged a
    ///   full pass cheaper than the delta for this move, so the move is
    ///   applied to the mapping and the cursor state refilled in place
    ///   ([`crate::Evaluator::init_state_into`]);
    /// * every other SNR-based commit — delta-routed peeks, and every
    ///   peek of a pinned strategy, which routes without weighing the
    ///   move — goes through the incremental delta
    ///   ([`crate::Evaluator::apply_move`]).
    ///
    /// All three leave the cursor bit-identical to a fresh seat on the
    /// moved mapping. The moved mapping is cloned into the incumbent
    /// only when the commit improves it.
    ///
    /// # Panics
    ///
    /// Panics if no cursor is set, or if `ev` is a bound-rejected peek
    /// ([`MoveEval::Bounded`] carries no exact score — re-peek the move
    /// exactly if a strategy really wants to commit a non-improving
    /// move). Debug builds additionally assert that the committed state
    /// bit-matches a full re-evaluation and that the peeked score is
    /// consistent with it.
    pub fn apply_scored_move(&mut self, ev: &MoveEval) {
        assert!(
            ev.is_exact(),
            "cannot commit a bound-rejected peek ({:?})",
            ev.mv()
        );
        let evaluator = self.problem.evaluator();
        let objective = self.objective;
        let cursor = self
            .cursor
            .as_mut()
            .expect("apply_scored_move without set_current");
        let mv = ev.mv();
        let score = if objective.is_loss_based() {
            let worst_il = evaluator.apply_loss_move(
                &mut cursor.state,
                &mut cursor.mapping,
                mv,
                &mut cursor.scratch,
            );
            objective.score_worst_il(worst_il)
        } else {
            if self.strategy == PeekStrategy::Hybrid && matches!(ev, MoveEval::Full { .. }) {
                cursor.mapping.apply_move(mv);
                evaluator.init_state_into(&cursor.mapping, &mut cursor.state);
                debug_assert!(
                    evaluator.state_matches_full_eval(&cursor.state, &cursor.mapping),
                    "re-seated state diverged from full evaluation after {mv:?}"
                );
            } else {
                evaluator.apply_move(
                    &mut cursor.state,
                    &mut cursor.mapping,
                    mv,
                    &mut cursor.scratch,
                );
            }
            objective.score_worst_snr(cursor.state.worst_case_snr())
        };
        debug_assert_eq!(
            score,
            ev.score(),
            "committed move score diverged from its peek"
        );
        cursor.score = score;
        // Recalibrate the hybrid cost model on the committed state:
        // descents change path lengths and occupancy, and routing
        // should track the placement the peeks actually score (a cheap
        // `O(tiles + edges)` pass, paid once per commit). Skipped when
        // no peek will ever consult the model — loss-based objectives
        // ride their own fast path, and pinned strategies never route.
        if self.strategy == PeekStrategy::Hybrid && objective.uses_snr() {
            cursor.model = PeekCostModel::of(&cursor.state);
        }
        if self.improves(score) {
            let mapping = self
                .cursor
                .as_ref()
                .expect("cursor set above")
                .mapping
                .clone();
            self.record_improvement(mapping, score);
        }
    }

    /// The incumbent best, if any evaluation happened.
    #[must_use]
    pub fn best(&self) -> Option<(&Mapping, f64)> {
        self.best.as_ref().map(|(m, s)| (m, *s))
    }

    /// Extracts the finished session's [`DseResult`] while keeping the
    /// context alive for reuse — pair with [`OptContext::reset_for`] to
    /// run a request stream through one context. The recorded events,
    /// if any, move into [`DseResult::trace`]. Logs the unconsumed-
    /// seed-start warning if applicable.
    ///
    /// # Panics
    ///
    /// Panics if no mapping was ever evaluated (zero budget or a broken
    /// strategy) — same contract as [`run_dse`].
    #[must_use]
    pub fn finish(&mut self, optimizer: &str) -> DseResult {
        self.warn_unconsumed_seed("finish");
        let evaluations = self.used();
        let (best_mapping, best_score) = self
            .best
            .clone()
            .expect("optimizer must evaluate at least one mapping");
        let stats = self.stats();
        let budget = (self.budget_units / self.unit) as usize;
        self.emit(|| TraceEvent::SessionEnd {
            stats,
            spent: evaluations,
            budget,
            score_bits: best_score.to_bits(),
        });
        DseResult {
            optimizer: optimizer.to_owned(),
            best_mapping,
            best_score,
            evaluations,
            full_evaluations: self.full_evaluations,
            delta_evaluations: self.delta_evaluations,
            history: std::mem::take(&mut self.history),
            stats,
            trace: self.trace.as_mut().map(std::mem::take).unwrap_or_default(),
        }
    }
}

/// A mapping optimization strategy (paper Section II-D2). Object-safe so
/// strategies can be registered and swapped at run time.
pub trait MappingOptimizer: fmt::Debug {
    /// Short identifier, e.g. `"rs"`, `"ga"`, `"r-pbla"`.
    fn name(&self) -> &'static str;

    /// Runs the search until the context's budget is exhausted (or the
    /// strategy converges). All scoring must go through the context
    /// ([`OptContext::evaluate`], [`OptContext::evaluate_batch`], or the
    /// move API); the incumbent best is tracked there.
    fn optimize(&self, ctx: &mut OptContext<'_>);
}

/// Outcome of one DSE run.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Optimizer name.
    pub optimizer: String,
    /// Best mapping found.
    pub best_mapping: Mapping,
    /// Its score (higher = better; dB of worst-case IL or SNR depending
    /// on the objective).
    pub best_score: f64,
    /// Budget actually consumed, in full-evaluation-equivalents
    /// (rounded up; delta evaluations are charged fractionally, see
    /// [`OptContext`]).
    pub evaluations: usize,
    /// Count of full evaluations performed.
    pub full_evaluations: usize,
    /// Count of incremental move evaluations performed.
    pub delta_evaluations: usize,
    /// `(evaluation index, incumbent score)` at every improvement.
    pub history: Vec<(usize, f64)>,
    /// Decision counters for the session (route mix, bound rejections,
    /// neighbourhood stream, improvements) — see [`crate::telemetry`].
    pub stats: RunStats,
    /// The session's event stream, ready for
    /// [`crate::telemetry::render_trace`] — empty unless
    /// [`DseConfig::trace`] was set. Byte-reproducible per
    /// `(problem, config)` at any worker count.
    pub trace: Vec<TraceEvent>,
}

/// Everything a single search session is configured with — budget,
/// seed, peek routing, neighbourhood policy, objective override, seeded
/// start, trace recording — built fluently and handed to [`run_dse`],
/// the one search entry point:
///
/// ```ignore
/// let result = run_dse(&problem, &Rpbla, &DseConfig::new(2_000, 42));
/// let tuned = run_dse(
///     &problem,
///     &Rpbla,
///     &DseConfig::new(2_000, 42)
///         .with_policy(NeighborhoodPolicy::Sampled)
///         .with_strategy(PeekStrategy::Delta)
///         .with_objective(Objective::MinimizeLaserPower { modulation: Modulation::Ook }),
/// );
/// ```
///
/// `DseConfig::new(budget, seed)` is exactly the classic defaults:
/// hybrid peeks, auto neighbourhood, the problem's own objective, a
/// random starting point, no trace. A config is plain data (`Clone`), so sweeps
/// can build one base config and vary a field per cell.
#[derive(Debug, Clone, Default)]
pub struct DseConfig {
    /// Evaluation budget in full-evaluation-equivalents.
    pub budget: usize,
    /// RNG seed — same seed, same result.
    pub seed: u64,
    /// SNR-peek routing (cost only — never changes scores).
    pub strategy: PeekStrategy,
    /// Neighbourhood-enumeration policy for swap-based scans.
    pub policy: NeighborhoodPolicy,
    /// Objective override for this session (`None` scores under the
    /// problem's own objective) — how a `!power` spec suffix re-targets
    /// a search without rebuilding the problem.
    pub objective: Option<Objective>,
    /// Mapping the optimizer's first [`OptContext::initial_mapping`]
    /// call hands out — the elite-exchange hook portfolio lanes resume
    /// through. `None` keeps the classic random start.
    pub start: Option<Mapping>,
    /// Record the session's [`TraceEvent`] stream into
    /// [`DseResult::trace`]. Recording never changes scores, evaluation
    /// counts or RNG draws; off (the default), emission sites build
    /// nothing.
    pub trace: bool,
}

impl DseConfig {
    /// A config with the classic defaults: hybrid peeks, auto
    /// neighbourhood, the problem's own objective, a random start.
    #[must_use]
    pub fn new(budget: usize, seed: u64) -> Self {
        DseConfig {
            budget,
            seed,
            ..DseConfig::default()
        }
    }

    /// Pins the SNR-peek routing strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PeekStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Pins the neighbourhood-enumeration policy.
    #[must_use]
    pub fn with_policy(mut self, policy: NeighborhoodPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the scoring objective for this session.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Plants the mapping the optimizer starts from (the portfolio
    /// elite-exchange / warm-start hook).
    #[must_use]
    pub fn with_start(mut self, start: Mapping) -> Self {
        self.start = Some(start);
        self
    }
}

/// Runs `optimizer` on `problem` under `config` — **the** search entry
/// point: every knob a session has (budget, seed, peek strategy,
/// neighbourhood policy, objective override, seeded start) arrives
/// through the one [`DseConfig`]. The portfolio subsystem drives this
/// once per (lane, round) with [`DseConfig::start`] carrying the
/// exchanged incumbent; plain callers build
/// `DseConfig::new(budget, seed)` and go.
///
/// Sessions are deterministic per `(config, problem)`: same seed, same
/// result, with the honest budget ledger and incumbent tracking
/// documented on [`OptContext`].
///
/// # Panics
///
/// Panics if the optimizer returns without evaluating a single mapping
/// (which would mean a zero budget or a broken strategy).
#[must_use]
pub fn run_dse(
    problem: &MappingProblem,
    optimizer: &dyn MappingOptimizer,
    config: &DseConfig,
) -> DseResult {
    let mut ctx = OptContext::configured(problem, config);
    optimizer.optimize(&mut ctx);
    ctx.finish(optimizer.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use phonoc_phys::{Length, PhysicalParameters};
    use phonoc_route::XyRouting;
    use phonoc_router::crux::crux_router;
    use phonoc_topo::Topology;

    fn tiny_problem() -> MappingProblem {
        MappingProblem::new(
            phonoc_apps::benchmarks::pip(),
            Topology::mesh(3, 3, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap()
    }

    /// A trivial strategy used to test the engine plumbing.
    #[derive(Debug)]
    struct FirstRandom;

    impl MappingOptimizer for FirstRandom {
        fn name(&self) -> &'static str {
            "first-random"
        }
        fn optimize(&self, ctx: &mut OptContext<'_>) {
            while !ctx.exhausted() {
                let m = ctx.random_mapping();
                if ctx.evaluate(&m).is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn budget_is_enforced_exactly() {
        let p = tiny_problem();
        let r = run_dse(&p, &FirstRandom, &DseConfig::new(37, 1));
        assert_eq!(r.evaluations, 37);
        assert_eq!(r.full_evaluations, 37);
        assert_eq!(r.delta_evaluations, 0);
    }

    #[test]
    fn objective_override_rescores_the_session() {
        let p = tiny_problem(); // problem objective: worst-case SNR
        let power = Objective::by_name("power").unwrap();
        let r = run_dse(
            &p,
            &FirstRandom,
            &DseConfig::new(37, 1).with_objective(power),
        );
        // The session's best score is the override objective of its
        // best mapping, bit-for-bit.
        let metrics = p.evaluator().evaluate(&r.best_mapping);
        assert_eq!(r.best_score, power.score(&metrics));
        // Overriding with the problem's own objective is the identity.
        let plain = run_dse(&p, &FirstRandom, &DseConfig::new(37, 1));
        let same = run_dse(
            &p,
            &FirstRandom,
            &DseConfig::new(37, 1).with_objective(p.objective()),
        );
        assert_eq!(plain.best_mapping, same.best_mapping);
        assert_eq!(plain.best_score, same.best_score);
    }

    #[test]
    fn objective_set_before_evaluation_succeeds() {
        let p = tiny_problem(); // problem objective: worst-case SNR
        let power = Objective::by_name("power").unwrap();
        let mut ctx = OptContext::new(&p, 10, 0);
        ctx.set_objective(power).unwrap();
        assert_eq!(ctx.objective(), power);
        let m = ctx.random_mapping();
        let score = ctx.evaluate(&m).unwrap();
        let metrics = p.evaluator().evaluate(&m);
        assert_eq!(score, power.score(&metrics));
    }

    // The pre-evaluation-only contract of `set_objective`, both builds:
    // debug builds assert (fail loudly during development), release
    // builds report the documented `CoreError::ObjectiveLocked` and
    // leave the context unchanged. CI runs the suite under both
    // profiles, so each path stays covered.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "set_objective")]
    fn objective_cannot_change_mid_session() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let m = ctx.random_mapping();
        ctx.evaluate(&m).unwrap();
        let _ = ctx.set_objective(Objective::by_name("power").unwrap());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn objective_change_mid_session_is_a_documented_error() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 10, 0);
        let before = ctx.objective();
        let m = ctx.random_mapping();
        ctx.evaluate(&m).unwrap();
        let err = ctx
            .set_objective(Objective::by_name("power").unwrap())
            .unwrap_err();
        assert_eq!(err, CoreError::ObjectiveLocked { evaluations: 1 });
        assert!(err.to_string().contains("locked"));
        // The rejected call left the session's objective untouched.
        assert_eq!(ctx.objective(), before);
    }

    #[test]
    fn charge_bound_rides_the_ledger() {
        let p = tiny_problem();
        let unit = p.evaluator().edge_count().max(1) as u64;
        let mut ctx = OptContext::new(&p, 2, 0);
        // Two full evaluations' worth of units, drained 3 units at a
        // time: every admitted call charges exactly what it asked for
        // (min 1) and counts as one incremental evaluation.
        let mut calls = 0usize;
        while ctx.charge_bound(3) {
            calls += 1;
            assert!(calls <= 2 * unit as usize, "budget never exhausts");
        }
        assert!(ctx.exhausted());
        assert_eq!(calls, (2 * unit).div_ceil(3) as usize);
        assert_eq!(ctx.delta_evaluations(), calls);
        assert_eq!(ctx.full_evaluations(), 0);
        // Exhausted contexts admit nothing and charge nothing.
        assert!(!ctx.charge_bound(1));
        assert_eq!(ctx.delta_evaluations(), calls);
    }

    #[test]
    fn incumbent_never_worsens() {
        let p = tiny_problem();
        let r = run_dse(&p, &FirstRandom, &DseConfig::new(100, 2));
        let mut prev = f64::NEG_INFINITY;
        for (_, s) in &r.history {
            assert!(*s > prev, "history must be strictly improving");
            prev = *s;
        }
        assert!((r.history.last().unwrap().1 - r.best_score).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_result() {
        let p = tiny_problem();
        let a = run_dse(&p, &FirstRandom, &DseConfig::new(50, 99));
        let b = run_dse(&p, &FirstRandom, &DseConfig::new(50, 99));
        assert_eq!(a.best_mapping, b.best_mapping);
        assert!((a.best_score - b.best_score).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = tiny_problem();
        let a = run_dse(&p, &FirstRandom, &DseConfig::new(10, 1));
        let b = run_dse(&p, &FirstRandom, &DseConfig::new(10, 2));
        // Scores may coincide, but the mappings should differ for a
        // 10-draw random search over 9!/(1!)= large space.
        assert_ne!(a.best_mapping, b.best_mapping);
    }

    #[test]
    fn evaluate_returns_none_after_exhaustion() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 2, 0);
        let m = ctx.random_mapping();
        assert!(ctx.evaluate(&m).is_some());
        assert!(ctx.evaluate(&m).is_some());
        assert!(ctx.evaluate(&m).is_none());
        assert!(ctx.exhausted());
        assert_eq!(ctx.remaining(), 0);
    }

    #[test]
    fn best_is_reachable_midway() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 5, 0);
        assert!(ctx.best().is_none());
        let m = ctx.random_mapping();
        let s = ctx.evaluate(&m).unwrap();
        let (bm, bs) = ctx.best().unwrap();
        assert_eq!(bm, &m);
        assert!((bs - s).abs() < 1e-12);
    }

    #[test]
    fn batch_evaluation_matches_sequential() {
        let p = tiny_problem();
        let mut seq = OptContext::new(&p, 20, 3);
        let mut bat = OptContext::new(&p, 20, 3);
        let mappings: Vec<Mapping> = (0..12).map(|_| seq.random_mapping()).collect();
        let seq_scores: Vec<f64> = mappings.iter().map(|m| seq.evaluate(m).unwrap()).collect();
        let bat_scores = bat.evaluate_batch(&mappings);
        assert_eq!(seq_scores, bat_scores);
        assert_eq!(seq.best().unwrap().1, bat.best().unwrap().1);
        assert_eq!(bat.used(), 12);
    }

    #[test]
    fn batch_evaluation_truncates_at_budget() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 5, 3);
        let mappings: Vec<Mapping> = (0..12).map(|_| ctx.random_mapping()).collect();
        let scores = ctx.evaluate_batch(&mappings);
        assert_eq!(scores.len(), 5);
        assert!(ctx.exhausted());
        assert!(ctx.evaluate_batch(&mappings).is_empty());
    }

    #[test]
    fn move_cursor_scores_match_full_evaluation() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 1000, 7);
        let start = ctx.random_mapping();
        let s0 = ctx.set_current(start.clone()).unwrap();
        assert_eq!(ctx.current_score(), Some(s0));
        // Peek a few swaps: each must agree with a from-scratch eval.
        for (a, b) in [(0usize, 1usize), (2, 5), (0, 8), (3, 4)] {
            let ev = ctx.peek_move(Move::Swap(a, b)).unwrap();
            let (_, full) = p.evaluate(&start.with_swap(a, b));
            assert_eq!(ev.score(), full, "swap ({a},{b})");
        }
        // Commit one and verify the cursor advanced.
        let ev = ctx.peek_move(Move::Swap(1, 6)).unwrap();
        ctx.apply_scored_move(&ev);
        assert_eq!(ctx.current_mapping().unwrap(), &start.with_swap(1, 6));
        assert_eq!(ctx.current_score(), Some(ev.score()));
    }

    #[test]
    fn delta_budget_is_cheaper_than_full() {
        // A sparse problem (6-task pipeline on 16 tiles): most swaps
        // perturb only a few of the 5 edges, so delta charging admits
        // far more peeks than full evaluations.
        let p = MappingProblem::new(
            phonoc_apps::synthetic::pipeline(6),
            Topology::mesh(4, 4, Length::from_mm(2.5)),
            crux_router(),
            Box::new(XyRouting),
            PhysicalParameters::default(),
            Objective::MaximizeWorstCaseSnr,
        )
        .unwrap();
        let budget = 10;
        let mut ctx = OptContext::new(&p, budget, 1);
        // Pin the delta backend: this test documents *delta* budget
        // accounting, independent of what the hybrid router would pick.
        ctx.set_peek_strategy(PeekStrategy::Delta);
        let m = ctx.random_mapping();
        ctx.set_current(m).unwrap();
        let tiles = p.tile_count();
        let mut peeks = 0usize;
        while ctx
            .peek_move(Move::Swap(peeks % tiles, (peeks + 1) % tiles))
            .is_some()
        {
            peeks += 1;
            assert!(peeks < 100_000, "budget never exhausts");
        }
        // Strictly more peeks than full evaluations would have fit, and
        // a mean cost strictly below one full evaluation.
        assert!(
            peeks > budget,
            "only {peeks} peeks fit in a {budget}-evaluation budget"
        );
        assert_eq!(ctx.delta_evaluations(), peeks);
        assert_eq!(ctx.full_evaluations(), 1);
    }

    #[test]
    fn peeked_improvements_enter_the_incumbent() {
        let p = tiny_problem();
        let mut ctx = OptContext::new(&p, 1000, 11);
        let m = ctx.random_mapping();
        ctx.set_current(m).unwrap();
        let mut best_peek = f64::NEG_INFINITY;
        for a in 0..9 {
            for b in (a + 1)..9 {
                if let Some(ev) = ctx.peek_move(Move::Swap(a, b)) {
                    best_peek = best_peek.max(ev.score());
                }
            }
        }
        let (_, incumbent) = ctx.best().unwrap();
        assert!(
            incumbent >= best_peek,
            "incumbent {incumbent} lost a peeked {best_peek}"
        );
    }
}
