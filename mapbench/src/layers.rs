//! Per-layer unit costs and the counters × unit-cost attribution.
//!
//! Each timed layer function gets a unit-cost cell per problem of the
//! workload, run on that problem with a mapping and moves drawn from
//! the workload seed. A request's time is then split across layers as
//! its deterministic `RunStats` counters times its problem's unit
//! costs; whatever no layer accounts for is reported as the remainder.

use crate::exec::{Outcome, WarmKind};
use crate::plan::derive;
use crate::trace::Tracer;
use phonoc_core::parallel::{parallel_map_with, set_worker_override};
use phonoc_core::{
    CertificateBound, DeltaScratch, EvalScratch, LowerBound, Mapping, MappingProblem, Move,
    NeighborhoodPolicy, OptContext,
};
use phonoc_opt::{scan_quota, Neighborhood};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Moves per unit-cost pass.
const MOVES: usize = 32;
/// Wall time one timed sample should span.
const SAMPLE_NS: u128 = 300_000;
/// Timed samples per cell (the median is kept).
const SAMPLES: usize = 5;
/// Budget of the engine cells' contexts: large enough that no timed
/// peek ever meets an exhausted ledger.
const CELL_BUDGET: usize = 50_000_000;

/// Unit costs of one problem, in ns per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `Evaluator::evaluate_into` per mapping.
    pub full_ns: f64,
    /// Exact SNR delta per move.
    pub exact_ns: f64,
    /// Bound-then-verify peek per move, threshold at the incumbent.
    pub bounded_ns: f64,
    /// Loss fast path per move.
    pub loss_ns: f64,
    /// `Evaluator::init_state` per mapping.
    pub init_state_ns: f64,
    /// `OptContext::peek_moves_improving` per move.
    pub peek_ns: f64,
    /// `Neighborhood::pass` per emitted move.
    pub pass_ns: f64,
    /// One branch-and-bound node: assign, bound, unassign.
    pub node_ns: f64,
    /// `exact::root_bound` per call.
    pub root_bound_ns: f64,
    /// `evaluate_summaries_batch` time at 1 worker over 2 workers.
    pub batch_speedup: f64,
}

/// ns per operation of `pass`, which performs `ops` operations: the
/// median of [`SAMPLES`] samples, each repeating the pass for at least
/// [`SAMPLE_NS`].
fn per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let t = Instant::now();
    pass();
    let once = t.elapsed().as_nanos().max(1);
    let reps = (SAMPLE_NS / once).clamp(1, 100_000) as usize;
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                pass();
            }
            t.elapsed().as_nanos() as f64 / (reps * ops.max(1)) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// Runs `f` inside a span named `name` tagged with `problem`.
fn cell<T>(tracer: &mut Tracer, name: &'static str, problem: usize, f: impl FnOnce() -> T) -> T {
    let span = tracer.begin_on(name, Some(problem));
    let out = f();
    tracer.end(span);
    out
}

/// Measures every unit cost on `problem` (index `index` of the plan),
/// with a mapping and moves drawn from the workload `seed`. `budget` is
/// the workload's request budget, which sizes the neighbourhood quota.
pub fn measure_problem(
    problem: &MappingProblem,
    index: usize,
    seed: u64,
    budget: usize,
    tracer: &mut Tracer,
) -> UnitCosts {
    let ev = problem.evaluator();
    let mut rng = StdRng::seed_from_u64(derive(seed, 0xCE11_0000 + index as u64));
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    let moves: Vec<Move> = (0..MOVES)
        .map(|_| mapping.random_swap_move(&mut rng))
        .collect();
    let moved: Vec<Mapping> = moves.iter().map(|&mv| mapping.with_move(mv)).collect();
    let state = ev.init_state(&mapping);
    let threshold = state.worst_case_snr();
    let mut fs = EvalScratch::default();
    let mut ds = DeltaScratch::default();
    let full_ns = cell(tracer, "cell.evaluator.full", index, || {
        per_op(MOVES, || {
            for m in &moved {
                black_box(ev.evaluate_into(m, None, &mut fs));
            }
        })
    });
    let exact_ns = cell(tracer, "cell.delta.exact", index, || {
        per_op(MOVES, || {
            for &mv in &moves {
                black_box(ev.evaluate_delta_with(&state, &mapping, mv, &mut ds));
            }
        })
    });
    let bounded_ns = cell(tracer, "cell.delta.bounded", index, || {
        per_op(MOVES, || {
            for &mv in &moves {
                black_box(ev.evaluate_delta_bounded(&state, &mapping, mv, &mut ds, threshold));
            }
        })
    });
    let loss_ns = cell(tracer, "cell.delta.loss", index, || {
        per_op(MOVES, || {
            for &mv in &moves {
                black_box(ev.evaluate_delta_loss(&state, &mapping, mv, &mut ds));
            }
        })
    });
    let init_state_ns = cell(tracer, "cell.delta.init_state", index, || {
        per_op(1, || {
            black_box(ev.init_state(&mapping));
        })
    });

    let mut ctx = OptContext::new(problem, CELL_BUDGET, seed);
    ctx.set_current(mapping.clone());
    let peek_ns = cell(tracer, "cell.engine.peek", index, || {
        per_op(MOVES, || {
            black_box(ctx.peek_moves_improving(&moves));
        })
    });
    let pass_ns = cell(tracer, "cell.neighborhood.pass", index, || {
        let mut nbhd = Neighborhood::with_policy(&ctx, NeighborhoodPolicy::Auto, seed);
        let quota = scan_quota(budget, nbhd.admitted_len());
        let emitted = nbhd.pass(&ctx, quota).len();
        per_op(emitted, || {
            black_box(nbhd.pass(&ctx, quota).len());
        })
    });

    let tiles: Vec<_> = mapping.assignment().to_vec();
    let mut lb = CertificateBound::new(ev, problem.objective());
    let node_ns = cell(tracer, "cell.exact.node", index, || {
        per_op(tiles.len(), || {
            for (task, &tile) in tiles.iter().enumerate() {
                black_box(lb.assign(task, tile));
                black_box(lb.bound());
            }
            for _ in 0..tiles.len() {
                lb.unassign();
            }
        })
    });
    let root_bound_ns = cell(tracer, "cell.exact.root_bound", index, || {
        per_op(1, || {
            black_box(phonoc_opt::root_bound(problem, problem.objective()));
        })
    });

    let batch: Vec<Mapping> = (0..16)
        .map(|_| Mapping::random(problem.task_count(), problem.tile_count(), &mut rng))
        .collect();
    let batch_speedup = cell(tracer, "cell.pool.batch", index, || {
        let at = |workers| {
            set_worker_override(Some(workers));
            per_op(batch.len(), || {
                black_box(ev.evaluate_summaries_batch(&batch));
            })
        };
        let one = at(1);
        let two = at(2);
        set_worker_override(None);
        one / two
    });
    UnitCosts {
        full_ns,
        exact_ns,
        bounded_ns,
        loss_ns,
        init_state_ns,
        peek_ns,
        pass_ns,
        node_ns,
        root_bound_ns,
        batch_speedup,
    }
}

/// `parallel_map_with` round trip on an 8-item batch at 2 workers
/// minus the same batch inline at 1 worker, in ns.
pub fn pool_dispatch_ns(tracer: &mut Tracer) -> f64 {
    let span = tracer.begin("cell.pool.dispatch");
    let items: Vec<u64> = (0..8).collect();
    let at = |workers| {
        set_worker_override(Some(workers));
        per_op(1, || {
            black_box(parallel_map_with(
                &items,
                || (),
                |_: &mut (), x| black_box(*x),
            ));
        })
    };
    let inline = at(1);
    let pooled = at(2);
    set_worker_override(None);
    tracer.end(span);
    pooled - inline
}

/// A request's time split across layers, in sequential-equivalent ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// In-place problem edits (measured directly).
    pub problem: f64,
    /// Full evaluations × `full_ns`.
    pub evaluator: f64,
    /// Exact, bounded and loss delta peeks × their unit costs.
    pub delta: f64,
    /// Peeked moves × `pass_ns`.
    pub neighborhood: f64,
    /// Exact-lane nodes × `node_ns`.
    pub exact: f64,
    /// Warm-cache lookups (an exact hit's whole solve; the median hit
    /// time for a request that ran).
    pub warm: f64,
    /// Request wall time.
    pub wall: f64,
}

impl Split {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Split) {
        self.problem += other.problem;
        self.evaluator += other.evaluator;
        self.delta += other.delta;
        self.neighborhood += other.neighborhood;
        self.exact += other.exact;
        self.warm += other.warm;
        self.wall += other.wall;
    }

    /// `(layer, share of wall time)` for every attributed layer, then
    /// the remainder as `other`; the shares sum to 1.
    #[must_use]
    pub fn shares(&self) -> [(&'static str, f64); 7] {
        let w = self.wall.max(1.0);
        let parts = [
            ("problem", self.problem / w),
            ("evaluator", self.evaluator / w),
            ("delta", self.delta / w),
            ("neighborhood", self.neighborhood / w),
            ("exact", self.exact / w),
            ("warm", self.warm / w),
        ];
        let other = 1.0 - parts.iter().map(|p| p.1).sum::<f64>();
        [
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4],
            parts[5],
            ("other", other),
        ]
    }
}

/// Splits one request by its counters and its problem's unit costs.
/// `lookup_ns` is the workload's median exact-hit solve time.
#[must_use]
pub fn attribute(o: &Outcome, c: &UnitCosts, lookup_ns: f64) -> Split {
    if o.warm == Some(WarmKind::Hit) {
        // The stored run's counters describe work this request did not
        // do: an exact hit is the edit plus the lookup, nothing else.
        return Split {
            problem: o.edit_ns as f64,
            warm: (o.ns - o.edit_ns) as f64,
            wall: o.ns as f64,
            ..Split::default()
        };
    }
    let s = &o.stats;
    let warm = if o.warm.is_some() { lookup_ns } else { 0.0 };
    Split {
        problem: o.edit_ns as f64,
        evaluator: s.full_evaluations as f64 * c.full_ns,
        delta: s.delta_exact as f64 * c.exact_ns
            + (s.bound_rejected + s.bound_verified) as f64 * c.bounded_ns
            + s.loss_fast_path as f64 * c.loss_ns,
        neighborhood: s.peeks_total() as f64 * c.pass_ns,
        exact: s.exact_nodes as f64 * c.node_ns,
        warm,
        wall: o.ns as f64,
    }
}
