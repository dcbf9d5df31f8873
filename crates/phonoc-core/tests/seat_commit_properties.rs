//! Properties of the objective-scoped evaluation paths: loss-family
//! sessions run an insertion-loss-only pass and hold an IL-only cursor
//! state, SNR cursors are re-seated in place, and full-routed commits
//! re-seat instead of running the delta. Every one of these paths must
//! be bit-identical to the full crosstalk evaluation it replaces:
//!
//! * the IL-only pass against `evaluate_into(..).worst_case_il`, on
//!   every Table II application (mesh and torus), a zero-edge graph and
//!   random scenarios;
//! * `init_state_into` against a fresh `init_state`, field for field,
//!   whatever the refilled state held before;
//! * cursor walks under every objective family and peek strategy,
//!   where every commit must leave the cursor score equal to a fresh
//!   full re-score.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_apps::{CgBuilder, CommunicationGraph};
use phonoc_core::{
    DeltaScratch, EvalScratch, EvalState, Evaluator, Mapping, MappingProblem, Move, Objective,
    OptContext, PeekStrategy,
};
use phonoc_phys::{Db, Length, Modulation, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJECTIVES: [Objective; 4] = [
    Objective::MinimizeWorstCaseLoss,
    Objective::MaximizeWorstCaseSnr,
    Objective::MinimizeLaserPower {
        modulation: Modulation::Ook,
    },
    Objective::MaximizeSnrMargin {
        modulation: Modulation::Pam4,
    },
];

fn problem_on(cg: CommunicationGraph, topology: Topology) -> MappingProblem {
    MappingProblem::new(
        cg,
        topology,
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

/// The smallest near-square grid holding `tasks` (tori need ≥ 3 per
/// side for distinct wrap links).
fn grid(tasks: usize, torus: bool) -> Topology {
    let w = (tasks as f64).sqrt().ceil() as usize;
    let h = tasks.div_ceil(w);
    let pitch = Length::from_mm(2.5);
    if torus {
        Topology::torus(w.max(3), h.max(3), pitch)
    } else {
        Topology::mesh(w, h, pitch)
    }
}

/// Every Table II application on its fitted mesh and torus.
fn table2_problems() -> Vec<MappingProblem> {
    let mut out = Vec::new();
    for cg in phonoc_apps::benchmarks::all_benchmarks() {
        for torus in [false, true] {
            let topo = grid(cg.task_count(), torus);
            out.push(problem_on(cg.clone(), topo));
        }
    }
    out
}

fn scenario(family: ScenarioFamily, mesh: usize, seed: u64) -> MappingProblem {
    let cg = ScenarioSpec {
        family,
        mesh,
        density_pct: 100,
        seed,
    }
    .build();
    problem_on(cg, Topology::mesh(mesh, mesh, Length::from_mm(2.5)))
}

fn zero_edge_problem() -> MappingProblem {
    let cg = CgBuilder::new("silent")
        .tasks(["a", "b", "c"])
        .build()
        .unwrap();
    problem_on(cg, Topology::mesh(2, 2, Length::from_mm(2.5)))
}

/// Every IL-only figure the engine reads for `mapping` — the plain
/// pass, the IL-only state fill, and a loss-objective `evaluate` —
/// bit-matches the full crosstalk pass.
fn assert_il_only_matches(p: &MappingProblem, mapping: &Mapping, what: &str) {
    let ev = p.evaluator();
    let full = ev.evaluate_into(mapping, None, &mut EvalScratch::default());
    let bits = full.worst_case_il.0.to_bits();
    assert_eq!(ev.worst_case_il(mapping).0.to_bits(), bits, "{what}");
    let mut state = ev.init_state(mapping);
    ev.init_loss_state_into(mapping, &mut state);
    assert!(!state.has_crosstalk(), "{what}");
    assert_eq!(state.edge_count(), ev.edge_count(), "{what}");
    assert_eq!(state.worst_case_il().0.to_bits(), bits, "{what}");
    let mut ctx = OptContext::new(p, 4, 0);
    ctx.set_objective(Objective::MinimizeWorstCaseLoss).unwrap();
    assert_eq!(ctx.evaluate(mapping).unwrap().to_bits(), bits, "{what}");
    assert_eq!(
        ctx.evaluate_batch(std::slice::from_ref(mapping))[0].to_bits(),
        bits,
        "{what}"
    );
}

#[test]
fn il_only_pass_bit_matches_the_full_pass() {
    let mut rng = StdRng::seed_from_u64(0x11_0A7);
    for p in table2_problems() {
        for i in 0..12 {
            let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            assert_il_only_matches(&p, &m, &format!("{} #{i}", p.cg().name()));
        }
    }
    let silent = zero_edge_problem();
    let m = Mapping::random(silent.task_count(), silent.tile_count(), &mut rng);
    assert_il_only_matches(&silent, &m, "zero-edge graph");
    assert_eq!(silent.evaluator().worst_case_il(&m), Db(0.0));
    for seed in 0..6u64 {
        let family = ScenarioFamily::ALL[seed as usize % ScenarioFamily::ALL.len()];
        let p = scenario(family, 4 + (seed as usize % 3), seed);
        for i in 0..8 {
            let m = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
            assert_il_only_matches(&p, &m, &format!("{family:?} seed {seed} #{i}"));
        }
    }
}

#[test]
fn loss_commits_match_a_fresh_il_fill() {
    let mut rng = StdRng::seed_from_u64(0xC0_3317);
    for p in [
        scenario(ScenarioFamily::Hotspot, 5, 2),
        problem_on(phonoc_apps::benchmarks::pip(), grid(9, false)),
    ] {
        let ev = p.evaluator();
        let mut mapping = Mapping::random(p.task_count(), p.tile_count(), &mut rng);
        let mut state = ev.init_state(&mapping);
        ev.init_loss_state_into(&mapping, &mut state);
        let mut scratch = DeltaScratch::default();
        for _ in 0..60 {
            let mv = mapping.random_swap_move(&mut rng);
            let (peeked, _) = ev.evaluate_delta_loss(&state, &mapping, mv, &mut scratch);
            let committed = ev.apply_loss_move(&mut state, &mut mapping, mv, &mut scratch);
            assert_eq!(committed.0.to_bits(), peeked.0.to_bits());
            let mut fresh = ev.init_state(&mapping);
            ev.init_loss_state_into(&mapping, &mut fresh);
            assert_eq!(state, fresh);
        }
    }
}

/// A state refilled by `init_state_into` equals a fresh `init_state`
/// field for field, and scores exactly what the full pass scores.
fn assert_refill(ev: &Evaluator, mapping: &Mapping, state: &mut EvalState, what: &str) {
    ev.init_state_into(mapping, state);
    assert_eq!(*state, ev.init_state(mapping), "{what}");
    assert!(state.has_crosstalk(), "{what}");
    assert_eq!(state.to_metrics(), ev.evaluate(mapping), "{what}");
}

#[test]
fn init_state_into_refills_any_prior_state() {
    let mut rng = StdRng::seed_from_u64(0x5EA7);
    let small = problem_on(phonoc_apps::benchmarks::pip(), grid(9, false));
    let large = scenario(ScenarioFamily::Random, 6, 3);
    let silent = zero_edge_problem();
    let draw =
        |p: &MappingProblem, rng: &mut StdRng| Mapping::random(p.task_count(), p.tile_count(), rng);
    for _ in 0..6 {
        let (ms, ml) = (draw(&small, &mut rng), draw(&large, &mut rng));
        // Last filled for a larger problem, then a smaller one.
        let mut state = large.evaluator().init_state(&ml);
        assert_refill(small.evaluator(), &ms, &mut state, "larger → smaller");
        assert_refill(large.evaluator(), &ml, &mut state, "smaller → larger");
        // Same problem: another mapping, then the same mapping again.
        let ml2 = draw(&large, &mut rng);
        assert_refill(large.evaluator(), &ml2, &mut state, "same problem");
        assert_refill(large.evaluator(), &ml2, &mut state, "same mapping");
        // Last filled in the IL-only form (same and other problem).
        large.evaluator().init_loss_state_into(&ml, &mut state);
        assert_refill(large.evaluator(), &ml, &mut state, "IL-only → complete");
        large.evaluator().init_loss_state_into(&ml, &mut state);
        assert_refill(small.evaluator(), &ms, &mut state, "IL-only → smaller");
        // Edgeless graphs in both directions.
        let mz = draw(&silent, &mut rng);
        assert_refill(silent.evaluator(), &mz, &mut state, "→ zero edges");
        assert_refill(large.evaluator(), &ml, &mut state, "zero edges →");
    }
}

/// Walks a cursor through random moves, committing every exact peek,
/// re-seating now and then; after every commit and seat the cursor
/// score must equal a fresh full re-score of the cursor mapping.
fn walk(p: &MappingProblem, objective: Objective, strategy: PeekStrategy, seed: u64) {
    let what = format!("{} {objective:?} {strategy:?}", p.cg().name());
    let mut ctx = OptContext::new(p, 1_000_000, seed);
    ctx.set_objective(objective).unwrap();
    ctx.set_peek_strategy(strategy);
    let rescore = |m: &Mapping| objective.score(&p.evaluator().evaluate(m));
    let start = ctx.random_mapping();
    let s0 = ctx.set_current(start.clone()).unwrap();
    assert_eq!(s0.to_bits(), rescore(&start).to_bits(), "{what}: seat");
    let mut commits = 0usize;
    for step in 0..80 {
        if step % 25 == 24 {
            let m = ctx.random_mapping();
            let s = ctx.set_current(m.clone()).unwrap();
            assert_eq!(s.to_bits(), rescore(&m).to_bits(), "{what}: re-seat");
            continue;
        }
        let mv = {
            let rng = ctx.rng();
            let tiles = p.tile_count();
            let a = rng.gen_range(0..tiles);
            let b = (a + 1 + rng.gen_range(0..tiles - 1)) % tiles;
            Move::Swap(a, b)
        };
        let ev = if step % 2 == 0 {
            ctx.peek_move(mv)
        } else {
            ctx.peek_move_improving(mv)
        }
        .unwrap();
        if !ev.is_exact() {
            continue;
        }
        ctx.apply_scored_move(&ev);
        commits += 1;
        let current = ctx.current_mapping().unwrap().clone();
        let fresh = rescore(&current);
        assert_eq!(
            ctx.current_score().unwrap().to_bits(),
            fresh.to_bits(),
            "{what}: commit {commits} of {mv:?}"
        );
        assert_eq!(ev.score().to_bits(), fresh.to_bits(), "{what}: peek");
    }
    assert!(commits > 10, "{what}: only {commits} commits");
    assert!(ctx.stats().reconciles(), "{what}");
}

#[test]
fn cursor_commits_rescore_exactly_under_every_family_and_strategy() {
    let problems = [
        problem_on(phonoc_apps::benchmarks::vopd(), grid(16, false)),
        problem_on(phonoc_apps::benchmarks::pip(), grid(9, true)),
        scenario(ScenarioFamily::Hotspot, 6, 5),
    ];
    for (i, p) in problems.iter().enumerate() {
        for objective in OBJECTIVES {
            for strategy in PeekStrategy::ALL {
                walk(p, objective, strategy, 31 + i as u64);
            }
        }
    }
}

/// A context reset between problems of different sizes and objective
/// families re-seats its parked cursor state in place; every session
/// still scores exactly.
#[test]
fn parked_cursor_state_survives_resets_across_families() {
    let problems = [
        scenario(ScenarioFamily::Random, 6, 1),
        problem_on(phonoc_apps::benchmarks::pip(), grid(9, false)),
        scenario(ScenarioFamily::Star, 5, 4),
    ];
    let mut ctx = OptContext::new(&problems[0], 10, 0);
    for (round, objective) in OBJECTIVES.iter().cycle().take(8).enumerate() {
        let p = &problems[round % problems.len()];
        ctx.reset_for(p, 1_000, round as u64);
        ctx.set_objective(*objective).unwrap();
        let m = ctx.random_mapping();
        let s = ctx.set_current(m.clone()).unwrap();
        assert_eq!(
            s.to_bits(),
            objective.score(&p.evaluator().evaluate(&m)).to_bits()
        );
        let ev = ctx.peek_move(Move::Swap(0, p.tile_count() - 1)).unwrap();
        ctx.apply_scored_move(&ev);
        let current = ctx.current_mapping().unwrap().clone();
        assert_eq!(
            ctx.current_score().unwrap().to_bits(),
            objective.score(&p.evaluator().evaluate(&current)).to_bits(),
            "round {round}"
        );
    }
}

/// The SNR entry points refuse an IL-only state loudly (debug builds).
#[cfg(debug_assertions)]
mod guards {
    use super::*;

    fn il_only() -> (MappingProblem, Mapping, EvalState) {
        let p = problem_on(phonoc_apps::benchmarks::pip(), grid(9, false));
        let m = Mapping::random(
            p.task_count(),
            p.tile_count(),
            &mut StdRng::seed_from_u64(5),
        );
        let mut state = p.evaluator().init_state(&m);
        p.evaluator().init_loss_state_into(&m, &mut state);
        (p, m, state)
    }

    #[test]
    #[should_panic(expected = "IL-only")]
    fn exact_delta_rejects_an_il_only_state() {
        let (p, m, state) = il_only();
        let _ = p.evaluator().evaluate_delta_with(
            &state,
            &m,
            Move::Swap(0, 1),
            &mut DeltaScratch::default(),
        );
    }

    #[test]
    #[should_panic(expected = "IL-only")]
    fn bounded_delta_rejects_an_il_only_state() {
        let (p, m, state) = il_only();
        let _ = p.evaluator().evaluate_delta_bounded(
            &state,
            &m,
            Move::Swap(0, 1),
            &mut DeltaScratch::default(),
            Db(f64::NEG_INFINITY),
        );
    }

    #[test]
    #[should_panic(expected = "IL-only")]
    fn apply_move_rejects_an_il_only_state() {
        let (p, mut m, mut state) = il_only();
        let _ = p.evaluator().apply_move(
            &mut state,
            &mut m,
            Move::Swap(0, 1),
            &mut DeltaScratch::default(),
        );
    }

    #[test]
    #[should_panic(expected = "IL-only")]
    fn worst_snr_is_not_read_from_an_il_only_state() {
        let (_, _, state) = il_only();
        let _ = state.worst_case_snr();
    }

    #[test]
    #[should_panic(expected = "IL-only")]
    fn loss_commit_rejects_a_complete_state() {
        let (p, mut m, _) = il_only();
        let mut state = p.evaluator().init_state(&m);
        let _ = p.evaluator().apply_loss_move(
            &mut state,
            &mut m,
            Move::Swap(0, 1),
            &mut DeltaScratch::default(),
        );
    }
}
