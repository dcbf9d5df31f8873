//! Golden pins for loss-family sessions (`!loss` and `!power`): every
//! registry optimizer, one portfolio and one cold / exact / near warm
//! stream, on a Table II problem and a scenario problem.
//!
//! Loss-family objectives score a mapping by its worst-case insertion
//! loss alone, so the engine is free to skip the crosstalk pass on
//! every evaluation, cursor seat and commit. That must be invisible:
//! each run's best-score bits, evaluation ledger, decision counters
//! and rendered trace bytes are pinned here, and any drift in the
//! search trajectory shows up as a changed line.

use phonoc_apps::scenario::{ScenarioFamily, ScenarioSpec};
use phonoc_core::{render_trace, run_dse, DseConfig, MappingProblem, Objective, RunStats};
use phonoc_opt::{builtin_names, run_portfolio, single_spec, PortfolioResult, PortfolioSpec};
use phonoc_opt::{WarmCache, WarmSource};
use phonoc_phys::{Length, PhysicalParameters};
use phonoc_route::XyRouting;
use phonoc_router::crux::crux_router;
use phonoc_topo::Topology;

fn table2_problem() -> MappingProblem {
    MappingProblem::new(
        phonoc_apps::benchmarks::benchmark("MPEG-4").unwrap(),
        Topology::mesh(4, 3, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

fn scenario_problem() -> MappingProblem {
    let mesh = 5;
    let cg = ScenarioSpec {
        family: ScenarioFamily::Hotspot,
        mesh,
        density_pct: 100,
        seed: 4,
    }
    .build();
    MappingProblem::new(
        cg,
        Topology::mesh(mesh, mesh, Length::from_mm(2.5)),
        crux_router(),
        Box::new(XyRouting),
        PhysicalParameters::default(),
        Objective::MaximizeWorstCaseSnr,
    )
    .unwrap()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One run's pinned line: best-score bits, evaluations, full and delta
/// evaluations, an FNV-1a digest of the `RunStats` counters, and the
/// trace's event count and FNV-1a digest of its rendered JSONL.
fn line(
    label: &str,
    best: f64,
    evaluations: usize,
    stats: &RunStats,
    trace: &[phonoc_core::TraceEvent],
) -> String {
    assert!(
        stats.reconciles(),
        "{label}: counters must partition the ledger"
    );
    format!(
        "{label} {:016x} {evaluations} {} {} {:016x} {} {:016x}",
        best.to_bits(),
        stats.full_evaluations,
        stats.delta_evaluations,
        fnv1a(format!("{stats:?}").as_bytes()),
        trace.len(),
        fnv1a(render_trace(label, trace).as_bytes()),
    )
}

fn portfolio_line(label: &str, r: &PortfolioResult) -> String {
    line(label, r.best_score, r.evaluations, &r.stats, &r.trace)
}

/// Builds one pinned problem (the warm stream mutates its own copy).
type Recipe = fn() -> MappingProblem;

/// Every pinned run, one line each, in a fixed order.
fn pinned_lines() -> Vec<String> {
    let recipes: [(&str, Recipe); 2] = [("mpeg4", table2_problem), ("hotspot5", scenario_problem)];
    let mut lines = Vec::new();
    for (pname, build) in recipes {
        let problem = &build();
        for objective in ["loss", "power"] {
            for name in builtin_names() {
                let spec = single_spec(&format!("{name}!{objective}")).unwrap();
                let mut config = DseConfig::new(300, 11);
                config.objective = spec.objective;
                config.policy = spec.policy.unwrap_or_default();
                config.strategy = spec.strategy.unwrap_or_default();
                config.trace = true;
                let r = run_dse(problem, spec.optimizer.as_ref(), &config);
                assert_eq!(r.full_evaluations, r.stats.full_evaluations);
                assert_eq!(r.delta_evaluations, r.stats.delta_evaluations);
                lines.push(line(
                    &format!("{pname}/{name}!{objective}"),
                    r.best_score,
                    r.evaluations,
                    &r.stats,
                    &r.trace,
                ));
            }
            let pspec = PortfolioSpec::parse(&format!(
                "r-pbla@sampled!{objective}+sa!{objective},exchange=best,rounds=3"
            ))
            .unwrap();
            let r = run_portfolio(problem, &pspec, 160, 7);
            lines.push(portfolio_line(
                &format!("{pname}/portfolio!{objective}"),
                &r,
            ));
            let mut live = build();
            let mut cache = WarmCache::new();
            let cold = cache.solve(&live, &pspec, 90, 3);
            let exact = cache.solve(&live, &pspec, 90, 3);
            let (s, d, bw) = {
                let e = &live.cg().edges()[1];
                (e.src, e.dst, e.bandwidth)
            };
            live.update_edge_bandwidths(&[(s, d, bw * 0.93)]).unwrap();
            let near = cache.solve(&live, &pspec, 90, 3);
            assert_eq!(cold.source, WarmSource::Cold);
            assert_eq!(exact.source, WarmSource::ExactHit);
            assert!(matches!(near.source, WarmSource::NearHit { .. }));
            for (kind, solve) in [("cold", cold), ("exact", exact), ("near", near)] {
                lines.push(portfolio_line(
                    &format!("{pname}/warm-{kind}!{objective}"),
                    &solve.result,
                ));
            }
        }
    }
    lines
}

/// Recorded before the engine learned to skip the crosstalk pass for
/// loss-family sessions; a line that changes means a search moved.
const GOLDEN: &[&str] = &[
    "mpeg4/rs!loss c0020b4395810624 300 300 0 25745deb6584bada 4 d83c6031fc3db013",
    "mpeg4/ga!loss c001189374bc6a7f 300 300 0 5a16f8a2546ab3ab 5 f3ee868923bdaad3",
    "mpeg4/r-pbla!loss c001189374bc6a7f 300 5 928 50558902a837089b 937 865570b1e57e0f7c",
    "mpeg4/sa!loss c001189374bc6a7f 300 30 866 e4fd64aca061d1b0 872 0133ffdc13695d85",
    "mpeg4/tabu!loss c001189374bc6a7f 300 1 941 87abfa485c34b8bf 946 4db5b92eff3d016c",
    "mpeg4/ils!loss c001189374bc6a7f 300 12 905 0edc6dbea2b3403b 919 52a27a9a0d6ca28e",
    "mpeg4/exhaustive!loss c0030b4395810626 300 300 0 30e0e668081dc879 3 71f15147300d026d",
    "mpeg4/exact!loss c0020b4395810624 300 4 791 ec61c53c65cff68c 11 85a48886af9f1a22",
    "mpeg4/portfolio!loss c001189374bc6a7f 160 67 295 3c71dfd29ac1c43f 7 ac771d656698cba9",
    "mpeg4/warm-cold!loss c0020b4395810624 90 44 151 98cdcbfb15b67f4c 8 67e2e14fbbc5a449",
    "mpeg4/warm-exact!loss c0020b4395810624 90 44 151 b7cdb589f8ab5162 1 8dcd3e351bc7b0e1",
    "mpeg4/warm-near!loss c001189374bc6a7f 90 44 151 10c438d4ef1dc335 8 6b7f6f7a966b60b9",
    "mpeg4/rs!power c031d0f1d291cb0b 300 300 0 25745deb6584bada 4 79a7ad7fc99cbb3c",
    "mpeg4/ga!power c031b29bce793796 300 300 0 5a16f8a2546ab3ab 5 d2e39118436f3e12",
    "mpeg4/r-pbla!power c031b29bce793796 300 5 928 112022e3d018ff3c 937 1148b6684ab1c0ca",
    "mpeg4/sa!power c031b29bce793796 300 30 866 e4fd64aca061d1b0 872 387b1ffbc4216744",
    "mpeg4/tabu!power c031b29bce793796 300 1 941 87abfa485c34b8bf 946 1bb046d50fe3f5b9",
    "mpeg4/ils!power c031b29bce793796 300 12 907 12c6112923427bbc 921 cbff3f14c6daf2ac",
    "mpeg4/exhaustive!power c031f0f1d291cb0b 300 300 0 30e0e668081dc879 3 efc5f4ecd07e4d14",
    "mpeg4/exact!power c031d0f1d291cb0b 300 4 791 ec61c53c65cff68c 11 4cc307ea7404b66a",
    "mpeg4/portfolio!power c031b29bce793796 160 67 295 27ec0dce78716596 7 3c2efe0ef7fdbfe8",
    "mpeg4/warm-cold!power c031d0f1d291cb0b 90 44 151 40641ff488b3539f 8 94a78d17f5139801",
    "mpeg4/warm-exact!power c031d0f1d291cb0b 90 44 151 a0b06316284c8ff9 1 30a53cf4df1a2871",
    "mpeg4/warm-near!power c031b29bce793796 90 44 151 da92672fde83dfa8 8 47777886065ffe06",
    "hotspot5/rs!loss c004e978d4fdf3b7 300 300 0 25745deb6584bada 4 e1e2efc5c8b5f693",
    "hotspot5/ga!loss c004e978d4fdf3b7 300 300 0 25745deb6584bada 4 fe14b76134049d9e",
    "hotspot5/r-pbla!loss c004e978d4fdf3b7 300 4 1814 95d0e8efb4a0c55b 1821 bf6ff5597df88827",
    "hotspot5/sa!loss c004e978d4fdf3b7 300 29 1712 fe7e94f72a2897aa 1716 84f795d66c58c517",
    "hotspot5/tabu!loss c004e978d4fdf3b7 300 1 1817 f9c98c14f7013038 1821 24c50caeab870453",
    "hotspot5/ils!loss c004e978d4fdf3b7 300 5 2245 323f16cdcacf0b60 2253 3984d39620d01c3a",
    "hotspot5/exhaustive!loss c00b8b4395810626 300 300 0 3da86ce948577c90 2 8a850d5067d48505",
    "hotspot5/exact!loss c005dc28f5c28f5c 300 1 7176 44c732fd5a49489c 12 e7596094d1044e01",
    "hotspot5/portfolio!loss c004e978d4fdf3b7 160 91 418 c3af3dc54e9d32bc 7 f827ace62119898e",
    "hotspot5/warm-cold!loss c004e978d4fdf3b7 90 54 246 94b7cb160b9119a7 8 817637536aea322e",
    "hotspot5/warm-exact!loss c004e978d4fdf3b7 90 54 246 520e4b700eb4c3e1 1 ee715c45ce1ddee6",
    "hotspot5/warm-near!loss c004e978d4fdf3b7 90 56 242 8a41e40b7ee3ff1f 8 59e41ade3127a8a9",
    "hotspot5/rs!power c0322cb87a8168bd 300 300 0 25745deb6584bada 4 4144e479014e753f",
    "hotspot5/ga!power c0322cb87a8168bd 300 300 0 25745deb6584bada 4 1c7d54a435cbcbda",
    "hotspot5/r-pbla!power c0322cb87a8168bd 300 4 1814 441f8ad881078808 1821 a37f7b8fd8d4acd0",
    "hotspot5/sa!power c0322cb87a8168bd 300 29 1712 fe7e94f72a2897aa 1716 022f9c28d90804c1",
    "hotspot5/tabu!power c0322cb87a8168bd 300 1 1817 f9c98c14f7013038 1821 5b2ac16961f93ccb",
    "hotspot5/ils!power c0322cb87a8168bd 300 5 2245 4d567259b2a6c97e 2253 ca8cbcca9e8790e5",
    "hotspot5/exhaustive!power c03300f1d291cb0b 300 300 0 3da86ce948577c90 2 4dd56f1a6da5c231",
    "hotspot5/exact!power c0324b0e7e99fc32 300 1 7176 44c732fd5a49489c 12 5439e0abb7e6daeb",
    "hotspot5/portfolio!power c0322cb87a8168bd 160 91 418 e2377272c013095a 7 d2cb20d8449a2e1c",
    "hotspot5/warm-cold!power c0322cb87a8168bd 90 54 246 e6e078216959169b 8 b21139b857e98622",
    "hotspot5/warm-exact!power c0322cb87a8168bd 90 54 246 e9995dbd436f4ec5 1 0b7cac66cc0e4994",
    "hotspot5/warm-near!power c0322cb87a8168bd 90 56 242 7897e9e6c0e61ee3 8 566dc08127270418",
];

#[test]
fn loss_family_sessions_match_the_golden_pins() {
    let lines = pinned_lines();
    assert_eq!(lines.len(), GOLDEN.len());
    for (got, want) in lines.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}
