//! The `phonocmap` command-line tool: the user-facing face of the
//! reproduction, mirroring the workflow of the paper's Java toolset.
//!
//! ```text
//! phonocmap list
//! phonocmap describe-router crux
//! phonocmap show-app VOPD [--dot]
//! phonocmap analyze  --app VOPD [--topology mesh] [--router crux] [--seed 1]
//! phonocmap optimize --app VOPD [--algo r-pbla] [--objective snr|loss|power|margin]
//!                    [--topology mesh|torus|ring] [--router crux]
//!                    [--neighborhood auto|exhaustive|sampled|locality]
//!                    [--budget 100000] [--seed 42]
//! phonocmap optimize --file my_app.cg ...      # text-format CG input
//! phonocmap portfolio --app VOPD [--spec "r-pbla@sampled+sa,exchange=best,rounds=8"]
//! phonocmap sweep [--smoke] [--neighborhood P] [--out BENCH_sweep.json]
//! phonocmap replay [--smoke] [--budget N] [--out BENCH_warmstart.json]
//! phonocmap parallel-bench [--smoke] [--out BENCH_parallel.json]
//! phonocmap trace run.trace.jsonl              # analyze a recorded trace
//! ```
//!
//! `optimize`, `portfolio` and `replay` take `--trace-out PATH` to
//! record the run's structured telemetry as `phonocmap-trace/1` JSONL
//! (`phonoc_core::telemetry`); `phonocmap trace` reads such a file
//! back, prints the route-mix / lane-budget / cache-hit breakdowns and
//! verifies the reconciliation identities. Setting `PHONOC_TRACE_NULL`
//! keeps recording off and writes a header-only trace — the CI check
//! that tracing is genuinely opt-in.
//!
//! The CG text format is documented in `phonoc_apps::text`.

use phonocmap::apps::text::parse_cg;
use phonocmap::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "describe-router" => cmd_describe_router(&args),
        "show-app" => cmd_show_app(&args),
        "analyze" => cmd_analyze(&args),
        "optimize" => cmd_optimize(&args),
        "portfolio" => cmd_portfolio(&args),
        "sweep" => cmd_sweep(&args),
        "replay" => cmd_replay(&args),
        "parallel-bench" => cmd_parallel_bench(&args),
        "trace" => cmd_trace(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "phonocmap — application mapping for photonic NoCs
commands:
  list                         available benchmarks, routers, algorithms
  describe-router <name>       router datasheet (losses + crosstalk)
  show-app <name> [--dot]      benchmark communication graph
  analyze  --app <name> | --file <cg>   evaluate a random mapping
  optimize --app <name> | --file <cg>   search for the best mapping
  portfolio --app <name> | --file <cg>  race N search lanes with elite
        [--spec LANES[,exchange=E][,rounds=N][,collapse=K]]  (try `portfolio help`)
  sweep [--smoke] [--out PATH]          scenario-matrix sweep: peek-strategy
        [--samples N] [--moves N]       timings + optimizer results as JSON
        [--budget N]                    (r-pbla runs once per neighborhood
        [--neighborhood POLICY]         stream; POLICY restricts to one)
  replay [--smoke] [--out PATH]         warm-start request streams through a
        [--budget N]                    persistent cache (cold / exact hit /
                                        perturbed / phase change) as JSON
  parallel-bench [--smoke] [--out PATH] dispatch-overhead microbench: the
        [--samples N]                   persistent pool vs scope-spawn across
                                        batch size x item cost x workers
  trace <file>                          analyze a phonocmap-trace/1 JSONL file
                                        (route mix, lane budget flow, cache
                                        hits) and verify its accounting
options (analyze/optimize/portfolio):
  --topology mesh|torus|ring   (default mesh)
  --router   crux|crossbar|xy-crossbar   (default crux)
  --objective snr|loss|power[-pam4]|margin[-pam4]   (default snr)
  --algo NAME[@policy][/peek][!objective]  (default r-pbla; optimize only)
             NAME: rs|ga|r-pbla|sa|tabu|ils|exhaustive or portfolio:...
             /peek pins full|delta|bounded|hybrid; !objective re-targets
             the search (loss|snr|power[-pam4]|margin[-pam4])
  --neighborhood auto|exhaustive|sampled|locality  (default auto: exhaustive
             swap scans up to ~8x8 meshes, budget-aware sampling beyond)
  --budget N                   evaluations (default 100000)
  --seed N                     RNG seed (default 42)
  --trace-out PATH             record the run as phonocmap-trace/1 JSONL
             (optimize/portfolio/replay; read back with `phonocmap trace`;
             PHONOC_TRACE_NULL=1 writes a header-only trace, recording off)";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_list() -> Result<(), String> {
    println!("benchmarks:");
    for cg in phonocmap::apps::benchmarks::all_benchmarks() {
        println!(
            "  {:<15} {:>3} tasks {:>3} edges",
            cg.name(),
            cg.task_count(),
            cg.edge_count()
        );
    }
    println!("routers:");
    for name in RouterRegistry::with_builtins().names() {
        let r = RouterRegistry::with_builtins().get(name).expect("listed");
        println!(
            "  {:<15} {:>3} rings {:>3} crossings {:>3} connections",
            name,
            r.microring_count(),
            r.plain_crossing_count(),
            r.supported_pairs().len()
        );
    }
    println!("optimizers:");
    for name in phonocmap::opt::builtin_names() {
        println!("  {name}");
    }
    println!("routing algorithms:\n  xy (mesh/torus)\n  yx (mesh/torus)\n  ring (rings)");
    Ok(())
}

fn cmd_describe_router(args: &[String]) -> Result<(), String> {
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("describe-router needs a router name")?;
    let router = RouterRegistry::with_builtins()
        .get(name)
        .ok_or_else(|| format!("unknown router `{name}`"))?;
    print!(
        "{}",
        phonocmap::router::report::datasheet(&router, &PhysicalParameters::default())
    );
    Ok(())
}

fn cmd_show_app(args: &[String]) -> Result<(), String> {
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("show-app needs a benchmark name")?;
    let cg = phonocmap::apps::benchmarks::benchmark(name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    if args.iter().any(|a| a == "--dot") {
        print!("{}", cg.to_dot());
    } else {
        print!("{}", phonocmap::apps::text::render_cg(&cg));
    }
    Ok(())
}

fn load_cg(args: &[String]) -> Result<CommunicationGraph, String> {
    if let Some(app) = flag(args, "--app") {
        return phonocmap::apps::benchmarks::benchmark(&app)
            .ok_or_else(|| format!("unknown benchmark `{app}`"));
    }
    if let Some(path) = flag(args, "--file") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse_cg(&text).map_err(|e| format!("cannot parse {path}: {e}"));
    }
    Err("need --app <benchmark> or --file <cg-file>".into())
}

struct Setup {
    problem: MappingProblem,
    seed: u64,
}

fn build_problem(args: &[String]) -> Result<Setup, String> {
    let cg = load_cg(args)?;
    let topology_kind = flag(args, "--topology").unwrap_or_else(|| "mesh".into());
    let router_name = flag(args, "--router").unwrap_or_else(|| "crux".into());
    let objective = match flag(args, "--objective").as_deref() {
        None => Objective::MaximizeWorstCaseSnr,
        Some(name) => Objective::by_name(name).ok_or_else(|| {
            format!("unknown objective `{name}` (snr|loss|power[-pam4]|margin[-pam4])")
        })?,
    };
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(42);

    let pitch = Length::from_mm(2.5);
    let (w, h) = fit_grid(cg.task_count());
    let (topology, routing): (Topology, Box<dyn RoutingAlgorithm>) = match topology_kind.as_str() {
        "mesh" => (Topology::mesh(w, h, pitch), Box::new(XyRouting)),
        "torus" => (
            Topology::torus(w.max(3), h.max(3), pitch),
            Box::new(XyRouting),
        ),
        "ring" => (
            Topology::ring(cg.task_count().max(3), pitch),
            Box::new(RingRouting),
        ),
        other => return Err(format!("unknown topology `{other}` (mesh|torus|ring)")),
    };
    let router = RouterRegistry::with_builtins()
        .get(&router_name)
        .ok_or_else(|| format!("unknown router `{router_name}`"))?;
    let problem = MappingProblem::new(
        cg,
        topology,
        router,
        routing,
        PhysicalParameters::default(),
        objective,
    )
    .map_err(|e| e.to_string())?;
    Ok(Setup { problem, seed })
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let Setup { problem, seed } = build_problem(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mapping = Mapping::random(problem.task_count(), problem.tile_count(), &mut rng);
    print!("{}", analyze(&problem, &mapping));
    Ok(())
}

const PORTFOLIO_HELP: &str = "phonocmap portfolio — deterministic multi-lane search with elite exchange
Runs N search lanes as bulk-synchronous rounds. After each round, lanes
restart from an elite incumbent per the exchange policy; per-lane budget
slices sum exactly to --budget, so a portfolio run is comparable to any
single optimizer at the same budget. Results are bit-identical for every
worker-thread count (set PHONOC_WORKERS=N to pin).

usage:
  phonocmap portfolio --app <name> | --file <cg> [--spec SPEC] [options]

SPEC grammar (default: r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14):
  lane[+lane...][,exchange=isolated|best|ring][,rounds=N][,collapse=K]
  lane = optimizer[@neighborhood][/peek]
    optimizer     rs|ga|r-pbla|sa|tabu|ils
    @neighborhood auto|exhaustive|sampled|locality  (swap-scan streams)
    /peek         hybrid|delta|full                 (cost only, never scores)
  exchange: isolated = pure race, best = all lanes restart from the round's
  best incumbent, ring = each lane inherits its left neighbour's elite.
  collapse: once one lane holds the global best K rounds in a row, all
  remaining budget flows to it (dominance collapse; off by default).

examples:
  phonocmap portfolio --app VOPD
  phonocmap portfolio --app MPEG4 --spec \"r-pbla@sampled+r-pbla@locality+sa,exchange=best,rounds=8\"
  phonocmap portfolio --app VOPD --spec \"r-pbla+tabu+ils,exchange=ring,rounds=4\" --budget 30000
  phonocmap optimize --app VOPD --algo \"portfolio:r-pbla@sampled+sa,rounds=4\"   # same engine

options: --topology, --router, --objective, --budget, --seed as in optimize";

fn cmd_portfolio(args: &[String]) -> Result<(), String> {
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{PORTFOLIO_HELP}");
        return Ok(());
    }
    if flag(args, "--neighborhood").is_some() {
        return Err(
            "--neighborhood does not apply to a portfolio run: each lane pins its own \
             policy in the spec (e.g. `r-pbla@locality+sa`)"
                .into(),
        );
    }
    let spec_text = flag(args, "--spec")
        .unwrap_or_else(|| "r-pbla@sampled+r-pbla@locality,exchange=best,rounds=14".into());
    let spec = PortfolioSpec::parse(&spec_text)?;
    let Setup { problem, seed } = build_problem(args)?;
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| format!("bad budget `{s}`")))
        .transpose()?
        .unwrap_or(100_000);
    if budget == 0 {
        return Err("--budget must be at least 1".into());
    }
    run_portfolio_session(&problem, &spec, budget, seed, flag(args, "--trace-out"))
}

/// Shared portfolio driver behind `phonocmap portfolio` and
/// `phonocmap optimize --algo portfolio:...`.
fn run_portfolio_session(
    problem: &MappingProblem,
    spec: &PortfolioSpec,
    budget: usize,
    seed: u64,
    trace_out: Option<String>,
) -> Result<(), String> {
    let result = phonocmap::opt::run_portfolio(problem, spec, budget, seed);
    println!(
        "{} finished: {} rounds, {}/{} evaluations, best {} = {:.3}",
        result.spec,
        result.rounds,
        result.evaluations,
        result.budget,
        problem.objective(),
        result.best_score
    );
    if let Some((lane, round)) = result.collapsed {
        println!(
            "dominance collapse: lane {lane} ({}) took the whole budget from round {} on",
            result.lanes[lane].label,
            round + 1
        );
    }
    println!("lanes (allotments sum to the global budget):");
    for lane in &result.lanes {
        println!(
            "  {:<24} {:>7}/{:<7} evals  best {:>9.3} dB",
            lane.label, lane.used, lane.allotted, lane.best_score
        );
    }
    println!(
        "round incumbents: {}",
        result
            .round_best
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!();
    print!("{}", analyze(problem, &result.best_mapping));
    println!();
    print!("{}", result.stats.route_mix_table());
    if let Some(path) = trace_out {
        let events = if bench::trace_recording(Some(&path)) {
            &result.trace[..]
        } else {
            &[]
        };
        write_trace(&path, "portfolio", events)?;
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `sweep` bin: same flags,
    // same progress output, same JSON provenance.
    bench::sweep::run_sweep_cli(args, "phonocmap sweep")
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `replay` bin.
    bench::replay::run_replay_cli(args, "phonocmap replay")
}

fn cmd_parallel_bench(args: &[String]) -> Result<(), String> {
    // One shared driver with the standalone `parallel` bin.
    bench::parallel::run_parallel_cli(args, "phonocmap parallel-bench")
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("trace needs a JSONL trace file (record one with --trace-out)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (header, events) = phonocmap::core::parse_trace(&text)?;
    print!("{}", phonocmap::core::summarize_trace(&header, &events)?);
    Ok(())
}

/// Writes a recorded event stream as a `phonocmap-trace/1` JSONL file.
fn write_trace(
    path: &str,
    source: &str,
    events: &[phonocmap::core::TraceEvent],
) -> Result<(), String> {
    std::fs::write(path, phonocmap::core::render_trace(source, events))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path} ({} events)", events.len());
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let Setup { problem, seed } = build_problem(args)?;
    let algo_name = flag(args, "--algo").unwrap_or_else(|| "r-pbla".into());
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| format!("bad budget `{s}`")))
        .transpose()?
        .unwrap_or(100_000);
    if budget == 0 {
        return Err("--budget must be at least 1".into());
    }
    // `--algo` speaks the one search grammar:
    // `name[@policy][/peek][!objective]` for a single optimizer (e.g.
    // `r-pbla@sampled/hybrid!power`), or `portfolio:...` for the
    // multi-lane racer (same engine as the `portfolio` subcommand).
    let single = match phonocmap::opt::search_spec(&algo_name)? {
        phonocmap::opt::SearchSpec::Portfolio(spec) => {
            if flag(args, "--neighborhood").is_some() {
                return Err(
                    "--neighborhood does not apply to a portfolio run: each lane pins its own \
                     policy in the spec (e.g. `portfolio:r-pbla@locality+sa`)"
                        .into(),
                );
            }
            return run_portfolio_session(&problem, &spec, budget, seed, flag(args, "--trace-out"));
        }
        phonocmap::opt::SearchSpec::Single(single) => single,
    };
    let explicit_policy = match flag(args, "--neighborhood") {
        Some(name) => Some(NeighborhoodPolicy::by_name(&name).ok_or_else(|| {
            format!("unknown neighborhood `{name}` (auto|exhaustive|sampled|locality)")
        })?),
        // `--algo r-pbla@sampled` works too; an explicit flag wins.
        None => single.policy,
    };
    // The policy only steers the swap-neighbourhood scanners; warn
    // instead of silently mislabeling a population-strategy run.
    if explicit_policy.is_some() && matches!(single.optimizer.name(), "rs" | "ga" | "exhaustive") {
        eprintln!(
            "warning: `{}` does not scan a swap neighborhood; --neighborhood has no effect",
            single.optimizer.name()
        );
    }
    let policy = explicit_policy.unwrap_or_default();

    let mut config = DseConfig::new(budget, seed)
        .with_strategy(single.strategy.unwrap_or_default())
        .with_policy(policy);
    config.objective = single.objective;
    config.trace = bench::trace_recording(flag(args, "--trace-out").as_ref());
    // A `!objective` suffix re-targets the session; report under the
    // objective the scores actually mean.
    let objective = single.objective.unwrap_or_else(|| problem.objective());
    // Recording is invisible to the search (bit-identical results,
    // property-pinned), so traced and untraced runs print the same
    // report.
    let result = run_dse(&problem, single.optimizer.as_ref(), &config);
    println!(
        "{} finished: {} evaluations, best {} = {:.3}",
        result.optimizer, result.evaluations, objective, result.best_score
    );
    println!("task placement:");
    for t in problem.cg().tasks() {
        let tile = result.best_mapping.tile_of_task(t.0);
        let c = problem.topology().coord(tile);
        println!(
            "  {:<16} -> tile {:<3} {}",
            problem.cg().task_name(t),
            tile.0,
            c
        );
    }
    println!();
    print!("{}", analyze(&problem, &result.best_mapping));
    println!();
    print!("{}", result.stats.route_mix_table());
    if let Some(path) = flag(args, "--trace-out") {
        write_trace(&path, "optimize", &result.trace)?;
    }
    Ok(())
}
