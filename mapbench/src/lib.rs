//! `mapbench`: the mapping tool's end-to-end and per-layer benchmark.
//!
//! One client sends one mapping request at a time (a closed loop) and
//! the next request starts when the previous one returns. A workload's
//! request list is a pure function of its seed ([`plan`]); a run sets
//! up several times, then sends whole passes of the list until the
//! measuring time is used ([`exec`]), checks every output, and reports
//! end-to-end metrics. A traced run adds spans and the per-layer unit
//! costs and time split ([`layers`], [`trace`]). See `README.md`.

#![warn(missing_docs)]

pub mod exec;
pub mod layers;
pub mod plan;
pub mod trace;

use exec::{Outcome, WarmKind, OPT_GROUPS};
use layers::{Split, UnitCosts};
use plan::{Effort, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Cheap set-ups repeat until they have taken this long in total (or
/// [`MAX_SETUP_ROUNDS`] ran), so their median rests on enough samples.
const SETUP_SECONDS: f64 = 1.0;
/// Most set-ups per run.
const MAX_SETUP_ROUNDS: usize = 31;
/// Fewest passes of an end-to-end run: each request's time is the
/// fastest of its passes, the least-disturbed observation of identical
/// work.
const MIN_PASSES: usize = 3;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Full or smoke sizing.
    pub effort: Effort,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Requests sent.
    pub attempted: usize,
    /// Requests with at least one failed output check.
    pub failed: usize,
    /// The metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Spans of a traced run, as JSON lines.
    pub spans: String,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated percentile `q` (0–100) of `values`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest over every request's score bits and evaluations: two
/// runs of one seed agree on it exactly unless a search result moved.
#[must_use]
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for o in outcomes {
        for word in [o.index as u64, o.score.to_bits(), o.evaluations as u64] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn seconds_list(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|s| format!("{s:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Runs one workload under `opts` and returns its report.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let mut tracer = Tracer::new(opts.trace);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Set-up, several times; the last bed is the one measured.
    let mut setups: Vec<f64> = Vec::new();
    let mut bed = None;
    loop {
        drop(bed.take());
        let t = Instant::now();
        bed = Some(exec::setup(
            opts.workload,
            opts.seed,
            opts.effort,
            &mut tracer,
        ));
        setups.push(t.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_ROUNDS && setups.iter().sum::<f64>() >= SETUP_SECONDS;
        if opts.effort == Effort::Smoke || enough || setups.len() >= MAX_SETUP_ROUNDS {
            break;
        }
    }
    let mut bed = bed.expect("at least one set-up round");

    // Whole passes until the next one would overrun the measuring
    // time. A traced run alternates untraced and traced passes, so the
    // tracing overhead is measured on identical work.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let min_passes = match (opts.effort, opts.trace) {
        (Effort::Smoke, _) | (Effort::Full, true) => 2,
        (Effort::Full, false) => MIN_PASSES,
    };
    let start = Instant::now();
    let mut passes: Vec<(bool, f64, Vec<Outcome>)> = Vec::new();
    loop {
        let traced = opts.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        if !passes.is_empty() {
            bed.reset_for_pass();
        }
        let t = Instant::now();
        let outcomes = exec::run_pass(&mut bed, &mut tracer);
        let took = t.elapsed();
        passes.push((traced, took.as_secs_f64(), outcomes));
        if passes.len() >= min_passes && start.elapsed() + took > budget {
            break;
        }
    }
    tracer.set_enabled(opts.trace);

    let all: Vec<&Outcome> = passes.iter().flat_map(|p| &p.2).collect();
    let first = &passes[0].2;
    let attempted = all.len();
    let failed = all.iter().filter(|o| !o.failures.is_empty()).count();

    let mut lines = vec![
        format!(
            "workload {} seed {} host_cores {host_cores} passes {} requests {attempted} failed {failed}",
            opts.workload.name(),
            opts.seed,
            passes.len()
        ),
        format!("digest {:016x}", digest(first)),
        format!("setup seconds {}", seconds_list(setups.iter().copied())),
        format!("pass seconds {}", seconds_list(passes.iter().map(|p| p.1))),
    ];
    for o in all.iter().filter(|o| !o.failures.is_empty()).take(10) {
        lines.push(format!(
            "FAILED request {} ({}): {}",
            o.index,
            o.group,
            o.failures.join("; ")
        ));
    }

    let metrics = if opts.trace {
        per_layer(opts, &bed, &passes, &mut tracer, &mut lines, host_cores)
    } else {
        // Every pass sends the identical requests; each request's time
        // is its fastest pass.
        let ms: Vec<f64> = (0..first.len())
            .map(|i| passes.iter().map(|p| p.2[i].ns).min().unwrap_or(0) as f64 / 1e6)
            .collect();
        let evaluations: usize = first.iter().map(|o| o.evaluations).sum();
        let seconds: f64 = ms.iter().sum::<f64>() / 1e3;
        let quality = first.iter().map(|o| o.score).sum::<f64>() / first.len().max(1) as f64;
        lines.push(format!(
            "samples {} (fastest of {} passes each)",
            ms.len(),
            passes.len()
        ));
        for g in OPT_GROUPS {
            let v: Vec<f64> = first
                .iter()
                .filter(|o| o.group == g)
                .map(|o| o.score)
                .collect();
            if !v.is_empty() {
                lines.push(format!(
                    "quality {g} mean {:.3} min {:.3} max {:.3}",
                    v.iter().sum::<f64>() / v.len() as f64,
                    percentile(&v, 0.0),
                    percentile(&v, 100.0)
                ));
            }
        }
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("request_ms_p50", percentile(&ms, 50.0), "ms"),
            metric("request_ms_p90", percentile(&ms, 90.0), "ms"),
            metric("evals_per_s", evaluations as f64 / seconds.max(1e-9), "1/s"),
            metric("quality_db_mean", quality, "dB"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Report {
        attempted,
        failed,
        metrics,
        lines,
        spans: tracer.to_jsonl(),
    }
}

/// The traced run's per-layer metrics: unit-cost cells on every
/// problem of the workload, counters of the first pass, and the time
/// split of the traced passes.
fn per_layer(
    opts: &Options,
    bed: &exec::Bed,
    passes: &[(bool, f64, Vec<Outcome>)],
    tracer: &mut Tracer,
    lines: &mut Vec<String>,
    host_cores: usize,
) -> Vec<Metric> {
    let budget = bed.plan.requests.first().map_or(1, |r| r.budget);
    let costs: Vec<UnitCosts> = bed
        .problems
        .iter()
        .enumerate()
        .map(|(i, p)| layers::measure_problem(p, i, opts.seed, budget, tracer))
        .collect();
    let dispatch_ns = layers::pool_dispatch_ns(tracer);
    let unit = |f: fn(&UnitCosts) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());

    let first = &passes[0].2;
    let traced: Vec<&Outcome> = passes.iter().filter(|p| p.0).flat_map(|p| &p.2).collect();
    // Counters of one pass; an exact hit's stored counters describe a
    // run it did not repeat.
    let sum = |f: fn(&Outcome) -> usize| {
        first
            .iter()
            .filter(|o| o.warm != Some(WarmKind::Hit))
            .map(f)
            .sum::<usize>() as f64
    };

    let hit_ns: Vec<f64> = traced
        .iter()
        .filter(|o| o.warm == Some(WarmKind::Hit))
        .map(|o| (o.ns - o.edit_ns) as f64)
        .collect();
    let lookup_ns = median(&hit_ns);

    // Time split, overall and per optimizer group.
    let mut total = Split::default();
    let mut by_group = vec![Split::default(); OPT_GROUPS.len()];
    for o in &traced {
        let s = layers::attribute(o, &costs[o.problem], lookup_ns);
        total.add(&s);
        if let Some(g) = OPT_GROUPS.iter().position(|g| *g == o.group) {
            by_group[g].add(&s);
        }
    }
    let shares = total.shares();
    let share = |name: &str| shares.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    for (g, split) in OPT_GROUPS.iter().zip(&by_group) {
        if split.wall > 0.0 {
            let mut line = format!("split {g}:");
            for (layer, s) in split.shares() {
                let _ = write!(line, " {layer}={s:.3}");
            }
            lines.push(line);
        }
    }

    // Tracing overhead: traced over untraced pass time, same work.
    let mean_pass = |traced: bool| {
        let t: Vec<f64> = passes
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect();
        t.iter().sum::<f64>() / t.len().max(1) as f64
    };
    let overhead = mean_pass(true) / mean_pass(false) - 1.0;
    lines.push(format!("tracing overhead {:.4}", overhead));

    let builds: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "setup.build_problem")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    let edits: Vec<f64> = traced
        .iter()
        .filter(|o| o.warm.is_some())
        .map(|o| o.edit_ns as f64 / 1e3)
        .collect();
    let rejected = sum(|o| o.stats.bound_rejected);
    let verified = sum(|o| o.stats.bound_verified);
    let peeks = sum(|o| o.stats.peeks_total());
    let warm_count = |k: WarmKind| first.iter().filter(|o| o.warm == Some(k)).count() as f64;
    let warm_total = first.iter().filter(|o| o.warm.is_some()).count() as f64;

    let portfolio_runs: Vec<&&Outcome> = traced
        .iter()
        .filter(|o| o.group == "portfolio" && o.warm != Some(WarmKind::Hit))
        .collect();
    let round_ms: Vec<f64> = portfolio_runs
        .iter()
        .map(|o| o.ns as f64 / 1e6 / o.stats.rounds.max(1) as f64)
        .collect();
    let used_ratio: Vec<f64> = portfolio_runs
        .iter()
        .map(|o| o.evaluations as f64 / o.budget.max(1) as f64)
        .collect();

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = vec![
        metric(
            "problem.build_ms",
            ratio(builds.iter().sum(), builds.len() as f64),
            "ms",
        ),
        metric(
            "problem.mutate_us",
            ratio(edits.iter().sum(), edits.len() as f64),
            "us",
        ),
        metric("problem.share", share("problem"), "ratio"),
        metric("evaluator.full_ns", unit(|c| c.full_ns), "ns"),
        metric(
            "evaluator.full_calls",
            sum(|o| o.stats.full_evaluations),
            "count",
        ),
        metric("evaluator.share", share("evaluator"), "ratio"),
        metric("delta.exact_ns", unit(|c| c.exact_ns), "ns"),
        metric("delta.exact_calls", sum(|o| o.stats.delta_exact), "count"),
        metric("delta.bounded_ns", unit(|c| c.bounded_ns), "ns"),
        metric("delta.bound_rejected", rejected, "count"),
        metric("delta.bound_verified", verified, "count"),
        metric(
            "delta.bound_reject_ratio",
            ratio(rejected, rejected + verified),
            "ratio",
        ),
        metric("delta.loss_ns", unit(|c| c.loss_ns), "ns"),
        metric("delta.loss_calls", sum(|o| o.stats.loss_fast_path), "count"),
        metric("delta.init_state_us", unit(|c| c.init_state_ns) / 1e3, "us"),
        metric("delta.share", share("delta"), "ratio"),
        metric("engine.peek_ns", unit(|c| c.peek_ns), "ns"),
        metric(
            "engine.route_full_share",
            ratio(sum(|o| o.stats.full_peeks), peeks),
            "ratio",
        ),
        metric("engine.other_share", share("other"), "ratio"),
        metric("pool.dispatch_us", dispatch_ns / 1e3, "us"),
        metric("pool.batch_speedup", unit(|c| c.batch_speedup), "ratio"),
        metric("neighborhood.pass_ns", unit(|c| c.pass_ns), "ns"),
        metric("neighborhood.share", share("neighborhood"), "ratio"),
    ];
    for g in OPT_GROUPS {
        let ms: Vec<f64> = traced
            .iter()
            .filter(|o| o.group == g)
            .map(|o| o.ns as f64 / 1e6)
            .collect();
        m.push(metric(format!("opt.{g}.request_ms"), median(&ms), "ms"));
    }
    m.extend([
        metric("portfolio.round_ms", median(&round_ms), "ms"),
        metric(
            "portfolio.budget_used_ratio",
            ratio(used_ratio.iter().sum(), used_ratio.len() as f64),
            "ratio",
        ),
        metric("exact.nodes", sum(|o| o.stats.exact_nodes), "count"),
        metric("exact.node_ns", unit(|c| c.node_ns), "ns"),
        metric(
            "exact.proved",
            first
                .iter()
                .filter(|o| matches!(o.certificate, Some((true, _))))
                .count() as f64,
            "count",
        ),
        metric("exact.root_bound_us", unit(|c| c.root_bound_ns) / 1e3, "us"),
        metric("exact.share", share("exact"), "ratio"),
        metric("warm.lookup_us", lookup_ns / 1e3, "us"),
        metric("warm.exact_hits", warm_count(WarmKind::Hit), "count"),
        metric("warm.near_hits", warm_count(WarmKind::Near), "count"),
        metric("warm.cold", warm_count(WarmKind::Cold), "count"),
        metric(
            "warm.hit_ratio",
            ratio(warm_count(WarmKind::Hit), warm_total),
            "ratio",
        ),
        metric("warm.share", share("warm"), "ratio"),
        metric("trace.overhead_share", overhead, "ratio"),
        metric("host.cores", host_cores as f64, "count"),
        metric("run.requests", first.len() as f64, "count"),
    ]);
    m
}
