//! The traced run's per-layer ledger.
//!
//! Every number here is taken from outside the engine: spans the benchmark
//! records around calls into each layer's public functions, the campaign's
//! own `--metrics` JSON (counters and latency digests), and the result it
//! returns. The campaign's in-kernel tracing stays off.

use crate::stats::{median, Ledger};
use crate::workload::{Answer, Built};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use xlmc::estimator::{gate_path_bench, CampaignKernel};
use xlmc::fastforward::reference_verdict;
use xlmc::json::JsonValue;
use xlmc::multilevel::{coupled_run, replay_run_level0, SetToSeuMap};
use xlmc::rng::SplitMix64;
use xlmc::trace::{TraceEvent, TraceSink};
use xlmc::{correlation::CorrelationData, lifetime, space::SampleSpace};
use xlmc::{Precharacterization, SystemModel};
use xlmc_soc::{golden::GoldenRun, workloads};

/// Share of its total the campaign ledger may leave unexplained and still
/// close: its parts are the engine's own digests of the same call.
pub const CAMPAIGN_TOLERANCE: f64 = 0.10;
/// The same for the pre-characterization ledger. Its parts are separate
/// calls after the answer, and one call's time varies by about ±35% from
/// answer to answer, so the medians of a run's 10–35 traced answers can
/// differ by up to about 15% at the same code.
pub const PRECHAR_TOLERANCE: f64 = 0.20;

/// Proposal draws timed per traced answer.
const DRAWS: u64 = 20_000;
/// Runs in the strike-only gate-path probe, and its timed passes.
const GATE_PATH_RUNS: usize = 2_048;
const GATE_PATH_PASSES: usize = 3;
/// `(te, bits)` pairs of the campaign's own runs concluded by the
/// reference verdict, and how many runs may be scanned to find them.
const VERDICT_PAIRS: usize = 32;
const VERDICT_SCAN: u64 = 20_000;
/// Runs re-derived at each MLMC level for the per-run cost ratio.
const LEVEL_RUNS: u64 = 128;

/// Every per-layer metric with its unit and direction, in print order.
/// `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("model.build_s", "s", "lower"),
    ("model.golden_s", "s", "lower"),
    ("prechar.synthetic_golden_s", "s", "lower"),
    ("prechar.space_s", "s", "lower"),
    ("prechar.correlation_s", "s", "lower"),
    ("prechar.lifetime_s", "s", "lower"),
    ("prechar.classify_s", "s", "lower"),
    ("prechar.sample_space_cells", "count", "lower"),
    ("sampling.proposal_s", "s", "lower"),
    ("sampling.draw_ns", "ns", "lower"),
    ("sampling.s2", "1", "lower"),
    ("sampling.ess_frac", "frac", "higher"),
    ("gatesim.strike_ns_per_run", "ns", "lower"),
    ("gatesim.sweep_s", "s", "lower"),
    ("gatesim.pulses_per_run", "count", "lower"),
    ("gatesim.gates_visited_per_run", "count", "lower"),
    ("gatesim.lane_occupancy", "frac", "higher"),
    ("conclude.rtl_resumes", "count", "lower"),
    ("conclude.restore_s", "s", "lower"),
    ("conclude.snapshot_hit_frac", "frac", "higher"),
    ("conclude.memo_hit_frac", "frac", "higher"),
    ("conclude.analytic_frac", "frac", "higher"),
    ("conclude.verdict_us", "us", "lower"),
    ("estimator.chunk_wall_s", "s", "lower"),
    ("estimator.other_s", "s", "lower"),
    ("estimator.merge_wait_s", "s", "lower"),
    ("estimator.reorder_peak", "count", "lower"),
    ("mlmc.seu_map_s", "s", "lower"),
    ("mlmc.n0", "count", "higher"),
    ("mlmc.n1", "count", "lower"),
    ("mlmc.share1", "frac", "lower"),
    ("mlmc.optimal_share1", "frac", "lower"),
    ("mlmc.level0_us", "us", "lower"),
    ("mlmc.cost_ratio", "ratio", "higher"),
    ("ledger.prechar_total_s", "s", "lower"),
    ("ledger.prechar_remainder_s", "s", "lower"),
    ("ledger.prechar_remainder_frac", "frac", "lower"),
    ("ledger.campaign_total_s", "s", "lower"),
    ("ledger.campaign_remainder_s", "s", "lower"),
    ("ledger.campaign_remainder_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("failed_frac", "frac", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.threads", "count", "higher"),
];

/// Seconds spent in spans `(cat, name)` tagged with answer `k`.
fn span_s(events: &[TraceEvent], cat: &str, name: &str, k: usize) -> f64 {
    events
        .iter()
        .filter(|e| e.cat == cat && e.name == name && e.args.contains(&("answer", k as f64)))
        .map(|e| e.dur_us)
        .sum::<f64>()
        / 1e6
}

/// A number at `path` in the campaign's metrics JSON.
fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metrics JSON lacks {}", path.join(".")))
}

fn latency_sum(doc: &JsonValue, digest: &str) -> f64 {
    num(doc, &["timing", "latency", digest, "sum_s"])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the probes return besides their spans.
pub struct Probes {
    /// The strike kernel's best-pass cost per run, in ns.
    strike_ns: f64,
    /// How many `(te, bits)` pairs the reference verdict concluded.
    verdict_pairs: usize,
}

/// Run the after-the-clock probes of traced answer `k` under spans on
/// `sink`: the pre-characterization steps one by one, proposal draws, the
/// strike-only gate path, reference verdicts and both MLMC levels.
pub fn probe(built: &Built, answer: &Answer, sink: &TraceSink, k: usize) -> Probes {
    let tag = [("answer", k as f64)];
    let span = |cat, name| sink.span_args(0, cat, name, &tag);
    let (cfg, runner) = (&built.cfg, built.runner());
    let strategy = built.strategy.as_ref();
    let seed = answer.seed;

    // The steps `Precharacterization::run` performs, called one at a time
    // with the same arguments it passes; `run_with_golden` repeats the
    // three steps plus the classification that has no public entry point.
    // Each sequence runs on a fresh model (built off the clock), so lazily
    // cached netlist views are paid inside the steps as in the answer.
    let fresh = || SystemModel::with_defaults().expect("the stock model builds");
    let model = &fresh();
    let synthetic = {
        let _s = span("prechar", "synthetic_golden");
        let synth = workloads::synthetic_precharacterization();
        GoldenRun::record(&synth.program, 20_000, 64)
    };
    let space = {
        let _s = span("prechar", "space");
        SampleSpace::build(model, cfg.t_max, cfg.max_radius())
    };
    // Results stay alive until the probes end, so no span pays for a drop
    // that `Precharacterization::run` does not pay either.
    let correlation = {
        let _s = span("prechar", "correlation");
        CorrelationData::compute(model, &synthetic, &space)
    };
    let registers = {
        let _s = span("prechar", "lifetime");
        let cycles = lifetime::default_sample_cycles(&synthetic, 5);
        lifetime::RegisterCharacterization::measure(&synthetic, &cycles)
    };
    let model = &fresh();
    let whole = {
        let _s = span("prechar", "run_with_golden");
        Precharacterization::run_with_golden(model, &synthetic, cfg.t_max, cfg.max_radius())
    };
    black_box((&correlation, &registers, &whole));

    {
        let _s = span("sampling", "draw");
        for i in 0..DRAWS {
            black_box(strategy.draw(&mut SplitMix64::for_run(seed, i)));
        }
    }

    let gate = {
        let _s = span("gatesim", "gate_path_bench");
        gate_path_bench(
            &runner,
            strategy,
            GATE_PATH_RUNS,
            seed,
            CampaignKernel::Compiled,
            GATE_PATH_PASSES,
        )
    };

    // The campaign's own injections: same seed, same run streams.
    let mut pairs = Vec::with_capacity(VERDICT_PAIRS);
    for i in 0..VERDICT_SCAN {
        let sample = strategy.draw(&mut SplitMix64::for_run(seed, i));
        let (Some(te), Some(bits)) = (
            sample.injection_cycle(built.eval.target_cycle),
            runner.injected_bits(&sample),
        ) else {
            continue;
        };
        if !bits.is_empty() {
            pairs.push((te, bits));
            if pairs.len() == VERDICT_PAIRS {
                break;
            }
        }
    }
    {
        let _s = span("conclude", "reference_verdict");
        for (te, bits) in &pairs {
            black_box(reference_verdict(&built.eval, *te, bits));
        }
    }

    let map = {
        let _s = span("mlmc", "seu_map");
        SetToSeuMap::build(&built.model, &built.eval, &built.prechar)
    };
    {
        let _s = span("mlmc", "level0");
        for i in 0..LEVEL_RUNS {
            black_box(replay_run_level0(&runner, &map, strategy, seed, i));
        }
    }
    {
        let _s = span("mlmc", "coupled");
        for i in 0..LEVEL_RUNS {
            black_box(coupled_run(&runner, &map, strategy, seed, i));
        }
    }
    Probes {
        strike_ns: ratio(gate.best_pass_s, gate.lanes as f64) * 1e9,
        verdict_pairs: pairs.len(),
    }
}

/// The per-layer values of traced answer `k`, with its pre-characterization
/// and campaign ledgers.
pub fn measure(
    built: &Built,
    answer: &Answer,
    events: &[TraceEvent],
    k: usize,
    probes: &Probes,
    metrics_path: &Path,
) -> (Vec<(&'static str, f64)>, Ledger, Ledger) {
    let text = std::fs::read_to_string(metrics_path)
        .unwrap_or_else(|e| panic!("campaign metrics {}: {e}", metrics_path.display()));
    let doc = JsonValue::parse(&text).expect("the campaign writes valid metrics JSON");
    let r = &answer.result;
    let s = |cat, name| span_s(events, cat, name, k);
    let n = r.n as f64;

    let step = |name| s("prechar", name);
    let (space, corr, life) = (step("space"), step("correlation"), step("lifetime"));
    let classify = step("run_with_golden") - space - corr - life;
    let prechar = Ledger {
        total: s("prechar", "run"),
        parts: vec![
            ("synthetic_golden", step("synthetic_golden")),
            ("space", space),
            ("correlation", corr),
            ("lifetime", life),
            ("classify", classify),
        ],
    };

    let sweep = latency_sum(&doc, "kernel_sweep");
    let restore = latency_sum(&doc, "snapshot_restore");
    let chunk_wall = latency_sum(&doc, "chunk_wall");
    let merge_wait = latency_sum(&doc, "merge_wait");
    let other = chunk_wall - sweep - restore;
    // Parts are thread-seconds shared over the threads that take part:
    // one thread runs and merges chunks itself; with more workers the
    // calling thread only merges (and waits), so it counts as one more.
    let workers = num(&doc, &["scheduler", "workers"]);
    let threads = if workers > 1.0 { workers + 1.0 } else { 1.0 };
    let seu_map_s = s("mlmc", "seu_map");
    let campaign = Ledger {
        total: answer.campaign_s,
        parts: vec![
            ("seu_map", if r.mlmc.is_some() { seu_map_s } else { 0.0 }),
            ("sweep", sweep / threads),
            ("restore", restore / threads),
            ("other", other / threads),
            ("merge_wait", merge_wait / threads),
        ],
    };

    let ff = |key| num(&doc, &["fast_forward", key]);
    let (snap_hits, snap_misses) = (ff("checkpoint_cache_hits"), ff("checkpoint_cache_misses"));
    let c = &r.counters;
    let level0 = s("mlmc", "level0");
    let (n0, n1, share1, optimal_share1) = match &r.mlmc {
        Some(m) => (m.n0 as f64, m.n1 as f64, m.share1(), m.optimal_share1()),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let values = vec![
        ("model.build_s", s("model", "build")),
        ("model.golden_s", s("model", "golden")),
        ("prechar.synthetic_golden_s", prechar.parts[0].1),
        ("prechar.space_s", space),
        ("prechar.correlation_s", corr),
        ("prechar.lifetime_s", life),
        ("prechar.classify_s", classify),
        (
            "prechar.sample_space_cells",
            built.prechar.space.all_cells().len() as f64,
        ),
        ("sampling.proposal_s", s("sampling", "proposal")),
        (
            "sampling.draw_ns",
            s("sampling", "draw") / DRAWS as f64 * 1e9,
        ),
        ("sampling.s2", r.sample_variance),
        ("sampling.ess_frac", ratio(r.ess, n)),
        ("gatesim.strike_ns_per_run", probes.strike_ns),
        ("gatesim.sweep_s", sweep),
        (
            "gatesim.pulses_per_run",
            ratio(c.pulses_propagated as f64, n),
        ),
        (
            "gatesim.gates_visited_per_run",
            ratio(r.kernel_counters.gates_visited as f64, n),
        ),
        (
            "gatesim.lane_occupancy",
            r.kernel_counters.mean_lane_occupancy() / CampaignKernel::Compiled.lane_width() as f64,
        ),
        ("conclude.rtl_resumes", ff("rtl_resumes")),
        ("conclude.restore_s", restore),
        (
            "conclude.snapshot_hit_frac",
            ratio(snap_hits, snap_hits + snap_misses),
        ),
        ("conclude.memo_hit_frac", c.conclusion_hit_rate()),
        (
            "conclude.analytic_frac",
            ratio(
                c.conclusions_analytic as f64,
                (c.conclusions_analytic + c.conclusions_rtl) as f64,
            ),
        ),
        (
            "conclude.verdict_us",
            ratio(
                s("conclude", "reference_verdict"),
                probes.verdict_pairs as f64,
            ) * 1e6,
        ),
        ("estimator.chunk_wall_s", chunk_wall),
        ("estimator.other_s", other),
        ("estimator.merge_wait_s", merge_wait),
        (
            "estimator.reorder_peak",
            num(&doc, &["scheduler", "reorder_peak"]),
        ),
        ("mlmc.seu_map_s", seu_map_s),
        ("mlmc.n0", n0),
        ("mlmc.n1", n1),
        ("mlmc.share1", share1),
        ("mlmc.optimal_share1", optimal_share1),
        ("mlmc.level0_us", level0 / LEVEL_RUNS as f64 * 1e6),
        ("mlmc.cost_ratio", ratio(s("mlmc", "coupled"), level0)),
    ];
    (values, prechar, campaign)
}

/// Medians over the traced answers, keyed by metric name.
pub fn medians(samples: &[Vec<(&'static str, f64)>]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for sample in samples {
        for &(name, v) in sample {
            by_name.entry(name).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .map(|(name, vs)| (name, median(&vs)))
        .collect()
}
