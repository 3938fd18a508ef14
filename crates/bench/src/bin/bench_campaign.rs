//! CI smoke gate for the campaign engine: cross-configuration result
//! equality plus the kernel throughput gates. Time to an answer — the
//! performance record — is measured by `perfbench/`, not here.
//!
//! Every row runs the same [`RUNS`] importance-sampled attacks on the write
//! benchmark. `scalar_threads_1` is the one-run-at-a-time kernel; the
//! `engine_compiled_threads_N` rows are the default 256-wide
//! compiled-program kernel at 1, 2 and 4 worker threads; the
//! `engine_mlmc_threads_{1,4}` rows run the two-level MLMC estimator
//! (`--estimator mlmc`); `engine_telemetry_threads_1` is the compiled row
//! with events + prom forced on. The single-estimator rows are asserted
//! bit-identical, and so are the MLMC rows across threads {1,4} and both
//! kernels.
//!
//! Every row reports the fastest of three fresh repeats (scheduler
//! interference on a shared host is one-sided, so max-of-N estimates
//! uncontended throughput; the result is asserted bit-identical across
//! repeats). `--bench-json PATH` writes the rows as JSON
//! (`schemas/bench.schema.json`); it is the binary's only flag besides the
//! campaign engine's.
//!
//! A strike-only **gate-level-path microbenchmark** accompanies the
//! end-to-end rows (the `gate_path` object in the JSON): the same
//! stratified draw pushed through each kernel's strike phase alone, which
//! is where the kernels actually differ — the draw/conclude/fold phases
//! are kernel-invariant scalar work that dilutes end-to-end ratios.
//!
//! The binary also runs both estimators to the same `--target-eps` goal
//! and **fails** (exit 1) if MLMC spends more than 0.5x the single
//! estimator's gate-accurate runs, or if its estimate leaves the 3-sigma
//! band around the gate-accurate reference (both gates are deterministic
//! run-count comparisons, never wall-clock).
//!
//! It **fails** (exit 1) as well if the compiled kernel's gate path drops
//! below [`GATE_PATH_MIN_VS_SCALAR`] times the scalar kernel's (or its
//! single-thread end-to-end rate below [`END_TO_END_MIN_VS_SCALAR`] times
//! scalar), if events + prom drop the compiled rate below
//! [`TELEMETRY_MIN_VS_COMPILED`] times the bare row, or — on a host with
//! 4+ CPUs — if two compiled workers fall below 0.7x one worker (the
//! threads-scaling regression gate). With `--trace` the throughput gates
//! are reported but not enforced: span recording adds per-batch overhead
//! only the packed kernel pays, so the comparison is unfair.

use std::fmt::Write as _;
use std::time::Instant;
use xlmc::estimator::{
    gate_path_bench, replay_run, run_campaign_observed, run_campaign_with, CampaignKernel,
    CampaignOptions, EstimatorKind, GatePathBench, StopReason,
};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{baseline_distribution, ImportanceSampling, SamplingStrategy};
use xlmc::telemetry::StderrProgress;
use xlmc::trace::TraceSink;
use xlmc_bench::{tagged_options, ExperimentContext};

const RUNS: usize = 20_000;
const SEED: u64 = 0xBE7C;
/// Every row is measured `REPEATS` times and the fastest repeat is kept.
/// On a shared host the scheduler noise at these durations (tens of
/// milliseconds per row) exceeds the kernel-vs-kernel deltas the gates
/// guard, and interference is one-sided — it only ever slows a run down —
/// so max-of-N is the honest throughput estimator.
const REPEATS: usize = 3;
/// Gate: compiled strike-only lanes/s over scalar. This gate and the next
/// are the Tukey lower fence (Q1 − 1.5·IQR, rounded down to 0.1) of 30
/// smoke runs on a 2-vCPU Xeon host: here Q1 3.50, median 3.76, Q3 4.09,
/// minimum 2.56, fence 2.62.
const GATE_PATH_MIN_VS_SCALAR: f64 = 2.6;
/// Gate: compiled single-thread end-to-end runs/s over scalar. The same
/// 30 runs gave Q1 1.30, median 1.41, Q3 1.54, minimum 0.89, fence 0.94;
/// end to end the kernel-invariant draw/conclude/fold work dilutes the
/// strike speedup and each row lasts only 15–45 ms.
const END_TO_END_MIN_VS_SCALAR: f64 = 0.9;
/// Gate: compiled runs/s with events + prom on over the bare compiled
/// row. 80 interleaved smoke runs on a 2-vCPU Xeon host gave Q1 0.79,
/// median 0.97, Q3 1.09, minimum 0.63, fence 0.34; the per-chunk event
/// flushes and prom rewrites are fixed costs a 20 ms row cannot amortize.
const TELEMETRY_MIN_VS_COMPILED: f64 = 0.3;

struct Row {
    label: String,
    runs_per_sec: f64,
    elapsed_s: f64,
    ssf: f64,
}

/// One timed repeat of one configuration, with its output paths tagged by
/// `label`.
fn engine(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    label: String,
    opts: &CampaignOptions,
) -> Row {
    // A fresh campaign per repeat: resuming the previous repeat's
    // completed checkpoint would time (and report metrics for) no work.
    if let Some(p) = &opts.checkpoint_path {
        if let Err(e) = std::fs::remove_file(p) {
            assert!(
                e.kind() == std::io::ErrorKind::NotFound,
                "remove {}: {e}",
                p.display()
            );
        }
    }
    let mut progress = StderrProgress::new(&label);
    let start = Instant::now();
    let r = run_campaign_observed(runner, strategy, RUNS, SEED, opts, &mut progress);
    let elapsed = start.elapsed().as_secs_f64();
    // Provenance check: re-derive the campaign's first successful run
    // solo from (seed, index) and require the same verdict.
    if let Some(idx) = r.first_success {
        let rec = replay_run(runner, strategy, SEED, idx, &TraceSink::disabled());
        assert!(
            rec.success,
            "{label}: replay of first successful run {idx} did not succeed"
        );
        eprintln!("[{label}] replayed first success (run {idx}): verdict matches");
    }
    Row {
        label,
        runs_per_sec: RUNS as f64 / elapsed,
        elapsed_s: elapsed,
        ssf: r.ssf,
    }
}

/// Best-of-[`REPEATS`] wrapper around [`engine`]: keeps the fastest
/// repeat and checks the result stayed bit-identical across repeats.
fn engine_best(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    threads: usize,
    kernel: CampaignKernel,
    label: String,
    base: &CampaignOptions,
) -> Row {
    let opts = CampaignOptions {
        threads,
        kernel,
        ..tagged_options(base, &label)
    };
    let mut best: Option<Row> = None;
    for _ in 0..REPEATS {
        let row = engine(runner, strategy, label.clone(), &opts);
        best = Some(match best {
            None => row,
            Some(b) => {
                assert!(
                    b.ssf == row.ssf,
                    "{label}: ssf changed across repeats: {} != {}",
                    b.ssf,
                    row.ssf
                );
                if row.runs_per_sec > b.runs_per_sec {
                    row
                } else {
                    b
                }
            }
        });
    }
    best.expect("REPEATS >= 1")
}

/// Take `--bench-json PATH` (or `--bench-json=PATH`) out of `args`, so
/// only engine flags reach [`CampaignOptions::parse_args`].
fn take_bench_json(args: &mut Vec<String>) -> Option<String> {
    let i = args
        .iter()
        .position(|a| a == "--bench-json" || a.starts_with("--bench-json="))?;
    let flag = args.remove(i);
    if let Some((_, path)) = flag.split_once('=') {
        return Some(path.to_owned());
    }
    if i == args.len() {
        eprintln!("error: --bench-json requires a value");
        std::process::exit(2);
    }
    Some(args.remove(i))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_json = take_bench_json(&mut args);
    let base_opts = CampaignOptions::from_arg_list(args);
    eprintln!("[bench_campaign] building model and golden runs ...");
    let ctx = ExperimentContext::build_observed(&base_opts);
    let runner = FaultRunner {
        model: &ctx.model,
        eval: &ctx.write_eval,
        prechar: &ctx.prechar,
        hardening: None,
        multi_fault: None,
    };
    let f = baseline_distribution(&ctx.model, &ctx.cfg);
    let strategy = ImportanceSampling::new(
        f,
        &ctx.model,
        &ctx.prechar,
        ctx.cfg.alpha,
        ctx.cfg.beta,
        ctx.cfg.radius_options.clone(),
    );

    eprintln!("[bench_campaign] {RUNS} importance-sampled attacks per configuration ...");
    let mut rows = vec![engine_best(
        &runner,
        &strategy,
        1,
        CampaignKernel::Scalar,
        "scalar_threads_1".into(),
        &base_opts,
    )];
    for threads in [1, 2, 4] {
        rows.push(engine_best(
            &runner,
            &strategy,
            threads,
            CampaignKernel::Compiled,
            format!("engine_compiled_threads_{threads}"),
            &base_opts,
        ));
    }
    // The two-level MLMC estimator: the cheap level maps each SET to a
    // multi-bit SEU and skips the netlist, the coupled correction level
    // re-evaluates the same (seed, run-index) faults gate-accurately.
    let mlmc_base = CampaignOptions {
        estimator: EstimatorKind::Mlmc,
        ..base_opts.clone()
    };
    for threads in [1, 4] {
        rows.push(engine_best(
            &runner,
            &strategy,
            threads,
            CampaignKernel::Compiled,
            format!("engine_mlmc_threads_{threads}"),
            &mlmc_base,
        ));
    }

    // The telemetry ablation: compiled kernel with the event stream and
    // the Prometheus exposition forced on. Telemetry is specified as a
    // pure observer, so the overhead gate below holds its throughput
    // against the bare compiled row.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let telemetry_opts = CampaignOptions {
        events_path: Some(
            base_opts
                .events_path
                .clone()
                .unwrap_or_else(|| tmp.join(format!("bench_campaign_{pid}.events.jsonl"))),
        ),
        prom_path: Some(
            base_opts
                .prom_path
                .clone()
                .unwrap_or_else(|| tmp.join(format!("bench_campaign_{pid}.prom"))),
        ),
        ..base_opts.clone()
    };
    rows.push(engine_best(
        &runner,
        &strategy,
        1,
        CampaignKernel::Compiled,
        "engine_telemetry_threads_1".into(),
        &telemetry_opts,
    ));

    // The gate-level path in isolation: strike-only passes over one
    // stratified draw, per kernel. This is the comparison the compiled
    // kernel exists for — end-to-end rows dilute it with the scalar
    // draw/conclude/fold work every kernel pays identically.
    eprintln!("[bench_campaign] gate-level-path microbenchmark ...");
    let gp = |kernel| gate_path_bench(&runner, &strategy, RUNS, SEED, kernel, REPEATS);
    let gp_scalar: GatePathBench = gp(CampaignKernel::Scalar);
    let gp_compiled = gp(CampaignKernel::Compiled);
    assert!(
        gp_scalar.pulses == gp_compiled.pulses && gp_scalar.faulty == gp_compiled.faulty,
        "gate-path checksums diverged: {}/{} pulses, {}/{} faulty-reg sums",
        gp_scalar.pulses,
        gp_compiled.pulses,
        gp_scalar.faulty,
        gp_compiled.faulty
    );
    let gp_ratio = gp_compiled.lanes_per_sec() / gp_scalar.lanes_per_sec();

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    if let Some(path) = &bench_json {
        let mut json = String::from("{\n  \"runs\": ");
        let _ = write!(
            json,
            "{RUNS},\n  \"seed\": {SEED},\n  \"host_cpus\": {host_cpus},\n  \"configs\": [\n"
        );
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"label\": \"{}\", \"runs_per_sec\": {:.2}, \"elapsed_s\": {:.4}, \
                 \"ssf\": {:.6}}}{}",
                r.label, r.runs_per_sec, r.elapsed_s, r.ssf, sep
            );
        }
        json.push_str("  ],\n");
        let _ = writeln!(
            json,
            "  \"gate_path\": {{\"runs\": {}, \"sweep_lanes\": [1, 256], \
             \"scalar_lanes_per_sec\": {:.2}, \"compiled_lanes_per_sec\": {:.2}, \
             \"compiled_vs_scalar\": {:.3}}}",
            gp_scalar.lanes,
            gp_scalar.lanes_per_sec(),
            gp_compiled.lanes_per_sec(),
            gp_ratio
        );
        json.push_str("}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[bench_campaign] wrote {path}");
    }

    println!("\n== campaign throughput ({RUNS} runs, importance sampling) ==");
    for r in &rows {
        println!(
            "  {:26} {:>9.1} runs/s  ({:.3}s)",
            r.label, r.runs_per_sec, r.elapsed_s
        );
    }
    println!(
        "\n== gate-level path ({} in-run lanes, strike only, best of {REPEATS}) ==",
        gp_scalar.lanes
    );
    for (label, b) in [("scalar", &gp_scalar), ("compiled_256", &gp_compiled)] {
        println!(
            "  {:14} {:>10.1} lanes/s  ({} sweeps, {:.2}x scalar)",
            label,
            b.lanes_per_sec(),
            b.sweeps,
            b.lanes_per_sec() / gp_scalar.lanes_per_sec()
        );
    }

    let row = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("{label} row"))
    };
    let scalar = row("scalar_threads_1");
    let compiled = row("engine_compiled_threads_1");
    let compiled_t2 = row("engine_compiled_threads_2");
    assert!(
        scalar.ssf == compiled.ssf && compiled.ssf == compiled_t2.ssf,
        "kernel results diverged: scalar ssf {} != compiled ssf {} / {}",
        scalar.ssf,
        compiled.ssf,
        compiled_t2.ssf
    );
    let telemetry = row("engine_telemetry_threads_1");
    assert!(
        telemetry.ssf == compiled.ssf,
        "telemetry changed the result: ssf {} with events+prom != {} without",
        telemetry.ssf,
        compiled.ssf
    );
    let mlmc_t1 = row("engine_mlmc_threads_1");
    let mlmc_t4 = row("engine_mlmc_threads_4");
    assert!(
        mlmc_t1.ssf == mlmc_t4.ssf,
        "mlmc result diverged across threads: {} != {}",
        mlmc_t1.ssf,
        mlmc_t4.ssf
    );
    // The MLMC executors are scalar at every level, so the estimate must
    // be bit-identical under the scalar kernel too (one untimed check).
    let mlmc_scalar = run_campaign_with(
        &runner,
        &strategy,
        RUNS,
        SEED,
        &CampaignOptions {
            kernel: CampaignKernel::Scalar,
            threads: 1,
            metrics_path: None,
            checkpoint_path: None,
            trace_path: None,
            ..mlmc_base.clone()
        },
    );
    assert!(
        mlmc_scalar.ssf == mlmc_t1.ssf,
        "mlmc result diverged under the scalar kernel: {} != {}",
        mlmc_scalar.ssf,
        mlmc_t1.ssf
    );

    // MLMC budget gate (deterministic — run counts, never wall-clock): at
    // the same --target-eps/--target-confidence goal the MLMC estimator
    // must spend at most half the gate-accurate runs the single estimator
    // pays, and its point estimate must sit inside the 3-sigma band around
    // the gate-accurate reference. Tight enough that the single estimator
    // stops well above the early-stop floor (otherwise both estimators
    // idle at the minimum and the budget comparison is vacuous).
    let eps = 0.005;
    let goal = CampaignOptions {
        target_eps: Some(eps),
        metrics_path: None,
        checkpoint_path: None,
        trace_path: None,
        ..base_opts.clone()
    };
    let single_goal = run_campaign_with(&runner, &strategy, RUNS, SEED, &goal);
    let mlmc_goal = run_campaign_with(
        &runner,
        &strategy,
        RUNS,
        SEED,
        &CampaignOptions {
            estimator: EstimatorKind::Mlmc,
            ..goal.clone()
        },
    );
    let m = mlmc_goal.mlmc.as_ref().expect("mlmc summary");
    let gate_runs_single = single_goal.n;
    let gate_runs_mlmc = m.n1 as usize;
    println!(
        "mlmc budget: {gate_runs_mlmc} gate-accurate runs (+{} RTL-only) vs \
         {gate_runs_single} for the single estimator at eps {eps}",
        m.n0
    );
    println!(
        "mlmc decomposition: s0^2 {:.3e} s1^2 {:.3e} (single s^2 {:.3e}), \
         share1 {:.3} (optimal {:.3}, plan {:?})",
        m.var0,
        m.var1_diff,
        single_goal.sample_variance,
        m.share1(),
        m.optimal_share1(),
        m.plan_ratio
    );
    assert_eq!(
        single_goal.stop,
        StopReason::TargetEps,
        "single estimator did not reach eps {eps} within {RUNS} runs"
    );
    assert_eq!(
        mlmc_goal.stop,
        StopReason::TargetEps,
        "mlmc estimator did not reach eps {eps} within {RUNS} runs"
    );
    if 2 * gate_runs_mlmc > gate_runs_single {
        eprintln!(
            "SMOKE FAIL: mlmc spent {gate_runs_mlmc} gate-accurate runs, above 0.5x the \
             single estimator's {gate_runs_single}"
        );
        std::process::exit(1);
    }
    let se = (single_goal.sample_variance / single_goal.n as f64 + m.estimator_variance())
        .sqrt()
        .max(1e-4);
    if (single_goal.ssf - mlmc_goal.ssf).abs() > 3.0 * se {
        eprintln!(
            "SMOKE FAIL: mlmc estimate {} outside the 3-sigma band of the gate-accurate \
             reference {} (sigma {se})",
            mlmc_goal.ssf, single_goal.ssf
        );
        std::process::exit(1);
    }
    // The throughput gates only mean something untraced: span recording
    // sits inside the compiled kernel's per-batch loop (the scalar kernel
    // records no inner spans), so a traced run systematically penalizes
    // exactly the kernel the gates protect.
    let e2e_ratio = compiled.runs_per_sec / scalar.runs_per_sec;
    if base_opts.trace_path.is_some() {
        println!(
            "smoke ok (traced; throughput gates skipped): compiled {:.0} runs/s, \
             scalar {:.0} runs/s",
            compiled.runs_per_sec, scalar.runs_per_sec
        );
    } else if gp_ratio < GATE_PATH_MIN_VS_SCALAR {
        // The speedup claim is about the gate-level path: the strike
        // kernel itself, measured without the draw/conclude/fold work that
        // every kernel pays identically (both kernels propagate the exact
        // same pulse set, so that scalar work dilutes any end-to-end ratio
        // toward 1.0).
        eprintln!(
            "SMOKE FAIL: compiled gate path ({:.0} lanes/s) below \
             {GATE_PATH_MIN_VS_SCALAR}x scalar ({:.0} lanes/s)",
            gp_compiled.lanes_per_sec(),
            gp_scalar.lanes_per_sec()
        );
        std::process::exit(1);
    } else if e2e_ratio < END_TO_END_MIN_VS_SCALAR {
        // End-to-end companion to the gate-path gate: compiled shares
        // every phase but the strike with scalar, so packing must not make
        // the whole campaign slower beyond the measured noise.
        eprintln!(
            "SMOKE FAIL: compiled kernel ({:.0} runs/s) below {END_TO_END_MIN_VS_SCALAR}x \
             scalar ({:.0} runs/s) end to end",
            compiled.runs_per_sec, scalar.runs_per_sec
        );
        std::process::exit(1);
    } else if host_cpus >= 4 && compiled_t2.runs_per_sec < 0.7 * compiled.runs_per_sec {
        // Threads-scaling gate, only meaningful with real parallelism: on
        // a 1-CPU container two workers plus the merge thread
        // oversubscribe the core and legitimately run slower. The 0.7x
        // allowance tolerates merge/contention overhead while still
        // catching the serialized-shard pathology this gate exists for.
        eprintln!(
            "SMOKE FAIL: compiled kernel at 2 threads ({:.0} runs/s) fell below 0.7x its \
             single-thread rate ({:.0} runs/s) on a {host_cpus}-CPU host",
            compiled_t2.runs_per_sec, compiled.runs_per_sec
        );
        std::process::exit(1);
    } else if base_opts.events_path.is_none()
        && telemetry.runs_per_sec < TELEMETRY_MIN_VS_COMPILED * compiled.runs_per_sec
    {
        // Telemetry-overhead gate, armed only when the base options leave
        // events off (with --events set every row already pays for the
        // stream and the comparison is vacuous). Events and prom writes
        // happen on the merge thread at chunk/checkpoint cadence, so
        // falling below the measured noise fence means telemetry leaked
        // into the hot path.
        eprintln!(
            "SMOKE FAIL: telemetry (events + prom) compiled throughput {:.0} runs/s \
             below {TELEMETRY_MIN_VS_COMPILED}x the {:.0} runs/s without it",
            telemetry.runs_per_sec, compiled.runs_per_sec
        );
        std::process::exit(1);
    } else {
        println!(
            "smoke ok: gate path compiled {gp_ratio:.2}x scalar \
             (>= {GATE_PATH_MIN_VS_SCALAR}x), end-to-end compiled {:.0} / scalar {:.0} \
             runs/s = {e2e_ratio:.2}x (>= {END_TO_END_MIN_VS_SCALAR}x), \
             telemetry {:.2}x compiled (>= {TELEMETRY_MIN_VS_COMPILED}x)",
            compiled.runs_per_sec,
            scalar.runs_per_sec,
            telemetry.runs_per_sec / compiled.runs_per_sec
        );
    }
}
