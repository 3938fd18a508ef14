//! Time-to-answer benchmark of the xlmc SSF estimator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload write_is --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Repeats *answers* — fresh model, golden run, pre-characterization and
//! proposal, then a campaign that stops at eps = 1e-3 with 95% confidence —
//! for `--seconds`, checks each against the workload's oracle reference, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer ledger of a
//! traced run (`--trace 1`). The last stdout line is one JSON object. See
//! `perfbench/README.md` for the workloads and how to read the output.

mod host;
mod layers;
mod stats;
mod workload;

use host::{Calibration, Calibrator};
use stats::{count_failed, median, quartiles, valid_metric_name, Ledger};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use workload::{
    answer, answer_seed, build, find, options, Answer, Built, Sampling, Spec, WORKLOADS,
};
use xlmc::estimator::{run_campaign_observed, EstimatorKind};
use xlmc::telemetry::NullObserver;
use xlmc::trace::{self, TraceSink};

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Kept out of all tuning: a later claim must also hold on this seed.
const HELD_OUT_SEED: u64 = 20_170_618;

/// The end-to-end metrics with their units, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("time_to_answer_s", "s"),
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("runs_per_s", "1/s"),
    ("runs_to_answer", "count"),
    ("gate_runs_to_answer", "count"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       perfbench --workload NAME --oracle-runs N

  --workload      write_is | dglitch_random | trap_mlmc_t2
  --seed          workload seed; answer seeds derive from it (default 1;
                  20170618 is held out for confirming claims)
  --seconds       how long to repeat answers (default 40)
  --trace         0: end-to-end metrics; 1: per-layer ledger of a traced run
  --oracle-runs   run the long random-sampling oracle for the workload's
                  reference instead of the benchmark";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    oracle_runs: Option<usize>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        oracle_runs: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                out.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--oracle-runs" => {
                let v = value()?;
                out.oracle_runs = Some(v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(&v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    let Some(spec) = find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "error: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        exit(2)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    if spec.threads > nproc {
        eprintln!(
            "error: workload {} needs {} threads, the host has {nproc}; not running it",
            spec.name, spec.threads
        );
        exit(2);
    }
    if let Some(runs) = args.oracle_runs {
        oracle(spec, runs, nproc);
        return;
    }
    let r = &spec.reference;
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) nproc {nproc} \
         threads {} eps {} confidence {} reference ssf {} +- {} ({} oracle runs, seed {:#x})",
        spec.name,
        args.seed,
        spec.threads,
        workload::EPS,
        workload::CONFIDENCE,
        r.ssf,
        r.half_width,
        r.runs,
        r.seed
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let (answers, metrics) = if args.trace {
        traced_run(spec, args.seed, budget, nproc)
    } else {
        untraced_run(spec, args.seed, budget)
    };
    let failed = report_failures(&answers);
    print_result(failed == 0, answers.len(), failed, &metrics);
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Run one answer, then calibrate the host; `before` is the calibration
/// taken just before the answer. Sets the answer's host factors from the
/// two and returns the second for the next answer.
fn calibrated(
    cal: &mut Calibrator,
    before: Calibration,
    run: impl FnOnce() -> (Built, Answer),
) -> (Built, Answer, Calibration) {
    let (built, mut a) = run();
    let after = cal.measure();
    (a.setup_factor, a.campaign_factor) = before.factors(&after);
    (built, a, after)
}

fn untraced_run(spec: &Spec, seed: u64, budget: Duration) -> (Vec<Answer>, Vec<Metric>) {
    let off = TraceSink::disabled();
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let mut answers = Vec::new();
    let mut before = cal.measure();
    for k in 0.. {
        let (built, a, after) = calibrated(&mut cal, before, || {
            answer(spec, answer_seed(seed, k as u64), &off, k, None)
        });
        drop(built);
        before = after;
        log_answer(spec, k, "untraced", &a);
        answers.push(a);
        if t0.elapsed() >= budget {
            break;
        }
    }
    let metrics = end_to_end(&answers);
    (answers, metrics)
}

/// The end-to-end metrics over a run's answers: per-answer medians at the
/// reference host speed, printed with their quartiles over the answers.
/// The unscaled wall-time medians and the host factor are printed too.
fn end_to_end(answers: &[Answer]) -> Vec<Metric> {
    let series = |f: &dyn Fn(&Answer) -> f64| answers.iter().map(f).collect::<Vec<_>>();
    let per_answer = [
        series(&Answer::time_s),
        series(&Answer::ref_setup_s),
        series(&Answer::ref_campaign_s),
        series(&|a| a.result.n as f64 / a.ref_campaign_s()),
        series(&|a| a.result.n as f64),
        series(&|a| a.gate_runs() as f64),
    ];
    let mut metrics = Vec::new();
    for (&(name, unit), xs) in END_TO_END.iter().zip(&per_answer) {
        let v = median(xs);
        if xs.len() >= 2 {
            let [q1, _, q3] = quartiles(xs);
            println!(
                "{name} = {v} {unit} (quartiles {q1} .. {q3} over {} answers)",
                xs.len()
            );
        } else {
            println!("{name} = {v} {unit} (1 answer)");
        }
        metrics.push((name, v, unit));
    }
    let rss = host::peak_rss_mb();
    println!("peak_rss_mb = {rss} MB");
    metrics.push(("peak_rss_mb", rss, "MB"));
    println!(
        "unscaled wall medians: time_to_answer {} s, setup {} s, campaign {} s; \
         host factors: setup {}, campaign {}",
        median(&series(&Answer::wall_s)),
        median(&series(&|a| a.setup_s)),
        median(&series(&|a| a.campaign_s)),
        median(&series(&|a| a.setup_factor)),
        median(&series(&|a| a.campaign_factor)),
    );
    metrics
}

/// The traced run: answers in untraced/traced pairs on the same campaign
/// seed (alternating which goes first), each traced answer followed by the
/// layer probes. End-to-end figures of this run are not reported; the
/// untraced half only gives the base of `trace.overhead_frac`.
fn traced_run(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    nproc: usize,
) -> (Vec<Answer>, Vec<Metric>) {
    let out_dir = output_dir();
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", out_dir.display()));
    let off = TraceSink::disabled();
    let sink = TraceSink::enabled();
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut samples, mut prechar_ledgers, mut campaign_ledgers) =
        (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let s = answer_seed(seed, k as u64);
        // Untraced first on even pairs, traced first on odd ones.
        for is_traced in [k % 2 == 1, k % 2 == 0] {
            let before = cal.measure();
            if !is_traced {
                let (built, a, _) = calibrated(&mut cal, before, || answer(spec, s, &off, k, None));
                drop(built);
                log_answer(spec, k, "untraced", &a);
                untraced.push(a);
                continue;
            }
            let metrics_path = out_dir.join(format!("{}-{k}.metrics.json", spec.name));
            let (built, a, _) = calibrated(&mut cal, before, || {
                answer(spec, s, &sink, k, Some(metrics_path.clone()))
            });
            log_answer(spec, k, "traced", &a);
            let probes = layers::probe(&built, &a, &sink, k);
            let events = sink.events();
            let (values, prechar, campaign) =
                layers::measure(&built, &a, &events, k, &probes, &metrics_path);
            let _ = std::fs::remove_file(&metrics_path);
            eprintln!(
                "{}",
                ledger_line(&format!("prechar answer {k}"), &prechar, None)
            );
            eprintln!(
                "{}",
                ledger_line(&format!("campaign answer {k}"), &campaign, None)
            );
            samples.push(values);
            prechar_ledgers.push(prechar);
            campaign_ledgers.push(campaign);
            traced.push(a);
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    let trace_path = out_dir.join(format!("{}.trace.json", spec.name));
    let empty = (
        trace::CampaignCounters::default(),
        trace::KernelCounters::default(),
    );
    match trace::write_trace(&trace_path, &sink, &empty.0, &empty.1, &[], &[]) {
        Ok(()) => eprintln!("[{}] spans written to {}", spec.name, trace_path.display()),
        Err(e) => eprintln!(
            "[{}] could not write {}: {e}",
            spec.name,
            trace_path.display()
        ),
    }

    let time = |xs: &[Answer]| median(&xs.iter().map(Answer::time_s).collect::<Vec<_>>());
    let mut medians = layers::medians(&samples);
    let prechar = Ledger::of_medians(&prechar_ledgers);
    let campaign = Ledger::of_medians(&campaign_ledgers);
    println!(
        "{}",
        ledger_line(
            "prechar (medians)",
            &prechar,
            Some(layers::PRECHAR_TOLERANCE)
        )
    );
    println!(
        "{}",
        ledger_line(
            "campaign (medians)",
            &campaign,
            Some(layers::CAMPAIGN_TOLERANCE)
        )
    );
    for (l, [total, rest, frac]) in [
        (
            &prechar,
            [
                "ledger.prechar_total_s",
                "ledger.prechar_remainder_s",
                "ledger.prechar_remainder_frac",
            ],
        ),
        (
            &campaign,
            [
                "ledger.campaign_total_s",
                "ledger.campaign_remainder_s",
                "ledger.campaign_remainder_frac",
            ],
        ),
    ] {
        medians.insert(total, l.total);
        medians.insert(rest, l.remainder());
        medians.insert(frac, l.remainder_frac());
    }
    medians.insert("trace.overhead_frac", time(&traced) / time(&untraced) - 1.0);
    let all: Vec<Answer> = untraced.into_iter().chain(traced).collect();
    let failed = count_failed(all.iter().map(|a| &a.faults));
    medians.insert("failed_frac", failed as f64 / all.len() as f64);
    medians.insert("host.nproc", nproc as f64);
    medians.insert("host.threads", spec.threads as f64);
    let metrics: Vec<Metric> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = *medians
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v, unit)
        })
        .collect();
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    (all, metrics)
}

/// Where traced runs leave their metrics and span files: inside the build
/// directory, so a checkout stays clean.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    PathBuf::from(target).join("perfbench-out")
}

fn log_answer(spec: &Spec, k: usize, kind: &str, a: &Answer) {
    eprintln!(
        "[{}] answer {k} {kind} seed {:#018x}: setup {:.4} s campaign {:.4} s (host factors {:.3} {:.3}) \
         runs {} gate_runs {} ssf {:.6} stop {}{}",
        spec.name,
        a.seed,
        a.setup_s,
        a.campaign_s,
        a.setup_factor,
        a.campaign_factor,
        a.result.n,
        a.gate_runs(),
        a.result.ssf,
        a.result.stop.as_str(),
        if a.faults.is_empty() { "" } else { " FAILED" }
    );
}

/// One ledger as text; with a tolerance, whether it closes within it.
fn ledger_line(name: &str, l: &Ledger, tolerance: Option<f64>) -> String {
    let parts: Vec<String> = l.parts.iter().map(|(p, v)| format!("{p} {v:.5}")).collect();
    let verdict = match tolerance {
        Some(t) if l.closes(t) => format!(" closes within {:.0}%", t * 100.0),
        Some(t) => format!(" DOES NOT CLOSE within {:.0}%", t * 100.0),
        None => String::new(),
    };
    format!(
        "ledger {name}: total {:.5} s = {} + unattributed {:.5} ({:+.1}%){verdict}",
        l.total,
        parts.join(" + "),
        l.remainder(),
        l.remainder_frac() * 100.0,
    )
}

/// Print the failure count and every failing answer; returns the count.
fn report_failures(answers: &[Answer]) -> usize {
    let failed = count_failed(answers.iter().map(|a| &a.faults));
    println!(
        "failed_frac = {} ({failed} of {} answers)",
        failed as f64 / answers.len() as f64,
        answers.len()
    );
    for a in answers.iter().filter(|a| !a.faults.is_empty()) {
        println!(
            "failed answer seed {:#018x}: n {} successes {} ssf {} stop {}: {:?}",
            a.seed,
            a.result.n,
            a.result.successes,
            a.result.ssf,
            a.result.stop.as_str(),
            a.faults
        );
    }
    failed
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v, unit)| {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The long oracle campaign behind a workload's reference: random sampling
/// (no proposal weights) and the single estimator on the same attack and
/// fault mode, all cores, a seed no answer uses, a fixed run count.
fn oracle(spec: &Spec, runs: usize, nproc: usize) {
    let oracle = Spec {
        sampling: Sampling::Random,
        estimator: EstimatorKind::Single,
        threads: nproc,
        ..*spec
    };
    let built = build(&oracle, &TraceSink::disabled(), 0);
    let opts = xlmc::estimator::CampaignOptions {
        target_eps: None,
        ..options(&oracle, None)
    };
    let t0 = Instant::now();
    let seed = spec.reference.seed;
    let r = run_campaign_observed(
        &built.runner(),
        built.strategy.as_ref(),
        runs,
        seed,
        &opts,
        &mut NullObserver,
    );
    let half_width = 1.96 * (r.sample_variance / r.n as f64).sqrt();
    println!(
        "oracle {}: ssf {:?} half_width {:?} runs {} successes {} seed {seed:#x} ({:.1} s)",
        spec.name,
        r.ssf,
        half_width,
        r.n,
        r.successes,
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc::json::JsonValue;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let field = |m: &JsonValue, k| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("list in BENCHMARK.json")
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_ones_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        let per_layer: Vec<(&str, &str)> =
            layers::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(listed(&doc, "per_layer"), own(&per_layer));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|s| s.name.to_owned()));
        for (name, _) in listed(&doc, "end_to_end")
            .iter()
            .chain(&listed(&doc, "per_layer"))
        {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn answer_seeds_are_disjoint_from_the_oracle_seed() {
        for seed in [0, DEFAULT_SEED, HELD_OUT_SEED, u64::MAX] {
            for k in 0..1000 {
                assert!(answer_seed(seed, k) < 1 << 63);
            }
        }
        assert!(WORKLOADS.iter().all(|s| s.reference.seed >= 1 << 63));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload write_is --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("write_is", 7, 2.5, true)
        );
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "--seed -1",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
