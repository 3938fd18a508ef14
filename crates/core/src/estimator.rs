//! The Monte Carlo SSF estimator and campaign driver (paper §3.3).
//!
//! `SSF = E_{T,P}[E]` is estimated by `ŜSF = (1/N) Σ w_i · e_i` with
//! importance weights `w_i = f(s_i)/g(s_i)` supplied by the sampling
//! strategy. The campaign records everything the paper's evaluation section
//! reports: the convergence trace (Figure 9(a)), the sample variance
//! (Figure 9(b)), the strike-outcome split (Figure 10(a)), the
//! analytic-vs-RTL run counts, and the per-register SSF attribution that
//! drives the hardening study.
//!
//! The driver folds chunk partials **incrementally in chunk order**, which
//! is what makes the [`crate::telemetry`] layer deterministic: progress
//! events, the `--target-eps` stopping rule, and periodic checkpoints all
//! observe the same merged prefix at a given chunk boundary regardless of
//! the thread count or kernel.

pub use crate::batch::{gate_path_bench, GatePathBench};
use crate::batch::{run_chunk_compiled, BatchChunkScratch, SharedCycleCache};
use crate::fastforward::FastForwardStats;
use crate::flow::{FaultRunner, FlowScratch, StrikeClass};
use crate::json::{bits_str, json_num};
use crate::metrics::{self, EventLog, LatencyShard, MetricsRegistry, MlmcProgress, StallWatchdog};
use crate::multilevel::{
    self, MlmcEstimator, MlmcPlan, MlmcSummary, SetToSeuMap, LEVEL_GATE, LEVEL_RTL,
};
use crate::rng::SplitMix64;
use crate::sampling::SamplingStrategy;
use crate::stats::RunningStats;
use crate::telemetry::{
    self, CampaignCheckpoint, CampaignObserver, MetricsMeta, NullObserver, ObserverAction,
    ProgramStats, ProgressEvent, SchedulerStats,
};
use crate::trace::{
    self, CampaignCounters, CounterScratch, KernelCounters, ProvenanceRecord, TraceSink,
    PROVENANCE_RING_CAP,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use xlmc_fault::AttackSample;
use xlmc_soc::MpuBit;

/// Runs per shard. Fixed — independent of the thread count and of the
/// kernel — so the chunk partition, and therefore every merged statistic,
/// is a pure function of `(seed, n, strategy)`. Two full 256-lane sweeps
/// per shard: the compiled kernel stratifies a shard's runs by injection
/// frame before packing lanes, so a bigger shard means longer same-frame
/// stretches and fewer cycle-value groups per sweep. The trace stays usable
/// because `trace_points` caps its resolution anyway.
///
/// Public so acceptance harnesses can re-derive each chunk's run range
/// from [`crate::multilevel::MlmcSummary::chunk_levels`] (chunk `c`
/// covers runs `c·CHUNK_RUNS .. min((c+1)·CHUNK_RUNS, n)`).
pub const CHUNK_RUNS: usize = 512;

/// The `--target-eps` stopping rule never fires before this many runs: the
/// Welford variance of the first chunk can be degenerately small (e.g. all
/// strikes masked), which would satisfy any bound trivially.
pub const EARLY_STOP_MIN_RUNS: usize = 2 * CHUNK_RUNS;

/// Default checkpoint cadence in runs (rounded up to whole chunks).
pub const DEFAULT_CHECKPOINT_EVERY_RUNS: usize = 8 * CHUNK_RUNS;

/// Counts of strike outcomes by class (paper Figure 10(a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Strikes with no latched error.
    pub masked: usize,
    /// Errors only in memory-type registers.
    pub memory_only: usize,
    /// At least one computation-type register in error.
    pub mixed: usize,
}

impl ClassCounts {
    /// Total strikes counted.
    pub fn total(&self) -> usize {
        self.masked + self.memory_only + self.mixed
    }

    /// `(masked, memory_only, mixed)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.masked as f64 / t,
            self.memory_only as f64 / t,
            self.mixed as f64 / t,
        )
    }

    fn add(&mut self, other: &ClassCounts) {
        self.masked += other.masked;
        self.memory_only += other.memory_only;
        self.mixed += other.mixed;
    }
}

/// Why a campaign returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// All requested runs were executed.
    #[default]
    Completed,
    /// The `--target-eps` LLN bound dropped below `1 − confidence` after
    /// at least one successful run.
    TargetEps,
    /// A [`CampaignObserver`] returned [`ObserverAction::Abort`].
    Aborted,
}

impl StopReason {
    /// The stable string used in the metrics JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::TargetEps => "target_eps",
            StopReason::Aborted => "aborted",
        }
    }
}

/// The result of one sampling campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Strategy name.
    pub strategy: String,
    /// Number of samples folded into the estimate. Equals the requested
    /// run count unless the campaign stopped early (see [`StopReason`]).
    pub n: usize,
    /// The SSF estimate `ŜSF`.
    pub ssf: f64,
    /// Sample variance of the weighted indicator `w · e` (the paper's
    /// Figure 9(b) metric).
    pub sample_variance: f64,
    /// The importance-sampling effective sample size `(Σw)²/Σw²` over the
    /// drawn weights (equals `n` when every weight is 1, i.e. under the
    /// baseline random strategy).
    pub ess: f64,
    /// Number of successful attacks (unweighted).
    pub successes: usize,
    /// Running-estimate trace `(n, ŜSF_n)` for convergence plots.
    pub trace: Vec<(usize, f64)>,
    /// Strike-class split.
    pub class_counts: ClassCounts,
    /// Runs settled by the analytical evaluator.
    pub analytic_runs: usize,
    /// Runs requiring RTL resume.
    pub rtl_runs: usize,
    /// Weighted success mass attributed to each faulty register. Ordered by
    /// bit so reports and serialized results are stable run-to-run.
    pub attribution: BTreeMap<MpuBit, f64>,
    /// Why the campaign returned.
    pub stop: StopReason,
    /// Kernel-invariant hot-path counters (chunk-local memo model; see
    /// [`crate::trace`]). Identical across kernels and thread counts.
    pub counters: CampaignCounters,
    /// Kernel-shape counters (lane occupancy, frame strata, gate visits).
    /// These legitimately differ between the scalar and compiled kernels.
    pub kernel_counters: KernelCounters,
    /// Index of the first successful run, `None` when no run succeeded.
    /// Like every statistic, a pure function of `(seed, n, strategy)`.
    /// Under MLMC this is gate-level: the first success of a *coupled*
    /// chunk (level-0 successes are not attributable). `--replay` is
    /// level-aware: a run that a level-0 chunk evaluated is re-derived via
    /// [`crate::multilevel::replay_run_level0`], not the gate flow.
    pub first_success: Option<u64>,
    /// Which estimator produced this result.
    pub estimator: EstimatorKind,
    /// Per-level MLMC accounting (`None` under the single estimator).
    pub mlmc: Option<MlmcSummary>,
}

impl CampaignResult {
    /// The LLN bound on `Pr[|ŜSF − SSF| ≥ eps]` after `n` samples.
    pub fn lln_bound(&self, eps: f64) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        (self.sample_variance / (self.n as f64 * eps * eps)).min(1.0)
    }
}

/// Which per-chunk executor the campaign engine uses.
///
/// Both kernels produce bit-identical [`CampaignResult`]s (the lane
/// batching is transparent down to the last `f64` ulp); `Compiled` is the
/// default because it amortizes each transient sweep over up to 256 runs
/// through the levelized straight-line
/// [`GateProgram`](xlmc_netlist::GateProgram), and `Scalar` stays as the
/// reference it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CampaignKernel {
    /// One run at a time through [`FaultRunner::run_with`].
    Scalar,
    /// Up to 256 runs per compiled straight-line sweep
    /// (`TransientSim::strike_compiled_with`).
    #[default]
    Compiled,
}

impl CampaignKernel {
    /// The `--kernel` argument spelling (also used in checkpoint headers).
    pub fn as_arg(&self) -> &'static str {
        match self {
            CampaignKernel::Scalar => "scalar",
            CampaignKernel::Compiled => "compiled",
        }
    }

    /// Monte Carlo runs packed per transient pass.
    pub fn lane_width(&self) -> usize {
        match self {
            CampaignKernel::Scalar => 1,
            CampaignKernel::Compiled => xlmc_gatesim::WIDE_LANES,
        }
    }
}

/// Which SSF estimator the campaign runs.
///
/// `Single` is the paper's estimator: every run pays the gate-accurate
/// flow. `Mlmc` is the two-level telescoped estimator
/// `E[f] = E[f_rtl] + E[f_gate − f_rtl]` from [`crate::multilevel`]: most
/// chunks run the cheap pure-RTL level-0 sampler, and a measured fraction
/// run coupled level-1 pairs whose signed difference corrects the cheap
/// level's bias. Both estimators are unbiased; MLMC reaches the same
/// `--target-eps` goal with far fewer gate-level runs. MLMC results are
/// bit-identical at any thread count and — because its per-level executors
/// are scalar — under both kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EstimatorKind {
    /// Gate-accurate flow on every run (the paper's estimator).
    #[default]
    Single,
    /// Two-level multilevel Monte Carlo (RTL-cheap / gate-accurate).
    Mlmc,
}

impl EstimatorKind {
    /// The `--estimator` argument spelling (also used in checkpoint and
    /// metrics headers).
    pub fn as_arg(&self) -> &'static str {
        match self {
            EstimatorKind::Single => "single",
            EstimatorKind::Mlmc => "mlmc",
        }
    }
}

/// Knobs of the campaign engine, shared by every figure binary.
///
/// The thread count and the kernel are pure scheduling choices: campaign
/// results are bit-identical at any `threads` value and under either
/// kernel (see [`crate::rng`] and [`CampaignKernel`]). The telemetry knobs
/// (`metrics_path`, `checkpoint_path`) never change the statistics either;
/// `target_eps` changes only *where* the campaign stops, and it does so
/// deterministically (the stopping decision is a function of the merged
/// chunk prefix, which is schedule-independent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Upper bound on convergence-trace points (the trace records the
    /// running estimate at shard boundaries, downsampled to this many).
    pub trace_points: usize,
    /// The per-chunk executor.
    pub kernel: CampaignKernel,
    /// The SSF estimator (`--estimator single|mlmc`).
    pub estimator: EstimatorKind,
    /// Adaptive stopping: halt once the §3.3 LLN bound at this `eps`
    /// drops to `1 − target_confidence` (checked at chunk boundaries,
    /// never before [`EARLY_STOP_MIN_RUNS`] runs, and never while no run
    /// has succeeded). `None` disables.
    pub target_eps: Option<f64>,
    /// Confidence level for the stopping rule (default 0.95).
    pub target_confidence: f64,
    /// Where to write the campaign metrics JSON (`--metrics`).
    pub metrics_path: Option<PathBuf>,
    /// Where to read/write the campaign checkpoint (`--checkpoint`). If
    /// the file exists, the campaign resumes from it.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in runs, rounded up to whole chunks
    /// (`--checkpoint-every`).
    pub checkpoint_every_runs: usize,
    /// Where to write the Chrome trace-event JSON (`--trace`): spans,
    /// counters and provenance records, openable in Perfetto.
    pub trace_path: Option<PathBuf>,
    /// Re-execute this run solo after the campaign (`--replay N`) under
    /// full span tracing, asserting its verdict matches the campaign's
    /// provenance record.
    pub replay: Option<u64>,
    /// Where to append the streaming lifecycle event log (`--events`):
    /// one JSON object per line, flushed per line, pinned by
    /// `schemas/events.schema.json`. A pure observer — results are
    /// bit-identical with the log on or off.
    pub events_path: Option<PathBuf>,
    /// Where to write the Prometheus text exposition (`--prom`): the
    /// metrics registry rendered atomically (temp + rename) at checkpoint
    /// cadence and once at the end. Also a pure observer.
    pub prom_path: Option<PathBuf>,
    /// Stall watchdog budget in seconds (`--stall-timeout`): if the
    /// multi-thread merge loop sees no chunk within this budget, a
    /// `worker_stalled` event with a per-worker state dump is emitted
    /// (requires `--events`; `0` disables).
    pub stall_timeout_s: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            trace_points: 200,
            kernel: CampaignKernel::default(),
            estimator: EstimatorKind::default(),
            target_eps: None,
            target_confidence: 0.95,
            metrics_path: None,
            checkpoint_path: None,
            checkpoint_every_runs: DEFAULT_CHECKPOINT_EVERY_RUNS,
            trace_path: None,
            replay: None,
            events_path: None,
            prom_path: None,
            stall_timeout_s: 30.0,
        }
    }
}

impl CampaignOptions {
    /// Options with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Options with an explicit kernel.
    pub fn with_kernel(kernel: CampaignKernel) -> Self {
        Self {
            kernel,
            ..Self::default()
        }
    }

    /// Parse the engine flags from the process arguments (used by the
    /// figure binaries). `--help`/`-h` prints the flag table and exits 0;
    /// an unknown flag or an invalid value prints an error and exits with
    /// status 2.
    pub fn from_args() -> Self {
        Self::from_arg_list(std::env::args().skip(1).collect())
    }

    /// [`from_args`](Self::from_args) over an explicit argument list: a
    /// binary with flags of its own takes them out of the process
    /// arguments and passes the rest here.
    pub fn from_arg_list(args: Vec<String>) -> Self {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage());
            std::process::exit(0);
        }
        match Self::parse_args(args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Every value-taking flag [`parse_args`](Self::parse_args) accepts.
    /// The `--help` table and the contract test iterate this list, so a
    /// flag added to the parser without help text fails the build's tests.
    pub const VALUE_FLAGS: &'static [&'static str] = &[
        "--threads",
        "--kernel",
        "--estimator",
        "--target-eps",
        "--target-confidence",
        "--metrics",
        "--checkpoint",
        "--checkpoint-every",
        "--trace",
        "--replay",
        "--events",
        "--prom",
        "--stall-timeout",
    ];

    /// The `--help` flag table: every flag the campaign engine owns.
    pub fn usage() -> String {
        concat!(
            "campaign engine flags (shared by every figure/bench binary):\n",
            "  --threads N|auto       worker threads; 0 or \"auto\" = one per core\n",
            "                         (default 1)\n",
            "  --kernel scalar|compiled\n",
            "                         per-chunk executor (default compiled); results\n",
            "                         are bit-identical under both\n",
            "  --estimator single|mlmc\n",
            "                         gate-accurate single-level estimator, or the\n",
            "                         two-level RTL-cheap/gate-accurate multilevel\n",
            "                         Monte Carlo estimator (default single)\n",
            "  --target-eps X         stop once the LLN bound at eps X drops to\n",
            "                         1 - confidence (checked at chunk boundaries,\n",
            "                         never before the first successful run)\n",
            "  --target-confidence C  confidence for --target-eps, in (0, 1)\n",
            "                         (default 0.95)\n",
            "  --metrics PATH         write the campaign metrics JSON\n",
            "                         (xlmc-metrics-v8, schemas/metrics.schema.json)\n",
            "  --events PATH          stream the lifecycle event log as JSONL\n",
            "                         (schemas/events.schema.json), one flushed line\n",
            "                         per event; results are bit-identical on or off\n",
            "  --prom PATH            write the Prometheus text exposition, rewritten\n",
            "                         atomically at checkpoint cadence and at the end\n",
            "  --stall-timeout SECS   emit a worker_stalled event when the threaded\n",
            "                         merge loop sees no chunk for SECS seconds\n",
            "                         (needs --events; 0 disables; default 30)\n",
            "  --checkpoint PATH      read/write the campaign checkpoint; an\n",
            "                         existing file resumes the campaign\n",
            "  --checkpoint-every N   checkpoint cadence in runs, rounded up to\n",
            "                         whole chunks (default 4096)\n",
            "  --trace PATH           write Chrome trace-event JSON (spans, hot-path\n",
            "                         counters, per-run provenance) for Perfetto\n",
            "  --replay N             after the campaign, re-execute run N solo under\n",
            "                         tracing and check its verdict against the\n",
            "                         campaign's provenance record\n",
            "  --help, -h             print this table and exit\n",
            "Any other argument is an error (exit 2); a binary with flags of its\n",
            "own takes them out before the engine parses the rest.",
        )
        .to_owned()
    }

    /// Parse the engine flags — `--threads N|auto`, `--kernel
    /// scalar|compiled`, `--target-eps X`, `--target-confidence C`,
    /// `--metrics PATH`, `--checkpoint PATH`, `--checkpoint-every N`,
    /// `--trace PATH`, `--replay N` (each also accepting the `--flag=value`
    /// spelling) — from an argument list. Any argument it does not own is
    /// an error, so a misspelled flag never runs with its default; the
    /// removed `--fast-forward` gets its own message.
    pub fn parse_args<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, mut inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (arg, None),
            };
            if flag == "--fast-forward" {
                return Err(
                    "--fast-forward was removed: every RTL resume restores the nearest \
                     golden checkpoint and replays to the injection cycle; drop the flag"
                        .to_owned(),
                );
            }
            if !Self::VALUE_FLAGS.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag:?} (see --help)"));
            }
            let value = inline
                .take()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--threads" => {
                    opts.threads = if value == "auto" {
                        0
                    } else {
                        value.parse().map_err(|_| {
                            format!(
                                "invalid --threads value {value:?}: expected a non-negative \
                                 integer or \"auto\""
                            )
                        })?
                    };
                }
                "--kernel" => opts.set_kernel_arg(&value)?,
                "--estimator" => {
                    opts.estimator = match value.as_str() {
                        "single" => EstimatorKind::Single,
                        "mlmc" => EstimatorKind::Mlmc,
                        _ => {
                            return Err(format!(
                                "invalid --estimator value {value:?}: expected \"single\" or \
                                 \"mlmc\""
                            ))
                        }
                    };
                }
                "--target-eps" => {
                    let eps: f64 = value.parse().map_err(|_| {
                        format!("invalid --target-eps value {value:?}: expected a number")
                    })?;
                    if !eps.is_finite() || eps <= 0.0 {
                        return Err(format!(
                            "invalid --target-eps value {value:?}: must be a positive number"
                        ));
                    }
                    opts.target_eps = Some(eps);
                }
                "--target-confidence" => {
                    let c: f64 = value.parse().map_err(|_| {
                        format!("invalid --target-confidence value {value:?}: expected a number")
                    })?;
                    if !(c > 0.0 && c < 1.0) {
                        return Err(format!(
                            "invalid --target-confidence value {value:?}: must be in (0, 1)"
                        ));
                    }
                    opts.target_confidence = c;
                }
                "--metrics" => opts.metrics_path = Some(PathBuf::from(value)),
                "--checkpoint" => opts.checkpoint_path = Some(PathBuf::from(value)),
                "--checkpoint-every" => {
                    let every: usize = value.parse().map_err(|_| {
                        format!(
                            "invalid --checkpoint-every value {value:?}: expected a positive integer"
                        )
                    })?;
                    if every == 0 {
                        return Err(
                            "invalid --checkpoint-every value \"0\": must be at least 1".to_owned()
                        );
                    }
                    opts.checkpoint_every_runs = every;
                }
                "--trace" => opts.trace_path = Some(PathBuf::from(value)),
                "--replay" => {
                    opts.replay = Some(value.parse().map_err(|_| {
                        format!("invalid --replay value {value:?}: expected a run index")
                    })?);
                }
                "--events" => opts.events_path = Some(PathBuf::from(value)),
                "--prom" => opts.prom_path = Some(PathBuf::from(value)),
                "--stall-timeout" => {
                    let secs: f64 = value.parse().map_err(|_| {
                        format!("invalid --stall-timeout value {value:?}: expected seconds")
                    })?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(format!(
                            "invalid --stall-timeout value {value:?}: must be a non-negative \
                             number of seconds"
                        ));
                    }
                    opts.stall_timeout_s = secs;
                }
                _ => unreachable!("flag list and match arms are in sync"),
            }
        }
        Ok(opts)
    }

    fn set_kernel_arg(&mut self, v: &str) -> Result<(), String> {
        self.kernel = match v {
            "scalar" => CampaignKernel::Scalar,
            "compiled" => CampaignKernel::Compiled,
            other => {
                return Err(format!(
                    "invalid --kernel value {other:?}: expected \"scalar\" or \"compiled\""
                ))
            }
        };
        Ok(())
    }

    /// The concrete worker count (resolving `0` to the core count).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Everything one shard of runs accumulates; merged in shard order.
#[derive(Debug, Default)]
pub(crate) struct ChunkPartial {
    /// The chunk's level tag: [`multilevel::LEVEL_GATE`] for gate-accurate
    /// chunks (every single-estimator chunk, and MLMC's coupled
    /// correction chunks), [`multilevel::LEVEL_RTL`] for MLMC's cheap
    /// level-0 chunks. The merge keys its per-level accumulators on it, so
    /// checkpoint/resume stays bit-deterministic across mixed-level runs.
    pub(crate) level: u8,
    /// The chunk's primary Welford stream: `w·e` for gate chunks, the
    /// signed correction `w·(e_gate − e_rtl)` for MLMC level-1 chunks.
    pub(crate) stats: RunningStats,
    /// The gate marginal `w·e_gate` (MLMC level-1 chunks only).
    pub(crate) gate_stats: RunningStats,
    /// The RTL marginal `w·e_rtl` (MLMC level-1 chunks only).
    pub(crate) rtl_stats: RunningStats,
    pub(crate) class_counts: ClassCounts,
    pub(crate) analytic_runs: usize,
    pub(crate) rtl_runs: usize,
    pub(crate) successes: usize,
    pub(crate) attribution: BTreeMap<MpuBit, f64>,
    /// Σw over the shard's drawn weights (for the effective sample size).
    pub(crate) w_sum: f64,
    /// Σw² over the shard's drawn weights.
    pub(crate) w_sq_sum: f64,
    /// Kernel-invariant hot-path counters for this shard.
    pub(crate) counters: CampaignCounters,
    /// Kernel-shape counters for this shard.
    pub(crate) kernel_counters: KernelCounters,
    /// First successful run index within this shard.
    pub(crate) first_success: Option<u64>,
    /// Per-run provenance, in run-index order (empty unless recording).
    pub(crate) provenance: Vec<ProvenanceRecord>,
    /// Worker-side latency observations (chunk wall time, kernel sweeps,
    /// resume positioning). Pure telemetry: taken out before the fold and
    /// absorbed into the merger's registry, never into the statistics.
    pub(crate) latency: LatencyShard,
}

/// Everything `fold_run` needs to know about one executed run.
pub(crate) struct RunObs<'a> {
    pub(crate) run_index: u64,
    pub(crate) sample: &'a AttackSample,
    pub(crate) te: Option<u64>,
    pub(crate) pulses: usize,
    pub(crate) class: StrikeClass,
    pub(crate) analytic: bool,
    pub(crate) success: bool,
    pub(crate) w: f64,
    pub(crate) faulty_bits: &'a [MpuBit],
    /// The run's conclusion-memo id (see [`crate::flow::RunView::memo_id`]).
    pub(crate) memo_id: Option<u32>,
}

/// Fold one run's outcome into a shard partial. Both kernels route every
/// run through this single accumulator (in run-index order), so the
/// Welford push sequence — and with it every campaign statistic and
/// counter — cannot drift between the scalar and compiled engines.
pub(crate) fn fold_run(
    p: &mut ChunkPartial,
    ctr: &mut CounterScratch,
    obs: RunObs<'_>,
    record_provenance: bool,
) {
    match obs.class {
        StrikeClass::Masked => p.class_counts.masked += 1,
        StrikeClass::MemoryOnly => p.class_counts.memory_only += 1,
        StrikeClass::Mixed => p.class_counts.mixed += 1,
    }
    if obs.class != StrikeClass::Masked {
        if obs.analytic {
            p.analytic_runs += 1;
        } else {
            p.rtl_runs += 1;
        }
    }
    ctr.record_run(
        &mut p.counters,
        obs.te,
        obs.memo_id,
        obs.analytic,
        obs.pulses,
    );
    p.w_sum += obs.w;
    p.w_sq_sum += obs.w * obs.w;
    let x = if obs.success {
        p.successes += 1;
        if p.first_success.is_none() {
            p.first_success = Some(obs.run_index);
        }
        for &bit in obs.faulty_bits {
            *p.attribution.entry(bit).or_insert(0.0) += obs.w;
        }
        obs.w
    } else {
        0.0
    };
    p.stats.push(x);
    if record_provenance {
        p.provenance.push(ProvenanceRecord {
            run_index: obs.run_index,
            t: obs.sample.t,
            center: obs.sample.center,
            radius: obs.sample.radius,
            phase: obs.sample.phase,
            te: obs.te,
            weight: obs.w,
            class: obs.class,
            success: obs.success,
            analytic: obs.analytic,
        });
    }
}

/// Execute runs `start..end` of the campaign, one at a time. Each run's
/// generator comes from `(seed, run_index)` alone, so a shard computes the
/// same partial on any worker.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut FlowScratch,
    ctr: &mut CounterScratch,
    record_provenance: bool,
) -> ChunkPartial {
    ctr.begin_chunk();
    let mut p = ChunkPartial {
        level: multilevel::LEVEL_GATE,
        ..ChunkPartial::default()
    };
    for i in start..end {
        let mut rng = SplitMix64::for_run(seed, i as u64);
        let sample = strategy.draw(&mut rng);
        let w = strategy.weight(&sample);
        let outcome = runner.run_with(&sample, &mut rng, scratch);
        p.kernel_counters.gates_visited += outcome.gates_visited;
        fold_run(
            &mut p,
            ctr,
            RunObs {
                run_index: i as u64,
                sample: &sample,
                te: outcome.injection_cycle,
                pulses: outcome.pulses_propagated,
                class: outcome.class,
                analytic: outcome.analytic,
                success: outcome.success,
                w,
                faulty_bits: outcome.faulty_bits,
                memo_id: outcome.memo_id,
            },
            record_provenance,
        );
    }
    p
}

/// The scalar chunk executor, exposed to the crate's lane-equivalence
/// tests as the reference implementation.
#[cfg(test)]
pub(crate) fn scalar_chunk_for_tests(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut FlowScratch,
) -> ChunkPartial {
    let mut ctr = CounterScratch::default();
    run_chunk(runner, strategy, seed, start, end, scratch, &mut ctr, false)
}

/// The merged campaign prefix: every statistic folded from chunks
/// `0..merged_chunks`, in chunk order. This is exactly what a checkpoint
/// snapshots — restoring it and folding the remaining chunks reproduces an
/// uninterrupted campaign bit-for-bit.
#[derive(Debug, Default)]
struct MergeState {
    /// Which estimator the accumulators below serve.
    estimator: EstimatorKind,
    /// The single-estimator stream (untouched under MLMC).
    stats: RunningStats,
    /// MLMC level-0 stream of `w·e_rtl` (empty under `Single`).
    level0: RunningStats,
    /// MLMC level-1 stream of the signed correction `w·(e_gate − e_rtl)`.
    level1_diff: RunningStats,
    /// MLMC level-1 gate marginal `w·e_gate`.
    level1_gate: RunningStats,
    /// MLMC level-1 RTL marginal `w·e_rtl`.
    level1_rtl: RunningStats,
    /// The published post-pilot level-1 chunk share, set when the pilot
    /// finishes merging (carried through checkpoints so a resumed campaign
    /// replays the identical schedule).
    plan_ratio: Option<f64>,
    /// Level tag of every merged chunk, in chunk order.
    chunk_levels: Vec<u8>,
    class_counts: ClassCounts,
    analytic_runs: usize,
    rtl_runs: usize,
    successes: usize,
    attribution: BTreeMap<MpuBit, f64>,
    w_sum: f64,
    w_sq_sum: f64,
    counters: CampaignCounters,
    kernel_counters: KernelCounters,
    first_success: Option<u64>,
    /// Running estimate at each merged chunk boundary, undownsampled.
    boundaries: Vec<(usize, f64)>,
    /// Chunks folded so far — also the index of the next chunk to fold.
    merged_chunks: usize,
}

impl MergeState {
    fn fold(&mut self, p: ChunkPartial, chunk_end: usize) {
        match self.estimator {
            EstimatorKind::Single => self.stats.merge(&p.stats),
            EstimatorKind::Mlmc => {
                self.chunk_levels.push(p.level);
                if p.level == LEVEL_RTL {
                    self.level0.merge(&p.stats);
                } else {
                    self.level1_diff.merge(&p.stats);
                    self.level1_gate.merge(&p.gate_stats);
                    self.level1_rtl.merge(&p.rtl_stats);
                }
            }
        }
        self.class_counts.add(&p.class_counts);
        self.analytic_runs += p.analytic_runs;
        self.rtl_runs += p.rtl_runs;
        self.successes += p.successes;
        for (bit, w) in p.attribution {
            *self.attribution.entry(bit).or_insert(0.0) += w;
        }
        self.w_sum += p.w_sum;
        self.w_sq_sum += p.w_sq_sum;
        self.counters.add(&p.counters);
        self.kernel_counters.add(&p.kernel_counters);
        // Chunks fold in order, so the first Some seen is the global first.
        if self.first_success.is_none() {
            self.first_success = p.first_success;
        }
        self.merged_chunks += 1;
        // Freeze the MLMC sample-allocation plan the moment the pilot is
        // fully merged: a pure function of the pilot variances, so every
        // schedule — threads, kernels, resume — derives the same ratio.
        if self.estimator == EstimatorKind::Mlmc
            && self.plan_ratio.is_none()
            && self.merged_chunks == MlmcEstimator::PILOT_CHUNKS
        {
            let est = MlmcEstimator::default();
            self.plan_ratio =
                Some(est.optimal_share1(self.level0.variance(), self.level1_diff.variance()));
        }
        self.boundaries.push((chunk_end, self.current_ssf()));
    }

    fn runs_merged(&self) -> usize {
        self.boundaries.last().map_or(0, |&(runs, _)| runs)
    }

    /// The running point estimate of the merged prefix: the plain Welford
    /// mean under `Single`, the telescoped `mean₀ + mean₁(diff)` under
    /// MLMC (degenerating to the coupled gate marginal while no level-0
    /// chunk has merged).
    fn current_ssf(&self) -> f64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.mean(),
            EstimatorKind::Mlmc => {
                if self.level0.count() == 0 {
                    self.level1_gate.mean()
                } else {
                    self.level0.mean() + self.level1_diff.mean()
                }
            }
        }
    }

    /// The per-sample variance scale of the estimate: defined so that
    /// `sample_variance / n` is the variance of the point estimate under
    /// either estimator, keeping the LLN bound and the metrics schema
    /// uniform. For MLMC that is `n · (s₀²/n₀ + s₁²/n₁)` (a zero-count
    /// level drops out; with no level-0 chunks it reduces to the gate
    /// marginal's plain sample variance).
    fn current_sample_variance(&self) -> f64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.variance(),
            EstimatorKind::Mlmc => {
                let n0 = self.level0.count();
                let n1 = self.level1_diff.count();
                let mut v = 0.0;
                if n0 > 0 {
                    v += self.level0.variance() / n0 as f64;
                }
                if n1 > 0 {
                    if self.level0.count() == 0 {
                        v += self.level1_gate.variance() / n1 as f64;
                    } else {
                        v += self.level1_diff.variance() / n1 as f64;
                    }
                }
                (n0 + n1) as f64 * v
            }
        }
    }

    /// Samples folded across every stream.
    fn total_count(&self) -> u64 {
        match self.estimator {
            EstimatorKind::Single => self.stats.count(),
            EstimatorKind::Mlmc => self.level0.count() + self.level1_diff.count(),
        }
    }

    /// The LLN bound `Pr[|ŜSF − SSF| ≥ eps] ≤ Var(ŜSF)/eps²` of the merged
    /// prefix, capped at 1.
    fn lln_bound(&self, eps: f64) -> f64 {
        let n = self.total_count();
        if n == 0 {
            return 1.0;
        }
        (self.current_sample_variance() / (n as f64 * eps * eps)).min(1.0)
    }

    /// Whether the stopping rule may fire: MLMC additionally requires both
    /// levels sampled, so the variance terms it bounds are both live (the
    /// alternating pilot guarantees this from the second chunk on).
    fn levels_ready(&self) -> bool {
        match self.estimator {
            EstimatorKind::Single => true,
            EstimatorKind::Mlmc => self.level0.count() > 0 && self.level1_diff.count() > 0,
        }
    }

    /// Effective sample size `(Σw)²/Σw²` (0 when no runs folded).
    fn ess(&self) -> f64 {
        if self.w_sq_sum > 0.0 {
            self.w_sum * self.w_sum / self.w_sq_sum
        } else {
            0.0
        }
    }

    /// Publish the merged prefix's run counters and estimate gauges.
    fn publish(&self, reg: &mut MetricsRegistry) {
        reg.counter_set("runs_total", self.runs_merged() as u64);
        reg.counter_set("chunks_merged_total", self.merged_chunks as u64);
        reg.counter_set("successes_total", self.successes as u64);
        reg.gauge_set("ssf", self.current_ssf());
        reg.gauge_set("sample_variance", self.current_sample_variance());
        reg.gauge_set("ess", self.ess());
    }

    fn to_checkpoint(
        &self,
        seed: u64,
        requested_runs: usize,
        strategy: &str,
        kernel: CampaignKernel,
    ) -> CampaignCheckpoint {
        CampaignCheckpoint {
            seed,
            requested_runs,
            chunk_runs: CHUNK_RUNS,
            strategy: strategy.to_owned(),
            kernel,
            estimator: self.estimator,
            mlmc: match self.estimator {
                EstimatorKind::Single => None,
                EstimatorKind::Mlmc => Some(telemetry::MlmcCheckpointState {
                    plan_ratio: self.plan_ratio,
                    level0: self.level0,
                    level1_diff: self.level1_diff,
                    level1_gate: self.level1_gate,
                    level1_rtl: self.level1_rtl,
                    chunk_levels: self.chunk_levels.clone(),
                }),
            },
            merged_chunks: self.merged_chunks,
            stats: self.stats,
            w_sum: self.w_sum,
            w_sq_sum: self.w_sq_sum,
            class_counts: self.class_counts,
            analytic_runs: self.analytic_runs,
            rtl_runs: self.rtl_runs,
            successes: self.successes,
            attribution: self.attribution.clone(),
            counters: self.counters,
            kernel_counters: self.kernel_counters,
            first_success: self.first_success,
            boundaries: self.boundaries.clone(),
        }
    }

    fn from_checkpoint(ck: CampaignCheckpoint) -> Self {
        let m = ck.mlmc.unwrap_or_default();
        Self {
            estimator: ck.estimator,
            stats: ck.stats,
            level0: m.level0,
            level1_diff: m.level1_diff,
            level1_gate: m.level1_gate,
            level1_rtl: m.level1_rtl,
            plan_ratio: m.plan_ratio,
            chunk_levels: m.chunk_levels,
            class_counts: ck.class_counts,
            analytic_runs: ck.analytic_runs,
            rtl_runs: ck.rtl_runs,
            successes: ck.successes,
            attribution: ck.attribution,
            w_sum: ck.w_sum,
            w_sq_sum: ck.w_sq_sum,
            counters: ck.counters,
            kernel_counters: ck.kernel_counters,
            first_success: ck.first_success,
            boundaries: ck.boundaries,
            merged_chunks: ck.merged_chunks,
        }
    }

    fn into_result(self, strategy: &str, stop: StopReason, trace_points: usize) -> CampaignResult {
        // Downsample boundaries to at most `trace_points`, always keeping
        // the final `(n, ŜSF)` point exactly once.
        let stride = self.boundaries.len().div_ceil(trace_points.max(1)).max(1);
        let mut trace: Vec<(usize, f64)> = self
            .boundaries
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % stride == 0)
            .map(|(_, &b)| b)
            .collect();
        if trace.last() != self.boundaries.last() {
            if let Some(&last) = self.boundaries.last() {
                trace.push(last);
            }
        }
        let costs = MlmcEstimator::default();
        let mlmc = match self.estimator {
            EstimatorKind::Single => None,
            EstimatorKind::Mlmc => Some(MlmcSummary {
                n0: self.level0.count(),
                n1: self.level1_diff.count(),
                mean0: self.level0.mean(),
                var0: self.level0.variance(),
                mean1_diff: self.level1_diff.mean(),
                var1_diff: self.level1_diff.variance(),
                mean1_gate: self.level1_gate.mean(),
                mean1_rtl: self.level1_rtl.mean(),
                cost0: costs.cost0,
                cost1: costs.cost1,
                plan_ratio: self.plan_ratio,
                chunk_levels: self.chunk_levels.clone(),
            }),
        };
        CampaignResult {
            strategy: strategy.to_owned(),
            n: self.runs_merged(),
            ssf: self.current_ssf(),
            sample_variance: self.current_sample_variance(),
            ess: self.ess(),
            successes: self.successes,
            trace,
            class_counts: self.class_counts,
            analytic_runs: self.analytic_runs,
            rtl_runs: self.rtl_runs,
            attribution: self.attribution,
            stop,
            counters: self.counters,
            kernel_counters: self.kernel_counters,
            first_success: self.first_success,
            estimator: self.estimator,
            mlmc,
        }
    }
}

/// What the telemetry fan-out needs to know about one just-merged chunk,
/// captured before the fold consumes the partial.
struct ChunkMergeInfo {
    /// The merged chunk's index.
    chunk: usize,
    /// Its level tag ([`LEVEL_GATE`] for single-estimator chunks).
    level: u8,
    /// Its primary Welford stream, exactly as folded.
    stats: RunningStats,
}

/// The merger-side telemetry fan-out: one [`MetricsRegistry`] feeding the
/// streaming event log (`--events`), the Prometheus exposition (`--prom`)
/// and the stall watchdog (`--stall-timeout`). A pure observer — it only
/// reads the merged state, after the fold, so enabling any surface cannot
/// change a result bit.
struct TelemetryHub {
    registry: MetricsRegistry,
    events: Option<EventLog>,
    prom_path: Option<PathBuf>,
    prom_labels: Vec<(&'static str, String)>,
    watchdog: Option<StallWatchdog>,
    plan_emitted: bool,
}

impl TelemetryHub {
    fn new(options: &CampaignOptions, strategy: &str, plan_already_frozen: bool) -> Self {
        let events = options.events_path.as_deref().and_then(|p| {
            EventLog::create(p)
                .map_err(|e| eprintln!("failed to create events log {}: {e}", p.display()))
                .ok()
        });
        Self {
            registry: MetricsRegistry::new(),
            events,
            prom_path: options.prom_path.clone(),
            prom_labels: vec![
                ("strategy", strategy.to_owned()),
                ("kernel", options.kernel.as_arg().to_owned()),
                ("estimator", options.estimator.as_arg().to_owned()),
            ],
            watchdog: None,
            plan_emitted: plan_already_frozen,
        }
    }

    /// Append one event line (no-op without `--events`).
    fn emit(&mut self, event: &str, elapsed_s: f64, extra: &str) {
        if let Some(log) = self.events.as_mut() {
            log.emit(event, elapsed_s, extra);
        }
    }

    fn flush_events(&mut self) {
        if let Some(log) = self.events.as_mut() {
            log.flush();
        }
    }

    /// Rewrite the Prometheus exposition (no-op without `--prom`).
    fn write_prom(&self) {
        if let Some(path) = &self.prom_path {
            if let Err(e) = metrics::write_prom(path, &self.registry, &self.prom_labels) {
                eprintln!("failed to write prom exposition {}: {e}", path.display());
            }
        }
    }
}

fn validate_checkpoint(
    ck: &CampaignCheckpoint,
    path: &std::path::Path,
    seed: u64,
    n: usize,
    strategy: &str,
    kernel: CampaignKernel,
    estimator: EstimatorKind,
) {
    let mut mismatches = Vec::new();
    if ck.seed != seed {
        mismatches.push(format!("seed {} != {}", ck.seed, seed));
    }
    if ck.requested_runs != n {
        mismatches.push(format!("requested runs {} != {}", ck.requested_runs, n));
    }
    if ck.chunk_runs != CHUNK_RUNS {
        mismatches.push(format!("chunk size {} != {}", ck.chunk_runs, CHUNK_RUNS));
    }
    if ck.strategy != strategy {
        mismatches.push(format!("strategy {:?} != {:?}", ck.strategy, strategy));
    }
    if ck.kernel != kernel {
        mismatches.push(format!(
            "kernel {:?} != {:?}",
            ck.kernel.as_arg(),
            kernel.as_arg()
        ));
    }
    if ck.estimator != estimator {
        mismatches.push(format!(
            "estimator {:?} != {:?}",
            ck.estimator.as_arg(),
            estimator.as_arg()
        ));
    }
    if ck.estimator == EstimatorKind::Mlmc && ck.mlmc.is_none() {
        mismatches.push("corrupt mlmc checkpoint: per-level state missing".to_owned());
    }
    if ck.boundaries.len() != ck.merged_chunks {
        mismatches.push(format!(
            "corrupt cursor: {} boundaries for {} merged chunks",
            ck.boundaries.len(),
            ck.merged_chunks
        ));
    }
    if !mismatches.is_empty() {
        panic!(
            "checkpoint {} does not match this campaign ({}); delete it or point \
             --checkpoint elsewhere",
            path.display(),
            mismatches.join(", ")
        );
    }
}

/// Run a campaign of `n` attacks with the given strategy and seed
/// (sequential; see [`run_campaign_with`] for the threaded form).
pub fn run_campaign(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
) -> CampaignResult {
    run_campaign_with(runner, strategy, n, seed, &CampaignOptions::default())
}

/// Run a campaign of `n` attacks across `options.threads` workers.
///
/// The runs are split into fixed-size shards (`CHUNK_RUNS`); workers
/// steal shard indices from a shared counter, and the partials are merged
/// **in shard order** with Chan's parallel mean/variance combine
/// ([`RunningStats::merge`]). Because each run's RNG derives from
/// `(seed, run_index)` and the partition never depends on the schedule, the
/// returned result is bit-identical at any thread count.
pub fn run_campaign_with(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
    options: &CampaignOptions,
) -> CampaignResult {
    run_campaign_observed(runner, strategy, n, seed, options, &mut NullObserver)
}

/// [`run_campaign_with`] plus a [`CampaignObserver`] receiving a
/// [`ProgressEvent`] at every merged chunk boundary.
///
/// The merge loop is incremental: as soon as the next in-order chunk
/// partial is available it is folded, the observer is notified, the
/// `--target-eps` stopping rule is evaluated, and (when due) a checkpoint
/// is written. Out-of-order partials from faster workers wait in a small
/// reorder buffer. Because all of that happens on the merged *prefix* —
/// which is a pure function of `(seed, n, strategy)` — the event stream,
/// the stopping point, and any checkpoint are identical at any thread
/// count and under either kernel; only the wall-clock fields differ.
pub fn run_campaign_observed(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
    options: &CampaignOptions,
    observer: &mut dyn CampaignObserver,
) -> CampaignResult {
    let start_time = Instant::now();
    let chunks = n.div_ceil(CHUNK_RUNS);
    let chunk_bounds = |c: usize| (c * CHUNK_RUNS, ((c + 1) * CHUNK_RUNS).min(n));

    let mut state = MergeState {
        estimator: options.estimator,
        ..MergeState::default()
    };
    if let Some(path) = &options.checkpoint_path {
        match CampaignCheckpoint::load(path) {
            Ok(Some(ck)) => {
                validate_checkpoint(
                    &ck,
                    path,
                    seed,
                    n,
                    strategy.name(),
                    options.kernel,
                    options.estimator,
                );
                state = MergeState::from_checkpoint(ck);
            }
            Ok(None) => {}
            Err(e) => panic!("failed to read checkpoint {}: {e}", path.display()),
        }
    }
    // MLMC machinery: the SET → multi-bit-SEU map the cheap level injects
    // through, and the chunk-level plan cell. The pilot chunks use the
    // fixed alternating schedule; the post-pilot schedule is published by
    // the merger the moment the pilot is fully merged (or restored from a
    // checkpoint). Workers claiming a post-pilot chunk spin on the cell —
    // deadlock-free because chunk indices are claimed in order, so the
    // pilot chunks are always in flight before any worker needs the plan.
    let mlmc_on = options.estimator == EstimatorKind::Mlmc;
    let seu_map = mlmc_on.then(|| SetToSeuMap::build(runner.model, runner.eval, runner.prechar));
    let plan_cell: OnceLock<MlmcPlan> = OnceLock::new();
    if let Some(ratio) = state.plan_ratio {
        let _ = plan_cell.set(MlmcPlan { ratio });
    }
    let start_chunk = state.merged_chunks;
    let resumed_runs = state.runs_merged();
    let checkpoint_every_chunks = options.checkpoint_every_runs.div_ceil(CHUNK_RUNS).max(1);

    let mut hub = TelemetryHub::new(options, strategy.name(), state.plan_ratio.is_some());
    hub.emit(
        "campaign_started",
        0.0,
        &format!(
            ", \"seed\": {seed}, \"requested_runs\": {n}, \"kernel\": \"{}\", \
             \"estimator\": \"{}\", \"threads\": {}, \"resumed_runs\": {resumed_runs}",
            options.kernel.as_arg(),
            options.estimator.as_arg(),
            options.effective_threads(),
        ),
    );

    // Everything that happens at a merged chunk boundary, after the fold:
    // update the telemetry registry, stream the chunk_merged event, notify
    // the observer, evaluate the stopping rule, write a checkpoint (and at
    // the same cadence, flush the event log and rewrite the prom
    // exposition). Ordering matters for resume determinism — a stop
    // decision precedes the checkpoint write, so a checkpoint's cursor
    // never passes the first stopping boundary and a resumed campaign
    // re-derives the exact same stop point.
    let boundary = |state: &MergeState,
                    observer: &mut dyn CampaignObserver,
                    hub: &mut TelemetryHub,
                    info: ChunkMergeInfo|
     -> Option<StopReason> {
        let runs_done = state.runs_merged();
        let elapsed_s = start_time.elapsed().as_secs_f64();
        let fresh = (runs_done - resumed_runs) as f64;
        let runs_per_sec = if elapsed_s > 0.0 {
            fresh / elapsed_s
        } else {
            0.0
        };
        let reg = &mut hub.registry;
        state.publish(reg);
        reg.gauge_set("elapsed_seconds", elapsed_s);
        reg.gauge_set("runs_per_sec", runs_per_sec);
        if let Some(eps) = options.target_eps {
            reg.gauge_set("lln_bound", state.lln_bound(eps));
        }
        if hub.events.is_some() {
            // The chunk's exact Welford triple rides along as IEEE-754
            // bits, so the final SSF is rebuildable from the log alone.
            let (count, mean, m2) = info.stats.to_raw();
            let extra = format!(
                ", \"chunk\": {}, \"level\": {}, \"runs_done\": {runs_done}, \
                 \"count\": {count}, \"mean_bits\": {}, \"m2_bits\": {}, \"ssf_bits\": {}",
                info.chunk,
                info.level,
                bits_str(mean),
                bits_str(m2),
                bits_str(state.current_ssf()),
            );
            hub.emit("chunk_merged", elapsed_s, &extra);
        }
        if !hub.plan_emitted {
            if let Some(ratio) = state.plan_ratio {
                hub.plan_emitted = true;
                hub.emit(
                    "plan_frozen",
                    elapsed_s,
                    &format!(
                        ", \"chunk\": {}, \"ratio\": {}",
                        state.merged_chunks,
                        json_num(ratio)
                    ),
                );
            }
        }
        if let Some(wd) = hub.watchdog.as_mut() {
            wd.note_progress(Instant::now());
        }
        let event = ProgressEvent {
            runs_done,
            total_runs: n,
            ssf: state.current_ssf(),
            sample_variance: state.current_sample_variance(),
            ess: state.ess(),
            target_eps: options.target_eps,
            lln_bound: options.target_eps.map(|eps| state.lln_bound(eps)),
            class_counts: state.class_counts,
            counters: state.counters,
            kernel_counters: state.kernel_counters,
            elapsed_s,
            runs_per_sec,
            mlmc: (options.estimator == EstimatorKind::Mlmc).then(|| MlmcProgress {
                level: info.level,
                n0: state.level0.count(),
                n1: state.level1_diff.count(),
            }),
            chunk_wall: hub.registry.latency.chunk_wall.summary(),
        };
        if observer.on_progress(&event) == ObserverAction::Abort {
            return Some(StopReason::Aborted);
        }
        if let Some(eps) = options.target_eps {
            // With no success yet the sample variance is 0, so the plug-in
            // bound is met trivially: a zero-success run never converges
            // and runs on to its budget instead.
            if runs_done >= EARLY_STOP_MIN_RUNS
                && state.successes > 0
                && state.levels_ready()
                && state.lln_bound(eps) <= 1.0 - options.target_confidence
            {
                hub.emit(
                    "early_stop",
                    elapsed_s,
                    &format!(
                        ", \"runs_done\": {runs_done}, \"lln_bound\": {}, \"target_eps\": {}",
                        json_num(state.lln_bound(eps)),
                        json_num(eps)
                    ),
                );
                return Some(StopReason::TargetEps);
            }
        }
        let merged_since_start = state.merged_chunks - start_chunk;
        if merged_since_start.is_multiple_of(checkpoint_every_chunks)
            || state.merged_chunks == chunks
        {
            if let Some(path) = &options.checkpoint_path {
                let t_ck = Instant::now();
                state
                    .to_checkpoint(seed, n, strategy.name(), options.kernel)
                    .save(path)
                    .unwrap_or_else(|e| {
                        panic!("failed to write checkpoint {}: {e}", path.display())
                    });
                hub.registry
                    .latency
                    .checkpoint_write
                    .record(t_ck.elapsed().as_secs_f64());
                hub.registry.counter_add("checkpoints_written_total", 1);
                hub.emit(
                    "checkpoint_written",
                    start_time.elapsed().as_secs_f64(),
                    &format!(
                        ", \"runs_done\": {runs_done}, \"merged_chunks\": {}",
                        state.merged_chunks
                    ),
                );
            }
            // Durability point: events pushed to the OS, prom rewritten.
            hub.flush_events();
            hub.write_prom();
        }
        None
    };

    // Span tracing never feeds the statistics (it only reads the clock),
    // and provenance is copied *out* of the fold — so neither can change a
    // result bit. Provenance is recorded whenever the trace file or a
    // replay needs it.
    let sink = if options.trace_path.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let record_provenance = options.trace_path.is_some() || options.replay.is_some();
    let mut ring: VecDeque<ProvenanceRecord> = VecDeque::new();
    let mut success_log: Vec<ProvenanceRecord> = Vec::new();
    let mut replay_capture: Option<ProvenanceRecord> = None;

    // One merged chunk, the same in the single-thread loop and the threaded
    // merge loop: fold the partial in chunk order, absorb its latency shard,
    // publish the MLMC plan once the pilot is folded, keep its provenance,
    // then run the boundary.
    let mut merge_chunk = |state: &mut MergeState,
                           observer: &mut dyn CampaignObserver,
                           hub: &mut TelemetryHub,
                           mut p: ChunkPartial|
     -> Option<StopReason> {
        let chunk = state.merged_chunks;
        let prov = std::mem::take(&mut p.provenance);
        let level = p.level;
        let lat = std::mem::take(&mut p.latency);
        let info = ChunkMergeInfo {
            chunk,
            level,
            stats: p.stats,
        };
        state.fold(p, chunk_bounds(chunk).1);
        hub.registry.latency.absorb(&lat);
        if let Some(ratio) = state.plan_ratio {
            let _ = plan_cell.set(MlmcPlan { ratio });
        }
        absorb_provenance(
            prov,
            level,
            options.replay,
            &mut ring,
            &mut success_log,
            &mut replay_capture,
        );
        boundary(state, observer, hub, info)
    };

    let mut stop = StopReason::Completed;
    // Schedule-dependent resume and memo counters, folded in from every
    // worker scratch at thread exit; they surface in the metrics JSON only.
    let ff_total = Mutex::new(FastForwardStats::default());
    // Merge-path scheduling observability; all schedule-dependent.
    let mut merge_wait_s = 0.0f64;
    let mut reorder_peak = 0usize;
    let mut workers = 0usize;
    if start_chunk < chunks {
        let threads = options.effective_threads().clamp(1, chunks - start_chunk);
        // Workers of the compiled kernel share one lazily-filled cycle-value
        // cache (the values are a pure function of the injection cycle), so
        // adding threads no longer multiplies the warmup work. The MLMC
        // executors are scalar by design (the correction level is sampled
        // rarely, the cheap level never strikes the netlist), so they skip
        // the cache — which is also what makes `--estimator mlmc` results
        // trivially identical under both kernels.
        let cycle_cache = match options.kernel {
            CampaignKernel::Compiled if !mlmc_on => {
                Some(SharedCycleCache::new(runner.eval.golden.cycles))
            }
            _ => None,
        };
        let ff_total = &ff_total;
        let sink = &sink;
        let seu_map = &seu_map;
        let plan_cell = &plan_cell;
        // Shared with the plan-cell spin below: an aborting merger can
        // exit before the pilot is fully folded, in which case the plan
        // is never published and waiting workers must bail instead.
        let stop_flag = AtomicBool::new(false);
        let stop_flag = &stop_flag;
        // Each worker concludes every chunk it runs — scalar, compiled or
        // either MLMC level — through its one `FlowScratch`: one resident
        // resume system and one conclusion memo. The verdict is a pure
        // function of `(T_e, post-hardening bits)`, so per-worker memos never
        // change a result bit.
        let run_one = |c: usize,
                       flow: &mut FlowScratch,
                       batch: &mut BatchChunkScratch,
                       ctr: &mut CounterScratch,
                       tid: u32|
         -> ChunkPartial {
            let (start, end) = chunk_bounds(c);
            let _span = sink.span_args(tid, "campaign", "chunk", &[("chunk", c as f64)]);
            let chunk_t0 = Instant::now();
            let mut p = if let Some(map) = seu_map {
                let level = if c < MlmcEstimator::PILOT_CHUNKS {
                    MlmcEstimator::pilot_level(c)
                } else {
                    // The plan is published by the merger once the pilot
                    // prefix is folded; chunk indices are claimed in order,
                    // so the pilot is always in flight ahead of this wait.
                    // The wait can only end without a plan when an observer
                    // aborted mid-pilot and the merger left — the returned
                    // placeholder is behind the merge cursor and never folds.
                    let plan = loop {
                        if let Some(p) = plan_cell.get() {
                            break p;
                        }
                        if stop_flag.load(Ordering::Relaxed) {
                            return ChunkPartial::default();
                        }
                        std::thread::yield_now();
                    };
                    plan.level_of_chunk(c)
                };
                if level == LEVEL_RTL {
                    multilevel::run_chunk_level0(
                        runner,
                        strategy,
                        map,
                        seed,
                        start,
                        end,
                        flow,
                        ctr,
                        options.replay,
                    )
                } else {
                    multilevel::run_chunk_level1(
                        runner,
                        strategy,
                        map,
                        seed,
                        start,
                        end,
                        flow,
                        ctr,
                        record_provenance,
                    )
                }
            } else {
                match &cycle_cache {
                    Some(cache) => run_chunk_compiled(
                        runner,
                        strategy,
                        seed,
                        start,
                        end,
                        batch,
                        flow,
                        cache,
                        ctr,
                        record_provenance,
                        sink,
                        tid,
                    ),
                    None => run_chunk(
                        runner,
                        strategy,
                        seed,
                        start,
                        end,
                        flow,
                        ctr,
                        record_provenance,
                    ),
                }
            };
            // Harvest worker-side latency into the partial: the shard
            // rides the same in-order merge the statistics use, keeping
            // the telemetry deterministic in shape (counts differ only
            // in wall-clock values, never in which chunk they tag).
            p.latency.absorb(&flow.take_latency());
            p.latency.absorb(&batch.take_latency());
            p.latency
                .chunk_wall
                .record(chunk_t0.elapsed().as_secs_f64());
            p
        };
        let fold_ff = |flow: &FlowScratch| {
            ff_total
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .add(&flow.fast_forward_stats());
        };

        workers = threads;
        if threads <= 1 {
            let mut flow = FlowScratch::default();
            let mut batch = BatchChunkScratch::default();
            let mut ctr = CounterScratch::default();
            for c in start_chunk..chunks {
                let p = run_one(c, &mut flow, &mut batch, &mut ctr, 0);
                if let Some(reason) = merge_chunk(&mut state, observer, &mut hub, p) {
                    stop = reason;
                    break;
                }
            }
            fold_ff(&flow);
        } else {
            // Arm the stall watchdog only where stalls are observable:
            // the threaded merge loop, which can wait on recv while
            // workers grind. Needs the event log (the stall report is an
            // event) and a positive budget.
            if hub.events.is_some() && options.stall_timeout_s > 0.0 {
                hub.watchdog = Some(StallWatchdog::new(
                    Duration::from_secs_f64(options.stall_timeout_s),
                    Instant::now(),
                ));
            }
            // Which chunk each worker is currently executing
            // (`usize::MAX` = idle/between chunks) — the state dump a
            // worker_stalled event reports.
            let worker_states: Vec<AtomicUsize> =
                (0..threads).map(|_| AtomicUsize::new(usize::MAX)).collect();
            let worker_states = &worker_states;
            let next = AtomicUsize::new(start_chunk);
            let (tx, rx) = std::sync::mpsc::channel::<(usize, ChunkPartial)>();
            std::thread::scope(|s| {
                for (w, my_chunk) in worker_states.iter().enumerate() {
                    let tx = tx.clone();
                    let run_one = &run_one;
                    let next = &next;
                    let tid = (w + 1) as u32;
                    let fold_ff = &fold_ff;
                    s.spawn(move || {
                        let mut flow = FlowScratch::default();
                        let mut batch = BatchChunkScratch::default();
                        let mut ctr = CounterScratch::default();
                        loop {
                            if stop_flag.load(Ordering::Relaxed) {
                                break;
                            }
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= chunks {
                                break;
                            }
                            my_chunk.store(c, Ordering::Relaxed);
                            // A send fails only when the merger has
                            // stopped and dropped the receiver.
                            let p = run_one(c, &mut flow, &mut batch, &mut ctr, tid);
                            my_chunk.store(usize::MAX, Ordering::Relaxed);
                            if tx.send((c, p)).is_err() {
                                break;
                            }
                        }
                        fold_ff(&flow);
                    });
                }
                drop(tx);
                // Reorder buffer for partials that arrive ahead of the
                // merge cursor; folds always happen in chunk order.
                let mut pending: BTreeMap<usize, ChunkPartial> = BTreeMap::new();
                'merge: while state.merged_chunks < chunks {
                    let wait = Instant::now();
                    // With a watchdog armed, wait in budget-sized slices
                    // so a silent worker pool is reported instead of
                    // blocking forever unobserved.
                    let received = loop {
                        match hub.watchdog.as_ref().map(StallWatchdog::budget) {
                            None => break rx.recv().ok(),
                            Some(budget) => match rx.recv_timeout(budget) {
                                Ok(msg) => break Some(msg),
                                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                                    let now = Instant::now();
                                    let stalled =
                                        hub.watchdog.as_mut().and_then(|wd| wd.check(now));
                                    if let Some(stalled_for) = stalled {
                                        hub.registry.counter_add("stalls_total", 1);
                                        let dump: Vec<String> = worker_states
                                            .iter()
                                            .map(|st| match st.load(Ordering::Relaxed) {
                                                usize::MAX => "null".to_owned(),
                                                c => c.to_string(),
                                            })
                                            .collect();
                                        let extra = format!(
                                            ", \"stalled_for_s\": {}, \"budget_s\": {}, \
                                             \"merge_cursor\": {}, \"worker_chunks\": [{}]",
                                            json_num(stalled_for.as_secs_f64()),
                                            json_num(options.stall_timeout_s),
                                            state.merged_chunks,
                                            dump.join(", "),
                                        );
                                        hub.emit(
                                            "worker_stalled",
                                            start_time.elapsed().as_secs_f64(),
                                            &extra,
                                        );
                                        hub.flush_events();
                                    }
                                }
                                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break None,
                            },
                        }
                    };
                    let Some((c, p)) = received else { break };
                    let waited = wait.elapsed().as_secs_f64();
                    merge_wait_s += waited;
                    hub.registry.latency.merge_wait.record(waited);
                    pending.insert(c, p);
                    reorder_peak = reorder_peak.max(pending.len());
                    while let Some(p) = pending.remove(&state.merged_chunks) {
                        if let Some(reason) = merge_chunk(&mut state, observer, &mut hub, p) {
                            stop = reason;
                            stop_flag.store(true, Ordering::Relaxed);
                            break 'merge;
                        }
                    }
                }
                drop(rx);
            });
        }
    }

    // A resume of an already-completed checkpoint merges no chunk, so the
    // boundary never ran: publish the final state for the last prom write.
    state.publish(&mut hub.registry);
    let elapsed_s = start_time.elapsed().as_secs_f64();
    let fresh = (state.runs_merged() - resumed_runs) as f64;
    let fast_forward = ff_total
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scheduler = SchedulerStats {
        workers,
        merge_wait_s,
        reorder_peak,
    };
    let program = match runner.model.mpu.netlist().program() {
        Ok(p) => ProgramStats {
            levels: p.levels(),
            gates: p.len(),
            lane_width: options.kernel.lane_width(),
            sweeps: state.kernel_counters.lane_batches,
        },
        Err(_) => ProgramStats {
            lane_width: options.kernel.lane_width(),
            ..ProgramStats::default()
        },
    };
    let meta = MetricsMeta {
        seed,
        requested_runs: n,
        target_eps: options.target_eps,
        target_confidence: options.target_confidence,
        elapsed_s,
        runs_per_sec: if elapsed_s > 0.0 {
            fresh / elapsed_s
        } else {
            0.0
        },
        host_cpus: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        fast_forward,
        kernel: options.kernel,
        program,
        scheduler,
        latency: hub.registry.latency.summaries(),
    };
    let result = state.into_result(strategy.name(), stop, options.trace_points);
    observer.on_finish(&result);

    // Replay before writing the trace so the replay spans land in the file.
    // The run is re-executed *at the level the campaign evaluated it*: under
    // MLMC a level-0 run's recorded verdict is the SEU-map conclusion, which
    // legitimately differs from the gate flow wherever the correction term
    // is non-zero — replaying the wrong level would spuriously fail the
    // cross-check below.
    if let Some(idx) = options.replay {
        let level = result
            .mlmc
            .as_ref()
            .and_then(|m| m.chunk_levels.get(idx as usize / CHUNK_RUNS))
            .copied()
            .unwrap_or(LEVEL_GATE);
        let rec = if level == LEVEL_RTL {
            let map = seu_map
                .as_ref()
                .expect("an MLMC result implies the SEU map was built");
            multilevel::replay_run_level0(runner, map, strategy, seed, idx)
        } else {
            replay_run(runner, strategy, seed, idx, &sink)
        };
        eprintln!(
            "[replay] run {idx} (level={}): t={} center={} radius={} phase={} te={:?} w={} \
             class={} success={} analytic={}",
            if level == LEVEL_RTL { "rtl" } else { "gate" },
            rec.t,
            rec.center.index(),
            rec.radius,
            rec.phase,
            rec.te,
            rec.weight,
            trace::class_str(rec.class),
            rec.success,
            rec.analytic,
        );
        match &replay_capture {
            Some(orig) => {
                assert_eq!(
                    *orig, rec,
                    "replay of run {idx} diverged from the campaign's provenance record"
                );
                eprintln!("[replay] verdict matches the campaign's record for run {idx}");
                hub.emit(
                    "replay_verified",
                    start_time.elapsed().as_secs_f64(),
                    &format!(", \"run\": {idx}, \"level\": {level}"),
                );
            }
            None => eprintln!(
                "[replay] run {idx} was not executed by this campaign invocation \
                 (n = {}, resumed prefix = {resumed_runs}); nothing to compare",
                result.n
            ),
        }
    }

    if let Some(path) = &options.trace_path {
        sink.print_self_time(strategy.name());
        let ff = &meta.fast_forward;
        eprintln!(
            "[fast-forward] resumes {} | memo hits {} / lookups {} (hit rate {:.1}%)",
            ff.rtl_resumes,
            ff.memo_hits,
            ff.memo_lookups,
            100.0 * ff.memo_hit_rate(),
        );
        eprintln!(
            "[kernel] {}: {} levels x {} gates, {} lanes/sweep, {} sweeps",
            meta.kernel.as_arg(),
            meta.program.levels,
            meta.program.gates,
            meta.program.lane_width,
            meta.program.sweeps,
        );
        eprintln!(
            "[scheduler] {} workers | merge wait {:.3}s | reorder peak {}",
            meta.scheduler.workers, meta.scheduler.merge_wait_s, meta.scheduler.reorder_peak,
        );
        let ring: Vec<ProvenanceRecord> = ring.into_iter().collect();
        if let Err(e) = trace::write_trace(
            path,
            &sink,
            &result.counters,
            &result.kernel_counters,
            &ring,
            &success_log,
        ) {
            eprintln!("failed to write trace {}: {e}", path.display());
        }
    }

    hub.registry.gauge_set("workers", workers as f64);
    hub.emit(
        "campaign_finished",
        start_time.elapsed().as_secs_f64(),
        &format!(
            ", \"stop_reason\": \"{}\", \"n\": {}, \"ssf_bits\": {}, \"successes\": {}",
            result.stop.as_str(),
            result.n,
            bits_str(result.ssf),
            result.successes,
        ),
    );
    hub.flush_events();
    hub.write_prom();

    if let Some(path) = &options.metrics_path {
        if let Err(e) = telemetry::write_metrics(path, &result, &meta) {
            eprintln!("failed to write metrics {}: {e}", path.display());
        }
    }
    result
}

/// Absorb one merged chunk's provenance: keep the trailing
/// [`PROVENANCE_RING_CAP`] records, every success, and the `--replay`
/// target's record. Called in chunk order, so the ring holds the last runs
/// of the merged prefix.
fn absorb_provenance(
    prov: Vec<ProvenanceRecord>,
    level: u8,
    replay_target: Option<u64>,
    ring: &mut VecDeque<ProvenanceRecord>,
    successes: &mut Vec<ProvenanceRecord>,
    capture: &mut Option<ProvenanceRecord>,
) {
    for rec in prov {
        if replay_target == Some(rec.run_index) {
            *capture = Some(rec.clone());
        }
        // A level-0 chunk's only record is the replay target; the trace
        // ring and the success log stay gate-level notions.
        if level == LEVEL_RTL {
            continue;
        }
        if rec.success {
            successes.push(rec.clone());
        }
        ring.push_back(rec);
        if ring.len() > PROVENANCE_RING_CAP {
            ring.pop_front();
        }
    }
}

/// Re-derive and re-execute campaign run `run_index` solo: the same
/// `SplitMix64::for_run(seed, run_index)` stream, a fresh scratch, full
/// span tracing. Returns the run's provenance record, which must equal the
/// campaign's (the run is a pure function of `(seed, run_index, strategy)`).
pub fn replay_run(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    run_index: u64,
    sink: &TraceSink,
) -> ProvenanceRecord {
    let _run = sink.span_args(0, "replay", "replay-run", &[("run", run_index as f64)]);
    let mut rng = SplitMix64::for_run(seed, run_index);
    let (sample, w) = {
        let _draw = sink.span("replay", "draw");
        let sample = strategy.draw(&mut rng);
        let w = strategy.weight(&sample);
        (sample, w)
    };
    let mut scratch = FlowScratch::default();
    let outcome = {
        let _exec = sink.span("replay", "strike+conclude");
        runner
            .run_with(&sample, &mut rng, &mut scratch)
            .to_outcome()
    };
    ProvenanceRecord {
        run_index,
        t: sample.t,
        center: sample.center,
        radius: sample.radius,
        phase: sample.phase,
        te: outcome.injection_cycle,
        weight: w,
        class: outcome.class,
        success: outcome.success,
        analytic: outcome.analytic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Evaluation, SystemModel};
    use crate::precharacterize::Precharacterization;
    use crate::sampling::{
        baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling,
    };
    use xlmc_soc::workloads;

    struct Fixture {
        model: SystemModel,
        eval: Evaluation,
        prechar: Precharacterization,
        cfg: ExperimentConfig,
    }

    fn fixture() -> Fixture {
        let model = SystemModel::with_defaults().unwrap();
        let eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let cfg = ExperimentConfig {
            t_max: 20,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            eval,
            prechar,
            cfg,
        }
    }

    fn runner(f: &Fixture) -> FaultRunner<'_> {
        FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn random_campaign_produces_consistent_counters() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 400, 42);
        assert_eq!(result.n, 400);
        assert_eq!(result.class_counts.total(), 400);
        assert_eq!(
            result.class_counts.memory_only + result.class_counts.mixed,
            result.analytic_runs + result.rtl_runs
        );
        assert!((0.0..=1.0).contains(&result.ssf));
        assert_eq!(result.trace.last().unwrap().0, 400);
        assert_eq!(result.strategy, "random");
        assert_eq!(result.stop, StopReason::Completed);
        // The baseline draws unit weights, so ESS equals n exactly.
        assert_eq!(result.ess, 400.0);
    }

    /// The chunk-local counters name conclusion keys by the worker memo's
    /// ids. On a worker whose memo was warmed by chunks `0..k` (run in
    /// reverse, so chunk `k` meets ids assigned before it and out of its
    /// own first-occurrence order), every executor must count chunk `k`
    /// exactly as on a fresh worker.
    #[test]
    fn chunk_counters_do_not_depend_on_memo_warmth() {
        let f = fixture();
        let r = runner(&f);
        let strat = ImportanceSampling::new(
            baseline_distribution(&f.model, &f.cfg),
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let map = SetToSeuMap::build(&f.model, &f.eval, &f.prechar);
        let cache = SharedCycleCache::new(f.eval.golden.cycles);
        const CHUNK: usize = 192;
        let k = 4;
        #[derive(Default)]
        struct Worker {
            flow: FlowScratch,
            batch: BatchChunkScratch,
            ctr: CounterScratch,
        }
        let run = |exec: &str, c: usize, w: &mut Worker| -> CampaignCounters {
            let (start, end) = (c * CHUNK, (c + 1) * CHUNK);
            let Worker { flow, batch, ctr } = w;
            let p = match exec {
                "scalar" => run_chunk(&r, &strat, 5, start, end, flow, ctr, false),
                "compiled" => run_chunk_compiled(
                    &r,
                    &strat,
                    5,
                    start,
                    end,
                    batch,
                    flow,
                    &cache,
                    ctr,
                    false,
                    &TraceSink::disabled(),
                    0,
                ),
                "level0" => {
                    multilevel::run_chunk_level0(&r, &strat, &map, 5, start, end, flow, ctr, None)
                }
                _ => {
                    multilevel::run_chunk_level1(&r, &strat, &map, 5, start, end, flow, ctr, false)
                }
            };
            p.counters
        };
        for exec in ["scalar", "compiled", "level0", "level1"] {
            let mut fresh = Worker::default();
            let want = run(exec, k, &mut fresh);
            let fresh_hits = fresh.flow.fast_forward_stats().memo_hits;
            assert!(want.conclusion_memo_misses > 0, "{exec}: {want:?}");
            assert!(want.conclusion_memo_hits > 0, "{exec}: {want:?}");

            let mut warm = Worker::default();
            for c in (0..k).rev() {
                run(exec, c, &mut warm);
            }
            let before = warm.flow.fast_forward_stats().memo_hits;
            let got = run(exec, k, &mut warm);
            let warm_hits = warm.flow.fast_forward_stats().memo_hits - before;
            assert!(
                warm_hits > fresh_hits,
                "{exec}: chunk {k} should reuse keys of earlier chunks \
                 ({warm_hits} vs {fresh_hits} memo hits)"
            );
            assert_eq!(got, want, "{exec}");
        }
    }

    #[test]
    fn random_campaign_finds_some_successes() {
        // The sub-block contains persistent config cells; with t up to 20
        // and 400 shots the baseline should land a few.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 400, 7);
        assert!(result.successes > 0, "no successes in 400 random shots");
        assert!(result.ssf > 0.0);
        assert!(!result.attribution.is_empty());
    }

    #[test]
    fn importance_campaign_matches_random_estimate() {
        // Unbiasedness end-to-end: both estimators target the same SSF.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let random = RandomSampling::new(fd.clone());
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let a = run_campaign(&r, &random, 1200, 1);
        let b = run_campaign(&r, &is, 1200, 2);
        assert!(a.ssf > 0.0 && b.ssf > 0.0);
        let ratio = a.ssf / b.ssf;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "random {} vs importance {}",
            a.ssf,
            b.ssf
        );
        // A skewed proposal has non-unit weights, so its ESS drops below n
        // but must stay positive.
        assert!(b.ess > 0.0 && b.ess <= 1200.0 + 1e-9, "ess {}", b.ess);
    }

    #[test]
    fn importance_variance_is_much_smaller() {
        // The headline claim: importance sampling slashes the sample
        // variance (paper: 0.0261 -> 9.7e-5).
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let random = RandomSampling::new(fd.clone());
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let a = run_campaign(&r, &random, 800, 10);
        let b = run_campaign(&r, &is, 800, 11);
        assert!(
            b.sample_variance < a.sample_variance,
            "importance {} !< random {}",
            b.sample_variance,
            a.sample_variance
        );
        assert!(b.lln_bound(0.01) < a.lln_bound(0.01));
    }

    #[test]
    fn masked_strikes_dominate() {
        // Paper Figure 10(a): most strikes are masked.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign(&r, &strat, 300, 20);
        let (masked, _, _) = result.class_counts.fractions();
        assert!(masked > 0.3, "masked fraction {masked}");
    }

    #[test]
    fn trace_has_no_duplicate_points_and_ends_at_n() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        // n both divisible and not divisible by the shard size, n < shard
        // size, and n below the old 200-point threshold (the historical
        // duplicate-final-point case).
        for n in [32, 64, 150, 190, 200, 333] {
            let result = run_campaign(&r, &strat, n, 5);
            let trace = &result.trace;
            assert_eq!(trace.last().unwrap().0, n, "n = {n}");
            for w in trace.windows(2) {
                assert!(w[0].0 < w[1].0, "n = {n}: non-increasing trace {trace:?}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let sequential = run_campaign_with(&r, &strat, 200, 13, &CampaignOptions::with_threads(1));
        for threads in [2, 4, 7] {
            let parallel =
                run_campaign_with(&r, &strat, 200, 13, &CampaignOptions::with_threads(threads));
            assert_eq!(sequential.ssf, parallel.ssf, "threads = {threads}");
            assert_eq!(
                sequential.sample_variance, parallel.sample_variance,
                "threads = {threads}"
            );
            assert_eq!(sequential.successes, parallel.successes);
            assert_eq!(sequential.class_counts, parallel.class_counts);
            assert_eq!(sequential.analytic_runs, parallel.analytic_runs);
            assert_eq!(sequential.rtl_runs, parallel.rtl_runs);
            assert_eq!(sequential.attribution, parallel.attribution);
            assert_eq!(sequential.trace, parallel.trace);
            assert_eq!(sequential.ess, parallel.ess);
        }
    }

    #[test]
    fn kernel_choice_does_not_change_the_result() {
        // The full campaign result — estimate, variance, trace, class
        // split, attribution — is bit-identical between the scalar and the
        // 256-lane compiled kernel, for every strategy and thread count.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
            Box::new(RandomSampling::new(fd.clone())),
            Box::new(crate::sampling::ConeSampling::new(
                fd.clone(),
                &f.prechar,
                f.cfg.radius_options.clone(),
            )),
            Box::new(ImportanceSampling::new(
                fd,
                &f.model,
                &f.prechar,
                f.cfg.alpha,
                f.cfg.beta,
                f.cfg.radius_options.clone(),
            )),
        ];
        for strat in &strategies {
            let scalar = run_campaign_with(
                &r,
                strat.as_ref(),
                500,
                17,
                &CampaignOptions::with_kernel(CampaignKernel::Scalar),
            );
            for threads in [1usize, 2, 4] {
                let opts = CampaignOptions {
                    threads,
                    ..CampaignOptions::with_kernel(CampaignKernel::Compiled)
                };
                let packed = run_campaign_with(&r, strat.as_ref(), 500, 17, &opts);
                // Kernel-shape counters (lane occupancy, batch-wide op
                // visits) legitimately differ between kernels; everything
                // else must be bit-identical.
                let mut packed = packed;
                packed.kernel_counters = scalar.kernel_counters;
                assert_eq!(
                    scalar,
                    packed,
                    "strategy {} threads {threads}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn packed_kernels_handle_partial_tail_batches() {
        // runs not divisible by the lane width must not drop or duplicate
        // runs: the compiled kernel equals the scalar reference at every
        // tail shape (the 256-lane boundary, the 64-bit word boundaries
        // inside a sweep, and odd tails around both).
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        for n in [1usize, 63, 64, 65, 127, 128, 129, 191, 255, 256, 257] {
            let scalar = run_campaign_with(
                &r,
                &strat,
                n,
                23,
                &CampaignOptions::with_kernel(CampaignKernel::Scalar),
            );
            assert_eq!(scalar.n, n);
            assert_eq!(scalar.class_counts.total(), n, "n = {n}");
            let mut packed = run_campaign_with(
                &r,
                &strat,
                n,
                23,
                &CampaignOptions::with_kernel(CampaignKernel::Compiled),
            );
            packed.kernel_counters = scalar.kernel_counters;
            assert_eq!(scalar, packed, "n = {n}");
        }
    }

    #[test]
    fn kernel_arg_parses() {
        let mut opts = CampaignOptions::default();
        assert_eq!(opts.kernel, CampaignKernel::Compiled);
        opts.set_kernel_arg("scalar").unwrap();
        assert_eq!(opts.kernel, CampaignKernel::Scalar);
        opts.set_kernel_arg("compiled").unwrap();
        assert_eq!(opts.kernel, CampaignKernel::Compiled);
        // An unknown kernel — including the removed 64-lane "batched"
        // kernel — is an error, not a silently kept default.
        for bad in ["bogus", "batched"] {
            for argv in [
                args(&["--kernel", bad]),
                args(&[&format!("--kernel={bad}")]),
            ] {
                let err = CampaignOptions::parse_args(argv).unwrap_err();
                assert!(err.contains("--kernel") && err.contains(bad), "{err}");
            }
            assert!(opts.set_kernel_arg(bad).is_err());
        }
        assert_eq!(opts.kernel, CampaignKernel::Compiled);
    }

    #[test]
    fn campaign_options_resolve_threads() {
        assert_eq!(CampaignOptions::default().effective_threads(), 1);
        assert_eq!(CampaignOptions::with_threads(4).effective_threads(), 4);
        assert!(CampaignOptions::with_threads(0).effective_threads() >= 1);
    }

    #[test]
    fn bad_threads_value_is_an_error_not_a_silent_default() {
        // Regression: `--threads foo` used to be swallowed and the default
        // of 1 used, so a typo silently serialized a 32-core campaign.
        for argv in [
            args(&["--threads", "foo"]),
            args(&["--threads=foo"]),
            args(&["--threads", "-3"]),
            args(&["--threads"]),
        ] {
            let err = CampaignOptions::parse_args(argv.clone()).unwrap_err();
            assert!(err.contains("--threads"), "argv {argv:?}: {err}");
        }
        let ok = CampaignOptions::parse_args(args(&["--threads", "6"])).unwrap();
        assert_eq!(ok.threads, 6);
        let ok = CampaignOptions::parse_args(args(&["--threads=8"])).unwrap();
        assert_eq!(ok.threads, 8);
    }

    #[test]
    fn telemetry_args_parse_and_validate() {
        let opts = CampaignOptions::parse_args(args(&[
            "--target-eps",
            "0.01",
            "--target-confidence=0.99",
            "--metrics",
            "out/metrics.json",
            "--checkpoint=ck.json",
            "--checkpoint-every",
            "2048",
        ]))
        .unwrap();
        assert_eq!(opts.target_eps, Some(0.01));
        assert_eq!(opts.target_confidence, 0.99);
        assert_eq!(
            opts.metrics_path.as_deref(),
            Some(std::path::Path::new("out/metrics.json"))
        );
        assert_eq!(
            opts.checkpoint_path.as_deref(),
            Some(std::path::Path::new("ck.json"))
        );
        assert_eq!(opts.checkpoint_every_runs, 2048);

        assert!(CampaignOptions::parse_args(args(&["--target-eps", "-0.5"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--target-eps", "nope"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--target-confidence", "1.5"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--checkpoint-every", "0"])).is_err());
    }

    #[test]
    fn trace_and_replay_args_parse_and_validate() {
        let opts = CampaignOptions::parse_args(args(&["--trace", "out/trace.json", "--replay=42"]))
            .unwrap();
        assert_eq!(
            opts.trace_path.as_deref(),
            Some(std::path::Path::new("out/trace.json"))
        );
        assert_eq!(opts.replay, Some(42));
        assert!(CampaignOptions::parse_args(args(&["--replay", "nope"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--replay", "-1"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--trace"])).is_err());
    }

    /// A flag the engine does not own is an error, not a skipped
    /// argument, so a misspelled `--thraeds 4` never runs single-threaded.
    #[test]
    fn unknown_flags_are_an_error_not_skipped() {
        for argv in [
            args(&["--thraeds", "4"]),
            args(&["--threads", "2", "--smoke"]),
            args(&["--bench-json=out/bench.json"]),
            args(&["positional"]),
        ] {
            let err = CampaignOptions::parse_args(argv.clone()).unwrap_err();
            assert!(err.starts_with("unknown flag"), "argv {argv:?}: {err}");
        }
        let err = CampaignOptions::parse_args(args(&["--thraeds", "4"])).unwrap_err();
        assert!(err.contains("--thraeds"), "{err}");
    }

    #[test]
    fn usage_mentions_every_value_flag() {
        let usage = CampaignOptions::usage();
        for &flag in CampaignOptions::VALUE_FLAGS {
            assert!(usage.contains(flag), "usage is missing {flag}");
        }
        assert!(usage.contains("--help"), "usage is missing --help");
    }

    /// The inverse contract: every value flag the help table advertises is
    /// actually accepted by the parser (an unknown flag is an error).
    #[test]
    fn every_value_flag_round_trips_through_the_parser() {
        for &flag in CampaignOptions::VALUE_FLAGS {
            let value = match flag {
                "--kernel" => "scalar",
                "--estimator" => "mlmc",
                "--target-eps" => "0.01",
                "--target-confidence" => "0.9",
                "--stall-timeout" => "2.5",
                "--metrics" | "--checkpoint" | "--trace" | "--events" | "--prom" => "/tmp/x.json",
                _ => "3",
            };
            CampaignOptions::parse_args([flag.to_owned(), value.to_owned()])
                .unwrap_or_else(|e| panic!("{flag} rejected a valid value: {e}"));
            // A missing value must be a readable error, not a panic.
            let err = CampaignOptions::parse_args([flag.to_owned()]).unwrap_err();
            assert!(err.contains(flag), "{err:?} does not name {flag}");
        }
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let a = run_campaign(&r, &strat, 150, 99);
        let b = run_campaign(&r, &strat, 150, 99);
        assert_eq!(a.ssf, b.ssf);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.class_counts, b.class_counts);
    }

    #[test]
    fn observer_sees_every_chunk_boundary_in_order() {
        struct Collect(Vec<ProgressEvent>, usize);
        impl CampaignObserver for Collect {
            fn on_progress(&mut self, ev: &ProgressEvent) -> ObserverAction {
                self.0.push(ev.clone());
                ObserverAction::Continue
            }
            fn on_finish(&mut self, _r: &CampaignResult) {
                self.1 += 1;
            }
        }
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 3 * CHUNK_RUNS + 100;
        let mut obs = Collect(Vec::new(), 0);
        let result =
            run_campaign_observed(&r, &strat, n, 31, &CampaignOptions::default(), &mut obs);
        assert_eq!(obs.1, 1, "on_finish fires once");
        assert_eq!(obs.0.len(), 4, "one event per chunk");
        assert_eq!(
            obs.0.iter().map(|e| e.runs_done).collect::<Vec<_>>(),
            vec![512, 1024, 1536, n]
        );
        let last = obs.0.last().unwrap();
        assert_eq!(last.ssf, result.ssf);
        assert_eq!(last.sample_variance, result.sample_variance);
        assert_eq!(last.ess, result.ess);
        assert_eq!(last.class_counts, result.class_counts);
    }

    #[test]
    fn observer_abort_stops_at_a_chunk_boundary() {
        struct AbortImmediately;
        impl CampaignObserver for AbortImmediately {
            fn on_progress(&mut self, _ev: &ProgressEvent) -> ObserverAction {
                ObserverAction::Abort
            }
        }
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let result = run_campaign_observed(
            &r,
            &strat,
            4 * CHUNK_RUNS,
            31,
            &CampaignOptions::default(),
            &mut AbortImmediately,
        );
        assert_eq!(result.stop, StopReason::Aborted);
        assert_eq!(result.n, CHUNK_RUNS);
        assert_eq!(result.class_counts.total(), CHUNK_RUNS);
    }

    #[test]
    fn target_eps_stops_early_and_meets_the_bound() {
        // A loose eps is satisfiable almost immediately, but never before
        // the EARLY_STOP_MIN_RUNS guard.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let opts = CampaignOptions {
            target_eps: Some(0.5),
            ..CampaignOptions::default()
        };
        let result = run_campaign_with(&r, &strat, 8 * CHUNK_RUNS, 31, &opts);
        assert_eq!(result.stop, StopReason::TargetEps);
        assert_eq!(result.n, EARLY_STOP_MIN_RUNS);
        assert!(result.lln_bound(0.5) <= 1.0 - opts.target_confidence);
    }

    #[test]
    fn estimator_arg_parses() {
        let opts = CampaignOptions::parse_args(args(&["--estimator", "mlmc"])).unwrap();
        assert_eq!(opts.estimator, EstimatorKind::Mlmc);
        let opts = CampaignOptions::parse_args(args(&["--estimator=single"])).unwrap();
        assert_eq!(opts.estimator, EstimatorKind::Single);
        assert_eq!(CampaignOptions::default().estimator, EstimatorKind::Single);
        assert!(CampaignOptions::parse_args(args(&["--estimator", "both"])).is_err());
        assert!(CampaignOptions::parse_args(args(&["--estimator"])).is_err());
    }

    fn mlmc_opts() -> CampaignOptions {
        CampaignOptions {
            estimator: EstimatorKind::Mlmc,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn mlmc_summary_is_internally_consistent() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 6 * CHUNK_RUNS;
        let result = run_campaign_with(&r, &strat, n, 42, &mlmc_opts());
        assert_eq!(result.estimator, EstimatorKind::Mlmc);
        assert_eq!(result.n, n);
        let m = result.mlmc.as_ref().expect("mlmc summary present");
        assert_eq!((m.n0 + m.n1) as usize, n);
        assert!(m.n0 > 0 && m.n1 > 0);
        // The pilot alternates starting with the coupled level, so the
        // correction stream is never empty.
        assert_eq!(&m.chunk_levels[..4], &[1, 0, 1, 0]);
        assert_eq!(m.chunk_levels.len(), n.div_ceil(CHUNK_RUNS));
        assert!(m.plan_ratio.is_some(), "plan frozen after the pilot");
        // The telescoped point estimate is the sum of the level means.
        assert!((result.ssf - (m.mean0 + m.mean1_diff)).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&result.ssf));
        // Every run — cheap or coupled — is classified, so the class
        // split still covers the whole campaign.
        assert_eq!(result.class_counts.total(), n);
    }

    #[test]
    fn mlmc_result_is_thread_and_kernel_invariant() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let n = 6 * CHUNK_RUNS;
        let base = run_campaign_with(&r, &strat, n, 57, &mlmc_opts());
        for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
            for threads in [1usize, 4] {
                let opts = CampaignOptions {
                    kernel,
                    threads,
                    ..mlmc_opts()
                };
                let got = run_campaign_with(&r, &strat, n, 57, &opts);
                // The MLMC executors are scalar at every level, so even the
                // kernel-shape counters are identical — full bit equality.
                assert_eq!(base, got, "kernel {kernel:?} threads {threads}");
            }
        }
    }

    #[test]
    fn mlmc_estimate_agrees_with_single() {
        // Both estimators are unbiased for the same SSF; with coupled
        // seeds the two point estimates from the same stream family must
        // land within a few combined standard errors of each other.
        let f = fixture();
        let r = runner(&f);
        let fd = baseline_distribution(&f.model, &f.cfg);
        let is = ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let n = 8 * CHUNK_RUNS;
        let single = run_campaign_with(&r, &is, n, 5, &CampaignOptions::default());
        let mlmc = run_campaign_with(&r, &is, n, 5, &mlmc_opts());
        let m = mlmc.mlmc.as_ref().unwrap();
        let se = (single.sample_variance / n as f64 + m.estimator_variance())
            .sqrt()
            .max(1e-4);
        assert!(
            (single.ssf - mlmc.ssf).abs() <= 5.0 * se,
            "single {} vs mlmc {} (se {se})",
            single.ssf,
            mlmc.ssf
        );
    }

    #[test]
    fn mlmc_target_eps_stop_is_deterministic() {
        // The stopping rule must wait for both levels to have samples; the
        // alternating pilot guarantees that by the EARLY_STOP_MIN_RUNS
        // guard, so a loose eps stops at exactly the same prefix as the
        // single estimator would.
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let opts = CampaignOptions {
            target_eps: Some(0.5),
            ..mlmc_opts()
        };
        let result = run_campaign_with(&r, &strat, 8 * CHUNK_RUNS, 31, &opts);
        assert_eq!(result.stop, StopReason::TargetEps);
        assert_eq!(result.n, EARLY_STOP_MIN_RUNS);
        let m = result.mlmc.as_ref().unwrap();
        assert_eq!(m.chunk_levels, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "estimator")]
    fn checkpoint_estimator_mismatch_panics() {
        let f = fixture();
        let r = runner(&f);
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let dir = std::env::temp_dir().join(format!("xlmc-estmm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        let _ = std::fs::remove_file(&ck);
        let opts = CampaignOptions {
            checkpoint_path: Some(ck.clone()),
            checkpoint_every_runs: CHUNK_RUNS,
            ..CampaignOptions::default()
        };
        run_campaign_with(&r, &strat, 2 * CHUNK_RUNS, 3, &opts);
        assert!(ck.is_file(), "single-estimator checkpoint written");
        let resume = CampaignOptions {
            checkpoint_path: Some(ck),
            ..mlmc_opts()
        };
        run_campaign_with(&r, &strat, 2 * CHUNK_RUNS, 3, &resume);
    }
}
