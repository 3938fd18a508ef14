//! The three workloads and the pipeline of one answer: what a single CLI
//! invocation pays for, from model build to an SSF that meets eps.

use crate::stats::{check_answer, AnswerFacts, AnswerFault};
use rand::RngCore;
use std::path::PathBuf;
use std::time::Instant;
use xlmc::estimator::{run_campaign_observed, CampaignOptions, CampaignResult, EstimatorKind};
use xlmc::flow::FaultRunner;
use xlmc::rng::SplitMix64;
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::telemetry::NullObserver;
use xlmc::trace::TraceSink;
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_fault::DoubleGlitch;
use xlmc_soc::{workloads, Workload};

/// The accuracy every answer is asked for.
pub const EPS: f64 = 1e-3;
/// Confidence of the `target_eps` stop.
pub const CONFIDENCE: f64 = 0.95;
/// Run budget of one campaign. Every workload reaches eps well below it,
/// so a campaign that exhausts it is a failed answer, not a slow one.
pub const RUN_CAP: usize = 1 << 26;

/// How a workload draws its attack samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// The paper's importance-sampling proposal `g_{T,P}`.
    Importance,
    /// Plain Monte Carlo from the attacker distribution (the paper's
    /// baseline); it builds no proposal.
    Random,
}

/// The oracle SSF an answer is checked against: a long random-sampling
/// campaign of the same attack and fault mode, on a seed no answer uses.
/// The values below were produced by `--oracle-runs 32000000` (see the
/// README) and change only when the engine's SSF does.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub ssf: f64,
    /// 95% normal half-width of the oracle's own estimate.
    pub half_width: f64,
    pub runs: usize,
    pub seed: u64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub attack: fn() -> Workload,
    pub sampling: Sampling,
    pub double_glitch: bool,
    pub estimator: EstimatorKind,
    pub threads: usize,
    pub reference: Reference,
}

/// Oracle seeds have the top bit set; answer seeds never do (see
/// [`answer_seed`]), so the two sets are disjoint.
pub const ORACLE_SEED: u64 = (1 << 63) | 0x0AC1E;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "write_is",
        attack: workloads::illegal_write,
        sampling: Sampling::Importance,
        double_glitch: false,
        estimator: EstimatorKind::Single,
        threads: 1,
        reference: Reference {
            ssf: 0.020441281249999867,
            half_width: 4.902870056799115e-5,
            runs: 32_000_000,
            seed: ORACLE_SEED,
        },
    },
    Spec {
        name: "dglitch_random",
        attack: workloads::illegal_write,
        sampling: Sampling::Random,
        double_glitch: true,
        estimator: EstimatorKind::Single,
        threads: 1,
        reference: Reference {
            ssf: 0.03936203125000008,
            half_width: 6.737514515345208e-5,
            runs: 32_000_000,
            seed: ORACLE_SEED,
        },
    },
    // Random, not importance sampling: on `trap_escalation` the proposal
    // has no mass where 2.3e-3 of the SSF lies, so every importance-sampling
    // answer misses the reference by more than eps (see the README).
    Spec {
        name: "trap_mlmc_t2",
        attack: workloads::trap_escalation,
        sampling: Sampling::Random,
        double_glitch: false,
        estimator: EstimatorKind::Mlmc,
        threads: 2,
        reference: Reference {
            ssf: 0.10914034375000067,
            half_width: 0.00010803846211026626,
            runs: 32_000_000,
            seed: ORACLE_SEED,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The campaign seed of answer `k` of a run with workload seed `seed`: the
/// engine's own per-run stream derivation, top bit cleared.
pub fn answer_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::for_run(seed, k).next_u64() >> 1
}

/// Everything built before the campaign starts.
pub struct Built {
    pub cfg: ExperimentConfig,
    pub model: SystemModel,
    pub eval: Evaluation,
    pub prechar: Precharacterization,
    pub strategy: Box<dyn SamplingStrategy>,
    pub glitch: Option<DoubleGlitch>,
}

impl Built {
    pub fn runner(&self) -> FaultRunner<'_> {
        FaultRunner {
            model: &self.model,
            eval: &self.eval,
            prechar: &self.prechar,
            hardening: None,
            multi_fault: self.glitch.as_ref(),
        }
    }
}

/// Build the model, golden run, pre-characterization and proposal, each
/// call under a span on `sink` tagged with the answer index.
pub fn build(spec: &Spec, sink: &TraceSink, k: usize) -> Built {
    let tag = [("answer", k as f64)];
    let cfg = ExperimentConfig::default();
    let model = {
        let _s = sink.span_args(0, "model", "build", &tag);
        SystemModel::with_defaults().expect("the stock model builds")
    };
    let eval = {
        let _s = sink.span_args(0, "model", "golden", &tag);
        Evaluation::new((spec.attack)()).expect("the attack workload trips the MPU")
    };
    let prechar = {
        let _s = sink.span_args(0, "prechar", "run", &tag);
        Precharacterization::run(&model, cfg.t_max, cfg.max_radius())
    };
    let (strategy, glitch) = {
        let _s = sink.span_args(0, "sampling", "proposal", &tag);
        let f = baseline_distribution(&model, &cfg);
        let glitch = spec
            .double_glitch
            .then(|| DoubleGlitch::new(f.spatial.clone(), f.radius.clone()));
        let strategy: Box<dyn SamplingStrategy> = match spec.sampling {
            Sampling::Random => Box::new(RandomSampling::new(f)),
            Sampling::Importance => Box::new(ImportanceSampling::new(
                f,
                &model,
                &prechar,
                cfg.alpha,
                cfg.beta,
                cfg.radius_options.clone(),
            )),
        };
        (strategy, glitch)
    };
    Built {
        cfg,
        model,
        eval,
        prechar,
        strategy,
        glitch,
    }
}

/// The campaign options of an answer: compiled kernel, fast-forward on,
/// stop at eps.
pub fn options(spec: &Spec, metrics_path: Option<PathBuf>) -> CampaignOptions {
    CampaignOptions {
        threads: spec.threads,
        estimator: spec.estimator,
        target_eps: Some(EPS),
        target_confidence: CONFIDENCE,
        metrics_path,
        ..CampaignOptions::default()
    }
}

/// One answer: set-up and campaign wall times, the result and its check.
pub struct Answer {
    pub seed: u64,
    pub setup_s: f64,
    pub campaign_s: f64,
    /// Convert this answer's set-up and campaign wall seconds to seconds at
    /// the reference host speed (see [`crate::host`]); 1 until the caller
    /// calibrates.
    pub setup_factor: f64,
    pub campaign_factor: f64,
    pub result: CampaignResult,
    pub faults: Vec<AnswerFault>,
}

impl Answer {
    /// Wall time of set-up plus campaign.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.campaign_s
    }

    pub fn ref_setup_s(&self) -> f64 {
        self.setup_s * self.setup_factor
    }

    pub fn ref_campaign_s(&self) -> f64 {
        self.campaign_s * self.campaign_factor
    }

    /// [`Answer::wall_s`] at the reference host speed.
    pub fn time_s(&self) -> f64 {
        self.ref_setup_s() + self.ref_campaign_s()
    }

    /// Runs that paid the gate-accurate flow: all of them under the single
    /// estimator, the coupled level-1 runs under MLMC.
    pub fn gate_runs(&self) -> usize {
        match &self.result.mlmc {
            Some(m) => m.n1 as usize,
            None => self.result.n,
        }
    }
}

/// Run answer `k` with campaign seed `seed`. Returns the built set-up too,
/// so the traced run can probe the same objects after the clock stops.
pub fn answer(
    spec: &Spec,
    seed: u64,
    sink: &TraceSink,
    k: usize,
    metrics_path: Option<PathBuf>,
) -> (Built, Answer) {
    let t0 = Instant::now();
    let built = build(spec, sink, k);
    let setup_s = t0.elapsed().as_secs_f64();
    let opts = options(spec, metrics_path);
    let t1 = Instant::now();
    let result = {
        let _s = sink.span_args(0, "estimator", "campaign", &[("answer", k as f64)]);
        run_campaign_observed(
            &built.runner(),
            built.strategy.as_ref(),
            RUN_CAP,
            seed,
            &opts,
            &mut NullObserver,
        )
    };
    let campaign_s = t1.elapsed().as_secs_f64();
    let facts = AnswerFacts {
        stop: result.stop.as_str(),
        successes: result.successes,
        ssf: result.ssf,
    };
    let faults = check_answer(&facts, spec.reference.ssf, EPS);
    let answer = Answer {
        seed,
        setup_s,
        campaign_s,
        setup_factor: 1.0,
        campaign_factor: 1.0,
        result,
        faults,
    };
    (built, answer)
}
