//! RTL resume soundness: restoring the nearest golden checkpoint into the
//! worker's resident system and the per-worker conclusion memo are pure
//! accelerations — for any strike, on any workload, the concluded verdict
//! must be bit-identical to an independent run-to-halt reference.
//!
//! A property test draws randomized attack samples across all three
//! workloads through one `FlowScratch`, twice under the identical RNG
//! streams: the first pass concludes through RTL resumes, the second is
//! answered by the memo. Both passes must agree on every observable field,
//! and every non-analytic, non-masked verdict must equal the oracle below
//! (the same one `analytic_vs_rtl` uses).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use xlmc::flow::{FaultRunner, FlowScratch, StrikeClass};
use xlmc::sampling::{baseline_distribution, ExperimentConfig};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::{workloads, MpuBit, Soc};

/// One expensive fixture for every test: the system model, the golden runs
/// of all three attack workloads and the shared pre-characterization.
struct Fixture {
    model: SystemModel,
    evals: Vec<Evaluation>,
    prechar: Precharacterization,
    cfg: ExperimentConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
        let evals = vec![
            Evaluation::new(workloads::illegal_write()).unwrap(),
            Evaluation::new(workloads::illegal_read()).unwrap(),
            Evaluation::new(workloads::dma_exfiltration()).unwrap(),
        ];
        let cfg = ExperimentConfig {
            t_max: 16,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            evals,
            prechar,
            cfg,
        }
    })
}

/// The independent oracle: restore the nearest golden checkpoint, step to
/// the injection cycle, apply the error set and run to halt on a fresh
/// system — no resident system, no memo.
fn run_to_halt_reference(eval: &Evaluation, bits: &[MpuBit], te: u64) -> bool {
    let mut soc: Soc = eval.golden.nearest_checkpoint(te).clone();
    while soc.cycle < te {
        soc.step();
    }
    soc.step();
    for &b in bits {
        soc.mpu.toggle_bit(b);
    }
    soc.run_until_halt(eval.max_cycles);
    eval.workload.goal.succeeded(&soc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For randomized strikes across all workloads, every non-analytic
    /// verdict equals the independent run-to-halt reference, and a second
    /// pass over the same samples and RNG streams — answered by the
    /// worker's memo, with no further resume — reproduces every outcome.
    #[test]
    fn fast_forward_verdicts_equal_run_to_halt_verdicts(
        workload_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let eval = &f.evals[workload_idx];
        let runner = FaultRunner {
            model: &f.model,
            eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        };
        let fd = baseline_distribution(&f.model, &f.cfg);
        let mut scratch = FlowScratch::default();
        let mut sampler = StdRng::seed_from_u64(seed);
        let samples: Vec<_> = (0..192).map(|_| fd.sample(&mut sampler)).collect();
        let rng_of = |i: u64| StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9));

        let mut first = Vec::with_capacity(samples.len());
        for (i, sample) in samples.iter().enumerate() {
            let out = runner.run_with(sample, &mut rng_of(i as u64), &mut scratch).to_outcome();
            // Non-analytic, non-masked conclusions came from an RTL resume:
            // each must equal the oracle.
            if !out.analytic && out.class != StrikeClass::Masked {
                let te = out.injection_cycle.expect("resumed runs have a cycle");
                let oracle = run_to_halt_reference(eval, &out.faulty_bits, te);
                prop_assert_eq!(
                    out.success, oracle,
                    "RTL resume diverged from run-to-halt at te {}", te
                );
            }
            first.push(out);
        }

        let before = scratch.fast_forward_stats();
        for (i, (sample, a)) in samples.iter().zip(&first).enumerate() {
            let b = runner.run_with(sample, &mut rng_of(i as u64), &mut scratch).to_outcome();
            prop_assert_eq!(a.success, b.success, "sample {:?}", sample);
            prop_assert_eq!(a.class, b.class, "sample {:?}", sample);
            prop_assert_eq!(a.analytic, b.analytic, "sample {:?}", sample);
            prop_assert_eq!(&a.faulty_bits, &b.faulty_bits, "sample {:?}", sample);
            prop_assert_eq!(a.injection_cycle, b.injection_cycle, "sample {:?}", sample);
        }
        let after = scratch.fast_forward_stats();
        let lookups = after.memo_lookups - before.memo_lookups;
        prop_assert_eq!(after.memo_hits - before.memo_hits, lookups, "second pass missed the memo");
        prop_assert_eq!(after.rtl_resumes, before.rtl_resumes, "second pass resumed again");
    }
}
