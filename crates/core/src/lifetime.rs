//! Error lifetime and contamination characterization
//! (pre-characterization step 3, Observation 3).
//!
//! For every register in the responding-signal cones, single bit errors are
//! injected at several points of the synthetic golden run; the faulty RTL
//! simulation is compared against the recorded golden states cycle by
//! cycle. The **error lifetime** is the number of cycles until the MPU
//! state re-converges (capped); the **error contamination number** is how
//! many *other* registers the error ever spreads to. Long-lived,
//! non-contaminating registers are **memory-type** (evaluated analytically
//! by the flow); the rest are **computation-type** (sampled).
//!
//! # MPU-only replay
//!
//! An injection does not simulate the whole SoC. The faulty [`MpuState`]
//! is stepped alone against the golden run's recorded stimulus, because
//! the rest of the system reads the MPU in only two ways:
//!
//! * the registered `violation` bit, which gates commits and traps the core;
//! * config-window bus reads, answered by [`MpuState::cfg_read`].
//!
//! While the faulty `violation` equals golden's and every allowed golden
//! config read would return the same word, the faulty system equals the
//! golden system with a different MPU state, so the replay is exact. At
//! the first cycle where either condition fails, the replay switches to
//! the full SoC: the golden system at that cycle with the faulty MPU state
//! put in. Contamination is the OR of the per-cycle XOR masks, convergence
//! a single state compare. On the default run 118 of 925 injections (13%)
//! switch. The test module keeps the old full-SoC loop as the oracle that
//! pins equality on every field.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xlmc_soc::golden::GoldenRun;
use xlmc_soc::soc::cfg_index;
use xlmc_soc::{AccessKind, MpuBit, MpuState, Soc};

/// Censoring cap for the lifetime measurement, in cycles.
pub const LIFETIME_CAP: u32 = 200;
/// Lifetime at or above which a register counts as long-lived.
pub const MEMORY_LIFETIME_MIN: u32 = 100;
/// Maximum contamination for the memory-type classification.
pub const MEMORY_CONTAMINATION_MAX: u32 = 0;

/// The paper's register classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegisterKind {
    /// Errors persist locally: long lifetime, no contamination. Evaluated
    /// analytically.
    Memory,
    /// Errors propagate or get masked quickly. Evaluated by sampling.
    Computation,
}

/// Measured characterization of one register bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BitCharacter {
    /// Error lifetime: the *maximum* over the injection samples (capped at
    /// [`LIFETIME_CAP`]). The maximum measures persistence potential — an
    /// error that survives long whenever nothing overwrites it must be
    /// treated as long-lived by the sampler, even if some injections
    /// happened shortly before a reconfiguration.
    pub lifetime: u32,
    /// Median error contamination number.
    pub contamination: u32,
    /// Raw `(lifetime, contamination)` per injection.
    pub samples: Vec<(u32, u32)>,
    /// Fraction of injections whose error propagated to the responding
    /// signal register — the injection-measured bit-flip correlation of
    /// Observation 2, which captures *persistent* registers that the
    /// switching-signature correlation cannot see (they rarely toggle).
    pub rs_flip_fraction: f64,
    /// Fraction of injections whose error *suppressed* responding-signal
    /// activity (the faulty run raised strictly fewer violations over the
    /// observation window than the golden run). Per the paper's attack
    /// analysis, suppression is exactly what the attacker needs: "prevent
    /// the security-critical modules from setting the responding signals".
    pub rs_suppress_fraction: f64,
    /// The derived classification.
    pub kind: RegisterKind,
}

/// Characterization of every MPU register bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterCharacterization {
    per_bit: HashMap<MpuBit, BitCharacter>,
}

fn median(values: &mut [u32]) -> u32 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// What one injection measured: `(lifetime, contamination, reached_rs,
/// suppressed_rs)`.
type Injection = (u32, u32, bool, bool);

/// The per-cycle comparison of a faulty MPU state against the golden one,
/// accumulated over an injection's observation window.
struct Tally {
    /// The injected bit (not counted as contamination).
    bit: MpuBit,
    /// OR of the per-cycle XOR masks up to convergence.
    diff: MpuState,
    /// The cycle offset at which the states first re-converged.
    lifetime: Option<u32>,
    /// Faulty minus golden registered violations over the window.
    viol_balance: i32,
}

impl Tally {
    fn new(bit: MpuBit) -> Self {
        Self {
            bit,
            diff: MpuState::default(),
            lifetime: None,
            viol_balance: 0,
        }
    }

    /// Compare the states at offset `k` after the injection; returns
    /// whether the faulty MPU has re-converged.
    fn observe(&mut self, k: u32, faulty: &MpuState, golden: &MpuState) -> bool {
        // Violation activity is counted over the whole window (alignment-
        // insensitive): fewer faulty violations = suppression.
        self.viol_balance += i32::from(faulty.violation) - i32::from(golden.violation);
        if self.lifetime.is_none() {
            if faulty == golden {
                self.lifetime = Some(k);
            } else {
                self.diff = self.diff.or(&faulty.xor(golden));
            }
        }
        self.lifetime.is_some()
    }

    fn finish(self) -> Injection {
        let contamination = self.diff.count_ones() - u32::from(self.diff.bit(self.bit));
        (
            self.lifetime.unwrap_or(LIFETIME_CAP),
            contamination,
            self.diff.violation,
            self.viol_balance < 0,
        )
    }
}

/// The config-window reads the golden run resolved (and allowed), as
/// `(cycle, config word index)` in cycle order.
fn golden_cfg_reads(golden: &GoldenRun) -> Vec<(u64, u8)> {
    golden
        .access_trace
        .iter()
        .filter(|a| a.allowed && a.req.kind == AccessKind::Read)
        .filter_map(|a| cfg_index(a.req.addr).map(|i| (a.cycle, i)))
        .collect()
}

/// Whether a faulty MPU state `faulty` at the start of `cycle` makes the
/// rest of the system diverge from the golden run during that cycle. The
/// SoC reads the MPU only through the registered `violation` (commit
/// gating and trap) and through config-window bus reads, so while neither
/// differs the faulty system *is* the golden one with `faulty` in place of
/// the golden MPU state.
fn observable(golden: &GoldenRun, cfg_reads: &[(u64, u8)], faulty: &MpuState, cycle: u64) -> bool {
    let reference = &golden.mpu_states[cycle as usize];
    if faulty.violation != reference.violation {
        return true;
    }
    cfg_reads
        .binary_search_by_key(&cycle, |&(c, _)| c)
        .is_ok_and(|i| faulty.cfg_read(cfg_reads[i].1) != reference.cfg_read(cfg_reads[i].1))
}

/// Measure lifetime, contamination and responding-signal propagation of
/// one bit flipped at the start of `cycle` of the golden run.
///
/// The faulty MPU state is stepped alone against the recorded stimulus
/// until the error becomes [`observable`]; only then is the full SoC (the
/// golden system at that cycle with the faulty MPU state put in) simulated
/// for the rest of the window. Also returns that switch cycle, if any.
fn measure_one(
    golden: &GoldenRun,
    cfg_reads: &[(u64, u8)],
    bit: MpuBit,
    cycle: u64,
) -> (Injection, Option<u64>) {
    // States compared: offsets 1..=LIFETIME_CAP that the golden run has
    // recorded (past its end the error outlived the benchmark).
    let end = golden.cycles.min(cycle + u64::from(LIFETIME_CAP) + 1);
    let offset = |c: u64| (c - cycle) as u32;
    let mut tally = Tally::new(bit);
    let mut mpu = golden.mpu_states[cycle as usize];
    mpu.toggle_bit(bit);
    let mut c = cycle;
    while c + 1 < end {
        if observable(golden, cfg_reads, &mpu, c) {
            let switch = c;
            let mut soc = golden_soc_at(golden, c);
            soc.mpu = mpu;
            while c + 1 < end {
                soc.step();
                c += 1;
                tally.observe(offset(c), &soc.mpu, &golden.mpu_states[c as usize]);
            }
            return (tally.finish(), Some(switch));
        }
        let stimulus = &golden.stimulus[c as usize];
        mpu.step(stimulus.request, stimulus.cfg_write);
        c += 1;
        if tally.observe(offset(c), &mpu, &golden.mpu_states[c as usize]) {
            // Re-converged while unobservable: identical to golden from here.
            break;
        }
    }
    (tally.finish(), None)
}

/// The golden system state at the start of `cycle`.
fn golden_soc_at(golden: &GoldenRun, cycle: u64) -> Soc {
    let mut soc = golden.nearest_checkpoint(cycle).clone();
    while soc.cycle < cycle {
        soc.step();
    }
    soc
}

impl RegisterCharacterization {
    /// Characterize every MPU register bit by injection at `sample_cycles`
    /// of the synthetic golden run.
    ///
    /// # Panics
    ///
    /// Panics when `sample_cycles` is empty or reaches past the run.
    pub fn measure(golden: &GoldenRun, sample_cycles: &[u64]) -> Self {
        assert!(!sample_cycles.is_empty(), "need at least one sample cycle");
        assert!(
            sample_cycles.iter().all(|&c| c < golden.cycles),
            "sample cycle beyond the golden run"
        );
        let cfg_reads = golden_cfg_reads(golden);
        let mut per_bit = HashMap::new();
        for bit in MpuBit::all() {
            let raw: Vec<Injection> = sample_cycles
                .iter()
                .map(|&c| measure_one(golden, &cfg_reads, bit, c).0)
                .collect();
            let samples: Vec<(u32, u32)> = raw.iter().map(|&(l, c, _, _)| (l, c)).collect();
            let rs_flip_fraction =
                raw.iter().filter(|&&(_, _, r, _)| r).count() as f64 / raw.len() as f64;
            let rs_suppress_fraction =
                raw.iter().filter(|&&(_, _, _, su)| su).count() as f64 / raw.len() as f64;
            let lifetime = samples.iter().map(|s| s.0).max().unwrap_or(0);
            let mut contams: Vec<u32> = samples.iter().map(|s| s.1).collect();
            let contamination = median(&mut contams);
            let kind =
                if lifetime >= MEMORY_LIFETIME_MIN && contamination == MEMORY_CONTAMINATION_MAX {
                    RegisterKind::Memory
                } else {
                    RegisterKind::Computation
                };
            per_bit.insert(
                bit,
                BitCharacter {
                    lifetime,
                    contamination,
                    samples,
                    rs_flip_fraction,
                    rs_suppress_fraction,
                    kind,
                },
            );
        }
        Self { per_bit }
    }

    /// The characterization of one bit.
    ///
    /// # Panics
    ///
    /// Panics for bits outside [`MpuBit::all`] (cannot happen).
    pub fn bit(&self, bit: MpuBit) -> &BitCharacter {
        &self.per_bit[&bit]
    }

    /// The classification of one bit.
    pub fn kind(&self, bit: MpuBit) -> RegisterKind {
        self.per_bit[&bit].kind
    }

    /// Iterate `(bit, character)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&MpuBit, &BitCharacter)> {
        self.per_bit.iter()
    }

    /// Fraction of registers classified memory-type.
    pub fn memory_fraction(&self) -> f64 {
        let mem = self
            .per_bit
            .values()
            .filter(|c| c.kind == RegisterKind::Memory)
            .count();
        mem as f64 / self.per_bit.len() as f64
    }
}

/// Evenly spaced sample cycles across the middle of a golden run.
pub fn default_sample_cycles(golden: &GoldenRun, count: usize) -> Vec<u64> {
    let lo = golden.cycles / 5;
    let hi = golden.cycles * 4 / 5;
    (0..count)
        .map(|i| lo + (hi - lo) * i as u64 / count.max(1) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CHECKPOINT_INTERVAL;
    use std::collections::{BTreeSet, HashSet};
    use xlmc_soc::asm::assemble;
    use xlmc_soc::workloads;

    fn golden() -> GoldenRun {
        let w = workloads::synthetic_precharacterization();
        GoldenRun::record(&w.program, 20_000, 64)
    }

    /// The full-SoC measurement the MPU-only replay replaced: restore the
    /// golden system at `cycle`, flip the bit, and compare every MPU bit
    /// against the golden states for the whole window.
    fn oracle(golden: &GoldenRun, bit: MpuBit, cycle: u64) -> Injection {
        let mut soc = golden_soc_at(golden, cycle);
        soc.mpu.toggle_bit(bit);
        let mut contaminated: HashSet<MpuBit> = HashSet::new();
        let mut reached_rs = false;
        let mut golden_viols = 0u32;
        let mut faulty_viols = 0u32;
        let mut lifetime = LIFETIME_CAP;
        let mut converged = false;
        let all_bits = MpuBit::all();
        for k in 1..=LIFETIME_CAP {
            let golden_idx = cycle + u64::from(k);
            if golden_idx >= golden.cycles {
                break;
            }
            soc.step();
            let golden_state = &golden.mpu_states[golden_idx as usize];
            golden_viols += u32::from(golden_state.violation);
            faulty_viols += u32::from(soc.mpu.violation);
            if !converged {
                let mut any_diff = false;
                for &b in &all_bits {
                    if soc.mpu.bit(b) != golden_state.bit(b) {
                        any_diff = true;
                        if b != bit {
                            contaminated.insert(b);
                        }
                        reached_rs |= b == MpuBit::Violation;
                    }
                }
                if !any_diff {
                    lifetime = k;
                    converged = true;
                }
            }
        }
        (
            lifetime,
            contaminated.len() as u32,
            reached_rs,
            faulty_viols < golden_viols,
        )
    }

    /// Assert the replay equals the oracle for every bit flipped at every
    /// one of `cycles`; returns the number of replays that switched to the
    /// full SoC.
    fn assert_matches_oracle(golden: &GoldenRun, cycles: &[u64]) -> usize {
        let cfg_reads = golden_cfg_reads(golden);
        let mut switched = 0;
        for &cycle in cycles {
            for bit in MpuBit::all() {
                let (got, switch) = measure_one(golden, &cfg_reads, bit, cycle);
                assert_eq!(got, oracle(golden, bit, cycle), "{bit:?} at cycle {cycle}");
                switched += usize::from(switch.is_some());
            }
        }
        switched
    }

    /// The golden runs of the attack benchmarks, recorded as
    /// [`crate::Evaluation`] records them.
    fn attack_goldens() -> Vec<GoldenRun> {
        [
            workloads::illegal_write(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ]
        .iter()
        .map(|w| GoldenRun::record(&w.program, 20_000, CHECKPOINT_INTERVAL))
        .collect()
    }

    /// Every cycle within `radius` of a violation or trap cycle.
    fn cycles_near_events(golden: &GoldenRun, radius: u64) -> Vec<u64> {
        let events = golden.violation_cycles.iter().chain(&golden.trap_cycles);
        let near: BTreeSet<u64> = events
            .flat_map(|&e| e.saturating_sub(radius)..=e + radius)
            .filter(|&c| c < golden.cycles)
            .collect();
        near.into_iter().collect()
    }

    #[test]
    fn replay_matches_the_full_soc_oracle() {
        let g = golden();
        let switched = assert_matches_oracle(&g, &default_sample_cycles(&g, 5));
        assert!(
            switched > 0,
            "some default injections must become observable"
        );
        for g in attack_goldens() {
            assert_matches_oracle(&g, &cycles_near_events(&g, 8));
        }
    }

    #[test]
    #[ignore = "exhaustive: every (bit, cycle) of four goldens; run with --release"]
    fn replay_matches_the_full_soc_oracle_exhaustively() {
        for g in std::iter::once(golden()).chain(attack_goldens()) {
            let every: Vec<u64> = (0..g.cycles).collect();
            assert_matches_oracle(&g, &every);
        }
    }

    #[test]
    fn config_window_reads_make_the_error_observable() {
        // Privileged self-check: read limit0 back and rewrite it when it
        // does not hold the configured value. The golden run never rewrites
        // it, so only the config-read guard lets the replay see the scrub.
        let src = "
            li   r1, 0x8100
            li   r2, 0x5fff
            sw   r2, 4(r1)
            li   r2, 1
            sw   r2, 0x30(r1)
            li   r3, 0
            li   r4, 20
        idle:
            addi r3, r3, 1
            bne  r3, r4, idle
            lw   r5, 4(r1)
            li   r2, 0x5fff
            beq  r5, r2, clean
            sw   r2, 4(r1)
        clean:
            li   r3, 0
            li   r4, 150
        tail:
            addi r3, r3, 1
            bne  r3, r4, tail
            halt
            ";
        let g = GoldenRun::record(&assemble(src).unwrap().words, 5_000, CHECKPOINT_INTERVAL);
        let cfg_reads = golden_cfg_reads(&g);
        assert_eq!(cfg_reads.len(), 1, "{cfg_reads:?}");
        let (read_cycle, index) = cfg_reads[0];
        assert_eq!(index, 1, "limit0");
        assert!(read_cycle + u64::from(LIFETIME_CAP) < g.cycles);
        for cycle in read_cycle - 10..=read_cycle + 2 {
            for b in 0..16 {
                let bit = MpuBit::Limit(0, b);
                let (got, switch) = measure_one(&g, &cfg_reads, bit, cycle);
                assert_eq!(got, oracle(&g, bit, cycle), "{bit:?} at cycle {cycle}");
                if cycle <= read_cycle {
                    assert_eq!(switch, Some(read_cycle), "{bit:?} at cycle {cycle}");
                    assert!(got.0 < LIFETIME_CAP, "the scrub must repair {bit:?}");
                } else {
                    assert_eq!(switch, None, "{bit:?} at cycle {cycle}");
                    assert_eq!(got.0, LIFETIME_CAP, "{bit:?} at cycle {cycle}");
                }
            }
        }
    }

    #[test]
    fn pipe_registers_are_computation_type() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Pipeline registers are overwritten every cycle: tiny lifetime.
        for bit in [MpuBit::PipeAddr(3), MpuBit::PipeValid, MpuBit::PipeUser] {
            let c = chars.bit(bit);
            assert!(c.lifetime <= 5, "{bit:?} lifetime {}", c.lifetime);
            assert_eq!(chars.kind(bit), RegisterKind::Computation, "{bit:?}");
        }
    }

    #[test]
    fn unused_config_registers_are_memory_type() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Region 2 is never configured or matched: flips persist silently.
        for bit in [MpuBit::Base(2, 7), MpuBit::Limit(2, 3), MpuBit::Perms(2, 0)] {
            let c = chars.bit(bit);
            assert_eq!(c.lifetime, LIFETIME_CAP, "{bit:?}");
            assert_eq!(c.contamination, 0, "{bit:?}");
            assert_eq!(chars.kind(bit), RegisterKind::Memory, "{bit:?}");
        }
    }

    #[test]
    fn a_majority_of_registers_are_memory_type() {
        // The paper's Figure 4: "more than half of the total registers have
        // long lifetime and 0 contamination number".
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        let frac = chars.memory_fraction();
        assert!(frac > 0.5, "memory-type fraction {frac}");
    }

    #[test]
    fn contaminating_config_bits_are_detected() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &default_sample_cycles(&g, 4));
        // Flipping limit bit 14 of region 0 (0x5fff -> 0x1fff) makes the
        // synthetic sweep's legal accesses violate, which shows up in the
        // violation/sticky registers: contamination > 0 on some sample.
        let c = chars.bit(MpuBit::Limit(0, 14));
        assert!(
            c.samples.iter().any(|&(_, contam)| contam > 0),
            "exercised limit bit should contaminate: {:?}",
            c.samples
        );
    }

    #[test]
    fn lifetimes_are_capped() {
        let g = golden();
        let chars = RegisterCharacterization::measure(&g, &[g.cycles / 2]);
        for (bit, c) in chars.iter() {
            assert!(c.lifetime <= LIFETIME_CAP, "{bit:?}");
            for &(l, _) in &c.samples {
                assert!(l >= 1, "{bit:?} lifetime 0 impossible");
            }
        }
    }

    #[test]
    fn default_sample_cycles_are_in_range() {
        let g = golden();
        let cycles = default_sample_cycles(&g, 6);
        assert_eq!(cycles.len(), 6);
        for &c in &cycles {
            assert!(c > 0 && c < g.cycles);
        }
    }
}
