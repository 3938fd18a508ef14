//! The conclusion layer of the memo-miss path: the RTL resume and the
//! per-worker conclusion memo.
//!
//! A computation-type error set is concluded by an RTL resume, the paper's
//! §5.1 restart from golden checkpoints "dumped at intermediate points":
//! restore the nearest golden checkpoint (one every 32 cycles), `step()` up
//! to the start of cycle `te + 1`, write the errors back, then simulate to
//! halt. [`RtlFastForward`] does this on one resident system per worker, so
//! a resume restores in place and never clones.
//!
//! [`ConclusionMemo`] is the `(te, faulty_bits) → verdict` memo in front of
//! it. The verdict is a pure function of its key (the hardening filter
//! consumes RNG *before* the key is formed), so a worker-local memo is
//! result-invariant at any thread count. Keys are compact: one 64-bit hash
//! of `(te, bits)` addresses the table, the stored entry keeps the exact key
//! for verification, and true hash collisions go to a spill list — lookups
//! never allocate. Every distinct key gets a dense `u32` id, which the run
//! carries on to the chunk-local counters.
//!
//! The chunk-local [`crate::trace::CampaignCounters`] accounting is
//! deliberately untouched by all of this (it models a per-chunk memo so the
//! counters stay kernel/thread-invariant; the memo ids only name its keys);
//! the schedule-dependent counters of the resumes and of the real memo live
//! in [`FastForwardStats`] and surface through the metrics JSON, never
//! through `CampaignResult`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use crate::flow::Concluded;
use crate::metrics::LatencyHist;
use crate::model::Evaluation;
use xlmc_soc::{MpuBit, Soc};

/// Counters of the conclusion layer.
///
/// These are **schedule-dependent** (memo warmth varies with thread count
/// and chunk order), so they are reported through the metrics JSON only —
/// never through `CampaignResult`, whose fields are all
/// kernel/thread-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// RTL resumes performed (memo misses reaching the RTL path).
    pub rtl_resumes: u64,
    /// Conclusion-memo lookups (one per in-run sample with surviving
    /// error bits).
    pub memo_lookups: u64,
    /// Lookups answered by the worker's conclusion memo.
    pub memo_hits: u64,
}

impl FastForwardStats {
    /// Accumulate another worker's counters.
    pub fn add(&mut self, other: &FastForwardStats) {
        self.rtl_resumes += other.rtl_resumes;
        self.memo_lookups += other.memo_lookups;
        self.memo_hits += other.memo_hits;
    }

    /// Fraction of conclusion-memo lookups answered by the memo.
    pub fn memo_hit_rate(&self) -> f64 {
        if self.memo_lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.memo_lookups as f64
        }
    }
}

/// Per-worker RTL resume state: the resident system every resume runs on.
///
/// Like [`crate::flow::FlowScratch`] (which owns one), an instance is only
/// valid against one evaluation; the campaign engine keeps one per worker.
#[derive(Debug, Default)]
pub struct RtlFastForward {
    /// The resident system every resume mutates (restored, never cloned).
    work: Option<Soc>,
    stats: FastForwardStats,
    /// Wall-clock latency of each resume's positioning phase (checkpoint
    /// restore + replay to `te + 1`) — pure telemetry, harvested per chunk
    /// by the campaign engine.
    restore_hist: LatencyHist,
}

impl RtlFastForward {
    /// The counters accumulated by resumes on this state.
    pub fn stats(&self) -> FastForwardStats {
        self.stats
    }

    /// Drain the positioning-phase latency histogram accumulated since
    /// the last call (the campaign engine harvests this per chunk into
    /// the chunk partial's [`crate::metrics::LatencyShard`]).
    pub fn take_restore_latency(&mut self) -> LatencyHist {
        std::mem::take(&mut self.restore_hist)
    }

    /// The full RTL tail of one conclusion, in three steps: restore the
    /// nearest golden checkpoint and replay to the start of cycle `te + 1`,
    /// write the errors back, and simulate to completion.
    pub(crate) fn resume(&mut self, eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
        self.stats.rtl_resumes += 1;
        let checkpoint = eval.golden.nearest_checkpoint(te);
        let work = self.work.get_or_insert_with(|| checkpoint.clone());

        let t_position = Instant::now();
        work.restore_from(checkpoint);
        while work.cycle < te {
            work.step();
        }
        // Execute the injection cycle; the errors land after it.
        work.step();
        self.restore_hist.record(t_position.elapsed().as_secs_f64());

        for &b in faulty_bits {
            work.mpu.toggle_bit(b);
        }
        while !work.halted() && work.cycle < eval.max_cycles {
            work.step();
        }
        eval.workload.goal.succeeded(work)
    }
}

/// The run-to-halt reference verdict of one `(T_e, faulty bits)` error set:
/// restore the nearest golden checkpoint, replay to the injection cycle,
/// write the errors back, and simulate to completion on a fresh system,
/// outside any memo. The multilevel estimator's cross-level consistency
/// tests are pinned against it.
pub fn reference_verdict(eval: &Evaluation, te: u64, faulty_bits: &[MpuBit]) -> bool {
    RtlFastForward::default().resume(eval, te, faulty_bits)
}

/// Hasher for keys that are already well-mixed 64-bit hashes: multiply by an
/// odd constant instead of SipHash. The byte fallback (never hit by the memo,
/// which only writes `u64`s) is FNV-1a.
#[derive(Debug, Default)]
pub struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The compact memo key: FNV-1a over the injection cycle and each bit's
/// canonical code, finished with a SplitMix64 mix so the table index sees
/// full entropy.
pub(crate) fn key_hash(te: u64, bits: &[MpuBit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    fold(te);
    for &b in bits {
        fold(bit_code(b));
    }
    let mut x = h;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A unique integer code per [`MpuBit`] (variant tag in the high byte shown,
/// indices below), so hashing never allocates or walks strings.
fn bit_code(b: MpuBit) -> u64 {
    let (tag, r, i) = match b {
        MpuBit::Enable => (0u64, 0, 0),
        MpuBit::Base(r, i) => (1, r, i),
        MpuBit::Limit(r, i) => (2, r, i),
        MpuBit::Perms(r, i) => (3, r, i),
        MpuBit::PipeAddr(i) => (4, 0, i),
        MpuBit::PipeKind(i) => (5, 0, i),
        MpuBit::PipeUser => (6, 0, 0),
        MpuBit::PipeValid => (7, 0, 0),
        MpuBit::Violation => (8, 0, 0),
        MpuBit::StickyViol => (9, 0, 0),
        MpuBit::StickyAddr(i) => (10, 0, i),
        MpuBit::StickyKind(i) => (11, 0, i),
    };
    tag << 16 | u64::from(r) << 8 | u64::from(i)
}

#[derive(Debug)]
struct MemoEntry {
    te: u64,
    bits: Box<[MpuBit]>,
    verdict: Concluded,
}

impl MemoEntry {
    fn matches(&self, te: u64, bits: &[MpuBit]) -> bool {
        self.te == te && self.bits.as_ref() == bits
    }
}

/// One worker's `(te, faulty_bits) → verdict` memo.
///
/// The verdict is a pure function of the key (RNG is consumed before the key
/// is formed), so each worker can keep its own unlocked memo and every
/// schedule yields bit-identical campaign results. Entries are verified
/// against the exact stored key — the hash only addresses.
///
/// Each distinct key gets a dense `u32` id, in insertion order, that never
/// changes: the run's [`crate::flow::RunView::memo_id`]. The chunk-local
/// counters ([`crate::trace::CounterScratch`]) key their per-chunk stamps on
/// it, so a run's error pattern is hashed once, here.
#[derive(Debug, Default)]
pub(crate) struct ConclusionMemo {
    /// Primary index: key hash → id of the first key with that hash.
    fast: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// Ids of further keys sharing a hash (true 64-bit collisions,
    /// vanishingly rare; scanned linearly).
    spill: HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>,
    /// Entries by id.
    entries: Vec<MemoEntry>,
    /// Calls to [`ConclusionMemo::get`].
    lookups: u64,
    /// Lookups that found their key.
    hits: u64,
}

impl ConclusionMemo {
    /// Look up a concluded verdict and its key's id; allocation-free.
    pub(crate) fn get(&mut self, hash: u64, te: u64, bits: &[MpuBit]) -> Option<(u32, Concluded)> {
        self.lookups += 1;
        let id = self.find(hash, te, bits)?;
        self.hits += 1;
        Some((id, self.entries[id as usize].verdict))
    }

    fn find(&self, hash: u64, te: u64, bits: &[MpuBit]) -> Option<u32> {
        let &id = self.fast.get(&hash)?;
        if self.entries[id as usize].matches(te, bits) {
            return Some(id);
        }
        self.spill
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| self.entries[id as usize].matches(te, bits))
    }

    /// Record a concluded verdict and return its key's id. Idempotent:
    /// re-inserting a key returns its existing id, and a colliding key
    /// lands in the spill list.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        te: u64,
        bits: &[MpuBit],
        verdict: Concluded,
    ) -> u32 {
        if let Some(id) = self.find(hash, te, bits) {
            return id;
        }
        let id = u32::try_from(self.entries.len()).expect("< 2^32 distinct conclusion keys");
        self.entries.push(MemoEntry {
            te,
            bits: bits.into(),
            verdict,
        });
        match self.fast.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(_) => self.spill.entry(hash).or_default().push(id),
        }
        id
    }

    /// `(lookups, hits)` since the memo was created.
    pub(crate) fn lookups_and_hits(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Distinct keys stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::StrikeClass;

    fn concluded(success: bool) -> Concluded {
        Concluded {
            success,
            class: StrikeClass::Mixed,
            analytic: false,
        }
    }

    #[test]
    fn memo_round_trips_and_verifies_exact_keys() {
        let mut memo = ConclusionMemo::default();
        let bits = [MpuBit::Violation, MpuBit::Enable];
        let h = key_hash(5, &bits);
        assert!(memo.get(h, 5, &bits).is_none());
        assert_eq!(memo.insert(h, 5, &bits, concluded(true)), 0);
        let (id, c) = memo.get(h, 5, &bits).unwrap();
        assert_eq!(id, 0);
        assert!(c.success);
        // Same hash handed in with a different exact key must miss (and a
        // colliding insert must land in the spill, not overwrite).
        let other = [MpuBit::PipeValid];
        assert!(memo.get(h, 5, &other).is_none());
        assert_eq!(memo.insert(h, 5, &other, concluded(false)), 1);
        assert_eq!(
            memo.get(h, 5, &bits).map(|(id, c)| (id, c.success)),
            Some((0, true))
        );
        assert_eq!(
            memo.get(h, 5, &other).map(|(id, c)| (id, c.success)),
            Some((1, false))
        );
        assert_eq!(memo.len(), 2);
        // Duplicate inserts are dropped and keep their ids.
        assert_eq!(memo.insert(h, 5, &bits, concluded(true)), 0);
        assert_eq!(memo.insert(h, 5, &other, concluded(false)), 1);
        assert_eq!(memo.len(), 2);
        // Ids are dense, in insertion order.
        let third = [MpuBit::Enable];
        assert_eq!(
            memo.insert(key_hash(6, &third), 6, &third, concluded(false)),
            2
        );
        // Five lookups, three of which found their key.
        assert_eq!(memo.lookups_and_hits(), (5, 3));
    }

    #[test]
    fn key_hash_separates_te_and_bit_patterns() {
        let a = [MpuBit::Base(0, 1)];
        let b = [MpuBit::Base(1, 0)];
        assert_ne!(key_hash(3, &a), key_hash(3, &b));
        assert_ne!(key_hash(3, &a), key_hash(4, &a));
        assert_ne!(key_hash(3, &[]), key_hash(3, &a));
        // Order matters (patterns are canonical, never reordered).
        let ab = [MpuBit::Enable, MpuBit::Violation];
        let ba = [MpuBit::Violation, MpuBit::Enable];
        assert_ne!(key_hash(3, &ab), key_hash(3, &ba));
    }

    #[test]
    fn stats_accumulate_and_expose_rates() {
        let mut total = FastForwardStats::default();
        let worker = FastForwardStats {
            rtl_resumes: 10,
            memo_lookups: 40,
            memo_hits: 30,
        };
        total.add(&worker);
        total.add(&worker);
        assert_eq!(total.rtl_resumes, 20);
        assert_eq!((total.memo_lookups, total.memo_hits), (80, 60));
        assert!((total.memo_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(FastForwardStats::default().memo_hit_rate(), 0.0);
    }
}
