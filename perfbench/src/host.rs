//! Host facts: the speed calibration that end-to-end times are scaled by,
//! and peak memory.
//!
//! On a shared host the same answer takes up to twice as long in one minute
//! as in the next: neighbours compete for caches and memory bandwidth, and
//! no runqueue wait or steal time shows it. Those phases last longer than a
//! run, so medians over more answers do not remove them. Fixed kernels
//! timed between answers slow down with the host. Scaling each answer's
//! wall times by `reference / calibration` reports them in seconds of a
//! host running at the reference speed; on a quiet host the factor is close
//! to 1. The kernels are part of the benchmark, not of the program, so a
//! change to the program cannot move them.
//!
//! Set-up is memory-bound and is scaled by the two scatter kernels; the
//! campaign is scaled by those plus half the dependent chain. These are the
//! mixes that tracked each phase best over a four-minute trace of 712
//! `write_is` answers on the reference host: the spread of 20-second
//! medians fell from 0.15 to 0.04 for set-up and from 0.15 to 0.03 for the
//! campaign.

use std::hint::black_box;
use std::time::Instant;

/// One calibration: the kernel mixes that set-up and campaign times are
/// scaled by, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub memory_s: f64,
    pub mixed_s: f64,
}

/// The calibration at the reference speed: its fast-phase (lower quartile)
/// values on a 2-vCPU Intel Xeon at 2.1 GHz.
pub const REFERENCE: Calibration = Calibration {
    memory_s: 0.0093,
    mixed_s: 0.0131,
};

impl Calibration {
    /// The factors that convert set-up and campaign wall seconds measured
    /// between calibrations `self` and `after` to reference seconds.
    pub fn factors(&self, after: &Calibration) -> (f64, f64) {
        (
            2.0 * REFERENCE.memory_s / (self.memory_s + after.memory_s),
            2.0 * REFERENCE.mixed_s / (self.mixed_s + after.mixed_s),
        )
    }
}

/// Random read-modify-write over an L3-sized and an L2-sized buffer, then
/// a dependent integer and float chain: the three ways the program's
/// layers use a core.
pub struct Calibrator {
    big: Vec<u64>,
    small: Vec<u64>,
    z: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Self {
            big: vec![0; 1 << 19],
            small: vec![0; 1 << 15],
            z: 1,
        };
        c.measure();
        c
    }

    /// Time the kernels now. An untimed pass first pulls the buffers back
    /// into cache, so the timing does not depend on how much of them the
    /// work before it evicted.
    pub fn measure(&mut self) -> Calibration {
        let z = scatter(&mut self.big, self.z, 300_000);
        self.z = scatter(&mut self.small, z, 100_000);
        let t = Instant::now();
        let z = scatter(&mut self.big, self.z, 1_000_000);
        let z = scatter(&mut self.small, z, 1_000_000);
        let memory_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.z = black_box(chain(z, 3_000_000));
        let chain_s = t.elapsed().as_secs_f64();
        Calibration {
            memory_s,
            mixed_s: memory_s + chain_s / 2.0,
        }
    }
}

fn mix(z: u64) -> u64 {
    let x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb)
}

fn scatter(buf: &mut [u64], mut z: u64, iters: usize) -> u64 {
    let mask = buf.len() - 1;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let x = mix(z);
        let i = (x as usize) & mask;
        buf[i] = buf[i].wrapping_add(x);
        acc += (buf[(i * 7) & mask] as f64).sqrt();
    }
    z ^ acc as u64
}

fn chain(mut z: u64, iters: usize) -> u64 {
    let mut f = 1.0f64;
    for _ in 0..iters {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        f = f * 0.999 + (mix(z) >> 40) as f64;
    }
    z ^ f as u64
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
