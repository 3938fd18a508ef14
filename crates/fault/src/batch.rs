//! Packed strike construction: one spot query per lane, CSR storage.
//!
//! The packed campaign kernel needs each lane's impacted-cell list alive
//! at the same time. Building 256 separate `Vec`s per batch
//! would put the allocator back on the hot path, so the lanes share one
//! flat CSR buffer: lane `l`'s cells are
//! `cells[offsets[l] .. offsets[l + 1]]`, and the whole structure is
//! reused batch after batch.

use xlmc_netlist::{GateId, Placement};

use crate::sample::AttackSample;
use crate::spot::RadiationSpot;

/// The struck-cell lists of one lane batch, CSR layout, reusable.
#[derive(Debug, Clone, Default)]
pub struct LaneStrikes {
    offsets: Vec<u32>,
    cells: Vec<GateId>,
    times: Vec<f64>,
    query: Vec<GateId>,
    query2: Vec<GateId>,
}

impl LaneStrikes {
    /// Drop all lanes (keeps capacity).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.cells.clear();
        self.times.clear();
    }

    /// Number of lanes recorded.
    pub fn lanes(&self) -> usize {
        self.times.len()
    }

    /// Append one lane: the spot query of `sample` against `placement`
    /// plus the sample's intra-cycle strike moment.
    pub fn push_sample(
        &mut self,
        sample: &AttackSample,
        placement: &Placement,
        clock_period_ps: f64,
    ) {
        self.push_sample_with(sample, None, placement, clock_period_ps);
    }

    /// [`LaneStrikes::push_sample`] with an optional secondary spot (the
    /// double-glitch mode): the lane's cell list is the sorted, deduplicated
    /// union of both spot queries — exactly what the scalar path produces
    /// when it merges the second spot into its struck buffer.
    pub fn push_sample_with(
        &mut self,
        sample: &AttackSample,
        second: Option<&RadiationSpot>,
        placement: &Placement,
        clock_period_ps: f64,
    ) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let spot = RadiationSpot {
            center: sample.center,
            radius: sample.radius,
        };
        spot.impacted_cells_into(placement, &mut self.query);
        if let Some(extra) = second {
            extra.impacted_cells_into(placement, &mut self.query2);
            self.query.extend_from_slice(&self.query2);
            self.query.sort_unstable();
            self.query.dedup();
        }
        self.cells.extend_from_slice(&self.query);
        self.offsets.push(self.cells.len() as u32);
        self.times.push(sample.strike_time_ps(clock_period_ps));
    }

    /// Lane `l`'s struck cells.
    pub fn struck(&self, lane: usize) -> &[GateId] {
        let lo = self.offsets[lane] as usize;
        let hi = self.offsets[lane + 1] as usize;
        &self.cells[lo..hi]
    }

    /// Lane `l`'s strike moment within the cycle, in picoseconds.
    pub fn strike_time_ps(&self, lane: usize) -> f64 {
        self.times[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_netlist::{CellKind, Netlist};

    fn chain(cells: usize) -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut prev = a;
        for _ in 0..cells {
            prev = n.add_gate(CellKind::Buf, &[prev]);
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn lanes_match_individual_spot_queries() {
        let n = chain(40);
        let p = Placement::new(&n);
        let period = 1200.0;
        let mut batch = LaneStrikes::default();
        let samples: Vec<AttackSample> = p
            .placeable()
            .iter()
            .step_by(3)
            .enumerate()
            .map(|(i, &c)| AttackSample {
                t: 1 + i as i64,
                center: c,
                radius: (i % 4) as f64 * 0.9,
                phase: (i % 8) as u8,
            })
            .collect();
        for s in &samples {
            batch.push_sample(s, &p, period);
        }
        assert_eq!(batch.lanes(), samples.len());
        for (l, s) in samples.iter().enumerate() {
            let want = RadiationSpot {
                center: s.center,
                radius: s.radius,
            }
            .impacted_cells(&p);
            assert_eq!(batch.struck(l), &want[..], "lane {l}");
            assert_eq!(batch.strike_time_ps(l), s.strike_time_ps(period));
        }
    }

    #[test]
    fn clear_resets_lanes_but_reuses_storage() {
        let n = chain(20);
        let p = Placement::new(&n);
        let mut batch = LaneStrikes::default();
        let s = AttackSample {
            t: 1,
            center: p.placeable()[5],
            radius: 2.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, 1000.0);
        let first = batch.struck(0).to_vec();
        batch.clear();
        assert_eq!(batch.lanes(), 0);
        batch.push_sample(&s, &p, 1000.0);
        assert_eq!(batch.struck(0), &first[..]);
    }

    #[test]
    fn secondary_spot_lane_is_the_sorted_deduped_union() {
        let n = chain(40);
        let p = Placement::new(&n);
        let mut batch = LaneStrikes::default();
        let s = AttackSample {
            t: 2,
            center: p.placeable()[10],
            radius: 1.5,
            phase: 3,
        };
        // Overlapping secondary spot: the union must dedup the shared cells.
        let second = RadiationSpot {
            center: p.placeable()[12],
            radius: 1.5,
        };
        batch.push_sample_with(&s, Some(&second), &p, 1000.0);
        let mut want = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        want.extend(second.impacted_cells(&p));
        want.sort_unstable();
        want.dedup();
        assert_eq!(batch.struck(0), &want[..]);
        // A disjoint far-away secondary contributes its own cells.
        let far = RadiationSpot {
            center: p.placeable()[35],
            radius: 0.0,
        };
        batch.push_sample_with(&s, Some(&far), &p, 1000.0);
        assert!(batch.struck(1).contains(&p.placeable()[35]));
        // And `None` stays byte-identical to the single-spot path.
        batch.push_sample(&s, &p, 1000.0);
        let solo = RadiationSpot {
            center: s.center,
            radius: s.radius,
        }
        .impacted_cells(&p);
        assert_eq!(batch.struck(2), &solo[..]);
    }

    #[test]
    fn empty_lane_from_unplaced_center() {
        let n = chain(10);
        let p = Placement::new(&n);
        let mut batch = LaneStrikes::default();
        // Input markers are unplaced: the spot query is empty.
        let s = AttackSample {
            t: 1,
            center: n.inputs()[0],
            radius: 5.0,
            phase: 0,
        };
        batch.push_sample(&s, &p, 1000.0);
        assert!(batch.struck(0).is_empty());
    }
}
