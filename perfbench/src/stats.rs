//! The benchmark's own arithmetic: medians and quartiles, the answer check,
//! the ledger remainder and the metric-name rule. Kept free of engine types
//! so the unit tests pin it without building a model.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: a metric with no samples is a bug in
/// the benchmark, not a measurement.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three cut points of `xs` into quartiles, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones computed over runs.
///
/// # Panics
///
/// Panics on fewer than two samples or a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i * m - j * 4` can be negative after the clamp, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Why an answer does not count as answered.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerFault {
    /// The campaign returned for another reason than reaching `target_eps`
    /// (it ran out of its run budget, or was aborted).
    NotAtTargetEps(&'static str),
    /// The estimate rests on no successful attack at all.
    ZeroSuccesses,
    /// The estimate misses the oracle reference by more than eps.
    OffReference { ssf: f64, reference: f64 },
}

/// Everything the check needs from one answer.
#[derive(Debug, Clone, Copy)]
pub struct AnswerFacts {
    /// The campaign's stop reason, as spelled in the metrics JSON.
    pub stop: &'static str,
    pub successes: usize,
    pub ssf: f64,
}

/// Check one answer against the oracle `reference` at accuracy `eps`;
/// an empty list means the answer is correct.
pub fn check_answer(a: &AnswerFacts, reference: f64, eps: f64) -> Vec<AnswerFault> {
    let mut faults = Vec::new();
    if a.stop != "target_eps" {
        faults.push(AnswerFault::NotAtTargetEps(a.stop));
    }
    if a.successes == 0 {
        faults.push(AnswerFault::ZeroSuccesses);
    }
    // A NaN estimate is off the reference too.
    let off = (a.ssf - reference).abs();
    if off.is_nan() || off > eps {
        faults.push(AnswerFault::OffReference {
            ssf: a.ssf,
            reference,
        });
    }
    faults
}

/// Number of answers with at least one fault.
pub fn count_failed<'a>(faults: impl IntoIterator<Item = &'a Vec<AnswerFault>>) -> usize {
    faults.into_iter().filter(|f| !f.is_empty()).count()
}

/// A measured total and the parts that should explain it.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub total: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// What the parts leave unexplained (negative when they overshoot).
    pub fn remainder(&self) -> f64 {
        self.total - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// The remainder as a share of the total (0 for an empty total).
    pub fn remainder_frac(&self) -> f64 {
        if self.total > 0.0 {
            self.remainder() / self.total
        } else {
            0.0
        }
    }

    /// Whether the parts sum to the total within `tolerance` (a share).
    pub fn closes(&self, tolerance: f64) -> bool {
        self.remainder_frac().abs() <= tolerance
    }

    /// The ledger of medians over several ledgers with the same parts:
    /// median total, and each part's median.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of_medians(ledgers: &[Ledger]) -> Ledger {
        let total = median(&ledgers.iter().map(|l| l.total).collect::<Vec<_>>());
        let parts = ledgers[0]
            .parts
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| {
                (
                    name,
                    median(&ledgers.iter().map(|l| l.parts[i].1).collect::<Vec<_>>()),
                )
            })
            .collect();
        Ledger { total, parts }
    }
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or a
/// digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values computed with Python's `statistics` module.
    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0]), 3.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // Two samples extrapolate past the ends, exactly as Python does.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        let q = quartiles(&[0.21, 0.36, 0.18, 0.25, 0.3, 0.22, 0.27]);
        for (got, want) in q.iter().zip([0.21, 0.25, 0.3]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    fn facts(stop: &'static str, successes: usize, ssf: f64) -> AnswerFacts {
        AnswerFacts {
            stop,
            successes,
            ssf,
        }
    }

    #[test]
    fn a_good_answer_has_no_fault() {
        assert!(check_answer(&facts("target_eps", 40, 0.0105), 0.0100, 1e-3).is_empty());
    }

    #[test]
    fn each_failure_condition_is_counted() {
        let eps = 1e-3;
        let budget = check_answer(&facts("completed", 40, 0.0100), 0.0100, eps);
        assert_eq!(budget, vec![AnswerFault::NotAtTargetEps("completed")]);
        let zero = check_answer(&facts("target_eps", 0, 0.0), 0.0005, eps);
        assert_eq!(zero, vec![AnswerFault::ZeroSuccesses]);
        let off = check_answer(&facts("target_eps", 40, 0.0125), 0.0100, eps);
        assert_eq!(
            off,
            vec![AnswerFault::OffReference {
                ssf: 0.0125,
                reference: 0.0100
            }]
        );
        let nan = check_answer(&facts("target_eps", 40, f64::NAN), 0.0100, eps);
        assert_eq!(nan.len(), 1);
        let all = check_answer(&facts("aborted", 0, 0.5), 0.0100, eps);
        assert_eq!(all.len(), 3);
        assert_eq!(count_failed(&[budget, vec![], zero, off, vec![], all]), 4);
    }

    #[test]
    fn ledger_reports_the_unattributed_remainder() {
        let l = Ledger {
            total: 1.0,
            parts: vec![("a", 0.5), ("b", 0.3)],
        };
        assert!((l.remainder() - 0.2).abs() < 1e-12);
        assert!((l.remainder_frac() - 0.2).abs() < 1e-12);
        assert!(l.closes(0.25));
        assert!(!l.closes(0.1));
        let over = Ledger {
            total: 1.0,
            parts: vec![("a", 1.3)],
        };
        assert!((over.remainder() + 0.3).abs() < 1e-12);
        assert!(!over.closes(0.1));
        let empty = Ledger {
            total: 0.0,
            parts: vec![],
        };
        assert_eq!(empty.remainder_frac(), 0.0);
    }

    #[test]
    fn ledger_of_medians_takes_each_column_separately() {
        let l = |total, a, b| Ledger {
            total,
            parts: vec![("a", a), ("b", b)],
        };
        let m = Ledger::of_medians(&[l(1.0, 0.5, 0.1), l(3.0, 0.2, 0.9), l(2.0, 0.4, 0.3)]);
        assert_eq!(m.total, 2.0);
        assert_eq!(m.parts, vec![("a", 0.4), ("b", 0.3)]);
        assert!((m.remainder() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "time_to_answer_s",
            "prechar.lifetime_s",
            "mlmc.n0",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "ssf/s",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
