//! Experiment harness for the `xlmc` reproduction.
//!
//! One binary per table/figure of the paper's evaluation section (§6) lives
//! under `src/bin`; this library holds the shared experiment context and
//! small report-formatting helpers. `bench_campaign` is the CI smoke gate
//! (kernel throughput and cross-configuration result equality); the
//! performance record is the time-to-answer benchmark in `perfbench/`.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig04_characterization` | Fig. 4(a,b): lifetime / contamination distributions |
//! | `fig07_error_patterns`   | Fig. 7(a,b): bit-error patterns, comb vs seq |
//! | `fig08_sampling_dist`    | Fig. 8(a,b): `g_T` and sample-space reduction |
//! | `fig09_convergence`      | Fig. 9(a,b): convergence + variance table |
//! | `fig10_outcome_split`    | Fig. 10(a,b): strike classes + SSF comb vs reg |
//! | `fig11_attack_uncertainty` | Fig. 11(a,b): temporal/spatial accuracy sweeps |
//! | `hardening_study`        | §6 hardening claim: top registers, SSF reduction, area |
//! | `ablation_alpha_beta`    | extension: sensitivity of `g_{T,P}` to α/β |

use std::path::{Path, PathBuf};
use xlmc::estimator::{run_campaign_observed, CampaignOptions, CampaignResult};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{ExperimentConfig, SamplingStrategy};
use xlmc::telemetry::StderrProgress;
use xlmc::trace::{self, TraceSink};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

/// Everything the figure binaries need, built once per process.
pub struct ExperimentContext {
    /// The gate-level system model.
    pub model: SystemModel,
    /// The illegal-write evaluation (the primary benchmark).
    pub write_eval: Evaluation,
    /// The illegal-read evaluation.
    pub read_eval: Evaluation,
    /// The shared pre-characterization.
    pub prechar: Precharacterization,
    /// The experiment parameters.
    pub cfg: ExperimentConfig,
}

impl ExperimentContext {
    /// Build the full context with default parameters.
    ///
    /// # Panics
    ///
    /// Panics if the stock model or workloads fail to build — that would be
    /// a bug, not an input error.
    pub fn build() -> Self {
        Self::build_with(ExperimentConfig::default())
    }

    /// Build with custom experiment parameters.
    ///
    /// # Panics
    ///
    /// See [`ExperimentContext::build`].
    pub fn build_with(cfg: ExperimentConfig) -> Self {
        Self::build_with_observed(cfg, &CampaignOptions::default())
    }

    /// [`ExperimentContext::build`], honouring the harness flags: when
    /// `--trace PATH` is set, the setup and pre-characterization steps are
    /// spanned and written to `PATH` tagged `prechar` (the campaign trace
    /// goes to the per-campaign tagged path, see [`run_observed_campaign`]).
    ///
    /// # Panics
    ///
    /// See [`ExperimentContext::build`].
    pub fn build_observed(opts: &CampaignOptions) -> Self {
        Self::build_with_observed(ExperimentConfig::default(), opts)
    }

    /// [`ExperimentContext::build_with`] + [`ExperimentContext::build_observed`].
    ///
    /// # Panics
    ///
    /// See [`ExperimentContext::build`].
    pub fn build_with_observed(cfg: ExperimentConfig, opts: &CampaignOptions) -> Self {
        let sink = if opts.trace_path.is_some() {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        eprintln!("[setup] building system model and golden runs ...");
        let (model, write_eval, read_eval) = {
            let _span = sink.span("setup", "model+golden");
            let model = SystemModel::with_defaults().expect("stock model must build");
            let write_eval =
                Evaluation::new(workloads::illegal_write()).expect("write workload golden run");
            let read_eval =
                Evaluation::new(workloads::illegal_read()).expect("read workload golden run");
            (model, write_eval, read_eval)
        };
        eprintln!("[setup] running pre-characterization ...");
        let prechar = Precharacterization::run_traced(&model, cfg.t_max, cfg.max_radius(), &sink);
        eprintln!("[setup] done.");
        if let Some(path) = &opts.trace_path {
            let path = tagged_path(path, "prechar");
            sink.print_self_time("prechar");
            if let Err(e) = trace::write_trace(
                &path,
                &sink,
                &trace::CampaignCounters::default(),
                &trace::KernelCounters::default(),
                &[],
                &[],
            ) {
                eprintln!("[setup] failed to write trace {}: {e}", path.display());
            }
        }
        Self {
            model,
            write_eval,
            read_eval,
            prechar,
            cfg,
        }
    }
}

/// Insert `tag` before the path's extension:
/// `out/m.json` + `fig09-random` → `out/m.fig09-random.json`.
pub fn tagged_path(path: &Path, tag: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}.{tag}.{ext}"))
}

/// `opts` with every output path (`--metrics`, `--checkpoint`, `--trace`,
/// `--events`, `--prom`) tagged by [`tagged_path`], so the campaigns of
/// one process neither clobber nor cross-resume each other's files.
pub fn tagged_options(opts: &CampaignOptions, tag: &str) -> CampaignOptions {
    let tag_path = |p: &Option<PathBuf>| p.as_deref().map(|p| tagged_path(p, tag));
    CampaignOptions {
        metrics_path: tag_path(&opts.metrics_path),
        checkpoint_path: tag_path(&opts.checkpoint_path),
        trace_path: tag_path(&opts.trace_path),
        events_path: tag_path(&opts.events_path),
        prom_path: tag_path(&opts.prom_path),
        ..opts.clone()
    }
}

/// Run one campaign with the harness's standard observability: a
/// rate-limited stderr progress line, plus whatever `--metrics` /
/// `--checkpoint` / `--target-eps` flags the options carry. Binaries that
/// run several campaigns pass a distinct `tag` per campaign — it is
/// combined with the strategy name and inserted into the metrics and
/// checkpoint file names, so campaigns neither clobber nor cross-resume
/// each other's files.
pub fn run_observed_campaign(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    seed: u64,
    opts: &CampaignOptions,
    tag: &str,
) -> CampaignResult {
    let tag = format!("{tag}-{}", strategy.name());
    let opts = tagged_options(opts, &tag);
    let mut progress = StderrProgress::new(tag);
    run_campaign_observed(runner, strategy, n, seed, &opts, &mut progress)
}

/// Print a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Render a unit-interval value as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A crude ASCII sparkline for convergence-style series.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = ((v - min) / span * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_path_inserts_tag_before_extension() {
        assert_eq!(
            tagged_path(Path::new("out/m.json"), "fig09-random"),
            Path::new("out/m.fig09-random.json")
        );
        assert_eq!(
            tagged_path(Path::new("ck"), "a-b"),
            Path::new("ck.a-b.json")
        );
    }

    #[test]
    fn tagged_options_tags_every_output_path_and_nothing_else() {
        let opts = CampaignOptions {
            threads: 3,
            metrics_path: Some("out/m.json".into()),
            checkpoint_path: Some("out/ck.json".into()),
            trace_path: Some("out/trace.json".into()),
            events_path: Some("out/ev.jsonl".into()),
            prom_path: None,
            ..CampaignOptions::default()
        };
        let tagged = tagged_options(&opts, "row");
        assert_eq!(tagged.threads, 3);
        assert_eq!(tagged.metrics_path, Some("out/m.row.json".into()));
        assert_eq!(tagged.checkpoint_path, Some("out/ck.row.json".into()));
        assert_eq!(tagged.trace_path, Some("out/trace.row.json".into()));
        assert_eq!(tagged.events_path, Some("out/ev.row.jsonl".into()));
        assert_eq!(tagged.prom_path, None);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn sparkline_has_one_glyph_per_value() {
        let s = sparkline(&[0.0, 0.5, 1.0, 0.25]);
        assert_eq!(s.chars().count(), 4);
    }

    #[test]
    fn sparkline_handles_constant_series() {
        let s = sparkline(&[0.4, 0.4, 0.4]);
        assert_eq!(s.chars().count(), 3);
    }
}
