//! Per-session incremental analysis state.
//!
//! A [`SessionEngine`] owns exactly what the offline pipeline would
//! build from the same trace: an [`EipvBuilder`] chunking samples into
//! EIPV vectors, plus a streaming Welford accumulator for per-sample
//! CPI (cheap progress feedback that never waits on a vector boundary).
//! Because the builder is the same code `EipvData::from_samples` runs,
//! the final report is bit-identical to `analyze` over the whole trace
//! — the equality the loopback tests pin down.

use fuzzyphase::{Quadrant, Thresholds};
use fuzzyphase_profiler::{EipvBuilder, EipvData, Sample};
use fuzzyphase_regtree::{analyze, AnalysisOptions, PredictabilityReport};
use fuzzyphase_sampling::Recommendation;
use fuzzyphase_stats::{SparseVec, Welford};

/// Per-session analysis parameters, fixed at `Hello` time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Samples per EIPV vector.
    pub spv: usize,
    /// Refit cadence in completed vectors (0 = final fit only).
    pub refit_every: usize,
    /// Regression-tree options (folds, k_max, seed, fold workers).
    pub analysis: AnalysisOptions,
    /// Quadrant thresholds.
    pub thresholds: Thresholds,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            spv: 100,
            refit_every: 0,
            analysis: AnalysisOptions::default(),
            thresholds: Thresholds::default(),
        }
    }
}

/// Progress numbers after one ingested batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestProgress {
    /// Samples ingested so far.
    pub samples: u64,
    /// Completed vectors so far.
    pub vectors: u64,
    /// Streaming mean of per-sample CPI.
    pub cpi_mean: f64,
    /// Streaming population variance of per-sample CPI.
    pub cpi_variance: f64,
}

/// One fit's outcome: report plus the quadrant policy applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct FitOutcome {
    /// The analysis report.
    pub report: PredictabilityReport,
    /// Quadrant under the session thresholds.
    pub quadrant: Quadrant,
    /// Sampling recommendation for that quadrant.
    pub recommendation: Recommendation,
}

/// Runs the regression-tree analysis and quadrant policy on a snapshot
/// of (vectors, interval CPIs). This is the function worker threads
/// execute; it is pure, so running it off-thread changes nothing.
///
/// # Panics
///
/// Panics (inside `analyze`) if there are fewer vectors than CV folds —
/// callers gate on [`SessionEngine::has_enough_vectors`].
pub fn run_fit(vectors: &[SparseVec], cpis: &[f64], cfg: &SessionConfig) -> FitOutcome {
    let report = analyze(vectors, cpis, &cfg.analysis);
    let quadrant = cfg.thresholds.classify(report.cpi_variance, report.re_min);
    FitOutcome {
        report,
        quadrant,
        recommendation: quadrant.recommendation(),
    }
}

/// Incremental state for one streaming session.
#[derive(Debug)]
pub struct SessionEngine {
    cfg: SessionConfig,
    builder: EipvBuilder,
    sample_cpi: Welford,
    samples: u64,
    last_refit_vectors: u64,
}

impl SessionEngine {
    /// Creates an engine for one session.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.spv` is zero (callers validate `Hello` first).
    pub fn new(cfg: SessionConfig) -> Self {
        Self {
            builder: EipvBuilder::new(cfg.spv),
            cfg,
            sample_cpi: Welford::new(),
            samples: 0,
            last_refit_vectors: 0,
        }
    }

    /// Rebuilds an engine from spool-recovered state (builder, CPI
    /// accumulator, sample count), continuing bit-identically to the
    /// engine that crashed. The refit cadence restarts at the recovered
    /// vector count so a resume does not immediately fire a refit for
    /// vectors already reported.
    pub fn restore(
        cfg: SessionConfig,
        builder: EipvBuilder,
        sample_cpi: Welford,
        samples: u64,
    ) -> Self {
        let last_refit_vectors = builder.num_vectors() as u64;
        Self {
            cfg,
            builder,
            sample_cpi,
            samples,
            last_refit_vectors,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Total samples ingested.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Completed vectors so far.
    pub fn vectors(&self) -> u64 {
        self.builder.num_vectors() as u64
    }

    /// Feeds one decoded batch and returns updated progress numbers.
    pub fn ingest(&mut self, batch: &[Sample]) -> IngestProgress {
        self.builder.push_samples(batch);
        for s in batch {
            self.sample_cpi.push(s.cpi);
        }
        self.samples += batch.len() as u64;
        self.progress()
    }

    /// The current progress numbers without ingesting anything.
    pub fn progress(&self) -> IngestProgress {
        IngestProgress {
            samples: self.samples,
            vectors: self.vectors(),
            cpi_mean: self.sample_cpi.mean(),
            cpi_variance: self.sample_cpi.variance_population(),
        }
    }

    /// Whether enough vectors exist for a fit (the cross-validation
    /// needs at least one row per fold).
    pub fn has_enough_vectors(&self) -> bool {
        self.builder.num_vectors() >= self.cfg.analysis.cv.folds
    }

    /// Whether an interim refit is due: a cadence is configured, the
    /// dataset is fit-sized, and `refit_every` new vectors completed
    /// since the last snapshot.
    pub fn refit_due(&self) -> bool {
        self.cfg.refit_every > 0
            && self.has_enough_vectors()
            && self.vectors() >= self.last_refit_vectors + self.cfg.refit_every as u64
    }

    /// Clones the completed vectors and CPIs for an off-thread fit and
    /// marks the refit cadence as satisfied at this point.
    pub fn snapshot(&mut self) -> (Vec<SparseVec>, Vec<f64>) {
        self.last_refit_vectors = self.vectors();
        let data = self.builder.data();
        (data.vectors.clone(), data.cpis.clone())
    }

    /// Clones only the vectors and CPIs completed since index `from` —
    /// the session's accumulated *delta* for an incremental refit
    /// (DESIGN.md D15) — and marks the refit cadence as satisfied.
    /// O(delta) instead of O(dataset), which is what lets the cadence
    /// keep pace with sustained ingest.
    pub fn snapshot_delta(&mut self, from: usize) -> (Vec<SparseVec>, Vec<f64>) {
        self.last_refit_vectors = self.vectors();
        let data = self.builder.data();
        let from = from.min(data.vectors.len());
        (data.vectors[from..].to_vec(), data.cpis[from..].to_vec())
    }

    /// Consumes the engine and runs the final fit — the same
    /// `EipvData::from_samples` + `analyze` path the offline pipeline
    /// takes (a trailing partial vector is dropped, as offline).
    ///
    /// Returns `Err` with a client-facing message when the trace is too
    /// short to cross-validate.
    pub fn finalize(self) -> Result<(FitOutcome, IngestProgress), String> {
        self.finalize_with_partial()
            .map(|(outcome, progress, _)| (outcome, progress))
    }

    /// Like [`finalize`](Self::finalize), but also hands back the
    /// session's suite contribution: the finished [`EipvData`] plus the
    /// raw sample-CPI accumulator. The daemon stores these as a
    /// [`fuzzyphase::SessionPartial`] for the cross-session suite merge.
    pub fn finalize_with_partial(
        self,
    ) -> Result<(FitOutcome, IngestProgress, (EipvData, Welford)), String> {
        let progress = self.progress();
        if !self.has_enough_vectors() {
            return Err(format!(
                "trace too short: {} complete vectors, need at least {} (one per fold)",
                progress.vectors, self.cfg.analysis.cv.folds
            ));
        }
        let cfg = self.cfg;
        let sample_cpi = self.sample_cpi;
        let data = self.builder.finish();
        let outcome = run_fit(&data.vectors, &data.cpis, &cfg);
        Ok((outcome, progress, (data, sample_cpi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_profiler::EipvData;

    fn sample(i: u64) -> Sample {
        Sample {
            eip: 0x1000 + (i % 7) * 0x40,
            thread: 0,
            is_os: false,
            cpi: 1.0 + (i % 13) as f64 * 0.05,
        }
    }

    fn trace(n: u64) -> Vec<Sample> {
        (0..n).map(sample).collect()
    }

    fn tiny_cfg() -> SessionConfig {
        let mut cfg = SessionConfig {
            spv: 10,
            refit_every: 3,
            ..SessionConfig::default()
        };
        cfg.analysis.cv.folds = 5;
        cfg.analysis.cv.k_max = 8;
        cfg
    }

    #[test]
    fn progress_tracks_welford_over_batches() {
        let mut e = SessionEngine::new(tiny_cfg());
        let t = trace(95);
        let mut last = e.progress();
        for chunk in t.chunks(17) {
            last = e.ingest(chunk);
        }
        assert_eq!(last.samples, 95);
        assert_eq!(last.vectors, 9); // 95 / spv=10, partial dropped
        let mut w = Welford::new();
        w.extend(t.iter().map(|s| s.cpi));
        assert_eq!(last.cpi_mean.to_bits(), w.mean().to_bits());
        assert_eq!(
            last.cpi_variance.to_bits(),
            w.variance_population().to_bits()
        );
    }

    #[test]
    fn refit_cadence_gates_on_folds_then_every_n_vectors() {
        let mut e = SessionEngine::new(tiny_cfg());
        // 4 vectors: cadence (3) met but below folds (5) — not due.
        e.ingest(&trace(40));
        assert!(!e.refit_due());
        // 6 vectors: past folds and cadence — due.
        e.ingest(&trace(20));
        assert!(e.refit_due());
        let (v, c) = e.snapshot();
        assert_eq!(v.len(), 6);
        assert_eq!(c.len(), 6);
        // Cadence resets at the snapshot: 2 more vectors < 3 — not due.
        e.ingest(&trace(20));
        assert!(!e.refit_due());
        e.ingest(&trace(10));
        assert!(e.refit_due());
    }

    #[test]
    fn finalize_matches_offline_pipeline_bit_for_bit() {
        let cfg = tiny_cfg();
        let t = trace(83); // 8 vectors + 3 pending
        let mut e = SessionEngine::new(cfg);
        for chunk in t.chunks(9) {
            e.ingest(chunk);
        }
        let (streamed, progress) = e.finalize().expect("enough vectors");
        assert_eq!(progress.vectors, 8);

        let offline = EipvData::from_samples(&t, cfg.spv);
        let expect = run_fit(&offline.vectors, &offline.cpis, &cfg);
        assert_eq!(streamed, expect);
        for (a, b) in streamed.report.re_curve.iter().zip(&expect.report.re_curve) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn restored_engine_continues_bit_identically() {
        let cfg = tiny_cfg();
        let t = trace(83);
        // Uninterrupted engine over the whole trace.
        let mut whole = SessionEngine::new(cfg);
        for chunk in t.chunks(9) {
            whole.ingest(chunk);
        }
        // Engine interrupted mid-stream, state moved through restore.
        let mut first = SessionEngine::new(cfg);
        first.ingest(&t[..47]);
        let samples = first.samples();
        let welford = first.sample_cpi;
        let mut resumed = SessionEngine::restore(cfg, first.builder, welford, samples);
        resumed.ingest(&t[47..]);

        assert_eq!(resumed.progress(), whole.progress());
        let a = resumed.finalize().expect("fit");
        let b = whole.finalize().expect("fit");
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn finalize_rejects_short_traces() {
        let mut e = SessionEngine::new(tiny_cfg());
        e.ingest(&trace(30)); // 3 vectors < 5 folds
        let err = e.finalize().expect_err("too short");
        assert!(err.contains("trace too short"), "{err}");
    }
}
