//! Shared fixtures for the suite-report tests: per-session traces and
//! the offline ground truth for a daemon's `SuiteReport`.

use fuzzyphase::{merge_partials, SessionPartial};
use fuzzyphase_profiler::{EipvData, Sample};
use fuzzyphase_serve::{FitOutcome, ServerConfig, SessionConfig};
use fuzzyphase_stats::Welford;

/// A deterministic trace whose EIP bands and CPI levels depend on
/// `seed`, so sessions of one suite differ from each other.
pub fn session_trace(seed: u64, n: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| Sample {
            eip: 0x4000 + seed * 0x1000 + (i % (17 + seed)) * 0x10,
            thread: (i % 3) as u32,
            is_os: false,
            cpi: 0.8 + seed as f64 * 0.05 + (i % (7 + seed)) as f64 * 0.063,
        })
        .collect()
}

/// The offline suite: per-session partials built exactly as the daemon
/// builds them (tokens `sess-00000001`.. in session order, same builder,
/// same Welford), merged and fitted with the daemon's options.
pub fn offline_suite(cfg: &ServerConfig, traces: &[Vec<Sample>], spv: usize) -> FitOutcome {
    let partials: Vec<SessionPartial> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut w = Welford::new();
            for s in t {
                w.push(s.cpi);
            }
            SessionPartial {
                token: format!("sess-{:08}", i as u64 + 1),
                data: EipvData::from_samples(t, spv),
                cpi: w.state(),
                samples: t.len() as u64,
            }
        })
        .collect();
    let merged = merge_partials(partials);
    let scfg = SessionConfig {
        spv: 1,
        refit_every: 0,
        analysis: *cfg.request.analysis(),
        thresholds: *cfg.request.thresholds(),
    };
    fuzzyphase_serve::session::run_fit(&merged.data.vectors, &merged.data.cpis, &scfg)
}
