//! Streamed traces for the serve workloads: a block bootstrap of a
//! simulated profile.
//!
//! A trace is a sequence of the source profile's own EIPV intervals
//! (`spv` consecutive samples each), copied in runs of 5–20 consecutive
//! intervals from random start points. Runs keep the phase structure
//! the regression tree is meant to find, random starts make each seed's
//! trace different, and every sample is a real sample of the source,
//! so the trace has the source's EIP set and CPI distribution at any
//! length.

use fuzzyphase_profiler::Sample;
use rand::Rng;

/// Shortest and longest run of consecutive source intervals.
const RUN: (usize, usize) = (5, 20);

/// A `vectors × spv`-sample trace bootstrapped from `source` (whose
/// first `spv × (len / spv)` samples are its intervals).
///
/// # Panics
///
/// Panics if `source` holds fewer than 20 whole intervals.
pub fn bootstrap(source: &[Sample], spv: usize, vectors: usize, seed: u64) -> Vec<Sample> {
    let intervals = source.len() / spv;
    assert!(intervals >= RUN.1, "source too short to bootstrap");
    let mut rng = fuzzyphase_stats::seeded_rng(seed);
    let mut out = Vec::with_capacity(vectors * spv);
    while out.len() < vectors * spv {
        let run = rng.gen_range(RUN.0..=RUN.1);
        let start = rng.gen_range(0..=intervals - run);
        let left = vectors - out.len() / spv;
        let take = run.min(left);
        out.extend_from_slice(&source[start * spv..(start + take) * spv]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// 60 intervals of 10 samples; interval `i` uses EIPs `i*3..i*3+3`.
    fn source() -> Vec<Sample> {
        (0..600u64)
            .map(|i| Sample {
                eip: 0x1000 + (i / 10) * 3 + (i % 10) % 3,
                thread: 0,
                is_os: false,
                cpi: 1.0 + (i / 10) as f64 * 0.01,
            })
            .collect()
    }

    fn eips(t: &[Sample]) -> BTreeSet<u64> {
        t.iter().map(|s| s.eip).collect()
    }

    #[test]
    fn deterministic_per_seed_and_sized_in_whole_intervals() {
        let src = source();
        let a = bootstrap(&src, 10, 333, 7);
        assert_eq!(a, bootstrap(&src, 10, 333, 7));
        assert_ne!(a, bootstrap(&src, 10, 333, 8));
        assert_eq!(a.len(), 3330);
        // Every output interval is one whole source interval.
        for chunk in a.chunks(10) {
            let first = chunk[0].eip - 0x1000;
            assert_eq!(first % 3, 0);
            let start = (first / 3 * 10) as usize;
            assert_eq!(chunk, &src[start..start + 10]);
        }
    }

    #[test]
    fn keeps_the_source_eip_set() {
        let src = source();
        for seed in 0..5 {
            let t = bootstrap(&src, 10, 2000, seed);
            assert!(eips(&t).is_subset(&eips(&src)));
            // Long enough that every interval is drawn: the sets match.
            assert_eq!(eips(&t), eips(&src), "seed {seed}");
        }
    }
}
