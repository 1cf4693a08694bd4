//! Cross-session suite merge (DESIGN.md D9).
//!
//! The serve daemon keeps each finished session's partial state; at
//! suite-report time those partials must fold into one [`MergedSuite`]
//! whose analysis output is **independent of the order sessions
//! finished in or were collected in**. The trick is to make the fold
//! order a function of the *sessions* (their tokens), never of arrival
//! or iteration order: [`merge_partials`] sorts every partial by token
//! and absorbs them in that order, so any collection order of the daemon
//! or an offline per-session pipeline all collapse to byte-identical
//! state.
//!
//! Two accumulators cross the merge boundary:
//!
//! - **EIPV data** — merged with [`EipvData::absorb`], which re-interns
//!   each partial's EIPs in first-appearance order and re-labels feature
//!   ids through an injective remap. Vector values and CPIs pass through
//!   bit-exactly; the merged data equals what a single builder would
//!   have produced had it ingested the sessions' completed chunks in
//!   token order.
//! - **sample-level CPI statistics** — per-session [`Welford`]
//!   accumulators shipped as raw `(count, mean, m2)` state and folded
//!   with the Chan et al. pairwise update ([`MergeableWelford::merge`]),
//!   again in token order. The pairwise update is not bit-identical to
//!   one long push stream, but folding the same parts in the same order
//!   is fully deterministic — which is the property the suite `Report`
//!   needs, since the report itself is computed from the merged
//!   per-interval CPI vector, not from this accumulator.
//!
//! [`Welford`]: fuzzyphase_stats::Welford

use fuzzyphase_profiler::EipvData;
use fuzzyphase_stats::MergeableWelford;

/// One session's contribution to the suite: everything a finished
/// session hands over for the cross-session merge.
///
/// Produced by the serve daemon when a session finishes (its engine's
/// final EIPV data plus sample-CPI accumulator), but deliberately free of
/// any serve types so offline pipelines can build the same partials from
/// trace files and assert bit-identity against the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPartial {
    /// The session's suite key — its resume token (or synthesized
    /// `sess-NNNNNNNN` name). Tokens are unique per suite and define the
    /// canonical merge order.
    pub token: String,
    /// Completed EIP vectors + interval CPIs (pending partial chunks are
    /// dropped per-session, exactly like offline `from_samples`).
    pub data: EipvData,
    /// Raw `(count, mean, m2)` state of the session's sample-level CPI
    /// accumulator ([`fuzzyphase_stats::Welford::state`]).
    pub cpi: (u64, f64, f64),
    /// Total samples the session ingested (including any dropped pending
    /// tail).
    pub samples: u64,
}

/// The deterministic fold of a set of [`SessionPartial`]s.
#[derive(Debug, Clone)]
pub struct MergedSuite {
    /// Merged EIPV data: vectors/CPIs concatenated in token order over a
    /// shared re-interned index.
    pub data: EipvData,
    /// Suite-wide sample-level CPI accumulator (Chan-merged in token
    /// order).
    pub sample_cpi: MergeableWelford,
    /// Number of sessions merged.
    pub sessions: usize,
    /// Total samples across all sessions.
    pub samples: u64,
}

/// Folds session partials into one suite state, in token order.
///
/// Sorting by token before absorbing is what makes the result invariant
/// to partition and iteration order: any grouping of the same sessions
/// yields the same sorted sequence, hence bit-identical merged
/// vectors, CPIs, index, and Welford state. Duplicate tokens cannot occur
/// in a live daemon (tokens are claimed exclusively); if a caller passes
/// duplicates anyway, both are folded in their incoming relative order,
/// which `sort_by` (stable) preserves.
pub fn merge_partials(mut partials: Vec<SessionPartial>) -> MergedSuite {
    partials.sort_by(|a, b| a.token.cmp(&b.token));
    let mut data = EipvData::empty();
    let mut sample_cpi = MergeableWelford::new();
    let mut samples = 0u64;
    for p in &partials {
        data.absorb(&p.data);
        let (count, mean, m2) = p.cpi;
        sample_cpi.merge(&MergeableWelford::from_state(count, mean, m2));
        samples += p.samples;
    }
    MergedSuite {
        data,
        sample_cpi,
        sessions: partials.len(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_profiler::{EipvBuilder, Sample};
    use fuzzyphase_stats::{seeded_rng, Welford};
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn synth_session(session: u64, n: usize, spv: usize) -> SessionPartial {
        // Per-session EIP band with cross-session overlap in the low ids,
        // mirroring loadgen's synthetic traces.
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample {
                eip: 0x1000 * (1 + session % 3) + (i as u64 % 17),
                thread: (i % 4) as u32,
                is_os: false,
                cpi: 0.5 + ((session as f64) * 0.3 + i as f64 * 0.013).sin().abs(),
            })
            .collect();
        let mut b = EipvBuilder::new(spv);
        b.push_samples(&samples);
        let mut w = Welford::new();
        for s in &samples {
            w.push(s.cpi);
        }
        SessionPartial {
            token: format!("sess-{session:08}"),
            data: b.finish(),
            cpi: w.state(),
            samples: n as u64,
        }
    }

    fn assert_bit_identical(a: &MergedSuite, b: &MergedSuite) {
        assert_eq!(a.data, b.data);
        for (x, y) in a.data.cpis.iter().zip(&b.data.cpis) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (va, vb) in a.data.vectors.iter().zip(&b.data.vectors) {
            let pa: Vec<(u32, u64)> = va.iter().map(|(i, v)| (i, v.to_bits())).collect();
            let pb: Vec<(u32, u64)> = vb.iter().map(|(i, v)| (i, v.to_bits())).collect();
            assert_eq!(pa, pb);
        }
        let sa = a.sample_cpi.state();
        let sb = b.sample_cpi.state();
        assert_eq!(sa.0, sb.0);
        assert_eq!(sa.1.to_bits(), sb.1.to_bits());
        assert_eq!(sa.2.to_bits(), sb.2.to_bits());
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn merge_is_invariant_to_shard_partition_and_order() {
        // Property test (seeded; fuzzylint R2): for random shard counts
        // and random shard-iteration orders, the merged suite is
        // bit-identical to the canonical single-list merge.
        let sessions: Vec<SessionPartial> = (0..9)
            .map(|s| synth_session(s, 230 + (s as usize) * 37, 20))
            .collect();
        let reference = merge_partials(sessions.clone());

        let mut rng = seeded_rng(0xD11);
        for _trial in 0..25 {
            let shards = rng.gen_range(1..=8usize);
            // Route by a random assignment: any partition must merge
            // identically.
            let mut buckets: Vec<Vec<SessionPartial>> = vec![Vec::new(); shards];
            for s in &sessions {
                let b = rng.gen_range(0..shards);
                buckets[b].push(s.clone());
            }
            // Collect shards in a random order, like a racy iteration.
            buckets.shuffle(&mut rng);
            let collected: Vec<SessionPartial> = buckets.into_iter().flatten().collect();
            let merged = merge_partials(collected);
            assert_bit_identical(&merged, &reference);
        }
    }

    #[test]
    fn merged_report_matches_offline_per_session_pipeline() {
        use fuzzyphase_regtree::{analyze, AnalysisOptions};

        let sessions: Vec<SessionPartial> = (0..4).map(|s| synth_session(s, 400, 20)).collect();

        // Offline ground truth: per-session EipvData folded in token
        // order by hand (tokens here are already sorted).
        let mut offline = EipvData::empty();
        for p in &sessions {
            offline.absorb(&p.data);
        }

        let merged = merge_partials(sessions.clone());
        assert_eq!(merged.data, offline);
        assert_eq!(merged.sessions, 4);
        assert_eq!(merged.samples, 1600);

        let opts = AnalysisOptions::default();
        let a = analyze(&merged.data.vectors, &merged.data.cpis, &opts);
        let b = analyze(&offline.vectors, &offline.cpis, &opts);
        assert_eq!(a, b);
        for (x, y) in a.re_curve.iter().zip(&b.re_curve) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_merge_is_empty() {
        let m = merge_partials(Vec::new());
        assert!(m.data.is_empty());
        assert_eq!(m.sessions, 0);
        assert_eq!(m.samples, 0);
        assert_eq!(m.sample_cpi.count(), 0);
    }

    #[test]
    fn sample_counts_and_welford_totals_add_up() {
        let sessions: Vec<SessionPartial> = (0..3).map(|s| synth_session(s, 100, 10)).collect();
        let m = merge_partials(sessions);
        assert_eq!(m.samples, 300);
        assert_eq!(m.sample_cpi.count(), 300);
    }
}
