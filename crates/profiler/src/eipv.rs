//! EIP-vector construction (§3.2 of the paper).
//!
//! The execution is divided into equal intervals; each interval becomes a
//! histogram vector over the *unique EIPs of the whole run*: entry *i* of
//! vector *j* counts how often unique EIP *i* was sampled during interval
//! *j*. Server workloads have tens of thousands of unique EIPs but only
//! ~100 samples per vector, so vectors are sparse.

use crate::session::Sample;
use fuzzyphase_stats::SparseVec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bidirectional mapping between raw EIP addresses and dense feature ids.
///
/// The map is a `BTreeMap` so serialized profiles are byte-stable
/// run-to-run (fuzzylint R1: result-path containers carry their order in
/// the type, not in the serializer).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EipIndex {
    map: BTreeMap<u64, u32>,
    eips: Vec<u64>,
}

impl EipIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the feature id for `eip`, allocating one if new.
    pub fn intern(&mut self, eip: u64) -> u32 {
        if let Some(&id) = self.map.get(&eip) {
            return id;
        }
        let id = self.eips.len() as u32;
        self.map.insert(eip, id);
        self.eips.push(eip);
        id
    }

    /// The feature id of `eip`, if it has been seen.
    pub fn get(&self, eip: u64) -> Option<u32> {
        self.map.get(&eip).copied()
    }

    /// The EIP address for feature `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn eip(&self, id: u32) -> u64 {
        self.eips[id as usize]
    }

    /// Number of unique EIPs.
    pub fn len(&self) -> usize {
        self.eips.len()
    }

    /// Whether no EIPs have been interned.
    pub fn is_empty(&self) -> bool {
        self.eips.is_empty()
    }
}

/// A set of EIP vectors with their CPIs: the regression-tree input.
#[derive(Debug, Clone, PartialEq)]
pub struct EipvData {
    /// One sparse histogram per interval; feature ids map through `index`.
    pub vectors: Vec<SparseVec>,
    /// The interval's instantaneous CPI (mean of its samples' CPIs).
    pub cpis: Vec<f64>,
    /// Feature-id ↔ EIP mapping.
    pub index: EipIndex,
    /// For per-thread data: which thread each vector came from (empty for
    /// system-wide vectors).
    pub vector_threads: Vec<u32>,
}

impl EipvData {
    /// Builds vectors by chunking consecutive samples, `spv` samples per
    /// vector (the standard §3.2 construction; a trailing partial chunk is
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics if `spv == 0`.
    pub fn from_samples(samples: &[Sample], spv: usize) -> Self {
        let mut b = EipvBuilder::new(spv);
        b.push_samples(samples);
        b.finish()
    }

    /// Builds per-thread vectors (§5.2): samples are partitioned by
    /// thread id, and each thread's sample stream is chunked
    /// independently. Thread streams shorter than one vector are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `spv == 0`.
    pub fn from_samples_per_thread(samples: &[Sample], spv: usize) -> Self {
        assert!(spv > 0, "need at least one sample per vector");
        // BTreeMap: threads come out in ascending id order without a
        // separate sort, so vector order is deterministic by construction.
        let mut by_thread: BTreeMap<u32, Vec<&Sample>> = BTreeMap::new();
        for s in samples {
            by_thread.entry(s.thread).or_default().push(s);
        }

        let mut index = EipIndex::new();
        let mut vectors = Vec::new();
        let mut cpis = Vec::new();
        let mut vector_threads = Vec::new();
        for (t, ss) in by_thread {
            for chunk in ss.chunks_exact(spv) {
                let owned: Vec<Sample> = chunk.iter().map(|&&s| s).collect();
                vectors.push(Self::histogram(&owned, &mut index));
                cpis.push(owned.iter().map(|s| s.cpi).sum::<f64>() / spv as f64);
                vector_threads.push(t);
            }
        }
        Self {
            vectors,
            cpis,
            index,
            vector_threads,
        }
    }

    fn histogram(chunk: &[Sample], index: &mut EipIndex) -> SparseVec {
        SparseVec::from_pairs(chunk.iter().map(|s| (index.intern(s.eip), 1.0)))
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether there are no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Number of features (unique EIPs across the run).
    pub fn num_features(&self) -> usize {
        self.index.len()
    }

    /// Population variance of the CPIs (the paper's `E`).
    pub fn cpi_variance(&self) -> f64 {
        fuzzyphase_stats::variance(&self.cpis)
    }

    /// Appends another data set's vectors onto this one, re-interning the
    /// other index's EIPs in *its* first-appearance order.
    ///
    /// Because [`EipIndex::intern`] allocates ids in first-appearance
    /// order and `other.index` stores its EIPs in exactly that order,
    /// absorbing data sets A then B into an empty accumulator reproduces
    /// the index a single builder would have produced had it seen A's
    /// samples before B's. The remap is injective, so each vector's
    /// values pass through [`SparseVec::from_pairs`] untouched — merging
    /// is bit-exact on vector values and CPIs, merely re-labelling
    /// feature ids. This is the cross-session suite-merge primitive: the
    /// serve daemon absorbs per-session partials in token order, making
    /// the merged result invariant to the order sessions finished in.
    pub fn absorb(&mut self, other: &EipvData) {
        let remap: Vec<u32> = (0..other.index.len() as u32)
            .map(|id| self.index.intern(other.index.eip(id)))
            .collect();
        for v in &other.vectors {
            self.vectors.push(SparseVec::from_pairs(
                v.iter().map(|(i, x)| (remap[i as usize], x)),
            ));
        }
        self.cpis.extend_from_slice(&other.cpis);
        self.vector_threads.extend_from_slice(&other.vector_threads);
    }

    /// An empty data set — the identity element for [`absorb`](Self::absorb).
    pub fn empty() -> Self {
        Self {
            vectors: Vec::new(),
            cpis: Vec::new(),
            index: EipIndex::new(),
            vector_threads: Vec::new(),
        }
    }
}

/// Incremental EIPV construction for streaming ingest (the serve
/// daemon's session engine): samples are pushed as they arrive and
/// complete vectors materialize one `spv`-sized chunk at a time.
///
/// The accumulated [`EipvData`] is **bit-identical** to
/// [`EipvData::from_samples`] over the concatenated sample stream, no
/// matter how the stream was split into batches — `from_samples` itself
/// is implemented on this builder, so the two cannot drift apart.
#[derive(Debug, Clone)]
pub struct EipvBuilder {
    spv: usize,
    pending: Vec<Sample>,
    data: EipvData,
}

impl EipvBuilder {
    /// Creates a builder producing vectors of `spv` samples each.
    ///
    /// # Panics
    ///
    /// Panics if `spv == 0`.
    pub fn new(spv: usize) -> Self {
        assert!(spv > 0, "need at least one sample per vector");
        Self {
            spv,
            pending: Vec::with_capacity(spv),
            data: EipvData {
                vectors: Vec::new(),
                cpis: Vec::new(),
                index: EipIndex::new(),
                vector_threads: Vec::new(),
            },
        }
    }

    /// Samples per vector.
    pub fn samples_per_vector(&self) -> usize {
        self.spv
    }

    /// Pushes one sample; completes a vector when the pending chunk
    /// reaches `spv` samples.
    pub fn push(&mut self, sample: Sample) {
        self.pending.push(sample);
        if self.pending.len() == self.spv {
            self.data
                .vectors
                .push(EipvData::histogram(&self.pending, &mut self.data.index));
            self.data
                .cpis
                .push(self.pending.iter().map(|s| s.cpi).sum::<f64>() / self.spv as f64);
            self.pending.clear();
        }
    }

    /// Pushes a batch of samples in order.
    pub fn push_samples(&mut self, samples: &[Sample]) {
        for &s in samples {
            self.push(s);
        }
    }

    /// Number of completed vectors so far.
    pub fn num_vectors(&self) -> usize {
        self.data.vectors.len()
    }

    /// Samples buffered toward the next (incomplete) vector.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// The data accumulated so far (completed vectors only).
    pub fn data(&self) -> &EipvData {
        &self.data
    }

    /// Finalizes the builder, dropping any trailing partial chunk —
    /// exactly the `chunks_exact` semantics of
    /// [`EipvData::from_samples`].
    pub fn finish(self) -> EipvData {
        self.data
    }

    /// The samples buffered toward the next (incomplete) vector.
    pub fn pending(&self) -> &[Sample] {
        &self.pending
    }

    /// Decomposes the builder into `(spv, pending, data)` for exact
    /// checkpoint/restore — the serve daemon's spool snapshots persist
    /// builders this way.
    pub fn into_parts(self) -> (usize, Vec<Sample>, EipvData) {
        (self.spv, self.pending, self.data)
    }

    /// Reassembles a builder from [`into_parts`](Self::into_parts)
    /// output. The restored builder continues bit-identically to the
    /// original: same interning order, same pending chunk.
    ///
    /// # Panics
    ///
    /// Panics if `spv == 0` or if `pending` already holds a full chunk
    /// (a valid builder completes a vector the moment `spv` samples are
    /// buffered, so its pending chunk is always shorter).
    pub fn from_parts(spv: usize, pending: Vec<Sample>, data: EipvData) -> Self {
        assert!(spv > 0, "need at least one sample per vector");
        assert!(
            pending.len() < spv,
            "pending chunk of {} samples is not smaller than spv {}",
            pending.len(),
            spv
        );
        Self { spv, pending, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(eip: u64, thread: u32, cpi: f64) -> Sample {
        Sample {
            eip,
            thread,
            is_os: false,
            cpi,
        }
    }

    #[test]
    fn histogram_mass_equals_samples_per_vector() {
        let samples: Vec<Sample> = (0..20).map(|i| sample(i % 5, 0, 1.0)).collect();
        let d = EipvData::from_samples(&samples, 10);
        assert_eq!(d.len(), 2);
        for v in &d.vectors {
            assert_eq!(v.sum(), 10.0);
        }
        assert_eq!(d.num_features(), 5);
    }

    #[test]
    fn cpi_is_chunk_mean() {
        let samples: Vec<Sample> = (0..4).map(|i| sample(0, 0, i as f64)).collect();
        let d = EipvData::from_samples(&samples, 2);
        assert_eq!(d.cpis, vec![0.5, 2.5]);
    }

    #[test]
    fn trailing_partial_chunk_dropped() {
        let samples: Vec<Sample> = (0..25).map(|i| sample(i, 0, 1.0)).collect();
        let d = EipvData::from_samples(&samples, 10);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn per_thread_separation() {
        // Interleaved threads 0/1, distinct EIPs and CPIs.
        let mut samples = Vec::new();
        for i in 0..40 {
            let t = i % 2;
            samples.push(sample(100 + t as u64, t, t as f64 + 1.0));
        }
        let d = EipvData::from_samples_per_thread(&samples, 10);
        assert_eq!(d.len(), 4);
        assert_eq!(d.vector_threads, vec![0, 0, 1, 1]);
        // Thread-pure vectors: one unique EIP each, thread CPI preserved.
        for (i, v) in d.vectors.iter().enumerate() {
            assert_eq!(v.nnz(), 1);
            let want_cpi = d.vector_threads[i] as f64 + 1.0;
            assert_eq!(d.cpis[i], want_cpi);
        }
    }

    #[test]
    fn index_roundtrip() {
        let mut idx = EipIndex::new();
        let a = idx.intern(0xDEAD);
        let b = idx.intern(0xBEEF);
        assert_ne!(a, b);
        assert_eq!(idx.intern(0xDEAD), a);
        assert_eq!(idx.eip(a), 0xDEAD);
        assert_eq!(idx.get(0xBEEF), Some(b));
        assert_eq!(idx.get(0x1234), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn builder_matches_from_samples_for_any_batching() {
        // A stream with repeated EIPs, multiple threads and irregular
        // CPIs, pushed through the builder in awkward batch sizes.
        let samples: Vec<Sample> = (0..137)
            .map(|i| sample(100 + (i % 11), (i % 3) as u32, 0.5 + (i as f64) * 0.037))
            .collect();
        let direct = EipvData::from_samples(&samples, 10);

        let mut b = EipvBuilder::new(10);
        let mut off = 0usize;
        for (step, batch_len) in [1usize, 7, 3, 23, 40, 100].iter().cycle().enumerate() {
            if off >= samples.len() {
                break;
            }
            let end = (off + batch_len).min(samples.len());
            b.push_samples(&samples[off..end]);
            off = end;
            let _ = step;
        }
        assert_eq!(b.num_vectors(), 13);
        assert_eq!(b.num_pending(), 7);
        let streamed = b.finish();
        assert_eq!(streamed, direct);
        // Bit-level identity of the CPI means, not just PartialEq.
        for (a, c) in streamed.cpis.iter().zip(&direct.cpis) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn builder_snapshot_is_prefix_of_final() {
        let samples: Vec<Sample> = (0..60).map(|i| sample(i % 4, 0, i as f64)).collect();
        let mut b = EipvBuilder::new(10);
        b.push_samples(&samples[..35]);
        let mid = b.data().clone();
        assert_eq!(mid.len(), 3);
        b.push_samples(&samples[35..]);
        let done = b.finish();
        assert_eq!(&done.vectors[..3], &mid.vectors[..]);
        assert_eq!(&done.cpis[..3], &mid.cpis[..]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn builder_rejects_zero_spv() {
        let _ = EipvBuilder::new(0);
    }

    #[test]
    fn builder_parts_roundtrip_resumes_bit_identically() {
        let samples: Vec<Sample> = (0..95)
            .map(|i| sample(100 + (i % 9), (i % 2) as u32, 0.25 + i as f64 * 0.013))
            .collect();
        // Split mid-vector so the pending chunk is non-empty.
        let mut b = EipvBuilder::new(10);
        b.push_samples(&samples[..47]);
        let (spv, pending, data) = b.into_parts();
        assert_eq!(pending.len(), 7);
        let mut restored = EipvBuilder::from_parts(spv, pending, data);
        restored.push_samples(&samples[47..]);
        let resumed = restored.finish();

        let direct = EipvData::from_samples(&samples, 10);
        assert_eq!(resumed, direct);
        for (a, c) in resumed.cpis.iter().zip(&direct.cpis) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "not smaller than spv")]
    fn from_parts_rejects_full_pending_chunk() {
        let full: Vec<Sample> = (0..10).map(|i| sample(i, 0, 1.0)).collect();
        let _ = EipvBuilder::from_parts(10, full, EipvBuilder::new(10).finish());
    }

    #[test]
    fn absorb_in_order_matches_sequential_build() {
        // Two per-session streams with overlapping EIP sets; absorbing
        // their independently-built data sets in order must reproduce
        // the data a single builder would have produced over session A's
        // samples followed by session B's — bit-identically.
        let a: Vec<Sample> = (0..50)
            .map(|i| sample(0x100 + (i % 7), 0, 0.5 + i as f64 * 0.01))
            .collect();
        let b: Vec<Sample> = (0..40)
            .map(|i| sample(0x104 + (i % 9), 1, 1.5 + i as f64 * 0.02))
            .collect();
        let da = EipvData::from_samples_per_thread(&a, 10);
        let db = EipvData::from_samples_per_thread(&b, 10);

        let mut merged = EipvData::empty();
        merged.absorb(&da);
        merged.absorb(&db);

        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let direct = EipvData::from_samples_per_thread(&concat, 10);
        // Per-thread construction agrees because the two sessions use
        // disjoint thread ids and each stream's length is a multiple of
        // spv (no pending chunks to drop).
        assert_eq!(merged, direct);

        let da2 = EipvData::from_samples(&a, 10);
        let db2 = EipvData::from_samples(&b, 10);
        let mut merged2 = EipvData::empty();
        merged2.absorb(&da2);
        merged2.absorb(&db2);
        let mut seq = EipvBuilder::new(10);
        seq.push_samples(&a);
        // A single builder carries A's pending chunk into B's samples;
        // per-session merge drops it per-session. Equal-multiple lengths
        // keep the two constructions aligned for this fixture.
        seq.push_samples(&b);
        let seq = seq.finish();
        assert_eq!(merged2, seq);
        for (x, y) in merged2.cpis.iter().zip(&seq.cpis) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn absorb_remaps_overlapping_eips_bit_exactly() {
        let a: Vec<Sample> = (0..20).map(|i| sample(10 + (i % 2), 0, 1.0)).collect();
        // Session B sees EIP 11 *first*, then a fresh EIP 99 — its local
        // ids collide with A's but mean different addresses.
        let b: Vec<Sample> = (0..20)
            .map(|i| sample(if i % 2 == 0 { 11 } else { 99 }, 0, 2.0))
            .collect();
        let da = EipvData::from_samples(&a, 10);
        let db = EipvData::from_samples(&b, 10);
        let mut m = EipvData::empty();
        m.absorb(&da);
        m.absorb(&db);
        assert_eq!(m.num_features(), 3);
        // Every vector's per-EIP mass must survive the remap untouched.
        let id11 = m.index.get(11).unwrap();
        let id99 = m.index.get(99).unwrap();
        assert_eq!(m.vectors[2].get(id11), 5.0);
        assert_eq!(m.vectors[2].get(id99), 5.0);
        assert_eq!(m.vectors.len(), 4);
        assert_eq!(m.cpis, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn absorb_empty_is_identity() {
        let a: Vec<Sample> = (0..20).map(|i| sample(i, 0, 1.0)).collect();
        let da = EipvData::from_samples(&a, 10);
        let mut m = da.clone();
        m.absorb(&EipvData::empty());
        assert_eq!(m, da);
        let mut e = EipvData::empty();
        e.absorb(&da);
        assert_eq!(e, da);
    }

    #[test]
    fn variance_of_flat_cpis_is_zero() {
        let samples: Vec<Sample> = (0..30).map(|i| sample(i, 0, 2.0)).collect();
        let d = EipvData::from_samples(&samples, 10);
        assert_eq!(d.cpi_variance(), 0.0);
    }
}
