//! `fuzzyphase-diff` — differential analysis: *why* do two runs of the
//! "same" workload perform differently?
//!
//! The paper measures how predictable CPI is from code signatures
//! (EIPVs); this crate answers the follow-up question a performance
//! debugger actually asks: given a baseline run A ("fast") and a
//! candidate run B ("slow"), **which code signatures separate them?**
//! It fits a discriminant tree over the union of the two sides' EIPV
//! rows with a 0/1 class-indicator target and reads the tree's
//! root-to-leaf paths back as ranked, human-readable explanations
//! ([`DiffReport`]).
//!
//! # Split criterion: weighted Gini via the shared kernel
//!
//! Splits are chosen by weighted Gini impurity reduction — but no Gini
//! search loop exists here. A group of `n` class-indicator targets with
//! class-1 fraction `p` has `SSE = n·p·(1−p) = n·Gini/2`, so the SSE
//! gain the regression kernel maximizes *is* the weighted Gini gain up
//! to the constant factor ½, candidate for candidate, tie for tie. The
//! fit therefore calls [`Fitter::full`] on the indicator dataset and
//! runs the one best-first growth loop of `fuzzyphase-regtree`,
//! inheriting its bit-identity contract with the test-side oracle
//! (DESIGN.md D13).
//!
//! # Determinism contract (DESIGN.md D14)
//!
//! The report's bytes depend only on the two inputs and [`DiffOptions`]:
//!
//! * sides are canonicalized by label order before the union is built,
//!   so `diff(a, b)` and `diff(b, a)` run the identical computation and
//!   differ only in which side the report calls A — mirrored, with
//!   `cpi_delta` exactly negated;
//! * the union re-interns EIPs in first-appearance order
//!   ([`EipvData::absorb`] — the same cross-session merge primitive the
//!   daemon's `SuiteReport` uses), every reduction runs in row order,
//!   and ranking ties break on support then leaf index.
//!
//! The daemon's `Diff` reply and the offline `fuzzydiff` CLI pin this
//! down byte-for-byte in loopback tests.

#![warn(missing_docs)]

pub mod report;

pub use report::{ClassSummary, DiffPath, DiffPredicate, DiffReport};

use fuzzyphase_profiler::EipvData;
use fuzzyphase_regtree::{Dataset, Fitter, RegressionTree};
use fuzzyphase_stats::SparseVec;

/// Knobs of the discriminant fit. The defaults are part of the wire
/// determinism contract: the daemon and the offline CLI both fit with
/// `DiffOptions::default()`, which is how their reports can be compared
/// byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOptions {
    /// Maximum leaves of the discriminant tree (best-first growth stops
    /// here; fewer when no split clears the gain bar).
    pub max_leaves: usize,
    /// Minimum vectors per side of any split.
    pub min_leaf: usize,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            max_leaves: 16,
            min_leaf: 2,
        }
    }
}

/// Why a diff could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// A side contributed no complete EIPV vectors.
    EmptySide(String),
    /// Both sides carry the same label, so the report could not tell
    /// them apart (labels are resume tokens or spool paths — distinct
    /// by construction in the daemon and CLI).
    IdenticalLabels(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::EmptySide(label) => {
                write!(f, "side '{label}' has no complete EIPV vectors to diff")
            }
            DiffError::IdenticalLabels(label) => {
                write!(f, "both sides are labeled '{label}'; labels must differ")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// Per-leaf class accumulator, filled in canonical row order.
#[derive(Clone, Copy, Default)]
struct LeafAcc {
    c0: u64,
    c1: u64,
    cpi0: f64,
    cpi1: f64,
}

/// Fits the discriminant tree between side A (`label_a`) and side B
/// (`label_b`) and renders the [`DiffReport`].
///
/// Class A is conventionally the fast/baseline run and class B the
/// slow/candidate run, but nothing depends on it: swapping the
/// arguments mirrors the report deterministically (summaries and
/// per-path CPI columns swap, `cpi_delta` negates bit-exactly, the
/// tree and ranking stay identical).
pub fn diff(
    a: &EipvData,
    b: &EipvData,
    label_a: &str,
    label_b: &str,
    opts: &DiffOptions,
) -> Result<DiffReport, DiffError> {
    if label_a == label_b {
        return Err(DiffError::IdenticalLabels(label_a.to_string()));
    }
    if a.is_empty() {
        return Err(DiffError::EmptySide(label_a.to_string()));
    }
    if b.is_empty() {
        return Err(DiffError::EmptySide(label_b.to_string()));
    }

    // Canonicalize: the side whose label sorts first becomes class 0.
    // Both argument orders now run the identical computation; only the
    // A/B presentation below depends on `swapped`.
    let swapped = label_b < label_a;
    let (l0, d0, l1, d1) = if swapped {
        (label_b, b, label_a, a)
    } else {
        (label_a, a, label_b, b)
    };

    // Union feature space: re-intern side 0 then side 1 — the same
    // first-appearance-order merge the daemon's cross-session suite
    // report uses, so feature ids are deterministic.
    let mut union = EipvData::empty();
    union.absorb(d0);
    union.absorb(d1);
    let n0 = d0.len();
    let n1 = d1.len();
    let n = n0 + n1;
    let index = union.index;
    let cpis = union.cpis;

    // Class-indicator targets: side 0 → 0.0, side 1 → 1.0. On these
    // the regression kernel's SSE gain equals weighted Gini gain / 2.
    let mut y = vec![0.0f64; n];
    for t in y.iter_mut().skip(n0) {
        *t = 1.0;
    }
    let ds = Dataset::new(union.vectors, y);
    let tree = Fitter::new()
        .max_leaves(opts.max_leaves)
        .min_leaf(opts.min_leaf)
        .full(&ds);

    // Route every vector to its leaf and accumulate per-leaf class
    // counts and CPI sums, in canonical row order.
    let mut accs = vec![LeafAcc::default(); tree.nodes().len()];
    for (i, &cpi) in cpis.iter().enumerate().take(n) {
        let leaf = leaf_of(&tree, ds.row(i));
        let acc = &mut accs[leaf];
        if i < n0 {
            acc.c0 += 1;
            acc.cpi0 += cpi;
        } else {
            acc.c1 += 1;
            acc.cpi1 += cpi;
        }
    }

    // Global per-class CPI means (row order) — the fallback for leaves
    // one class never reaches.
    let mean0 = cpis[..n0].iter().sum::<f64>() / n0 as f64;
    let mean1 = cpis[n0..].iter().sum::<f64>() / n1 as f64;

    // Collect root-to-leaf paths (left child before right), then rank.
    let mut ranked: Vec<(usize, DiffPath)> = Vec::new();
    let mut stack: Vec<(usize, Vec<DiffPredicate>)> = vec![(0, Vec::new())];
    while let Some((idx, preds)) = stack.pop() {
        let node = &tree.nodes()[idx];
        if let (Some(split), Some(l), Some(r)) = (node.split, node.left, node.right) {
            let pred = |le: bool| DiffPredicate {
                feature: split.feature,
                eip: index.eip(split.feature),
                threshold: split.threshold,
                le,
            };
            let mut left_preds = preds.clone();
            left_preds.push(pred(true));
            let mut right_preds = preds;
            right_preds.push(pred(false));
            // Push right first so the left child pops (and ties rank)
            // first.
            stack.push((r as usize, right_preds));
            stack.push((l as usize, left_preds));
            continue;
        }
        let acc = accs[idx];
        let support = acc.c0 + acc.c1;
        debug_assert!(support > 0, "every leaf holds at least one row");
        // Majority class; ties go to the canonical-first side.
        let (maj_count, maj_is_1) = if acc.c1 > acc.c0 {
            (acc.c1, true)
        } else {
            (acc.c0, false)
        };
        let purity = maj_count as f64 / support as f64;
        let score = purity * (support as f64 / n as f64);
        let leaf_cpi0 = if acc.c0 > 0 {
            acc.cpi0 / acc.c0 as f64
        } else {
            mean0
        };
        let leaf_cpi1 = if acc.c1 > 0 {
            acc.cpi1 / acc.c1 as f64
        } else {
            mean1
        };
        // Map canonical sides back to the caller's A/B orientation.
        let (a_vectors, b_vectors, cpi_a, cpi_b) = if swapped {
            (acc.c1, acc.c0, leaf_cpi1, leaf_cpi0)
        } else {
            (acc.c0, acc.c1, leaf_cpi0, leaf_cpi1)
        };
        let class = if maj_is_1 { l1 } else { l0 };
        let cpi_delta = cpi_b - cpi_a;
        let conj = if preds.is_empty() {
            "(root)".to_string()
        } else {
            preds
                .iter()
                .map(DiffPredicate::describe)
                .collect::<Vec<_>>()
                .join(" and ")
        };
        let explanation = format!(
            "{conj} -> {maj_count}/{support} vectors from '{class}' (purity {purity:.3}); \
             mean CPI {cpi_a:.4} ('{label_a}') vs {cpi_b:.4} ('{label_b}'), delta {cpi_delta:+.4}"
        );
        ranked.push((
            idx,
            DiffPath {
                class: class.to_string(),
                predicates: preds,
                support,
                a_vectors,
                b_vectors,
                purity,
                score,
                cpi_a,
                cpi_b,
                cpi_delta,
                explanation,
            },
        ));
    }
    // Rank by purity × support; ties by support, then by leaf index in
    // the deterministic left-before-right collection order above.
    ranked.sort_by(|(ia, pa), (ib, pb)| {
        pb.score
            .total_cmp(&pa.score)
            .then(pb.support.cmp(&pa.support))
            .then(ia.cmp(ib))
    });
    let paths: Vec<DiffPath> = ranked.into_iter().map(|(_, p)| p).collect();

    // Separability: the fraction of indicator variance the tree
    // removed. Root SSE is `n·p·(1−p)` — zero only if a side were
    // empty, which was rejected above.
    let root_sse = tree.root().sse;
    let leaf_sse: f64 = tree
        .nodes()
        .iter()
        .filter(|nd| nd.is_leaf())
        .map(|nd| nd.sse)
        .sum();
    let separability = if root_sse > 0.0 {
        (1.0 - leaf_sse / root_sse).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let (ma, mb) = if swapped {
        (mean1, mean0)
    } else {
        (mean0, mean1)
    };
    let (na, nb) = (a.len(), b.len());
    // fuzzylint: allow(panic) — both sides are non-empty, so the tree
    // has at least one leaf and one path
    let top = paths.first().expect("at least one leaf path");
    let explanation = format!(
        "'{label_a}' ({na} vectors, mean CPI {ma:.4}) vs '{label_b}' ({nb} vectors, mean CPI \
         {mb:.4}): separability {separability:.3}; top discriminant: {}",
        top.explanation
    );

    Ok(DiffReport {
        class_a: ClassSummary {
            label: label_a.to_string(),
            vectors: na as u64,
            cpi_mean: ma,
        },
        class_b: ClassSummary {
            label: label_b.to_string(),
            vectors: nb as u64,
            cpi_mean: mb,
        },
        num_features: index.len() as u64,
        leaves: tree.num_leaves() as u64,
        separability,
        paths,
        explanation,
    })
}

/// The leaf index `x` lands in under the fully-grown tree.
fn leaf_of(tree: &RegressionTree, x: &SparseVec) -> usize {
    let mut idx = 0usize;
    let mut node = &tree.nodes()[0];
    while let (Some(split), Some(l), Some(r)) = (node.split, node.left, node.right) {
        idx = if x.get(split.feature) <= split.threshold {
            l as usize
        } else {
            r as usize
        };
        node = &tree.nodes()[idx];
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_profiler::Sample;

    fn sample(eip: u64, cpi: f64) -> Sample {
        Sample {
            eip,
            thread: 0,
            is_os: false,
            cpi,
        }
    }

    /// Two sides with disjoint hot EIPs: side A hammers 0x100, side B
    /// hammers 0x200 with a slower CPI.
    fn fixture() -> (EipvData, EipvData) {
        let a: Vec<Sample> = (0..120)
            .map(|i| sample(0x100 + (i % 3), 1.0 + (i % 5) as f64 * 0.01))
            .collect();
        let b: Vec<Sample> = (0..120)
            .map(|i| sample(0x200 + (i % 4), 2.0 + (i % 7) as f64 * 0.01))
            .collect();
        (
            EipvData::from_samples(&a, 10),
            EipvData::from_samples(&b, 10),
        )
    }

    #[test]
    fn disjoint_sides_separate_perfectly() {
        let (a, b) = fixture();
        let rep = diff(&a, &b, "fast", "slow", &DiffOptions::default()).expect("diff");
        assert_eq!(rep.class_a.vectors, 12);
        assert_eq!(rep.class_b.vectors, 12);
        assert!(rep.separability > 0.999, "sep {}", rep.separability);
        let top = rep.top_path().expect("paths");
        assert_eq!(top.purity, 1.0);
        assert!(top.cpi_delta.abs() > 0.5);
        // The discriminating EIP belongs to one of the two hot ranges.
        let eip = top.predicates[0].eip;
        assert!((0x100..0x104).contains(&eip) || (0x200..0x204).contains(&eip));
    }

    #[test]
    fn identical_sides_are_inseparable() {
        let s: Vec<Sample> = (0..100).map(|i| sample(0x400 + (i % 5), 1.5)).collect();
        let a = EipvData::from_samples(&s, 10);
        let b = a.clone();
        let rep = diff(&a, &b, "x", "y", &DiffOptions::default()).expect("diff");
        // Identical EIPVs cannot be split apart: every leaf is a 50/50
        // mix.
        for p in &rep.paths {
            assert_eq!(p.purity, 0.5, "path {:?}", p.explanation);
        }
        assert_eq!(rep.separability, 0.0);
    }

    #[test]
    fn argument_swap_mirrors_the_report() {
        let (a, b) = fixture();
        let fwd = diff(&a, &b, "fast", "slow", &DiffOptions::default()).expect("diff");
        let rev = diff(&b, &a, "slow", "fast", &DiffOptions::default()).expect("diff");
        assert_eq!(fwd.class_a, rev.class_b);
        assert_eq!(fwd.class_b, rev.class_a);
        assert_eq!(fwd.num_features, rev.num_features);
        assert_eq!(fwd.separability.to_bits(), rev.separability.to_bits());
        assert_eq!(fwd.paths.len(), rev.paths.len());
        for (f, r) in fwd.paths.iter().zip(&rev.paths) {
            assert_eq!(f.class, r.class);
            assert_eq!(f.predicates, r.predicates);
            assert_eq!(f.support, r.support);
            assert_eq!(f.a_vectors, r.b_vectors);
            assert_eq!(f.b_vectors, r.a_vectors);
            assert_eq!(f.purity.to_bits(), r.purity.to_bits());
            assert_eq!(f.score.to_bits(), r.score.to_bits());
            assert_eq!(f.cpi_a.to_bits(), r.cpi_b.to_bits());
            assert_eq!(f.cpi_b.to_bits(), r.cpi_a.to_bits());
            assert_eq!(f.cpi_delta.to_bits(), (-r.cpi_delta).to_bits());
        }
    }

    #[test]
    fn rejects_empty_and_identically_labeled_sides() {
        let (a, _) = fixture();
        let empty = EipvData::empty();
        assert_eq!(
            diff(&empty, &a, "e", "a", &DiffOptions::default()),
            Err(DiffError::EmptySide("e".into()))
        );
        assert_eq!(
            diff(&a, &empty, "a", "e", &DiffOptions::default()),
            Err(DiffError::EmptySide("e".into()))
        );
        assert_eq!(
            diff(&a, &a, "same", "same", &DiffOptions::default()),
            Err(DiffError::IdenticalLabels("same".into()))
        );
    }

    #[test]
    fn report_is_byte_stable_across_refits() {
        let (a, b) = fixture();
        let r1 = diff(&a, &b, "fast", "slow", &DiffOptions::default()).expect("diff");
        let r2 = diff(&a, &b, "fast", "slow", &DiffOptions::default()).expect("diff");
        assert_eq!(r1.to_json(), r2.to_json());
    }
}
