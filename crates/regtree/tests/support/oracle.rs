//! The test-side oracles of `fuzzyphase-regtree`: literal, unoptimized
//! readings of what the production kernels compute, kept only to pin
//! those kernels bit for bit (DESIGN.md D13).
//!
//! Integration tests include this file with
//! `#[path = "support/oracle.rs"] mod oracle;`; the crate's own unit
//! tests include it from `lib.rs` the same way.
#![allow(dead_code)]

use fuzzyphase_regtree::{Dataset, Node, RegressionTree, Split};

/// Running (count, sum, sum-of-squares) statistics of a row subset.
#[derive(Clone, Copy, Default)]
struct Stats {
    n: f64,
    sum: f64,
    sumsq: f64,
}

impl Stats {
    fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sumsq += y * y;
    }

    fn minus(&self, other: &Stats) -> Stats {
        Stats {
            n: self.n - other.n,
            sum: self.sum - other.sum,
            sumsq: self.sumsq - other.sumsq,
        }
    }

    fn sse(&self) -> f64 {
        if self.n <= 0.0 {
            0.0
        } else {
            (self.sumsq - self.sum * self.sum / self.n).max(0.0)
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

/// A candidate split: `(feature, threshold, gain)`.
type Candidate = (u32, f64, f64);

/// A non-zero count in a node: `(feature, value, row)`.
type Entry = (u32, f64, u32);

fn leaf(s: &Stats, rows: &[u32]) -> Node {
    Node {
        mean: s.mean(),
        count: rows.len() as u32,
        sse: s.sse(),
        split: None,
        left: None,
        right: None,
    }
}

/// §4.1 read literally: grows the tree best-first (largest gain first,
/// lowest node index on ties), and every node re-gathers and re-sorts
/// its own non-zeros before scanning every `(EIP, count)` threshold.
/// Returns the node arena, root first.
pub fn fit_rescan(ds: &Dataset, max_leaves: usize, min_leaf: usize) -> Vec<Node> {
    let all: Vec<u32> = (0..ds.len() as u32).collect();
    let root = stats(ds, &all);
    let mut nodes = vec![leaf(&root, &all)];
    // Growable leaves: (node index, rows, best candidate).
    let mut leaves = vec![(0u32, search(ds, &root, &all, min_leaf), all)];
    let mut order = 0u32;
    while leaves.len() < max_leaves {
        let Some(i) = leaves
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.1.map(|c| (i, l.0, c.2)))
            .max_by(|(_, na, ga), (_, nb, gb)| ga.total_cmp(gb).then(nb.cmp(na)))
            .map(|(i, _, _)| i)
        else {
            break;
        };
        let (node, best, rows) = leaves.swap_remove(i);
        let (feature, threshold, _) = best.expect("picked leaves have a candidate");
        let (lrows, rrows): (Vec<u32>, Vec<u32>) = rows
            .iter()
            .partition(|&&r| ds.row(r as usize).get(feature) <= threshold);
        let li = nodes.len() as u32;
        for side in [lrows, rrows] {
            let s = stats(ds, &side);
            let idx = nodes.len() as u32;
            nodes.push(leaf(&s, &side));
            leaves.push((idx, search(ds, &s, &side, min_leaf), side));
        }
        let parent = &mut nodes[node as usize];
        parent.split = Some(Split {
            feature,
            threshold,
            order,
        });
        parent.left = Some(li);
        parent.right = Some(li + 1);
        order += 1;
    }
    nodes
}

fn stats(ds: &Dataset, rows: &[u32]) -> Stats {
    let mut s = Stats::default();
    for &r in rows {
        s.push(ds.target(r as usize));
    }
    s
}

/// The variance-minimizing split of a node: gather its non-zeros,
/// stable-sort them by `(feature, value)`, and per feature try the
/// zeros-only split, then a split after each distinct non-zero value.
/// Degeneracy and tie thresholds are relative to the node's scale, so
/// trees are invariant under exact rescaling of the targets.
fn search(ds: &Dataset, node: &Stats, rows: &[u32], min_leaf: usize) -> Option<Candidate> {
    let scale = node.sumsq.max(f64::MIN_POSITIVE);
    if (node.n as usize) < 2 * min_leaf || node.sse() <= scale * 1e-12 {
        return None;
    }
    let mut entries: Vec<Entry> = Vec::new();
    for &r in rows {
        for (f, v) in ds.row(r as usize).iter() {
            entries.push((f, v, r));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));

    let node_sse = node.sse();
    let min = min_leaf as f64;
    let mut best: Option<Candidate> = None;
    let mut i = 0;
    while i < entries.len() {
        let feature = entries[i].0;
        let mut j = i;
        let mut group = Stats::default();
        while j < entries.len() && entries[j].0 == feature {
            group.push(ds.target(entries[j].2 as usize));
            j += 1;
        }
        let mut left = node.minus(&group);
        let mut prev_value = 0.0;
        let mut have_left = left.n > 0.0;
        for e in &entries[i..j] {
            if e.1 > prev_value && have_left {
                let right = node.minus(&left);
                if left.n >= min && right.n >= min {
                    let gain = node_sse - left.sse() - right.sse();
                    if gain > best.map_or(scale * 1e-12, |b| b.2 + scale * 1e-12) {
                        best = Some((feature, prev_value, gain));
                    }
                }
            }
            left.push(ds.target(e.2 as usize));
            prev_value = e.1;
            have_left = true;
        }
        i = j;
    }
    best
}

/// Per-`k` sum of squared errors of `tree` over the `test` rows of
/// `ds`: for every chamber count `k`, walk each point's descent path to
/// the deepest node `T_k` contains and add its squared error.
pub fn eval_sse_scalar(
    tree: &RegressionTree,
    ds: &Dataset,
    test: &[usize],
    k_max: usize,
) -> Vec<f64> {
    let mut sse = vec![0.0f64; k_max];
    for &t in test {
        let y = ds.target(t);
        let path = tree.path_means(ds.row(t));
        // path[(needed_k_minus_1, mean)]: prediction for T_k is the
        // deepest path entry with needed ≤ k - 1.
        let mut pi = 0;
        for k in 1..=k_max {
            while pi + 1 < path.len() && (path[pi + 1].0 as usize) < k {
                pi += 1;
            }
            let err = y - path[pi].1;
            sse[k - 1] += err * err;
        }
    }
    sse
}

/// Asserts two node arenas are equal bit for bit: same shape, split
/// orders and counts, and identical `f64` bits in every mean, SSE and
/// threshold.
pub fn assert_arena_bits(got: &[Node], want: &[Node]) {
    assert_eq!(got.len(), want.len(), "arena sizes differ");
    for (i, (x, z)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.mean.to_bits(), z.mean.to_bits(), "node {i} mean");
        assert_eq!(x.sse.to_bits(), z.sse.to_bits(), "node {i} sse");
        assert_eq!(x.count, z.count, "node {i} count");
        assert_eq!((x.left, x.right), (z.left, z.right), "node {i} children");
        match (x.split, z.split) {
            (None, None) => {}
            (Some(s), Some(t)) => {
                assert_eq!(
                    (s.feature, s.threshold.to_bits(), s.order),
                    (t.feature, t.threshold.to_bits(), t.order),
                    "node {i} split"
                );
            }
            other => panic!("node {i} split mismatch: {other:?}"),
        }
    }
}

/// Asserts `tree` is bit-identical to the oracle's fit of `ds`.
pub fn assert_tree_matches(
    tree: &RegressionTree,
    ds: &Dataset,
    max_leaves: usize,
    min_leaf: usize,
) {
    assert_arena_bits(tree.nodes(), &fit_rescan(ds, max_leaves, min_leaf));
}

/// Asserts `sse` is bit-identical to the oracle's per-`k` walk.
pub fn assert_sse_matches(sse: &[f64], tree: &RegressionTree, ds: &Dataset, test: &[usize]) {
    let want = eval_sse_scalar(tree, ds, test, sse.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(sse), bits(&want), "per-k SSE bits differ");
}
