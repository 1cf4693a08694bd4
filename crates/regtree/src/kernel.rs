//! The one best-first tree grower (§4.1–§4.3) and its split search.
//!
//! The paper's algorithm evaluates, for every unique EIP and every
//! observed execution count, the two-way split that most reduces the
//! weighted CPI variance, then recurses. [`grow`] expands *best-first*:
//! the leaf whose best split reduces variance the most is expanded next
//! (ties: lowest node index), so the first `k − 1` splits form the
//! `k`-chamber tree `T_k` for every `k` up to the leaf cap (§4.3 caps at
//! 50 chambers). Split search exploits EIPV sparsity: only counts that
//! are non-zero somewhere in a node can define a useful threshold, so
//! the scan is O(non-zeros) per node rather than O(features · rows).
//!
//! Every node carries a presorted split-entry cache ([`Slot`]): its
//! `(feature, value, row)` triples sorted by feature then value, ties in
//! node-row order. The root's cache is cut straight from the columnar
//! primary storage, and each expansion stably partitions its node's
//! cache into the two children — a stable partition of a sorted
//! sequence stays sorted, so no node ever re-gathers or re-sorts.
//!
//! Both fit paths run this one loop. A scratch fit ([`crate::Fitter::full`])
//! enters with a root slot over the whole dataset and nothing to adopt;
//! its slots carry no per-column aggregates, and each expanded parent's
//! slot is freed as soon as its children exist. An incremental refit
//! ([`crate::Fitter::incremental`]) enters with the maintained slots of
//! its last tree: clean leaves answer from their cached candidate, an
//! expansion whose winning split is unchanged adopts its old children
//! wholesale, and every finished slot is stored back (DESIGN.md D15).
//!
//! The same loop also grows `fuzzyphase-diff`'s discriminant trees. For
//! 0/1 class-indicator targets the SSE maximizer *is* weighted Gini
//! impurity reduction: a group of `n` indicator targets with class-1
//! fraction `p` has `SSE = n·p·(1−p) = n·Gini/2`, so SSE gain and
//! weighted Gini gain differ by the constant factor ½ and rank every
//! candidate split identically.
//!
//! The search's batch shortcuts (see [`search`]) keep the literal
//! algorithm's floating-point operation order, so the grown tree is
//! bit-identical to the per-node re-sorting reading of §4.1 kept in
//! `tests/support/oracle.rs` (DESIGN.md D13).

use crate::columnar::ColumnarDataset;
use crate::incremental::Fitter;
use crate::tree::{Node, Split};

/// Running (count, sum, sum-of-squares) statistics of a row subset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stats {
    pub(crate) n: f64,
    pub(crate) sum: f64,
    pub(crate) sumsq: f64,
}

impl Stats {
    pub(crate) fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sumsq += y * y;
    }

    pub(crate) fn minus(&self, other: &Stats) -> Stats {
        Stats {
            n: self.n - other.n,
            sum: self.sum - other.sum,
            sumsq: self.sumsq - other.sumsq,
        }
    }

    pub(crate) fn sse(&self) -> f64 {
        if self.n <= 0.0 {
            0.0
        } else {
            (self.sumsq - self.sum * self.sum / self.n).max(0.0)
        }
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

/// A candidate split for a leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) feature: u32,
    pub(crate) threshold: f64,
    pub(crate) gain: f64,
}

/// A non-zero count in a node: `(feature, value, row)`. Kept sorted by
/// `(feature, value)` with ties in node-row order — the order the split
/// scan consumes.
pub(crate) type Entry = (u32, f64, u32);

/// One node's split state: its rows (ascending dataset order), its
/// presorted split-entry cache, SSE partials, and its best candidate
/// (valid while `dirty` is false).
#[derive(Debug, Default, Clone)]
pub(crate) struct Slot {
    pub(crate) rows: Vec<u32>,
    pub(crate) entries: Vec<Entry>,
    pub(crate) stats: Stats,
    /// Per-column aggregates for the search's column-skip bound
    /// ([`ColCache`]). `None` on a scratch fit, where building them
    /// costs more than the skips save; children inherit the choice.
    pub(crate) cols: Option<Vec<ColCache>>,
    pub(crate) best: Option<Candidate>,
    pub(crate) dirty: bool,
}

impl Slot {
    /// The root of a scratch fit: every row, with the split-entry cache
    /// flattened from the columnar storage — columns are laid out by
    /// ascending feature, values ascending within a column with ties in
    /// row order, exactly the order a gather-and-sort would produce.
    pub(crate) fn root(cols: &ColumnarDataset) -> Slot {
        let mut entries: Vec<Entry> = Vec::with_capacity(cols.nnz());
        for (c, &f) in cols.feat_ids().iter().enumerate() {
            let (vals, rows) = cols.column(c);
            for (&v, &r) in vals.iter().zip(rows) {
                entries.push((f, v, r));
            }
        }
        let rows: Vec<u32> = (0..cols.num_rows() as u32).collect();
        Slot {
            stats: stats_of(cols.targets(), &rows),
            rows,
            entries,
            cols: None,
            best: None,
            dirty: true,
        }
    }
}

/// A tree's node arena with one [`Slot`] per node (parallel vectors).
/// An incremental fit maintains one across refits; a scratch fit starts
/// from an arena holding only its root slot.
#[derive(Debug, Default, Clone)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    pub(crate) slots: Vec<Slot>,
}

/// A growable leaf: its (new) arena index, the old arena index whose
/// slot backs it (`None` for freshly partitioned nodes), and the slot.
struct Live {
    node: u32,
    old: Option<u32>,
    slot: Slot,
}

/// Grows a tree best-first from `arena.slots[0]` and returns its node
/// arena (root first).
///
/// `arena.nodes` is the previous tree of the same rows, which only an
/// incremental fit has: an expansion whose winning split matches the old
/// node's adopts the old children's slots instead of re-partitioning,
/// and every finished slot and the new tree are stored back into `arena`
/// for the next refit. A scratch fit (no previous tree) adopts nothing
/// and frees each expanded parent's slot as soon as its children exist.
pub(crate) fn grow(fitter: &Fitter, y: &[f64], ysq: &[f64], arena: &mut Arena) -> Vec<Node> {
    let n = y.len();
    let old_nodes = std::mem::take(&mut arena.nodes);
    let keep = !old_nodes.is_empty();
    let mut old_slots: Vec<Option<Slot>> = std::mem::take(&mut arena.slots)
        .into_iter()
        .map(Some)
        .collect();
    let mut take_old = |i: u32| old_slots.get_mut(i as usize).and_then(Option::take);

    let mut memo = RowGainCache::new(n);
    let mut nodes: Vec<Node> = Vec::new();
    let mut leaves: Vec<Live> = Vec::new();
    // Clean slots answer from their cached candidate; dirty ones
    // re-search their cache.
    let mut admit = |nodes: &mut Vec<Node>, leaves: &mut Vec<Live>, old, mut slot: Slot| {
        if slot.dirty {
            slot.best = search(fitter.min_leaf, &slot, y, ysq, &mut memo);
            slot.dirty = false;
        }
        let node = nodes.len() as u32;
        nodes.push(Node {
            mean: slot.stats.mean(),
            count: slot.rows.len() as u32,
            sse: slot.stats.sse(),
            split: None,
            left: None,
            right: None,
        });
        leaves.push(Live { node, old, slot });
    };
    // fuzzylint: allow(panic) — both fit paths seed slot 0 before growing
    let root = take_old(0).expect("root slot must exist");
    admit(&mut nodes, &mut leaves, Some(0), root);

    // The retired slot of every finalized arena index (expanded parents
    // at expansion time, surviving leaves at the end); incremental only.
    let mut finished: Vec<Option<Slot>> = Vec::new();
    // Row → side-of-split lookup, reused across expansions; only the
    // expanded node's rows are consulted, so stale slots are harmless.
    let mut goes_left = vec![false; n];
    let mut order = 0u32;
    while leaves.len() < fitter.max_leaves {
        // The largest gain wins; ties go to the lowest node index.
        let Some((leaf_idx, cand)) = leaves
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.slot.best.map(|c| (i, l.node, c)))
            .max_by(|(_, na, ca), (_, nb, cb)| ca.gain.total_cmp(&cb.gain).then(nb.cmp(na)))
            .map(|(i, _, c)| (i, c))
        else {
            break;
        };
        let leaf = leaves.swap_remove(leaf_idx);

        // Unchanged split ⇒ adopt the old children: their slots already
        // absorbed the delta during routing.
        let adopted = leaf
            .old
            .and_then(|o| match old_nodes.get(o as usize) {
                Some(&Node {
                    split: Some(s),
                    left: Some(l),
                    right: Some(r),
                    ..
                }) if s.feature == cand.feature
                    && s.threshold.to_bits() == cand.threshold.to_bits() =>
                {
                    Some((l, r))
                }
                _ => None,
            })
            .and_then(|(l, r)| Some([(Some(l), take_old(l)?), (Some(r), take_old(r)?)]));
        let children = adopted.unwrap_or_else(|| {
            let [l, r] = partition(&leaf.slot, &cand, y, &mut goes_left);
            [(None, l), (None, r)]
        });

        let li = nodes.len() as u32;
        let parent = &mut nodes[leaf.node as usize];
        parent.split = Some(Split {
            feature: cand.feature,
            threshold: cand.threshold,
            order,
        });
        parent.left = Some(li);
        parent.right = Some(li + 1);
        order += 1;
        if keep {
            store(&mut finished, leaf.node, leaf.slot);
        }
        for (old, slot) in children {
            admit(&mut nodes, &mut leaves, old, slot);
        }
    }

    if keep {
        for l in leaves {
            store(&mut finished, l.node, l.slot);
        }
        arena.slots = finished
            .into_iter()
            // fuzzylint: allow(panic) — every arena index is either an
            // expanded parent (stored at expansion) or a surviving leaf
            // (stored in the drain above)
            .map(|s| s.expect("growth must fill every slot"))
            .collect();
        arena.nodes = nodes.clone();
    }
    nodes
}

/// Splits `slot` on `cand` into its two children's slots (dirty, so
/// they get searched). Split sides come from the split feature's entry
/// range alone: rows absent from it hold the implicit zero, so they side
/// with `0.0 <= threshold`. Rows and entries are stably partitioned, so
/// both children stay in node-row order and sorted.
fn partition(slot: &Slot, cand: &Candidate, y: &[f64], goes_left: &mut [bool]) -> [Slot; 2] {
    let zero_left = 0.0 <= cand.threshold;
    for &r in &slot.rows {
        goes_left[r as usize] = zero_left;
    }
    let lo = slot.entries.partition_point(|e| e.0 < cand.feature);
    let hi = lo + slot.entries[lo..].partition_point(|e| e.0 == cand.feature);
    for &(_, v, r) in &slot.entries[lo..hi] {
        goes_left[r as usize] = v <= cand.threshold;
    }
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        slot.rows.iter().partition(|&&r| goes_left[r as usize]);
    debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());
    let mut le = Vec::with_capacity(slot.entries.len());
    let mut re = Vec::with_capacity(slot.entries.len());
    for &e in &slot.entries {
        if goes_left[e.2 as usize] {
            le.push(e);
        } else {
            re.push(e);
        }
    }
    let child = |rows: Vec<u32>, entries: Vec<Entry>| Slot {
        stats: stats_of(y, &rows),
        cols: slot.cols.as_ref().map(|_| build_cols(&entries, y)),
        rows,
        entries,
        best: None,
        dirty: true,
    };
    [child(left_rows, le), child(right_rows, re)]
}

/// Stores `slot` at arena index `node`, growing the table as needed.
fn store(finished: &mut Vec<Option<Slot>>, node: u32, slot: Slot) {
    let i = node as usize;
    if finished.len() <= i {
        finished.resize_with(i + 1, || None);
    }
    finished[i] = Some(slot);
}

/// Per-row memo of the "split this row off alone" gain, valid for one
/// node's search (`stamp[r] == epoch` marks a filled slot).
///
/// Every singleton column evaluates exactly one candidate: threshold 0,
/// the column's lone row on the right. Its gain depends only on the
/// node statistics and that row's target — singleton group stats are
/// `(0.0 + y, 0.0 + y·y)` regardless of which column they come from —
/// so all singleton columns naming the same row produce bit-identical
/// gains. The scan accepts a candidate only on *strictly* greater gain
/// (beyond the tie epsilon), so after the first such column wins,
/// repeats of the same gain are rejected — exactly what the memo
/// reproduces at a fraction of the arithmetic.
struct RowGainCache {
    gain: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl RowGainCache {
    fn new(rows: usize) -> Self {
        Self {
            gain: vec![0.0; rows],
            stamp: vec![0; rows],
            epoch: 0,
        }
    }
}

/// Target statistics of a row subset, accumulated in row order.
fn stats_of(y: &[f64], rows: &[u32]) -> Stats {
    let mut s = Stats::default();
    for &r in rows {
        s.push(y[r as usize]);
    }
    s
}

/// Per-column aggregate a node's maintained cache keeps so the search
/// can *skip* the column outright (DESIGN.md D15): the column's nonzero
/// group totals plus the summed SSE of its finest partition (one group
/// per distinct stored value). Any threshold split of the node along
/// this column partitions it into unions of those finest groups (plus
/// the implicit-zeros group), and SSE only shrinks under refinement, so
///
/// ```text
///   gain(any threshold) <= node_sse - zeros_sse - finest
/// ```
///
/// is an upper bound computable in O(1) from the node statistics. A
/// column whose bound cannot clear the scan's current acceptance bar
/// (minus a safety margin dominating float round-off) produces no
/// accepted candidate, so skipping it leaves the scan's record chain —
/// and therefore the returned candidate's bits — untouched.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColCache {
    pub(crate) feature: u32,
    /// Totals over the column's nonzero rows in this node.
    pub(crate) group: Stats,
    /// Sum of per-distinct-value group SSEs (the finest partition).
    pub(crate) finest: f64,
}

/// Builds the per-column aggregates of a node from its (presorted)
/// entry cache in one pass: column group totals plus the summed SSE of
/// the finest per-distinct-value partition — the inputs of the
/// search's column-skip bound (see [`ColCache`]).
fn build_cols(entries: &[Entry], y: &[f64]) -> Vec<ColCache> {
    let mut cols: Vec<ColCache> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let feature = entries[i].0;
        let mut group = Stats::default();
        let mut finest = 0.0;
        while i < entries.len() && entries[i].0 == feature {
            let vbits = entries[i].1.to_bits();
            let mut g = Stats::default();
            while i < entries.len() && entries[i].0 == feature && entries[i].1.to_bits() == vbits {
                g.push(y[entries[i].2 as usize]);
                i += 1;
            }
            group.n += g.n;
            group.sum += g.sum;
            group.sumsq += g.sumsq;
            finest += g.sse();
        }
        cols.push(ColCache {
            feature,
            group,
            finest,
        });
    }
    cols
}

/// Best-split search over a node's presorted entry cache.
///
/// Per column a group pass then a threshold scan — zeros-only split
/// first (threshold 0), then after each distinct non-zero value — in the
/// literal algorithm's floating-point order, with shortcuts that cannot
/// change any accepted candidate's bits:
///
/// - squared targets come from the shared `ysq` table (same product
///   bits, one multiply saved per entry visit);
/// - singleton columns resolve through the per-row gain memo
///   ([`RowGainCache`]) instead of re-deriving the identical gain;
/// - the last entry of a column only closes its scan, so its (dead)
///   accumulation is skipped;
/// - with per-column aggregates on the slot (the incremental path), a
///   column whose [`ColCache`] upper bound cannot clear the current bar
///   is skipped without scanning — see [`ColCache`] for why that cannot
///   change the accepted candidate.
fn search(
    min_leaf: usize,
    slot: &Slot,
    y: &[f64],
    ysq: &[f64],
    memo: &mut RowGainCache,
) -> Option<Candidate> {
    let node_stats = &slot.stats;
    let entries = &slot.entries[..];
    let cols = slot.cols.as_deref();
    // Degeneracy and tie thresholds are *relative* to the node's scale
    // so that fitted trees are invariant under exact rescaling of the
    // targets (RE is dimensionless).
    let scale = node_stats.sumsq.max(f64::MIN_POSITIVE);
    if (node_stats.n as usize) < 2 * min_leaf || node_stats.sse() <= scale * 1e-12 {
        return None;
    }

    let node_sse = node_stats.sse();
    memo.epoch = memo.epoch.wrapping_add(1);
    let mut best: Option<Candidate> = None;
    // The bar a candidate must clear: `scale * 1e-12` initially, then
    // `best.gain + scale * 1e-12` — cached so the hot loop compares
    // against a register.
    let mut bar = scale * 1e-12;
    // Margin for the per-column skip bound: three orders of magnitude
    // above the tie epsilon, so it dominates any round-off in the
    // cached aggregates while staying far below real gain gaps. The
    // margin only makes skipping *more* conservative — a column is
    // scanned unless its bound sits clearly under the bar.
    let margin = scale * 1e-9;
    let mut ci = 0usize;
    let min = min_leaf as f64;

    // Probe pass (incremental path only): before the ordered scan, find
    // the column with the highest upper bound and compute its best
    // *achievable* gain with the scan's exact arithmetic and viability
    // rules, touching neither the record chain nor the memo. That gain
    // is a lower bound `lb` on the final accepted gain (when the probed
    // candidate is reached in order it is either accepted or the bar
    // already sits within one tie epsilon of it), so a column whose
    // upper bound cannot clear `lb - margin` cannot contain the final
    // candidate nor anything accepted after it — it is skippable even
    // before the bar has risen. Cold columns ahead of the first strong
    // column in feature order are pruned this way.
    let mut lb = 0.0_f64;
    // Per-column (upper bound, entry count) pairs, computed once up
    // front — the hot loop's skip test then reads one sequential pair
    // instead of re-deriving the bound from the 48-byte cache record.
    let mut ubs: Vec<(f64, u32)> = Vec::new();
    if let Some(cols) = cols {
        ubs.reserve(cols.len());
        let mut best_k = usize::MAX;
        let mut best_ub = f64::NEG_INFINITY;
        for (k, cc) in cols.iter().enumerate() {
            let zeros = node_stats.minus(&cc.group);
            let ub = node_sse - zeros.sse() - cc.finest;
            ubs.push((ub, cc.group.n as u32));
            if ub > best_ub {
                best_ub = ub;
                best_k = k;
            }
        }
        if best_k != usize::MAX && best_ub > bar {
            let feature = cols[best_k].feature;
            let lo = entries.partition_point(|e| e.0 < feature);
            let hi = lo + entries[lo..].partition_point(|e| e.0 == feature);
            if lo < hi {
                let mut group = Stats::default();
                for &(_, _, row) in &entries[lo..hi] {
                    let r = row as usize;
                    group.n += 1.0;
                    group.sum += y[r];
                    group.sumsq += ysq[r];
                }
                let zeros = node_stats.minus(&group);
                let mut consider = |left: &Stats| {
                    if left.n >= min {
                        let t = node_sse - left.sse();
                        let right = node_stats.minus(left);
                        if right.n >= min {
                            let gain = t - right.sse();
                            if gain > lb {
                                lb = gain;
                            }
                        }
                    }
                };
                let mut left = zeros;
                let mut prev_value = 0.0;
                let mut have_left = zeros.n > 0.0;
                for &(_, v, row) in &entries[lo..hi - 1] {
                    if v > prev_value && have_left {
                        consider(&left);
                    }
                    let r = row as usize;
                    left.n += 1.0;
                    left.sum += y[r];
                    left.sumsq += ysq[r];
                    prev_value = v;
                    have_left = true;
                }
                if entries[hi - 1].1 > prev_value && have_left {
                    consider(&left);
                }
            }
        }
    }

    // Viability of any singleton split, hoisted: left/right counts are
    // the same for every singleton column of this node, computed in the
    // scan's exact arithmetic (`zeros.n = n - 1.0`, `right.n = n -
    // zeros.n`).
    let solo_viable = {
        let zn = node_stats.n - 1.0;
        let rn = node_stats.n - zn;
        zn > 0.0 && zn >= min && rn >= min
    };
    let mut i = 0;
    while i < entries.len() {
        let feature = entries[i].0;

        // Column-skip bound (incremental path only): if even the
        // finest partition of this column cannot beat the bar by the
        // safety margin, no threshold in it can be accepted — skip to
        // the next column without touching the record chain.
        if let Some(cols) = cols {
            while ci < cols.len() && cols[ci].feature < feature {
                ci += 1;
            }
            if ci < cols.len() && cols[ci].feature == feature {
                let (ub, cnt) = ubs[ci];
                if ub <= bar.max(lb) - margin {
                    // The cached group count is exactly the column's
                    // entry count in this node, so the skip is O(1) —
                    // no binary search over the entry array.
                    i += cnt as usize;
                    continue;
                }
            }
        }

        // Singleton column (the next entry, if any, starts another
        // feature): one candidate — threshold 0, the lone row on the
        // right — with the gain served from the per-row memo. Group
        // statistics are only needed on a miss and come from the lone
        // row via the same `push` the group pass performs.
        if i + 1 == entries.len() || entries[i + 1].0 != feature {
            let (_, v, row) = entries[i];
            if v > 0.0 && solo_viable {
                let r = row as usize;
                let gv = if memo.stamp[r] == memo.epoch {
                    memo.gain[r]
                } else {
                    let mut group = Stats::default();
                    group.push(y[r]);
                    let zeros = node_stats.minus(&group);
                    let right = node_stats.minus(&zeros);
                    let g = node_sse - zeros.sse() - right.sse();
                    memo.gain[r] = g;
                    memo.stamp[r] = memo.epoch;
                    g
                };
                if gv > bar {
                    best = Some(Candidate {
                        feature,
                        threshold: 0.0,
                        gain: gv,
                    });
                    bar = gv + scale * 1e-12;
                }
            }
            i += 1;
            continue;
        }

        // Group totals for this feature.
        let mut j = i;
        let mut group = Stats::default();
        while j < entries.len() && entries[j].0 == feature {
            let r = entries[j].2 as usize;
            group.n += 1.0;
            group.sum += y[r];
            group.sumsq += ysq[r];
            j += 1;
        }

        // Rows where this feature is zero.
        let zeros = node_stats.minus(&group);

        // Threshold scan: zeros-only split first (threshold 0), then
        // after each distinct non-zero value. The last entry only
        // closes the scan (the split after it would leave the right
        // side empty), so its accumulation into `left` is dead and the
        // loop stops one short.
        let mut consider = |left: &Stats, threshold: f64| {
            if left.n >= min {
                // One-sided screen: the right side's SSE is clamped
                // non-negative, so `node_sse - lsse` bounds the gain
                // from above; candidates under the bar skip the right
                // half of the evaluation. The full gain is the
                // left-associative `(node_sse - lsse) - rsse`, so
                // accepted candidates are bit-identical.
                let t = node_sse - left.sse();
                if t > bar {
                    let right = node_stats.minus(left);
                    if right.n >= min {
                        let gain = t - right.sse();
                        if gain > bar {
                            best = Some(Candidate {
                                feature,
                                threshold,
                                gain,
                            });
                            bar = gain + scale * 1e-12;
                        }
                    }
                }
            }
        };
        let mut left = zeros;
        let mut prev_value = 0.0;
        let mut have_left = zeros.n > 0.0;
        for &(_, v, row) in &entries[i..j - 1] {
            if v > prev_value && have_left {
                consider(&left, prev_value);
            }
            let r = row as usize;
            left.n += 1.0;
            left.sum += y[r];
            left.sumsq += ysq[r];
            prev_value = v;
            have_left = true;
        }
        let v = entries[j - 1].1;
        if v > prev_value && have_left {
            consider(&left, prev_value);
        }
        i = j;
    }
    best
}

#[cfg(test)]
mod tests {
    use crate::oracle;
    use crate::{Dataset, Fitter};
    use fuzzyphase_stats::SparseVec;

    #[test]
    fn paper_example_tree_matches_figure_1() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(4).full(&ds);
        let root = tree.root();
        let rs = root.split.expect("root split");
        assert_eq!((rs.feature, rs.threshold), (0, 20.0), "root is (EIP0, 20)");

        let left = &tree.nodes()[root.left.unwrap() as usize];
        let right = &tree.nodes()[root.right.unwrap() as usize];
        let lsplit = left.split.expect("left split");
        let rsplit = right.split.expect("right split");
        assert_eq!(lsplit.feature, 2, "left subtree splits on EIP2");
        assert_eq!(lsplit.threshold, 60.0);
        assert_eq!(rsplit.feature, 1, "right subtree splits on EIP1");
        assert_eq!(rsplit.threshold, 0.0);
        assert_eq!(tree.num_leaves(), 4);
    }

    #[test]
    fn root_tie_prefers_lowest_feature() {
        // EIP0 and EIP2 in the paper example give identical root
        // reductions; growth must pick EIP0 deterministically.
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(2).full(&ds);
        assert_eq!(tree.root().split.unwrap().feature, 0);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let rows: Vec<SparseVec> = (0..10)
            .map(|i| SparseVec::from_pairs([(i as u32, 1.0)]))
            .collect();
        let ds = Dataset::new(rows, vec![2.0; 10]);
        let tree = Fitter::new().full(&ds);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(ds.row(3)), 2.0);
    }

    #[test]
    fn perfectly_separable_reaches_zero_sse() {
        // Feature 0 high -> y 5, low -> y 1.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let v = if i % 2 == 0 { 100.0 } else { 3.0 };
            rows.push(SparseVec::from_pairs([(0, v), (1, i as f64)]));
            ys.push(if i % 2 == 0 { 5.0 } else { 1.0 });
        }
        let ds = Dataset::new(rows, ys);
        let tree = Fitter::new().max_leaves(2).full(&ds);
        assert!(tree.training_sse_k(2) < 1e-12);
        let s = tree.root().split.unwrap();
        assert_eq!(s.feature, 0);
        assert!((3.0..100.0).contains(&s.threshold));
    }

    #[test]
    fn min_leaf_respected() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(8).min_leaf(2).full(&ds);
        for n in tree.nodes() {
            assert!(n.count >= 2);
        }
    }

    #[test]
    fn leaf_cap_respected() {
        let ds = Dataset::paper_example();
        for cap in 1..=8 {
            let tree = Fitter::new().max_leaves(cap).full(&ds);
            assert!(tree.num_leaves() <= cap);
        }
    }

    #[test]
    fn children_partition_parent() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(6).full(&ds);
        for n in tree.nodes() {
            if let (Some(l), Some(r)) = (n.left, n.right) {
                let (l, r) = (&tree.nodes()[l as usize], &tree.nodes()[r as usize]);
                assert_eq!(l.count + r.count, n.count);
            }
        }
    }

    #[test]
    fn full_fit_matches_oracle_on_paper_example() {
        let ds = Dataset::paper_example();
        for cap in 1..=8 {
            let tree = Fitter::new().max_leaves(cap).full(&ds);
            oracle::assert_tree_matches(&tree, &ds, cap, 1);
        }
    }

    #[test]
    fn full_fit_matches_oracle_on_random_data() {
        use fuzzyphase_stats::seeded_rng;
        use rand::Rng;
        for seed in 0..5u64 {
            let mut rng = seeded_rng(seed);
            let n = 80;
            let mut rows = Vec::new();
            let mut ys = Vec::new();
            for _ in 0..n {
                let nnz = rng.gen_range(1..6);
                let pairs: Vec<(u32, f64)> = (0..nnz)
                    .map(|_| (rng.gen_range(0..15u32), rng.gen_range(1.0..50.0)))
                    .collect();
                rows.push(SparseVec::from_pairs(pairs));
                ys.push(rng.gen_range(0.0..4.0));
            }
            let ds = Dataset::new(rows, ys);
            let tree = Fitter::new().min_leaf(2).full(&ds);
            oracle::assert_tree_matches(&tree, &ds, 50, 2);
        }
    }

    #[test]
    fn zero_threshold_split_on_sparse_feature() {
        // Feature present in half the rows; presence determines y.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                rows.push(SparseVec::from_pairs([(7, 4.0)]));
                ys.push(10.0);
            } else {
                rows.push(SparseVec::from_pairs([(3, 1.0)]));
                ys.push(0.0);
            }
        }
        let ds = Dataset::new(rows, ys);
        let tree = Fitter::new().max_leaves(2).full(&ds);
        let s = tree.root().split.unwrap();
        // Splitting on either marker feature at threshold 0 separates
        // perfectly; growth picks the lowest feature id.
        assert_eq!(s.feature, 3);
        assert_eq!(s.threshold, 0.0);
        assert!(tree.training_sse_k(2) < 1e-12);
    }
}
