//! The metric catalogue and the per-layer ledger.
//!
//! Layers are the workspace crates (`workload`, `arch`, `profiler`,
//! `regtree`, `core`, `serve`) plus the load generator `gen`. Every
//! layer number is taken from outside the layer, around calls into its
//! public functions; nothing here reaches into the program.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median a metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
/// `wall_s`, `p50_ms` and `tail_ms` are defined per workload in the
/// README: one job's wall time, and the latency of the job's requests.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.25),
    e2e("p50_ms", "ms", 0.25),
    e2e("tail_ms", "ms", 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics, reported by every workload in a traced run. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 41] = [
    layer("workload.build_ms", "ms", Lower),
    layer("workload.next_event_ms", "ms", Lower),
    layer("workload.events", "count", Lower),
    layer("arch.execute_ms", "ms", Lower),
    layer("arch.quanta", "count", Lower),
    layer("profiler.record_ms", "ms", Lower),
    layer("profiler.eipv_ms", "ms", Lower),
    layer("profiler.samples", "count", Lower),
    layer("regtree.dataset_ms", "ms", Lower),
    layer("regtree.cv_ms", "ms", Lower),
    layer("regtree.vectors", "count", Lower),
    layer("regtree.features", "count", Lower),
    layer("core.straggler_ms", "ms", Lower),
    layer("core.peak_rss_mib", "MiB", Lower),
    layer("gen.send_ms", "ms", Lower),
    layer("gen.pauses", "count", Lower),
    layer("gen.late_p99_ms", "ms", Lower),
    layer("serve.frames", "count", Lower),
    layer("serve.ingest_queue_hw", "count", Lower),
    layer("serve.refits_run", "count", Higher),
    layer("serve.refits_coalesced", "count", Lower),
    layer("serve.refit_useful_ratio", "ratio", Higher),
    layer("serve.spool_bytes", "bytes", Lower),
    layer("serve.segments_sealed", "count", Lower),
    layer("serve.frames_replayed", "count", Lower),
    layer("serve.decode_ms", "ms", Lower),
    layer("serve.ingest_ms", "ms", Lower),
    layer("serve.snapshot_ms", "ms", Lower),
    layer("serve.crc_ms", "ms", Lower),
    layer("serve.spool_append_ms", "ms", Lower),
    layer("serve.spool_sync_ms", "ms", Lower),
    layer("serve.recover_ms", "ms", Lower),
    layer("serve.refit_p50_ms", "ms", Lower),
    layer("serve.refit_busy_ms", "ms", Lower),
    layer("serve.final_fit_ms", "ms", Lower),
    layer("serve.report_ms", "ms", Lower),
    layer("serve.restart_ms", "ms", Lower),
    layer("serve.refit_lag_p50_ms", "ms", Lower),
    layer("serve.refit_lag_p95_ms", "ms", Lower),
    layer("serve.ingest_sps", "samples/s", Higher),
    layer("serve.peak_rss_mib", "MiB", Lower),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Accumulated per-layer numbers of one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(metric(name).is_some(), "uncatalogued metric {name}");
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Sets metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(metric(name).is_some(), "uncatalogued metric {name}");
        self.values.insert(name, v);
    }

    /// Runs `f`, adding its wall time in ms to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms_since(t));
        out
    }

    /// Folds another ledger in (sums every metric).
    pub fn merge(&mut self, other: &Ledger) {
        for (k, v) in &other.values {
            self.add(k, *v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A closed time interval in ms on some shared clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// How much of `span` the union of `children` covers: overlapping
/// children count once, and the parts outside the span not at all.
pub fn covered(span: Span, children: &[Span]) -> f64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|c| Span {
            start: c.start.max(span.start),
            end: c.end.min(span.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut total = 0.0;
    let mut run: Option<Span> = None;
    for c in clipped {
        run = match run {
            Some(r) if c.start <= r.end => Some(Span {
                start: r.start,
                end: r.end.max(c.end),
            }),
            Some(r) => {
                total += r.len();
                Some(c)
            }
            None => Some(c),
        };
    }
    total + run.map_or(0.0, |r| r.len())
}

/// A span's self time: its duration minus what its children cover.
pub fn self_time(span: Span, children: &[Span]) -> f64 {
    span.len() - covered(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn s(start: f64, end: f64) -> Span {
        Span { start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = s(0.0, 100.0);
        assert_eq!(self_time(parent, &[]), 100.0);
        // Disjoint children.
        assert_eq!(self_time(parent, &[s(10.0, 20.0), s(30.0, 50.0)]), 70.0);
        // Overlapping and nested children count once.
        assert_eq!(
            self_time(parent, &[s(10.0, 40.0), s(30.0, 60.0), s(35.0, 36.0)]),
            50.0
        );
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(parent, &[s(-5.0, 10.0), s(90.0, 120.0)]), 80.0);
        // Touching children merge; empty and reversed ones add nothing.
        assert_eq!(
            self_time(parent, &[s(0.0, 50.0), s(50.0, 100.0), s(70.0, 60.0)]),
            0.0
        );
    }

    #[test]
    fn ledger_sums_and_merges() {
        let mut a = Ledger::default();
        a.add("regtree.cv_ms", 1.5);
        a.add("regtree.cv_ms", 2.0);
        let mut b = Ledger::default();
        b.add("regtree.cv_ms", 0.5);
        b.set("serve.frames", 7.0);
        a.merge(&b);
        assert_eq!(a.get("regtree.cv_ms"), 4.0);
        assert_eq!(a.get("serve.frames"), 7.0);
        assert_eq!(a.get("arch.quanta"), 0.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench = json::parse(&text).expect("valid JSON");
        let field = |e, key| json::get(e, key).and_then(json::as_str);
        let check = |key: &str, list: &[Metric]| {
            let entries = json::get(&bench, key)
                .and_then(|l| l.as_seq())
                .expect("metric list");
            assert_eq!(entries.len(), list.len(), "{key} length");
            for (e, m) in entries.iter().zip(list) {
                assert_eq!(field(e, "name"), Some(m.name));
                assert_eq!(field(e, "unit"), Some(m.unit), "{}", m.name);
                let better = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(field(e, "better"), Some(better), "{}", m.name);
                let bound = json::get(e, "bound").and_then(json::as_f64);
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }
}
