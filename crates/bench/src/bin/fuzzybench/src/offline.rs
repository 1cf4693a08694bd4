//! The offline paper-pipeline workloads.
//!
//! * `table2` runs all 50 benchmarks of the paper's Table 2 through the
//!   pipeline at paper defaults, two at a time (`WorkerBudget { suite:
//!   2, fold: 1 }`). Simulation (workload + arch) is most of its time,
//!   so simulator changes show here and regression-tree changes barely
//!   do.
//! * `reanalyze` re-analyzes four archived profiles at three interval
//!   sizes (§7.1) and per thread (§5.2), with two fold workers. The
//!   regression-tree cross-validation is nearly all of its time and no
//!   simulation runs, the reverse of `table2`.
//!
//! The traced variants rebuild each job from the same public calls the
//! pipeline makes, timing each call, and must reproduce the untraced
//! results bit for bit.

use crate::json::{int, text, Content};
use crate::ledger::{ms_since, self_time, Ledger, Span};
use crate::{secs, Config, Outcome, SETUPS};
use fuzzyphase::pipeline::run_benchmark_with_db;
use fuzzyphase::prelude::*;
use fuzzyphase::workload::dss::DssDatabase;
use fuzzyphase::workload::WorkloadEvent;
use fuzzyphase_arch::Core;
use fuzzyphase_profiler::EipvData;
use fuzzyphase_regtree::{CrossValidation, Dataset, ReCurve};
use fuzzyphase_stats::{SeedSequence, SparseVec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benchmarks analyzed at once in `table2` (`WorkerBudget::suite`).
const SUITE_WORKERS: usize = 2;
/// Cross-validation fold workers in `reanalyze`.
const FOLD_WORKERS: usize = 2;
/// Paper quadrants `table2` must reproduce. All 50 land at the paper
/// seed; at other seeds a borderline benchmark or two can cross a
/// threshold (seed 7 misses Q4, seed 16 misses Q1 and Q15).
const MIN_AGREEMENT: usize = 47;
/// Nominal pass times on the reference 2-core machine; pass counts are
/// sized from `--seconds` with them, so both sides of a comparison do
/// the same work.
const TABLE2_PASS_S: f64 = 10.0;
/// `table2`'s set-up (building the shared DSS database) takes tens of
/// milliseconds, so it is repeated more often than the others for a
/// steady median.
const TABLE2_SETUPS: usize = 9;
const REANALYZE_PASS_S: f64 = 1.25;

/// The archived profiles `reanalyze` reads.
fn reanalyze_sources() -> [BenchmarkSpec; 4] {
    [
        BenchmarkSpec::odb_c(),
        BenchmarkSpec::sjas(),
        BenchmarkSpec::spec("gcc"),
        BenchmarkSpec::odb_h(13),
    ]
}

fn passes(cfg: &Config, nominal_s: f64) -> usize {
    ((cfg.seconds as f64 / nominal_s).round() as usize).max(2)
}

/// What an analysis must reproduce bit for bit: the RE curve and the
/// CPI variance (and, in `table2`, the quadrant).
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    bits: Vec<u64>,
    quadrant: Option<Quadrant>,
}

impl Fingerprint {
    fn of(re: &[f64], variance: f64, quadrant: Option<Quadrant>) -> Self {
        let mut bits: Vec<u64> = re.iter().map(|r| r.to_bits()).collect();
        bits.push(variance.to_bits());
        Fingerprint { bits, quadrant }
    }

    fn of_curve(curve: &ReCurve, quadrant: Option<Quadrant>) -> Self {
        Self::of(&curve.re, curve.variance, quadrant)
    }
}

/// Runs `job(i)` for `i in 0..n` on `workers` threads, each pulling the
/// next unclaimed index, as the suite runner does. Returns the results
/// in index order and each worker's finish time in ms after the start.
fn pool<T: Send>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> (Vec<T>, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut finish = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, job(i)));
                    }
                    (mine, ms_since(start))
                })
            })
            .collect();
        for h in handles {
            let (mine, at) = h.join().expect("benchmark worker panicked");
            done.extend(mine);
            finish.push(at);
        }
    });
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, t)| t).collect(), finish)
}

/// Peak memory of this process, which runs the whole pipeline.
fn record_rss(out: &mut Outcome) {
    let rss = crate::daemon::vm_hwm_mib(std::process::id()).unwrap_or(f64::NAN);
    out.layers.set("core.peak_rss_mib", rss);
}

fn straggler_ms(finish: &[f64]) -> f64 {
    let max = finish.iter().copied().fold(f64::MIN, f64::max);
    let min = finish.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

/// A [`Workload`] that times the wrapped workload's `next_event` and
/// replays every event on a shadow [`Core`] in lockstep, timing that
/// too: the profiler's own core runs the same events, so the shadow's
/// time stands for the arch layer's. Events are not stored.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    shadow: Core,
    next_event: Duration,
    execute: Duration,
    events: u64,
    quanta: u64,
}

impl TimedWorkload {
    fn new(inner: Box<dyn Workload>, shadow: Core) -> Self {
        TimedWorkload {
            inner,
            shadow,
            next_event: Duration::ZERO,
            execute: Duration::ZERO,
            events: 0,
            quanta: 0,
        }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let t0 = Instant::now();
        let event = self.inner.next_event();
        let t1 = Instant::now();
        match &event {
            WorkloadEvent::Quantum(q) => {
                std::hint::black_box(self.shadow.execute(q));
                self.quanta += 1;
            }
            WorkloadEvent::ContextSwitch => self.shadow.context_switch(),
        }
        self.execute += t1.elapsed();
        self.next_event += t1 - t0;
        self.events += 1;
        event
    }
}

/// Seeds a benchmark exactly as the pipeline does.
fn benchmark_seed(req: &AnalysisRequest, spec: &BenchmarkSpec) -> u64 {
    SeedSequence::new(req.seed()).seed_for(&spec.name())
}

/// One traced benchmark: the steps of `run_benchmark_with_db`, each
/// timed. Returns the fingerprint, the ledger, and the share of the
/// benchmark's span its child spans cover.
fn traced_benchmark(
    spec: &BenchmarkSpec,
    req: &AnalysisRequest,
    db: &Arc<DssDatabase>,
) -> (Fingerprint, Ledger, f64) {
    let mut ledger = Ledger::default();
    let mut pcfg = req.profile().clone();
    pcfg.sampler = spec.sampler;
    // The shadow core is tracing apparatus: built outside every span.
    let shadow = Core::new(pcfg.machine.clone());
    let t0 = Instant::now();
    let mut stamps = vec![t0];

    let workload = spec.build(benchmark_seed(req, spec), Some(db));
    stamps.push(Instant::now());
    let mut timed = TimedWorkload::new(workload, shadow);
    let profile = ProfileSession::run(&mut timed, &pcfg);
    stamps.push(Instant::now());
    let eipvs = profile.eipvs();
    stamps.push(Instant::now());
    let (features, ds) = dataset(&eipvs);
    stamps.push(Instant::now());
    let curve = req.analysis().cv.run(&ds);
    stamps.push(Instant::now());
    let quadrant = req.thresholds().classify(curve.variance, curve.re_min().0);
    let end = Instant::now();

    let at = |t: Instant| (t - t0).as_secs_f64() * 1e3;
    let children: Vec<Span> = stamps
        .windows(2)
        .map(|w| Span {
            start: at(w[0]),
            end: at(w[1]),
        })
        .collect();
    let whole = Span {
        start: 0.0,
        end: at(end),
    };
    let coverage = 1.0 - self_time(whole, &children) / whole.len();
    let [build, run, eipv, data, cv] = [0, 1, 2, 3, 4].map(|i| children[i].len());

    let next_ms = timed.next_event.as_secs_f64() * 1e3;
    let exec_ms = timed.execute.as_secs_f64() * 1e3;
    ledger.add("workload.build_ms", build);
    ledger.add("workload.next_event_ms", next_ms);
    ledger.add("workload.events", timed.events as f64);
    ledger.add("arch.execute_ms", exec_ms);
    ledger.add("arch.quanta", timed.quanta as f64);
    // The run's children (next_event, shadow execute) run one after
    // another, so their union is their sum; the profiler's own core
    // spends another `exec_ms` of the remainder.
    ledger.add("profiler.record_ms", run - next_ms - exec_ms - exec_ms);
    ledger.add("profiler.eipv_ms", eipv);
    ledger.add("profiler.samples", profile.samples.len() as f64);
    ledger.add("regtree.dataset_ms", data);
    ledger.add("regtree.cv_ms", cv);
    ledger.add("regtree.vectors", ds.len() as f64);
    ledger.add("regtree.features", features as f64);
    (
        Fingerprint::of_curve(&curve, Some(quadrant)),
        ledger,
        coverage,
    )
}

/// `analyze`'s dataset step: the feature count and the owned dataset.
fn dataset(e: &EipvData) -> (usize, Dataset) {
    let features = e
        .vectors
        .iter()
        .map(SparseVec::dim_bound)
        .max()
        .unwrap_or(0);
    (features, Dataset::new(e.vectors.clone(), e.cpis.clone()))
}

/// Records every item whose fingerprint differs from the reference.
fn check_pass(
    out: &mut Outcome,
    what: &str,
    names: &[String],
    got: &[Fingerprint],
    want: &[Fingerprint],
) {
    for ((name, g), w) in names.iter().zip(got).zip(want) {
        if g != w {
            out.failed += 1;
            out.problems
                .push(format!("{what}: {name} differs from the first pass"));
        }
    }
}

pub fn table2(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = None;
    for _ in 0..TABLE2_SETUPS {
        let t = Instant::now();
        let specs = all_benchmarks();
        let db = DssDatabase::new();
        out.setup_s.push(secs(t));
        setup = Some((specs, db));
    }
    let (specs, db) = setup.expect("at least one setup");
    let names: Vec<String> = specs.iter().map(BenchmarkSpec::name).collect();
    let mut req = AnalysisRequest::new().with_seed(cfg.seed);
    req.analysis_mut().cv.workers = 1;

    let untraced = if cfg.trace {
        1
    } else {
        passes(cfg, TABLE2_PASS_S)
    };
    let mut reference: Option<Vec<Fingerprint>> = None;
    let mut straggler = 0.0;
    for _ in 0..untraced {
        let t = Instant::now();
        let (rows, finish) = pool(SUITE_WORKERS, specs.len(), |i| {
            let t = Instant::now();
            let r = run_benchmark_with_db(&specs[i], &req, Some(&db));
            let print =
                Fingerprint::of(&r.report.re_curve, r.report.cpi_variance, Some(r.quadrant));
            (print, ms_since(t))
        });
        out.wall_s.push(secs(t));
        straggler = straggler_ms(&finish);
        out.attempted += rows.len() as u64;
        out.latency_ms.extend(rows.iter().map(|(_, ms)| *ms));
        let prints: Vec<Fingerprint> = rows.into_iter().map(|(p, _)| p).collect();
        match &reference {
            Some(want) => check_pass(&mut out, "table2", &names, &prints, want),
            None => reference = Some(prints),
        }
    }
    let reference = reference.expect("at least one pass");

    let mut misses = Vec::new();
    for ((spec, name), print) in specs.iter().zip(&names).zip(&reference) {
        if print.quadrant != Some(spec.expected_quadrant) {
            misses.push(text(name.clone()));
        }
    }
    let agree = specs.len() - misses.len();
    if agree < MIN_AGREEMENT {
        out.failed += misses.len() as u64;
        out.problems.push(format!(
            "table2: {agree}/{} benchmarks in their paper quadrant, need {MIN_AGREEMENT}",
            specs.len()
        ));
    }
    out.info.push(("paper_agreement", int(agree as u64)));
    out.info.push(("paper_misses", Content::Seq(misses)));

    if cfg.trace {
        let t = Instant::now();
        let (rows, _) = pool(SUITE_WORKERS, specs.len(), |i| {
            traced_benchmark(&specs[i], &req, &db)
        });
        let traced_s = secs(t);
        out.attempted += rows.len() as u64;
        let mut prints = Vec::new();
        for ((print, ledger, coverage), name) in rows.into_iter().zip(&names) {
            if coverage < 0.95 {
                out.problems.push(format!(
                    "table2 trace: {name}'s child spans cover {:.1} % of its span",
                    coverage * 100.0
                ));
            }
            out.layers.merge(&ledger);
            prints.push(print);
        }
        check_pass(&mut out, "table2 trace", &names, &prints, &reference);
        out.layers.set("core.straggler_ms", straggler);
        out.trace_overhead(out.wall_s[0], traced_s);
    }
    record_rss(&mut out);
    out
}

/// One `reanalyze` request: an archived profile viewed at some
/// interval size, or per thread.
#[derive(Debug, Clone, Copy)]
enum View {
    /// Samples per vector as a divisor of the profile's native size.
    Spv(usize),
    PerThread,
}

const VIEWS: [View; 4] = [View::Spv(1), View::Spv(2), View::Spv(4), View::PerThread];

fn eipvs(profile: &ProfileData, view: View) -> EipvData {
    match view {
        View::Spv(div) => {
            let native = (profile.interval_len / profile.period) as usize;
            profile.eipvs_with_samples_per_vector((native / div).max(1))
        }
        View::PerThread => profile.eipvs_per_thread(),
    }
}

/// Simulates one profile, seeded as the pipeline seeds it.
pub fn simulate(
    spec: &BenchmarkSpec,
    req: &AnalysisRequest,
    db: Option<&Arc<DssDatabase>>,
) -> ProfileData {
    let mut workload = spec.build(benchmark_seed(req, spec), db);
    let mut pcfg = req.profile().clone();
    pcfg.sampler = spec.sampler;
    ProfileSession::run(&mut workload, &pcfg)
}

pub fn reanalyze(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let req = AnalysisRequest::new().with_seed(cfg.seed);
    let sources = reanalyze_sources();
    let mut profiles: Option<Vec<ProfileData>> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let db = DssDatabase::new();
        let (made, _) = pool(SUITE_WORKERS, sources.len(), |i| {
            simulate(&sources[i], &req, Some(&db))
        });
        out.setup_s.push(secs(t));
        if profiles.as_ref().is_some_and(|p| *p != made) {
            out.problems
                .push("reanalyze: set-up simulated different profiles".into());
        }
        profiles = Some(made);
    }
    let profiles = profiles.expect("at least one setup");
    let items: Vec<(String, &ProfileData, View)> = profiles
        .iter()
        .flat_map(|p| {
            VIEWS
                .iter()
                .map(move |&v| (format!("{} {v:?}", p.name), p, v))
        })
        .collect();
    let names: Vec<String> = items.iter().map(|(n, _, _)| n.clone()).collect();
    let cv = CrossValidation {
        workers: FOLD_WORKERS,
        ..req.analysis().cv
    };
    let opts = AnalysisOptions { cv };

    let untraced = if cfg.trace {
        1
    } else {
        passes(cfg, REANALYZE_PASS_S)
    };
    let mut reference: Option<Vec<Fingerprint>> = None;
    for _ in 0..untraced {
        let t = Instant::now();
        let mut prints = Vec::new();
        for (_, profile, view) in &items {
            let t = Instant::now();
            let e = eipvs(profile, *view);
            let r = analyze(&e.vectors, &e.cpis, &opts);
            out.latency_ms.push(ms_since(t));
            prints.push(Fingerprint::of(&r.re_curve, r.cpi_variance, None));
        }
        out.wall_s.push(secs(t));
        out.attempted += prints.len() as u64;
        match &reference {
            Some(want) => check_pass(&mut out, "reanalyze", &names, &prints, want),
            None => reference = Some(prints),
        }
    }

    if cfg.trace {
        let t = Instant::now();
        let mut prints = Vec::new();
        for (_, profile, view) in &items {
            let l = &mut out.layers;
            let e = l.time("profiler.eipv_ms", || eipvs(profile, *view));
            l.add("profiler.samples", profile.samples.len() as f64);
            let (features, ds) = l.time("regtree.dataset_ms", || dataset(&e));
            let curve = l.time("regtree.cv_ms", || cv.run(&ds));
            l.add("regtree.vectors", ds.len() as f64);
            l.add("regtree.features", features as f64);
            prints.push(Fingerprint::of_curve(&curve, None));
        }
        let traced_s = secs(t);
        out.attempted += prints.len() as u64;
        let reference = reference.expect("at least one pass");
        check_pass(&mut out, "reanalyze trace", &names, &prints, &reference);
        out.trace_overhead(out.wall_s[0], traced_s);
    }
    record_rss(&mut out);
    out
}
