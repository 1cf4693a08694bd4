//! `fuzzybench` — one benchmark for both fuzzyphase paths: the offline
//! paper pipeline and the `fuzzyphased` daemon, end to end and layer by
//! layer. See README.md beside this package for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! fuzzybench --workload NAME --seed N --seconds S --trace 0|1
//! fuzzybench run --seed N [--seconds S] [--trace] [--out FILE]
//! fuzzybench compare A.json B.json
//! ```
//!
//! The first form runs one workload and prints its metrics, then one
//! JSON line `{"correct", "attempted", "failed", "metrics"}` last: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. It exits 1 when an output check fails. `run` runs every
//! workload, each in its own child process, and writes one file (by
//! default under `<target dir>/fuzzybench/`); `compare` sets two such
//! files against the metric bounds.

mod daemon;
mod json;
mod ledger;
mod loadgen;
mod offline;
mod runset;
mod serve;
mod stats;
mod tracegen;

use json::{int, num, obj, text, Content};
use ledger::{Ledger, END_TO_END, PER_LAYER};
use stats::{median, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["table2", "reanalyze", "serve_stream", "serve_durable"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One workload run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where runs write files (spools, `run` outputs).
    pub out_dir: PathBuf,
    /// The `fuzzyphased` binary built beside this one.
    pub daemon: PathBuf,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    pub setup_s: Vec<f64>,
    /// One wall time per job (pass or session).
    pub wall_s: Vec<f64>,
    /// One latency per request.
    pub latency_ms: Vec<f64>,
    pub layers: Ledger,
    /// Workload-specific facts for the metadata line.
    pub info: Vec<(&'static str, Content)>,
}

impl Outcome {
    /// Records an in-process tracing-overhead measurement: one untraced
    /// and one traced pass over the same inputs.
    pub fn trace_overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.info.push(("untraced_pass_s", num(untraced_s)));
        self.info.push(("traced_pass_s", num(traced_s)));
        let pct = (traced_s / untraced_s - 1.0) * 100.0;
        self.info.push(("trace_overhead_pct", num(pct)));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The end-to-end metrics as `(name, value, samples, how)`.
    fn end_to_end(&self) -> Vec<(&'static str, f64, usize, String)> {
        let lat = Summary::of(&self.latency_ms);
        vec![
            (
                "setup_s",
                median(&self.setup_s),
                self.setup_s.len(),
                "median".into(),
            ),
            (
                "wall_s",
                median(&self.wall_s),
                self.wall_s.len(),
                "median per job".into(),
            ),
            ("p50_ms", lat.p50, lat.n, "median request".into()),
            (
                "tail_ms",
                lat.tail,
                lat.n,
                format!("p{} request", lat.tail_pct),
            ),
        ]
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The target directory this binary was built into.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent()
        .and_then(|release| release.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Facts about the build and machine every output records.
pub fn environment() -> Vec<(&'static str, Content)> {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_sha",
            text(git_sha().unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", int(nproc as u64)),
        ("rustc", text(rustc)),
    ]
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fuzzybench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      fuzzybench run --seed N [--seconds S] [--trace] [--out FILE]\n\
         \x20      fuzzybench compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => runset::run(&args[1..]),
        Some("compare") => runset::compare(&args[1..]),
        _ => run_one(&args),
    }
}

/// Parses `--flag value` pairs.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn run_one(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let workload = flag(args, "--workload")?.to_string();
        let seed = flag(args, "--seed")?.parse().ok()?;
        let seconds = flag(args, "--seconds")?.parse().ok()?;
        let trace = match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        WORKLOADS
            .contains(&workload.as_str())
            .then_some((workload, seed, seconds, trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        return usage();
    };
    let target = target_dir();
    let cfg = Config {
        seed,
        seconds,
        trace,
        out_dir: target.join("fuzzybench"),
        daemon: target.join("release").join("fuzzyphased"),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("fuzzybench: {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let cfg = Config {
        out_dir: cfg.out_dir.canonicalize().unwrap_or(cfg.out_dir),
        ..cfg
    };
    let outcome = match workload.as_str() {
        "table2" => Ok(offline::table2(&cfg)),
        "reanalyze" => Ok(offline::reanalyze(&cfg)),
        "serve_stream" => serve::serve_stream(&cfg),
        _ => serve::serve_durable(&cfg),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzzybench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    report(&workload, &cfg, &outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prints the metric table, the metadata line and, last, the result.
fn report(workload: &str, cfg: &Config, o: &Outcome) {
    let mode = if cfg.trace { "traced" } else { "untraced" };
    println!(
        "fuzzybench {workload}: seed {}, {} s, {mode}",
        cfg.seed, cfg.seconds
    );
    let e2e = o.end_to_end();
    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        for m in &PER_LAYER {
            println!("  {:<26} {:>14.4} {}", m.name, o.layers.get(m.name), m.unit);
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, o.layers.get(m.name), m.unit))
            .collect()
    } else {
        for ((name, value, n, how), m) in e2e.iter().zip(&END_TO_END) {
            println!("  {name:<14} {value:>12.4} {:<4} ({how}, n={n})", m.unit);
        }
        e2e.iter()
            .zip(&END_TO_END)
            .map(|(e, m)| (e.0, e.1, m.unit))
            .collect()
    };
    for p in &o.problems {
        println!("  CHECK FAILED: {p}");
    }

    let mut meta = vec![
        ("workload", text(workload)),
        ("seed", int(cfg.seed)),
        ("seconds", int(cfg.seconds)),
        ("trace", Content::Bool(cfg.trace)),
    ];
    meta.extend(environment());
    meta.push((
        "samples",
        obj(e2e
            .iter()
            .map(|(name, _, n, _)| (*name, int(*n as u64)))
            .collect()),
    ));
    meta.push((
        "how",
        obj(e2e
            .iter()
            .map(|(name, _, _, how)| (*name, text(how.clone())))
            .collect()),
    ));
    let rss = o
        .layers
        .get("core.peak_rss_mib")
        .max(o.layers.get("serve.peak_rss_mib"));
    meta.push(("peak_rss_mib", num(rss)));
    meta.extend(o.info.iter().cloned());
    meta.push((
        "problems",
        Content::Seq(o.problems.iter().map(|p| text(p.clone())).collect()),
    ));
    println!("{}", json::render(&obj(vec![("fuzzybench", obj(meta))])));

    let values = metrics
        .into_iter()
        .map(|(name, value, unit)| (name, obj(vec![("value", num(value)), ("unit", text(unit))])))
        .collect();
    let result = obj(vec![
        ("correct", Content::Bool(o.correct())),
        ("attempted", Content::U64(o.attempted)),
        ("failed", Content::U64(o.failed)),
        ("metrics", obj(values)),
    ]);
    println!("{}", json::render(&result));
}
