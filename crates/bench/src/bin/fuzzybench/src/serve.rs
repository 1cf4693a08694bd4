//! The daemon workloads, driven against the real `fuzzyphased` process.
//!
//! * `serve_stream`: four sessions, one after another, each stream a
//!   gcc-derived trace open loop at 200 k samples/s in 500-sample
//!   frames, with no spool and no interim refits; then one more session
//!   sends the first trace twice back to back (spv 1000) to measure
//!   saturation. The read path (decode, EIPV fold, `Progress`)
//!   dominates.
//! * `serve_durable`: three sessions, one after another, each stream an
//!   ODB-C-derived trace (more EIPs, so bigger vectors) at the same rate
//!   into a spooling daemon with a refit every 25 vectors. The daemon is
//!   SIGKILLed once half of a session's frames are acked, restarted on
//!   the same spool, and the session resumes by token. Same framing and
//!   fold path as `serve_stream`, plus spool writes, recovery and the
//!   refitter, so an ingest gain that costs durability shows here.
//!
//! Several shorter sessions rather than one long one: each session's
//! wall time is one sample, and the median of several is much steadier
//! from run to run than a single session's.
//!
//! A traced run replays the exact frames sent through the daemon
//! crate's public functions, in process, after the daemon is gone, and
//! checks the replay against what the daemon answered.

use crate::daemon::Daemon;
use crate::json::{int, num, text};
use crate::ledger::{ms_since, Ledger};
use crate::loadgen::{ack_latencies, at, refit_lags, End, Schedule, Session, Streamed};
use crate::stats::{median, percentile, sorted};
use crate::tracegen::bootstrap;
use crate::{secs, Config, Outcome, SETUPS};
use fuzzyphase::prelude::*;
use fuzzyphase_profiler::{read_samples, write_samples_v2, EipvData, Sample};
use fuzzyphase_regtree::{FitDelta, Fitter, RegressionTree};
use fuzzyphase_serve::protocol::ServerMsg;
use fuzzyphase_serve::spool::{crc32, recover_session_dir, REC_FRAME};
use fuzzyphase_serve::{
    SessionConfig, SessionEngine, SessionMeta, SessionSpool, SpoolConfig, StatsSnapshot,
};
use fuzzyphase_stats::SeedSequence;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples per EIPV vector (the profiler's default interval).
const SPV: usize = 100;
/// Samples per frame.
const FRAME: usize = 500;
/// Open-loop send rate.
const RATE_SPS: f64 = 200_000.0;
/// Frames per run per `--seconds`, split evenly over the sessions: at
/// the default 20 s, `serve_stream` streams 4 sessions of 1000 frames
/// (5000 vectors each) and `serve_durable` 3 sessions of 1500.
const STREAM_FRAMES_PER_S: usize = 200;
const STREAM_SESSIONS: usize = 4;
/// The last few frames before each kill wait out a delayed ACK (see
/// README); 1500-frame sessions keep them well under the 1 % of frames
/// that p99 reports.
const DURABLE_FRAMES_PER_S: usize = 225;
const DURABLE_SESSIONS: usize = 3;
/// Samples per vector of the saturation session.
const SATURATION_SPV: usize = 1000;
/// Refit cadence of `serve_durable`, in vectors.
const REFIT_EVERY: usize = 25;
/// Head start between `Hello` and the first frame's due time.
const LEAD_S: f64 = 0.01;

/// A directory under the run's output directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(cfg: &Config, name: &str) -> Result<Scratch, String> {
        let dir = cfg.out_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// What a set-up produced: one trace per session, each trace's encoded
/// frames, and a daemon that is listening.
struct Prepared {
    traces: Vec<Vec<Sample>>,
    frames: Vec<Vec<Vec<u8>>>,
    daemon: Daemon,
    flags: Vec<String>,
}

/// Sets up `SETUPS` times (simulate the source profile, bootstrap one
/// trace per session, encode the frames, start the daemon), timing
/// each; keeps the last and stops the other daemons untimed.
fn prepare(
    cfg: &Config,
    out: &mut Outcome,
    source: BenchmarkSpec,
    sessions: usize,
    frames_per_s: usize,
    flags: impl Fn(usize) -> Vec<String>,
) -> Result<Prepared, String> {
    let req = AnalysisRequest::new().with_seed(cfg.seed);
    let seeds = SeedSequence::new(cfg.seed).subsequence("fuzzybench-trace");
    let vectors = frames_per_s * cfg.seconds as usize / sessions * FRAME / SPV;
    let mut kept: Option<Prepared> = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let profile = crate::offline::simulate(&source, &req, None);
        let traces: Vec<Vec<Sample>> = (0..sessions as u64)
            .map(|s| bootstrap(&profile.samples, SPV, vectors, seeds.seed_for_index(s)))
            .collect();
        let frames = traces
            .iter()
            .map(|t| {
                t.chunks(FRAME)
                    .map(|c| write_samples_v2(c).to_vec())
                    .collect()
            })
            .collect();
        let flags = flags(i);
        let daemon = Daemon::start(&cfg.daemon, &flags).map_err(err("start daemon"))?;
        out.setup_s.push(secs(t));
        let next = Prepared {
            traces,
            frames,
            daemon,
            flags,
        };
        if let Some(prev) = kept.replace(next) {
            prev.daemon.shutdown().map_err(err("stop set-up daemon"))?;
            if kept.as_ref().is_some_and(|k| k.traces != prev.traces) {
                out.problems
                    .push("set-up bootstrapped different traces".into());
            }
        }
    }
    Ok(kept.expect("at least one setup"))
}

/// Every bit of a report, for exact comparison.
fn report_bits(r: &PredictabilityReport) -> Vec<u64> {
    let mut bits = vec![
        r.cpi_variance.to_bits(),
        r.cpi_mean.to_bits(),
        r.re_min.to_bits(),
        r.re_asymptote.to_bits(),
        r.explained_variance.to_bits(),
        r.k_at_min as u64,
        r.k_opt as u64,
        r.num_vectors as u64,
        r.num_features as u64,
    ];
    bits.extend(r.re_curve.iter().map(|x| x.to_bits()));
    bits
}

/// The offline analysis of `trace` at `spv`: what the daemon's `Report`
/// must equal bit for bit.
fn offline_report(trace: &[Sample], spv: usize) -> PredictabilityReport {
    let e = EipvData::from_samples(trace, spv);
    let mut opts = AnalysisOptions::default();
    // Fold workers change wall time only, never the curve.
    opts.cv.workers = 2;
    analyze(&e.vectors, &e.cpis, &opts)
}

/// The report a session's reply stream ended with.
fn report_of(phase: &Streamed) -> Option<&PredictabilityReport> {
    match phase.report() {
        Some((_, ServerMsg::Report { report, .. })) => Some(report),
        _ => None,
    }
}

/// Checks a session's `Report` against the report it must equal.
fn check_report(
    out: &mut Outcome,
    what: &str,
    got: Option<&PredictabilityReport>,
    want: Option<PredictabilityReport>,
) {
    out.attempted += 1;
    let verdict = match (got, want) {
        (Some(got), Some(want)) if report_bits(got) == report_bits(&want) => None,
        (Some(_), Some(_)) => Some(format!("{what}: Report differs from the offline analysis")),
        (None, _) => Some(format!("{what}: no Report")),
        (_, None) => Some(format!("{what}: no replayed final fit")),
    };
    if let Some(p) = verdict {
        out.failed += 1;
        out.problems.push(p);
    }
}

/// The report a session's `Report` must equal: the replay's final fit
/// in a traced run (timed as a layer), the offline analysis otherwise.
fn expected_report(
    out: &mut Outcome,
    cfg: &Config,
    trace: &[Sample],
    frames: &[&[u8]],
    refits: &[RefitSeen],
    refit_ms: &mut Vec<f64>,
) -> Option<PredictabilityReport> {
    if cfg.trace {
        replay(out, frames, refits, refit_ms)
    } else {
        Some(offline_report(trace, SPV))
    }
}

/// Cumulative sample count at the end of each of `n` full frames.
fn frame_ends(n: usize) -> Vec<u64> {
    (1..=n as u64).map(|i| i * FRAME as u64).collect()
}

/// One open-loop session's client-side record: every frame's due time
/// and ack, in frame order, and when its `Finish` and `Report` happened.
struct SessionLog {
    report: PredictabilityReport,
    due: Vec<f64>,
    progress: Vec<(f64, u64)>,
    late_ms: Vec<f64>,
    refits: Vec<RefitSeen>,
    finish_at: f64,
    report_at: f64,
}

impl SessionLog {
    fn of(phases: &[&Streamed]) -> Result<SessionLog, String> {
        let last = phases.last().expect("at least one phase");
        let report_at = last.report().map(|(t, _)| t).ok_or("no Report")?;
        let report = report_of(last).ok_or("no Report")?.clone();
        Ok(SessionLog {
            report,
            due: phases.iter().flat_map(|p| p.due.iter().copied()).collect(),
            progress: phases.iter().flat_map(|p| p.progress()).collect(),
            late_ms: phases
                .iter()
                .flat_map(|p| p.late_ms.iter().copied())
                .collect(),
            refits: phases
                .iter()
                .flat_map(|p| p.refits())
                .filter_map(|(t, m)| RefitSeen::of(t, m))
                .collect(),
            finish_at: last.finish_at.unwrap_or(report_at),
            report_at,
        })
    }

    /// Adds the session's acks (unacked frames fail), wall time and
    /// lateness to the outcome; returns its Finish-to-Report time in ms.
    fn account(&self, out: &mut Outcome, late: &mut Vec<f64>) -> f64 {
        out.attempted += self.due.len() as u64;
        for latency in ack_latencies(&self.due, &frame_ends(self.due.len()), &self.progress) {
            match latency {
                Some(ms) => out.latency_ms.push(ms),
                None => {
                    out.failed += 1;
                    out.problems.push("a frame went unacked".into());
                }
            }
        }
        out.wall_s.push(self.report_at - self.due[0]);
        late.extend(&self.late_ms);
        (self.report_at - self.finish_at) * 1e3
    }
}

/// Adds a daemon incarnation's counters to the ledger.
fn add_stats(l: &mut Ledger, s: &StatsSnapshot) {
    l.add("serve.frames", s.frames_ingested as f64);
    l.add("serve.refits_run", s.refits_run as f64);
    l.add("serve.refits_coalesced", s.refits_coalesced as f64);
    l.add("serve.spool_bytes", s.spool_bytes as f64);
    l.add("serve.segments_sealed", s.segments_sealed as f64);
    l.add("serve.frames_replayed", s.frames_replayed as f64);
    let hw = l
        .get("serve.ingest_queue_hw")
        .max(s.ingest_queue_high_water as f64);
    l.set("serve.ingest_queue_hw", hw);
    let (run, coalesced) = (l.get("serve.refits_run"), l.get("serve.refits_coalesced"));
    l.set("serve.refit_useful_ratio", run / (run + coalesced).max(1.0));
}

/// Adds a phase's generator numbers to the ledger.
fn add_gen(l: &mut Ledger, phase: &Streamed) {
    l.add("gen.send_ms", phase.send_ms);
    l.add("gen.pauses", phase.pauses as f64);
}

/// Records the median Finish-to-Report time and how late the open-loop
/// generator ran (a validity check).
fn record_sessions(out: &mut Outcome, report_ms: &[f64], late_ms: &[f64]) {
    let report = median(report_ms);
    let late = percentile(&sorted(late_ms), 99.0);
    out.layers.set("serve.report_ms", report);
    out.layers.set("gen.late_p99_ms", late);
    out.info.push(("report_ms", num(report)));
    out.info.push(("gen_late_p99_ms", num(late)));
}

/// Reads a daemon's counters and peak memory before it goes away.
fn sample_daemon(out: &mut Outcome, daemon: &Daemon) -> Result<StatsSnapshot, String> {
    let stats = daemon.stats().map_err(err("daemon stats"))?;
    add_stats(&mut out.layers, &stats);
    let rss = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    let peak = out.layers.get("serve.peak_rss_mib").max(rss);
    out.layers.set("serve.peak_rss_mib", peak);
    Ok(stats)
}

fn frame_refs(frames: &[Vec<u8>]) -> Vec<&[u8]> {
    frames.iter().map(Vec::as_slice).collect()
}

fn open_loop(clock: Instant) -> Schedule {
    Schedule::Every {
        start: at(clock) + LEAD_S,
        period: FRAME as f64 / RATE_SPS,
    }
}

fn checked(what: &str, phase: Streamed) -> Result<Streamed, String> {
    match &phase.error {
        Some(e) => Err(format!("{what}: {e}")),
        None => Ok(phase),
    }
}

pub fn serve_stream(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gcc = BenchmarkSpec::spec("gcc");
    let p = prepare(
        cfg,
        &mut out,
        gcc,
        STREAM_SESSIONS,
        STREAM_FRAMES_PER_S,
        |_| vec!["--addr".into(), "127.0.0.1:0".into()],
    )?;
    let addr = p.daemon.addr.clone();

    // Open loop, no refits, one session after another.
    let mut sessions = Vec::new();
    for (i, frames) in p.frames.iter().enumerate() {
        let clock = Instant::now();
        let mut s = Session::connect(&addr).map_err(err("connect"))?;
        s.hello(&format!("serve_stream-{i}"), SPV, 0, None)
            .map_err(err("hello"))?;
        let phase = s.stream(clock, &frame_refs(frames), open_loop(clock), End::Finish);
        sessions.push(checked("open loop", phase)?);
    }

    // Saturation: the first trace twice, back to back, at spv 1000.
    let twice: Vec<&[u8]> = p.frames[0]
        .iter()
        .chain(&p.frames[0])
        .map(Vec::as_slice)
        .collect();
    let clock = Instant::now();
    let mut s = Session::connect(&addr).map_err(err("connect"))?;
    s.hello("serve_stream-saturate", SATURATION_SPV, 0, None)
        .map_err(err("hello"))?;
    let sat = checked(
        "saturation",
        s.stream(clock, &twice, Schedule::BackToBack, End::Finish),
    )?;
    sample_daemon(&mut out, &p.daemon)?;
    p.daemon.shutdown().map_err(err("stop daemon"))?;

    let (mut report_ms, mut late) = (Vec::new(), Vec::new());
    let mut logs = Vec::new();
    for phase in &sessions {
        let log = SessionLog::of(&[phase])?;
        report_ms.push(log.account(&mut out, &mut late));
        add_gen(&mut out.layers, phase);
        logs.push(log);
    }
    record_sessions(&mut out, &report_ms, &late);
    add_gen(&mut out.layers, &sat);
    let last_ack = sat.progress().last().map_or(f64::NAN, |&(t, _)| t);
    let ingest_sps = (twice.len() * FRAME) as f64 / (last_ack - sat.due[0]);
    out.layers.set("serve.ingest_sps", ingest_sps);
    out.info.push(("ingest_sps", num(ingest_sps)));
    out.info.push(("daemon_flags", text(p.flags.join(" "))));

    let t = Instant::now();
    let sat_trace: Vec<Sample> = p.traces[0].iter().chain(&p.traces[0]).copied().collect();
    let want = offline_report(&sat_trace, SATURATION_SPV);
    check_report(&mut out, "saturation", report_of(&sat), Some(want));
    for ((log, trace), frames) in logs.iter().zip(&p.traces).zip(&p.frames) {
        let want = expected_report(
            &mut out,
            cfg,
            trace,
            &frame_refs(frames),
            &[],
            &mut Vec::new(),
        );
        check_report(&mut out, "open loop", Some(&log.report), want);
    }
    out.info.push(("check_s", num(secs(t))));
    Ok(out)
}

/// One durable session's record past the crash.
struct Durable {
    log: SessionLog,
    token: String,
    /// The session's spool directory as it stood at the kill.
    at_kill: PathBuf,
    /// Frames the daemon held durably at the resume.
    last_seq: u64,
    restart_ms: f64,
}

/// Streams one durable session: half its frames, the SIGKILL once the
/// last of them is acked, a restart on the same spool, the resume, the
/// rest, and the report. Returns the restarted daemon with the record.
fn durable_session(
    cfg: &Config,
    out: &mut Outcome,
    daemon: Daemon,
    flags: &[String],
    spool_dir: &Path,
    at_kill: PathBuf,
    frames: &[&[u8]],
) -> Result<(Daemon, Durable), String> {
    let half = frames.len() / 2;
    let name = "serve_durable";
    let clock = Instant::now();
    let mut s = Session::connect(&daemon.addr).map_err(err("connect"))?;
    let (token, _) = s
        .hello(name, SPV, REFIT_EVERY, None)
        .map_err(err("hello"))?;
    let token = token.ok_or("daemon issued no resume token")?;
    let acked = End::AckOf((half * FRAME) as u64);
    let first = checked(
        "phase one",
        s.stream(clock, &frames[..half], open_loop(clock), acked),
    )?;

    // The crash, then a restart on the same spool and a resume.
    sample_daemon(out, &daemon)?;
    let killed_at = at(clock);
    daemon.kill().map_err(err("kill daemon"))?;
    let t = Instant::now();
    copy_dir(&spool_dir.join(&token), &at_kill).map_err(err("copy spool"))?;
    let copy_s = secs(t);
    let daemon = Daemon::start(&cfg.daemon, flags).map_err(err("restart daemon"))?;
    let mut s = Session::connect(&daemon.addr).map_err(err("reconnect"))?;
    let (_, last_seq) = s
        .hello(name, SPV, REFIT_EVERY, Some(&token))
        .map_err(err("resume"))?;
    let restart_ms = (at(clock) - killed_at - copy_s) * 1e3;
    out.attempted += 1;
    if last_seq != half as u64 {
        out.failed += 1;
        out.problems.push(format!(
            "resume: the daemon held {last_seq} durable frames, {half} were acked"
        ));
    }
    let resume_from = (last_seq as usize).min(half);
    let rest = &frames[resume_from..];
    let second = checked(
        "phase two",
        s.stream(clock, rest, open_loop(clock), End::Finish),
    )?;
    add_gen(&mut out.layers, &first);
    add_gen(&mut out.layers, &second);

    let mut first = first;
    first.due.truncate(resume_from);
    let log = SessionLog::of(&[&first, &second])?;
    let record = Durable {
        log,
        token,
        at_kill,
        last_seq,
        restart_ms,
    };
    Ok((daemon, record))
}

pub fn serve_durable(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = Scratch::new(cfg, "durable")?;
    let spool = |i: usize| work.0.join(format!("spool-{i}"));
    let odb_c = BenchmarkSpec::odb_c();
    let p = prepare(
        cfg,
        &mut out,
        odb_c,
        DURABLE_SESSIONS,
        DURABLE_FRAMES_PER_S,
        |i| {
            let dir = spool(i).display().to_string();
            vec![
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--spool-dir".into(),
                dir,
            ]
        },
    )?;
    let spool_dir = spool(SETUPS - 1);

    let mut daemon = p.daemon;
    let mut runs = Vec::new();
    for (i, frames) in p.frames.iter().enumerate() {
        let at_kill = work.0.join(format!("at-kill-{i}"));
        let frames = frame_refs(frames);
        let (next, run) = durable_session(
            cfg, &mut out, daemon, &p.flags, &spool_dir, at_kill, &frames,
        )?;
        daemon = next;
        runs.push(run);
    }
    let stats = sample_daemon(&mut out, &daemon)?;
    daemon.shutdown().map_err(err("stop daemon"))?;

    let (mut report_ms, mut late, mut lags) = (Vec::new(), Vec::new(), Vec::new());
    for r in &runs {
        let log = &r.log;
        report_ms.push(log.account(&mut out, &mut late));
        let covering: Vec<(f64, u64)> = log.refits.iter().map(|r| (r.at, r.vectors)).collect();
        let ends = frame_ends(log.due.len());
        let every = REFIT_EVERY as u64;
        let tick_lags = refit_lags(
            every,
            SPV as u64,
            &log.due,
            &ends,
            &covering,
            Some(log.report_at),
        );
        lags.extend(tick_lags.into_iter().flatten());
    }
    record_sessions(&mut out, &report_ms, &late);
    let restart = median(&runs.iter().map(|r| r.restart_ms).collect::<Vec<_>>());
    let lag_p50 = percentile(&sorted(&lags), 50.0);
    let lag_p95 = percentile(&sorted(&lags), 95.0);
    let l = &mut out.layers;
    l.set("serve.restart_ms", restart);
    l.set("serve.refit_lag_p50_ms", lag_p50);
    l.set("serve.refit_lag_p95_ms", lag_p95);
    out.info.push(("restart_ms", num(restart)));
    out.info.push(("refit_ticks", int(lags.len() as u64)));
    out.info.push(("refit_lag_p50_ms", num(lag_p50)));
    out.info.push(("refit_lag_p95_ms", num(lag_p95)));
    out.info.push(("daemon_flags", text(p.flags.join(" "))));
    out.info.push((
        "frames_replayed_at_last_restart",
        int(stats.frames_replayed),
    ));

    let t = Instant::now();
    let mut refit_ms = Vec::new();
    for (i, ((r, trace), frames)) in runs.iter().zip(&p.traces).zip(&p.frames).enumerate() {
        let frames = frame_refs(frames);
        let want = expected_report(&mut out, cfg, trace, &frames, &r.log.refits, &mut refit_ms);
        check_report(&mut out, "durable", Some(&r.log.report), want);
        if cfg.trace {
            let spooled = &frames[..r.last_seq as usize];
            let dir = work.0.join(format!("replay-{i}"));
            replay_spool(&mut out, &dir, spooled).map_err(err("spool replay"))?;
            let l = &mut out.layers;
            match l.time("serve.recover_ms", || {
                recover_session_dir(&r.at_kill, &r.token)
            }) {
                Ok(rec) if rec.state.frames == r.last_seq => {}
                Ok(rec) => out.problems.push(format!(
                    "recovery replay found {} frames, the daemon resumed at {}",
                    rec.state.frames, r.last_seq
                )),
                Err(e) => out.problems.push(format!("recovery replay: {e}")),
            }
        }
    }
    if cfg.trace {
        out.layers.set("serve.refit_busy_ms", refit_ms.iter().sum());
        out.layers.set("serve.refit_p50_ms", median(&refit_ms));
    }
    out.info.push(("check_s", num(secs(t))));
    Ok(out)
}

/// Copies the regular files of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A `RefitDelta` as the client saw it.
#[derive(Debug, Clone, Copy)]
struct RefitSeen {
    at: f64,
    vectors: u64,
    delta_vectors: u64,
    nodes_changed: u64,
    num_leaves: u64,
    re_to: f64,
}

impl RefitSeen {
    fn of(at: f64, msg: &ServerMsg) -> Option<RefitSeen> {
        match *msg {
            ServerMsg::RefitDelta {
                vectors,
                delta_vectors,
                nodes_changed,
                num_leaves,
                re_to,
                ..
            } => Some(RefitSeen {
                at,
                vectors,
                delta_vectors,
                nodes_changed,
                num_leaves,
                re_to,
            }),
            _ => None,
        }
    }
}

/// Replays the frames the daemon ingested through its session engine:
/// decode, ingest, and at each refit the daemon reported, the same
/// delta cut and incremental fit (the fit state starts over where the
/// daemon's did, at its first refit after a resume). Each replayed refit
/// must match the daemon's `RefitDelta`; its time goes to `refit_ms`.
/// Returns the final fit.
fn replay(
    out: &mut Outcome,
    frames: &[&[u8]],
    refits: &[RefitSeen],
    refit_ms: &mut Vec<f64>,
) -> Option<PredictabilityReport> {
    let cfg = SessionConfig {
        spv: SPV,
        ..SessionConfig::default()
    };
    let mut engine = SessionEngine::new(cfg);
    let fitter = Fitter::new()
        .max_leaves(cfg.analysis.cv.k_max)
        .min_leaf(cfg.analysis.cv.min_leaf);
    let mut state = fitter.begin();
    let mut prev: Option<RegressionTree> = None;
    let mut pending = refits.iter().peekable();
    let l = &mut out.layers;
    for frame in frames {
        let samples = match l.time("serve.decode_ms", || read_samples(frame)) {
            Ok(s) => s,
            Err(e) => {
                out.problems.push(format!("replay: undecodable frame: {e}"));
                return None;
            }
        };
        l.time("serve.ingest_ms", || engine.ingest(&samples));
        while let Some(r) = pending.next_if(|r| r.vectors == engine.vectors()) {
            let from = (r.vectors - r.delta_vectors) as usize;
            if from == 0 {
                state = fitter.begin();
                prev = None;
            } else if from != state.rows() {
                out.problems
                    .push(format!("replay: refit at {} skips rows", r.vectors));
            }
            let (rows, cpis) = l.time("serve.snapshot_ms", || engine.snapshot_delta(from));
            let t = Instant::now();
            let tree = fitter.incremental(&mut state, &FitDelta::new(rows, cpis));
            refit_ms.push(ms_since(t));
            let changed = prev
                .as_ref()
                .map_or(tree.nodes().len(), |p| tree.nodes_changed_from(p));
            let got = (
                tree.num_leaves() as u64,
                changed as u64,
                tree.training_re().to_bits(),
            );
            out.attempted += 1;
            if got != (r.num_leaves, r.nodes_changed, r.re_to.to_bits()) {
                out.failed += 1;
                out.problems.push(format!(
                    "replay: refit at {} vectors differs from the daemon's",
                    r.vectors
                ));
            }
            prev = Some(tree);
        }
    }
    if pending.peek().is_some() {
        out.problems
            .push("replay: the daemon refit at a point the replay never reached".into());
    }
    match l.time("serve.final_fit_ms", || engine.finalize()) {
        Ok((fit, _)) => Some(fit.report),
        Err(e) => {
            out.problems.push(format!("replay: final fit: {e}"));
            None
        }
    }
}

/// Appends the frames the daemon spooled before the kill to a fresh
/// spool with the default settings, timing the CRC, the appends and the
/// syncs apart. Syncs are issued here, every `fsync_every` frames as
/// the default does, so they are timed on their own; rotation syncs stay
/// inside the appends. The CRC is also part of each append.
fn replay_spool(out: &mut Outcome, dir: &Path, frames: &[&[u8]]) -> std::io::Result<()> {
    let defaults = SpoolConfig::new(dir);
    let cfg = SpoolConfig {
        fsync_every: 0,
        ..defaults.clone()
    };
    let meta = SessionMeta {
        token: "sess-replay".into(),
        name: "serve_durable".into(),
        spv: SPV,
        refit_every: REFIT_EVERY,
        protocol: 2,
    };
    let mut spool = SessionSpool::create(&cfg, meta)?;
    let l = &mut out.layers;
    for (i, frame) in frames.iter().enumerate() {
        std::hint::black_box(l.time("serve.crc_ms", || crc32(&[&[REC_FRAME][..], frame])));
        l.time("serve.spool_append_ms", || spool.append_frame(frame))?;
        if (i + 1) % defaults.fsync_every as usize == 0 {
            l.time("serve.spool_sync_ms", || spool.sync())?;
        }
    }
    l.time("serve.spool_sync_ms", || spool.sync())
}
