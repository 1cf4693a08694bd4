//! Concurrent load generator for `fuzzyphased`, emitting
//! `BENCH_serve.json` with throughput and per-batch latency
//! percentiles.
//!
//! ```text
//! cargo run --release -p fuzzyphase-bench --bin loadgen -- \
//!     [--addr HOST:PORT] [--sessions N] [--samples N] [--batch N] \
//!     [--spv N] [--refit-every N] [--out BENCH_serve.json] [--shutdown] \
//!     [--restart-after N] [--spool-dir DIR] \
//!     [--phase first|resume] [--tokens FILE]
//! ```
//!
//! With `--addr` it drives an already-running daemon (what the CI smoke
//! job does); without it, it starts an in-process server so the bench
//! is self-contained. Each session streams a deterministic synthetic
//! phase-structured trace and measures, per sample frame, the time from
//! sending the frame to receiving the `Progress` acknowledging it
//! (matched by cumulative sample watermark — replies are in order, so
//! the match is exact). `--shutdown` sends the admin `Shutdown` request
//! when done, letting scripts wait for the daemon to exit.
//!
//! # Durability modes
//!
//! `--restart-after N` (in-process only) exercises the spool: every
//! session streams N frames and waits for the ack, the daemon is then
//! killed abruptly (no drain, no goodbye), restarted on the same
//! `--spool-dir`, and every session resumes by token and streams the
//! rest. The time from reconnect to the `Hello` reply carrying the
//! durable high-water mark is the *resume latency*, reported as
//! p50/p99 alongside the frame latencies.
//!
//! Against an external daemon the same flow is split across two
//! invocations so a script can SIGKILL the daemon in between:
//! `--phase first` streams N frames per session, waits for the acks,
//! writes each session's resume token to `--tokens`, and exits without
//! finishing; `--phase resume` reads the token file, resumes every
//! session, streams the remainder and writes the bench report.
//!
//! `available_parallelism` is recorded with every report — a throughput
//! figure means nothing without the core count it ran on.

use fuzzyphase_profiler::Sample;
use fuzzyphase_serve::{ClientControl, ServeClient, Server, ServerConfig, ServerMsg, SpoolConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Args {
    addr: Option<String>,
    sessions: usize,
    samples: u64,
    batch: usize,
    spv: usize,
    refit_every: usize,
    out: String,
    shutdown: bool,
    restart_after: usize,
    spool_dir: Option<String>,
    phase: Option<String>,
    tokens: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            sessions: 4,
            samples: 100_000,
            batch: 500,
            spv: 100,
            refit_every: 0,
            out: "BENCH_serve.json".to_string(),
            shutdown: false,
            restart_after: 0,
            spool_dir: None,
            phase: None,
            tokens: "loadgen-tokens.json".to_string(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--sessions N] [--samples N] [--batch N] \
         [--spv N] [--refit-every N] [--out FILE] [--shutdown] \
         [--restart-after N] [--spool-dir DIR] [--phase first|resume] [--tokens FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("loadgen: {name} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => a.addr = Some(val("--addr")),
            "--sessions" => a.sessions = val("--sessions").parse().unwrap_or_else(|_| usage()),
            "--samples" => a.samples = val("--samples").parse().unwrap_or_else(|_| usage()),
            "--batch" => a.batch = val("--batch").parse().unwrap_or_else(|_| usage()),
            "--spv" => a.spv = val("--spv").parse().unwrap_or_else(|_| usage()),
            "--refit-every" => {
                a.refit_every = val("--refit-every").parse().unwrap_or_else(|_| usage())
            }
            "--out" => a.out = val("--out"),
            "--shutdown" => a.shutdown = true,
            "--restart-after" => {
                a.restart_after = val("--restart-after").parse().unwrap_or_else(|_| usage())
            }
            "--spool-dir" => a.spool_dir = Some(val("--spool-dir")),
            "--phase" => a.phase = Some(val("--phase")),
            "--tokens" => a.tokens = val("--tokens"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown flag '{other}'");
                usage();
            }
        }
    }
    if let Some(p) = &a.phase {
        if p != "first" && p != "resume" {
            eprintln!("loadgen: --phase must be 'first' or 'resume', not '{p}'");
            usage();
        }
        if a.addr.is_none() {
            eprintln!("loadgen: --phase needs --addr (use --restart-after for in-process)");
            usage();
        }
        if p == "first" && a.restart_after == 0 {
            eprintln!("loadgen: --phase first needs --restart-after N (frames before the kill)");
            usage();
        }
    }
    if a.restart_after > 0 && (a.restart_after * a.batch) as u64 >= a.samples {
        eprintln!(
            "loadgen: --restart-after {} × --batch {} covers the whole {}-sample trace; \
             nothing would be left to resume",
            a.restart_after, a.batch, a.samples
        );
        usage();
    }
    a
}

/// Deterministic synthetic trace: three CPI phases, per-session EIP
/// bands so sessions do not share feature ids.
fn synth_trace(session: usize, n: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let phase = (i / 200) % 3;
            Sample {
                eip: 0x100_0000 * (session as u64 + 1) + phase * 0x2000 + (i % 31) * 0x8,
                thread: session as u32,
                is_os: i % 37 == 0,
                cpi: 0.7 + phase as f64 * 0.5 + (i % 17) as f64 * 0.01,
            }
        })
        .collect()
}

#[derive(Serialize)]
struct SessionStats {
    session: usize,
    samples: u64,
    frames: usize,
    wall_ms: f64,
    throughput_samples_per_sec: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    pauses_seen: u64,
    report_ok: bool,
    /// Reconnect-to-Hello time when this session resumed, else null.
    resume_latency_ms: Option<f64>,
}

#[derive(Serialize)]
struct BenchReport {
    sessions: usize,
    samples_per_session: u64,
    batch: usize,
    spv: usize,
    refit_every: usize,
    in_process_server: bool,
    restart_after_frames: usize,
    /// `std::thread::available_parallelism()` on the machine that ran
    /// the bench — the denominator any throughput claim is read against.
    available_parallelism: usize,
    wall_ms: f64,
    total_samples: u64,
    aggregate_throughput_samples_per_sec: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    sessions_resumed: usize,
    resume_latency_p50_ms: f64,
    resume_latency_p99_ms: f64,
    all_reports_ok: bool,
    per_session: Vec<SessionStats>,
}

/// One line of the `--tokens` handoff file between `--phase first` and
/// `--phase resume`.
#[derive(Serialize, Deserialize)]
struct SessionToken {
    session: usize,
    token: String,
    sent_samples: u64,
    sent_frames: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Frame-latency bookkeeping shared by every streaming loop:
/// (cumulative-sample watermark, send instant) per unacknowledged frame.
struct LatencyTracker {
    outstanding: Vec<(u64, Instant)>,
    latencies_ms: Vec<f64>,
}

impl LatencyTracker {
    fn new() -> Self {
        Self {
            outstanding: Vec::new(),
            latencies_ms: Vec::new(),
        }
    }

    fn absorb(&mut self, msg: &ServerMsg) {
        if let ServerMsg::Progress { samples, .. } = msg {
            let now = Instant::now();
            while let Some(&(mark, at)) = self.outstanding.first() {
                if mark <= *samples {
                    self.latencies_ms
                        .push(now.duration_since(at).as_secs_f64() * 1e3);
                    self.outstanding.remove(0);
                } else {
                    break;
                }
            }
        }
    }
}

/// Streams `trace` in batch-sized frames, tracking ack latency.
/// Returns cumulative samples sent (starting from `already_sent`).
fn stream_frames(
    client: &mut ServeClient,
    trace: &[Sample],
    batch: usize,
    already_sent: u64,
    tracker: &mut LatencyTracker,
) -> (u64, usize) {
    let mut sent = already_sent;
    let mut frames = 0usize;
    for chunk in trace.chunks(batch.max(1)) {
        client.send_samples(chunk).expect("send");
        sent += chunk.len() as u64;
        frames += 1;
        tracker.outstanding.push((sent, Instant::now()));
        while let Some(msg) = client.try_recv() {
            tracker.absorb(&msg);
        }
    }
    (sent, frames)
}

/// Blocks until the server has acknowledged `watermark` samples.
fn wait_for_ack(client: &mut ServeClient, watermark: u64, tracker: &mut LatencyTracker) {
    loop {
        let msg = client.recv().expect("ack before disconnect");
        tracker.absorb(&msg);
        if let ServerMsg::Progress { samples, .. } = msg {
            if samples >= watermark {
                return;
            }
        }
    }
}

/// Drains until the final report, absorbing Progress along the way.
fn wait_for_report(client: &mut ServeClient, session: usize, tracker: &mut LatencyTracker) -> bool {
    let mut report_ok = false;
    while let Ok(msg) = client.recv() {
        tracker.absorb(&msg);
        match msg {
            ServerMsg::Report { .. } => report_ok = true,
            ServerMsg::Bye => break,
            ServerMsg::Error { message } => {
                eprintln!("loadgen: session {session}: server error: {message}");
                break;
            }
            _ => {}
        }
    }
    report_ok
}

/// What a finished session hands to `session_stats` besides latencies.
struct SessionOutcome {
    sent: u64,
    frames: usize,
    wall: f64,
    pauses: u64,
    report_ok: bool,
    resume_latency_ms: Option<f64>,
}

fn session_stats(
    session: usize,
    out: SessionOutcome,
    mut latencies_ms: Vec<f64>,
) -> (SessionStats, Vec<f64>) {
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let stats = SessionStats {
        session,
        samples: out.sent,
        frames: out.frames,
        wall_ms: out.wall * 1e3,
        throughput_samples_per_sec: out.sent as f64 / out.wall.max(1e-9),
        latency_p50_ms: percentile(&latencies_ms, 50.0),
        latency_p90_ms: percentile(&latencies_ms, 90.0),
        latency_p99_ms: percentile(&latencies_ms, 99.0),
        pauses_seen: out.pauses,
        report_ok: out.report_ok,
        resume_latency_ms: out.resume_latency_ms,
    };
    (stats, latencies_ms)
}

/// Drives one uninterrupted session; returns its stats and raw latencies.
fn run_session(addr: &str, session: usize, args: &Args) -> (SessionStats, Vec<f64>) {
    let trace = synth_trace(session, args.samples);
    let start = Instant::now();
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .hello(&format!("loadgen-{session}"), args.spv, args.refit_every)
        .expect("hello");

    let mut tracker = LatencyTracker::new();
    let (sent, frames) = stream_frames(&mut client, &trace, args.batch, 0, &mut tracker);
    client.finish().expect("finish");
    let report_ok = wait_for_report(&mut client, session, &mut tracker);
    let wall = start.elapsed().as_secs_f64();
    let pauses = client.pauses_seen();
    client.close();
    session_stats(
        session,
        SessionOutcome {
            sent,
            frames,
            wall,
            pauses,
            report_ok,
            resume_latency_ms: None,
        },
        tracker.latencies_ms,
    )
}

/// Phase one of a durable run: stream the first `restart_after` frames,
/// wait for the ack so they are durably spooled, and walk away without
/// `Finish` — leaving the session resumable.
fn run_first_phase(addr: &str, session: usize, args: &Args) -> (SessionToken, Vec<f64>) {
    let n = (args.restart_after as u64 * args.batch as u64).min(args.samples);
    let trace = synth_trace(session, n);
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .hello(&format!("loadgen-{session}"), args.spv, args.refit_every)
        .expect("hello");
    let token = client
        .resume_token()
        .unwrap_or_else(|| {
            eprintln!("loadgen: daemon issued no resume token (spool not configured?)");
            std::process::exit(1);
        })
        .to_string();

    let mut tracker = LatencyTracker::new();
    let (sent, frames) = stream_frames(&mut client, &trace, args.batch, 0, &mut tracker);
    wait_for_ack(&mut client, sent, &mut tracker);
    client.close();
    (
        SessionToken {
            session,
            token,
            sent_samples: sent,
            sent_frames: frames,
        },
        tracker.latencies_ms,
    )
}

/// Phase two: reconnect, resume by token (timing the reconnect→Hello
/// round trip), retransmit everything past the durable high-water mark,
/// finish, and wait for the report.
fn run_resume_phase(
    addr: &str,
    tok: &SessionToken,
    args: &Args,
    first_latencies: Vec<f64>,
) -> (SessionStats, Vec<f64>) {
    let session = tok.session;
    let trace = synth_trace(session, args.samples);
    let start = Instant::now();
    let mut client = ServeClient::connect(addr).expect("reconnect");
    let reconnect = Instant::now();
    let last_seq = client
        .hello_resume(
            &format!("loadgen-{session}"),
            args.spv,
            args.refit_every,
            &tok.token,
        )
        .expect("resume");
    let resume_ms = reconnect.elapsed().as_secs_f64() * 1e3;
    // Every durable frame was a full batch (phase one sends whole
    // batches only), so the sample offset is exact.
    let covered = (last_seq as usize * args.batch).min(trace.len());

    let mut tracker = LatencyTracker::new();
    tracker.latencies_ms = first_latencies;
    let (sent, frames) = stream_frames(
        &mut client,
        &trace[covered..],
        args.batch,
        covered as u64,
        &mut tracker,
    );
    client.finish().expect("finish");
    let report_ok = wait_for_report(&mut client, session, &mut tracker);
    let wall = start.elapsed().as_secs_f64();
    let pauses = client.pauses_seen();
    client.close();
    session_stats(
        session,
        SessionOutcome {
            sent,
            frames: frames + tok.sent_frames,
            wall,
            pauses,
            report_ok,
            resume_latency_ms: Some(resume_ms),
        },
        tracker.latencies_ms,
    )
}

/// Pools every session's latencies (sorted) with the run's total
/// samples and whether every session got its Report.
fn aggregate(results: &[(SessionStats, Vec<f64>)]) -> (Vec<f64>, u64, bool) {
    let mut all_lat: Vec<f64> = results
        .iter()
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    all_lat.sort_by(|a, b| a.total_cmp(b));
    let total_samples: u64 = results.iter().map(|(s, _)| s.samples).sum();
    let all_ok = results.iter().all(|(s, _)| s.report_ok);
    (all_lat, total_samples, all_ok)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn write_report(
    args: &Args,
    in_process: bool,
    wall_s: f64,
    results: Vec<(SessionStats, Vec<f64>)>,
) {
    let (all_lat, total_samples, all_ok) = aggregate(&results);
    let mut resume_lat: Vec<f64> = results
        .iter()
        .filter_map(|(s, _)| s.resume_latency_ms)
        .collect();
    resume_lat.sort_by(|a, b| a.total_cmp(b));

    let report = BenchReport {
        sessions: args.sessions,
        samples_per_session: args.samples,
        batch: args.batch,
        spv: args.spv,
        refit_every: args.refit_every,
        in_process_server: in_process,
        restart_after_frames: args.restart_after,
        available_parallelism: available_parallelism(),
        wall_ms: wall_s * 1e3,
        total_samples,
        aggregate_throughput_samples_per_sec: total_samples as f64 / wall_s.max(1e-9),
        latency_p50_ms: percentile(&all_lat, 50.0),
        latency_p90_ms: percentile(&all_lat, 90.0),
        latency_p99_ms: percentile(&all_lat, 99.0),
        sessions_resumed: resume_lat.len(),
        resume_latency_p50_ms: percentile(&resume_lat, 50.0),
        resume_latency_p99_ms: percentile(&resume_lat, 99.0),
        all_reports_ok: all_ok,
        per_session: results.into_iter().map(|(s, _)| s).collect(),
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(&args.out, &json).expect("write bench report");
    eprintln!(
        "loadgen: {:.0} samples/s aggregate, p50 {:.2} ms, p99 {:.2} ms → {}",
        report.aggregate_throughput_samples_per_sec,
        report.latency_p50_ms,
        report.latency_p99_ms,
        args.out
    );
    if report.sessions_resumed > 0 {
        eprintln!(
            "loadgen: {} session(s) resumed, resume p50 {:.2} ms, p99 {:.2} ms",
            report.sessions_resumed, report.resume_latency_p50_ms, report.resume_latency_p99_ms
        );
    }
    if !all_ok {
        std::process::exit(1);
    }
}

/// Runs phase one for every session concurrently.
fn first_phases(addr: &str, args: &Args) -> Vec<(SessionToken, Vec<f64>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|i| {
                let addr = addr.to_string();
                scope.spawn(move || run_first_phase(&addr, i, args))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    })
}

/// Runs the resume phase for every session concurrently.
fn resume_phases(
    addr: &str,
    args: &Args,
    tokens: Vec<(SessionToken, Vec<f64>)>,
) -> Vec<(SessionStats, Vec<f64>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = tokens
            .into_iter()
            .map(|(tok, lat)| {
                let addr = addr.to_string();
                scope.spawn(move || run_resume_phase(&addr, &tok, args, lat))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    })
}

/// Runs the full concurrent-session workload against `addr`.
fn run_all_sessions(addr: &str, args: &Args) -> Vec<(SessionStats, Vec<f64>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|i| {
                let addr = addr.to_string();
                scope.spawn(move || run_session(&addr, i, args))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    })
}

fn main() {
    let args = parse_args();

    // External two-phase modes (the smoke script kills the daemon in
    // between invocations).
    match args.phase.as_deref() {
        Some("first") => {
            let addr = args.addr.clone().unwrap_or_else(|| usage());
            eprintln!(
                "loadgen: phase one — {} session(s) × {} frame(s) → {}",
                args.sessions, args.restart_after, addr
            );
            let tokens = first_phases(&addr, &args);
            let rows: Vec<&SessionToken> = tokens.iter().map(|(t, _)| t).collect();
            let json = serde_json::to_string_pretty(&rows).expect("serialize tokens");
            std::fs::write(&args.tokens, &json).expect("write tokens file");
            eprintln!(
                "loadgen: {} durable session(s), tokens → {}",
                rows.len(),
                args.tokens
            );
            return;
        }
        Some("resume") => {
            let addr = args.addr.clone().unwrap_or_else(|| usage());
            let data = std::fs::read_to_string(&args.tokens).expect("read tokens file");
            let rows: Vec<SessionToken> = serde_json::from_str(&data).expect("parse tokens file");
            eprintln!(
                "loadgen: phase two — resuming {} session(s) on {}",
                rows.len(),
                addr
            );
            let wall = Instant::now();
            let tokens = rows.into_iter().map(|t| (t, Vec::new())).collect();
            let results = resume_phases(&addr, &args, tokens);
            write_report(&args, false, wall.elapsed().as_secs_f64(), results);
            maybe_shutdown(&args, &addr);
            return;
        }
        _ => {}
    }

    // In-process restart mode: stream, kill the daemon abruptly,
    // restart on the same spool, resume, finish.
    if args.restart_after > 0 && args.addr.is_none() {
        let spool_dir = std::path::PathBuf::from(
            args.spool_dir
                .clone()
                .unwrap_or_else(|| "loadgen-spool".to_string()),
        );
        let cfg = ServerConfig {
            spool: Some(SpoolConfig::new(spool_dir.clone())),
            ..ServerConfig::default()
        };
        let server = Server::start(cfg.clone()).expect("start in-process server");
        let addr = server.local_addr().to_string();
        eprintln!(
            "loadgen: {} session(s), killing the daemon after {} frame(s) each",
            args.sessions, args.restart_after
        );

        let wall = Instant::now();
        let tokens = first_phases(&addr, &args);
        server.abort(); // the crash: no drain, no goodbye
        let server = Server::start(cfg).expect("restart in-process server");
        let addr = server.local_addr().to_string();
        let results = resume_phases(&addr, &args, tokens);
        write_report(&args, true, wall.elapsed().as_secs_f64(), results);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool_dir);
        return;
    }

    // Self-contained mode: no --addr means run the daemon in-process.
    let local = if args.addr.is_none() {
        let mut cfg = ServerConfig::default();
        if let Some(dir) = &args.spool_dir {
            cfg.spool = Some(SpoolConfig::new(std::path::PathBuf::from(dir)));
        }
        Some(Server::start(cfg).expect("start in-process server"))
    } else {
        None
    };
    let addr = match (&args.addr, &local) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        (None, None) => unreachable!(),
    };
    eprintln!(
        "loadgen: {} session(s) × {} samples → {}",
        args.sessions, args.samples, addr
    );

    let wall = Instant::now();
    let results = run_all_sessions(&addr, &args);
    write_report(
        &args,
        local.is_some(),
        wall.elapsed().as_secs_f64(),
        results,
    );

    maybe_shutdown(&args, &addr);
    if let Some(s) = local {
        s.shutdown();
    }
}

fn maybe_shutdown(args: &Args, addr: &str) {
    if args.shutdown {
        let mut admin = ServeClient::connect(addr).expect("connect for shutdown");
        admin
            .send_control(&ClientControl::Shutdown)
            .expect("send shutdown");
        let _ = admin.recv(); // Bye
        admin.close();
        eprintln!("loadgen: sent Shutdown");
    }
}
