//! Crash-recovery integration tests: kill the daemon mid-stream,
//! restart it on the same spool directory, resume the session, and
//! check the final report is bit-identical to an offline analysis of
//! the full trace. Plus the torn-write case: a truncated final spool
//! record must be ignored cleanly, not panic or corrupt state.

use fuzzyphase_profiler::trace::write_samples_v2;
use fuzzyphase_profiler::{EipvData, Sample};
use fuzzyphase_serve::{
    ServeClient, Server, ServerConfig, ServerMsg, SessionMeta, SessionSpool, SpoolConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

mod support;
use support::{offline_suite, session_trace};

fn trace(n: u64) -> Vec<Sample> {
    (0..n)
        .map(|i| Sample {
            eip: 0x4000 + (i % 23) * 0x10,
            thread: (i % 3) as u32,
            is_os: false,
            cpi: 0.8 + (i % 11) as f64 * 0.071,
        })
        .collect()
}

fn test_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fuzzyphase-recovery-it-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(spool_dir: &Path, fsync_every: u32) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.request.analysis_mut().cv.folds = 5;
    cfg.request.analysis_mut().cv.k_max = 8;
    cfg.spool = Some(SpoolConfig {
        dir: spool_dir.to_path_buf(),
        segment_bytes: 4 << 20,
        fsync_every,
    });
    cfg
}

/// Offline analysis of the full trace — the ground truth every
/// recovered session must reproduce exactly.
fn offline_fit(samples: &[Sample], spv: usize, cfg: &ServerConfig) -> fuzzyphase_serve::FitOutcome {
    let data = EipvData::from_samples(samples, spv);
    let scfg = fuzzyphase_serve::SessionConfig {
        spv,
        refit_every: 0,
        analysis: *cfg.request.analysis(),
        thresholds: *cfg.request.thresholds(),
    };
    fuzzyphase_serve::session::run_fit(&data.vectors, &data.cpis, &scfg)
}

/// Streams `frames` frames of `batch` samples each and waits for the
/// Progress ack of the last one, so every frame is durably spooled
/// (fsync_every=1) *and* acknowledged before the caller kills the
/// daemon.
fn stream_and_ack(client: &mut ServeClient, samples: &[Sample], batch: usize) -> u64 {
    let sent = client.stream_trace(samples, batch).expect("stream") as u64;
    let want = samples.len() as u64;
    client
        .recv_until(|m| matches!(m, ServerMsg::Progress { samples, .. } if *samples >= want))
        .expect("progress ack");
    sent
}

#[test]
fn kill_and_restart_resumes_bit_identically() {
    let spool_dir = test_spool("kill-restart");
    let full = trace(1_000); // spv=20 → 50 vectors
    let spv = 20;
    let batch = 40; // 25 frames; crash after 10
    let crash_after_frames = 10usize;
    let crash_samples = crash_after_frames * batch;

    // Phase 1: stream the first part, then crash the daemon with no
    // drain and no goodbye.
    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("crashy", spv, 0).expect("hello");
    let token = client
        .resume_token()
        .expect("spooled session has a token")
        .to_string();
    assert_eq!(client.last_seq(), 0);
    stream_and_ack(&mut client, &full[..crash_samples], batch);
    server.abort();
    drop(client);

    // Phase 2: a fresh daemon on the same spool directory recovers the
    // session; the client resumes and learns the high-water mark.
    let server = Server::start(cfg.clone()).expect("restart");
    assert_eq!(server.stats().sessions_recovered, 1);
    assert_eq!(
        server.stats().frames_replayed,
        crash_after_frames as u64,
        "every acked frame must be durable"
    );
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    let last_seq = client
        .hello_resume("crashy", spv, 0, &token)
        .expect("resume");
    assert_eq!(last_seq, crash_after_frames as u64);

    // Retransmit the gap: frames 1..=last_seq covered last_seq*batch
    // samples; everything after is outstanding.
    let covered = last_seq as usize * batch;
    client.stream_trace(&full[covered..], batch).expect("rest");
    client.finish().expect("finish");
    let (report, _) = client.wait_report().expect("report");
    client.close();
    server.shutdown();

    // The recovered run must equal the offline analysis of the full
    // trace, bit for bit.
    let expect = offline_fit(&full, spv, &cfg);
    let ServerMsg::Report {
        report,
        quadrant,
        samples,
        vectors,
        ..
    } = report
    else {
        panic!("expected Report");
    };
    assert_eq!(samples, full.len() as u64);
    assert_eq!(vectors, (full.len() / spv) as u64);
    assert_eq!(quadrant, expect.quadrant);
    assert_eq!(report, expect.report);
    for (a, b) in report.re_curve.iter().zip(&expect.report.re_curve) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        report.cpi_variance.to_bits(),
        expect.report.cpi_variance.to_bits()
    );

    // The completed session cleaned up its spool directory.
    let leftover: Vec<_> = std::fs::read_dir(&spool_dir)
        .map(|d| d.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert!(
        leftover.is_empty(),
        "spool should be deleted after Report: {leftover:?}"
    );
    let _ = std::fs::remove_dir_all(&spool_dir);
}

/// Kill-and-recover for the *incremental refit* path (DESIGN.md D15):
/// after a crash and resume, the daemon's first refit rebuilds its
/// `FitState` from the replayed spool — so every post-resume
/// `RefitDelta` must carry exactly the training RE a scratch
/// `Fitter::full` produces on the prefix it names, bit for bit. A
/// drifted rebuild (lost rows, reordered entries) would move the RE
/// bits even when the final report happens to agree.
#[test]
fn refits_after_kill_and_recover_match_scratch_fits() {
    let spool_dir = test_spool("refit-recover");
    let full = trace(1_000);
    let spv = 20; // 50 vectors
    let batch = 40;

    let cfg = server_config(&spool_dir, 1);
    let analysis = *cfg.request.analysis();
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    // Cadenced session: refit every 4 vectors.
    client.hello("refitty", spv, 4).expect("hello");
    let token = client.resume_token().expect("token").to_string();
    stream_and_ack(&mut client, &full[..400], batch); // 10 frames
    server.abort();
    drop(client);

    let server = Server::start(cfg.clone()).expect("restart");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    let last_seq = client
        .hello_resume("refitty", spv, 4, &token)
        .expect("resume");
    let covered = last_seq as usize * batch;
    client.stream_trace(&full[covered..], batch).expect("rest");
    client.finish().expect("finish");
    let (report, interim) = client.wait_report().expect("report");
    client.close();
    server.shutdown();
    assert!(matches!(report, ServerMsg::Report { .. }));

    // Every post-resume RefitDelta names its prefix; scratch-fit it.
    let fitter = fuzzyphase_regtree::Fitter::new()
        .max_leaves(analysis.cv.k_max)
        .min_leaf(analysis.cv.min_leaf);
    let mut deltas = 0;
    for msg in &interim {
        let ServerMsg::RefitDelta {
            vectors,
            delta_vectors,
            re_to,
            ..
        } = msg
        else {
            continue;
        };
        deltas += 1;
        assert!(*delta_vectors > 0);
        let prefix = EipvData::from_samples(&full[..*vectors as usize * spv], spv);
        let ds = fuzzyphase_regtree::Dataset::new(prefix.vectors, prefix.cpis);
        assert_eq!(
            re_to.to_bits(),
            fitter.full(&ds).training_re().to_bits(),
            "post-resume refit must rebuild the exact {vectors}-vector state"
        );
    }
    assert!(deltas >= 1, "no post-resume refits observed: {interim:?}");
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn duplicate_retransmits_after_resume_are_skipped() {
    let spool_dir = test_spool("dup-retransmit");
    let full = trace(600);
    let spv = 20;
    let batch = 50; // 12 frames

    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("dup", spv, 0).expect("hello");
    let token = client.resume_token().expect("token").to_string();
    stream_and_ack(&mut client, &full[..300], batch);
    server.abort();
    drop(client);

    let server = Server::start(cfg.clone()).expect("restart");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    let last_seq = client.hello_resume("dup", spv, 0, &token).expect("resume");
    assert_eq!(last_seq, 6);
    // A paranoid client retransmits from frame 1: the engine ingests
    // the duplicates (it trusts the reader), but a *second* recovery
    // replaying the spool skips them via the sequence filter — so the
    // durable state stays exact. Here we retransmit only the gap, then
    // crash again mid-way and check the replayed count.
    client.stream_trace(&full[300..500], batch).expect("more");
    let want = 500u64;
    client
        .recv_until(|m| matches!(m, ServerMsg::Progress { samples, .. } if *samples >= want))
        .expect("ack");
    server.abort();
    drop(client);

    // Third daemon: replay sees 10 distinct frames, 500 samples.
    let server = Server::start(cfg.clone()).expect("restart2");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect2");
    let last_seq = client.hello_resume("dup", spv, 0, &token).expect("resume2");
    assert_eq!(last_seq, 10);
    client.stream_trace(&full[500..], batch).expect("rest");
    client.finish().expect("finish");
    let (report, _) = client.wait_report().expect("report");
    client.close();
    server.shutdown();

    let expect = offline_fit(&full, spv, &cfg);
    let ServerMsg::Report {
        report, samples, ..
    } = report
    else {
        panic!("expected Report");
    };
    assert_eq!(samples, full.len() as u64);
    assert_eq!(report, expect.report);
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn torn_final_record_recovers_to_last_valid_frame() {
    let spool_dir = test_spool("torn");
    let full = trace(400);
    let spv = 20;
    let batch = 40; // 10 frames

    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("torn", spv, 0).expect("hello");
    let token = client.resume_token().expect("token").to_string();
    stream_and_ack(&mut client, &full[..240], batch); // 6 frames
    server.abort();
    drop(client);

    // Simulate a torn write: chop bytes off the tail of the active
    // segment, cutting into the last record.
    let seg = spool_dir.join(&token).join("seg-000000.fzsp");
    let len = std::fs::metadata(&seg).expect("segment").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open");
    f.set_len(len - 7).expect("truncate");
    drop(f);

    // Restart: replay must stop at the last valid CRC — frame 6 is
    // gone, frames 1..=5 survive — without panicking.
    let server = Server::start(cfg.clone()).expect("restart");
    let stats = server.stats();
    assert_eq!(stats.sessions_recovered, 1);
    assert_eq!(stats.torn_records, 1);
    assert_eq!(stats.frames_replayed, 5);
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    let last_seq = client.hello_resume("torn", spv, 0, &token).expect("resume");
    assert_eq!(last_seq, 5, "replay stops at the last valid record");

    // The session is still fully usable: retransmit from frame 6 and
    // finish; the result matches offline exactly.
    let covered = last_seq as usize * batch;
    client.stream_trace(&full[covered..], batch).expect("rest");
    client.finish().expect("finish");
    let (report, _) = client.wait_report().expect("report");
    client.close();
    server.shutdown();

    let expect = offline_fit(&full, spv, &cfg);
    let ServerMsg::Report {
        report, samples, ..
    } = report
    else {
        panic!("expected Report");
    };
    assert_eq!(samples, full.len() as u64);
    assert_eq!(report, expect.report);
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn resume_guards_reject_bad_tokens_and_double_resume() {
    let spool_dir = test_spool("guards");
    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();

    // Unknown token.
    let mut c = ServeClient::connect(&addr).expect("connect");
    let err = c
        .hello_resume("ghost", 20, 0, "sess-00424242")
        .expect_err("unknown token");
    assert!(err.to_string().contains("cannot resume"), "{err}");
    drop(c);

    // Live session's token cannot be resumed by a second connection.
    let mut a = ServeClient::connect(&addr).expect("connect");
    a.hello("owner", 20, 0).expect("hello");
    let token = a.resume_token().expect("token").to_string();
    a.stream_trace(&trace(100), 50).expect("stream");
    let mut b = ServeClient::connect(&addr).expect("connect2");
    let err = b
        .hello_resume("thief", 20, 0, &token)
        .expect_err("already connected");
    assert!(err.to_string().contains("already connected"), "{err}");
    drop(b);

    // Tokens that are not the daemon's own `sess-<digits>` shape are
    // refused before they can name a path: a relative escape, an
    // absolute path (which `Path::join` would let replace the root) and
    // the empty string. The spool root is exactly as it was.
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&spool_dir)
            .expect("spool root")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    for bad in ["../x/sess-00000001", "/tmp/fz-abs", ""] {
        let mut c = ServeClient::connect(&addr).expect("connect bad");
        let err = c
            .hello_resume("bad", 20, 0, bad)
            .expect_err("malformed token");
        assert!(
            err.to_string().contains("invalid resume token"),
            "{bad:?}: {err}"
        );
        drop(c);
    }
    assert_eq!(listing(), before);

    // Mismatched spv is refused but leaves the session resumable. The
    // token is released a beat after the session leaves the map, so
    // retry past "already connected" until teardown finishes.
    a.close();
    let mut tries = 0;
    loop {
        let mut c = ServeClient::connect(&addr).expect("connect3");
        let err = c
            .hello_resume("wrongspv", 99, 0, &token)
            .expect_err("spv mismatch");
        drop(c);
        if err.to_string().contains("already connected") && tries < 500 {
            tries += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            continue;
        }
        assert!(err.to_string().contains("does not match"), "{err}");
        break;
    }
    let mut d = ServeClient::connect(&addr).expect("connect4");
    let last_seq = d
        .hello_resume("rightful", 20, 0, &token)
        .expect("resume after refused attempts");
    assert_eq!(last_seq, 2);
    drop(d);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn sessions_without_spool_have_no_tokens_and_no_resume() {
    let mut cfg = ServerConfig::default();
    cfg.request.analysis_mut().cv.folds = 5;
    cfg.request.analysis_mut().cv.k_max = 8;
    assert!(cfg.spool.is_none());
    let server = Server::start(cfg).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("plain", 20, 0).expect("hello");
    assert_eq!(client.resume_token(), None);
    drop(client);

    let mut client = ServeClient::connect(&addr).expect("connect2");
    let err = client
        .hello_resume("plain", 20, 0, "sess-00000001")
        .expect_err("no spool");
    assert!(err.to_string().contains("no spool"), "{err}");
    drop(client);
    server.shutdown();
}

/// Three sessions spooled part-way, then a whole-daemon kill: after a
/// restart every session resumes by token, each `Report` equals its
/// own offline fit, and the `SuiteReport` over the resumed sessions
/// equals the offline merge of the full traces.
#[test]
fn killed_sessions_resume_and_match_the_offline_suite() {
    let spool_dir = test_spool("kill-suite");
    let spv = 20;
    let batch = 40;
    let traces: Vec<Vec<Sample>> = (0..3).map(|s| session_trace(s, 600)).collect();
    let crash_frames = 7usize; // 280 of 600 samples durable per session

    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut tokens = Vec::new();
    let mut clients = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let mut client = ServeClient::connect(&addr).expect("connect");
        client.hello(&format!("crashy-{i}"), spv, 0).expect("hello");
        tokens.push(client.resume_token().expect("token").to_string());
        stream_and_ack(&mut client, &t[..crash_frames * batch], batch);
        clients.push(client);
    }
    server.abort();
    drop(clients);

    let server = Server::start(cfg.clone()).expect("restart");
    assert_eq!(server.stats().sessions_recovered, 3);
    assert_eq!(server.stats().recovery_failed, 0);
    assert_eq!(
        server.stats().frames_replayed,
        (3 * crash_frames) as u64,
        "every acked frame must be durable"
    );
    let addr = server.local_addr().to_string();
    for (i, t) in traces.iter().enumerate() {
        let mut client = ServeClient::connect(&addr).expect("reconnect");
        let last_seq = client
            .hello_resume(&format!("crashy-{i}"), spv, 0, &tokens[i])
            .expect("resume");
        assert_eq!(last_seq, crash_frames as u64);
        let covered = last_seq as usize * batch;
        client.stream_trace(&t[covered..], batch).expect("rest");
        client.finish().expect("finish");
        let (report, _) = client.wait_report().expect("report");
        client.close();
        let expect = offline_fit(t, spv, &cfg);
        let ServerMsg::Report {
            report, samples, ..
        } = report
        else {
            panic!("expected Report");
        };
        assert_eq!(samples, t.len() as u64);
        assert_eq!(report, expect.report);
    }

    // Tokens were issued by the first daemon as sess-00000001..,
    // matching the offline partials' keys.
    let mut client = ServeClient::connect(&addr).expect("connect suite");
    let suite = client.suite_report().expect("suite report");
    client.close();
    server.shutdown();
    let offline = offline_suite(&cfg, &traces, spv);
    let ServerMsg::SuiteReport {
        report,
        quadrant,
        sessions,
        samples,
        ..
    } = suite
    else {
        panic!("expected SuiteReport");
    };
    assert_eq!(sessions, 3);
    assert_eq!(samples, traces.iter().map(|t| t.len() as u64).sum::<u64>());
    assert_eq!(quadrant, offline.quadrant);
    assert_eq!(report, offline.report);
    for (a, b) in report.re_curve.iter().zip(&offline.report.re_curve) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let _ = std::fs::remove_dir_all(&spool_dir);
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn file_contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    out
}

/// A spool root holding one session directory plus a subdirectory that
/// itself holds a session spool one level down (what an older nested
/// spool layout leaves behind): the flat session recovers and resumes,
/// the nested directory counts as `recovery_failed` and every file in
/// it is left byte-identical.
#[test]
fn unrecoverable_directories_are_counted_and_left_untouched() {
    let spool_dir = test_spool("nested");
    let full = trace(400);
    let spv = 20;
    let batch = 40;

    let cfg = server_config(&spool_dir, 1);
    let server = Server::start(cfg.clone()).expect("start");
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");
    client.hello("flat", spv, 0).expect("hello");
    let token = client.resume_token().expect("token").to_string();
    stream_and_ack(&mut client, &full[..200], batch);
    server.abort();
    drop(client);

    let nested = spool_dir.join("legacy-001");
    let meta = SessionMeta {
        token: "sess-00000005".to_string(),
        name: "nested".to_string(),
        spv,
        refit_every: 0,
        protocol: 2,
    };
    let mut spool = SessionSpool::create(&SpoolConfig::new(nested.clone()), meta).expect("create");
    for chunk in full.chunks(batch).take(3) {
        spool
            .append_frame(&write_samples_v2(chunk))
            .expect("append");
    }
    spool.sync().expect("sync");
    drop(spool);
    let nested_before = file_contents(&nested);
    assert!(!nested_before.is_empty());

    let server = Server::start(cfg.clone()).expect("restart");
    let stats = server.stats();
    assert_eq!(stats.sessions_recovered, 1);
    assert_eq!(stats.recovery_failed, 1);
    let addr = server.local_addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("reconnect");
    let last_seq = client.hello_resume("flat", spv, 0, &token).expect("resume");
    assert_eq!(last_seq, 5);
    let covered = last_seq as usize * batch;
    client.stream_trace(&full[covered..], batch).expect("rest");
    client.finish().expect("finish");
    let (report, _) = client.wait_report().expect("report");
    client.close();
    server.shutdown();

    let expect = offline_fit(&full, spv, &cfg);
    let ServerMsg::Report { report, .. } = report else {
        panic!("expected Report");
    };
    assert_eq!(report, expect.report);
    assert_eq!(file_contents(&nested), nested_before);
    let _ = std::fs::remove_dir_all(&spool_dir);
}
