//! `fuzzyphased` — the streaming analysis daemon.
//!
//! ```text
//! fuzzyphased [--addr HOST:PORT | --port N] [--max-sessions N]
//!             [--queue-cap N] [--refit-workers N] [--fold-workers N]
//!             [--refit-every N] [--idle-timeout-ms N] [--stdin-control]
//!             [--spool-dir DIR] [--fsync-every N] [--segment-bytes N]
//! ```
//!
//! Prints `fuzzyphased listening on ADDR` once bound (scripts parse
//! this to discover an ephemeral port), then serves until a client
//! sends the `Shutdown` control request — or, with `--stdin-control`,
//! until `shutdown` (or EOF) arrives on stdin. Either path drains
//! in-flight sessions before exiting.
//!
//! With `--spool-dir` the daemon becomes durable: every accepted frame
//! is written ahead to a per-session spool under that directory, on
//! startup spools are replayed to rebuild interrupted sessions, and
//! clients holding a resume token can reconnect and retransmit only the
//! frames after the durable high-water mark (see DESIGN.md §D10).
//!
//! Every session shares one fit pool sized by `--refit-workers`; the
//! `SuiteReport` request merges every finished session into one
//! deterministic cross-session analysis.

use fuzzyphase_serve::{Server, ServerConfig, SpoolConfig};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: fuzzyphased [--addr HOST:PORT | --port N] [--max-sessions N] \
         [--queue-cap N] [--refit-workers N] [--fold-workers N] \
         [--refit-every N] [--idle-timeout-ms N] [--stdin-control] \
         [--spool-dir DIR] [--fsync-every N] [--segment-bytes N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        eprintln!("fuzzyphased: {flag} needs a value");
        usage();
    };
    match v.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("fuzzyphased: bad value '{v}' for {flag}");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut stdin_control = false;
    let mut fsync_every: Option<u32> = None;
    let mut segment_bytes: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                cfg.addr = parse_num::<String>("--addr", args.next());
            }
            "--port" => {
                let port: u16 = parse_num("--port", args.next());
                cfg.addr = format!("127.0.0.1:{port}");
            }
            "--max-sessions" => cfg.max_sessions = parse_num("--max-sessions", args.next()),
            "--queue-cap" => cfg.queue_cap = parse_num("--queue-cap", args.next()),
            "--refit-workers" => cfg.workers.suite = parse_num("--refit-workers", args.next()),
            "--fold-workers" => cfg.workers.fold = parse_num("--fold-workers", args.next()),
            "--refit-every" => {
                let n: usize = parse_num("--refit-every", args.next());
                cfg.request = cfg.request.with_refit_every(n);
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms = parse_num("--idle-timeout-ms", args.next())
            }
            "--stdin-control" => stdin_control = true,
            "--spool-dir" => {
                let dir = parse_num::<String>("--spool-dir", args.next());
                cfg.spool = Some(SpoolConfig::new(std::path::PathBuf::from(dir)));
            }
            "--fsync-every" => fsync_every = Some(parse_num("--fsync-every", args.next())),
            "--segment-bytes" => segment_bytes = Some(parse_num("--segment-bytes", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fuzzyphased: unknown flag '{other}'");
                usage();
            }
        }
    }
    match (&mut cfg.spool, fsync_every, segment_bytes) {
        (None, None, None) => {}
        (None, _, _) => {
            eprintln!("fuzzyphased: --fsync-every/--segment-bytes need --spool-dir");
            usage();
        }
        (Some(spool), fsync, seg) => {
            if let Some(n) = fsync {
                spool.fsync_every = n;
            }
            if let Some(n) = seg {
                spool.segment_bytes = n.max(1);
            }
        }
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fuzzyphased: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts parse this line to find an ephemeral port; keep it stable.
    println!("fuzzyphased listening on {}", server.local_addr());

    let stdin_stop = Arc::new(AtomicBool::new(false));
    if stdin_control {
        let stop = Arc::clone(&stdin_stop);
        let _ = std::thread::Builder::new()
            .name("fuzzyphased-stdin".into())
            .spawn(move || {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines() {
                    match line {
                        Ok(l) if l.trim() == "shutdown" => break,
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
                stop.store(true, Ordering::SeqCst);
            });
    }

    while !server.shutdown_requested() && !stdin_stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!(
        "fuzzyphased: shutdown requested; draining {} session(s)",
        server.active_sessions()
    );
    server.shutdown();
    eprintln!("fuzzyphased: bye");
    ExitCode::SUCCESS
}
