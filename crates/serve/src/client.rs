//! A blocking client for `fuzzyphased`, honoring backpressure.
//!
//! The client splits the socket: the calling thread writes frames, a
//! background thread reads JSON lines and forwards every [`ServerMsg`]
//! through an in-process channel. `Pause`/`Resume` are additionally
//! latched into a flag the send path checks, so a cooperative sender
//! stalls exactly while the server asked it to. Tests, the
//! `serve_client` example and the `loadgen` bench all drive the daemon
//! through this type.
//!
//! Two messages never reach [`recv`](ServeClient::recv): the server's
//! `Welcome` greeting is latched so [`hello`](ServeClient::hello) can
//! negotiate a protocol version without changing what callers observe,
//! and unknown lines from a newer-minor-version server are counted and
//! skipped ([`unknown_seen`](ServeClient::unknown_seen)) rather than
//! killing the reader.
//!
//! Reconnecting after a crash or disconnect is
//! [`hello_resume`](ServeClient::hello_resume): present the token the
//! original `Hello` reply carried, learn the durable frame high-water
//! mark, retransmit everything after it.

use crate::framing::{write_frame, FRAME_CONTROL, FRAME_SAMPLES};
use crate::protocol::{
    encode_control, negotiate, read_msg_lenient, ClientControl, ServerMsg, SUPPORTED_PROTOCOLS,
};
use crossbeam::channel::{unbounded, Receiver};
use fuzzyphase_profiler::trace::write_samples_v2;
use fuzzyphase_profiler::Sample;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The latched `Welcome` greeting: the version list the server
/// advertises, filled in by the reader thread.
#[derive(Default)]
struct WelcomeLatch {
    versions: Mutex<Option<Vec<u32>>>,
    arrived: Condvar,
}

/// A connected client. One per session/connection.
pub struct ServeClient {
    stream: TcpStream,
    rx: Receiver<ServerMsg>,
    paused: Arc<AtomicBool>,
    pauses_seen: Arc<AtomicU64>,
    unknown_seen: Arc<AtomicU64>,
    welcome: Arc<WelcomeLatch>,
    resume_token: Option<String>,
    last_seq: u64,
    protocol: Option<u32>,
    reader: Option<JoinHandle<()>>,
}

impl ServeClient {
    /// Connects and starts the reply-reader thread.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Every frame leaves in one write; Nagle could only hold it.
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, rx) = unbounded();
        let paused = Arc::new(AtomicBool::new(false));
        let pauses_seen = Arc::new(AtomicU64::new(0));
        let unknown_seen = Arc::new(AtomicU64::new(0));
        let welcome = Arc::new(WelcomeLatch::default());
        let reader = {
            let paused = Arc::clone(&paused);
            let pauses_seen = Arc::clone(&pauses_seen);
            let unknown_seen = Arc::clone(&unknown_seen);
            let welcome = Arc::clone(&welcome);
            std::thread::Builder::new()
                .name("serve-client-reader".into())
                .spawn(move || {
                    let mut r = BufReader::new(read_half);
                    loop {
                        match read_msg_lenient(&mut r) {
                            Ok(Some(Some(msg))) => {
                                match &msg {
                                    ServerMsg::Welcome { versions } => {
                                        // Latched, never forwarded: the
                                        // greeting is connection plumbing,
                                        // not session traffic.
                                        // Notify *while holding* the lock:
                                        // notifying after releasing it can
                                        // race a waiter between its predicate
                                        // check and its sleep (lost wakeup).
                                        if let Ok(mut slot) = welcome.versions.lock() {
                                            *slot = Some(versions.clone());
                                            welcome.arrived.notify_all();
                                        }
                                        continue;
                                    }
                                    ServerMsg::Pause => {
                                        pauses_seen.fetch_add(1, Ordering::SeqCst);
                                        paused.store(true, Ordering::SeqCst);
                                    }
                                    ServerMsg::Resume => paused.store(false, Ordering::SeqCst),
                                    _ => {}
                                }
                                if tx.send(msg).is_err() {
                                    break;
                                }
                            }
                            // A line from a newer server minor version:
                            // count it, keep reading.
                            Ok(Some(None)) => {
                                unknown_seen.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(None) | Err(_) => break,
                        }
                    }
                    // The connection is gone: nothing can lift a pause
                    // any more, so lift it here — a sender stalled in
                    // `send_samples` must hit the write error, not
                    // sleep on a latch nobody owns.
                    paused.store(false, Ordering::SeqCst);
                })?
        };
        Ok(Self {
            stream,
            rx,
            paused,
            pauses_seen,
            unknown_seen,
            welcome,
            resume_token: None,
            last_seq: 0,
            protocol: None,
            reader: Some(reader),
        })
    }

    /// Sends a control request.
    pub fn send_control(&mut self, ctl: &ClientControl) -> io::Result<()> {
        let payload = encode_control(ctl)?;
        write_frame(&mut self.stream, FRAME_CONTROL, &payload)
    }

    /// Waits (bounded) for the server's `Welcome` greeting. `None`
    /// means no greeting arrived — a v1 server, which never sends one.
    fn await_welcome(&self, timeout: Duration) -> Option<Vec<u32>> {
        let Ok(mut versions) = self.welcome.versions.lock() else {
            return None;
        };
        // Condvar waits wake spuriously: loop on the predicate, and let
        // the wait's own timeout verdict bound the retries.
        while versions.is_none() {
            let (guard, res) = self.welcome.arrived.wait_timeout(versions, timeout).ok()?;
            versions = guard;
            if res.timed_out() {
                break;
            }
        }
        versions.clone()
    }

    fn hello_inner(
        &mut self,
        name: &str,
        spv: usize,
        refit_every: usize,
        resume: Option<String>,
    ) -> io::Result<ServerMsg> {
        // Negotiate: highest version both sides speak. No greeting in
        // time means a v1 server — send a version-free v1 Hello.
        let protocol = match self.await_welcome(Duration::from_millis(1000)) {
            Some(versions) => Some(negotiate(&versions, SUPPORTED_PROTOCOLS).ok_or_else(|| {
                io::Error::other(format!(
                    "no mutual protocol version: server speaks {versions:?}, client speaks {SUPPORTED_PROTOCOLS:?}"
                ))
            })?),
            None => None,
        };
        if resume.is_some() && protocol.map_or(true, |p| p < 2) {
            return Err(io::Error::other(
                "server does not speak protocol v2; sessions cannot be resumed",
            ));
        }
        self.send_control(&ClientControl::Hello {
            name: name.to_string(),
            spv,
            refit_every,
            protocol,
            resume,
        })?;
        match self.recv()? {
            msg @ ServerMsg::Hello { .. } => {
                if let ServerMsg::Hello {
                    protocol,
                    resume_token,
                    last_seq,
                    ..
                } = &msg
                {
                    self.protocol = Some(*protocol);
                    self.resume_token = resume_token.clone();
                    self.last_seq = *last_seq;
                }
                Ok(msg)
            }
            ServerMsg::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        }
    }

    /// Opens a session and waits for the server's `Hello`, skipping
    /// nothing — any other reply first is an error.
    pub fn hello(&mut self, name: &str, spv: usize, refit_every: usize) -> io::Result<ServerMsg> {
        self.hello_inner(name, spv, refit_every, None)
    }

    /// Resumes a spooled session by token. Returns the server's durable
    /// frame high-water mark: every frame numbered above it must be
    /// retransmitted (frames are numbered in send order starting at 1),
    /// everything at or below it is already applied server-side.
    pub fn hello_resume(
        &mut self,
        name: &str,
        spv: usize,
        refit_every: usize,
        token: &str,
    ) -> io::Result<u64> {
        self.hello_inner(name, spv, refit_every, Some(token.to_string()))?;
        Ok(self.last_seq)
    }

    /// The resume token the server issued in `Hello` (None before
    /// `hello`, or when the server has no spool).
    pub fn resume_token(&self) -> Option<&str> {
        self.resume_token.as_deref()
    }

    /// The durable frame high-water mark the last `Hello` reported.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The protocol version the last `Hello` settled on.
    pub fn protocol(&self) -> Option<u32> {
        self.protocol
    }

    /// Encodes one batch as a v2 trace frame and sends it, stalling
    /// first while the server has us paused.
    pub fn send_samples(&mut self, batch: &[Sample]) -> io::Result<()> {
        while self.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = write_samples_v2(batch);
        write_frame(&mut self.stream, FRAME_SAMPLES, &payload)
    }

    /// Streams a whole trace in `batch`-sample frames (the trailing
    /// partial batch included). Returns the number of frames sent.
    pub fn stream_trace(&mut self, samples: &[Sample], batch: usize) -> io::Result<usize> {
        let mut frames = 0;
        for chunk in samples.chunks(batch.max(1)) {
            self.send_samples(chunk)?;
            frames += 1;
        }
        Ok(frames)
    }

    /// Declares end-of-trace.
    pub fn finish(&mut self) -> io::Result<()> {
        self.send_control(&ClientControl::Finish)
    }

    /// Blocks for the next server message; `UnexpectedEof` when the
    /// server closed.
    pub fn recv(&mut self) -> io::Result<ServerMsg> {
        self.rx.recv().map_err(|_| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Returns the next server message if one has already arrived,
    /// without blocking.
    pub fn try_recv(&mut self) -> Option<ServerMsg> {
        self.rx.try_recv().ok()
    }

    /// Receives until the predicate matches, collecting everything seen
    /// (matching message last). `UnexpectedEof` if the server closes
    /// first.
    pub fn recv_until<F: FnMut(&ServerMsg) -> bool>(
        &mut self,
        mut pred: F,
    ) -> io::Result<Vec<ServerMsg>> {
        let mut seen = Vec::new();
        loop {
            let msg = self.recv()?;
            let hit = pred(&msg);
            seen.push(msg);
            if hit {
                return Ok(seen);
            }
        }
    }

    /// Receives until the final `Report` (collecting Progress/Refit
    /// lines along the way); errors if the server sends `Error` or
    /// closes first.
    pub fn wait_report(&mut self) -> io::Result<(ServerMsg, Vec<ServerMsg>)> {
        let mut seen = Vec::new();
        loop {
            match self.recv()? {
                msg @ ServerMsg::Report { .. } => return Ok((msg, seen)),
                ServerMsg::Error { message } => return Err(io::Error::other(message)),
                other => seen.push(other),
            }
        }
    }

    /// Requests the cross-shard suite report: the merged analysis over
    /// every session the daemon has finished so far. Blocks for the
    /// reply; the server's refusal (e.g. no finished sessions yet)
    /// comes back as an error.
    pub fn suite_report(&mut self) -> io::Result<ServerMsg> {
        self.send_control(&ClientControl::SuiteReport)?;
        loop {
            match self.recv()? {
                msg @ ServerMsg::SuiteReport { .. } => return Ok(msg),
                ServerMsg::Error { message } => return Err(io::Error::other(message)),
                // Progress/Refit lines from an in-flight session on the
                // same connection may interleave; skip them.
                _ => continue,
            }
        }
    }

    /// Requests a differential analysis between two sessions: each side
    /// is a v2 resume token or a path to an archived spool session
    /// directory on the daemon's host. Blocks for the
    /// [`fuzzyphase_diff::DiffReport`]; the server's refusal (unknown
    /// token, unreadable spool, empty side) comes back as an error.
    pub fn diff(&mut self, a: &str, b: &str) -> io::Result<fuzzyphase_diff::DiffReport> {
        self.send_control(&ClientControl::Diff {
            a: a.to_string(),
            b: b.to_string(),
        })?;
        loop {
            match self.recv()? {
                ServerMsg::Diff { report } => return Ok(report),
                ServerMsg::Error { message } => return Err(io::Error::other(message)),
                // Progress/Refit lines from an in-flight session on the
                // same connection may interleave; skip them.
                _ => continue,
            }
        }
    }

    /// How many `Pause` lines the server has sent this connection.
    pub fn pauses_seen(&self) -> u64 {
        self.pauses_seen.load(Ordering::SeqCst)
    }

    /// How many unknown (newer-version) server lines were skipped.
    pub fn unknown_seen(&self) -> u64 {
        self.unknown_seen.load(Ordering::SeqCst)
    }

    /// Whether the server currently has us paused.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Closes the write side and joins the reader thread (draining any
    /// remaining replies is still possible via `recv` before calling).
    pub fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
