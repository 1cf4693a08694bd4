//! The load generator: one connection per session, a writer that sends
//! sample frames on a schedule and a reader that timestamps every reply
//! the moment it arrives.
//!
//! It speaks the wire protocol through the daemon crate's own framing
//! and protocol functions on a default `TcpStream`. (`ServeClient` is
//! not used: its reader thread does not timestamp replies.) Every
//! latency is measured from the frame's *due* time, so a stalled send
//! delays the frames behind it and the delay is counted.

use fuzzyphase_serve::framing::{write_frame, FRAME_CONTROL, FRAME_SAMPLES};
use fuzzyphase_serve::protocol::{encode_control, read_msg_lenient, ClientControl, ServerMsg};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a reply may take before the session is declared dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Seconds since `clock`.
pub fn at(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64()
}

/// One client connection, past the daemon's `Welcome`.
pub struct Session {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// When each frame is due.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Open loop: frame `i` is due at `start + i * period` seconds on
    /// the session clock, whatever the daemon does.
    Every { start: f64, period: f64 },
    /// Saturation: each frame is due as soon as the previous one is
    /// written (the daemon's `Pause` is the only brake).
    BackToBack,
}

/// Where the reader stops.
#[derive(Debug, Clone, Copy)]
pub enum End {
    /// Send `Finish` after the last frame and read through the `Report`.
    Finish,
    /// Send no `Finish`; stop reading at the `Progress` that acks this
    /// many samples (the session stays resumable).
    AckOf(u64),
}

/// Everything one streamed phase recorded, times in seconds on the
/// session clock.
#[derive(Debug, Default)]
pub struct Streamed {
    /// Due time of each frame.
    pub due: Vec<f64>,
    /// How late each frame's write started, in ms.
    pub late_ms: Vec<f64>,
    /// Time spent inside `write_frame`, in ms.
    pub send_ms: f64,
    /// When `Finish` went out.
    pub finish_at: Option<f64>,
    /// Every reply with its arrival time.
    pub replies: Vec<(f64, ServerMsg)>,
    /// `Pause` messages honoured.
    pub pauses: u64,
    /// Why the phase ended early, if it did.
    pub error: Option<String>,
}

impl Streamed {
    /// `(arrival, samples)` of every `Progress`.
    pub fn progress(&self) -> Vec<(f64, u64)> {
        self.replies
            .iter()
            .filter_map(|(t, m)| match m {
                ServerMsg::Progress { samples, .. } => Some((*t, *samples)),
                _ => None,
            })
            .collect()
    }

    /// `(arrival, message)` of every `RefitDelta`.
    pub fn refits(&self) -> Vec<(f64, &ServerMsg)> {
        self.replies
            .iter()
            .filter(|(_, m)| matches!(m, ServerMsg::RefitDelta { .. }))
            .map(|(t, m)| (*t, m))
            .collect()
    }

    /// Arrival time and content of the final `Report`.
    pub fn report(&self) -> Option<(f64, &ServerMsg)> {
        self.replies
            .iter()
            .find(|(_, m)| matches!(m, ServerMsg::Report { .. }))
            .map(|(t, m)| (*t, m))
    }
}

fn protocol_error(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Session {
    /// Connects and consumes the `Welcome` greeting.
    pub fn connect(addr: &str) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut s = Session { stream, reader };
        match s.next_msg()? {
            ServerMsg::Welcome { .. } => Ok(s),
            other => Err(protocol_error(format!("expected Welcome, got {other:?}"))),
        }
    }

    fn next_msg(&mut self) -> io::Result<ServerMsg> {
        loop {
            match read_msg_lenient(&mut self.reader)? {
                Some(Some(msg)) => return Ok(msg),
                Some(None) => continue,
                None => return Err(io::ErrorKind::UnexpectedEof.into()),
            }
        }
    }

    /// Sends one control request.
    fn send(&mut self, ctl: &ClientControl) -> io::Result<()> {
        write_frame(&mut self.stream, FRAME_CONTROL, &encode_control(ctl)?)
    }

    /// Sends a control request and returns the first reply that is not
    /// backpressure.
    pub fn request(&mut self, ctl: &ClientControl) -> io::Result<ServerMsg> {
        self.send(ctl)?;
        loop {
            match self.next_msg()? {
                ServerMsg::Pause | ServerMsg::Resume => continue,
                msg => return Ok(msg),
            }
        }
    }

    /// Opens a protocol-v2 session (or resumes one by token) and
    /// returns `(resume token, durable high-water frame)`.
    pub fn hello(
        &mut self,
        name: &str,
        spv: usize,
        refit_every: usize,
        resume: Option<&str>,
    ) -> io::Result<(Option<String>, u64)> {
        let hello = ClientControl::Hello {
            name: name.to_string(),
            spv,
            refit_every,
            protocol: Some(2),
            resume: resume.map(str::to_string),
        };
        match self.request(&hello)? {
            ServerMsg::Hello {
                resume_token,
                last_seq,
                ..
            } => Ok((resume_token, last_seq)),
            other => Err(protocol_error(format!("expected Hello, got {other:?}"))),
        }
    }

    /// Streams `frames` on `schedule` (times relative to `clock`),
    /// reading replies on a second thread until `end`.
    pub fn stream(
        self,
        clock: Instant,
        frames: &[&[u8]],
        schedule: Schedule,
        end: End,
    ) -> Streamed {
        let Session {
            mut stream,
            mut reader,
        } = self;
        let paused = AtomicBool::new(false);
        let pauses = AtomicU64::new(0);
        let mut out = Streamed::default();
        std::thread::scope(|scope| {
            let read = scope.spawn(|| read_replies(&mut reader, clock, end, &paused, &pauses));
            let written =
                write_frames(&mut stream, clock, frames, schedule, end, &paused, &mut out);
            if let Err(e) = written {
                out.error = Some(format!("send: {e}"));
                // Unblock the reader: nothing more is coming.
                let _ = stream.shutdown(Shutdown::Both);
            }
            let (replies, error) = read.join().expect("reply reader panicked");
            out.replies = replies;
            if out.error.is_none() {
                out.error = error;
            }
        });
        out.pauses = pauses.load(Ordering::SeqCst);
        out
    }
}

fn write_frames(
    stream: &mut TcpStream,
    clock: Instant,
    frames: &[&[u8]],
    schedule: Schedule,
    end: End,
    paused: &AtomicBool,
    out: &mut Streamed,
) -> io::Result<()> {
    for (i, frame) in frames.iter().enumerate() {
        let due = match schedule {
            Schedule::Every { start, period } => {
                let due = start + i as f64 * period;
                let wait = due - at(clock);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                Some(due)
            }
            Schedule::BackToBack => None,
        };
        while paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let t = Instant::now();
        let start = at(clock);
        let due = due.unwrap_or(start);
        write_frame(stream, FRAME_SAMPLES, frame)?;
        out.send_ms += t.elapsed().as_secs_f64() * 1e3;
        out.due.push(due);
        out.late_ms.push((start - due) * 1e3);
    }
    if let End::Finish = end {
        write_frame(
            stream,
            FRAME_CONTROL,
            &encode_control(&ClientControl::Finish)?,
        )?;
        out.finish_at = Some(at(clock));
    }
    Ok(())
}

/// Reads replies until `end`, timestamping each on arrival and
/// relaying `Pause`/`Resume` to the writer. Returns the replies and the
/// reason reading stopped early, if it did.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    clock: Instant,
    end: End,
    paused: &AtomicBool,
    pauses: &AtomicU64,
) -> (Vec<(f64, ServerMsg)>, Option<String>) {
    let mut replies = Vec::new();
    loop {
        let msg = match read_msg_lenient(reader) {
            Ok(Some(Some(msg))) => msg,
            Ok(Some(None)) => continue,
            Ok(None) => return (replies, Some("daemon closed the connection".into())),
            Err(e) => return (replies, Some(format!("read: {e}"))),
        };
        let t = at(clock);
        match &msg {
            ServerMsg::Pause => {
                paused.store(true, Ordering::SeqCst);
                pauses.fetch_add(1, Ordering::SeqCst);
            }
            ServerMsg::Resume => paused.store(false, Ordering::SeqCst),
            _ => {}
        }
        let stop = match (&msg, end) {
            (ServerMsg::Error { message }, _) => {
                let message = message.clone();
                replies.push((t, msg));
                return (replies, Some(format!("daemon error: {message}")));
            }
            (ServerMsg::Report { .. } | ServerMsg::Bye, End::Finish) => true,
            (ServerMsg::Progress { samples, .. }, End::AckOf(n)) => *samples >= n,
            _ => false,
        };
        replies.push((t, msg));
        if stop {
            return (replies, None);
        }
    }
}

/// Ack latency of each frame in ms, from its due time: frame `i`, whose
/// samples end at cumulative count `ends[i]`, is acked by the first
/// `Progress` (in arrival order) that reaches `ends[i]`. `None` for a
/// frame no `Progress` acks.
pub fn ack_latencies(due: &[f64], ends: &[u64], progress: &[(f64, u64)]) -> Vec<Option<f64>> {
    let mut p = 0;
    due.iter()
        .zip(ends)
        .map(|(&d, &end)| {
            while p < progress.len() && progress[p].1 < end {
                p += 1;
            }
            progress.get(p).map(|&(t, _)| (t - d) * 1e3)
        })
        .collect()
}

/// One refit lag in ms per cadence tick. Tick `k` is vector
/// `k * every`; its clock starts at the due time of the frame that
/// completes that vector (the first whose cumulative samples reach
/// `k * every * spv`) and stops at the first `RefitDelta` (in arrival
/// order, as `(arrival, vectors)`) covering the vector, or else at the
/// `Report`. Coalesced ticks share the refit that finally covers them.
pub fn refit_lags(
    every: u64,
    spv: u64,
    due: &[f64],
    ends: &[u64],
    refits: &[(f64, u64)],
    report: Option<f64>,
) -> Vec<Option<f64>> {
    let total = ends.last().map_or(0, |&e| e / spv);
    let (mut f, mut r) = (0, 0);
    (1..=total / every)
        .map(|k| {
            let vector = k * every;
            while f < ends.len() && ends[f] < vector * spv {
                f += 1;
            }
            while r < refits.len() && refits[r].1 < vector {
                r += 1;
            }
            let covered = refits.get(r).map(|&(t, _)| t).or(report);
            covered.map(|t| (t - due[f]) * 1e3)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_through_a_stalled_send() {
        // Frames due every 1 ms. The write of frame 1 stalls for 10 ms,
        // so frames 1..3 leave late; each is still timed from its due
        // time, so the stall shows in every frame queued behind it.
        let due = [0.000, 0.001, 0.002, 0.003];
        let ends = [500, 1000, 1500, 2000];
        let progress = [
            (0.0005, 500),
            (0.0105, 1000),
            (0.0106, 1500),
            (0.0107, 2000),
        ];
        let got: Vec<f64> = ack_latencies(&due, &ends, &progress)
            .into_iter()
            .map(|l| (l.expect("acked") * 1e3).round() / 1e3)
            .collect();
        assert_eq!(got, vec![0.5, 9.5, 8.6, 7.7]);
    }

    #[test]
    fn one_progress_can_ack_several_frames_and_unacked_frames_are_missing() {
        let due = [0.0, 0.001, 0.002];
        let ends = [500, 1000, 1500];
        // One Progress covers the first two frames; the third is never acked.
        let got = ack_latencies(&due, &ends, &[(0.004, 1000)]);
        assert_eq!(got.len(), 3);
        assert!((got[0].expect("acked") - 4.0).abs() < 1e-9);
        assert!((got[1].expect("acked") - 3.0).abs() < 1e-9);
        assert_eq!(got[2], None);
    }

    #[test]
    fn refit_lag_covers_every_tick_including_coalesced_and_report_only_ones() {
        // spv 100, 500-sample frames (5 vectors each) due every second;
        // cadence every 5 vectors, so tick k is completed by frame k-1.
        let due: Vec<f64> = (0..6).map(f64::from).collect();
        let ends: Vec<u64> = (1..=6).map(|i| i * 500).collect();
        // Refit covering 5 vectors at t=0.5; one covering 20 (ticks 2..4,
        // coalesced) at t=3.5; no refit reaches ticks 5 and 6, which
        // only the Report at t=7 covers.
        let refits = [(0.5, 5), (3.5, 20)];
        let got: Vec<f64> = refit_lags(5, 100, &due, &ends, &refits, Some(7.0))
            .into_iter()
            .map(|l| l.expect("covered") / 1e3)
            .collect();
        assert_eq!(got, vec![0.5, 2.5, 1.5, 0.5, 3.0, 2.0]);
        // Without a Report the last two ticks are never covered.
        let open = refit_lags(5, 100, &due, &ends, &refits, None);
        assert_eq!(open.iter().filter(|l| l.is_none()).count(), 2);
    }
}
