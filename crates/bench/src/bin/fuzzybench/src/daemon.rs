//! The real `fuzzyphased`, run as a child process.

use crate::loadgen::Session;
use fuzzyphase_serve::protocol::{ClientControl, ServerMsg};
use fuzzyphase_serve::StatsSnapshot;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to exit once told to.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Kept open: the daemon's stdout must not break under it.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts `exe` with `args` and waits for its `listening on` line.
    pub fn start(exe: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", exe.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("fuzzyphased listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => return Err(io::Error::other(format!("daemon said {line:?}"))),
        }
        Ok(daemon)
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(self.child.id())
    }

    /// The daemon's counters.
    pub fn stats(&self) -> io::Result<StatsSnapshot> {
        match Session::connect(&self.addr)?.request(&ClientControl::Stats)? {
            ServerMsg::Stats(s) => Ok(s),
            other => Err(io::Error::other(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Polls until the process has exited and been reaped.
    fn reap(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not exit"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// The crash: SIGKILL, then reap.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.reap()
    }

    /// Orderly stop: `Shutdown`, then wait for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        Session::connect(&self.addr)?.request(&ClientControl::Shutdown)?;
        self.reap()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}
