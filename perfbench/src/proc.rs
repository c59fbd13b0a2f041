//! Process-level measurements and the daemon under test.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Peak resident set size (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system, all threads) process `pid` has used, seconds.
pub fn cpu_s(pid: &str) -> Option<f64> {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // SAFETY: sysconf only reads the constant it is asked for.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    (ticks > 0).then(|| (utime + stime) / ticks as f64)
}

/// A running `llm-pilot serve` daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    /// The address it serves on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `bin serve` on `data` with two workers, no file watcher and
    /// an explicit cache capacity, and wait until it reports that the
    /// initial model is trained and it is listening.
    pub fn start(bin: &Path, data: &Path, cache: usize) -> Result<Self, String> {
        // Reserve an ephemeral port, then hand it to the daemon.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--data")
            .arg(data)
            .args(["--addr", &addr.to_string(), "--workers", "2", "--watch-secs", "0"])
            .args(["--cache", &cache.to_string(), "--queue", "128"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Self { child, _stdout: stdout, addr };
        let mut line = String::new();
        daemon._stdout.read_line(&mut line).map_err(|e| format!("reading daemon output: {e}"))?;
        if !line.contains("serving") {
            let status = daemon.child.try_wait().ok().flatten();
            return Err(format!("daemon did not start (exit {status:?}, said {line:?})"));
        }
        Ok(daemon)
    }

    /// CPU time the daemon has used so far, seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        cpu_s(&self.child.id().to_string())
    }

    /// The daemon's peak resident set size so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
