//! The `igen-cli serve --socket` process and the closed-loop client
//! that drives it.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a client waits for one reply before counting it dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `igen-cli serve --socket` process. Dropping it kills and
/// reaps the process.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Spawns `bin serve --socket <socket> --workers N --cache-cap C`.
    ///
    /// # Errors
    ///
    /// If the process cannot be started.
    pub fn spawn(
        bin: &Path,
        socket: &Path,
        workers: usize,
        cache_cap: usize,
    ) -> io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg("--socket").arg(socket).arg("--workers").arg(workers.to_string());
        if cache_cap > 0 {
            cmd.arg("--cache-cap").arg(cache_cap.to_string());
        }
        let child =
            cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::inherit()).spawn()?;
        Ok(Server { child, socket: socket.to_path_buf() })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects once the socket accepts, polling until `timeout`.
    ///
    /// # Errors
    ///
    /// If the socket does not accept in time or the process exited.
    pub fn connect(&mut self, timeout: Duration) -> io::Result<Conn> {
        let until = Instant::now() + timeout;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Conn::new(s),
                Err(e) if Instant::now() >= until => return Err(e),
                Err(_) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("serve exited early: {status}")));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// If the process does not exit cleanly.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut c = self.connect(Duration::from_secs(10))?;
        c.call("{\"kind\":\"shutdown\"}")?;
        let until = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("serve exited with {status}")))
                };
            }
            if Instant::now() >= until {
                return Err(io::Error::other("serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// CPU time of the process's live threads so far, in ns, summed
    /// from `/proc/<pid>/task/*/schedstat` (ns resolution, unlike the
    /// 10 ms ticks of `/proc/<pid>/stat`). The server's threads live
    /// for the whole timed window, so differences are exact.
    ///
    /// # Errors
    ///
    /// If `/proc` cannot be read.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let Ok(stat) = std::fs::read_to_string(task?.path().join("schedstat")) else {
                continue; // the thread exited between listing and reading
            };
            total +=
                stat.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// If `/proc` cannot be read or lacks the field.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection speaking the JSON-lines protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Conn {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// If the stream cannot be cloned or configured.
    pub fn new(stream: UnixStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer, buf: String::new() })
    }

    /// Sends one request line and returns its reply (without the
    /// newline).
    ///
    /// # Errors
    ///
    /// On a write error, a read timeout, or a closed connection (the
    /// reply was dropped).
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 || !self.buf.ends_with('\n') {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "reply dropped"));
        }
        self.buf.pop();
        Ok(std::mem::take(&mut self.buf))
    }
}

/// The shared request order: pool indices handed to connections in
/// sequence order.
pub struct Feed<I> {
    seq: Mutex<I>,
    stop: AtomicBool,
    until: Instant,
}

impl<I: Iterator<Item = usize>> Feed<I> {
    /// A feed over `seq` that stops handing out requests at `until`.
    pub fn new(seq: I, until: Instant) -> Feed<I> {
        Feed { seq: Mutex::new(seq), stop: AtomicBool::new(false), until }
    }

    fn next(&self) -> Option<usize> {
        if self.stop.load(Ordering::Relaxed) || Instant::now() >= self.until {
            self.stop.store(true, Ordering::Relaxed);
            return None;
        }
        self.seq.lock().expect("feed lock poisoned").next()
    }
}

/// What one connection saw during the timed window.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Round-trip times in ns, one per answered request.
    pub latencies_ns: Vec<u64>,
    /// Completion instant of each answered request (parallel to
    /// `latencies_ns`).
    pub done: Vec<Instant>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was dropped or differed from the first
    /// reply to the same line.
    pub failed: u64,
    /// First reply to each pool line.
    pub memo: HashMap<usize, String>,
    /// Replies per pool line that matched `memo` (all of them fail if
    /// the memoized reply fails its reference check).
    pub hits: HashMap<usize, u64>,
    /// Total reply bytes.
    pub reply_bytes: u64,
}

/// Closed loop: sends the next request only after the previous reply
/// arrived, until the feed stops. Each reply is compared byte for byte
/// with the first reply to the same line (responses are pure functions
/// of their line); everything else is checked after the window.
pub fn drive<I: Iterator<Item = usize>>(
    conn: &mut Conn,
    lines: &[String],
    feed: &Feed<I>,
) -> ConnLog {
    let mut log = ConnLog::default();
    while let Some(i) = feed.next() {
        log.attempted += 1;
        let t0 = Instant::now();
        let reply = match conn.call(&lines[i]) {
            Ok(r) => r,
            Err(_) => {
                // A dropped reply: count it and stop this connection.
                log.failed += 1;
                break;
            }
        };
        let t1 = Instant::now();
        log.latencies_ns.push((t1 - t0).as_nanos() as u64);
        log.done.push(t1);
        log.reply_bytes += reply.len() as u64;
        log.record(i, reply);
    }
    log
}

impl ConnLog {
    /// Files the reply to pool line `i`: the first reply is kept for the
    /// reference check, a later one must equal it byte for byte.
    pub fn record(&mut self, i: usize, reply: String) {
        match self.memo.get(&i) {
            Some(first) if *first != reply => self.failed += 1,
            Some(_) => *self.hits.entry(i).or_default() += 1,
            None => {
                self.memo.insert(i, reply);
                self.hits.insert(i, 1);
            }
        }
    }
}
