//! The `or-server` child process and a one-request-per-connection HTTP
//! client that times connect, send, first byte and last byte.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a request may stall before it counts as a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// The instants of one exchange.  `connect` is measured from `start`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

impl Timing {
    /// Request written → last response byte: the per-operation latency.
    pub fn latency_ms(&self) -> f64 {
        (self.last_byte - self.connected).as_secs_f64() * 1e3
    }
}

/// One HTTP/1.1 exchange on a fresh connection, as the server ships
/// (`Connection: close`).
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(Response, Timing)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&chunk[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let last_byte = Instant::now();
    let response = parse_response(&raw)?;
    Ok((
        response,
        Timing {
            start,
            connected,
            sent,
            first_byte,
            last_byte,
        },
    ))
}

fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 header"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Response { status, body })
}

/// A running `or-server` child.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Start the server on an ephemeral loopback port with database
    /// `bench` loaded from `script`, and wait until it answers
    /// `GET /healthz`.  Returns the child and the seconds from spawn to
    /// that first answer.  `OR_ENGINE_WORKERS` is cleared so an
    /// inherited environment cannot change the configuration.
    pub fn start(
        bin: &Path,
        script: &Path,
        engine_workers: usize,
    ) -> io::Result<(ServerChild, f64)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--db")
            .arg(format!("bench={}", script.display()))
            .arg("--engine-workers")
            .arg(engine_workers.to_string())
            .env_remove("OR_ENGINE_WORKERS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let (addr, lines) = wait_for_listening(stderr)?;
        server.addr = addr;
        server.drain = Some(std::thread::spawn(move || {
            for line in lines.lines() {
                if line.is_err() {
                    break;
                }
            }
        }));
        loop {
            match exchange(addr, "GET", "/healthz", "") {
                Ok((response, _)) if response.status == 200 => break,
                _ if start.elapsed() > Duration::from_secs(60) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server never became healthy",
                    ))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `POST /shutdown`, then wait for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ = exchange(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(drain) = self.drain.take() {
                    let _ = drain.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not shut down",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Read the server's start-up lines until it reports its address.
fn wait_for_listening(stderr: ChildStderr) -> io::Result<(SocketAddr, BufReader<ChildStderr>)> {
    let mut reader = BufReader::new(stderr);
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("server exited during start-up:\n{seen}"),
            ));
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            let addr = addr.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad address in `{line}`"),
                )
            })?;
            return Ok((addr, reader));
        }
        seen.push_str(&line);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
