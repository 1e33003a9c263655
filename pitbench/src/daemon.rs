//! The daemon under test, in a process of its own so that its CPU time and
//! peak memory are read apart from the load generator's.
//!
//! The child is this same executable re-run as `pitbench daemon --zoo PATH`:
//! it boots `pit_serve::Server` from the zoo exactly as the
//! `pit-serve` binary does, prints its bound address on stdout and serves
//! until its stdin closes (so it cannot outlive a benchmark that died) or
//! it is killed.
//!
//! `fleet_i8` times its set-ups on [`InProcess`] boots instead: the same
//! zoo load, bind and server start inside the benchmark process, without
//! the host's process creation, whose cost swings by tens of percent with
//! the load of the physical host, is not the program's, and is half of
//! that set-up's time.

use crate::util;
use pit_serve::{ClientBuilder, ServerConfig, ServerFrame, ServerHandle, StatsSnapshot};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon shard threads: one, so that the generator's two threads and the
/// daemon's edge and shard threads fit the two-vCPU host the benchmark was
/// sized on, and the shard count stays fixed whatever the host reports.
const SHARDS: usize = 1;
/// Per-connection cap on queued-but-unflushed timesteps (`--max-pending`):
/// half a second of `fleet_i8`'s offered load, so that a host stall of tens
/// of milliseconds shows as latency rather than as refused pushes.
const MAX_PENDING: usize = 32_768;

/// The server configuration of the daemon child and of an in-process boot.
fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS,
        max_pending_per_conn: MAX_PENDING,
        idle_timeout: None,
        ..ServerConfig::default()
    }
}

/// A server the benchmark can talk to.
pub trait Booted {
    /// The server's protocol address.
    fn addr(&self) -> SocketAddr;
}

/// Entry point of the `daemon` subcommand: `daemon --zoo PATH`.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let zoo = match args {
        [flag, path] if flag == "--zoo" => path,
        _ => return Err("usage: pitbench daemon --zoo PATH".into()),
    };
    let server = pit_serve::Server::bind_zoo(Path::new(&zoo), config())?;
    println!("{}", server.local_addr());
    // Exit when the parent goes away: it holds our stdin open.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    server.run();
    Ok(())
}

/// A running daemon child. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// The daemon's protocol address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Boots a daemon serving the zoo at `zoo` and waits until it listens.
    ///
    /// # Errors
    ///
    /// Returns a message when the child cannot start or reports no address.
    pub fn spawn(zoo: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--zoo")
            .arg(zoo)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().parse::<SocketAddr>().ok(),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the daemon reported no address ({line:?})"));
        };
        Ok(Self { child, addr })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU nanoseconds every daemon thread has run so far.
    pub fn cpu_ns(&self) -> u64 {
        util::task_cpu_ns(self.pid())
    }

    /// The daemon's peak resident set in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        util::peak_rss_mb(self.pid())
    }

    /// One STATS snapshot over a fresh control connection.
    ///
    /// # Errors
    ///
    /// Returns transport or parse failures.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        let mut client = ClientBuilder::new()
            .read_timeout(Duration::from_secs(5))
            .connect(self.addr)
            .map_err(|e| format!("control connect: {e}"))?;
        client.stats().map_err(|e| format!("STATS: {e}"))?;
        loop {
            match client.recv().map_err(|e| format!("STATS reply: {e}"))? {
                ServerFrame::StatsJson { json } => return StatsSnapshot::from_json_str(&json),
                _ => continue,
            }
        }
    }

    /// Polls STATS until the daemon has handled everything it accepted
    /// (`settled`) and holds no open stream — the state after a run's data
    /// connection has closed.
    ///
    /// # Errors
    ///
    /// Returns a message when the daemon does not settle within `timeout`.
    pub fn settled_stats(&self, timeout: Duration) -> Result<StatsSnapshot, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let snap = self.stats()?;
            if snap.settled && snap.streams_open == 0 {
                return Ok(snap);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "daemon never settled: settled={} streams_open={}",
                    snap.settled, snap.streams_open
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Round-trip times (µs) of `n` PINGs on one control connection.
    ///
    /// # Errors
    ///
    /// Returns transport failures.
    pub fn ping_rtts_us(&self, n: usize) -> Result<Vec<f64>, String> {
        let mut client = ClientBuilder::new()
            .read_timeout(Duration::from_secs(5))
            .connect(self.addr)
            .map_err(|e| format!("control connect: {e}"))?;
        let mut rtts = Vec::with_capacity(n);
        for token in 0..n as u64 {
            let start = Instant::now();
            client.ping(token).map_err(|e| format!("PING: {e}"))?;
            loop {
                match client.recv().map_err(|e| format!("PONG: {e}"))? {
                    ServerFrame::Pong { token: t } if t == token => break,
                    _ => continue,
                }
            }
            rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(rtts)
    }
}

impl Booted for Daemon {
    fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A server booted inside the benchmark process from a zoo, as the daemon
/// child boots after exec (`Server::bind_zoo`, then `Server::spawn`).
/// Dropping it shuts the server down and joins its threads.
pub struct InProcess {
    handle: Option<ServerHandle>,
}

impl InProcess {
    /// Boots a server on the zoo at `zoo`; it listens when this returns.
    ///
    /// # Errors
    ///
    /// Returns a message when the zoo does not load or the bind fails.
    pub fn boot(zoo: &Path) -> Result<Self, String> {
        let server = pit_serve::Server::bind_zoo(zoo, config())?;
        Ok(Self {
            handle: Some(server.spawn()),
        })
    }
}

impl Booted for InProcess {
    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("running").addr()
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}
