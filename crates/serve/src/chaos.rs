//! Fault injection and a misbehaving-client toolkit for hardening
//! `pit-serve` against adversarial schedules.
//!
//! Production edges die in ways well-behaved integration tests never
//! exercise: clients that drip one byte per interval (slow loris), peers
//! that send a frame header and stall, sockets reset mid-batch, readers
//! that never drain their emissions. This module packages both halves of a
//! chaos harness:
//!
//! * **[`FaultPlan`] / [`FaultInjector`]** — a deterministic fault seam
//!   *inside* the daemon, wired through [`crate::ServerConfig::faults`]:
//!   forced `WouldBlock`/`Interrupted` outcomes on edge reads, skipped
//!   write flushes (forcing the `POLLOUT` re-arm path), delayed shard
//!   wakeups, artificial wave-flush stalls, and delayed shard→edge
//!   eviction notes. Every fault fires on a fixed counter cadence, so a
//!   failing schedule replays exactly.
//! * **Misbehaving clients** — helpers the chaos suite drives against a
//!   live daemon from the outside: [`drip`] (slow-loris byte writer),
//!   [`partial_frame_header`] (header-then-stall) and [`rst_close`] (abort
//!   with an RST instead of a FIN); the suite probes the telemetry
//!   sidecar's `/healthz` and `/trace` with [`crate::http_get`].
//! * **[`ChaosRng`]** — a tiny seeded splitmix64 generator so randomized
//!   interleavings stay reproducible from a committed seed.
//!
//! The module (and the `ServerConfig::faults` seam) is compiled behind the
//! `chaos` cargo feature, which is on by default; `--no-default-features`
//! builds a daemon with no injection points at all. With the feature on
//! but `faults: None` (the default config), the seam costs one `Option`
//! check next to a syscall.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The raw syscall surface the toolkit needs beyond `std::net`:
/// `SO_LINGER` with a zero timeout turns `close(2)` into an abortive RST —
/// exactly what a crashing client or a NAT timeout looks like from the
/// daemon's side. Same audited-exception precedent as `edge::sys`.
mod sys {
    #![allow(unsafe_code)]

    use std::io;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;

    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;

    /// `struct linger` — layout fixed by the C ABI.
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }

    extern "C" {
        fn setsockopt(
            sockfd: i32,
            level: i32,
            optname: i32,
            optval: *const Linger,
            optlen: u32,
        ) -> i32;
    }

    /// Arms an abortive close: dropping the stream now sends RST, not FIN.
    pub fn set_linger_zero(stream: &TcpStream) -> io::Result<()> {
        let opt = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: `opt` is a valid `#[repr(C)]` linger struct and the
        // length passed matches its size; the fd is owned by `stream`.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                &opt,
                std::mem::size_of::<Linger>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Deterministic server-side fault seam
// ---------------------------------------------------------------------------

/// Which fake I/O outcome the [`FaultInjector`] injects before an edge
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Pretend the socket returned `EWOULDBLOCK`: the edge stops reading
    /// this connection and comes back on the next readiness cycle.
    WouldBlock,
    /// Pretend the syscall was interrupted: the edge retries immediately.
    Interrupted,
}

/// What to inject and how often. All cadences are counter-based ("every
/// Nth call"), so a given plan produces the same schedule every run; `0`
/// disables that fault class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Every Nth edge read on a client socket returns a fake `WouldBlock`
    /// *instead of* reading — bytes stay in the kernel buffer and the
    /// frame assembler must resume across poll iterations.
    pub read_wouldblock_every: u64,
    /// Every Nth edge read returns a fake `Interrupted` first (the edge
    /// retries), exercising the EINTR path without signals.
    pub read_interrupt_every: u64,
    /// Every Nth outbuf flush opportunity is skipped as if the socket were
    /// full, forcing the edge through its `POLLOUT` re-arm path.
    pub write_skip_every: u64,
    /// Extra delay a shard sleeps after waking up with events, before
    /// handling them — widens every edge/shard race window.
    pub shard_wakeup_delay: Option<Duration>,
    /// Artificial stall at the top of every wave flush (covers the
    /// flush-before-close path too).
    pub wave_stall: Option<Duration>,
    /// Holds each shard→edge note (idle-eviction stream releases) for this
    /// long before the edge applies it — the window in which a CLOSE, a
    /// reopen, or a disconnect can race a stale eviction.
    pub note_delay: Option<Duration>,
}

impl FaultPlan {
    /// Wraps the plan in an injector ready for
    /// [`crate::ServerConfig::faults`].
    pub fn build(self) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan: self,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        })
    }
}

/// A [`FaultPlan`] plus the call counters that drive its cadence. Shared
/// (`Arc`) between the edge thread and every shard; all state is atomic.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    reads: AtomicU64,
    writes: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far — tests assert this is nonzero so a
    /// scenario that silently stopped injecting cannot pass vacuously.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Called by the edge before each client-socket read.
    pub(crate) fn pre_read(&self) -> Option<IoFault> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        let every = |cadence: u64| cadence > 0 && n.is_multiple_of(cadence);
        // Interrupt cadence wins ties; both classes share the counter so
        // the merged schedule is still periodic and deterministic.
        if every(self.plan.read_interrupt_every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(IoFault::Interrupted);
        }
        if every(self.plan.read_wouldblock_every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(IoFault::WouldBlock);
        }
        None
    }

    /// Called by the edge before flushing one connection's outbuf; `true`
    /// means "pretend the socket is full this round".
    pub(crate) fn pre_write_skip(&self) -> bool {
        if self.plan.write_skip_every == 0 {
            return false;
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.plan.write_skip_every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Sleeps out the configured shard wakeup delay, if any.
    pub(crate) fn shard_wakeup(&self) {
        if let Some(delay) = self.plan.shard_wakeup_delay {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
    }

    /// Sleeps out the configured wave-flush stall, if any.
    pub(crate) fn wave_stall(&self) {
        if let Some(stall) = self.plan.wave_stall {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(stall);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded randomness for reproducible interleavings
// ---------------------------------------------------------------------------

/// A splitmix64 generator: 8 bytes of state, full-period, good enough to
/// schedule chaos interleavings — and trivially reproducible from the seed
/// committed next to the scenario.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A jitter of up to `max_us` microseconds.
    pub fn jitter(&mut self, max_us: u64) -> Duration {
        Duration::from_micros(self.below(max_us.max(1)))
    }
}

// ---------------------------------------------------------------------------
// Misbehaving clients
// ---------------------------------------------------------------------------

/// Slow-loris writer: sends `bytes` one at a time with `pause` between
/// them. Returns early with the transport error if the daemon hangs up
/// mid-drip (for a reaped connection that is the *expected* outcome).
///
/// # Errors
///
/// The write error that ended the drip, if any.
pub fn drip(stream: &mut TcpStream, bytes: &[u8], pause: Duration) -> io::Result<()> {
    for byte in bytes {
        stream.write_all(std::slice::from_ref(byte))?;
        stream.flush()?;
        std::thread::sleep(pause);
    }
    Ok(())
}

/// Connects and sends only the first `sent` bytes of a frame's 4-byte
/// length prefix, then returns the stream for the caller to hold open —
/// the canonical header-then-stall client. `sent` is clamped to `1..=3`
/// so the frame can never complete.
///
/// # Errors
///
/// Connect or write errors.
pub fn partial_frame_header(addr: SocketAddr, sent: usize) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    let prefix = 64u32.to_le_bytes();
    stream.write_all(&prefix[..sent.clamp(1, 3)])?;
    stream.flush()?;
    Ok(stream)
}

/// Aborts the connection with a TCP RST (`SO_LINGER` zero + close) instead
/// of an orderly FIN — what the daemon sees when a client crashes or a
/// middlebox drops the flow. Best-effort: if arming linger fails the
/// stream still drops (plain FIN).
pub fn rst_close(stream: TcpStream) {
    let _ = sys::set_linger_zero(&stream);
    drop(stream);
}

/// Whether the peer has hung up on `stream`: a zero-byte read after
/// shifting to nonblocking mode. Restores blocking mode before returning.
///
/// # Errors
///
/// Socket-option errors (the probe read itself never errors the result —
/// `WouldBlock` means "still open", EOF/reset mean "closed").
pub fn peer_hung_up(stream: &TcpStream) -> io::Result<bool> {
    stream.set_nonblocking(true)?;
    let mut buf = [0u8; 16];
    let gone = match (&*stream).read(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    stream.set_nonblocking(false)?;
    Ok(gone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cadences_are_deterministic_and_counted() {
        let injector = FaultPlan {
            read_wouldblock_every: 3,
            read_interrupt_every: 5,
            write_skip_every: 2,
            ..FaultPlan::default()
        }
        .build();
        let reads: Vec<Option<IoFault>> = (0..15).map(|_| injector.pre_read()).collect();
        // Calls 3,6,9,12 → WouldBlock; 5,10,15 → Interrupted (ties: 15 is
        // both a multiple of 3 and 5 — interrupt wins).
        let expect = |n: u64| {
            if n.is_multiple_of(5) {
                Some(IoFault::Interrupted)
            } else if n.is_multiple_of(3) {
                Some(IoFault::WouldBlock)
            } else {
                None
            }
        };
        for (i, got) in reads.iter().enumerate() {
            assert_eq!(*got, expect(i as u64 + 1), "read call {}", i + 1);
        }
        let skips: Vec<bool> = (0..6).map(|_| injector.pre_write_skip()).collect();
        assert_eq!(skips, [false, true, false, true, false, true]);
        // 4 WouldBlock + 3 Interrupted + 3 skips.
        assert_eq!(injector.injected_faults(), 10);
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let injector = FaultPlan::default().build();
        for _ in 0..64 {
            assert_eq!(injector.pre_read(), None);
            assert!(!injector.pre_write_skip());
        }
        injector.shard_wakeup();
        injector.wave_stall();
        assert_eq!(injector.injected_faults(), 0);
    }

    #[test]
    fn chaos_rng_is_reproducible_and_spreads() {
        let mut a = ChaosRng::new(0xC0FFEE);
        let mut b = ChaosRng::new(0xC0FFEE);
        let draws_a: Vec<u64> = (0..64).map(|_| a.below(10)).collect();
        let draws_b: Vec<u64> = (0..64).map(|_| b.below(10)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same schedule");
        let mut seen = [false; 10];
        for d in draws_a {
            seen[d as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 8, "{seen:?}");
        let mut c = ChaosRng::new(1);
        assert_ne!(
            (0..8).map(|_| c.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn rst_close_sends_a_reset_not_a_fin() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        rst_close(client);
        // An aborted peer surfaces as an error (ECONNRESET), not EOF.
        let mut buf = [0u8; 8];
        let got = (&server).read(&mut buf);
        match got {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            Ok(0) => panic!("expected RST, got orderly EOF"),
            Ok(n) => panic!("expected RST, read {n} bytes"),
        }
    }
}
