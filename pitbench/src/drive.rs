//! The open-loop load generator shared by the serving workloads.
//!
//! A [`Script`] is built before the timed region: every frame the run will
//! send is already encoded and grouped into send slots with an intended
//! send time, and every reply the daemon owes is known in advance (OPENED
//! per OPEN, the emission cadence per PUSH, CLOSED per CLOSE). During the
//! run two threads share one connection: the sender writes each slot when
//! it falls due, whatever the daemon's speed, and records how late it ran;
//! the reader stamps every reply on receipt and matches it against the
//! script. Latency is timed from the *intended* send time, so a stall that
//! delays later sends is charged to the requests it delayed.

use crate::trace::{Span, Tracer};
use crate::util;
use pit_serve::protocol::{decode_server, FrameReader, ReadOutcome};
use pit_serve::{CloseReason, ServerFrame};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The sender sleeps until this long before a slot is due and spins the
/// rest, so its send lag stays well below the latencies it measures
/// without burning a core between slots.
const SPIN_US: u64 = 60;
/// Reply bodies a traced run keeps for the codec probes.
const SAMPLE_REPLIES: usize = 4096;
/// How long the reader waits in one blocking read before re-checking
/// whether the run is over.
const READ_POLL: Duration = Duration::from_millis(20);

/// One send slot: frames that fall due at the same instant.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    /// Intended send time, µs after the run epoch.
    pub at_us: u64,
    /// The slot's frames, encoded back to back.
    pub bytes: Vec<u8>,
    /// Frames in `bytes`.
    pub frames: u32,
    /// Timesteps the slot's PUSH frames carry.
    pub steps: u32,
    /// Trace id of the slot (the session or stream it belongs to, or the
    /// slot index when it mixes several).
    pub id: u64,
}

/// What the daemon owes one stream, in the order it owes it.
#[derive(Debug, Clone, Default)]
pub struct StreamBook {
    /// Intended send time of the stream's OPEN, when the run opens it.
    pub open_at_us: Option<u64>,
    /// Per PUSH: intended send time and the emissions it completes.
    pub pushes: Vec<(u64, u32)>,
    /// Whether the run closes the stream.
    pub closes: bool,
    /// Whether to keep the stream's outputs for the oracle.
    pub record: bool,
}

/// A fully materialised run: slots in send order plus the reply books.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// Send slots sorted by `at_us`.
    pub slots: Vec<Slot>,
    /// Indexed by connection-scoped stream id.
    pub books: Vec<StreamBook>,
}

impl Script {
    /// Frames the script sends.
    pub fn frames(&self) -> u64 {
        self.slots.iter().map(|s| s.frames as u64).sum()
    }

    /// Timesteps the script pushes.
    pub fn steps(&self) -> u64 {
        self.slots.iter().map(|s| s.steps as u64).sum()
    }

    /// Replies the daemon owes: OPENED, emissions and CLOSED.
    pub fn owed_replies(&self) -> u64 {
        self.books
            .iter()
            .map(|b| {
                b.open_at_us.is_some() as u64
                    + b.pushes.iter().map(|p| p.1 as u64).sum::<u64>()
                    + b.closes as u64
            })
            .sum()
    }
}

/// Everything one drive produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per emission: µs from its step's intended send time to receipt.
    pub step_lat_us: Vec<f64>,
    /// Per OPEN: µs from its intended send time to OPENED.
    pub open_lat_us: Vec<f64>,
    /// Per slot: µs the sender ran late.
    pub send_lag_us: Vec<f64>,
    /// ERROR frames received, by code.
    pub errors: BTreeMap<String, u64>,
    /// Replies the script did not owe (an emission beyond the cadence, an
    /// OPENED for a stream not being opened, a CLOSED not by the client).
    pub unexpected: u64,
    /// Replies owed but not received before the drain deadline.
    pub missing: u64,
    /// Emissions received.
    pub emissions: u64,
    /// OPENED replies received.
    pub opened: u64,
    /// Whether the connection failed (write error, EOF or a bad frame).
    pub disconnected: bool,
    /// Outputs of the recorded streams, by stream id.
    pub recorded: BTreeMap<u32, Vec<f32>>,
    /// CPU nanoseconds of the sender and reader threads.
    pub generator_cpu_ns: u64,
    /// Wall seconds from the epoch until the last reply (or the deadline).
    pub wall_s: f64,
    /// Spans the two threads recorded (empty unless tracing).
    pub spans: Vec<Span>,
    /// The first reply bodies as received (kept only when tracing), for
    /// timing the codec on the run's own frames.
    pub sample_replies: Vec<Vec<u8>>,
}

impl Outcome {
    /// Failed operations: ERROR frames, unexpected and missing replies, and
    /// one for a broken connection.
    pub fn failures(&self) -> u64 {
        self.errors.values().sum::<u64>()
            + self.unexpected
            + self.missing
            + self.disconnected as u64
    }
}

/// Plays `script` on `conn` starting now; waits at most `drain` after the
/// last slot for the owed replies. `tracer` decides whether spans are kept.
///
/// # Errors
///
/// Returns a message when the connection cannot be cloned for the reader.
pub fn drive(
    conn: TcpStream,
    script: &Script,
    drain: Duration,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let reader_conn = conn
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    reader_conn
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let _ = conn.set_nodelay(true);
    let sending_done = AtomicBool::new(false);
    let epoch = Instant::now();
    let end_us = script.slots.last().map_or(0, |s| s.at_us);
    let deadline = epoch + Duration::from_micros(end_us) + drain;

    let (send, recv) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let out = send_slots(conn, script, epoch, tracer);
            sending_done.store(true, Ordering::SeqCst);
            out
        });
        let reader = scope
            .spawn(|| read_replies(reader_conn, script, epoch, deadline, &sending_done, tracer));
        (
            sender.join().expect("sender thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let mut outcome = recv;
    outcome.send_lag_us = send.lag_us;
    outcome.disconnected |= send.failed;
    outcome.generator_cpu_ns += send.cpu_ns;
    outcome.spans.extend(send.spans);
    Ok(outcome)
}

struct SendResult {
    lag_us: Vec<f64>,
    failed: bool,
    cpu_ns: u64,
    spans: Vec<Span>,
}

fn send_slots(mut conn: TcpStream, script: &Script, epoch: Instant, tracer: &Tracer) -> SendResult {
    let cpu0 = util::thread_cpu_ns();
    let mut lag_us = Vec::with_capacity(script.slots.len());
    let mut spans = Vec::new();
    let mut failed = false;
    for slot in &script.slots {
        let due = epoch + Duration::from_micros(slot.at_us);
        let now = Instant::now();
        if due > now {
            let wait = due - now;
            if wait > Duration::from_micros(SPIN_US) {
                std::thread::sleep(wait - Duration::from_micros(SPIN_US));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let start = Instant::now();
        lag_us.push(start.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        if conn.write_all(&slot.bytes).is_err() {
            failed = true;
            break;
        }
        if tracer.on() {
            spans.push(tracer.span("driver.send", slot.id, start, Instant::now(), None));
        }
    }
    let _ = conn.flush();
    SendResult {
        lag_us,
        failed,
        cpu_ns: util::thread_cpu_ns().saturating_sub(cpu0),
        spans,
    }
}

/// Per-stream reply cursor.
#[derive(Default, Clone)]
struct Cursor {
    open_pending: bool,
    push: usize,
    left: u32,
    close_pending: bool,
}

/// The reader's books: where each stream stands against its script.
struct Books<'a> {
    script: &'a Script,
    cursors: Vec<Cursor>,
    settled: u64,
    out: Outcome,
}

impl Books<'_> {
    /// Takes `count` emissions of stream `sid` received at `now_us`.
    fn emit(&mut self, sid: u32, count: u32, values: &[f32], now_us: f64) {
        let s = sid as usize;
        let Some(book) = self.script.books.get(s) else {
            self.out.unexpected += count as u64;
            return;
        };
        let c = &mut self.cursors[s];
        for _ in 0..count {
            while c.left == 0 && c.push + 1 < book.pushes.len() {
                c.push += 1;
                c.left = book.pushes[c.push].1;
            }
            if c.left == 0 {
                self.out.unexpected += 1;
                continue;
            }
            c.left -= 1;
            self.out
                .step_lat_us
                .push(now_us - book.pushes[c.push].0 as f64);
            self.settled += 1;
        }
        self.out.emissions += count as u64;
        if let Some(rec) = self.out.recorded.get_mut(&sid) {
            rec.extend_from_slice(values);
        }
    }

    fn opened(&mut self, sid: u32, now_us: f64) {
        match self.cursors.get_mut(sid as usize) {
            Some(c) if c.open_pending => {
                c.open_pending = false;
                let at = self.script.books[sid as usize].open_at_us.unwrap_or(0);
                self.out.open_lat_us.push(now_us - at as f64);
                self.out.opened += 1;
                self.settled += 1;
            }
            _ => self.out.unexpected += 1,
        }
    }

    fn closed(&mut self, sid: u32, reason: CloseReason) {
        match self.cursors.get_mut(sid as usize) {
            Some(c) if c.close_pending && reason == CloseReason::ByClient => {
                c.close_pending = false;
                self.settled += 1;
            }
            _ => self.out.unexpected += 1,
        }
    }
}

fn read_replies(
    conn: TcpStream,
    script: &Script,
    epoch: Instant,
    deadline: Instant,
    sending_done: &AtomicBool,
    tracer: &Tracer,
) -> Outcome {
    let cpu0 = util::thread_cpu_ns();
    let mut books = Books {
        script,
        cursors: script
            .books
            .iter()
            .map(|b| Cursor {
                open_pending: b.open_at_us.is_some(),
                push: 0,
                left: b.pushes.first().map_or(0, |p| p.1),
                close_pending: b.closes,
            })
            .collect(),
        settled: 0,
        out: Outcome::default(),
    };
    for (id, book) in script.books.iter().enumerate() {
        if book.record {
            books.out.recorded.insert(id as u32, Vec::new());
        }
    }
    let owed = script.owed_replies();
    let mut reader = FrameReader::new(conn);
    while books.settled < owed {
        let body = match reader.poll() {
            Ok(ReadOutcome::Frame(body)) => body,
            Ok(ReadOutcome::WouldBlock) => {
                if sending_done.load(Ordering::SeqCst) && Instant::now() >= deadline {
                    break;
                }
                continue;
            }
            Ok(ReadOutcome::Eof) | Err(_) => {
                books.out.disconnected = true;
                break;
            }
        };
        let recv_at = Instant::now();
        let now_us = recv_at.saturating_duration_since(epoch).as_nanos() as f64 / 1e3;
        let Ok(frame) = decode_server(&body) else {
            books.out.disconnected = true;
            break;
        };
        if tracer.on() && books.out.sample_replies.len() < SAMPLE_REPLIES {
            books.out.sample_replies.push(body);
        }
        let mut trace_id = 0u64;
        match frame {
            ServerFrame::Emit {
                stream_id,
                count,
                outputs,
                ..
            } => {
                trace_id = stream_id as u64;
                books.emit(stream_id, count, &outputs, now_us);
            }
            ServerFrame::EmitN {
                dim,
                entries,
                outputs,
            } => {
                let mut at = 0usize;
                for (sid, count) in entries {
                    let len = count as usize * dim as usize;
                    books.emit(sid, count, outputs.get(at..at + len).unwrap_or(&[]), now_us);
                    at += len;
                }
            }
            ServerFrame::Opened { stream_id } => {
                trace_id = stream_id as u64;
                books.opened(stream_id, now_us);
            }
            ServerFrame::Closed { stream_id, reason } => {
                trace_id = stream_id as u64;
                books.closed(stream_id, reason);
            }
            ServerFrame::Error { code, .. } => {
                *books.out.errors.entry(format!("{code:?}")).or_default() += 1;
            }
            _ => {}
        }
        if tracer.on() {
            books.out.spans.push(tracer.span(
                "driver.recv",
                trace_id,
                recv_at,
                Instant::now(),
                None,
            ));
        }
    }
    let mut out = books.out;
    out.missing = owed - books.settled;
    out.wall_s = epoch.elapsed().as_secs_f64();
    out.generator_cpu_ns = util::thread_cpu_ns().saturating_sub(cpu0);
    out
}
