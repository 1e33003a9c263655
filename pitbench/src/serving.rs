//! What the two serving workloads share: set-up helpers, the measured
//! drive against a daemon child, and the client/server reconciliation.

use crate::calib::{Calibration, Spinners};
use crate::daemon::Daemon;
use crate::drive::{self, Outcome, Script};
use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::util::{self, HostCpu};
use pit_replay::oracle::ModelTable;
use pit_serve::protocol::{decode_server, FrameReader, ReadOutcome};
use pit_serve::{ServerFrame, StatsSnapshot};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Reference chunks timed just before and again just after a drive, with
/// the daemon idle (~20 ms each time).
const CALIBRATION_CHUNKS: usize = 25;
/// How long after the last send slot the reader waits for owed replies.
const DRAIN: Duration = Duration::from_secs(10);
/// A run is healthy when the generator's median send lag is below this
/// share of the median step latency it reports.
const HEALTHY_LAG_SHARE: f64 = 0.1;

/// A fresh directory for a run's generated files, inside the benchmark's
/// own (git-ignored) `out/` directory.
///
/// # Errors
///
/// Returns a message when the directory cannot be created.
pub fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = util::out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Reads replies on `conn` until `n` OPENED have arrived; returns each one's
/// latency in µs from `sent`.
///
/// # Errors
///
/// Returns a message on an ERROR reply, a timeout or a broken connection.
pub(crate) fn await_opened(conn: &TcpStream, n: usize, sent: Instant) -> Result<Vec<f64>, String> {
    let clone = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    clone
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let mut reader = FrameReader::new(clone);
    let mut lat = Vec::with_capacity(n);
    while lat.len() < n {
        match reader.poll() {
            Ok(ReadOutcome::Frame(body)) => match decode_server(&body) {
                Ok(ServerFrame::Opened { .. }) => lat.push(sent.elapsed().as_nanos() as f64 / 1e3),
                Ok(ServerFrame::Error { code, message }) => {
                    return Err(format!("OPEN refused: {code:?} {message}"))
                }
                Ok(_) => {}
                Err(e) => return Err(format!("bad reply: {e}")),
            },
            Ok(ReadOutcome::WouldBlock) => return Err("OPENED timed out".into()),
            Ok(ReadOutcome::Eof) | Err(_) => return Err("connection lost during OPEN".into()),
        }
    }
    Ok(lat)
}

/// Checks one stream's served outputs against a solo-session replay of its
/// inputs (bit-exact for int8, within 1e-5 for f32), counting the check in
/// `report` and failing it, labelled by `what`, on any divergence.
pub fn oracle_check(
    report: &mut Report,
    table: &ModelTable,
    model: usize,
    inputs: &[f32],
    served: &[f32],
    what: impl FnOnce() -> String,
) {
    let verdict = table.check_segment(model, inputs, served);
    report.check(verdict.is_none(), || {
        format!("{}: {}", what(), verdict.unwrap_or_default())
    });
}

/// One measured drive and the daemon-side readings around it.
pub struct Measured {
    /// The generator's books.
    pub outcome: Outcome,
    /// STATS just before the first send slot.
    pub before: StatsSnapshot,
    /// STATS once the daemon settled after the last reply.
    pub after: StatsSnapshot,
    /// Daemon CPU nanoseconds over the drive.
    pub daemon_cpu_ns: u64,
    /// Host steal share over the drive, percent.
    pub steal_pct: f64,
    /// Daemon peak RSS, MiB.
    pub peak_rss_mb: f64,
    /// Median reference chunk CPU ns just before and after the drive.
    pub ref_chunk_ns: f64,
    /// Reference chunks timed.
    pub chunks: usize,
    /// Idle spinners that ran over the drive.
    pub idle_spinners: usize,
}

/// Plays `script` on `conn` against `daemon`, reading the daemon's CPU time
/// and STATS around it. The connection is closed when the drive ends.
///
/// # Errors
///
/// Returns a message when STATS cannot be read or the daemon never settles.
pub fn measure(
    daemon: &Daemon,
    conn: TcpStream,
    script: &Script,
    tracer: &Tracer,
    trace: &mut Trace,
) -> Result<Measured, String> {
    let before = daemon.stats()?;
    let spinners = Spinners::start();
    let mut calibration = Calibration::new();
    calibration.sample(CALIBRATION_CHUNKS);
    let host0 = HostCpu::now();
    let cpu0 = daemon.cpu_ns();
    let start = Instant::now();
    let drove = drive::drive(conn, script, DRAIN, tracer);
    let daemon_cpu_ns = daemon.cpu_ns().saturating_sub(cpu0);
    let mut outcome = drove?;
    let steal_pct = HostCpu::now().steal_pct_since(&host0);
    let root = trace.record(tracer, "serve.run", 0, start, None);
    trace.adopt(std::mem::take(&mut outcome.spans), root);
    let after = daemon.settled_stats(Duration::from_secs(10))?;
    calibration.sample(CALIBRATION_CHUNKS);
    let idle_spinners = spinners.finish();
    Ok(Measured {
        outcome,
        before,
        after,
        daemon_cpu_ns,
        steal_pct,
        peak_rss_mb: daemon.peak_rss_mb(),
        ref_chunk_ns: calibration.median_ns(),
        chunks: calibration.chunks(),
        idle_spinners,
    })
}

/// Records the end-to-end metrics, the driver and `serve` layer metrics,
/// the run-health fields and the exact reconciliation of the client's books
/// against the daemon's STATS deltas.
pub fn report_common(report: &mut Report, m: &Measured, script: &Script) {
    let out = &m.outcome;
    let steps = script.steps().max(1);
    let mut lat = out.step_lat_us.clone();
    let step_p50 = util::median(&mut lat);
    let factor = report.record_host(m.ref_chunk_ns, m.chunks);
    report.e2e_scaled("step_p50_us", "raw.step_p50_us", step_p50, factor);
    report.e2e_scaled(
        "cpu_ns_per_step",
        "raw.cpu_ns_per_step",
        m.daemon_cpu_ns as f64 / steps as f64,
        factor,
    );
    report.e2e("peak_rss_mb", m.peak_rss_mb);
    report.layer("serve.step_p99_us", util::quantile(&mut lat, 0.99));
    report.layer("serve.step_p999_us", util::quantile(&mut lat, 0.999));
    report.layer("serve.step_samples", lat.len() as f64);
    if !out.open_lat_us.is_empty() {
        let mut open = out.open_lat_us.clone();
        report.layer("serve.open_p50_us", util::median(&mut open));
    }

    let mut lag = out.send_lag_us.clone();
    let lag_p50 = util::median(&mut lag);
    let lag_p99 = util::quantile(&mut lag, 0.99);
    let gen_cpu = out.generator_cpu_ns as f64 / steps as f64;
    report.layer("driver.send_lag_p50_us", lag_p50);
    report.layer("driver.send_lag_p99_us", lag_p99);
    report.layer("driver.cpu_ns_per_step", gen_cpu);
    report.layer("host.steal_pct", m.steal_pct);
    report.health("send_lag_p50_us", format!("{lag_p50:.1}"));
    report.health("send_lag_p99_us", format!("{lag_p99:.1}"));
    report.health("generator_cpu_ns_per_step", format!("{gen_cpu:.1}"));
    report.health("steal_pct", format!("{:.2}", m.steal_pct));
    report.health("shards", m.after.shards);
    report.health("idle_spinners", m.idle_spinners);
    report.health("healthy", lag_p50 < HEALTHY_LAG_SHARE * step_p50);

    let (b, a) = (&m.before, &m.after);
    let waves = a.waves.saturating_sub(b.waves);
    report.layer("serve.wave_occupancy", a.wave_occupancy);
    report.layer("serve.waves_per_s", waves as f64 / out.wall_s.max(1e-9));
    report.layer("serve.wave_p50_us", a.wave_p50_ns as f64 / 1e3);
    report.layer("serve.wave_p99_us", a.wave_p99_ns as f64 / 1e3);
    report.layer(
        "serve.frames_rejected",
        a.frames_rejected.saturating_sub(b.frames_rejected) as f64,
    );
    report.layer(
        "serve.replies_dropped",
        a.replies_dropped.saturating_sub(b.replies_dropped) as f64,
    );
    report.layer("serve.outbuf_hwm_bytes", a.outbuf_hwm_bytes as f64);

    // Every frame sent is an attempted operation; errors, unexpected and
    // missing replies and a broken connection are its failures.
    report.attempted += script.frames();
    for (code, n) in &out.errors {
        report.failed += n;
        report.failures.push(format!("{n} ERROR {code} replies"));
    }
    if out.unexpected > 0 {
        report.fail(format!("{} replies the script did not owe", out.unexpected));
    }
    if out.missing > 0 {
        report.fail(format!(
            "{} owed replies missing after the drain",
            out.missing
        ));
    }
    if out.disconnected {
        report.fail("the data connection broke");
    }

    let d_steps = a.timesteps_in.saturating_sub(b.timesteps_in);
    report.check(d_steps == script.steps(), || {
        format!(
            "STATS timesteps_in delta {d_steps} != {} steps sent",
            script.steps()
        )
    });
    let d_emit = a.emissions_out.saturating_sub(b.emissions_out);
    report.check(d_emit == out.emissions, || {
        format!(
            "STATS emissions_out delta {d_emit} != {} emissions received",
            out.emissions
        )
    });
    let d_open = a.streams_opened.saturating_sub(b.streams_opened);
    report.check(d_open == out.opened, || {
        format!(
            "STATS streams_opened delta {d_open} != {} OPENED received",
            out.opened
        )
    });
}
