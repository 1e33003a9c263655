//! `fleet_i8`: several hundred long-lived int8 TEMPONet/8 streams driven
//! open loop at one fixed offered step rate.
//!
//! Why this workload: nearly all of its work lands on the serving data path
//! (edge decode → shard wave → i8 wave → encode/outbuf) and on the i8
//! kernels. The streams are opened during set-up, so OPEN/CLOSE handling
//! does no work in the timed region, and every send slot carries 8-step
//! bursts for a whole group of streams in one coalesced PUSH_N frame, so
//! waves are large. int8 is the paper's deployment precision.

use crate::calib::{SetupClock, SETUP_BATCHES};
use crate::daemon::{Booted, Daemon, InProcess};
use crate::drive::{Script, Slot, StreamBook};
use crate::models::{self, ZooModel, CHANNELS};
use crate::probes;
use crate::report::Report;
use crate::serving;
use crate::trace::{Trace, Tracer};
use crate::util;
use pit_infer::ZooManifest;
use pit_replay::oracle::ModelTable;
use pit_replay::rng::SplitMix64;
use pit_serve::protocol::{encode_client, ClientFrame};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Long-lived streams in the fleet.
const STREAMS: usize = 256;
/// Timesteps per push.
const BURST: usize = 8;
/// Stream groups; each send slot pushes one group's bursts, so a wave
/// holds 64 streams × 8 steps and the per-wave costs (wakeups, syscalls,
/// frame handling) are a small share of the work.
const GROUPS: usize = 4;
/// Interval between send slots.
const SLOT_US: u64 = 8_000;
/// The offered load: `STREAMS × BURST` steps every `GROUPS` slots.
const OFFERED_STEPS_PER_S: u64 = (STREAMS * BURST) as u64 * 1_000_000 / (GROUPS as u64 * SLOT_US);
/// Streams whose every output is checked against a solo-session oracle.
const ORACLE_STREAMS: usize = 8;
/// Set-ups per timed batch (~7 ms each).
const SETUPS_PER_BATCH: usize = 4;
/// The registry name the fleet's model serves under.
const MODEL: &str = "fleet-temponet8";

/// The fleet's generated inputs: the send script plus, per stream, every
/// sample it pushes (the oracle's view).
pub struct Inputs {
    /// Send slots and reply books (emission counts filled in at set-up,
    /// once the model's cadence is known).
    pub script: Script,
    /// Per stream: interleaved `steps × CHANNELS` samples.
    pub samples: Vec<Vec<f32>>,
}

/// One PPG-Dalia-shaped timestep: a pulse on the PPG channel and slow
/// motion on the three accelerometer axes, plus sensor noise.
fn ppg_step(rng: &mut SplitMix64, t: usize, hr_hz: f64, phase: f64, out: &mut Vec<f32>) {
    let time = t as f64 / 32.0;
    let pulse = (std::f64::consts::TAU * hr_hz * time + phase).sin();
    out.push((0.8 * pulse + 0.05 * rng.approx_normal()).clamp(-1.0, 1.0) as f32);
    for axis in 0..3 {
        let motion =
            (std::f64::consts::TAU * (0.3 + 0.2 * axis as f64) * time + phase * axis as f64).sin();
        out.push((0.4 * motion + 0.05 * rng.approx_normal()).clamp(-1.0, 1.0) as f32);
    }
}

/// Generates the fleet's inputs for `seconds` of offered load.
pub fn generate(seed: u64, seconds: u64) -> Inputs {
    let slots = (seconds * 1_000_000 / SLOT_US) as usize;
    let mut rngs: Vec<SplitMix64> = (0..STREAMS)
        .map(|s| SplitMix64::keyed(seed, s as u64))
        .collect();
    let shape: Vec<(f64, f64)> = rngs
        .iter_mut()
        .map(|r| {
            (
                r.range_f64(1.0, 3.0),
                r.range_f64(0.0, std::f64::consts::TAU),
            )
        })
        .collect();
    let mut picker = SplitMix64::keyed(seed, u64::MAX);
    let mut books = vec![StreamBook::default(); STREAMS];
    for _ in 0..ORACLE_STREAMS {
        books[picker.below(STREAMS as u64) as usize].record = true;
    }
    let mut samples = vec![Vec::new(); STREAMS];
    let mut out = Vec::with_capacity(slots);
    for k in 0..slots {
        let at_us = k as u64 * SLOT_US;
        let group = k % GROUPS;
        let mut entries = Vec::new();
        let mut values = Vec::new();
        for s in (group..STREAMS).step_by(GROUPS) {
            let t0 = samples[s].len() / CHANNELS;
            let start = values.len();
            for t in t0..t0 + BURST {
                ppg_step(&mut rngs[s], t, shape[s].0, shape[s].1, &mut values);
            }
            samples[s].extend_from_slice(&values[start..]);
            entries.push((s as u32, BURST as u32));
            books[s].pushes.push((at_us, 0));
        }
        let frame = ClientFrame::PushN {
            channels: CHANNELS as u32,
            entries,
            samples: values,
        };
        out.push(Slot {
            at_us,
            bytes: encode_client(&frame),
            frames: 1,
            steps: (STREAMS / GROUPS * BURST) as u32,
            id: k as u64,
        });
    }
    Inputs {
        script: Script { slots: out, books },
        samples,
    }
}

/// A set-up fleet: the server, its data connection and the OPEN latencies.
struct Fleet<S> {
    server: S,
    conn: TcpStream,
    open_lat_us: Vec<f64>,
    quantize_ms: f64,
}

/// Set-up: build, compile and quantize the model, boot a server on it with
/// `boot`, open every stream and wait for every OPENED.
fn set_up<S: Booted>(
    seed: u64,
    dir: &Path,
    trace: &mut Trace,
    tracer: &Tracer,
    boot: impl FnOnce(&Path) -> Result<S, String>,
) -> Result<Fleet<S>, String> {
    let root = Instant::now();
    let plan = models::temponet_plan(seed, MODEL, None);
    let q0 = Instant::now();
    let qplan = models::quantize(&plan, seed)?;
    let quantize_ms = q0.elapsed().as_secs_f64() * 1e3;
    let zoo = models::write_zoo(dir, &[ZooModel::I8(&qplan)])?;
    let name = qplan.name().to_string();
    let boot_start = Instant::now();
    let server = boot(&zoo)?;
    trace.record(tracer, "serve.daemon_boot", 0, boot_start, None);
    let mut conn = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let _ = conn.set_nodelay(true);
    let mut bytes = Vec::new();
    for s in 0..STREAMS as u32 {
        bytes.extend(encode_client(&ClientFrame::Open {
            stream_id: s,
            model: Some(name.clone()),
        }));
    }
    let sent = Instant::now();
    conn.write_all(&bytes).map_err(|e| format!("OPEN: {e}"))?;
    let open_lat_us = serving::await_opened(&conn, STREAMS, sent)?;
    trace.record(tracer, "fleet.setup", 0, root, None);
    Ok(Fleet {
        server,
        conn,
        open_lat_us,
        quantize_ms,
    })
}

/// Runs the workload once; fills `report` and `trace`.
pub fn run(
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    let dir = serving::scratch_dir("fleet_i8")?;
    let mut inputs = generate(seed, seconds);

    // Set-up is timed on in-process boots; the measured fleet runs on a
    // daemon child, set up once more (see `crate::daemon`).
    let mut setups = SetupClock::new(SETUPS_PER_BATCH);
    setups.time(
        SETUP_BATCHES,
        || set_up(seed, &dir, trace, tracer, InProcess::boot),
        |_| 0,
    )?;
    let fleet = set_up(seed, &dir, trace, tracer, Daemon::spawn)?;

    // The emission cadence is structural (TEMPONet's pooling emits once
    // per several steps), so it is probed out to each stream's full length.
    let zoo = dir.join("zoo.json");
    let (manifest, base) = ZooManifest::load(&zoo)?;
    let longest = inputs.samples.iter().map(Vec::len).max().unwrap_or(0) / CHANNELS;
    let table = ModelTable::load(&manifest, &base, longest + 1)?;
    for book in &mut inputs.script.books {
        for (k, push) in book.pushes.iter_mut().enumerate() {
            push.1 = table.expected_emissions(0, k * BURST, (k + 1) * BURST) as u32;
        }
    }

    let measured = serving::measure(&fleet.server, fleet.conn, &inputs.script, tracer, trace)?;
    serving::report_common(report, &measured, &inputs.script);
    report.health("offered_steps_per_s", OFFERED_STEPS_PER_S);
    report.check(measured.after.streams_opened == STREAMS as u64, || {
        format!(
            "STATS streams_opened {} != {STREAMS} fleet OPENs",
            measured.after.streams_opened
        )
    });
    let mut open = fleet.open_lat_us.clone();
    report.layer("serve.open_p50_us", util::median(&mut open));
    report.layer("infer.quantize_ms", fleet.quantize_ms);

    if tracer.on() {
        let mut rtt = fleet.server.ping_rtts_us(200)?;
        report.layer("serve.protocol.ping_rtt_p50_us", util::median(&mut rtt));
        probes::codec(
            report,
            &inputs.script,
            &measured.outcome.sample_replies,
            tracer,
            trace,
        );
        let qplan = models::quantize(&models::temponet_plan(seed, MODEL, None), seed)?;
        probes::infer(
            report,
            &inputs.script,
            &zoo,
            Some(qplan.name()),
            tracer,
            trace,
        )?;
        report.layer(
            "infer.i8.solo_step_ns",
            probes::i8_solo_step_ns(&qplan, &inputs.samples[0]),
        );
        report.layer(
            "tensor.kernels.gemm_i8_gops",
            probes::gemm_i8_gops(&qplan, STREAMS / GROUPS),
        );
    }

    // Oracle: every output of the sampled streams, bit-exact.
    for (sid, served) in &measured.outcome.recorded {
        serving::oracle_check(
            report,
            &table,
            0,
            &inputs.samples[*sid as usize],
            served,
            || format!("stream {sid}"),
        );
    }
    drop(fleet.server);
    setups.time(
        SETUP_BATCHES,
        || set_up(seed, &dir, trace, tracer, InProcess::boot),
        |_| 0,
    )?;
    report.record_setups(&setups);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
