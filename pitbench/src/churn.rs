//! `churn_zoo`: short sessions of ragged length over a multi-model zoo,
//! driven open loop.
//!
//! Why this workload: it runs the same `serve` and `infer` layers as
//! `fleet_i8` in another way. The control path does much of the work —
//! OPEN by model name, registry lookup, pool slot allocation and reuse,
//! CLOSE flush, generation-tagged accounting — and waves are small. A
//! batching or pool change that helps `fleet_i8` but costs session
//! start-up shows here. It is also the only serving workload that runs
//! the f32 streaming runtime next to the int8 one.

use crate::calib::{SetupClock, SETUP_BATCHES};
use crate::daemon::Daemon;
use crate::drive::{Script, Slot, StreamBook};
use crate::models::{self, ZooModel, CHANNELS};
use crate::probes;
use crate::report::Report;
use crate::serving;
use crate::trace::{Trace, Tracer};
use crate::util;
use pit_infer::ZooManifest;
use pit_replay::oracle::ModelTable;
use pit_replay::workload::{self, EventKind, Workload, WorkloadConfig};
use pit_serve::protocol::{encode_client, ClientFrame};
use pit_serve::{ClientBuilder, ServerFrame};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sessions generated per second of run: the generator plays each lane's
/// sessions back to back, and at this rate the schedule ends close to the
/// run's `--seconds`.
const SESSIONS_PER_S: usize = 400;
/// Concurrent session lanes (the peak number of open streams).
const LANES: usize = 128;
/// Multiplier on the scenarios' 12 ms / 8 ms step intervals.
const TIME_SCALE: f64 = 0.125;
/// Share of sessions whose every output is checked against the oracle.
const VERIFY_FRACTION: f64 = 0.02;
/// Steps out to which each model's emission cadence is probed; no session
/// segment is longer (the generator caps sessions at 4 × 32 steps).
const CADENCE_HORIZON: usize = 512;
/// Set-ups per timed batch (~20 ms each).
const SETUPS_PER_BATCH: usize = 2;

/// The zoo's models: two TEMPONet/8 architectures, each served in f32 and
/// in int8.
fn build_zoo(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let a = models::temponet_plan(seed ^ 0xA, "zoo-a", None);
    let b = models::temponet_plan(seed ^ 0xB, "zoo-b", Some(&[1, 1, 1, 2, 8, 16, 8]));
    let qa = models::quantize(&a, seed)?;
    let qb = models::quantize(&b, seed)?;
    models::write_zoo(
        dir,
        &[
            ZooModel::F32(&a),
            ZooModel::I8(&qa),
            ZooModel::F32(&b),
            ZooModel::I8(&qb),
        ],
    )
}

/// The population's configuration for `seconds` of run.
pub fn workload_config(seed: u64, seconds: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        sessions: SESSIONS_PER_S * seconds as usize,
        connections: 1,
        lanes_per_conn: LANES,
        duration_us: seconds * 1_000_000,
        time_scale: TIME_SCALE,
        verify_fraction: VERIFY_FRACTION,
        abandon_p: 0.07,
        reconnect_p: 0.12,
    }
}

/// Which session segment and model each stream id carries.
#[derive(Debug, Clone, Copy)]
struct StreamMeta {
    /// Workload-global session index.
    pub session: u32,
    /// Segment within the session.
    pub segment: u32,
    /// Index into the zoo's model list.
    pub model: usize,
}

/// Turns the population's single connection script into send slots and
/// reply books, owed emissions taken from each model's cadence.
fn script(wl: &Workload, table: &ModelTable) -> (Script, Vec<StreamMeta>) {
    let events = &wl.conns[0].events;
    let streams = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Open { stream, .. } => Some(stream as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut books = vec![StreamBook::default(); streams];
    let mut meta = vec![
        StreamMeta {
            session: 0,
            segment: 0,
            model: 0,
        };
        streams
    ];
    let mut stepped = vec![0usize; streams];
    let mut slots: Vec<Slot> = Vec::new();
    for ev in events {
        let (frame, sid, steps) = match &ev.kind {
            EventKind::Open {
                stream,
                model,
                session,
                segment,
                verify,
                ..
            } => {
                let s = *stream as usize;
                books[s].open_at_us = Some(ev.at_us);
                books[s].record = *verify;
                meta[s] = StreamMeta {
                    session: *session,
                    segment: *segment,
                    model: *model,
                };
                let frame = ClientFrame::Open {
                    stream_id: *stream,
                    model: Some(wl.models[*model].name.clone()),
                };
                (frame, *session, 0)
            }
            EventKind::Push { stream, samples } => {
                let s = *stream as usize;
                let steps = samples.len() / CHANNELS;
                let owed = table.expected_emissions(meta[s].model, stepped[s], stepped[s] + steps);
                stepped[s] += steps;
                books[s].pushes.push((ev.at_us, owed as u32));
                let frame = ClientFrame::Push {
                    stream_id: *stream,
                    channels: CHANNELS as u32,
                    samples: samples.clone(),
                };
                (frame, meta[s].session, steps as u32)
            }
            EventKind::Close { stream } => {
                books[*stream as usize].closes = true;
                let frame = ClientFrame::Close { stream_id: *stream };
                (frame, meta[*stream as usize].session, 0)
            }
        };
        match slots.last_mut() {
            Some(slot) if slot.at_us == ev.at_us => {
                slot.bytes.extend(encode_client(&frame));
                slot.frames += 1;
                slot.steps += steps;
            }
            _ => slots.push(Slot {
                at_us: ev.at_us,
                bytes: encode_client(&frame),
                frames: 1,
                steps,
                id: sid as u64,
            }),
        }
    }
    (Script { slots, books }, meta)
}

/// Set-up: boot the daemon on the zoo (it loads and registers every
/// artifact) and wait until it answers a PING.
///
/// Unlike `fleet_i8`, the timed set-ups boot the daemon child itself: the
/// zoo load dominates this set-up, and it is steadier in a fresh process
/// than inside the benchmark's own large heap.
fn set_up(zoo: &Path, trace: &mut Trace, tracer: &Tracer) -> Result<Daemon, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(zoo)?;
    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(5))
        .connect(daemon.addr)
        .map_err(|e| format!("connect: {e}"))?;
    client.ping(1).map_err(|e| format!("PING: {e}"))?;
    loop {
        if let ServerFrame::Pong { .. } = client.recv().map_err(|e| format!("PONG: {e}"))? {
            break;
        }
    }
    trace.record(tracer, "churn.setup", 0, start, None);
    Ok(daemon)
}

/// Runs the workload once; fills `report` and `trace`.
pub fn run(
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<(), String> {
    let dir = serving::scratch_dir("churn_zoo")?;
    let zoo = build_zoo(seed, &dir)?;
    let (manifest, base) = ZooManifest::load(&zoo)?;
    let table = ModelTable::load(&manifest, &base, CADENCE_HORIZON)?;
    let gen = Instant::now();
    let wl = workload::generate(&workload_config(seed, seconds), &table.specs());
    report.layer(
        "replay.workload.generate_ms",
        gen.elapsed().as_secs_f64() * 1e3,
    );
    let (script, meta) = script(&wl, &table);

    let mut setups = SetupClock::new(SETUPS_PER_BATCH);
    let daemon = setups
        .time(
            SETUP_BATCHES,
            || set_up(&zoo, trace, tracer),
            Daemon::cpu_ns,
        )?
        .expect("at least one set-up");

    let conn = std::net::TcpStream::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let measured = serving::measure(&daemon, conn, &script, tracer, trace)?;
    serving::report_common(report, &measured, &script);
    report.health(
        "offered_steps_per_s",
        format!("{:.0}", script.steps() as f64 / seconds as f64),
    );
    report.health("schedule_s", wl.end_us as f64 / 1e6);
    report.health("sessions", wl.total_sessions);
    report.health("segments", wl.total_segments);

    if tracer.on() {
        let mut rtt = daemon.ping_rtts_us(200)?;
        report.layer("serve.protocol.ping_rtt_p50_us", util::median(&mut rtt));
        probes::codec(
            report,
            &script,
            &measured.outcome.sample_replies,
            tracer,
            trace,
        );
        probes::infer(report, &script, &zoo, None, tracer, trace)?;
    }

    // Oracle: every output of the sampled sessions' segments.
    let mut by_session: BTreeMap<u32, Vec<(u32, &Vec<f32>)>> = BTreeMap::new();
    for (sid, served) in &measured.outcome.recorded {
        by_session
            .entry(meta[*sid as usize].session)
            .or_default()
            .push((*sid, served));
    }
    for (session, streams) in by_session {
        let inputs = workload::session_inputs(&wl, session);
        for (sid, served) in streams {
            let m = meta[sid as usize];
            let segment = inputs
                .get(m.segment as usize)
                .map_or(&[][..], Vec::as_slice);
            serving::oracle_check(report, &table, m.model, segment, served, || {
                format!("session {session} segment {}", m.segment)
            });
        }
    }
    drop(daemon);
    setups.time(
        SETUP_BATCHES,
        || set_up(&zoo, trace, tracer),
        Daemon::cpu_ns,
    )?;
    report.record_setups(&setups);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
