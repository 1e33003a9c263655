//! Per-layer probes of a traced run: the benchmark times calls into the
//! program's public layers on the run's own inputs, in-process.
//!
//! * `serve.protocol`: the codec, on the frames the run sent and a sample of
//!   the replies it received.
//! * `infer`: the run's send slots replayed as waves through the public
//!   session pools (one flush per slot, as the daemon flushes one wave per
//!   tick), solo sessions, and pool slot open/close.
//! * `tensor.kernels`: the int8 GEMM at the served plan's wave shapes and
//!   the f32 causal convolution at the searched network's shapes, with
//!   operation counts computed from the tensor sizes.

use crate::drive::Script;
use crate::models::CHANNELS;
use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::util;
use pit_infer::{
    PlanArtifact, QuantBlock, QuantizedPlan, QuantizedSession, StreamPool, ZooManifest,
};
use pit_infer::{QuantizedSessionPool, SessionPool};
use pit_serve::protocol::{
    decode_client, decode_server, encode_client, encode_server, ClientFrame,
};
use pit_tensor::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Frame bodies timed per codec probe.
const CODEC_FRAMES: usize = 4096;
/// Send slots replayed through the pools.
const REPLAY_SLOTS: usize = 4000;

/// The frame bodies in a buffer of length-prefixed frames.
fn bodies(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if at + 4 + len > bytes.len() {
            break;
        }
        out.push(&bytes[at + 4..at + 4 + len]);
        at += 4 + len;
    }
    out
}

/// Mean ns per call of `f` over `items`, repeated until at least 50 ms.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed().as_millis() < 50 {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Times the codec on the run's own frames; `replies` are reply bodies as
/// received.
pub fn codec(
    report: &mut Report,
    script: &Script,
    replies: &[Vec<u8>],
    tracer: &Tracer,
    trace: &mut Trace,
) {
    let t0 = Instant::now();
    let sent: Vec<&[u8]> = script
        .slots
        .iter()
        .flat_map(|s| bodies(&s.bytes))
        .take(CODEC_FRAMES)
        .collect();
    let client: Vec<ClientFrame> = sent.iter().filter_map(|b| decode_client(b).ok()).collect();
    let server: Vec<_> = replies
        .iter()
        .filter_map(|b| decode_server(b).ok())
        .collect();
    report.layer(
        "serve.protocol.decode_client_ns_per_frame",
        ns_per_item(&sent, |b| {
            black_box(decode_client(black_box(b)).ok());
        }),
    );
    report.layer(
        "serve.protocol.encode_client_ns_per_frame",
        ns_per_item(&client, |f| {
            black_box(encode_client(black_box(f)));
        }),
    );
    report.layer(
        "serve.protocol.decode_server_ns_per_frame",
        ns_per_item(replies, |b| {
            black_box(decode_server(black_box(b)).ok());
        }),
    );
    report.layer(
        "serve.protocol.encode_server_ns_per_frame",
        ns_per_item(&server, |f| {
            black_box(encode_server(black_box(f)));
        }),
    );
    trace.record(tracer, "probe.serve.protocol", 0, t0, None);
}

/// The zoo's models loaded in-process, in manifest order, with the time
/// the load took.
fn load_zoo(zoo: &Path) -> Result<(Vec<(String, PlanArtifact)>, f64), String> {
    let t0 = Instant::now();
    let (manifest, base) = ZooManifest::load(zoo)?;
    let mut models = Vec::new();
    for entry in &manifest.models {
        models.push((
            entry.name.clone(),
            PlanArtifact::load(&entry.artifact_path(base.as_path()))?,
        ));
    }
    Ok((models, t0.elapsed().as_secs_f64() * 1e3))
}

fn pool_for(artifact: &PlanArtifact) -> Box<dyn StreamPool> {
    match artifact {
        PlanArtifact::F32(p) => Box::new(SessionPool::new(Arc::new(p.clone()), 0)),
        PlanArtifact::I8(q) => Box::new(QuantizedSessionPool::new(Arc::new(q.clone()), 0)),
    }
}

/// Median ns of one `open_stream` + `close_stream` pair on `pool`.
fn open_close_ns(pool: &mut dyn StreamPool) -> f64 {
    let mut runs = [0f64; 5];
    for r in runs.iter_mut() {
        let t0 = Instant::now();
        for _ in 0..2000 {
            let sid = pool.open_stream();
            pool.close_stream(black_box(sid));
        }
        *r = t0.elapsed().as_nanos() as f64 / 2000.0;
    }
    util::median(&mut runs)
}

/// Replays the run's send slots through in-process pools of the zoo's
/// models — OPEN opens a slot in the named model's pool, PUSH queues the
/// timesteps, CLOSE closes the slot, and every pool flushes once per send
/// slot — and records the `infer` layer metrics. `default_model` names the
/// pool of streams the run opened before its script started.
pub fn infer(
    report: &mut Report,
    script: &Script,
    zoo: &Path,
    default_model: Option<&str>,
    tracer: &Tracer,
    trace: &mut Trace,
) -> Result<(), String> {
    let t0 = Instant::now();
    let (models, load_ms) = load_zoo(zoo)?;
    report.layer("infer.zoo_load_ms", load_ms);
    let index: HashMap<&str, usize> = models
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    let mut pools: Vec<Box<dyn StreamPool>> = models.iter().map(|(_, a)| pool_for(a)).collect();
    let is_i8: Vec<bool> = models
        .iter()
        .map(|(_, a)| matches!(a, PlanArtifact::I8(_)))
        .collect();
    // Connection stream id → (pool, slot).
    let mut streams: HashMap<u32, (usize, usize)> = HashMap::new();
    if let Some(name) = default_model {
        let m = *index.get(name).ok_or("unknown default model")?;
        for sid in 0..script.books.len() as u32 {
            streams.insert(sid, (m, pools[m].open_stream()));
        }
    }
    let mut wave_ns = [0u64; 2];
    let mut wave_steps = [0u64; 2];
    let mut pending = vec![0u64; pools.len()];
    for slot in script.slots.iter().take(REPLAY_SLOTS) {
        for body in bodies(&slot.bytes) {
            match decode_client(body).map_err(|e| e.to_string())? {
                ClientFrame::Open { stream_id, model } => {
                    let m = model
                        .as_deref()
                        .and_then(|n| index.get(n).copied())
                        .unwrap_or(0);
                    streams.insert(stream_id, (m, pools[m].open_stream()));
                }
                ClientFrame::Push {
                    stream_id, samples, ..
                } => {
                    if let Some(&(m, sid)) = streams.get(&stream_id) {
                        for step in samples.chunks_exact(CHANNELS) {
                            pools[m].push(sid, step);
                        }
                        pending[m] += (samples.len() / CHANNELS) as u64;
                    }
                }
                ClientFrame::PushN {
                    entries, samples, ..
                } => {
                    let mut at = 0usize;
                    for (stream_id, count) in entries {
                        let len = count as usize * CHANNELS;
                        if let Some(&(m, sid)) = streams.get(&stream_id) {
                            for step in samples[at..at + len].chunks_exact(CHANNELS) {
                                pools[m].push(sid, step);
                            }
                            pending[m] += count as u64;
                        }
                        at += len;
                    }
                }
                ClientFrame::Close { stream_id } => {
                    if let Some((m, sid)) = streams.remove(&stream_id) {
                        let w = Instant::now();
                        black_box(pools[m].flush());
                        wave_ns[is_i8[m] as usize] += w.elapsed().as_nanos() as u64;
                        wave_steps[is_i8[m] as usize] += std::mem::take(&mut pending[m]);
                        pools[m].close_stream(sid);
                    }
                }
                _ => {}
            }
        }
        for (m, pool) in pools.iter_mut().enumerate() {
            if pending[m] > 0 {
                let w = Instant::now();
                black_box(pool.flush());
                wave_ns[is_i8[m] as usize] += w.elapsed().as_nanos() as u64;
                wave_steps[is_i8[m] as usize] += std::mem::take(&mut pending[m]);
            }
        }
    }
    let per_step = |k: usize| wave_ns[k] as f64 / wave_steps[k].max(1) as f64;
    if wave_steps[1] > 0 {
        report.layer("infer.i8.wave_ns_per_step", per_step(1));
    }
    if wave_steps[0] > 0 {
        report.layer("infer.f32.wave_ns_per_step", per_step(0));
    }
    let all_steps = (wave_steps[0] + wave_steps[1]).max(1);
    let wave_all = (wave_ns[0] + wave_ns[1]) as f64 / all_steps as f64;
    if let Some(cpu) = report.get("cpu_ns_per_step") {
        report.layer("serve.overhead_ns_per_step", cpu - wave_all);
        report.health(
            "overhead_bases",
            format!("cpu_ns_per_step {cpu:.1} - infer wave {wave_all:.1} ns/step"),
        );
    }
    for (m, (_, artifact)) in models.iter().enumerate() {
        let ns = open_close_ns(pools[m].as_mut());
        match artifact {
            PlanArtifact::I8(_) => report.layer("infer.i8.open_close_ns", ns),
            PlanArtifact::F32(_) => report.layer("infer.f32.open_close_ns", ns),
        }
    }
    trace.record(tracer, "probe.infer", 0, t0, None);
    Ok(())
}

/// Median ns per step of a solo int8 session over `inputs`.
pub fn i8_solo_step_ns(plan: &QuantizedPlan, inputs: &[f32]) -> f64 {
    let plan = Arc::new(plan.clone());
    let steps = inputs.len() / CHANNELS;
    let mut runs = [0f64; 5];
    for r in runs.iter_mut() {
        let mut session = QuantizedSession::new(Arc::clone(&plan));
        let t0 = Instant::now();
        for step in inputs.chunks_exact(CHANNELS) {
            black_box(session.push(black_box(step)));
        }
        *r = t0.elapsed().as_nanos() as f64 / steps.max(1) as f64;
    }
    util::median(&mut runs)
}

/// Int8 GEMM throughput at the served plan's wave shapes: per conv layer,
/// `[streams × (c_in·k)] · [(c_in·k) × c_out]`; 2 operations per
/// multiply-accumulate.
pub fn gemm_i8_gops(plan: &QuantizedPlan, streams: usize) -> f64 {
    let mut shapes = Vec::new();
    for block in plan.blocks() {
        let convs: Vec<_> = match block {
            QuantBlock::Plain { convs, .. } => convs.iter().collect(),
            QuantBlock::Residual {
                conv1,
                conv2,
                downsample,
            } => [Some(conv1), Some(conv2), downsample.as_ref()]
                .into_iter()
                .flatten()
                .collect(),
        };
        for c in convs {
            shapes.push((streams, c.in_channels() * c.kernel(), c.out_channels()));
        }
    }
    let mut ops = 0f64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 200 {
        for &(m, kd, n) in &shapes {
            let a = vec![3i8; m * kd];
            let b = vec![-2i8; kd * n];
            let mut out = vec![0i32; m * n];
            kernels::gemm_i8(m, kd, n, black_box(&a), black_box(&b), &mut out);
            black_box(&out);
            ops += 2.0 * (m * kd * n) as f64;
        }
    }
    ops / start.elapsed().as_secs_f64() / 1e9
}

/// f32 causal-convolution throughput at the searched network's layer
/// shapes (`[batch, c_in, window]` input, `[c_out, c_in, rf_max]` weight):
/// `(forward, gradient)` GFLOP/s, where the gradient is the input and the
/// weight gradient together (twice the forward's 2·MAC operations).
pub fn conv1d_gflops(layers: &[(usize, usize, usize)], batch: usize, window: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(7);
    let cases: Vec<(Tensor, Tensor, usize)> = layers
        .iter()
        .map(|&(c_in, c_out, k)| {
            (
                init::uniform(&mut rng, &[batch, c_in, window], 1.0),
                init::uniform(&mut rng, &[c_out, c_in, k], 0.5),
                k,
            )
        })
        .collect();
    let macs: f64 = layers
        .iter()
        .map(|&(ci, co, k)| (batch * ci * co * k * window) as f64)
        .sum();
    let time = |f: &dyn Fn(&Tensor, &Tensor, usize)| -> f64 {
        let start = Instant::now();
        let mut rounds = 0u64;
        while rounds == 0 || start.elapsed().as_millis() < 200 {
            for (x, w, k) in &cases {
                f(x, w, *k);
            }
            rounds += 1;
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    let fwd = time(&|x, w, _| {
        black_box(x.conv1d_causal(w, None, 1).expect("conv shapes"));
    });
    let grad = time(&|x, w, k| {
        let g = x.conv1d_causal(w, None, 1).expect("conv shapes");
        black_box(Tensor::conv1d_causal_grad_input(&g, w, x.dims(), 1).expect("grad shapes"));
        black_box(Tensor::conv1d_causal_grad_weight(x, &g, k, 1).expect("grad shapes"));
    }) - fwd;
    (2.0 * macs / fwd / 1e9, 4.0 * macs / grad.max(1e-12) / 1e9)
}
