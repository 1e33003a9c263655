//! The sharded wave batcher: N independent threads, each owning one
//! [`StreamPool`] shard *per registry model*, together serving thousands
//! of streams across a whole model zoo.
//!
//! A stream is pinned to its shard at OPEN time by a stable hash of
//! `(connection, stream id)` — the edge routes every later PUSH/CLOSE for
//! that stream to the same shard, so a shard's pools and stream tables are
//! single-threaded and lock-free exactly like the old one-batcher design,
//! just `shards`-times over. One generic implementation serves both
//! precisions through `Box<dyn StreamPool>` (this file replaced 24
//! hand-written `F32`/`I8` match arms). Multi-model serving keeps the
//! layout: the shard holds one pool per model (same index order as the
//! edge registry), the edge resolves a stream's model at OPEN, and a wave
//! flushes every pool with pending timesteps — each model still batches
//! its own streams into single GEMMs.
//!
//! Shards decide nothing about a stream's life: the edge admits every OPEN
//! (and sends its OPENED), validates every PUSH, and decides CLOSE, idle
//! eviction and disconnect. A shard applies the routed events in its
//! channel's FIFO order, so it always sees a stream's Open before its
//! pushes and no event after its Close or Evict.
//!
//! Shards never touch a socket: replies are encoded into the connection's
//! [`OutBuf`] and the edge is woken through the self-pipe [`Waker`] to
//! drain them. The little cross-thread state a shard shares is explicit:
//! the per-connection pending-timestep counter (backpressure, edge
//! increments / shard decrements), the per-connection v2 latch (EMIT vs
//! EMIT_N formatting), its [`ShardStats`] block and the per-model
//! [`ModelStats`] blocks shared by every shard.

#[cfg(feature = "chaos")]
use crate::chaos::FaultInjector;
use crate::edge::{OutBuf, Waker};
use crate::protocol::{encode_server, CloseReason, ServerFrame, MAX_FRAME_BODY};
use crate::server::{ConnId, ServeEngine};
use crate::stats::{ModelStats, ShardStats};
use crate::telemetry::{Telemetry, TraceKind};
use pit_infer::StreamPool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the edge routes to a shard.
pub(crate) enum ShardEvent {
    /// A connection exists (broadcast to every shard on accept): the
    /// handles a shard needs to reply to it and account for it.
    Connected {
        conn: ConnId,
        out: Arc<OutBuf>,
        pending: Arc<AtomicUsize>,
        v2: Arc<AtomicBool>,
    },
    /// The connection is gone (broadcast): close its streams on this shard.
    Disconnected { conn: ConnId },
    /// OPEN, admitted and already answered with OPENED by the edge
    /// (`model` resolved against the registry): open the pool slot.
    Open {
        conn: ConnId,
        stream_id: u32,
        model: usize,
    },
    /// CLOSE, pre-validated by the edge (the stream was open there).
    Close { conn: ConnId, stream_id: u32 },
    /// The edge evicted the stream for idleness: drop its queued timesteps.
    Evict { conn: ConnId, stream_id: u32 },
    /// `count` timesteps for one stream (a v1 PUSH, or one entry of a v2
    /// PUSH_N). The edge already validated channels and charged `count`
    /// to the connection's pending counter.
    Push {
        conn: ConnId,
        stream_id: u32,
        count: usize,
        samples: Vec<f32>,
    },
    /// Register one more model (broadcast): the shard appends a fresh pool
    /// at the next registry index, mirroring the edge's table.
    AddModel {
        engine: ServeEngine,
        stats: Arc<ModelStats>,
    },
    /// Atomically replace model `model`'s engine (broadcast; only sent
    /// while that model has zero open streams).
    Swap { model: usize, engine: ServeEngine },
}

/// Trace-event close code for streams torn down by a disconnect — the
/// wire [`CloseReason`]s stop at 2 because no CLOSED frame is sent to a
/// connection that is already gone.
const CLOSE_DISCONNECTED: u64 = 3;

struct ShardConn {
    out: Arc<OutBuf>,
    /// Connection-wide queued-timestep counter (shared with the edge,
    /// which enforces the backpressure cap against it before forwarding).
    pending: Arc<AtomicUsize>,
    /// Latched once the connection sends a PUSH_N: emissions coalesce into
    /// EMIT_N frames.
    v2: Arc<AtomicBool>,
    /// Connection-scoped stream id → `(model, pool slot)` on this shard.
    streams: HashMap<u32, (usize, usize)>,
    /// Timesteps this shard queued for the connection since the last wave
    /// (this shard's share of `pending`).
    queued: usize,
}

struct StreamInfo {
    conn: ConnId,
    client_id: u32,
}

pub(crate) struct Shard {
    /// This shard's index in the edge's shard table (trace-event label).
    index: usize,
    /// One pool per registry model, same index order as the edge's table.
    pools: Vec<Box<dyn StreamPool>>,
    /// Per-model counter blocks, shared with every other shard.
    model_stats: Vec<Arc<ModelStats>>,
    tick: Duration,
    conns: HashMap<ConnId, ShardConn>,
    /// `(model, pool slot)` → owner.
    streams: HashMap<(usize, usize), StreamInfo>,
    stats: Arc<ShardStats>,
    telemetry: Arc<Telemetry>,
    waker: Waker,
    /// Set when this iteration queued reply bytes: ring the edge once per
    /// iteration, not once per frame.
    wrote: bool,
    /// Chaos fault seam (wakeup delays, wave stalls); `None` injects
    /// nothing.
    #[cfg(feature = "chaos")]
    faults: Option<Arc<FaultInjector>>,
}

impl Shard {
    pub(crate) fn new(
        index: usize,
        models: &[(ServeEngine, Arc<ModelStats>)],
        tick: Duration,
        stats: Arc<ShardStats>,
        telemetry: Arc<Telemetry>,
        waker: Waker,
    ) -> Self {
        Self {
            index,
            pools: models.iter().map(|(e, _)| e.new_pool()).collect(),
            model_stats: models.iter().map(|(_, s)| Arc::clone(s)).collect(),
            tick,
            conns: HashMap::new(),
            streams: HashMap::new(),
            stats,
            telemetry,
            waker,
            wrote: false,
            #[cfg(feature = "chaos")]
            faults: None,
        }
    }

    /// Installs the chaos fault seam (builder-style, used by the server
    /// when [`crate::ServerConfig::faults`] is set).
    #[cfg(feature = "chaos")]
    pub(crate) fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    /// Records one per-stream event in the global trace ring.
    fn trace(&self, kind: TraceKind, conn: ConnId, stream: u32, model: usize, count: u64) {
        self.telemetry.trace.record(
            kind,
            conn,
            Some(stream),
            Some(self.index),
            Some(model),
            count,
            self.telemetry.now_us(),
        );
    }

    fn send(&mut self, conn: ConnId, frame: &ServerFrame) {
        if let Some(state) = self.conns.get(&conn) {
            state.out.push(encode_server(frame));
            self.wrote = true;
        }
    }

    fn handle(&mut self, event: ShardEvent) {
        match event {
            ShardEvent::Connected {
                conn,
                out,
                pending,
                v2,
            } => {
                self.conns.insert(
                    conn,
                    ShardConn {
                        out,
                        pending,
                        v2,
                        streams: HashMap::new(),
                        queued: 0,
                    },
                );
            }
            ShardEvent::Disconnected { conn } => {
                if let Some(state) = self.conns.remove(&conn) {
                    state.pending.fetch_sub(state.queued, Ordering::Relaxed);
                    for (stream_id, (model, slot)) in state.streams {
                        self.pools[model].close_stream(slot);
                        self.streams.remove(&(model, slot));
                        self.trace(TraceKind::Close, conn, stream_id, model, CLOSE_DISCONNECTED);
                    }
                    self.stats
                        .streams_open
                        .store(self.streams.len() as u64, Ordering::Relaxed);
                }
            }
            ShardEvent::Open {
                conn,
                stream_id,
                model,
            } => self.handle_open(conn, stream_id, model),
            ShardEvent::Close { conn, stream_id } => {
                self.end_stream(conn, stream_id, CloseReason::ByClient);
            }
            ShardEvent::Evict { conn, stream_id } => {
                self.end_stream(conn, stream_id, CloseReason::IdleEvicted);
            }
            ShardEvent::Push {
                conn,
                stream_id,
                count,
                samples,
            } => self.handle_push(conn, stream_id, count, &samples),
            ShardEvent::AddModel { engine, stats } => {
                self.pools.push(engine.new_pool());
                self.model_stats.push(stats);
            }
            ShardEvent::Swap { model, engine } => {
                // Only broadcast while the named model has zero open
                // streams server-wide; a shard with live streams of it (an
                // impossible race would be an edge bug) keeps its pool
                // rather than corrupting them.
                if self.streams.keys().all(|&(m, _)| m != model) {
                    self.pools[model] = engine.new_pool();
                }
            }
        }
    }

    fn handle_open(&mut self, conn: ConnId, stream_id: u32, model: usize) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let slot = self.pools[model].open_stream();
        state.streams.insert(stream_id, (model, slot));
        self.streams.insert(
            (model, slot),
            StreamInfo {
                conn,
                client_id: stream_id,
            },
        );
        self.stats.streams_opened.fetch_add(1, Ordering::Relaxed);
        self.model_stats[model]
            .streams_opened
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .streams_open
            .store(self.streams.len() as u64, Ordering::Relaxed);
        self.trace(TraceKind::Open, conn, stream_id, model, 0);
    }

    /// Ends one stream and sends its CLOSED. A CLOSE or a drain is an
    /// orderly end: timesteps the stream already pushed become final
    /// emissions first. An idle eviction drops them and refunds their
    /// pending charge.
    fn end_stream(&mut self, conn: ConnId, stream_id: u32, reason: CloseReason) {
        let Some((model, slot)) = self
            .conns
            .get_mut(&conn)
            .and_then(|c| c.streams.remove(&stream_id))
        else {
            return;
        };
        let pending = self.pools[model].pending_for(slot);
        let (kind, count) = if reason == CloseReason::IdleEvicted {
            if let Some(state) = self.conns.get_mut(&conn) {
                state.queued = state.queued.saturating_sub(pending);
                state.pending.fetch_sub(pending, Ordering::Relaxed);
            }
            self.stats.streams_evicted.fetch_add(1, Ordering::Relaxed);
            (TraceKind::Evict, pending as u64)
        } else {
            if pending > 0 {
                self.run_wave();
            }
            (TraceKind::Close, reason as u64)
        };
        self.pools[model].close_stream(slot);
        self.streams.remove(&(model, slot));
        self.stats
            .streams_open
            .store(self.streams.len() as u64, Ordering::Relaxed);
        self.trace(kind, conn, stream_id, model, count);
        self.send(conn, &ServerFrame::Closed { stream_id, reason });
    }

    fn handle_push(&mut self, conn: ConnId, stream_id: u32, count: usize, samples: &[f32]) {
        let Some(&(model, slot)) = self
            .conns
            .get(&conn)
            .and_then(|c| c.streams.get(&stream_id))
        else {
            return;
        };
        let c_in = self.pools[model].input_channels();
        for sample in samples.chunks_exact(c_in) {
            self.pools[model].push(slot, sample);
        }
        if let Some(state) = self.conns.get_mut(&conn) {
            state.queued += count;
        }
        self.stats
            .timesteps_in
            .fetch_add(count as u64, Ordering::Relaxed);
        self.model_stats[model]
            .timesteps_in
            .fetch_add(count as u64, Ordering::Relaxed);
        self.trace(TraceKind::Push, conn, stream_id, model, count as u64);
    }

    /// One batched wave: flush every model pool with queued timesteps (one
    /// GEMM per layer per model per wave) and route emissions back —
    /// per-stream EMIT frames for v1 connections, one coalesced EMIT_N per
    /// connection per model for v2.
    fn run_wave(&mut self) {
        // Chaos: stall the flush to widen the window in which closes,
        // disconnects and evictions land on streams mid-wave.
        #[cfg(feature = "chaos")]
        if let Some(faults) = &self.faults {
            faults.wave_stall();
        }
        // One pass over the stream map for every model's occupancy —
        // rescanning per registry entry would cost O(models × streams)
        // each tick.
        let mut per_model = vec![0usize; self.pools.len()];
        for &(model, slot) in self.streams.keys() {
            if self.pools[model].pending_for(slot) > 0 {
                per_model[model] += 1;
            }
        }
        let mut flushed = false;
        for (model, occupancy) in per_model.into_iter().enumerate() {
            if occupancy == 0 {
                continue;
            }
            let t0 = Instant::now();
            let results = self.pools[model].flush();
            let elapsed = t0.elapsed();
            self.stats.record_wave(occupancy, elapsed);
            self.model_stats[model].record_wave(occupancy, elapsed);
            flushed = true;
            self.route_emissions(model, results);
        }
        if !flushed {
            return;
        }
        // The flushes drained every queue on this shard: refund each
        // connection's share of its pending counter.
        for state in self.conns.values_mut() {
            if state.queued > 0 {
                state.pending.fetch_sub(state.queued, Ordering::Relaxed);
                state.queued = 0;
            }
        }
    }

    /// Routes one model's flush results to their connections.
    fn route_emissions(&mut self, model: usize, results: Vec<(usize, Vec<f32>)>) {
        if results.is_empty() {
            return;
        }
        // Coalesce each stream's chronological emissions.
        let dim = self.pools[model].output_dim().max(1);
        let mut per_stream: HashMap<usize, Vec<f32>> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        for (slot, out) in results {
            let entry = per_stream.entry(slot).or_insert_with(|| {
                order.push(slot);
                Vec::new()
            });
            entry.extend_from_slice(&out);
        }
        // Frames must stay under the protocol's body bound: cap the vectors
        // per frame and split a backlog across frames (order preserved).
        let max_vectors_per_frame = ((MAX_FRAME_BODY - 64) / (4 * dim)).max(1);
        let mut emit_n: HashMap<ConnId, EmitNBuilder> = HashMap::new();
        let mut conn_order: Vec<ConnId> = Vec::new();
        for slot in order {
            let outputs = per_stream.remove(&slot).expect("grouped above");
            let emitted = (outputs.len() / dim) as u64;
            self.stats
                .emissions_out
                .fetch_add(emitted, Ordering::Relaxed);
            self.model_stats[model]
                .emissions_out
                .fetch_add(emitted, Ordering::Relaxed);
            let Some(info) = self.streams.get(&(model, slot)) else {
                continue;
            };
            let (conn, stream_id) = (info.conn, info.client_id);
            self.trace(TraceKind::Emit, conn, stream_id, model, emitted);
            let v2 = self
                .conns
                .get(&conn)
                .map(|c| c.v2.load(Ordering::Relaxed))
                .unwrap_or(false);
            if v2 {
                let builder = emit_n.entry(conn).or_insert_with(|| {
                    conn_order.push(conn);
                    EmitNBuilder::new(dim)
                });
                for chunk in outputs.chunks(max_vectors_per_frame * dim) {
                    if let Some(full) = builder.add(stream_id, chunk) {
                        self.send(conn, &full);
                    }
                }
            } else {
                for chunk in outputs.chunks(max_vectors_per_frame * dim) {
                    self.send(
                        conn,
                        &ServerFrame::Emit {
                            stream_id,
                            count: (chunk.len() / dim) as u32,
                            dim: dim as u32,
                            outputs: chunk.to_vec(),
                        },
                    );
                }
            }
        }
        for conn in conn_order {
            if let Some(frame) = emit_n.remove(&conn).expect("built above").finish() {
                self.send(conn, &frame);
            }
        }
    }

    /// Timesteps queued across every model pool on this shard.
    fn pending_steps(&self) -> usize {
        self.pools.iter().map(|p| p.pending_steps()).sum()
    }

    /// Graceful drain: end every stream the orderly way, so queued
    /// timesteps become final emissions before each CLOSED.
    fn drain(&mut self) {
        let open: Vec<(ConnId, u32)> = self
            .streams
            .values()
            .map(|info| (info.conn, info.client_id))
            .collect();
        for (conn, stream_id) in open {
            self.end_stream(conn, stream_id, CloseReason::Drained);
        }
    }

    /// The shard thread: collect routed events, run at most one wave per
    /// tick, and drain when the edge closes the channel.
    pub(crate) fn run(mut self, rx: Receiver<ShardEvent>) {
        let mut next_wave = Instant::now();
        loop {
            let received = if self.pending_steps() > 0 {
                rx.recv_timeout(next_wave.saturating_duration_since(Instant::now()))
            } else {
                // Idle: no wave is owed until the edge routes an event.
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            let mut disconnected = false;
            // Events fully handled this iteration — balanced against the
            // `inflight` charges the edge made when routing them.
            let mut handled = 0u64;
            match received {
                Ok(event) => {
                    // Chaos: sleep between receiving and handling, so the
                    // edge's view and this shard's view stay divergent for
                    // longer than any natural schedule would allow.
                    #[cfg(feature = "chaos")]
                    if let Some(faults) = &self.faults {
                        faults.shard_wakeup();
                    }
                    self.handle(event);
                    handled += 1;
                    while let Ok(event) = rx.try_recv() {
                        self.handle(event);
                        handled += 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
            if disconnected {
                // The edge dropped the senders after its final read sweep:
                // everything routed is already handled (the channel delivers
                // buffered events before reporting disconnect).
                self.drain();
                self.stats.queued_steps.store(0, Ordering::Release);
                self.stats.ticks.fetch_add(1, Ordering::Release);
                break;
            }
            if self.pending_steps() > 0 && Instant::now() >= next_wave {
                self.run_wave();
                next_wave = Instant::now() + self.tick;
            }
            // Settling order matters: publish the pool backlog first, then
            // release the inflight charges. A snapshot that observes
            // `inflight == 0` (Acquire) therefore also observes the queued
            // backlog these events created — it can never read 0/0 while a
            // wave is still owed. Both stores are Release so a settled
            // observation implies every counter update above is visible.
            self.stats
                .queued_steps
                .store(self.pending_steps() as u64, Ordering::Release);
            if handled > 0 {
                self.stats.inflight.fetch_sub(handled, Ordering::Release);
            }
            self.stats.ticks.fetch_add(1, Ordering::Release);
            if self.wrote {
                self.wrote = false;
                self.waker.wake();
            }
        }
        // Final emissions and CLOSED frames are in the outbufs; the edge is
        // joining us and flushes them once we are gone.
        self.waker.wake();
    }
}

/// Accumulates one wave's emissions for one v2 connection into EMIT_N
/// frames, splitting when a frame would exceed the protocol body bound.
struct EmitNBuilder {
    dim: usize,
    entries: Vec<(u32, u32)>,
    outputs: Vec<f32>,
}

impl EmitNBuilder {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            entries: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn frame_bytes(entries: usize, values: usize) -> usize {
        // opcode + dim + entry count + entries + payload.
        1 + 4 + 4 + entries * 8 + values * 4
    }

    /// Adds one stream's chunk of output values; returns a finished frame
    /// first when adding would overflow the body bound.
    fn add(&mut self, stream_id: u32, values: &[f32]) -> Option<ServerFrame> {
        let flushed = if !self.entries.is_empty()
            && Self::frame_bytes(self.entries.len() + 1, self.outputs.len() + values.len())
                > MAX_FRAME_BODY
        {
            self.finish()
        } else {
            None
        };
        self.entries
            .push((stream_id, (values.len() / self.dim) as u32));
        self.outputs.extend_from_slice(values);
        flushed
    }

    /// The accumulated frame, if any emissions are pending.
    fn finish(&mut self) -> Option<ServerFrame> {
        if self.entries.is_empty() {
            return None;
        }
        Some(ServerFrame::EmitN {
            dim: self.dim as u32,
            entries: std::mem::take(&mut self.entries),
            outputs: std::mem::take(&mut self.outputs),
        })
    }
}
