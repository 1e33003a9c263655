//! Serving counters and the snapshot the STATS frame returns.
//!
//! The daemon's counters live in three places, mirroring its thread and
//! registry layout: the edge thread owns connection-lifecycle counters
//! (`EdgeCounters` — atomics, so the HTTP sidecar can scrape them from its
//! own thread), each wave-batcher shard owns a `ShardStats` block of
//! atomics it updates lock-free from its own thread, and each *registry
//! model* owns a `ModelStats` block all shards share — serving a zoo means
//! one model's streams spread across every shard, so its traffic is
//! accounted where the model is, not where the thread is. A STATS request
//! aggregates all of them into one [`StatsSnapshot`] — per-shard latency
//! histograms are merged before computing percentiles, so p50/p99 describe
//! the whole daemon, not one shard — with one [`ModelSnapshot`] per
//! registry entry (`pit-serve-stats/6`; the parser refuses any other
//! schema, since the daemon is the only producer and nothing persists
//! these documents).
//!
//! Latency percentiles come from the lock-free log-scale `Histogram`s of
//! `pit_tensor::hist` (exact counts, ≤ ~25% value quantization) and cover
//! the whole run — the old 4096-entry rolling windows and their mutexes
//! are gone.
//!
//! ## Snapshot settling
//!
//! Counters are written by shard threads *after* the edge routed the
//! triggering event, so a snapshot taken immediately after a PUSH can be
//! mid-flight. [`StatsSnapshot::settled`] makes that race observable: the
//! edge increments a per-shard `inflight` counter before every routed
//! event, the shard decrements it only after fully handling the event
//! (including any due wave), and `settled` is true exactly when no shard
//! has routed-but-unhandled events or queued-but-unflushed timesteps.
//! Pollers (tests, scrapers) wait for `settled` instead of sleeping.

use pit_tensor::hist::{Histogram, HistogramSnapshot};
use pit_tensor::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema tag of the stats document; the parser accepts no other.
const STATS_SCHEMA: &str = "pit-serve-stats/6";

/// A point-in-time view of the daemon's counters, as returned by the STATS
/// frame (rendered to JSON), by `GET /stats` on the metrics sidecar, and
/// by [`crate::ServerHandle::shutdown`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Name of the served plan.
    pub model: String,
    /// `"f32"` or `"i8"`.
    pub kind: String,
    /// Number of wave-batcher shards serving the pool.
    pub shards: u64,
    /// Connections accepted since boot.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections that ended with a clean client disconnect.
    pub connections_closed: u64,
    /// Connections dropped on a transport or framing error.
    pub connections_errored: u64,
    /// Connections killed by the read-progress deadline
    /// ([`crate::ServerConfig::read_progress_timeout`]) — a partial frame
    /// that never completed, or a streamless connection that went silent.
    /// A sub-category of `connections_errored` (expired connections count
    /// in both), so `closed + errored + drained + open == total` holds.
    pub connections_expired: u64,
    /// Connections still open when a graceful drain completed.
    pub connections_drained: u64,
    /// Streams currently open.
    pub streams_open: u64,
    /// Streams opened since boot.
    pub streams_opened: u64,
    /// Streams evicted for idleness.
    pub streams_evicted: u64,
    /// Timesteps accepted into pool queues since boot.
    pub timesteps_in: u64,
    /// Head outputs sent back since boot.
    pub emissions_out: u64,
    /// Frames refused with an ERROR reply (malformed, backpressure, …).
    pub frames_rejected: u64,
    /// Reply frames dropped because a client's outbound queue was full.
    pub replies_dropped: u64,
    /// Highest number of bytes ever queued toward one connection.
    pub outbuf_hwm_bytes: u64,
    /// Pool waves (flush calls that served at least one stream).
    pub waves: u64,
    /// Mean number of streams served per wave.
    pub wave_occupancy: f64,
    /// Median wave (flush) latency in nanoseconds since boot.
    pub wave_p50_ns: u64,
    /// 99th-percentile wave latency in nanoseconds since boot.
    pub wave_p99_ns: u64,
    /// 99.9th-percentile wave latency in nanoseconds since boot (v6+;
    /// zero when parsed from an older document).
    pub wave_p999_ns: u64,
    /// Total shard loop iterations: a monotone sequence number that keeps
    /// advancing while shards are alive, so two equal-`seq` snapshots were
    /// taken between the same pair of shard ticks.
    pub seq: u64,
    /// True when no routed-but-unhandled events or queued-but-unflushed
    /// timesteps were pending at snapshot time — every counter has caught
    /// up with the traffic the edge accepted before this snapshot.
    pub settled: bool,
    /// Per-model breakdown, one entry per registry model (v3+; empty when
    /// parsed from a v1/v2 document).
    pub models: Vec<ModelSnapshot>,
}

/// One registry model's share of the daemon's traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelSnapshot {
    /// Registry name the model serves under.
    pub name: String,
    /// `"f32"` or `"i8"`.
    pub kind: String,
    /// Streams currently open on this model.
    pub streams_open: u64,
    /// Streams opened on this model since boot.
    pub streams_opened: u64,
    /// Timesteps accepted for this model since boot.
    pub timesteps_in: u64,
    /// Head outputs this model sent back since boot.
    pub emissions_out: u64,
    /// Pool waves that served this model.
    pub waves: u64,
    /// Mean streams served per wave of this model.
    pub wave_occupancy: f64,
    /// Median wave latency (ns) of this model since boot.
    pub wave_p50_ns: u64,
    /// 99th-percentile wave latency (ns) of this model.
    pub wave_p99_ns: u64,
    /// 99.9th-percentile wave latency (ns) of this model (v6+; zero when
    /// parsed from an older document).
    pub wave_p999_ns: u64,
}

impl ModelSnapshot {
    /// Renders one model's breakdown object.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("streams_open".into(), n(self.streams_open)),
            ("streams_opened".into(), n(self.streams_opened)),
            ("timesteps_in".into(), n(self.timesteps_in)),
            ("emissions_out".into(), n(self.emissions_out)),
            ("waves".into(), n(self.waves)),
            ("wave_occupancy".into(), Json::Num(self.wave_occupancy)),
            ("wave_p50_ns".into(), n(self.wave_p50_ns)),
            ("wave_p99_ns".into(), n(self.wave_p99_ns)),
            ("wave_p999_ns".into(), n(self.wave_p999_ns)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let num = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("model breakdown: missing number field '{name}'"))
        };
        let int = |name: &str| -> Result<u64, String> { Ok(num(name)? as u64) };
        let text = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("model breakdown: missing string field '{name}'"))
        };
        Ok(Self {
            name: text("name")?,
            kind: text("kind")?,
            streams_open: int("streams_open")?,
            streams_opened: int("streams_opened")?,
            timesteps_in: int("timesteps_in")?,
            emissions_out: int("emissions_out")?,
            waves: int("waves")?,
            wave_occupancy: num("wave_occupancy")?,
            wave_p50_ns: int("wave_p50_ns")?,
            wave_p99_ns: int("wave_p99_ns")?,
            wave_p999_ns: int("wave_p999_ns")?,
        })
    }
}

impl StatsSnapshot {
    /// Renders the snapshot as the JSON document the STATS frame carries.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("schema".into(), Json::Str(STATS_SCHEMA.into())),
            ("model".into(), Json::Str(self.model.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("shards".into(), n(self.shards)),
            ("connections_total".into(), n(self.connections_total)),
            ("connections_open".into(), n(self.connections_open)),
            ("connections_closed".into(), n(self.connections_closed)),
            ("connections_errored".into(), n(self.connections_errored)),
            ("connections_expired".into(), n(self.connections_expired)),
            ("connections_drained".into(), n(self.connections_drained)),
            ("streams_open".into(), n(self.streams_open)),
            ("streams_opened".into(), n(self.streams_opened)),
            ("streams_evicted".into(), n(self.streams_evicted)),
            ("timesteps_in".into(), n(self.timesteps_in)),
            ("emissions_out".into(), n(self.emissions_out)),
            ("frames_rejected".into(), n(self.frames_rejected)),
            ("replies_dropped".into(), n(self.replies_dropped)),
            ("outbuf_hwm_bytes".into(), n(self.outbuf_hwm_bytes)),
            ("waves".into(), n(self.waves)),
            ("wave_occupancy".into(), Json::Num(self.wave_occupancy)),
            ("wave_p50_ns".into(), n(self.wave_p50_ns)),
            ("wave_p99_ns".into(), n(self.wave_p99_ns)),
            ("wave_p999_ns".into(), n(self.wave_p999_ns)),
            ("seq".into(), n(self.seq)),
            ("settled".into(), Json::Bool(self.settled)),
            (
                "models".into(),
                Json::Arr(self.models.iter().map(ModelSnapshot::to_json).collect()),
            ),
        ])
    }

    /// Parses a snapshot back from STATS-frame JSON.
    ///
    /// # Errors
    ///
    /// Returns a message naming the schema when the document is not
    /// `pit-serve-stats/6`, or the first missing or ill-typed field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(STATS_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported stats schema '{other}', expected '{STATS_SCHEMA}'"
                ))
            }
            None => return Err("missing string field 'schema'".into()),
        }
        let num = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number field '{name}'"))
        };
        let int = |name: &str| -> Result<u64, String> { Ok(num(name)? as u64) };
        let text_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{name}'"))
        };
        Ok(Self {
            model: text_field("model")?,
            kind: text_field("kind")?,
            shards: int("shards")?,
            connections_total: int("connections_total")?,
            connections_open: int("connections_open")?,
            connections_closed: int("connections_closed")?,
            connections_errored: int("connections_errored")?,
            connections_expired: int("connections_expired")?,
            connections_drained: int("connections_drained")?,
            streams_open: int("streams_open")?,
            streams_opened: int("streams_opened")?,
            streams_evicted: int("streams_evicted")?,
            timesteps_in: int("timesteps_in")?,
            emissions_out: int("emissions_out")?,
            frames_rejected: int("frames_rejected")?,
            replies_dropped: int("replies_dropped")?,
            outbuf_hwm_bytes: int("outbuf_hwm_bytes")?,
            waves: int("waves")?,
            wave_occupancy: num("wave_occupancy")?,
            wave_p50_ns: int("wave_p50_ns")?,
            wave_p99_ns: int("wave_p99_ns")?,
            wave_p999_ns: int("wave_p999_ns")?,
            seq: int("seq")?,
            settled: match doc.get("settled") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing bool field 'settled'".into()),
            },
            models: doc
                .get("models")
                .and_then(Json::as_array)
                .ok_or("missing array field 'models'")?
                .iter()
                .map(ModelSnapshot::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}, {} shards): {} conns ({} open), {} streams open ({} opened, {} evicted), \
             {} timesteps in, {} emissions out, {} rejected, {} waves \
             (occupancy {:.1}, p50 {} ns, p99 {} ns, p99.9 {} ns)",
            self.model,
            self.kind,
            self.shards,
            self.connections_total,
            self.connections_open,
            self.streams_open,
            self.streams_opened,
            self.streams_evicted,
            self.timesteps_in,
            self.emissions_out,
            self.frames_rejected,
            self.waves,
            self.wave_occupancy,
            self.wave_p50_ns,
            self.wave_p99_ns,
            self.wave_p999_ns,
        )
    }
}

/// One wave-batcher shard's counter block. The owning shard thread updates
/// the atomics lock-free; the edge thread and the HTTP sidecar read them
/// whenever a STATS request, scrape or shutdown aggregates a snapshot.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) streams_open: AtomicU64,
    pub(crate) streams_opened: AtomicU64,
    pub(crate) streams_evicted: AtomicU64,
    pub(crate) timesteps_in: AtomicU64,
    pub(crate) emissions_out: AtomicU64,
    pub(crate) frames_rejected: AtomicU64,
    pub(crate) waves: AtomicU64,
    /// Events the edge routed to this shard but the shard has not fully
    /// handled yet (edge increments *before* sending, shard decrements
    /// with `Release` *after* handling — including any due wave — so a
    /// reader seeing zero also sees every counter update the events made).
    pub(crate) inflight: AtomicU64,
    /// Timesteps queued in this shard's pools at the end of its last loop
    /// iteration (nonzero = a wave is still owed).
    pub(crate) queued_steps: AtomicU64,
    /// Loop iterations since boot (the snapshot sequence contribution).
    pub(crate) ticks: AtomicU64,
    occupancy_sum: AtomicU64,
    wave_ns: Histogram,
}

impl ShardStats {
    /// Records one flushed wave: how many streams it served and how long the
    /// flush took.
    pub(crate) fn record_wave(&self, occupancy: usize, elapsed: std::time::Duration) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.occupancy_sum
            .fetch_add(occupancy as u64, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.wave_ns.record(ns);
    }

    /// A copy of this shard's wave-latency histogram (Prometheus export).
    pub(crate) fn wave_ns_snapshot(&self) -> HistogramSnapshot {
        self.wave_ns.snapshot()
    }
}

/// One registry model's counter block, shared by every shard (a model's
/// streams spread across all of them). All fields are atomics; recording a
/// wave is lock-free.
#[derive(Debug, Default)]
pub(crate) struct ModelStats {
    /// Streams currently open on this model — the edge is the only writer
    /// (it owns admission), shards and the sidecar only read.
    pub(crate) streams_open: AtomicU64,
    pub(crate) streams_opened: AtomicU64,
    pub(crate) timesteps_in: AtomicU64,
    pub(crate) emissions_out: AtomicU64,
    waves: AtomicU64,
    occupancy_sum: AtomicU64,
    wave_ns: Histogram,
}

impl ModelStats {
    /// Records one flushed wave of this model's pool on some shard.
    pub(crate) fn record_wave(&self, occupancy: usize, elapsed: std::time::Duration) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.occupancy_sum
            .fetch_add(occupancy as u64, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.wave_ns.record(ns);
    }

    /// The model's breakdown entry.
    pub(crate) fn snapshot(&self, name: &str, kind: &str) -> ModelSnapshot {
        let waves = self.waves.load(Ordering::Relaxed);
        let occupancy_sum = self.occupancy_sum.load(Ordering::Relaxed);
        let hist = self.wave_ns.snapshot();
        ModelSnapshot {
            name: name.to_string(),
            kind: kind.to_string(),
            streams_open: self.streams_open.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            timesteps_in: self.timesteps_in.load(Ordering::Relaxed),
            emissions_out: self.emissions_out.load(Ordering::Relaxed),
            waves,
            wave_occupancy: if waves == 0 {
                0.0
            } else {
                occupancy_sum as f64 / waves as f64
            },
            wave_p50_ns: hist.percentile(0.50),
            wave_p99_ns: hist.percentile(0.99),
            wave_p999_ns: hist.percentile(0.999),
        }
    }
}

/// Connection-lifecycle counters. The edge thread is the only writer of
/// most fields, but they are atomics so the HTTP sidecar can scrape them
/// from its own thread without a lock. `replies_dropped` and `outbuf_hwm`
/// are `Arc`s because shard threads update them too, through each
/// connection's [`crate::edge::OutBuf`].
#[derive(Debug, Default)]
pub(crate) struct EdgeCounters {
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_open: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) connections_errored: AtomicU64,
    /// Read-progress-deadline kills; also counted in `connections_errored`.
    pub(crate) connections_expired: AtomicU64,
    pub(crate) connections_drained: AtomicU64,
    pub(crate) frames_rejected: AtomicU64,
    pub(crate) replies_dropped: Arc<AtomicU64>,
    /// High-water mark of bytes queued toward any single connection.
    pub(crate) outbuf_hwm: Arc<AtomicU64>,
}

/// Aggregates the edge's counters and every shard's counters into one
/// daemon-wide snapshot. `model`/`kind` describe the default registry
/// entry (so pre-v3 consumers keep seeing the fields they expect);
/// `models` is the per-model breakdown built from the registry.
pub(crate) fn aggregate_snapshot(
    model: &str,
    kind: &str,
    edge: &EdgeCounters,
    shards: &[Arc<ShardStats>],
    models: Vec<ModelSnapshot>,
) -> StatsSnapshot {
    let sum = |f: &dyn Fn(&ShardStats) -> &AtomicU64| -> u64 {
        shards.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
    };
    let waves = sum(&|s| &s.waves);
    let occupancy_sum = sum(&|s| &s.occupancy_sum);
    let mut hist = HistogramSnapshot::empty();
    for shard in shards {
        hist.merge(&shard.wave_ns.snapshot());
    }
    // Acquire pairs with the shards' Release decrements/stores: a settled
    // observation implies every counter those events touched is visible.
    let settled = shards.iter().all(|s| {
        s.inflight.load(Ordering::Acquire) == 0 && s.queued_steps.load(Ordering::Acquire) == 0
    });
    let seq = shards.iter().map(|s| s.ticks.load(Ordering::Acquire)).sum();
    StatsSnapshot {
        model: model.to_string(),
        kind: kind.to_string(),
        shards: shards.len() as u64,
        connections_total: edge.connections_total.load(Ordering::Relaxed),
        connections_open: edge.connections_open.load(Ordering::Relaxed),
        connections_closed: edge.connections_closed.load(Ordering::Relaxed),
        connections_errored: edge.connections_errored.load(Ordering::Relaxed),
        connections_expired: edge.connections_expired.load(Ordering::Relaxed),
        connections_drained: edge.connections_drained.load(Ordering::Relaxed),
        streams_open: sum(&|s| &s.streams_open),
        streams_opened: sum(&|s| &s.streams_opened),
        streams_evicted: sum(&|s| &s.streams_evicted),
        timesteps_in: sum(&|s| &s.timesteps_in),
        emissions_out: sum(&|s| &s.emissions_out),
        frames_rejected: edge.frames_rejected.load(Ordering::Relaxed)
            + sum(&|s| &s.frames_rejected),
        replies_dropped: edge.replies_dropped.load(Ordering::Relaxed),
        outbuf_hwm_bytes: edge.outbuf_hwm.load(Ordering::Relaxed),
        waves,
        wave_occupancy: if waves == 0 {
            0.0
        } else {
            occupancy_sum as f64 / waves as f64
        },
        wave_p50_ns: hist.percentile(0.50),
        wave_p99_ns: hist.percentile(0.99),
        wave_p999_ns: hist.percentile(0.999),
        seq,
        settled,
        models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_aggregates_shards_and_roundtrips_through_json() {
        let edge = EdgeCounters::default();
        edge.connections_total.store(3, Ordering::Relaxed);
        edge.connections_open.store(2, Ordering::Relaxed);
        edge.connections_closed.store(1, Ordering::Relaxed);
        edge.frames_rejected.store(1, Ordering::Relaxed);
        edge.replies_dropped.store(7, Ordering::Relaxed);
        edge.outbuf_hwm.store(12_345, Ordering::Relaxed);
        let shards: Vec<Arc<ShardStats>> =
            (0..2).map(|_| Arc::new(ShardStats::default())).collect();
        for (i, shard) in shards.iter().enumerate() {
            shard.streams_open.store(2, Ordering::Relaxed);
            shard.streams_opened.store(5, Ordering::Relaxed);
            shard.timesteps_in.store(500, Ordering::Relaxed);
            shard.emissions_out.store(60 + i as u64, Ordering::Relaxed);
            shard.frames_rejected.store(1, Ordering::Relaxed);
            shard.ticks.store(10, Ordering::Relaxed);
            for j in 0..50u64 {
                shard.record_wave(4, Duration::from_nanos(1000 + j));
            }
        }
        let model_stats = ModelStats::default();
        model_stats.streams_open.store(4, Ordering::Relaxed);
        model_stats.streams_opened.store(5, Ordering::Relaxed);
        model_stats.timesteps_in.store(400, Ordering::Relaxed);
        model_stats.emissions_out.store(40, Ordering::Relaxed);
        model_stats.record_wave(3, Duration::from_nanos(2000));
        let breakdown = vec![model_stats.snapshot("TEMPONet-plan", "f32")];
        let snap = aggregate_snapshot("TEMPONet-plan", "f32", &edge, &shards, breakdown);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.models.len(), 1);
        assert_eq!(snap.models[0].streams_open, 4);
        assert_eq!(snap.models[0].timesteps_in, 400);
        assert_eq!(snap.models[0].waves, 1);
        // Histogram percentiles report the containing bucket's upper
        // bound: exact count, value within a quarter above the sample.
        assert!(
            (2000..=2500).contains(&snap.models[0].wave_p50_ns),
            "p50={}",
            snap.models[0].wave_p50_ns
        );
        assert_eq!(snap.streams_open, 4);
        assert_eq!(snap.streams_opened, 10);
        assert_eq!(snap.timesteps_in, 1000);
        assert_eq!(snap.emissions_out, 121);
        assert_eq!(snap.frames_rejected, 3, "edge + shard rejections");
        assert_eq!(snap.replies_dropped, 7);
        assert_eq!(snap.connections_closed, 1);
        assert_eq!(snap.outbuf_hwm_bytes, 12_345);
        assert_eq!(snap.waves, 100);
        assert_eq!(snap.seq, 20);
        assert!(snap.settled, "no in-flight events were registered");
        assert!((snap.wave_occupancy - 4.0).abs() < 1e-9);
        assert!(snap.wave_p50_ns >= 1000 && snap.wave_p99_ns >= snap.wave_p50_ns);
        let text = snap.to_json().render();
        let back = StatsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn inflight_events_or_queued_steps_unsettle_the_snapshot() {
        let shards: Vec<Arc<ShardStats>> =
            (0..2).map(|_| Arc::new(ShardStats::default())).collect();
        let snap = aggregate_snapshot("m", "f32", &EdgeCounters::default(), &shards, vec![]);
        assert!(snap.settled);
        shards[1].inflight.store(1, Ordering::Relaxed);
        let snap = aggregate_snapshot("m", "f32", &EdgeCounters::default(), &shards, vec![]);
        assert!(!snap.settled, "a routed event keeps the snapshot unsettled");
        shards[1].inflight.store(0, Ordering::Relaxed);
        shards[0].queued_steps.store(8, Ordering::Relaxed);
        let snap = aggregate_snapshot("m", "f32", &EdgeCounters::default(), &shards, vec![]);
        assert!(!snap.settled, "queued timesteps owe a wave");
    }

    #[test]
    fn v5_documents_are_refused_naming_their_schema() {
        // A pit-serve-stats/5 document: no p99.9 fields, older schema tag.
        let text = r#"{
            "schema": "pit-serve-stats/5", "model": "m", "kind": "f32",
            "shards": 2, "connections_total": 1, "connections_open": 1,
            "connections_closed": 0, "connections_errored": 0,
            "connections_expired": 0, "connections_drained": 0,
            "streams_open": 0, "streams_opened": 3, "streams_evicted": 0,
            "timesteps_in": 10, "emissions_out": 10, "frames_rejected": 0,
            "replies_dropped": 0, "outbuf_hwm_bytes": 0, "waves": 2,
            "wave_occupancy": 1.5, "wave_p50_ns": 100, "wave_p99_ns": 200,
            "seq": 4, "settled": true, "models": []
        }"#;
        let err = StatsSnapshot::from_json_str(text).unwrap_err();
        assert!(err.contains("pit-serve-stats/5"), "{err}");
    }

    #[test]
    fn latency_percentiles_span_the_whole_run() {
        let stats = ShardStats::default();
        for _ in 0..1000 {
            stats.record_wave(1, Duration::from_nanos(10));
        }
        for _ in 0..1000 {
            stats.record_wave(1, Duration::from_nanos(1_000_000));
        }
        let snap = aggregate_snapshot(
            "m",
            "f32",
            &EdgeCounters::default(),
            &[Arc::new(stats)],
            vec![],
        );
        // Half fast, half slow: the rank convention puts the p50 on the
        // first slow observation, and unlike the old rolling window the
        // histogram never forgets the early fast waves (p0 stays fast).
        assert!(
            (1_000_000..=1_250_000).contains(&snap.wave_p50_ns),
            "p50={}",
            snap.wave_p50_ns
        );
        assert!(snap.wave_p99_ns >= 1_000_000, "p99={}", snap.wave_p99_ns);
        assert!(
            snap.wave_p999_ns >= snap.wave_p99_ns,
            "p99.9={} p99={}",
            snap.wave_p999_ns,
            snap.wave_p99_ns
        );
        assert_eq!(snap.waves, 2000);
    }
}
