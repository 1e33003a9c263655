//! # pit-serve
//!
//! The serving daemon of the PIT reproduction: a long-running TCP server
//! that boots from an on-disk `pit-arch/2` model artifact
//! ([`pit_infer::PlanArtifact`] — weights included, f32 or int8) and
//! multiplexes thousands of client streams onto the batched session-pool
//! waves of `pit-infer`.
//!
//! * **Protocol** ([`protocol`]): length-prefixed binary frames — OPEN a
//!   stream, PUSH timesteps, receive EMIT frames back, CLOSE; plus
//!   PING/STATS/LOAD_MODEL control frames. Protocol v2 adds the coalesced
//!   PUSH_N/EMIT_N frames carrying many streams' timesteps per frame.
//!   Decoding is defensive: malformed or hostile input yields ERROR
//!   frames, never a daemon panic.
//! * **Server** ([`server`]): an event-driven edge — one thread owning
//!   every socket through a `poll(2)` readiness loop, no per-connection
//!   threads — in front of [`ServerConfig::shards`] wave-batcher threads.
//!   Each shard owns one session-pool shard behind the
//!   [`pit_infer::StreamPool`] trait (f32 and int8 served by the same
//!   code); streams pin to a shard at OPEN time, and every tick each
//!   shard flushes its pending timesteps as one batched GEMM per layer.
//!   Per-connection backpressure caps, bounded reply buffers, idle-stream
//!   eviction and graceful drain on shutdown are built in.
//! * **Stats** ([`stats`]): a [`StatsSnapshot`] counter block (streams
//!   open, timesteps served, wave occupancy, p50/p99/p99.9 wave latency
//!   from log-scale histograms, aggregated across shards) served over the
//!   STATS frame as JSON. The [`StatsSnapshot::settled`] flag and
//!   [`StatsSnapshot::seq`] sequence let pollers detect quiescence
//!   without sleeping.
//! * **Telemetry**: an always-on hub behind an optional HTTP sidecar
//!   ([`ServerConfig::metrics_addr`]) — Prometheus text on `GET
//!   /metrics`, the stats JSON on `GET /stats`, lifecycle state on `GET
//!   /healthz` (503 while booting or draining), and a per-stream event
//!   trace ([`TraceEvent`]) on `GET /trace` and the TRACE frame
//!   (protocol v4). The sidecar reads the same atomics the STATS frame
//!   aggregates, so the two views can never disagree.
//! * **Client** ([`client`]): a small blocking client used by the tests,
//!   benches and examples — [`ClientBuilder`] for timeouts, write
//!   batching and a default model, per-stream model selection via
//!   [`Client::open_with_model`], registry listing via
//!   [`Client::list_models`], typed [`ServeError`]s.
//! * **Model zoo**: the server can boot a whole registry from a
//!   `pit-zoo/1` manifest ([`Server::bind_zoo`]) — one daemon serving
//!   many searched models, each OPEN picking one by name (protocol v3).
//!
//! ```no_run
//! use pit_serve::{Client, Server, ServerConfig};
//! use std::path::Path;
//!
//! let server = Server::bind_artifact(Path::new("model.pit2.json"), ServerConfig::default())
//!     .expect("artifact loads");
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(addr).expect("daemon reachable");
//! client.open(0).expect("send");
//! client.push(0, 4, &[0.1, 0.2, 0.3, 0.4]).expect("send");
//! // ... read EMIT frames with client.recv() ...
//! let stats = handle.shutdown();
//! println!("served {} timesteps", stats.timesteps_in);
//! ```

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
pub(crate) mod edge;
pub(crate) mod http;
pub mod protocol;
pub mod server;
pub(crate) mod shard;
pub mod stats;
pub(crate) mod telemetry;

pub use client::{http_get, Client, ClientBuilder, ModelInfo, ServeError};
pub use protocol::{ClientFrame, CloseReason, ErrorCode, FrameError, ServerFrame, MAX_MODEL_NAME};
pub use server::{ServeEngine, Server, ServerConfig, ServerHandle};
pub use stats::{ModelSnapshot, StatsSnapshot};
pub use telemetry::TraceEvent;

/// The shared log-scale latency histogram (the exact bucket layout behind
/// every `wave_p*_ns` field and the `/metrics` histogram series), hosted
/// in `pit-tensor` so clients and load drivers can merge and compare
/// snapshots against the daemon's.
pub use pit_tensor::hist;
