//! # pit-infer
//!
//! The streaming inference engine of the PIT reproduction: it **compiles** a
//! searched temporal convolutional network into a tape-free, deployable
//! serving plan and executes it statefully, per timestep, for many concurrent
//! streams.
//!
//! The PIT search's payoff (Risso et al., DAC 2021) is that the mask-trained
//! dense network collapses into a tiny, *truly dilated* TCN. Training-side
//! crates express that network through the autograd [`pit_tensor::Tape`];
//! this crate is the other half of the story — what actually serves traffic:
//!
//! * **Compile** ([`plan`]): binarised γ masks fold into real dilations (only
//!   alive taps stored, packed contiguously), batch normalisation fuses into
//!   convolution weights, and the result is an [`InferencePlan`] executed
//!   through the tiled kernels of [`pit_tensor::kernels`] — no tape, no
//!   gradient bookkeeping. Plans round-trip their geometry through
//!   [`pit_models::NetworkDescriptor`] JSON, so a searched architecture can
//!   be persisted and re-compiled without re-running the search.
//! * **Stream** ([`stream`]): one streaming runtime, generic over a numeric
//!   [`Backend`]. A [`Session`] keeps one ring buffer per convolution (its
//!   receptive field), pool windows and the head state, so one new timestep
//!   costs `O(C_out · C_in · alive_taps)` — not a full window re-forward.
//!   Zero state ≡ causal zero padding: streaming a window sample-by-sample
//!   reproduces the offline forward to `1e-5`. The runtime writes the
//!   block/head walk, emission schedule, state and scratch once; a backend
//!   supplies the ring element, the seam conversion, the gather and the
//!   per-step/per-wave kernels. [`F32`] is the reference backend.
//! * **Serve** ([`session`]): a [`SessionPool`] batches the pending timesteps
//!   of N concurrent sessions into single matrix products per layer — N
//!   streams, one kernel invocation. [`StreamPool`] is the object-safe face
//!   of any pool, so a serving front end holds `Box<dyn StreamPool>` whatever
//!   the precision.
//! * **Quantize** ([`quant`]): [`Calibration`] records max-abs activation
//!   ranges per layer seam, [`QuantizedPlan`] lowers the plan to int8
//!   (per-output-channel weight scales, exact `i8×i8→i32` arithmetic), and
//!   the [`I8`] backend streams it through the same runtime
//!   ([`QuantizedSession`] = `Session<I8>`, [`QuantizedSessionPool`] =
//!   `SessionPool<I8>`) with `i8` ring state — ~3.5x smaller per stream,
//!   over 2x faster per step, and provably within
//!   [`QuantizedPlan::error_bound`] of the f32 engine.
//! * **Persist** ([`artifact`]): plans serialise *with their weights* as
//!   `pit-arch/2` JSON artifacts ([`InferencePlan::to_artifact`],
//!   [`QuantizedPlan::to_artifact`], base64 tensor payloads) and load back
//!   bit-identically ([`PlanArtifact::load`]) — the boot path of the
//!   `pit-serve` daemon, no model code or calibration data needed at serve
//!   time.
//! * **Library** ([`zoo`]): a whole searched Pareto front ships as one
//!   directory — artifact files plus a `pit-zoo/1` manifest
//!   ([`ZooManifest`]) naming each model and its size/accuracy metadata, the
//!   hand-off from `pit-search` to a multi-model daemon.
//!
//! ```
//! use pit_infer::{compile_generic, Session};
//! use pit_models::{GenericTcn, GenericTcnConfig};
//! use pit_nas::SearchableNetwork;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
//! net.set_dilations(&[4, 8]); // "the search result"
//! let plan = Arc::new(compile_generic(&net));
//! let mut session = Session::new(plan);
//! let out = session.push(&[0.5]).expect("per-step head emits every step");
//! assert_eq!(out.len(), 1);
//! ```

pub mod artifact;
pub mod plan;
pub mod quant;
pub mod session;
pub mod stream;
pub mod stream_pool;
pub mod zoo;

pub use artifact::{PlanArtifact, ARTIFACT_SCHEMA};
pub use plan::{
    compile_concrete, compile_generic, compile_restcn, compile_temponet, CompiledConv, Dense,
    InferencePlan, Plan, PlanBlock, PlanHead, PoolSpec,
};
pub use quant::{
    Calibration, QuantBlock, QuantHead, QuantizedConv, QuantizedDense, QuantizedPlan,
    QuantizedSession, QuantizedSessionPool, I8,
};
pub use session::SessionPool;
pub use stream::{Backend, Session, F32};
pub use stream_pool::StreamPool;
pub use zoo::{ZooEntry, ZooManifest, ZOO_SCHEMA};
